"""Layer spans recorded from outside the package.

`Tracer.install()` replaces the public functions of each layer with a
timing wrapper at every module that binds them, and the `BoundaryCurve`
methods on the class; `uninstall()` puts the originals back. Each span is
tagged with the tracer's current run id. Spans stay in memory as
tuples until `dump()` writes them at the end. `layer_metrics()` turns the
spans of one run id into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (span id, parent id or -1, name, start, end, run id, work count)
Span = Tuple[int, int, str, float, float, str, int]


def _rows(a) -> int:
    return len(np.atleast_2d(np.asarray(a)))


def _size(a) -> int:
    return int(np.size(a))


# span name -> (module, attribute, work count from the call's arguments)
FUNCTIONS: Dict[str, Tuple[str, str, Optional[Callable]]] = {
    "geometry.max_inscribed_disk": ("eikstab.geometry.inscribed", "max_inscribed_disk", None),
    "geometry.best_circle_center": ("eikstab.geometry.circlefit", "best_circle_center", None),
    "defect.defect_batch": ("eikstab.defect", "defect_batch", lambda a, k: _rows(a[2])),
    "defect.integral_a2": ("eikstab.defect", "integral_a2", None),
    "fields.eval_many": ("eikstab.fields", "eval_many", lambda a, k: _rows(a[1])),
    "fields.jump_distance": ("eikstab.fields", "jump_distance", lambda a, k: _rows(a[1])),
    "fields.best_vortex_fit": ("eikstab.fields", "best_vortex_fit", None),
    "kinetic.nu_total": ("eikstab.kinetic", "nu_total", None),
    "lagrangian.sample_ensemble": ("eikstab.lagrangian", "sample_ensemble", None),
    "lagrangian.dissipation_decomposition": ("eikstab.lagrangian", "dissipation_decomposition", None),
    "energy.raster_field": ("eikstab.energy", "raster_field", lambda a, k: int(a[1]) ** 2),
    "energy.mollify_field": ("eikstab.energy", "mollify_field", None),
    "energy.solve_stray_field": ("eikstab.energy", "solve_stray_field", lambda a, k: a[0].n),
    "energy.evaluate_F_eps": ("eikstab.energy", "evaluate_F_eps", None),
    "energy.evaluate_E_AG": ("eikstab.energy", "evaluate_E_AG", None),
    "stability.sharpness_sweep": ("eikstab.stability", "sharpness_sweep", None),
    "stability.normal_deviation": ("eikstab.stability", "normal_deviation", None),
    "stability.check_main2": ("eikstab.stability", "check_main2", None),
    "cli.run": ("eikstab.cli", "run", None),
    "cli.report_write": ("eikstab.report", "write_json", None),
}

# (span name, BoundaryCurve method, work count); the arguments start at self
METHODS: List[Tuple[str, str, Optional[Callable]]] = [
    ("geometry.inside", "inside", lambda a, k: _rows(a[1])),
    ("geometry.ray_exit", "ray_exit", None),
    ("geometry.point_tangent", "point", lambda a, k: _size(a[1])),
    ("geometry.point_tangent", "tangent", lambda a, k: _size(a[1])),
    ("geometry.dist_to_boundary", "dist_to_boundary", lambda a, k: _rows(a[1])),
]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        # run id -> lagrangian counts and integral_a2 evaluations
        self.counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.run_id = ""
        self._ids = itertools.count()
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, work: Optional[Callable],
              on_result: Optional[Callable] = None) -> Callable:
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            n = work(args, kwargs) if work is not None else 0
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, self.run_id, n))
            if on_result is not None:
                on_result(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_ensemble(self, ens) -> None:
        term = np.asarray(ens.termination)
        c = self.counts[self.run_id]
        c["curves"] += int(ens.n_curves)
        c["interior"] += int(ens.n_interior)
        c["reflections"] += len(ens.events["t"])
        c["crossings"] += len(ens.events["cross_t"])
        c["term_horizon"] += int(np.sum(term == 0))
        c["term_boundary"] += int(np.sum(term == 1))
        c["term_center"] += int(np.sum(term == 2))

    def _on_integral(self, res) -> None:
        self.counts[self.run_id]["n_evals"] += int(res.n_evals)

    def install(self) -> None:
        """Wrap every binding site of each traced function in the loaded
        eikstab modules, and the traced BoundaryCurve methods."""
        from eikstab.geometry.curve import BoundaryCurve

        hooks = {"lagrangian.sample_ensemble": self._on_ensemble,
                 "defect.integral_a2": self._on_integral}
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "eikstab" or k.startswith("eikstab."))]
        for name, (modname, attr, work) in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, original, work, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapped)
        for name, attr, work in METHODS:
            original = BoundaryCurve.__dict__[attr]
            self._restore.append((BoundaryCurve, attr, original))
            setattr(BoundaryCurve, attr, self._wrap(name, original, work))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, run_id, work in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "run": run_id,
                                     "work": work}) + "\n")


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, run_id: str) -> Dict[str, float]:
    """Per-layer metrics of the spans `tracer` holds for one run id."""
    spans = [s for s in tracer.spans if s[5] == run_id]
    by_id = {s[0]: s for s in spans}
    child_time: Dict[int, float] = defaultdict(float)
    for sid, parent, name, t0, t1, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0

    calls: Dict[str, int] = defaultdict(int)
    work: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    fft_n = 0
    ancestors: Dict[int, frozenset] = {}
    dist_under_mid = 0
    inside_under_ens = 0
    for sid, parent, name, t0, t1, _, n in sorted(spans):
        calls[name] += 1
        work[name] += n
        total[name] += t1 - t0
        self_s[name] += (t1 - t0) - child_time[sid]
        if name == "energy.solve_stray_field":
            fft_n = max(fft_n, n)
        # ids grow with start time, so a parent is visited before its child
        up = ancestors.get(parent, frozenset())
        if parent >= 0:
            up = up | {by_id[parent][2]}
        ancestors[sid] = up
        if name == "geometry.dist_to_boundary" and "geometry.max_inscribed_disk" in up:
            dist_under_mid += 1
        if name == "geometry.inside" and "lagrangian.sample_ensemble" in up:
            inside_under_ens += n

    ens = tracer.counts[run_id]
    events = ens["reflections"] + ens["crossings"] + ens["curves"]
    mid = "geometry.max_inscribed_disk"
    return {
        "geometry.inside.calls": calls["geometry.inside"],
        "geometry.inside.points": work["geometry.inside"],
        "geometry.inside.self_s": self_s["geometry.inside"],
        "geometry.inside.points_per_s": _rate(work["geometry.inside"], total["geometry.inside"]),
        "geometry.ray_exit.calls": calls["geometry.ray_exit"],
        "geometry.ray_exit.self_s": self_s["geometry.ray_exit"],
        "geometry.point_tangent.points": work["geometry.point_tangent"],
        "geometry.point_tangent.self_s": self_s["geometry.point_tangent"],
        "geometry.dist_to_boundary.calls": calls["geometry.dist_to_boundary"],
        "geometry.dist_to_boundary.self_s": self_s["geometry.dist_to_boundary"],
        "geometry.dist_to_boundary.us_per_call": 1e6 * _rate(
            total["geometry.dist_to_boundary"], calls["geometry.dist_to_boundary"]),
        "geometry.max_inscribed_disk.calls": calls[mid],
        "geometry.max_inscribed_disk.self_s": self_s[mid],
        "geometry.max_inscribed_disk.dist_calls_per_call": _rate(dist_under_mid, calls[mid]),
        "geometry.best_circle_center.self_s": self_s["geometry.best_circle_center"],
        "defect.defect_batch.calls": calls["defect.defect_batch"],
        "defect.defect_batch.triples": work["defect.defect_batch"],
        "defect.defect_batch.self_s": self_s["defect.defect_batch"],
        "defect.defect_batch.triples_per_s": _rate(work["defect.defect_batch"], total["defect.defect_batch"]),
        "defect.integral_a2.self_s": self_s["defect.integral_a2"],
        "defect.integral_a2.n_evals": ens["n_evals"],
        "fields.eval_many.points": work["fields.eval_many"],
        "fields.eval_many.self_s": self_s["fields.eval_many"],
        "fields.eval_many.points_per_s": _rate(work["fields.eval_many"], total["fields.eval_many"]),
        "fields.jump_distance.points": work["fields.jump_distance"],
        "fields.jump_distance.self_s": self_s["fields.jump_distance"],
        "fields.best_vortex_fit.self_s": self_s["fields.best_vortex_fit"],
        "kinetic.nu_total.calls": calls["kinetic.nu_total"],
        "kinetic.nu_total.self_s": self_s["kinetic.nu_total"],
        "lagrangian.sample_ensemble.self_s": self_s["lagrangian.sample_ensemble"],
        "lagrangian.curves": ens["curves"],
        "lagrangian.reflections": ens["reflections"],
        "lagrangian.crossings": ens["crossings"],
        "lagrangian.term_horizon": ens["term_horizon"],
        "lagrangian.term_boundary": ens["term_boundary"],
        "lagrangian.term_center": ens["term_center"],
        "lagrangian.curve_events_per_s": _rate(events, total["lagrangian.sample_ensemble"]),
        "lagrangian.start_accept_ratio": _rate(ens["interior"], inside_under_ens),
        "lagrangian.dissipation_decomposition.self_s": self_s["lagrangian.dissipation_decomposition"],
        "energy.raster_field.self_s": self_s["energy.raster_field"],
        "energy.raster_field.cells_per_s": _rate(work["energy.raster_field"], total["energy.raster_field"]),
        "energy.mollify_field.self_s": self_s["energy.mollify_field"],
        "energy.solve_stray_field.self_s": self_s["energy.solve_stray_field"],
        "energy.solve_stray_field.fft_n": fft_n,
        "energy.evaluate_F_eps.self_s": self_s["energy.evaluate_F_eps"],
        "energy.evaluate_E_AG.self_s": self_s["energy.evaluate_E_AG"],
        "stability.sharpness_sweep.self_s": self_s["stability.sharpness_sweep"],
        "stability.normal_deviation.calls": calls["stability.normal_deviation"],
        "stability.normal_deviation.self_s": self_s["stability.normal_deviation"],
        "stability.check_main2.self_s": self_s["stability.check_main2"],
        "cli.run.self_s": self_s["cli.run"],
        "cli.report_write.self_s": self_s["cli.report_write"],
    }
