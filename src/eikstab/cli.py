"""Command-line scenario runner.

Every subcommand writes a JSON report (sorted keys, no clock data unless
--timing), optionally CSV tables and an SVG log-log plot.  Exit code 0
means every recorded assertion passed, 1 means at least one failed, 2
means the invocation itself was invalid.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import defect, energy, fields, kinetic, lagrangian, report, stability, svgplot
from .geometry import (
    BoundaryCurve,
    make_circle,
    make_ellipse,
    make_rounded_ngon,
    make_spline_curve,
    max_inscribed_disk,
    star_region,
)

TWO_PI = 2.0 * math.pi


class CurveSpecError(ValueError):
    def __init__(self, message: str, key: str):
        super().__init__(message)
        self.key = key


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------- curve specs

_CURVE_KEYS = {
    "circle": set(),
    "ellipse": {"aspect", "rotation"},
    "rounded_ngon": {"n", "rotation"},
    "spline": {"points"},
}


def parse_curve_spec(text: str) -> BoundaryCurve:
    """Parse 'circle', 'ellipse:aspect=1.3', 'rounded_ngon:n=8', or the
    equivalent comma list 'kind=rounded_ngon,n=8'."""
    text = text.strip()
    kind, _, rest = text.partition(":")
    keyed = "=" in kind  # the comma-list form carries the kind as a key
    kv = {}
    for part in (p for p in (text if keyed else rest).split(",") if p):
        key, eq, val = part.partition("=")
        if not eq:
            raise CurveSpecError(
                f"curve spec entry {key!r} is not key=value", key)
        kv[key.strip()] = val.strip()
    if keyed:
        kind = kv.pop("kind", None)
        if kind is None:
            raise CurveSpecError("curve spec is missing the 'kind' key",
                                 "kind")
    if kind not in _CURVE_KEYS:
        raise CurveSpecError(f"unknown curve kind {kind!r}", "kind")
    bad = set(kv) - _CURVE_KEYS[kind]
    if bad:
        key = sorted(bad)[0]
        raise CurveSpecError(
            f"curve key {key!r} is not valid for kind {kind!r}", key)

    def need(key: str) -> str:
        if key not in kv:
            raise CurveSpecError(
                f"curve kind {kind!r} requires the {key!r} key", key)
        return kv[key]

    def as_float(key: str, raw: str) -> float:
        try:
            return float(raw)
        except ValueError:
            raise CurveSpecError(
                f"curve key {key!r} has non-numeric value {raw!r}", key)

    if kind == "circle":
        return make_circle()
    if kind == "ellipse":
        aspect = as_float("aspect", need("aspect"))
        rotation = as_float("rotation", kv.get("rotation", "0"))
        if aspect < 1.0:
            raise CurveSpecError("curve key 'aspect' must be >= 1", "aspect")
        return make_ellipse(aspect, rotation=rotation)
    if kind == "rounded_ngon":
        raw = need("n")
        try:
            n = int(raw)
        except ValueError:
            raise CurveSpecError(
                f"curve key 'n' has non-integer value {raw!r}", "n")
        if n < 3:
            raise CurveSpecError("curve key 'n' must be at least 3", "n")
        rotation = as_float("rotation", kv.get("rotation", "0"))
        return make_rounded_ngon(n, rotation=rotation)
    path = need("points")
    try:
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                cells = line.replace(",", " ").split()
                try:
                    rows.append([float(cells[0]), float(cells[1])])
                except (ValueError, IndexError):
                    if rows:
                        raise
                    continue  # header row
    except OSError as exc:
        raise CurveSpecError(
            f"curve key 'points' file cannot be read: {exc}", "points")
    if len(rows) < 8:
        raise CurveSpecError(
            "curve key 'points' needs at least 8 samples", "points")
    return make_spline_curve(np.asarray(rows))


def build_field(curve: BoundaryCurve, kind: Optional[str]):
    # distgrad needs the medial star; the vortex is the comparison field
    # everywhere else (jump-free, so nu = 0).
    kind = kind or ("vortex" if curve.medial_star is None else "distgrad")
    if kind == "distgrad":
        try:
            return fields.distgrad_field(curve)
        except ValueError as exc:
            raise UsageError(f"field 'distgrad': {exc}")
    if kind == "vortex":
        center = max_inscribed_disk(curve).center_xy
        return fields.vortex(curve, center)
    raise UsageError(f"unknown field kind {kind!r}")


# ------------------------------------------------------------- configuration

def parse_config_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    try:
        with open(path) as fh:
            for ln, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, val = line.partition("=")
                if not eq:
                    raise UsageError(
                        f"config line {ln} is not key=value: {line!r}")
                out[key.strip()] = val.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    return out


def _switch(raw: str) -> bool:
    """On/off value of a config key that mirrors a bare flag."""
    value = {"true": True, "1": True, "false": False, "0": False}.get(
        raw.lower())
    if value is None:
        raise ValueError(raw)
    return value


@dataclass(frozen=True)
class Option:
    """One option of one command, declared once.

    Its flag is --name with '_' written '-'.  A value comes from the flag,
    else from the --config file, else from the default; flag_only options
    (output paths, workers, timing) skip the config file and stay out of
    the report's config.  required is True or the reason the message
    gives; choices lists the allowed values.
    """

    name: str
    convert: Callable[[str], object] = str
    default: object = None
    required: Union[bool, str] = False
    choices: Tuple[str, ...] = ()
    flag_only: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def resolve(args: argparse.Namespace,
            options: Sequence[Option]) -> Dict[str, object]:
    """Flags win; config file fills the gaps; hard defaults last.  Then
    every required value must be set and every value an allowed choice."""
    keyed = {o.name: o for o in options if not o.flag_only}
    cfg = parse_config_file(args.config) if args.config else {}
    unknown = set(cfg) - set(keyed)
    if unknown:
        raise UsageError(
            f"config key {sorted(unknown)[0]!r} is not valid for this command")
    out: Dict[str, object] = {}
    for key, opt in keyed.items():
        value = getattr(args, key)
        if value is None and key in cfg:
            try:
                value = opt.convert(cfg[key])
            except ValueError:
                raise UsageError(
                    f"config key {key!r} has invalid value {cfg[key]!r}")
        if value is None:
            value = opt.default
        if opt.required and value in (None, ""):
            why = f" ({opt.required})" if isinstance(opt.required, str) else ""
            raise UsageError(f"{opt.flag} is required{why}")
        if opt.choices and value not in opt.choices:
            raise UsageError(f"{opt.flag} must be "
                             + " or ".join(map(repr, opt.choices)))
        out[key] = value
    return out


def _out_path(args, command: str) -> str:
    if args.out:
        return args.out
    base = os.environ.get("EIKSTAB_OUTDIR", ".")
    return os.path.join(base, f"{command}.json")


# ------------------------------------------------------------------ commands

def _series_csv_path(plot_path: str, csv_opt: Optional[str]) -> str:
    if csv_opt:
        return csv_opt
    root, _ = os.path.splitext(plot_path)
    return root + ".csv"


def cmd_gen_domain(cfg, args) -> Tuple[dict, List[dict]]:
    curve = parse_curve_spec(cfg["curve"])
    try:
        table = curve.sample_table(cfg["samples"])
    except ValueError as exc:
        raise UsageError(str(exc))
    disk = max_inscribed_disk(curve)
    if args.csv:
        report.write_csv(args.csv,
                         ["s", "x", "y", "tau_x", "tau_y", "kappa"], table)
    results = {
        "curve": curve.spec,
        "perimeter": curve.perimeter,
        "area": curve.area(),
        "inscribed_center": list(disk.center_xy),
        "inscribed_radius": disk.radius,
        "bbox": list(curve.bbox()),
        "samples": cfg["samples"],
    }
    asserts = [report.assertion(
        "perimeter_two_pi", abs(curve.perimeter - TWO_PI), 1e-9,
        abs(curve.perimeter - TWO_PI) <= 1e-9, target=0.0)]
    return results, asserts


def cmd_defect(cfg, args) -> Tuple[dict, List[dict]]:
    curve = parse_curve_spec(cfg["curve"])
    try:
        triple = [float(v) for v in cfg["triple"].split(",")]
    except ValueError:
        triple = []
    if len(triple) != 3:
        raise UsageError("--triple must be three comma-separated numbers")
    disk = max_inscribed_disk(curve)
    try:
        res = defect.defect_a(curve, disk, triple)
    except ValueError as exc:
        raise UsageError(str(exc))
    results = {
        "a": res.a,
        "z0": list(res.z0),
        "alphas": list(res.alphas),
        "signs": [bool(s) for s in res.signs],
        "triple": triple,
    }
    asserts = [report.assertion("defect_nonnegative", res.a, 0.0,
                                res.a >= 0.0)]
    return results, asserts


def cmd_defect_integral(cfg, args) -> Tuple[dict, List[dict]]:
    if cfg["mc"] is not None and cfg["seed"] is None:
        raise UsageError("--seed is required with --mc")
    curve = parse_curve_spec(cfg["curve"])
    disk = max_inscribed_disk(curve)
    region_spec = cfg["region"]
    eta = None
    if region_spec != "full":
        head, _, tail = region_spec.partition(":")
        if head != "star" or not tail:
            raise UsageError(
                "--region must be 'full' or 'star:<eta>'")
        try:
            eta = float(tail)
        except ValueError:
            raise UsageError("--region star eta must be numeric")
    try:
        region = None if eta is None else star_region(curve, disk, eta)
        res = defect.integral_a2(
            curve, disk, region=region, M=cfg["nodes"], mc_samples=cfg["mc"],
            seed=cfg["seed"] if cfg["seed"] is not None else 0)
    except ValueError as exc:
        raise UsageError(str(exc))
    results = {
        "value": res.value,
        "standard_error": res.standard_error,
        "mode": res.mode,
        "n_evals": res.n_evals,
        "symmetry_order": res.symmetry_order,
        "region": region_spec,
    }
    asserts = [report.assertion("integral_nonnegative", res.value, 0.0,
                                res.value >= 0.0)]
    return results, asserts


def cmd_nu(cfg, args) -> Tuple[dict, List[dict]]:
    curve = parse_curve_spec(cfg["curve"])
    f = build_field(curve, cfg["field"])
    rep = kinetic.nu_total(f, _COST_KIND[cfg["cost"]])
    if args.csv:
        report.write_csv(args.csv, ["amplitude", "ars", "cubic"],
                         kinetic.cost_table())
    results = {
        "curve": curve.spec,
        "field": f.kind,
        "cost_kind": rep.cost_kind,
        "nu_total": rep.nu_total,
        "per_segment": [list(row) for row in rep.per_segment],
        "n_segments": len(rep.per_segment),
    }
    asserts = [report.assertion("nu_nonnegative", rep.nu_total, 0.0,
                                rep.nu_total >= 0.0)]
    return results, asserts


# dissipation_matches_nu passes when rate/nu lies within RATE_K standard
# errors of the run (relative to nu) of 1, on a band never narrower than
# RATE_FLOOR
RATE_K, RATE_FLOOR = 4, 0.03


def _rate_band(rate: lagrangian.RateEstimate, nu: float):
    """(rate/nu, half-width of its band about 1, passed)."""
    ratio = rate.rate / nu
    tol = max(RATE_K * rate.standard_error / nu, RATE_FLOOR)
    return ratio, tol, abs(ratio - 1.0) <= tol


def cmd_lagrangian(cfg, args) -> Tuple[dict, List[dict]]:
    curve = parse_curve_spec(cfg["curve"])
    f = build_field(curve, cfg["field"])
    horizon = cfg["horizon"] if cfg["horizon"] is not None else 3.0 * math.pi
    try:
        if cfg["boundary_rate"] is None:
            spec = lagrangian.balanced_spec(f, cfg["curves"], horizon=horizon,
                                            seed=cfg["seed"])
        else:
            spec = lagrangian.EnsembleSpec(
                field=f, horizon=horizon, interior_count=cfg["curves"],
                boundary_rate=cfg["boundary_rate"], seed=cfg["seed"])
        ens = lagrangian.sample_ensemble(spec, workers=args.workers)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rate = lagrangian.dissipation_decomposition(ens)
    nu = kinetic.nu_total(f, "ars_wall").nu_total
    if args.traj_csv:
        rows = lagrangian.trajectory_table(ens, max_curves=1000)
        report.write_csv(args.traj_csv, ["curve", "t", "x", "y", "s"],
                         [(int(r[0]), r[1], r[2], r[3], r[4]) for r in rows])
    term = ens.termination
    results = {
        "curve": curve.spec,
        "field": f.kind,
        "n_curves": ens.n_curves,
        "n_interior": ens.n_interior,
        "n_boundary": ens.n_curves - ens.n_interior,
        "influx_rate": ens.influx_rate,
        "dissipation_rate": rate.rate,
        "dissipation_se": rate.standard_error,
        "nu_ars": nu,
        "terminations": {
            "time_horizon": int(np.sum(term == 0)),
            "boundary": int(np.sum(term == 1)),
            "center": int(np.sum(term == 2)),
        },
    }
    asserts = []
    if nu > 0:
        ratio, tol, ok = _rate_band(rate, nu)
        results["rate_over_nu"] = ratio
        results["rate_tolerance"] = {"k_se": RATE_K, "floor": RATE_FLOOR}
        asserts.append(report.assertion("dissipation_matches_nu", ratio,
                                        tol, ok, target=1.0))
    else:
        asserts.append(report.assertion("dissipation_vanishes", rate.rate,
                                        1e-6, abs(rate.rate) <= 1e-6,
                                        target=0.0))
    return results, asserts


def cmd_energy(cfg, args) -> Tuple[dict, List[dict]]:
    curve = parse_curve_spec(cfg["curve"])
    f = build_field(curve, cfg["field"])
    eps = cfg["eps"]
    try:
        grid = energy.mollify_field(f, eps, cfg["grid"])
    except ValueError as exc:
        raise UsageError(str(exc))
    if cfg["functional"] == "F":
        bd = energy.evaluate_F_eps(grid, eps)
    else:
        bd = energy.evaluate_E_AG(grid, eps)
    if args.csv:
        step = max(1, grid.n // 256)
        fx, fy = grid.cell_centers()
        rows = []
        for i in range(0, grid.n, step):
            for j in range(0, grid.n, step):
                rows.append((fx[i], fy[j], grid.values[i, j, 0],
                             grid.values[i, j, 1], grid.values[i, j, 2],
                             bool(grid.mask[i, j])))
        report.write_csv(args.csv, ["x", "y", "m1", "m2", "m3", "mask"], rows)
    results = {
        "curve": curve.spec,
        "field": f.kind,
        "functional": cfg["functional"],
        "dirichlet": bd.dirichlet,
        "magnetostatic": bd.magnetostatic,
        "penalty": bd.penalty,
        "m3_term": bd.m3_term,
        "total": bd.total,
        "epsilon": bd.epsilon,
        "grid_n": grid.n,
        "grid_h": grid.h,
    }
    terms_ok = min(bd.dirichlet, bd.magnetostatic, bd.penalty,
                   bd.m3_term) >= 0.0
    asserts = [
        report.assertion("terms_nonnegative",
                         min(bd.dirichlet, bd.magnetostatic, bd.penalty,
                             bd.m3_term), 0.0, terms_ok),
        report.assertion(
            "total_is_sum",
            abs(bd.total - (bd.dirichlet + bd.magnetostatic + bd.penalty
                            + bd.m3_term)), 1e-9, True, target=0.0),
    ]
    if cfg["functional"] == "F":
        ag_total = bd.dirichlet + bd.penalty
        asserts.append(report.assertion(
            "dominates_two_term_energy", bd.total - ag_total, 0.0,
            bd.total >= ag_total - 1e-12, target=0.0))
    return results, asserts


def _finite_or_none(x: float) -> Optional[float]:
    return float(x) if math.isfinite(x) else None


def cmd_stability(cfg, args) -> Tuple[dict, List[dict]]:
    curve = parse_curve_spec(cfg["curve"])
    f = build_field(curve, cfg["field"])
    rep = stability.check_main2(curve, f)
    l2, l1 = stability._deviation_integrals(
        curve, np.asarray(rep.best_center))
    cs_ok = l1 * l1 <= TWO_PI * l2 + 1e-9
    inside = bool(curve.inside(np.asarray(rep.best_center)[None, :])[0])
    results = {
        "curve": rep.curve_id,
        "field": f.kind,
        "lhs_normal_dev": rep.lhs_normal_dev,
        "best_center": list(rep.best_center),
        "hausdorff": rep.hausdorff,
        "nu_ars": rep.nu_ars,
        "nu_cubic": rep.nu_cubic,
        "l4_deviation": rep.l4_deviation,
        "ratios": {k: _finite_or_none(v) for k, v in rep.ratios.items()},
    }
    asserts = [
        report.assertion("cauchy_schwarz_chain", l1 * l1 - TWO_PI * l2,
                         1e-9, cs_ok, target=0.0),
        report.assertion("center_inside_domain", inside, 0.0, inside),
    ]
    return results, asserts


def cmd_sharpness(cfg, args) -> Tuple[dict, List[dict]]:
    try:
        ns = [int(v) for v in cfg["n"].split(",") if v]
    except ValueError:
        raise UsageError("--n must be a comma list of integers")
    if not ns:
        raise UsageError("--n must be a comma list of integers")
    try:
        tab = stability.sharpness_sweep(ns, _COST_KIND[cfg["cost"]])
    except ValueError as exc:
        raise UsageError(str(exc))
    header = ["n", "lhs_normal_dev", "nu", "n2_lhs", "n2_nu", "lhs_over_nu"]
    csv_rows = [[r[k] for k in header] for r in tab.rows]
    plot_path = args.plot
    if plot_path:
        svgplot.write_log_log(
            plot_path,
            [{"label": "normal deviation",
              "xs": [r["n"] for r in tab.rows],
              "ys": [r["lhs_normal_dev"] for r in tab.rows]},
             {"label": f"nu ({tab.cost_kind})",
              "xs": [r["n"] for r in tab.rows],
              "ys": [r["nu"] for r in tab.rows]}],
            title="sharpness sweep", xlabel="n", ylabel="value")
        report.write_csv(_series_csv_path(plot_path, args.csv),
                         header, csv_rows)
    elif args.csv:
        report.write_csv(args.csv, header, csv_rows)
    results = {
        "cost_kind": tab.cost_kind,
        "rows": tab.rows,
        "slope_lhs": tab.slope_lhs,
        "slope_nu": tab.slope_nu,
    }
    asserts = []
    if tab.slope_lhs is not None:
        asserts.append(report.assertion(
            "deviation_slope", tab.slope_lhs, 0.15,
            abs(tab.slope_lhs + 2.0) <= 0.15, target=-2.0))
    if 64 in ns:
        row = next(r for r in tab.rows if r["n"] == 64)
        limit = (2.0 * math.pi ** 3 / 3.0 if tab.cost_kind == "ars_wall"
                 else 4.0 * math.pi ** 3)
        rel = abs(row["n2_nu"] - limit) / limit
        asserts.append(report.assertion(
            "n2_nu_limit", row["n2_nu"], 0.02, rel <= 0.02, target=limit))
    return results, asserts


# ------------------------------------------------------------------ selftest

def _selftest_checks(quick: bool) -> List[Tuple[str, Callable[[], tuple]]]:
    def circle_perimeter():
        c = make_circle()
        return abs(c.perimeter - TWO_PI), 1e-9, abs(c.perimeter - TWO_PI) <= 1e-9

    def ngon_perimeter():
        c = make_rounded_ngon(8)
        return abs(c.perimeter - TWO_PI), 1e-9, abs(c.perimeter - TWO_PI) <= 1e-9

    def ngon_inradius():
        from .geometry import ngon_scale
        worst = 0.0
        for n in (6, 8):
            lam = ngon_scale(n)
            expect = lam * (1.0 + math.cos(math.pi / n)) / 2.0
            got = max_inscribed_disk(make_rounded_ngon(n)).radius
            worst = max(worst, abs(got - expect))
        return worst, 1e-8, worst <= 1e-8

    def disk_defect_zero():
        c = make_circle()
        d = max_inscribed_disk(c)
        rng = np.random.default_rng(0)
        triples = np.sort(rng.uniform(0.0, TWO_PI, size=(20, 3)), axis=1)
        triples = triples[np.min(np.diff(triples, axis=1), axis=1) > 1e-3]
        vals = defect.defect_batch(c, d, triples)
        return float(vals.max()), 1e-6, float(vals.max()) <= 1e-6

    def wall_cost_values():
        e1 = abs(kinetic.wall_cost_ars(1.0) - (1.0 - math.pi * math.sqrt(3) / 6.0))
        e2 = abs(kinetic.wall_cost_ars(2.0) - 2.0 * (math.sqrt(2.0) - 1.0))
        worst = max(e1, e2)
        return worst, 1e-9, worst <= 1e-9

    def wall_cost_branch():
        a = 2.0 * math.sin(math.pi / 4.0)
        gap = abs(kinetic.wall_cost_ars(a - 1e-9)
                  - kinetic.wall_cost_ars(a + 1e-9))
        return gap, 1e-8, gap <= 1e-8

    def wall_cost_cubic_limit():
        x = 0.01
        ratio = kinetic.wall_cost_ars(2.0 * math.sin(x)) / x ** 3
        return ratio, 0.01, abs(ratio / (2.0 / 3.0) - 1.0) <= 0.01

    def vortex_nu_zero():
        c = make_circle()
        f = fields.vortex(c, (0.0, 0.0), alpha=1)
        nu = kinetic.nu_total(f, "ars_wall").nu_total
        return nu, 0.0, nu == 0.0

    def circle_normal_dev():
        v = stability.normal_deviation(make_circle(), (0.0, 0.0))
        return v, 1e-10, v <= 1e-10

    def influx_rate_two_pi():
        c = make_circle()
        f = fields.vortex(c, (0.0, 0.0), alpha=1)
        r = lagrangian.boundary_influx_rate(f)
        return abs(r - TWO_PI), 1e-6, abs(r - TWO_PI) <= 1e-6

    def jump_rule_reflection():
        s_new, mu, crossed = lagrangian.jump_rule(
            math.pi / 2.0, np.array([math.cos(0.3), math.sin(0.3)]),
            -math.pi / 2.0 + 0.1)
        err = float(lagrangian.circ_dist(s_new, -math.pi / 2.0 - 0.1)) \
            + abs(mu - 0.2)
        return err, 1e-12, (not crossed) and err <= 1e-12

    def zero_field_zero_h():
        f = fields.vortex(make_circle(), (0.0, 0.0), alpha=1)
        g = energy.raster_field(f, 128)
        g.values[:] = 0.0
        h = float(np.max(np.abs(energy.solve_stray_field(g))))
        return h, 1e-14, h <= 1e-14

    checks = [
        ("circle_perimeter", circle_perimeter),
        ("ngon8_perimeter", ngon_perimeter),
        ("ngon_inscribed_radius", ngon_inradius),
        ("disk_defect_zero", disk_defect_zero),
        ("wall_cost_values", wall_cost_values),
        ("wall_cost_branch_continuity", wall_cost_branch),
        ("wall_cost_cubic_limit", wall_cost_cubic_limit),
        ("vortex_nu_zero", vortex_nu_zero),
        ("circle_normal_deviation", circle_normal_dev),
        ("influx_rate_two_pi", influx_rate_two_pi),
        ("jump_rule_reflection", jump_rule_reflection),
        ("zero_field_zero_stray", zero_field_zero_h),
    ]
    if quick:
        return checks

    def planar_rate():
        est = lagrangian.planar_jump_rate(math.pi / 8.0,
                                          n_crossings=200_000, seed=0)
        rel = abs(est.rate - est.exact) / est.exact
        return rel, 0.05, rel <= 0.05

    def ngon_ensemble_ratio():
        f = fields.distgrad_field(make_rounded_ngon(8))
        spec = lagrangian.balanced_spec(f, 50_000, horizon=2.5, seed=3)
        ens = lagrangian.sample_ensemble(spec)
        return _rate_band(lagrangian.dissipation_decomposition(ens),
                          kinetic.nu_total(f, "ars_wall").nu_total)

    def representation_quick():
        f = fields.vortex(make_circle(), (0.0, 0.0), alpha=1)
        spec = lagrangian.balanced_spec(f, 50_000, horizon=2.1, seed=5)
        ens = lagrangian.sample_ensemble(spec)
        tv = lagrangian.representation_check(ens, math.pi / 2.0)
        return tv, 0.15, tv <= 0.15

    def energy_vortex_bound():
        f = fields.vortex(make_circle(), (0.0, 0.0), alpha=1)
        g = energy.mollify_field(f, 0.04, 512)
        bd = energy.evaluate_F_eps(g, 0.04)
        ok = bd.total < 0.6 and bd.dirichlet + bd.penalty <= bd.total
        return bd.total, 0.6, ok

    def stability_ratio():
        c = make_rounded_ngon(16)
        rep = stability.check_main2(c, fields.distgrad_field(c))
        r = rep.ratios["normal_dev_over_nu_ars"]
        return r, 0.02, abs(r - 0.25) <= 0.02

    checks += [
        ("planar_jump_rate", planar_rate),
        ("ngon8_dissipation_ratio", ngon_ensemble_ratio),
        ("vortex_representation", representation_quick),
        ("vortex_energy_bound", energy_vortex_bound),
        ("ngon16_ratio_quarter", stability_ratio),
    ]
    return checks


def cmd_selftest(cfg, args) -> Tuple[dict, List[dict]]:
    quick = cfg["quick"]
    asserts = []
    for name, fn in _selftest_checks(quick):
        try:
            value, tol, ok = fn()
            asserts.append(report.assertion(name, value, tol, ok))
        except Exception as exc:  # a crashed check is a failed check
            asserts.append(report.assertion(name, f"error: {exc}", None,
                                            False))
    results = {"n_checks": len(asserts),
               "n_failed": sum(1 for a in asserts if not a["passed"]),
               "tier": "quick" if quick else "full"}
    return results, asserts


# ------------------------------------------------------------ command table

_COST_KIND = {"ars": "ars_wall", "cubic": "cubic"}

_CURVE = Option("curve", required=True)
_FIELD = Option("field")
_COST = Option("cost", default="ars", choices=tuple(_COST_KIND))
_CSV = Option("csv", flag_only=True)
_COMMON = (Option("out", flag_only=True), Option("config", flag_only=True),
           Option("timing", _switch, False, flag_only=True))

COMMANDS: Dict[str, Tuple[Callable, Tuple[Option, ...]]] = {
    "gen-domain": (cmd_gen_domain, (
        _CURVE, Option("samples", int, 512), _CSV)),
    "defect": (cmd_defect, (_CURVE, Option("triple", required=True))),
    "defect-integral": (cmd_defect_integral, (
        _CURVE, Option("region", default="full"), Option("nodes", int, 24),
        Option("mc", int), Option("seed", int))),
    "nu": (cmd_nu, (_CURVE, _COST, _FIELD, _CSV)),
    "lagrangian": (cmd_lagrangian, (
        _CURVE, _FIELD, Option("curves", int, 100_000),
        Option("horizon", float), Option("boundary_rate", float),
        Option("traj_csv", flag_only=True),
        Option("workers", int, 1, flag_only=True),
        Option("seed", int, required="stochastic command"))),
    "energy": (cmd_energy, (
        _CURVE, _FIELD, Option("eps", float, 0.02), Option("grid", int, 1024),
        Option("functional", default="F", choices=("F", "AG")), _CSV)),
    "stability": (cmd_stability, (_CURVE, _FIELD)),
    "sharpness": (cmd_sharpness, (
        Option("n", default="8,16,32,64"), _COST,
        Option("plot", flag_only=True), _CSV)),
    "selftest": (cmd_selftest, (Option("quick", _switch, False),)),
}


# --------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eikstab",
        description="Line-energy domain stability toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        sp = sub.add_parser(name)
        for opt in options + _COMMON:
            # a config value fills in only where the flag left None
            default = opt.default if opt.flag_only else None
            kind = ({"action": "store_true"} if opt.convert is _switch
                    else {"type": opt.convert})
            sp.add_argument(opt.flag, default=default, **kind)
    return p


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    handler, options = COMMANDS[args.command]
    t0 = time.perf_counter()
    try:
        config = resolve(args, options)
        results, asserts = handler(config, args)
    except CurveSpecError as exc:
        print(f"error: invalid curve spec: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    timing = time.perf_counter() - t0 if args.timing else None
    rep = report.build_report(args.command, config, config.get("seed"),
                              results, asserts, timing_s=timing)
    out = _out_path(args, args.command)
    report.write_json(rep, out)
    status = "ok" if rep["passed"] else "FAIL"
    print(f"{args.command}: {status} ({len(asserts)} checks) -> {out}")
    if not rep["passed"]:
        for a in asserts:
            if not a["passed"]:
                print(f"  failed: {a['name']} value={a['value']} "
                      f"tolerance={a['tolerance']}")
    return 0 if rep["passed"] else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
