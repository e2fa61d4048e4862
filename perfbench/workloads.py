"""Workload definitions: the CLI commands each workload runs, the set-up
each command pays, and the pinned results that make a report correct.

Two workloads split the layers so that each mechanism is exercised by one
workload and bypassed by the other: `defect_energy` runs the bulk kernels
(defect_batch over 4096 triples; inside, eval_many and the FFTs over 1M grid
cells), `trace_sharpness` runs the tracer (vectorized exit on the 32-gon,
scalar ray_exit on the ellipse) and the 1/N^2 sweep (thousands of small
geometry calls). Two sizes exist: "full" is what the benchmark measures,
"smoke" is a toy size for the benchmark's own test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Pin:
    """A result of one command that must lie in [lo, hi]. `key` is a dotted
    path into the report's `results` object."""

    key: str
    lo: float
    hi: float

    def check(self, results: dict) -> Optional[str]:
        value = results
        for part in self.key.split("."):
            if not isinstance(value, dict) or part not in value:
                return f"{self.key}: missing from the report"
            value = value[part]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return f"{self.key}: {value!r} is not a number"
        if not self.lo <= value <= self.hi:
            return f"{self.key}: {value!r} outside [{self.lo!r}, {self.hi!r}]"
        return None


def near(key: str, value: float, rel: float) -> Pin:
    span = abs(value) * rel
    return Pin(key, value - span, value + span)


@dataclass(frozen=True)
class Command:
    argv: Tuple[str, ...]
    pins: Tuple[Pin, ...]
    # curve spec whose parse, inscribed disk and field the command builds
    # before its kernel runs; None when the command takes no curve
    setup_curve: Optional[str] = None
    # (metric name, units of work in the command's report): the command's
    # throughput, measured on untraced repetitions
    rate: Optional[Tuple[str, Callable[[dict], float]]] = None


# the commands' throughputs, reported by the traced run
TRIPLES_PER_S = "cli.defect_integral.triples_per_s"
CELLS_PER_S = "cli.energy.cells_per_s"
CURVES_PER_S = "cli.lagrangian.curves_per_s"
RATES = (TRIPLES_PER_S, CELLS_PER_S, CURVES_PER_S)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # commands(size, seed) -> the commands of one repetition
    commands: Callable[[str, int], List[Command]]


# ------------------------------------------------------------ defect integral

def _defect_integral(size: str) -> Command:
    nodes, value = {"full": (16, 1.0630396137574845),
                    "smoke": (8, 1.353058963662773)}[size]
    # 16 nodes is a multiple of N=8, so a symmetry-reduced quadrature
    # applies. 2% leaves room for the shift a certified maximizer brings
    # (about 1e-3 relative) and still catches a lost factor or broken rule.
    return Command(("defect-integral", "--curve", "rounded_ngon:n=8",
                    "--nodes", str(nodes)),
                   (near("value", value, 0.02), Pin("n_evals", 1, nodes ** 3)),
                   "rounded_ngon:n=8",
                   (TRIPLES_PER_S, lambda r: r["results"]["n_evals"]))


# --------------------------------------------------------------------- energy

_ENERGY_TERMS = {
    "full": (1024, 0.02, {"dirichlet": 0.4612880392989966,
                          "magnetostatic": 0.006006010605550386,
                          "penalty": 0.007864538796696125,
                          "total": 0.4751585887012431}),
    "smoke": (128, 0.15, {"dirichlet": 1.3312605426445758,
                          "magnetostatic": 0.0063037105907804945,
                          "penalty": 0.055367177230999445,
                          "total": 1.3929314304663556}),
}


def _energy(size: str) -> Command:
    grid, eps, terms = _ENERGY_TERMS[size]
    pins = [near(k, v, 1e-3) for k, v in terms.items()]
    pins += [Pin("m3_term", 0.0, 0.0), Pin("grid_n", grid, grid)]
    return Command(("energy", "--curve", "rounded_ngon:n=32",
                    "--grid", str(grid), "--eps", str(eps)),
                   tuple(pins), "rounded_ngon:n=32",
                   (CELLS_PER_S, lambda r: r["results"]["grid_n"] ** 2))


# ----------------------------------------------------------------- lagrangian

def _lagrangian(size: str, seed: int) -> List[Command]:
    # the 32-gon's rate_over_nu carries a Monte Carlo error of about 3% at
    # 100k curves, so [0.85, 1.15] holds for every seed with a wide margin
    ngon, ellipse = {"full": (100_000, 25_000), "smoke": (20_000, 2_000)}[size]
    lag_seed = str(seed % (1 << 32))
    rate = (CURVES_PER_S, lambda r: r["results"]["n_curves"])
    return [
        Command(("lagrangian", "--curve", "rounded_ngon:n=32",
                 "--curves", str(ngon), "--seed", lag_seed, "--workers", "1"),
                (Pin("rate_over_nu", 0.85, 1.15),),
                "rounded_ngon:n=32", rate),
        Command(("lagrangian", "--curve", "ellipse:aspect=1.3",
                 "--curves", str(ellipse), "--seed", lag_seed,
                 "--workers", "1"),
                (Pin("nu_ars", 0.0, 0.0),
                 Pin("dissipation_rate", -1e-6, 1e-6)),
                "ellipse:aspect=1.3", rate),
    ]


# ------------------------------------------------------------------ sharpness

def _sharpness(size: str) -> List[Command]:
    ns = {"full": "8,16,32,64,128", "smoke": "8,16"}[size]
    return [
        Command(("sharpness", "--n", ns),
                (Pin("slope_lhs", -2.15, -1.85),
                 Pin("slope_nu", -2.15, -1.85))),
        Command(("stability", "--curve", "rounded_ngon:n=16"),
                (Pin("ratios.normal_dev_over_nu_ars", 0.23, 0.27),),
                "rounded_ngon:n=16"),
    ]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("defect_energy",
             "bulk kernels: defect-integral on the 8-gon (defect_batch on 4096 "
             "triples) and energy on the 32-gon at 1024^2 (inside on 1M points, "
             "eval_many, FFTs; peak memory)",
             lambda size, seed: [_defect_integral(size), _energy(size)]),
    Workload("trace_sharpness",
             "lagrangian on the 32-gon (vectorized exit) and ellipse (scalar "
             "ray_exit), then the 1/N^2 sweep and stability: thousands of "
             "small geometry calls",
             lambda size, seed: _lagrangian(size, seed) + _sharpness(size)),
)}
