"""Radial-deviation functionals, lemma checks, and sharpness sweeps.

Both sides of the main estimates are quadrature evaluations: the squared
deviation of the outward normal from the radial direction about a candidate
center on the left, the jump dissipation on the right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import BoundaryCurve, hausdorff_to_circle, make_rounded_ngon
from .geometry.circlefit import _is_star_shaped_about, best_circle_center
from . import fields, kinetic

TWO_PI = 2.0 * math.pi


def _deviation_integrals(curve: BoundaryCurve, center) -> Tuple[float, float]:
    """(integral |n - u|^2, integral |n - u|) with u the unit radial field,
    on the curve's 48-point quadrature nodes."""
    center = np.asarray(center, dtype=float)
    s, w = curve.quad_nodes(order=48, min_panels=192)
    g = curve.point(s)
    n = curve.normal(s)
    rel = g - center
    rel = rel / np.linalg.norm(rel, axis=1, keepdims=True)
    d = np.linalg.norm(n - rel, axis=1)
    l2 = float(np.sum(w * d * d))
    l1 = float(np.sum(w * d))
    # Cauchy-Schwarz against the fixed perimeter; fails only on a broken
    # quadrature, so keep it as a hard check on every evaluation
    if l1 * l1 > TWO_PI * l2 + 1e-9:
        raise AssertionError("Cauchy-Schwarz violated by quadrature")
    return l2, l1


def _check_center(curve: BoundaryCurve, center):
    center = np.atleast_2d(np.asarray(center, dtype=float))
    if float(curve.dist_to_boundary(center)[0]) < 1e-9:
        raise ValueError("center lies on the boundary")


def normal_deviation(curve: BoundaryCurve, center) -> float:
    """integral over the boundary of |n(x) - (x-c)/|x-c||^2, arclength measure."""
    _check_center(curve, center)
    return _deviation_integrals(curve, center)[0]


def normal_deviation_l1(curve: BoundaryCurve, center) -> float:
    _check_center(curve, center)
    return _deviation_integrals(curve, center)[1]


def lemma_aux_check(curve: BoundaryCurve, center) -> Tuple[float, float, bool]:
    """Radial gap vs the L1 normal deviation about a star center.

    Returns (lhs, rhs, pass) with lhs the Hausdorff distance from the
    boundary to the unit circle at ``center`` and rhs the integrated
    |n - radial| deviation.
    """
    center = np.asarray(center, dtype=float)
    _check_center(curve, center)
    if not _is_star_shaped_about(curve, center):
        raise ValueError("curve is not strictly star-shaped about the center")
    lhs = hausdorff_to_circle(curve, center)
    rhs = normal_deviation_l1(curve, center)
    return lhs, rhs, bool(lhs <= rhs + 1e-8)


def _ratio(num: float, den: float) -> float:
    if den <= 1e-14:
        return 0.0 if num <= 1e-12 else math.inf
    return num / den


@dataclass(frozen=True)
class StabilityReport:
    curve_id: str
    lhs_normal_dev: float
    best_center: Tuple[float, float]
    hausdorff: float
    nu_ars: float
    nu_cubic: float
    l4_deviation: float
    ratios: Dict[str, float]

    def __post_init__(self):
        if self.lhs_normal_dev < 0 or self.hausdorff < 0:
            raise ValueError("deviation values must be nonnegative")


def check_main2(curve: BoundaryCurve, unit_field) -> StabilityReport:
    """Both sides of the center-deviation estimate for one configuration."""
    if unit_field.domain is not curve:
        raise ValueError("field must live on the given curve")
    center = best_circle_center(curve)
    lhs = normal_deviation(curve, center)
    haus = hausdorff_to_circle(curve, center)
    if not bool(curve.inside(center[None, :])[0]):
        raise ValueError("optimized center escaped the domain")
    nu_a = kinetic.nu_total(unit_field, "ars_wall").nu_total
    nu_c = kinetic.nu_total(unit_field, "cubic").nu_total
    l4, _, _ = fields.best_vortex_fit(unit_field)
    ratios = {
        "normal_dev_over_nu_ars": _ratio(lhs, nu_a),
        "hausdorff_over_sqrt_nu_ars": _ratio(haus, math.sqrt(nu_a)),
        "l4_over_nu_ars_power_2_3": _ratio(l4, nu_a ** (2.0 / 3.0)),
    }
    return StabilityReport(curve_id=curve.spec,
                           lhs_normal_dev=lhs,
                           best_center=(float(center[0]), float(center[1])),
                           hausdorff=haus, nu_ars=nu_a, nu_cubic=nu_c,
                           l4_deviation=l4, ratios=ratios)


def fit_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log y against log x."""
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                            np.log(np.asarray(ys, dtype=float)), 1)[0])


@dataclass(frozen=True)
class SharpnessTable:
    cost_kind: str
    rows: List[dict]
    slope_lhs: Optional[float]
    slope_nu: Optional[float]


def sharpness_sweep(n_list: Sequence[int],
                    cost_kind: str = "ars_wall") -> SharpnessTable:
    """Min-center deviation and dissipation across the rounded n-gon family."""
    ns = [int(n) for n in n_list]
    if any(n < 3 for n in ns):
        raise ValueError("polygon order must be at least 3")
    rows = []
    for n in ns:
        curve = make_rounded_ngon(n)
        f = fields.distgrad_field(curve)
        center = best_circle_center(curve)
        lhs = normal_deviation(curve, center)
        nu = kinetic.nu_total(f, cost_kind).nu_total
        rows.append({
            "n": n,
            "lhs_normal_dev": lhs,
            "nu": nu,
            "n2_lhs": n * n * lhs,
            "n2_nu": n * n * nu,
            "lhs_over_nu": _ratio(lhs, nu),
        })
    slope_lhs = slope_nu = None
    fit = [r for r in rows if r["n"] >= 8]
    if len(fit) >= 2:
        slope_lhs = fit_slope([r["n"] for r in fit],
                              [r["lhs_normal_dev"] for r in fit])
        slope_nu = fit_slope([r["n"] for r in fit], [r["nu"] for r in fit])
    return SharpnessTable(cost_kind=cost_kind, rows=rows,
                          slope_lhs=slope_lhs, slope_nu=slope_nu)
