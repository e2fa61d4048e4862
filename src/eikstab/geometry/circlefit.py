"""Hausdorff distance to the unit circle and best-fit circle centers."""
from __future__ import annotations

import numpy as np

from .curve import BoundaryCurve


def _is_star_shaped_about(curve: BoundaryCurve, center) -> bool:
    """Strict star-shapedness: n(x) . (x - c) > 0 at 2048 boundary points."""
    s = np.linspace(0.0, curve.perimeter, 2048, endpoint=False)
    g = curve.point(s)
    n = curve.normal(s)
    rel = g - np.asarray(center, dtype=float)
    return bool(((n * rel).sum(axis=1) > 0.0).all())


def hausdorff_to_circle(curve: BoundaryCurve, center) -> float:
    """Hausdorff distance between the boundary and the unit circle at ``center``.

    For a domain star-shaped about ``center`` this equals the sup of
    ||x - center| - 1| over the boundary, evaluated per analytic piece
    with local refinement.  Otherwise a two-sided dense point-set
    computation (4096 samples each way) is used.
    """
    center = np.asarray(center, dtype=float)
    if _is_star_shaped_about(curve, center):
        return _radial_sup(curve, center)
    # two-sided fallback
    s = np.linspace(0.0, curve.perimeter, 4096, endpoint=False)
    g = curve.point(s)
    d_curve_to_circle = np.abs(np.hypot(*(g - center).T) - 1.0).max()
    ang = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    circ = center + np.column_stack([np.cos(ang), np.sin(ang)])
    d_circle_to_curve = curve.dist_to_boundary(circ).max()
    return float(max(d_curve_to_circle, d_circle_to_curve))


def _radial_sup(curve: BoundaryCurve, center) -> float:
    from scipy.optimize import minimize_scalar

    per = curve.perimeter
    coarse = np.linspace(0.0, per, 4096, endpoint=False)
    f = np.abs(np.hypot(*(curve.point(coarse) - center).T) - 1.0)
    best = float(f.max())
    h = per / 4096
    # refine around the top few coarse maxima
    order = np.argsort(f)[-8:]
    for i in order:
        s0 = coarse[i]

        def neg(s):
            g = curve.point(float(s))
            return -abs(np.hypot(g[0] - center[0], g[1] - center[1]) - 1.0)

        res = minimize_scalar(neg, bounds=(s0 - h, s0 + h), method="bounded",
                              options={"xatol": 1e-13})
        best = max(best, -float(res.fun))
    return best


def best_circle_center(curve: BoundaryCurve):
    """Center minimizing the squared normal-deviation functional
    (stability.normal_deviation).

    Nelder-Mead from the area centroid, restarted from the inscribed disk
    center only when that lies more than 1e-9 from the centroid; the
    better result is kept.  A closer restart would repeat the first
    search, and from an exact zero coordinate (the rounded n-gon's hub at
    the origin) Nelder-Mead takes an absolute initial step and runs long.
    """
    from scipy.optimize import minimize

    from ..stability import normal_deviation
    from .inscribed import max_inscribed_disk

    seeds = [curve.centroid()]
    disk_center = max_inscribed_disk(curve).center_xy
    if np.hypot(*(disk_center - seeds[0])) > 1e-9:
        seeds.append(disk_center)
    best_val, best_x = np.inf, seeds[0]
    for s0 in seeds:
        res = minimize(lambda c: normal_deviation(curve, c), s0,
                       method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
        if res.fun < best_val:
            best_val, best_x = float(res.fun), res.x
    return np.asarray(best_x)
