"""Hausdorff distance to the unit circle and best-fit circle centers."""
from __future__ import annotations

import numpy as np

from .curve import BoundaryCurve
from .inscribed import max_inscribed_disk


def _is_star_shaped_about(curve: BoundaryCurve, center) -> bool:
    """Strict star-shapedness: n(x) . (x - c) > 0 at 2048 boundary points."""
    s = np.linspace(0.0, curve.perimeter, 2048, endpoint=False)
    g = curve.point(s)
    n = curve.normal(s)
    rel = g - np.asarray(center, dtype=float)
    return bool(((n * rel).sum(axis=1) > 0.0).all())


def hausdorff_to_circle(curve: BoundaryCurve, center) -> float:
    """Hausdorff distance between the boundary and the unit circle at ``center``:
    the sup of ||x - center| - 1| when the domain is star-shaped about
    ``center``, else two-sided on dense point sets (4096 samples each way)."""
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
    # 4096 samples, then golden sections on the top 8 brackets at once
    def gap(s):
        return np.abs(np.hypot(*(curve.point(s) - center).T) - 1.0)

    coarse = np.linspace(0.0, curve.perimeter, 4096, endpoint=False)
    f = gap(coarse)
    top, h = coarse[np.argsort(f)[-8:]], curve.perimeter / 4096
    a, b, best = top - h, top + h, float(f.max())
    while (b - a).max() > 1e-13:
        c, d = b - 0.6180339887498949 * (b - a), a + 0.6180339887498949 * (b - a)
        fc, fd = gap(np.concatenate([c, d])).reshape(2, -1)
        best = max(best, float(fc.max()), float(fd.max()))
        a, b = np.where(fc >= fd, a, c), np.where(fc >= fd, d, b)
    return best


def best_circle_center(curve: BoundaryCurve):
    """Minimizer of stability.normal_deviation.  With rotation order g >= 2
    it is the centre of rotation, the inscribed disk's centre, with no
    search: the rotation fixes it, so the gradient vanishes there.  Other
    curves take damped Newton with backtracking from the centroid and from
    the disk centre, keeping the lower value."""
    disk_center = max_inscribed_disk(curve).center_xy
    if curve.rotation_order >= 2:
        return disk_center
    s, w = curve.quad_nodes(order=48, min_panels=192)
    x, n = curve.point(s), curve.normal(s)

    def terms(c):
        # sum w |n - u|^2 = sum w (2 - 2p), p = n.u, v = n - p u: gradient
        # 2 sum w v / r, Hessian 2 sum w (u v' + v u' + p (I - u u')) / r^2
        r = np.hypot(*(x - c).T)
        u, wr = (x - c) / r[:, None], w / r**2
        p = np.sum(n * u, axis=1)
        v = n - p[:, None] * u
        a = (wr * u.T) @ v
        hess = 2.0 * (a + a.T + np.sum(wr * p) * np.eye(2) - (wr * p * u.T) @ u)
        return np.sum(w * (2.0 - 2.0 * p)), 2.0 * ((w / r) @ v), hess

    def newton(c):
        val, g, hess = terms(c)
        for _ in range(100):
            pd = np.all(np.linalg.eigvalsh(hess) > 0.0)
            step, t = np.linalg.solve(hess, -g) if pd else -g, 1.0
            while (trial := terms(c + t * step))[0] > val and t > 1e-12:
                t /= 2.0
            if trial[0] > val or np.hypot(*(t * step)) < 1e-15 * (1.0 + np.hypot(*c)):
                return val, c
            c, (val, g, hess) = c + t * step, trial
        return val, c

    return min((newton(c0) for c0 in (curve.centroid(), disk_center)), key=lambda vc: vc[0])[1]
