"""Largest inscribed disk, extended star regions, segment clearance."""
from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .curve import BoundaryCurve
from .pieces import SplinePiece


@dataclass(frozen=True)
class Disk:
    center: tuple
    radius: float

    @property
    def center_xy(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)


@dataclass
class StarRegion:
    """Boundary subset reachable from a disk center within a radius margin.

    ``intervals`` are maximal parameter intervals (a, b) with a < b; an
    interval that wraps through parameter 0 is stored with b > perimeter.
    A boundary point x belongs to the region when |x - x0| <= (1 + eta) R
    and the open segment (x0, x) stays inside the domain.
    """

    eta: float
    intervals: list
    curve: BoundaryCurve
    disk: Disk

    @property
    def total_length(self) -> float:
        return float(sum(b - a for a, b in self.intervals))

    def covers_full_boundary(self, tol: float = 1e-9) -> bool:
        return abs(self.total_length - self.curve.perimeter) < tol

    def contains_param(self, s: float) -> bool:
        """Whether parameter s lies in an interval, with 1e-12 of slack."""
        per = self.curve.perimeter
        s = s % per
        for a, b in self.intervals:
            if a - 1e-12 <= s <= b + 1e-12 or a - 1e-12 <= s + per <= b + 1e-12:
                return True
        return False


def max_inscribed_disk(curve: BoundaryCurve) -> Disk:
    """Largest disk contained in the domain (Chebyshev center).

    The convex families have closed forms.  The rounded n-gon's is centred
    at the hub of its medial star with the closed-form inradius: the hub is
    the centre of the n-fold rotation, and the distance is concave on a
    convex domain, so it is the maximizer.  The circle's and the ellipse's
    come from their piece (ArcPiece/EllipsePiece.inscribed_disk).

    Only a spline searches: a 64 x 64 interior grid seeded with the exact
    distance-to-boundary function, then a Nelder-Mead polish to 1e-10.
    """
    if curve.medial_star is not None:
        c, r = curve.medial_star.hub, curve._polygon.inradius
        return Disk(center=(float(c[0]), float(c[1])), radius=float(r))
    if not isinstance(curve.pieces[0], SplinePiece):
        c, r = curve.pieces[0].inscribed_disk()
        return Disk(center=(float(c[0]), float(c[1])), radius=float(r))
    from scipy.optimize import minimize

    x0, x1, y0, y1 = curve.bbox()
    gx = np.linspace(x0, x1, 64)
    gy = np.linspace(y0, y1, 64)
    X, Y = np.meshgrid(gx, gy)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    ins = curve.inside(pts)
    if not ins.any():
        raise ValueError("no interior grid point found")
    cand = pts[ins]
    d = curve.dist_to_boundary(cand)
    seed = cand[int(np.argmax(d))]

    def neg_dist(p):
        if not curve.inside(p[None, :])[0]:
            return 0.0
        return -float(curve.dist_to_boundary(p[None, :])[0])

    res = minimize(neg_dist, seed, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000,
                            "maxfev": 8000})
    return Disk(center=(float(res.x[0]), float(res.x[1])), radius=-float(res.fun))


def _segment_blocked(curve: BoundaryCurve, z, x) -> bool:
    """True when the open segment (z, x) crosses the boundary strictly
    between its endpoints (x is expected on or near the boundary)."""
    for t, _ in curve.segment_hits(z, x):
        if 1e-9 < t < 1.0 - 1e-7:
            return True
    return False


def segment_clearance(curve: BoundaryCurve, disk: Disk, x, z) -> bool:
    """True iff the open segment (z, x) stays inside the domain.

    ``x`` must lie on the boundary and ``z`` strictly inside.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if curve.dist_to_boundary(x[None, :])[0] > 1e-7:
        raise ValueError("x must lie on the boundary")
    if not curve.inside(z[None, :])[0]:
        raise ValueError("z must be strictly inside the domain")
    return not _segment_blocked(curve, z, x)


def star_region(curve: BoundaryCurve, disk: Disk, eta: float) -> StarRegion:
    """Extended star-shaped boundary region about the inscribed center.

    Interval endpoints are located on a grid of 4096 parameters and
    refined by bisection.  The circle, the ellipse and the rounded n-gon
    are convex, so only a spline runs the visibility half of the test.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    x0 = disk.center_xy
    R = disk.radius
    per = curve.perimeter
    samples = 4096
    convex = not isinstance(curve.pieces[0], SplinePiece)
    # relative slack absorbs the rounding of the boundary points and the
    # 1e-10-level optimizer error in a spline's (x0, R); without it eta = 0
    # on a disk would reject half the boundary
    lim = (1.0 + eta) * R * (1.0 + 1e-9)

    def ok(s: float) -> bool:
        g = curve.point(s)
        if np.hypot(g[0] - x0[0], g[1] - x0[1]) > lim:
            return False
        return convex or not _segment_blocked(curve, x0, g)

    grid = np.linspace(0.0, per, samples, endpoint=False)
    flags = np.hypot(*(curve.point(grid) - x0).T) <= lim
    if not convex:
        for i in np.nonzero(flags)[0]:
            flags[i] = not _segment_blocked(curve, x0, curve.point(grid[i]))

    if flags.all():
        return StarRegion(eta=eta, intervals=[(0.0, per)], curve=curve, disk=disk)
    if not flags.any():
        return StarRegion(eta=eta, intervals=[], curve=curve, disk=disk)

    h = per / samples

    def refine_edge(hi_idx: int, lo_val: bool) -> float:
        # flag flips between grid[hi_idx] - h and grid[hi_idx]
        lo = grid[hi_idx] - h
        hi = grid[hi_idx]
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if ok(mid) == lo_val:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    starts, ends = [], []
    for i in range(samples):
        if flags[i] and not flags[i - 1]:
            starts.append(refine_edge(i, False) % per)
        if flags[i - 1] and not flags[i]:
            ends.append(refine_edge(i, True) % per)
    starts.sort()
    ends.sort()
    intervals = []
    for a in starts:
        later = [b for b in ends if b > a]
        b = later[0] if later else ends[0] + per
        intervals.append((a, b))
    return StarRegion(eta=eta, intervals=intervals, curve=curve, disk=disk)
