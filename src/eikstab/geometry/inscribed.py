"""Largest inscribed disk, extended star regions, segment clearance."""
from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .curve import BoundaryCurve, Disk


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
    """Largest disk contained in the domain (Chebyshev center), as the
    curve computed it once (BoundaryCurve.inscribed_disk): closed forms on
    the circle, the ellipse and the rounded n-gon, a grid seed and a
    Nelder-Mead polish on a spline."""
    return curve.inscribed_disk


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
    refined by bisection.  A convex domain (BoundaryCurve.convex) skips
    the visibility half of the test; only a spline runs it.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    x0, per, convex = disk.center_xy, curve.perimeter, curve.convex
    samples = 4096
    # relative slack absorbs the rounding of the boundary points and the
    # 1e-10-level optimizer error in a spline's (x0, R); without it eta = 0
    # on a disk would reject half the boundary
    lim = (1.0 + eta) * disk.radius * (1.0 + 1e-9)

    def ok(s: float) -> bool:
        g = curve.point(s)
        return (np.hypot(g[0] - x0[0], g[1] - x0[1]) <= lim
                and (convex or not _segment_blocked(curve, x0, g)))

    grid = np.linspace(0.0, per, samples, endpoint=False)
    flags = np.hypot(*(curve.point(grid) - x0).T) <= lim
    if not convex:
        for i in np.nonzero(flags)[0]:
            flags[i] = not _segment_blocked(curve, x0, curve.point(grid[i]))
    if flags.all():
        return StarRegion(eta=eta, intervals=[(0.0, per)], curve=curve, disk=disk)

    def refine_edge(i: int, lo_val: bool) -> float:
        # the flag flips between grid[i] - per / samples and grid[i]
        lo, hi = grid[i] - per / samples, grid[i]
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if ok(mid) == lo_val else (lo, mid)
        return 0.5 * (lo + hi)

    starts = sorted(refine_edge(i, False) % per for i in range(samples)
                    if flags[i] and not flags[i - 1])
    ends = sorted(refine_edge(i, True) % per for i in range(samples)
                  if flags[i - 1] and not flags[i])
    intervals = [(a, min((b for b in ends if b > a), default=ends[0] + per))
                 for a in starts]
    return StarRegion(eta=eta, intervals=intervals, curve=curve, disk=disk)
