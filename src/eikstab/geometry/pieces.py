"""Arc-length parametrized boundary pieces.

Every piece maps a local arc-length coordinate ``u`` in ``[0, length]`` to
points on a planar curve, oriented counterclockwise (a segment through the
rounded n-gon's side table, see SegmentPiece).  Pieces also answer
exact segment intersection queries and vectorized ray exits, which the
star-region, clearance and trajectory machinery all rely on.
"""
from __future__ import annotations

import math

import numpy as np

_TWO_PI = 2.0 * math.pi


def _as_xy(p) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.shape != (2,):
        raise ValueError(f"expected a 2-vector, got shape {a.shape}")
    return a


def _rotate(v, c: float, s: float) -> np.ndarray:
    """Rows of v rotated by the angle with cosine c and sine s, written out
    elementwise: a matmul rounds a one-row call differently from the same
    row in a larger one."""
    return np.stack([v[..., 0] * c - v[..., 1] * s,
                     v[..., 0] * s + v[..., 1] * c], axis=-1)


def mod_2pi(a):
    """np.mod(a, 2 pi), bit for bit, branch-free when every element lies
    in [-2 pi, 2 pi).

    There np.mod's remainder is a itself, to which it adds 2 pi when a is
    negative (and a zero, -0.0 too, comes out +0.0): a + (a < 0) * 2 pi.
    An array with any element outside that interval (or NaN) takes np.mod
    whole, so it pays only the min/max check on top of np.mod.
    """
    a = np.asarray(a, dtype=float)
    if a.min(initial=0.0) >= -_TWO_PI and a.max(initial=0.0) < _TWO_PI:
        return (a + (a < 0.0) * _TWO_PI)[()]
    return np.mod(a, _TWO_PI)


def wrap_pi(a):
    """(a + pi) % 2 pi - pi, bit for bit: a taken into [-pi, pi]."""
    return mod_2pi(np.asarray(a, dtype=float) + math.pi) - math.pi


def sampled_bbox(point, length: float):
    """(x0, x1, y0, y1) of point(s) at 4096 equispaced s in [0, length),
    padded by 1/4096."""
    g = point(np.linspace(0.0, length, 4096, endpoint=False))
    pad = 1.0 / 4096
    return (g[:, 0].min() - pad, g[:, 0].max() + pad,
            g[:, 1].min() - pad, g[:, 1].max() + pad)


# -- elementwise kernels -------------------------------------------------
#
# One kernel per piece type and query.  A piece passes its own attributes;
# a curve's piece table passes one row per query point, so both give the
# same bits.


def arc_point(center, radius, a0, u):
    t = a0 + u / radius
    return np.stack([center[..., 0] + radius * np.cos(t),
                     center[..., 1] + radius * np.sin(t)], axis=-1)


def arc_tangent(radius, a0, u):
    t = a0 + u / radius
    return np.stack([-np.sin(t), np.cos(t)], axis=-1)


def arc_nearest_dist(pts, center, radius, a0, width, e0, e1):
    """Distance from points to the arc as a point set: radial inside the
    angular window [a0, a0 + width], else to the nearer end e0 or e1."""
    dx = pts[..., 0] - center[..., 0]
    dy = pts[..., 1] - center[..., 1]
    rel = np.mod(np.arctan2(dy, dx) - a0, _TWO_PI)
    d_end = np.minimum(np.hypot(pts[..., 0] - e0[..., 0], pts[..., 1] - e0[..., 1]),
                       np.hypot(pts[..., 0] - e1[..., 0], pts[..., 1] - e1[..., 1]))
    return np.where(rel <= width, np.abs(np.hypot(dx, dy) - radius), d_end)


def segment_point(p0, e, u):
    return np.stack([p0[..., 0] + u * e[..., 0], p0[..., 1] + u * e[..., 1]],
                    axis=-1)


def segment_tangent(e, u):
    return np.broadcast_to(e, np.shape(u) + (2,)).copy()


def segment_nearest_dist(pts, p0, e, length):
    """Distance from points to the segment from p0 along the unit vector e."""
    t = np.clip((pts[..., 0] - p0[..., 0]) * e[..., 0]
                + (pts[..., 1] - p0[..., 1]) * e[..., 1], 0.0, length)
    return np.hypot(pts[..., 0] - (p0[..., 0] + t * e[..., 0]),
                    pts[..., 1] - (p0[..., 1] + t * e[..., 1]))


def _foot_newton(x, lo, hi, slope, steps: int = 4):
    """Foot parameter of the nearest point, from x inside [lo, hi].

    slope(x) -> (f', f'') of the squared distance f, up to a common
    factor.  Each step shrinks the bracket on the sign of f' and takes the
    Newton step when f'' > 0 and the step stays in the closed bracket (a
    converged step lands on the end just moved to x), else bisects.
    """
    for _ in range(steps):
        g, gp = slope(x)
        right = g > 0.0
        hi = np.where(right, x, hi)
        lo = np.where(right, lo, x)
        convex = gp > 0.0
        step = x - g / np.where(convex, gp, 1.0)
        x = np.where(convex & (step >= lo) & (step <= hi), step,
                     0.5 * (lo + hi))
    return x


def arc_ray_hits(x, d, center, radius, mid, half, tol):
    """First ray parameter t > tol where x + t d meets a circular arc, else
    inf.

    x, d: (n, 2) origins and unit directions.  The arc is the part of the
    circle (center, radius) whose outward directions lie within half of the
    angle mid; one arc for all rays, or one per ray ((n, 2) centers and (n,)
    radius, mid, half).
    """
    rx, ry = x[:, 0] - center[..., 0], x[:, 1] - center[..., 1]
    dx, dy = d[:, 0], d[:, 1]
    b = rx * dx + ry * dy
    disc = b * b - ((rx * rx + ry * ry) - radius * radius)
    ok = disc >= 0.0
    sq = np.sqrt(np.maximum(disc, 0.0))
    best = np.full(len(x), np.inf)
    for root in (-b + sq, -b - sq):
        ang = np.arctan2(ry + root * dy, rx + root * dx)
        in_win = np.abs(wrap_pi(ang - mid)) <= half + 1e-12
        best = np.where(ok & (root > tol) & in_win, root, best)
    return best


def segment_ray_hits(x, d, p0, e, length, tol):
    """First ray parameter t > tol where x + t d meets the segment from p0
    along the unit vector e, of the given length; else inf.

    x, d: (..., 2) origins and unit directions; the segment parameters
    broadcast against them.  The work is on x/y planes
    (segment_ray_hits_xy).
    """
    return segment_ray_hits_xy(p0[..., 0] - x[..., 0], p0[..., 1] - x[..., 1],
                               d[..., 0], d[..., 1], e[..., 0], e[..., 1],
                               length, tol)


def segment_ray_hits_xy(r0, r1, d0, d1, e0, e1, length, tol):
    """segment_ray_hits on x/y planes: (r0, r1) = p0 - x is the offset of
    the segment's start from the ray's origin, (d0, d1) the ray's direction
    and (e0, e1) the segment's."""
    den = d0 * e1 - d1 * e0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (r0 * e1 - r1 * e0) / den
        v = (r0 * d1 - r1 * d0) / den
    ok = (np.abs(den) > 1e-14) & (t > tol) & (v >= -1e-9) & (v <= length + 1e-9)
    return np.where(ok, t, np.inf)


class ArcPiece:
    """Counterclockwise circular arc.

    Parameters
    ----------
    center, radius : circle carrying the arc.
    a0, a1 : angular window of the outward radial direction, a1 > a0.
    """

    convex = True  # the domain the piece bounds alone (BoundaryCurve.convex)

    def __init__(self, center, radius: float, a0: float, a1: float):
        if radius <= 0:
            raise ValueError("arc radius must be positive")
        if a1 <= a0:
            raise ValueError("empty arc window")
        self.center = _as_xy(center)
        self.radius = float(radius)
        self.a0 = float(a0)
        self.a1 = float(a1)
        self.width = self.a1 - self.a0
        self.length = self.radius * self.width
        self.mid = 0.5 * (self.a0 + self.a1)
        self.half = 0.5 * self.width
        self.e0, self.e1 = self.point(0.0), self.point(self.length)

    def point(self, u):
        return arc_point(self.center, self.radius, self.a0,
                         np.asarray(u, dtype=float))

    def tangent(self, u):
        return arc_tangent(self.radius, self.a0, np.asarray(u, dtype=float))

    def curvature(self, u):
        return np.full(np.shape(np.asarray(u)), 1.0 / self.radius)

    def inside(self, pts):
        """Points (n, 2) strictly inside the arc's circle."""
        return np.hypot(pts[:, 0] - self.center[0],
                        pts[:, 1] - self.center[1]) < self.radius

    def inscribed_disk(self):
        """Centre and radius of the disk a full-circle arc bounds."""
        return self.center, self.radius

    def nearest_dist(self, pts):
        """Distance from points (n,2) to the arc as a point set."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return arc_nearest_dist(pts, self.center, self.radius, self.a0,
                                self.width, self.e0, self.e1)

    def segment_hits(self, p, q):
        """Intersections with segment p->q as (t_seg in [0,1], u) pairs."""
        p = _as_xy(p)
        q = _as_xy(q)
        d = q - p
        f = p - self.center
        A = d @ d
        B = 2.0 * (f @ d)
        C = f @ f - self.radius**2
        disc = B * B - 4 * A * C
        out = []
        if A == 0 or disc < 0:
            return out
        sq = math.sqrt(disc)
        for t in ((-B - sq) / (2 * A), (-B + sq) / (2 * A)):
            if -1e-12 <= t <= 1 + 1e-12:
                x = p + t * d
                ang = math.atan2(x[1] - self.center[1], x[0] - self.center[0])
                rel = (ang - self.a0) % _TWO_PI
                if rel <= self.a1 - self.a0 + 1e-12:
                    out.append((min(max(t, 0.0), 1.0), min(rel * self.radius, self.length)))
        return out

    def ray_hits(self, x, d, tol):
        """First ray parameter t > tol where x + t d meets the arc, else inf.

        x, d: (n, 2) origins and unit directions; returns (n,).
        """
        return arc_ray_hits(x, d, self.center, self.radius, self.mid,
                            self.half, tol)


class SegmentPiece:
    """Straight boundary segment from p0 to p1.  A segment is only ever a
    side of the rounded n-gon, whose curve evaluates its points and
    tangents through its side table."""

    def __init__(self, p0, p1):
        self.p0 = _as_xy(p0)
        self.p1 = _as_xy(p1)
        delta = self.p1 - self.p0
        self.length = float(np.hypot(*delta))
        if self.length <= 0:
            raise ValueError("degenerate segment")
        self.dir = delta / self.length

    def nearest_dist(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return segment_nearest_dist(pts, self.p0, self.dir, self.length)

    def segment_hits(self, p, q):
        p = _as_xy(p)
        q = _as_xy(q)
        d = q - p
        e = self.p1 - self.p0
        denom = d[0] * e[1] - d[1] * e[0]
        if abs(denom) < 1e-15:
            return []
        rel = self.p0 - p
        t = (rel[0] * e[1] - rel[1] * e[0]) / denom
        v = (rel[0] * d[1] - rel[1] * d[0]) / denom
        if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= v <= 1 + 1e-12:
            return [(min(max(t, 0.0), 1.0), min(max(v, 0.0), 1.0) * self.length)]
        return []

    def ray_hits(self, x, d, tol):
        """First ray parameter t > tol where x + t d meets the segment, else inf."""
        return segment_ray_hits(x, d, self.p0, self.dir, self.length, tol)


def ellipse_speed_series(a: float, b: float):
    """Cosine series of the speed |g'(theta)| = hypot(a sin theta, b cos theta)
    of the ellipse (a cos theta, b sin theta): (c0, c) with
    speed = c0 + sum_k c[k-1] cos(2 k theta), k >= 1.

    The speed is even and pi-periodic, so only even cosines appear, and
    they decay geometrically (like ((a - b) / (a + b))^k).  An rfft on n
    uniform angles gives them; the series stops at the first term at or
    below 1e-17 c0, where rounding noise begins, and n (from 256) doubles
    until the kept terms fill at most a quarter of the spectrum, so what
    aliases onto them lies beyond that cut.  The perimeter is 2 pi c0;
    a circle (a = b) has no terms.
    """
    n = 256
    while True:
        th = np.arange(n) * (_TWO_PI / n)
        f = np.fft.rfft(np.hypot(a * np.sin(th), b * np.cos(th))).real / n
        c0, c = f[0], 2.0 * f[2::2]
        small = np.flatnonzero(np.abs(c) <= 1e-17 * c0)
        k = small[0] if len(small) else len(c)
        if 4 * (k + 1) <= n:
            return float(c0), c[:k]
        n *= 2


class EllipsePiece:
    """Full ellipse as a single arc-length parametrized piece.

    The angle parametrization theta is not arc length.  Its arc length is
    the closed form s(theta) = c0 theta + sum_k c_k sin(2 k theta) / (2 k)
    of the speed's cosine series (ellipse_speed_series), so the perimeter
    is 2 pi c0.  The inverse is theta(s) = s / c0 + p(s) with p periodic:
    Newton on s(theta) gives p on a coarse uniform-s grid (its size, from
    256, doubles until p's upper half-spectrum lies below 1e-15), a
    zero-padded irfft interpolates it onto a uniform-s table of at least
    8192 intervals, and a query evaluates the cubic Hermite interpolant of
    that table with the exact slope 1 / speed.  The constructor checks
    |s(theta(u)) - u| at the table's midpoints, where the Hermite error
    peaks, and refines the table (at least doubling it, by the error's
    fourth root) until that is within 2e-14 of the length.  About 8192
    intervals suffice up to aspect 2; aspect 4 takes 32768 and aspect 10
    131072.

    The semiaxes are given after any perimeter normalization; ``rotation``
    and ``center`` place the ellipse rigidly.
    """

    _TABLE_N = 8192
    convex = True

    def __init__(self, a: float, b: float, rotation: float = 0.0, center=(0.0, 0.0)):
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError("semiaxes must be positive and finite")
        if not math.isfinite(rotation):
            raise ValueError("rotation must be finite")
        self.a = float(a)
        self.b = float(b)
        self.rotation = float(rotation)
        self.center = _as_xy(center)
        self._cos, self._sin = math.cos(self.rotation), math.sin(self.rotation)
        self._c0, self._c = ellipse_speed_series(self.a, self.b)
        self.length = _TWO_PI * self._c0
        self._hermite = self._inverse_table()

    def _speed(self, th):
        return np.hypot(self.a * np.sin(th), self.b * np.cos(th))

    def _s_of_theta(self, th):
        """Arc length from theta = 0: the speed's series integrated, its
        sines summed by Clenshaw's recurrence in 2 theta."""
        th = np.asarray(th, dtype=float)
        w = 2.0 * np.cos(2.0 * th)
        b1 = b2 = np.zeros_like(th)
        for k in range(len(self._c), 0, -1):
            b1, b2 = self._c[k - 1] / (2 * k) + w * b1 - b2, b1
        return self._c0 * th + b1 * np.sin(2.0 * th)

    def _inverse_table(self):
        """Per-interval coefficients (h0, h1, h2, h3) of the Hermite
        interpolant of theta(s), h0 + h1 t + h2 t^2 + h3 t^3 in the local
        coordinate t in [0, 1]."""
        L, c0 = self.length, self._c0
        m = 256
        while True:
            s = np.arange(m) * (L / m)
            grid = np.linspace(0.0, _TWO_PI, 4 * m + 1)
            th = np.interp(s, self._s_of_theta(grid), grid)
            # Newton converges quadratically from the chord start: once a
            # step is below 1e-8 the next one reaches rounding
            for _ in range(8):
                step = (self._s_of_theta(th) - s) / self._speed(th)
                th -= step
                if np.abs(step).max() <= 1e-8:
                    th -= (self._s_of_theta(th) - s) / self._speed(th)
                    break
            spec = np.fft.rfft(th - s / c0) / m
            if np.abs(spec[m // 4:]).max() <= 1e-15:
                break
            m *= 2
        n = max(self._TABLE_N, m)
        while True:
            p = np.fft.irfft(spec[:m // 2], n) * n
            th = np.arange(n + 1) * (L / n) / c0 + np.append(p, p[0])
            slope = (L / n) / self._speed(th)
            dy = np.diff(th)
            coef = (th[:-1], slope[:-1], 3.0 * dy - 2.0 * slope[:-1] - slope[1:],
                    slope[:-1] + slope[1:] - 2.0 * dy)
            mid = coef[0] + 0.5 * coef[1] + 0.25 * coef[2] + 0.125 * coef[3]
            err = self._s_of_theta(mid) - (np.arange(n) + 0.5) * (L / n)
            err = np.abs(err).max() / (2e-14 * L)
            if err <= 1.0:
                self._inv_h = n / L
                return coef
            # the Hermite error falls as the fourth power of the spacing
            n *= 2 ** max(1, math.ceil(math.log2(err) / 4.0))

    def _theta(self, u):
        q = np.clip(np.asarray(u, dtype=float), 0.0, self.length) * self._inv_h
        i = np.minimum(q.astype(np.intp), len(self._hermite[0]) - 1)
        t = q - i
        h0, h1, h2, h3 = self._hermite
        return ((h3[i] * t + h2[i]) * t + h1[i]) * t + h0[i]

    def point(self, u):
        th = self._theta(u)
        local = np.stack([self.a * np.cos(th), self.b * np.sin(th)], axis=-1)
        return self.center + _rotate(local, self._cos, self._sin)

    def tangent(self, u):
        th = self._theta(u)
        v = np.stack([-self.a * np.sin(th), self.b * np.cos(th)], axis=-1)
        v = v / np.linalg.norm(v, axis=-1, keepdims=True)
        return _rotate(v, self._cos, self._sin)

    def curvature(self, u):
        th = self._theta(u)
        denom = (self.a**2 * np.sin(th) ** 2 + self.b**2 * np.cos(th) ** 2) ** 1.5
        return self.a * self.b / denom

    def _to_local(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return _rotate(pts - self.center, self._cos, -self._sin)

    def inside(self, pts):
        """(x/a)^2 + (y/b)^2 < 1 in the ellipse frame."""
        loc = self._to_local(pts)
        return (loc[:, 0] / self.a) ** 2 + (loc[:, 1] / self.b) ** 2 < 1.0

    def inscribed_disk(self):
        """Centre and minor semiaxis: the distance to the ellipse is concave
        inside and half-turn symmetric about the centre, so it peaks there."""
        return self.center, min(self.a, self.b)

    def nearest_dist(self, pts):
        """Distance to the ellipse, with numpy alone.

        A point folds into the first quadrant of the ellipse frame, where
        its foot angle lies in [0, pi/2]; off the axes the squared distance
        has one critical point there, its minimum.  Bracketed Newton steps
        on the squared distance refine the foot from arctan2(a|y|, b|x|),
        the angle of (x/a, y/b).  Within about 1e-9 of the evolute the
        minimum is nearly flat and the steps converge only linearly: 24
        steps keep the distance within 4e-15 of a bisection reference
        there up to aspect 10, where 12 left 4e-8.  The bracket ends, the
        axis points, are candidates too, for points on an axis.
        """
        loc = self._to_local(pts)
        px, py = np.abs(loc[:, 0]), np.abs(loc[:, 1])
        a, b = self.a, self.b

        def sq_dist(th):
            return (a * np.cos(th) - px) ** 2 + (b * np.sin(th) - py) ** 2

        def slope(th):
            c, s = np.cos(th), np.sin(th)
            return ((b * b - a * a) * s * c + a * px * s - b * py * c,
                    (b * b - a * a) * (c * c - s * s) + a * px * c + b * py * s)

        th = _foot_newton(np.arctan2(a * py, b * px), 0.0, math.pi / 2, slope,
                          steps=24)
        ends = np.minimum(sq_dist(0.0), sq_dist(math.pi / 2))
        return np.sqrt(np.minimum(sq_dist(th), ends))

    def _seg_roots(self, p, q):
        """Roots u in [0,1] of the implicit conic along p + u (q - p)."""
        p = self._to_local(p)[0]
        q = self._to_local(q)[0]
        d = q - p
        A = (d[0] / self.a) ** 2 + (d[1] / self.b) ** 2
        B = 2 * (p[0] * d[0] / self.a**2 + p[1] * d[1] / self.b**2)
        C = (p[0] / self.a) ** 2 + (p[1] / self.b) ** 2 - 1.0
        if A == 0:
            return []
        disc = B * B - 4 * A * C
        if disc < 0:
            return []
        sq = math.sqrt(disc)
        return [t for t in ((-B - sq) / (2 * A), (-B + sq) / (2 * A)) if -1e-12 <= t <= 1 + 1e-12]

    def segment_hits(self, p, q):
        out = []
        pl = np.asarray(p, dtype=float)
        ql = np.asarray(q, dtype=float)
        for t in self._seg_roots(p, q):
            x = pl + t * (ql - pl)
            loc = self._to_local(x)[0]
            th = math.atan2(loc[1] / self.b, loc[0] / self.a) % _TWO_PI
            out.append((min(max(t, 0.0), 1.0), float(self._s_of_theta(th))))
        return out

    def ray_hits(self, x, d, tol):
        """First ray parameter t > tol where x + t d meets the ellipse, else
        inf; d nonzero."""
        p = self._to_local(x)
        dd = _rotate(d, self._cos, -self._sin)
        A = (dd[:, 0] / self.a) ** 2 + (dd[:, 1] / self.b) ** 2
        B = 2 * (p[:, 0] * dd[:, 0] / self.a**2 + p[:, 1] * dd[:, 1] / self.b**2)
        C = (p[:, 0] / self.a) ** 2 + (p[:, 1] / self.b) ** 2 - 1.0
        disc = B * B - 4 * A * C
        sq = np.sqrt(np.maximum(disc, 0.0))
        best = np.full(len(p), np.inf)
        for t in ((-B + sq) / (2 * A), (-B - sq) / (2 * A)):
            best = np.where((disc >= 0) & (t > tol), t, best)
        return best


class SplinePiece:
    """Closed C^2 periodic cubic spline through sample points.

    The raw samples are resampled to uniform arc length before the final
    periodic fit, so the parametrization is arc length up to the spline's
    own interpolation error (about 1e-6 with the default resampling).
    """

    _RESAMPLE = 4096
    convex = False  # not known, so star regions test visibility

    def __init__(self, points):
        from scipy.interpolate import CubicSpline, PchipInterpolator

        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 8:
            raise ValueError("need at least 8 sample points of shape (k, 2)")
        if np.hypot(*(pts[0] - pts[-1])) < 1e-12:
            pts = pts[:-1]
        k = len(pts)
        t = np.arange(k + 1, dtype=float)
        closed = np.vstack([pts, pts[:1]])
        raw = CubicSpline(t, closed, bc_type="periodic", axis=0)
        dense_t = np.linspace(0.0, k, 200_000 + 1)
        dv = raw(dense_t, 1)
        speed = np.hypot(dv[:, 0], dv[:, 1])
        cum = np.concatenate([[0.0], np.cumsum((speed[1:] + speed[:-1]) * 0.5 * np.diff(dense_t))])
        raw_len = cum[-1]
        t_of_s = PchipInterpolator(cum, dense_t)
        s_new = np.linspace(0.0, raw_len, self._RESAMPLE + 1)
        resampled = raw(t_of_s(s_new))
        resampled[-1] = resampled[0]  # close exactly; eval roundoff breaks bc_type="periodic"
        self.length = raw_len
        self._spline = CubicSpline(s_new, resampled, bc_type="periodic", axis=0)
        # dense polyline cache for containment and intersection bracketing
        self._poly_s = np.linspace(0.0, self.length, 8192 + 1)
        self._poly = self._spline(self._poly_s)

    def point(self, u):
        u = np.mod(np.asarray(u, dtype=float), self.length)
        return np.asarray(self._spline(u), dtype=float)

    def tangent(self, u):
        u = np.mod(np.asarray(u, dtype=float), self.length)
        v = np.asarray(self._spline(u, 1), dtype=float)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    def curvature(self, u):
        u = np.mod(np.asarray(u, dtype=float), self.length)
        d1 = np.asarray(self._spline(u, 1), dtype=float)
        d2 = np.asarray(self._spline(u, 2), dtype=float)
        speed = np.linalg.norm(d1, axis=-1)
        return (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]) / speed**3

    @property
    def _tree(self):
        """k-d tree of the dense polyline, built on first use."""
        tree = getattr(self, "_tree_cache", None)
        if tree is None:
            from scipy.spatial import cKDTree

            tree = self._tree_cache = cKDTree(self._poly)
        return tree

    def nearest_dist(self, pts):
        """Distance to the spline: the nearest polyline node brackets the
        foot within one node spacing, and bracketed Newton steps on the
        squared distance refine it."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        h = self._poly_s[1] - self._poly_s[0]
        s0 = self._poly_s[self._tree.query(pts)[1]]

        def offset(s):
            g = self._spline(s)
            return g[:, 0] - pts[:, 0], g[:, 1] - pts[:, 1]

        def sq_dist(s):
            gx, gy = offset(np.mod(s, self.length))
            return gx * gx + gy * gy

        def slope(s):
            s = np.mod(s, self.length)
            (gx, gy), d1, d2 = offset(s), self._spline(s, 1), self._spline(s, 2)
            return (d1[:, 0] * gx + d1[:, 1] * gy,
                    d1[:, 0] ** 2 + d1[:, 1] ** 2 + d2[:, 0] * gx + d2[:, 1] * gy)

        s = _foot_newton(s0, s0 - h, s0 + h, slope)
        return np.sqrt(np.minimum(sq_dist(s), sq_dist(s0)))

    def inscribed_disk(self):
        """Centre and radius of the largest inscribed disk: the interior
        point of a 64 x 64 grid over the bounding box farthest from the
        spline seeds a Nelder-Mead polish of that distance to 1e-10."""
        from scipy.optimize import minimize

        x0, x1, y0, y1 = sampled_bbox(self.point, self.length)
        X, Y = np.meshgrid(np.linspace(x0, x1, 64), np.linspace(y0, y1, 64))
        pts = np.column_stack([X.ravel(), Y.ravel()])
        cand = pts[self.inside(pts)]
        if not len(cand):
            raise ValueError("no interior grid point found")
        seed = cand[int(np.argmax(self.nearest_dist(cand)))]

        def neg_dist(p):
            if not self.inside(p[None, :])[0]:
                return 0.0
            return -float(self.nearest_dist(p[None, :])[0])

        res = minimize(neg_dist, seed, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000,
                                "maxfev": 8000})
        return res.x, -float(res.fun)

    def _crossings(self, p, d, tmax):
        """Parameters (t, u) where p + t d crosses the spline, 0 < t <= tmax."""
        from scipy.optimize import brentq

        # sign changes of the cross product along the cached polyline
        rel = self._poly - np.asarray(p, dtype=float)
        cross = rel[:, 0] * d[1] - rel[:, 1] * d[0]
        hits = []
        sgn = np.sign(cross)
        flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
        for j in flips:
            s_lo, s_hi = self._poly_s[j], self._poly_s[j + 1]

            def fn(s):
                v = self.point(s) - p
                return float(v[0] * d[1] - v[1] * d[0])
            try:
                s_star = brentq(fn, s_lo, s_hi, xtol=1e-13)
            except ValueError:
                continue
            x = self.point(s_star)
            t = float((x - p) @ d) / float(d @ d)
            if 1e-12 < t <= tmax:
                hits.append((t, s_star % self.length))
        return hits

    def segment_hits(self, p, q):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        d = q - p
        return [(t, u) for t, u in self._crossings(p, d, 1.0 + 1e-12)]

    def ray_hits(self, x, d, tol):
        """First ray parameter t > tol where x + t d meets the spline, else
        inf; one root search per ray."""
        best = np.full(len(x), np.inf)
        for i in range(len(x)):
            for t, _ in self._crossings(x[i], d[i], math.inf):
                if tol < t < best[i]:
                    best[i] = t
        return best

    def inside(self, pts):
        """Even-odd containment against the dense polyline, 256 points at a
        time so the crossing matrices stay (256, 8192) instead of (m, 8192)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        poly = self._poly[:-1]
        x0, y0 = poly[:, 0], poly[:, 1]
        x1 = np.roll(x0, -1)
        y1 = np.roll(y0, -1)
        out = np.empty(len(pts), dtype=bool)
        for i in range(0, len(pts), 256):
            px = pts[i:i + 256, 0][:, None]
            py = pts[i:i + 256, 1][:, None]
            cond = (y0[None, :] > py) != (y1[None, :] > py)
            with np.errstate(divide="ignore", invalid="ignore"):
                x_int = x0[None, :] + (py - y0[None, :]) * (x1 - x0)[None, :] / (y1 - y0)[None, :]
            crosses = cond & (px < x_int)
            out[i:i + 256] = (crosses.sum(axis=1) % 2) == 1
        return out
