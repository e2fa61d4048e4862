"""Exact unit-length divergence-free fields: vortices and distance gradients.

A field is its regions plus its jump set: constant-direction strips and
vortex patches, each evaluated by one rule, and straight jump segments with
one-sided traces.  Evaluation, traces and flux probes read only these
pieces, so they carry no discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Optional, Tuple

import numpy as np

from .geometry import BoundaryCurve, max_inscribed_disk, wrap_pi

TWO_PI = 2.0 * math.pi


class OnJumpError(ValueError):
    """Evaluation point lies on the jump set; the value is ambiguous."""


@dataclass(frozen=True)
class JumpSegment:
    """Oriented jump segment with one-sided traces.

    m_minus is the trace from the left of the orientation p0 -> p1, m_plus
    from the right.  The normal components must match (the jump carries no
    flux) and amplitude = |m_plus - m_minus| = 2 sin(half_angle).
    """

    p0: np.ndarray
    p1: np.ndarray
    theta_J: float
    m_minus: np.ndarray
    m_plus: np.ndarray
    amplitude: float
    half_angle: float

    def __post_init__(self):
        d = np.asarray(self.p1, dtype=float) - np.asarray(self.p0, dtype=float)
        L = math.hypot(*d)
        if L <= 0:
            raise ValueError("jump segment has zero length")
        if abs(wrap_pi(math.atan2(d[1], d[0]) - self.theta_J)) > 1e-9:
            raise ValueError("theta_J does not match segment direction")
        n_J = np.array([-math.sin(self.theta_J), math.cos(self.theta_J)])
        if abs(float(np.dot(self.m_minus, n_J) - np.dot(self.m_plus, n_J))) > 1e-12:
            raise ValueError("traces violate the no-flux jump condition")
        amp = float(np.hypot(*(np.asarray(self.m_plus) - np.asarray(self.m_minus))))
        if abs(amp - self.amplitude) > 1e-12:
            raise ValueError("amplitude does not match the traces")
        if abs(self.amplitude - 2.0 * math.sin(self.half_angle)) > 1e-12:
            raise ValueError("amplitude does not match 2 sin(half_angle)")

    @property
    def length(self) -> float:
        return float(np.hypot(*(np.asarray(self.p1) - np.asarray(self.p0))))


@dataclass(frozen=True)
class StripRegion:
    """Constant-direction region."""

    value: np.ndarray


@dataclass(frozen=True)
class VortexPatch:
    """alpha * i (x - center)/|x - center| on the points that see the center
    within half_width of the axis, window = (axis, half_width); a patch
    without a window covers the whole plane."""

    center: np.ndarray
    alpha: int
    window: Optional[Tuple[float, float]] = None


@dataclass(frozen=True)
class UnitField:
    """A unit field is its regions plus its jump set.

    With strips, regions holds strip k for sector k of the domain's medial
    star and, after the strips, patch k at spoke k, which can cut into the
    strips on both sides of the spoke.  A field without strips is one full
    patch.  kind names the construction in reports.
    """

    domain: BoundaryCurve
    regions: tuple
    jump_set: Tuple[JumpSegment, ...]
    kind: str

    @property
    def strips(self) -> Tuple[StripRegion, ...]:
        return tuple(r for r in self.regions if isinstance(r, StripRegion))

    @property
    def patches(self) -> Tuple[VortexPatch, ...]:
        return tuple(r for r in self.regions if isinstance(r, VortexPatch))

    @cached_property
    def fan(self):
        """The domain's medial star when the jump set is its spokes, segment
        k running from the hub to vertex k; else None."""
        star = self.domain.medial_star
        if star is None or len(self.jump_set) != len(star.vertices):
            return None
        for seg, v in zip(self.jump_set, star.vertices):
            if not (np.array_equal(seg.p0, star.hub) and np.array_equal(seg.p1, v)):
                return None
        return star

    @cached_property
    def _region_table(self) -> SimpleNamespace:
        """The regions as 1-D arrays: strip k's value (sx, sy) and patch
        k's centre (cx, cy), sign, window axis and window limit.  A full
        patch is a window of infinite half-width; the limit's 1e-15 of
        slack keeps the points of a window edge in the patch."""
        sv = np.array([r.value for r in self.strips], dtype=float).reshape(-1, 2)
        c = np.array([p.center for p in self.patches], dtype=float).reshape(-1, 2)
        axis, half = np.array([p.window or (0.0, math.inf)
                               for p in self.patches]).T
        return SimpleNamespace(
            sx=sv[:, 0].copy(), sy=sv[:, 1].copy(),
            cx=c[:, 0].copy(), cy=c[:, 1].copy(),
            alpha=np.array([p.alpha for p in self.patches], dtype=float),
            axis=axis, limit=half + 1e-15)

    @cached_property
    def _jump_table(self) -> SimpleNamespace:
        """The jump segments as arrays indexed by segment, the one table
        that jump_distance and the tracer read: start p0, offset d = p1 -
        p0 and L2 = |d|^2, unit direction e and length, theta_J and the
        normal (-sin theta_J, cos theta_J), the traces m_minus and m_plus,
        and hub, the endpoint all segments share (at infinity when fewer
        than two segments share one)."""
        p0 = np.array([seg.p0 for seg in self.jump_set], dtype=float).reshape(-1, 2)
        d = np.array([seg.p1 for seg in self.jump_set], dtype=float).reshape(-1, 2) - p0
        length = np.hypot(d[:, 0], d[:, 1])
        theta = np.array([seg.theta_J for seg in self.jump_set], dtype=float)
        ends = [{tuple(seg.p0), tuple(seg.p1)} for seg in self.jump_set]
        shared = set.intersection(*ends) if len(ends) > 1 else set()
        return SimpleNamespace(
            p0=p0, d=d, L2=np.array([float(e @ e) for e in d]),
            e=d / length[:, None], length=length, theta=theta,
            normal=np.stack([-np.sin(theta), np.cos(theta)], axis=-1),
            m_minus=np.array([seg.m_minus for seg in self.jump_set],
                             dtype=float).reshape(-1, 2),
            m_plus=np.array([seg.m_plus for seg in self.jump_set],
                            dtype=float).reshape(-1, 2),
            hub=np.array(shared.pop() if shared else (np.inf, np.inf)))

    def boundary_trace(self, s) -> np.ndarray:
        """Sign of m . tau at the boundary parameters s (m = +-tau there)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        m, _ = eval_many(self, self.domain.point(s))
        return np.sign(np.sum(m * self.domain.tangent(s), axis=-1))


def vortex(curve: BoundaryCurve, center, alpha: int = 1) -> UnitField:
    """m(x) = alpha * i * (x - center)/|x - center| on the given domain."""
    if alpha not in (1, -1):
        raise ValueError("alpha must be +1 or -1")
    center = np.asarray(center, dtype=float)
    if not bool(curve.inside(center[None, :])[0]):
        raise ValueError("vortex center must lie strictly inside the domain")
    patch = VortexPatch(center=center, alpha=alpha)
    return UnitField(domain=curve, regions=(patch,), jump_set=(), kind="vortex")


def distgrad_field(ngon_curve: BoundaryCurve) -> UnitField:
    """i * grad dist(., boundary) for a rounded n-gon.

    n constant strips (one per flat side, field parallel to the side) and n
    vortex patches around the arc centers; the gradient jumps exactly on the
    n spokes of the domain's medial star.
    """
    star = ngon_curve.medial_star
    if star is None:
        raise ValueError("distgrad_field needs a rounded n-gon")
    phis, half = star.axes, star.half_width
    n = len(phis)
    psis = phis + half
    strip_values = np.stack([np.sin(psis), -np.cos(psis)], axis=-1)
    amp = 2.0 * math.sin(half)

    jumps = []
    for k in range(n):
        jumps.append(JumpSegment(
            p0=star.hub.copy(), p1=star.vertices[k],
            theta_J=float(wrap_pi(phis[k])),
            m_minus=strip_values[k], m_plus=strip_values[k - 1],
            amplitude=amp, half_angle=half))

    regions = [StripRegion(value=strip_values[k]) for k in range(n)]
    regions += [VortexPatch(center=star.vertices[k], alpha=-1,
                            window=(float(phis[k]), half)) for k in range(n)]
    return UnitField(domain=ngon_curve, regions=tuple(regions),
                     jump_set=tuple(jumps), kind="distgrad")


def _vortex_rule(rx, ry, nu, alpha):
    """The patch rule alpha * i (x - c)/|x - c| from (rx, ry) = x - c and
    nu = |x - c|, as its x and y planes."""
    return alpha * -(ry / nu), alpha * (rx / nu)


def eval_many(field: UnitField, pts):
    """Vectorized evaluation: returns (values (n,2), region ids (n,)).

    A region id indexes field.regions.  The region formulas are evaluated
    on all of the plane, without inside or jump-set checks (field_eval
    makes them).  The centre of a full patch gets a zero vector, while the
    centre of a windowed patch keeps the value of its strip.

    The work is on x/y planes with 1-D table gathers: every point gets its
    sector and strip value, then for each patch it may lie in (the patches
    at its sector's two spokes, or the one full patch) the window test,
    one arctan2 and wrap_pi.  |x - c| (hypot) and the vortex rule run on
    the window's hits only, the second patch's hits overwriting the first's.
    """
    X = np.atleast_2d(np.asarray(pts, dtype=float))
    tab = field._region_table
    x, y = X[:, 0], X[:, 1]
    n_strips = len(tab.sx)
    if n_strips:
        region = field.domain.medial_star.sector(X)
        vx, vy = tab.sx[region], tab.sy[region]
        # a sector point can fall in the patch at either of its spokes
        k1 = region + 1
        k1[k1 == n_strips] = 0
        near = (region.copy(), k1)
    else:
        vx, vy = np.zeros(len(X)), np.zeros(len(X))
        region = np.zeros(len(X), dtype=int)
        near = (0,)  # the one full patch, for every point
    for k in near:
        rx, ry = x - tab.cx[k], y - tab.cy[k]
        hit = np.flatnonzero(np.abs(wrap_pi(np.arctan2(ry, rx) - tab.axis[k]))
                             <= tab.limit[k])
        rx, ry = rx[hit], ry[hit]
        nu = np.hypot(rx, ry)
        centre = nu == 0.0
        if centre.any():
            hit, rx, ry, nu = hit[~centre], rx[~centre], ry[~centre], nu[~centre]
        kh = k[hit] if np.ndim(k) else k
        vx[hit], vy[hit] = _vortex_rule(rx, ry, nu, tab.alpha[kh])
        region[hit] = n_strips + kh
    return np.stack([vx, vy], axis=-1), region


def field_eval(field: UnitField, x) -> np.ndarray:
    """Exact field value at one strictly interior point, 1e-12 or more from
    the jump set and the patch centres (ValueError, OnJumpError)."""
    X = np.asarray(x, dtype=float)[None, :]
    if not field.domain.inside(X)[0]:
        raise ValueError("evaluation point outside the domain")
    if jump_distance(field, X)[0] <= 1e-12:
        raise OnJumpError("point on the jump set; use the traces")
    tab = field._region_table
    if np.any(np.hypot(X[0, 0] - tab.cx, X[0, 1] - tab.cy) <= 1e-12):
        raise OnJumpError("vortex center; value undefined")
    v, _ = eval_many(field, X)
    return v[0]


def _segment_dist(X, p0, d, L2):
    """Distance from points X to the segments from p0 to p0 + d, |d|^2 =
    L2, elementwise: one segment for all points or one per point."""
    t = np.clip(((X[:, 0] - p0[..., 0]) * d[..., 0]
                 + (X[:, 1] - p0[..., 1]) * d[..., 1]) / L2, 0.0, 1.0)
    return np.hypot(X[:, 0] - (p0[..., 0] + t * d[..., 0]),
                    X[:, 1] - (p0[..., 1] + t * d[..., 1]))


def _all_segments_dist(X, p0, d, L2):
    best = np.full(len(X), np.inf)
    for j in range(len(L2)):
        best = np.minimum(best, _segment_dist(X, p0[j], d[j], L2[j]))
    return best


def jump_distance(field: UnitField, pts) -> np.ndarray:
    """Distance from each point to the jump set (inf if the set is empty).

    On a fan (UnitField.fan) the nearest spoke of a point of sector k is
    spoke k or k+1, the two whose directions lie nearest its own; only
    those two are measured.  Points that MedialStar.sector_off_spokes puts
    on a spoke line, and every point without a fan, take the minimum over
    all segments.
    """
    X = np.atleast_2d(np.asarray(pts, dtype=float))
    J = field._jump_table
    p0, d, L2 = J.p0, J.d, J.L2
    fan = field.fan
    if fan is None:
        return _all_segments_dist(X, p0, d, L2)
    k = fan.sector_off_spokes(X)
    k1 = (k + 1) % len(L2)
    best = np.minimum(_segment_dist(X, p0[k], d[k], L2[k]),
                      _segment_dist(X, p0[k1], d[k1], L2[k1]))
    tie = np.flatnonzero(k < 0)
    if len(tie):
        best[tie] = _all_segments_dist(X[tie], p0, d, L2)
    return best


def segment_circle_angles(p0, p1, center, radius: float):
    """Angles (about center) where the circle crosses the segment p0-p1."""
    p0 = np.asarray(p0, dtype=float)
    center = np.asarray(center, dtype=float)
    e = np.asarray(p1, dtype=float) - p0
    L = math.hypot(*e)
    e = e / L
    phi = math.atan2(e[1], e[0])
    s = (e[0] * (center[1] - p0[1]) - e[1] * (center[0] - p0[0]))
    if abs(s) > radius:
        return []
    beta = math.asin(-s / radius)
    out = []
    for th in (phi + beta, phi + math.pi - beta):
        p = center + radius * np.array([math.cos(th), math.sin(th)])
        t = float((p - p0) @ e)
        if -1e-12 <= t <= L + 1e-12:
            out.append(th % TWO_PI)
    return out


def circle_cut_angles(field: UnitField, center, radius: float,
                      extra_segments=()) -> np.ndarray:
    """Sorted angles where a circle crosses lines of non-smoothness.

    Covers the jump segments, the window edges of the vortex patches and
    the direction of each full patch's core; quadrature split at these
    angles sees only smooth integrands.  extra_segments adds caller-known
    kink lines.
    """
    center = np.asarray(center, dtype=float)
    pieces = [(s.p0, s.p1) for s in field.jump_set] + list(extra_segments)
    cuts = [0.0, TWO_PI]
    for p in field.patches:
        if p.window is None:
            rel = p.center - center
            cuts.append(math.atan2(rel[1], rel[0]) % TWO_PI)
            continue
        # window edges are rays; 8 exceeds every chord of the domain
        for ang in (p.window[0] - p.window[1], p.window[0] + p.window[1]):
            pieces.append((p.center, p.center + 8.0 * np.array(
                [math.cos(ang), math.sin(ang)])))
    for p0, p1 in pieces:
        cuts.extend(segment_circle_angles(p0, p1, center, radius))
    return np.unique(np.asarray(cuts))


def split_circle_flux(field: UnitField, center, radius: float, value,
                      extra_segments=()) -> float:
    """Flux of value(m) through a circle, value mapping (k, 2) field values
    to (k, 2) vectors: 64-point Gauss-Legendre on each arc between the cuts
    of circle_cut_angles (with extra_segments), where it is smooth."""
    cuts = circle_cut_angles(field, center, radius, extra_segments)
    xg, wg = np.polynomial.legendre.leggauss(64)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a < 1e-14:
            continue
        th = 0.5 * (a + b) + 0.5 * (b - a) * xg
        nrm = np.stack([np.cos(th), np.sin(th)], axis=-1)
        vals, _ = eval_many(field, center + radius * nrm)
        total += 0.5 * (b - a) * radius * float(
            np.sum(wg * np.sum(value(vals) * nrm, axis=1)))
    return total


def flux_probe(field: UnitField, center, radius: float) -> float:
    """Flux of m through a circle, splitting the quadrature at jump crossings.

    The circle must lie inside the domain; crossing jump segments is fine
    (the normal component is continuous there by construction).
    """
    center = np.asarray(center, dtype=float)
    thetas = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    ring = center + radius * np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
    if not np.all(field.domain.inside(ring)):
        raise ValueError("probe circle leaves the domain")
    return split_circle_flux(field, center, radius, lambda m: m)


def _l4_grid(field: UnitField, grid_n: int):
    """The midpoint grid of l4_vortex_deviation: its points inside the
    domain, the field there and the cell sides (P, m, hx, hy)."""
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")
    x0, x1, y0, y1 = field.domain.bbox()
    hx, hy = (x1 - x0) / grid_n, (y1 - y0) / grid_n
    cx = x0 + hx * (np.arange(grid_n) + 0.5)
    cy = y0 + hy * (np.arange(grid_n) + 0.5)
    P = np.stack(np.meshgrid(cx, cy, indexing="ij"), axis=-1).reshape(-1, 2)
    P = P[field.domain.inside(P)]
    m, _ = eval_many(field, P)
    return P, m, hx, hy


def _l4_on_grid(grid, center, alpha: int) -> float:
    """l4_vortex_deviation on a grid from _l4_grid."""
    P, m, hx, hy = grid
    center = np.asarray(center, dtype=float)
    rx, ry = P[:, 0] - center[0], P[:, 1] - center[1]
    nu = np.hypot(rx, ry)
    ok = nu > 1e-12
    v = np.zeros_like(P)
    v[ok, 0], v[ok, 1] = _vortex_rule(rx[ok], ry[ok], nu[ok], alpha)
    diff = np.sum((m - v) ** 2, axis=1)
    return float(np.sum(diff * diff) * hx * hy)


def l4_vortex_deviation(field: UnitField, center, alpha: int,
                        grid_n: int = 128) -> float:
    """Midpoint-rule integral of |m - vortex(center, alpha)|^4 over the domain."""
    if alpha not in (1, -1):
        raise ValueError("alpha must be +1 or -1")
    return _l4_on_grid(_l4_grid(field, grid_n), center, alpha)


def best_vortex_fit(field: UnitField, grid_n: int = 128):
    """Minimal l4 deviation over vortex center and both signs.

    Returns (deviation, center, alpha).  With rotation order g >= 2 the
    center is the centre of rotation, the inscribed disk's centre, with no
    search: the rotation fixes it.  Other domains run Nelder-Mead from the
    centroid, its first simplex stepping 5% of the inscribed radius along
    each axis.  The grid, its inside mask and the field on it do not
    depend on the centre and are computed once.
    """
    grid = _l4_grid(field, grid_n)
    disk = max_inscribed_disk(field.domain)
    if field.domain.rotation_order >= 2:
        c = disk.center_xy
        return min(((_l4_on_grid(grid, c, a), c, a) for a in (1, -1)),
                   key=lambda fit: fit[0])
    from scipy.optimize import minimize

    seed = field.domain.centroid()
    simplex = seed + 0.05 * disk.radius * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    best = (math.inf, seed, 1)
    for alpha in (1, -1):
        res = minimize(lambda c: _l4_on_grid(grid, c, alpha),
                       seed, method="Nelder-Mead",
                       options={"xatol": 1e-6, "fatol": 1e-12, "maxiter": 200,
                                "initial_simplex": simplex})
        if res.fun < best[0]:
            best = (float(res.fun), np.asarray(res.x), alpha)
    return best
