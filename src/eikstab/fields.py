"""Exact unit-length divergence-free fields: vortices and distance gradients.

Fields are stored as analytic region decompositions (constant-direction
strips and vortex patches) plus an explicit jump set, so evaluation, traces,
and flux probes carry no discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.optimize import minimize

from .geometry import BoundaryCurve, ngon_sector

TWO_PI = 2.0 * math.pi


class OnJumpError(ValueError):
    """Evaluation point lies on the jump set; the value is ambiguous."""


def _wrap(x):
    return (np.asarray(x) + math.pi) % TWO_PI - math.pi


def _rot90(v):
    v = np.asarray(v, dtype=float)
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


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
        if abs(_wrap(math.atan2(d[1], d[0]) - self.theta_J)) > 1e-9:
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
    """Constant-direction region; polygon holds its closure for plotting."""

    index: int
    value: np.ndarray
    polygon: np.ndarray


@dataclass(frozen=True)
class VortexPatch:
    index: int
    center: np.ndarray
    alpha: int
    window: Optional[Tuple[float, float]] = None  # direction window, None = full


@dataclass(frozen=True)
class UnitField:
    domain: BoundaryCurve
    regions: tuple
    jump_set: Tuple[JumpSegment, ...]
    boundary_trace: Callable[[np.ndarray], np.ndarray]
    kind: str
    meta: dict = dfield(default_factory=dict)


def vortex(curve: BoundaryCurve, center, alpha: int = 1) -> UnitField:
    """m(x) = alpha * i * (x - center)/|x - center| on the given domain."""
    if alpha not in (1, -1):
        raise ValueError("alpha must be +1 or -1")
    center = np.asarray(center, dtype=float)
    if not bool(curve.inside(center[None, :])[0]):
        raise ValueError("vortex center must lie strictly inside the domain")

    def trace(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        rel = curve.point(s) - center
        rel = rel / np.linalg.norm(rel, axis=-1, keepdims=True)
        val = np.sum(alpha * _rot90(rel) * curve.tangent(s), axis=-1)
        return np.sign(val)

    patch = VortexPatch(index=0, center=center, alpha=alpha)
    return UnitField(domain=curve, regions=(patch,), jump_set=(),
                     boundary_trace=trace, kind="vortex",
                     meta={"center": center, "alpha": alpha})


def distgrad_field(ngon_curve: BoundaryCurve) -> UnitField:
    """i * grad dist(., boundary) for a rounded n-gon.

    n constant strips (one per flat side, field parallel to the side) and n
    vortex patches around the arc centers; the gradient jumps exactly on the
    n segments joining the domain center to the arc centers.
    """
    if ngon_curve.kind != "rounded_ngon":
        raise ValueError("distgrad_field needs a rounded n-gon")
    meta = ngon_curve.meta
    n, rot = meta["n"], meta["rotation"]
    c0 = np.asarray(meta["center"], dtype=float)
    verts = np.asarray(meta["vertices"], dtype=float)
    r = meta["arc_radius"]
    phis = rot + TWO_PI * np.arange(n) / n
    psis = phis + math.pi / n
    strip_values = np.stack([np.sin(psis), -np.cos(psis)], axis=-1)
    amp = 2.0 * math.sin(math.pi / n)

    jumps = []
    for k in range(n):
        jumps.append(JumpSegment(
            p0=c0.copy(), p1=verts[k], theta_J=float(_wrap(phis[k])),
            m_minus=strip_values[k], m_plus=strip_values[k - 1],
            amplitude=amp, half_angle=math.pi / n))

    regions = []
    outward = np.stack([np.cos(psis), np.sin(psis)], axis=-1)
    for k in range(n):
        kk = (k + 1) % n
        poly = np.stack([c0, verts[k], verts[k] + r * outward[k],
                         verts[kk] + r * outward[k], verts[kk]])
        regions.append(StripRegion(index=k, value=strip_values[k], polygon=poly))
    cuts = []
    for k in range(n):
        regions.append(VortexPatch(
            index=n + k, center=verts[k], alpha=-1,
            window=(float(phis[k] - math.pi / n), float(phis[k] + math.pi / n))))
        for ang in (phis[k] - math.pi / n, phis[k] + math.pi / n):
            e = np.array([math.cos(ang), math.sin(ang)])
            cuts.append((verts[k], verts[k] + r * e))

    def trace(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return -np.ones(s.shape[0])

    return UnitField(domain=ngon_curve, regions=tuple(regions),
                     jump_set=tuple(jumps), boundary_trace=trace,
                     kind="distgrad",
                     meta={"n": n, "rotation": rot, "center": c0,
                           "vertices": verts, "phis": phis,
                           "strip_values": strip_values,
                           "amplitude": amp, "half_angle": math.pi / n,
                           "cut_segments": tuple(cuts)})


def _distgrad_raw(field: UnitField, X):
    m = field.meta
    n = m["n"]
    sector = ngon_sector(field.domain, X)
    values = m["strip_values"][sector]
    region = sector.copy()
    # a sector point can fall in the patch at either sector corner
    for shift in (0, 1):
        k = (sector + shift) % n
        u = X - m["vertices"][k]
        nu = np.hypot(u[:, 0], u[:, 1])
        ang = np.arctan2(u[:, 1], u[:, 0])
        hit = (np.abs(_wrap(ang - m["phis"][k])) <= math.pi / n + 1e-15) & (nu > 0)
        if np.any(hit):
            values[hit] = -_rot90(u[hit] / nu[hit, None])
            region[hit] = n + k[hit]
    return values, region


def _vortex_raw(field: UnitField, X):
    rel = X - field.meta["center"]
    nu = np.hypot(rel[:, 0], rel[:, 1])
    safe = nu > 0
    values = np.zeros_like(rel)
    values[safe] = field.meta["alpha"] * _rot90(rel[safe] / nu[safe, None])
    return values, np.zeros(len(rel), dtype=int)


def eval_many(field: UnitField, pts, extend: bool = False):
    """Vectorized evaluation: returns (values (n,2), region ids (n,)).

    With extend=True the analytic region formulas are evaluated on all of
    the plane (no inside or jump-set checks); exact singular points get a
    zero vector.
    """
    X = np.atleast_2d(np.asarray(pts, dtype=float))
    if not extend:
        if not np.all(field.domain.inside(X)):
            raise ValueError("evaluation point outside the domain")
        d = jump_distance(field, X)
        if d.size and d.min() <= 1e-12:
            raise OnJumpError("point on the jump set; use the traces")
    if field.kind == "vortex":
        if not extend:
            rel = X - field.meta["center"]
            if np.min(np.hypot(rel[:, 0], rel[:, 1])) <= 1e-12:
                raise OnJumpError("vortex center; value undefined")
        return _vortex_raw(field, X)
    return _distgrad_raw(field, X)


def field_eval(field: UnitField, x) -> np.ndarray:
    """Exact field value at one strictly interior, off-jump point."""
    v, _ = eval_many(field, np.asarray(x, dtype=float)[None, :])
    return v[0]


def field_region(field: UnitField, x) -> int:
    _, r = eval_many(field, np.asarray(x, dtype=float)[None, :])
    return int(r[0])


def jump_distance(field: UnitField, pts) -> np.ndarray:
    """Distance from each point to the jump set (inf if the set is empty)."""
    X = np.atleast_2d(np.asarray(pts, dtype=float))
    if not field.jump_set:
        return np.full(len(X), np.inf)
    best = np.full(len(X), np.inf)
    for seg in field.jump_set:
        d = np.asarray(seg.p1) - np.asarray(seg.p0)
        L2 = float(d @ d)
        t = np.clip(((X - seg.p0) @ d) / L2, 0.0, 1.0)
        foot = seg.p0 + t[:, None] * d
        best = np.minimum(best, np.hypot(*(X - foot).T))
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

    Covers the jump segments and the strip/patch interface rays, plus the
    ray toward a vortex core; quadrature split at these angles sees only
    smooth integrands.  extra_segments adds caller-known kink lines.
    """
    center = np.asarray(center, dtype=float)
    pieces = [(s.p0, s.p1) for s in field.jump_set]
    pieces += list(field.meta.get("cut_segments", ()))
    pieces += list(extra_segments)
    cuts = [0.0, TWO_PI]
    for p0, p1 in pieces:
        cuts.extend(segment_circle_angles(p0, p1, center, radius))
    if field.kind == "vortex":
        rel = field.meta["center"] - center
        cuts.append(math.atan2(rel[1], rel[0]) % TWO_PI)
    return np.unique(np.asarray(cuts))


def flux_probe(field: UnitField, center, radius: float, order: int = 64) -> float:
    """Flux of m through a circle, splitting the quadrature at jump crossings.

    The circle must lie inside the domain; crossing jump segments is fine
    (the normal component is continuous there by construction).
    """
    center = np.asarray(center, dtype=float)
    thetas = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    ring = center + radius * np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
    if not np.all(field.domain.inside(ring)):
        raise ValueError("probe circle leaves the domain")
    cuts = circle_cut_angles(field, center, radius)
    xg, wg = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a < 1e-14:
            continue
        th = 0.5 * (a + b) + 0.5 * (b - a) * xg
        nrm = np.stack([np.cos(th), np.sin(th)], axis=-1)
        vals, _ = eval_many(field, center + radius * nrm, extend=True)
        total += 0.5 * (b - a) * radius * float(np.sum(wg * np.sum(vals * nrm, axis=1)))
    return total


def l4_vortex_deviation(field: UnitField, center, alpha: int,
                        grid_n: int = 128) -> float:
    """Midpoint-rule integral of |m - vortex(center, alpha)|^4 over the domain."""
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")
    if alpha not in (1, -1):
        raise ValueError("alpha must be +1 or -1")
    center = np.asarray(center, dtype=float)
    x0, x1, y0, y1 = field.domain.bbox()
    hx, hy = (x1 - x0) / grid_n, (y1 - y0) / grid_n
    cx = x0 + hx * (np.arange(grid_n) + 0.5)
    cy = y0 + hy * (np.arange(grid_n) + 0.5)
    P = np.stack(np.meshgrid(cx, cy, indexing="ij"), axis=-1).reshape(-1, 2)
    keep = field.domain.inside(P)
    P = P[keep]
    m, _ = eval_many(field, P, extend=True)
    rel = P - center
    nu = np.hypot(rel[:, 0], rel[:, 1])
    ok = nu > 1e-12
    v = np.zeros_like(rel)
    v[ok] = alpha * _rot90(rel[ok] / nu[ok, None])
    diff = np.sum((m - v) ** 2, axis=1)
    return float(np.sum(diff * diff) * hx * hy)


def best_vortex_fit(field: UnitField, grid_n: int = 128):
    """Minimal l4 deviation over vortex center (Nelder-Mead) and both signs.

    Returns (deviation, center, alpha); the search is seeded at the domain
    centroid.
    """
    seed = field.domain.centroid()
    best = (math.inf, seed, 1)
    for alpha in (1, -1):
        res = minimize(lambda c: l4_vortex_deviation(field, c, alpha, grid_n),
                       seed, method="Nelder-Mead",
                       options={"xatol": 1e-6, "fatol": 1e-12, "maxiter": 200})
        if res.fun < best[0]:
            best = (float(res.fun), np.asarray(res.x), alpha)
    return best


def raster_table(field: UnitField, grid_n: int = 128) -> np.ndarray:
    """Interior raster with columns (x, y, m1, m2, region) for export."""
    x0, x1, y0, y1 = field.domain.bbox()
    cx = np.linspace(x0, x1, grid_n)
    cy = np.linspace(y0, y1, grid_n)
    P = np.stack(np.meshgrid(cx, cy, indexing="ij"), axis=-1).reshape(-1, 2)
    P = P[field.domain.inside(P)]
    m, reg = eval_many(field, P, extend=True)
    return np.column_stack([P, m, reg.astype(float)])


def jump_table(field: UnitField) -> np.ndarray:
    """Jump-set summary with one row per segment for export.

    Columns: x0, y0, x1, y1, theta_J, amplitude, half_angle.
    """
    if not field.jump_set:
        return np.zeros((0, 7))
    return np.array([[*seg.p0, *seg.p1, seg.theta_J, seg.amplitude,
                      seg.half_angle] for seg in field.jump_set])
