"""Geometric defect of boundary triples.

For three boundary points x_1, x_2, x_3 the defect a is the largest margin
with which three concurrent lines through the points can violate the
half-circle direction constraint: directions u_k from x_k through a common
point z0 near the inscribed center must satisfy -tau(x_k) . u_k >= a while
the shortest arc covering the three directions exceeds pi by at least a.
The defect vanishes identically on a disk and drives the stability
estimates' right-hand side through its squared integral over triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import BoundaryCurve, Disk, StarRegion, mod_2pi

TWO_PI = 2.0 * math.pi
# triples scored against the shared z0 grid at once: a block's (triple,
# z0) planes are 8 x 1617 doubles, 0.1 MB each, and stay in cache
_SEARCH_BLOCK = 8
# triples whose seeds are refined on the stencil at once: (seed, z0) planes
# of 192 x 49 doubles, 75 KB each.  On 2048 random 8-gon triples (batches
# of 512) blocks of 64 took 0.27 ms per triple, 8 took 0.34 and the whole
# batch (1536 x 49, 0.6 MB planes) 0.31, with 1.6k, 1.7k and 15.6k minor
# page faults
_STENCIL_BLOCK = 64


@dataclass
class DefectResult:
    a: float
    z0: np.ndarray
    alphas: np.ndarray          # line directions, radians mod 2pi
    signs: tuple                # True = direction points from x_k toward z0


@dataclass
class TripleGrid:
    """Product quadrature over a boundary region cubed.

    Per-factor nodes carry distinct sub-cell phase offsets so no triple has
    coinciding points; each factor's weights sum to the region length.
    """

    params: np.ndarray    # (3, M)
    weights: np.ndarray   # (3, M)
    region_length: float
    M: int

    @property
    def total_weight(self) -> float:
        return float(np.prod(self.weights.sum(axis=1)))


@dataclass
class IntegralResult:
    value: float
    standard_error: Optional[float]
    mode: str
    n_evals: int                # triples evaluated (tensor: M^3 / symmetry_order)
    grid: Optional[TripleGrid] = None
    symmetry_order: int = 1     # g of the rotation block summed, 1 = none


def _objective(X, T, zx, zy):
    """Defect objective of the forced sign pattern for many (triple, z0) pairs.

    A positive objective forces sigma_k = -sign(tau_k . u_k) (any other
    sign makes some margin negative): the line through x_k runs along u_k
    where tau_k . u_k <= 0 and against it elsewhere.  The value is
    min(min_k |tau_k . u_k|, l - pi), l the shortest arc containing the
    line angles; it is unclipped, so a search that sees no positive value
    still has a slope to climb, and the defect is the positive part of its
    max over z0.  X, T: (B, 3, 2) points and tangents; zx, zy: (B, G)
    coordinates of z0, or (1, G) for a grid shared by the batch.  All work
    is elementwise on (B, G) planes (np.minimum chains, a min/median/max
    network for the arc), with no reduction over a length-2 or -3 axis.
    Returns (value, d, alpha): the (B, G) values and per point k the
    planes d[k] = tau_k . u_k and alpha[k], its line angle in [0, 2pi).
    """
    d, alpha = [], []
    for k in range(3):
        vx = zx - X[:, k, 0, None]
        vy = zy - X[:, k, 1, None]
        norm = np.sqrt(vx * vx + vy * vy)
        ux, uy = vx / norm, vy / norm
        dk = T[:, k, 0, None] * ux + T[:, k, 1, None] * uy
        ak = mod_2pi(np.arctan2(uy, ux) + (dk > 0) * math.pi)
        d.append(dk)
        alpha.append(ak)
    a0, a1, a2 = alpha
    lo = np.minimum(np.minimum(a0, a1), a2)
    hi = np.maximum(np.maximum(a0, a1), a2)
    mid = np.maximum(np.minimum(a0, a1), np.minimum(np.maximum(a0, a1), a2))
    # l = 2pi - largest circular gap between the sorted angles
    maxgap = np.maximum(np.maximum(mid - lo, hi - mid), TWO_PI - (hi - lo))
    margin = np.minimum(np.minimum(np.abs(d[0]), np.abs(d[1])), np.abs(d[2]))
    return np.minimum(margin, TWO_PI - maxgap - math.pi), d, alpha


def _polar_grid(center, radius, nr, ntheta):
    r = np.linspace(0.0, radius, nr)
    th = np.linspace(0.0, TWO_PI, ntheta, endpoint=False)
    R, TH = np.meshgrid(r, th)
    return center[0] + (R * np.cos(TH)).ravel(), center[1] + (R * np.sin(TH)).ravel()


def _search(curve: BoundaryCurve, disk: Disk, triples: np.ndarray):
    """Grid search of the defect objective over z0 for many triples.

    Each triple is first turned into its own frame: the disk center x0 at
    the origin and x_1 on the ray at angle pi/98, a quarter step of the
    grid's 49 rays, so that no grid ray and no axis of the refinement
    stencil runs through x_1 (points on such a line share x_1's margin
    exactly, and rounding would pick among the tied seeds).  The defect is
    invariant under that rotation, and the search below then is too, so a
    rotation of the domain about x0 leaves the values unchanged up to
    rounding (the symmetry reduction of integral_a2 relies on this).  In
    that frame the batch shares a 33x49 polar z0 grid over the closed
    half-radius disk, keeps the top 3 grid points per triple (secondary
    basins), and shrinks a 7x7 local grid around each in four rounds.
    The grid is scored _SEARCH_BLOCK triples at a time and the stencil
    _STENCIL_BLOCK triples' seeds at a time; every value is elementwise and
    every reduction runs along one triple's (or seed's) own row, so the
    result does not depend on the batch or on how it is split.

    Returns the refined seed values, (B, 3), and their z0 in world
    coordinates, (B, 3, 2).  Each value is attained by the objective at
    its z0.
    """
    triples = np.asarray(triples, dtype=float)
    B, n_seeds = len(triples), 3
    x0, half = disk.center_xy, disk.radius / 2.0
    X = curve.point(triples.ravel()).reshape(B, 3, 2) - x0
    T = curve.tangent(triples.ravel()).reshape(B, 3, 2)
    phi = np.arctan2(X[:, 0, 1], X[:, 0, 0]) - math.pi / 98.0
    c, s = np.cos(phi)[:, None], np.sin(phi)[:, None]

    def to_frame(V):
        return np.stack([c * V[..., 0] + s * V[..., 1],
                         c * V[..., 1] - s * V[..., 0]], axis=-1)

    X, T = to_frame(X), to_frame(T)
    gx, gy = _polar_grid(np.zeros(2), half, 33, 49)
    seed_xy = np.empty((2, B, n_seeds))
    seed_val = np.empty((B, n_seeds))
    for lo in range(0, B, _SEARCH_BLOCK):
        blk = slice(lo, lo + _SEARCH_BLOCK)
        vals = _objective(X[blk], T[blk], gx[None], gy[None])[0]
        order = np.argsort(vals, axis=1)[:, -n_seeds:]
        seed_xy[:, blk] = gx[order], gy[order]
        seed_val[blk] = np.take_along_axis(vals, order, axis=1)

    BK = B * n_seeds
    best_x, best_y = seed_xy.reshape(2, BK)
    best_val = seed_val.reshape(BK)
    Xk = np.repeat(X, n_seeds, axis=0)
    Tk = np.repeat(T, n_seeds, axis=0)
    off = np.arange(-3.0, 4.0)
    off_x, off_y = np.repeat(off, 7), np.tile(off, 7)     # the 7x7 stencil
    for lo in range(0, BK, _STENCIL_BLOCK * n_seeds):
        blk = slice(lo, lo + _STENCIL_BLOCK * n_seeds)
        bx, by, bv = best_x[blk], best_y[blk], best_val[blk]
        rows = np.arange(len(bv))
        h = half / 16.0
        for _ in range(4):
            cx = bx[:, None] + h * off_x
            cy = by[:, None] + h * off_y
            # clip to the closed ball of radius R/2
            scale = np.minimum(1.0, half / np.maximum(np.hypot(cx, cy), 1e-300))
            cx, cy = cx * scale, cy * scale
            vals = _objective(Xk[blk], Tk[blk], cx, cy)[0]
            idx = np.argmax(vals, axis=1)
            take = vals[rows, idx] > bv
            bv = np.where(take, vals[rows, idx], bv)
            bx = np.where(take, cx[rows, idx], bx)
            by = np.where(take, cy[rows, idx], by)
            h /= 4.0
        best_x[blk], best_y[blk], best_val[blk] = bx, by, bv
    zx, zy = best_x.reshape(B, n_seeds), best_y.reshape(B, n_seeds)
    world = np.stack([c * zx - s * zy, s * zx + c * zy], axis=-1)
    return best_val.reshape(B, n_seeds), x0 + world


def defect_batch(curve: BoundaryCurve, disk: Disk, triples: np.ndarray) -> np.ndarray:
    """Defect values for many triples: the positive part of the best of
    _search's refined seeds, a lower bound of the max attained at a
    feasible z0.  Against the certified branch-and-bound interval of
    tests/_oracles.py on 300 random triples (75 each on the 8-gon, the
    16-gon, the ellipse of aspect 1.3 and that ellipse rotated and shifted)
    the shortfall has a median of 9e-5 but reaches 1.2e-2 where the peak is
    narrow, and the sums of a^2 come out 0.3-0.6% low.  defect_a polishes
    the same seeds and is never below this value.  A triple costs 2205
    evaluations of _objective, a median 0.16 ms on the 8-gon (2048 random
    triples in batches of 512, nine repetitions reading 0.154-0.183 ms;
    one core of a 2-core Xeon, numpy 2.4, whose speed drifts over hours:
    the same host read 0.26 ms at another time).
    """
    vals, _ = _search(curve, disk, triples)
    return np.maximum(vals.max(axis=1), 0.0)


# a parameter is reduced mod the perimeter exactly, but its own rounding,
# ulp(s), carries over to the point it names: from |s| = 2^13 on that is
# over 2^-40 (about 1e-12), and the reduced parameter has lost digits
_MAX_PARAM = 2.0 ** 13


def _check_triple(curve, triple):
    t = np.asarray(triple, dtype=float)
    if t.shape != (3,):
        raise ValueError("triple must be three boundary parameters")
    if not np.all(np.abs(t) < _MAX_PARAM):
        raise ValueError(f"triple parameters must lie in (-{_MAX_PARAM:g}, "
                         f"{_MAX_PARAM:g}): a larger one loses digits when "
                         "reduced mod the perimeter")
    if not _pairwise_ok(t[None, :], curve.perimeter)[0]:
        raise ValueError("triple points must be pairwise distinct")
    return t


def defect_a(curve: BoundaryCurve, disk: Disk, triple) -> DefectResult:
    """Defect of one boundary triple: defect_batch's search plus a polish.

    z0 ranges over the closed half-radius disk about the disk center.
    Nelder-Mead maximizes the objective from each of _search's 3 refined
    seeds and from the incircle candidate, so the value is never below
    defect_batch's.  The result is the best value found, a certified lower
    bound of the true max, attained at z0.  On a zero-defect triple z0 is
    some point of the zero plateau.
    """
    from scipy.optimize import minimize

    t = _check_triple(curve, triple)
    X = curve.point(t)[None]
    T = curve.tangent(t)[None]
    x0, half = disk.center_xy, disk.radius / 2.0

    def clipped(z):
        w = z - x0
        r = np.hypot(w[0], w[1])
        return x0 + w * (half / r) if r > half else z

    def objective(z):
        return float(_objective(X, T, *np.reshape(z, (2, 1, 1)))[0][0, 0])

    _, seeds = _search(curve, disk, t[None])
    starts = list(seeds[0])
    inc_center, _ = incircle_candidate(curve, t)
    if np.isfinite(inc_center).all():
        starts.append(clipped(inc_center))

    best_val, best_z = -np.inf, x0
    for z_start in starts:
        res = minimize(lambda p: -objective(clipped(p)), z_start,
                       method="Nelder-Mead",
                       options={"xatol": 1e-11, "fatol": 1e-13,
                                "maxiter": 600, "maxfev": 1200})
        val = -float(res.fun)
        if val > best_val:
            best_val, best_z = val, clipped(res.x)
    _, d, alpha = _objective(X, T, *np.reshape(best_z, (2, 1, 1)))
    return DefectResult(a=max(best_val, 0.0), z0=best_z,
                        alphas=np.array([ak[0, 0] for ak in alpha]),
                        signs=tuple(bool(dk[0, 0] <= 0) for dk in d))


def incircle_candidate(curve: BoundaryCurve, triple):
    """Incircle of the triangle cut out by the three boundary normal lines.

    Returns (center, radius); radius 0 with the least-squares concurrency
    point when the lines are (near) concurrent or parallel.
    """
    t = _check_triple(curve, triple)
    X = curve.point(t)
    N = curve.normal(t)

    def line_intersect(i, j):
        A = np.column_stack([N[i], -N[j]])
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        if abs(det) < 1e-12:
            return None
        st = np.linalg.solve(A, X[j] - X[i])
        return X[i] + st[0] * N[i]

    verts = [line_intersect(0, 1), line_intersect(0, 2), line_intersect(1, 2)]
    if any(v is None for v in verts):
        return _lsq_concurrency(X, N), 0.0
    A, B, C = verts
    area = 0.5 * abs((B[0] - A[0]) * (C[1] - A[1]) - (B[1] - A[1]) * (C[0] - A[0]))
    if area < 1e-12:
        return _lsq_concurrency(X, N), 0.0
    la = np.hypot(*(B - C))
    lb = np.hypot(*(A - C))
    lc = np.hypot(*(A - B))
    per = la + lb + lc
    center = (la * A + lb * B + lc * C) / per
    return center, float(2.0 * area / per)


def _lsq_concurrency(X, N):
    # minimize sum over lines of squared distance; distance uses the
    # perpendicular of each line direction
    P = np.column_stack([-N[:, 1], N[:, 0]])
    M = np.einsum("ki,kj->ij", P, P)
    b = np.einsum("ki,kj,kj->i", P, P, X)
    sol, *_ = np.linalg.lstsq(M, b, rcond=None)
    return sol


def _region_nodes(intervals, M: int):
    """Per-factor nodes/weights of the composite periodic rule on a union
    of parameter intervals.

    The three factors use sub-cell phases 1/6, 1/2, 5/6 so product nodes
    never coincide (minimum parameter gap = cell/3).
    """
    phases = (1.0 / 6.0, 0.5, 5.0 / 6.0)
    lengths = np.array([b - a for a, b in intervals])
    L = float(lengths.sum())
    if L <= 0:
        raise ValueError("empty region")
    # largest-remainder allocation of M nodes per factor
    raw = M * lengths / L
    counts = np.floor(raw).astype(int)
    rem = M - counts.sum()
    if rem > 0:
        order = np.argsort(-(raw - counts))
        counts[order[:rem]] += 1
    params = np.empty((3, M))
    weights = np.empty((3, M))
    for f, ph in enumerate(phases):
        pos = 0
        for (a, b), c in zip(intervals, counts):
            if c == 0:
                continue
            h = (b - a) / c
            params[f, pos:pos + c] = a + (np.arange(c) + ph) * h
            weights[f, pos:pos + c] = h
            pos += c
    return params, weights, L


def _symmetry_order(curve: BoundaryCurve, disk: Disk, M: int) -> int:
    """Order g of the rotation the full product rule is invariant under.

    A shift of M/g cells moves every factor's node set onto itself (the
    sub-cell phases are kept) and the parameter by perimeter/g, which the
    curve turns into a rotation by 2*pi/g about its centroid; the defect
    is unchanged when the disk is centered there too.
    """
    g = math.gcd(M, curve.rotation_order)
    if g > 1 and np.hypot(*(disk.center_xy - curve.centroid())) > 1e-6 * disk.radius:
        return 1
    return g


def integral_a2(curve: BoundaryCurve, disk: Disk,
                region: Optional[StarRegion] = None, M: int = 24,
                mc_samples: Optional[int] = None, seed: int = 0,
                batch: int = 512) -> IntegralResult:
    """Integral of a^2 over the region cubed.

    Tensor mode (default): composite periodic product rule with M nodes per
    factor and memoized per-node geometry.  Over the full boundary, the
    rule sums one rotation block only: the triples whose first node lies in
    the first M/g cells, times g, with g from _symmetry_order; each orbit
    of the rotation by M/g cells meets that block exactly once, so the sum
    is the full one up to rounding.  Monte-Carlo mode (mc_samples set):
    uniform triples on the region cubed with a standard-error report;
    deterministic under seed and independent of batch size.
    """
    if M < 8:
        raise ValueError("need M >= 8 nodes per factor")
    intervals = [(0.0, curve.perimeter)] if region is None else region.intervals
    if mc_samples is not None:
        if mc_samples < 1:
            raise ValueError("need mc_samples >= 1")
        if not 0 <= seed < 2 ** 128:
            raise ValueError("need 0 <= seed < 2**128")
        return _integral_a2_mc(curve, disk, intervals, mc_samples, seed,
                               batch)

    params, weights, L = _region_nodes(intervals, M)
    grid = TripleGrid(params=params, weights=weights, region_length=L, M=M)
    g = 1 if region is not None else _symmetry_order(curve, disk, M)

    idx = np.stack(np.meshgrid(np.arange(M // g), np.arange(M), np.arange(M),
                               indexing="ij"), axis=-1).reshape(-1, 3)
    triples = np.column_stack([params[0, idx[:, 0]], params[1, idx[:, 1]],
                               params[2, idx[:, 2]]])
    w = weights[0, idx[:, 0]] * weights[1, idx[:, 1]] * weights[2, idx[:, 2]]

    total = 0.0
    for lo in range(0, len(triples), batch):
        a = defect_batch(curve, disk, triples[lo:lo + batch])
        total += float(np.sum(w[lo:lo + batch] * a * a))
    return IntegralResult(value=g * total, standard_error=None, mode="tensor",
                          n_evals=len(triples), grid=grid, symmetry_order=g)


def _uniform_region_params(region_intervals, L, u):
    """Map uniform [0,1) draws to parameters of a union of intervals."""
    lengths = np.array([b - a for a, b in region_intervals])
    edges = np.concatenate([[0.0], np.cumsum(lengths)])
    x = u * L
    k = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(lengths) - 1)
    starts = np.array([a for a, _ in region_intervals])
    return starts[k] + (x - edges[k])


def _integral_a2_mc(curve, disk, intervals, n, seed, batch):
    L = float(sum(b - a for a, b in intervals))
    vol = L**3
    # all draws come from one counter-based stream up front, so the result
    # is independent of the compute batch size
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((n, 3))
    triples = _uniform_region_params(intervals, L, u.ravel()).reshape(n, 3)
    ok = _pairwise_ok(triples, curve.perimeter)
    a2 = np.zeros(n)
    idx = np.nonzero(ok)[0]
    for lo in range(0, len(idx), batch):
        sel = idx[lo:lo + batch]
        a = defect_batch(curve, disk, triples[sel])
        a2[sel] = a * a
    mean = float(a2.mean())
    var = float(a2.var())
    se = math.sqrt(var / n) * vol
    return IntegralResult(value=mean * vol, standard_error=se, mode="mc",
                          n_evals=n, grid=None)


def _pairwise_ok(triples, per):
    d01 = np.abs((triples[:, 0] - triples[:, 1] + per / 2) % per - per / 2)
    d02 = np.abs((triples[:, 0] - triples[:, 2] + per / 2) % per - per / 2)
    d12 = np.abs((triples[:, 1] - triples[:, 2] + per / 2) % per - per / 2)
    return (d01 > 1e-6) & (d02 > 1e-6) & (d12 > 1e-6)


def lipschitz_probe(curve: BoundaryCurve, disk: Disk, pairs: int = 1000,
                    seed: int = 0) -> float:
    """Empirical Lipschitz ratio of a over random triple pairs.

    Perturbs each sampled triple by geodesic offsets in [1e-3, 0.3]
    per coordinate and returns max |a - a'| / dist with the l1 product
    geodesic metric.  Diagnostic: reported, not compared to a constant.
    """
    if pairs < 100:
        raise ValueError("need at least 100 pairs")
    per = curve.perimeter
    rng = np.random.Generator(np.random.Philox(key=seed))
    base = rng.random((pairs, 3)) * per
    delta = rng.uniform(1e-3, 0.3, size=(pairs, 3)) * rng.choice(
        [-1.0, 1.0], size=(pairs, 3))
    other = np.mod(base + delta, per)
    ok = _pairwise_ok(base, per) & _pairwise_ok(other, per)
    base, other, delta = base[ok], other[ok], delta[ok]
    a0 = defect_batch(curve, disk, base)
    a1 = defect_batch(curve, disk, other)
    dist = np.sum(np.abs(delta), axis=1)
    return float(np.max(np.abs(a1 - a0) / dist))
