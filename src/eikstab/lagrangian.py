"""Monte-Carlo Lagrangian tracer for piecewise-smooth unit fields.

Characteristics fly straight; at a jump they cross when the far-side trace
admits the direction and otherwise reflect specularly across the jump
tangent, accumulating angular variation.  The ensemble machinery samples
the uniform interior law plus boundary influx births and verifies the
representation, influx, and dissipation identities statistically.
"""

from __future__ import annotations

import math
import multiprocessing as mp
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .fields import UnitField, eval_many, field_eval, jump_distance
from .geometry import BoundaryCurve, wrap_pi
from .geometry.pieces import segment_ray_hits

TWO_PI = 2.0 * math.pi
BATCH = 16384


def circ_dist(a, b):
    """Distance on the circle of directions."""
    return np.abs(wrap_pi(np.asarray(a) - np.asarray(b)))


def jump_rule(theta_J, m_far, s):
    """Crossing rule at a jump: (new direction, added variation, crossed).

    Crossing is allowed when the far trace admits the direction; otherwise
    the direction reflects specularly across the jump tangent.  Vectorized
    over hits (theta_J, s of shape (n,), m_far of shape (n, 2)); scalar
    arguments give Python scalars back.
    """
    theta_J = np.asarray(theta_J, dtype=float)
    m_far = np.asarray(m_far, dtype=float)
    s = np.asarray(s, dtype=float)
    crossed = m_far[..., 0] * np.cos(s) + m_far[..., 1] * np.sin(s) > 0.0
    s_ref = (2.0 * theta_J - s) % TWO_PI
    s_new = np.where(crossed, s, s_ref)
    dmu = np.where(crossed, 0.0, circ_dist(s, s_ref))
    if s.ndim == 0:
        return float(s_new), float(dmu), bool(crossed)
    return s_new, dmu, crossed


@dataclass(frozen=True)
class Trajectory:
    t_minus: float
    t_plus: float
    breakpoints: List[Tuple[float, np.ndarray, float]]
    mu: float
    termination: str  # boundary | time-horizon | center


_TERMINATIONS = ("time-horizon", "boundary", "center")


def trace(field: UnitField, x0, s0: float, t0: float = 0.0,
          T: float = 3.0 * math.pi) -> Trajectory:
    """Exact characteristic through (x0, s0), traced by the batch engine
    as a batch of one curve."""
    x = np.asarray(x0, dtype=float).copy()
    s = float(s0) % TWO_PI
    if not bool(field.domain.inside(x[None, :])[0]):
        raise ValueError("start point must be interior")
    if jump_distance(field, x[None, :])[0] <= 1e-12:
        raise ValueError("start point lies on the jump set")
    m0 = field_eval(field, x)
    if float(m0 @ [math.cos(s), math.sin(s)]) <= 0.0:
        raise ValueError("start direction not admitted by the field")

    mu, death, term, _, _, bp_rows = _advance_batch(
        field, x[None, :].copy(), np.array([s]), np.array([float(t0)]), T)
    bps = [(float(t0), x, s)]
    for _, t, xs, ss in bp_rows:
        bps.append((float(t[0]), xs[0], float(ss[0])))
    return Trajectory(t_minus=t0, t_plus=float(death[0]), breakpoints=bps,
                      mu=float(mu[0]), termination=_TERMINATIONS[term[0]])


# -- ensemble specification ----------------------------------------------


def domain_diameter(curve: BoundaryCurve) -> float:
    s = np.linspace(0.0, curve.perimeter, 512, endpoint=False)
    g = curve.point(s)
    d2 = np.sum((g[:, None, :] - g[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.max()))


@dataclass(frozen=True)
class EnsembleSpec:
    field: UnitField
    horizon: float = 3.0 * math.pi
    interior_count: int = 100_000
    boundary_rate: float = 0.0   # birth samples per unit influx intensity
    seed: int = 0

    def __post_init__(self):
        if self.interior_count < 0 or self.boundary_rate < 0:
            raise ValueError("counts must be nonnegative")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("need 0 <= seed < 2**64")
        if self.horizon < domain_diameter(self.field.domain):
            raise ValueError("horizon shorter than the domain diameter")


def em_mass(field: UnitField) -> float:
    """Mass of the admissible phase set: area times pi."""
    return math.pi * field.domain.area()


def _influx_at(field: UnitField, sb):
    """Boundary points at the parameters sb, their inward-normal angles and
    the admitted inward directions in the inward-normal frame.

    In the frame phi = s - inward the influx weight is cos(phi) on
    (-pi/2, pi/2) and the trace admits phi in (delta - pi/2, delta + pi/2)
    with delta the wrapped trace angle.  Returns (pts, inward, lo, hi) with
    [lo, hi] the intersection; an empty window comes out with hi <= lo.
    """
    pts = field.domain.point(sb)
    tau = field.domain.tangent(sb)
    m, _ = eval_many(field, pts, extend=True)
    inward = np.arctan2(tau[:, 1], tau[:, 0]) + math.pi / 2
    delta = wrap_pi(np.arctan2(m[:, 1], m[:, 0]) - inward)
    lo = np.maximum(-math.pi / 2, delta - math.pi / 2)
    hi = np.minimum(math.pi / 2, delta + math.pi / 2)
    return pts, inward, lo, hi


def boundary_influx_rate(field: UnitField, order: int = 32) -> float:
    """Total birth intensity per unit time along the boundary.

    Integrates the inward flux of admitted directions; the direction
    integral is in closed form per boundary node.
    """
    nodes, weights = field.domain.quad_nodes(order)
    _, _, lo, hi = _influx_at(field, nodes)
    return float(np.sum(weights * np.clip(np.sin(hi) - np.sin(lo), 0.0, None)))


def balanced_spec(field: UnitField, total: int, horizon: float = 3.0 * math.pi,
                  seed: int = 0) -> EnsembleSpec:
    """Split a curve budget between interior starts and boundary births
    proportionally to their measure masses, so all weights coincide."""
    mass_i = em_mass(field)
    mass_b = boundary_influx_rate(field) * horizon
    n_int = max(1, int(round(total * mass_i / (mass_i + mass_b))))
    q = (total - n_int) / mass_b if mass_b > 0 else 0.0
    return EnsembleSpec(field=field, horizon=horizon, interior_count=n_int,
                        boundary_rate=q, seed=seed)


# -- batch engine ---------------------------------------------------------


def _segment_data(field: UnitField):
    if not field.jump_set:
        z = np.zeros((0, 2))
        return z, z, np.zeros(0), np.zeros(0), z, z
    P0 = np.array([s.p0 for s in field.jump_set], dtype=float)
    E = np.array([(np.asarray(s.p1) - np.asarray(s.p0)) for s in field.jump_set])
    L = np.hypot(E[:, 0], E[:, 1])
    E = E / L[:, None]
    theta = np.array([s.theta_J for s in field.jump_set])
    m_minus = np.array([s.m_minus for s in field.jump_set], dtype=float)
    m_plus = np.array([s.m_plus for s in field.jump_set], dtype=float)
    return P0, E, L, theta, m_minus, m_plus


def _hub(field: UnitField):
    """The endpoint that all jump segments share; at infinity without one."""
    ends = [{tuple(seg.p0), tuple(seg.p1)} for seg in field.jump_set]
    shared = set.intersection(*ends) if len(ends) > 1 else set()
    return np.array(shared.pop() if shared else (np.inf, np.inf))


def _jump_hits(x, d, segments, fan, u_stop):
    """First jump-segment hit of each ray: (ray parameter, segment index),
    inf where the ray meets no segment.

    Without a fan every ray is tested against every segment.  With one
    (see UnitField.fan), a ray is tested against the two spokes of the
    sector it heads into.  All spokes lie in the disk of radius max(L)
    about the hub; when the ray's part inside that disk, cut at u_stop and
    at the nearer of the two hits, starts and ends in the closed sector, it
    stays there (the sector is convex) and no other spoke can come first.
    Rays that fail this, or whose line passes within 1e-7 of the hub,
    where all spokes meet, are tested against every segment.  Both tests
    share one kernel, so they give the same bits.
    """
    P0, E, L = segments
    if fan is None:
        sure = np.zeros(len(x), dtype=bool)
        u_seg = np.full(len(x), np.inf)
        which = np.zeros(len(x), dtype=int)
    else:
        n = len(L)
        rel = x - fan.hub
        b = np.sum(rel * d, axis=1)
        reach = L.max() + 1e-8
        disc = b * b - (np.sum(rel * rel, axis=1) - reach * reach)
        sq = np.sqrt(np.maximum(disc, 0.0))
        t0 = np.maximum(-b - sq, 0.0)
        k0 = fan.sector(x + (t0 + 1e-9)[:, None] * d)
        k1 = (k0 + 1) % n
        h0 = segment_ray_hits(x, d, P0[k0], E[k0], L[k0], 1e-9)
        h1 = segment_ray_hits(x, d, P0[k1], E[k1], L[k1], 1e-9)
        u_seg = np.minimum(h0, h1)
        which = np.where(h1 < h0, k1, k0)
        t_end = np.minimum(np.minimum(u_stop, u_seg), -b + sq)
        sure = np.abs(rel[:, 0] * d[:, 1] - rel[:, 1] * d[:, 0]) > 1e-7
        for t in (t0, t_end):
            q = rel + t[:, None] * d
            sure &= E[k0, 0] * q[:, 1] - E[k0, 1] * q[:, 0] >= -1e-12
            sure &= q[:, 0] * E[k1, 1] - q[:, 1] * E[k1, 0] >= -1e-12
        # a ray whose part inside the disk ends before it starts meets no
        # spoke before u_stop
        sure |= (disc <= 0.0) | (t_end <= t0)
    redo = np.flatnonzero(~sure)
    if len(redo):
        uu = segment_ray_hits(x[redo, None, :], d[redo, None, :],
                              P0, E, L, 1e-9)
        u_seg[redo] = uu.min(axis=1)
        which[redo] = uu.argmin(axis=1)
    return u_seg, which


def _advance_batch(field: UnitField, x, s, t, T):
    """Run one batch of curves to completion (event-synchronous lockstep).

    Returns per-curve (mu, death, termination) and flat event/breakpoint
    rows; breakpoint rows hold only direction changes plus the death row.
    """
    n = len(s)
    P0, E, L, theta_J, m_minus, m_plus = _segment_data(field)
    nseg = len(L)
    n_J = np.stack([-np.sin(theta_J), np.cos(theta_J)], axis=-1) if nseg else None
    hub = _hub(field)
    fan = field.fan
    alive = np.ones(n, dtype=bool)
    mu = np.zeros(n)
    death = np.full(n, T)
    term = np.zeros(n, dtype=np.int8)
    ev_rows = []     # (idx, t, x, dmu, seg, side, s_out)
    cross_rows = []  # (idx, t, x, seg, side, s)
    bp_rows = []     # (idx, t, x, s) extra breakpoints: reflections, deaths

    for _ in range(200_000):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        d = np.stack([np.cos(s[idx]), np.sin(s[idx])], axis=-1)
        u_exit = field.domain.ray_exit(x[idx], d, tol=1e-9)
        u_cap = T - t[idx]
        if nseg:
            u_seg, which = _jump_hits(x[idx], d, (P0, E, L), fan,
                                      np.minimum(u_exit, u_cap))
        else:
            u_seg = np.full(len(idx), np.inf)
            which = np.zeros(len(idx), dtype=int)
        u = np.minimum(np.minimum(u_exit, u_cap), u_seg)
        x[idx] = x[idx] + u[:, None] * d
        t[idx] = t[idx] + u

        hit_cap = u_cap <= np.minimum(u_exit, u_seg)
        hit_exit = (~hit_cap) & (u_exit <= u_seg)
        hit_seg = (~hit_cap) & (~hit_exit)

        for mask, code in ((hit_cap, 0), (hit_exit, 1)):
            if mask.any():
                ii = idx[mask]
                alive[ii] = False
                death[ii] = t[ii]
                term[ii] = code
                bp_rows.append((ii, t[ii].copy(), x[ii].copy(), s[ii].copy()))
        if hit_seg.any():
            jj = np.flatnonzero(hit_seg)
            ii = idx[jj]
            at_center = np.hypot(x[ii, 0] - hub[0],
                                 x[ii, 1] - hub[1]) < 1e-9
            if at_center.any():
                cc = ii[at_center]
                alive[cc] = False
                death[cc] = t[cc]
                term[cc] = 2
                bp_rows.append((cc, t[cc].copy(), x[cc].copy(), s[cc].copy()))
                jj = jj[~at_center]
                ii = ii[~at_center]
            if len(ii):
                k = which[jj]
                side = np.sum(d[jj] * n_J[k], axis=1)
                far = np.where(side[:, None] < 0.0, m_plus[k], m_minus[k])
                s_new, dmu, crossed = jump_rule(theta_J[k], far, s[ii])
                refl = ~crossed
                if refl.any():
                    rr = np.flatnonzero(refl)
                    mu[ii[rr]] += dmu[rr]
                    ev_rows.append((ii[rr], t[ii[rr]].copy(),
                                    x[ii[rr]].copy(), dmu[rr], k[rr],
                                    np.sign(side[rr]), s_new[rr]))
                    s[ii[rr]] = s_new[rr]
                    bp_rows.append((ii[rr], t[ii[rr]].copy(),
                                    x[ii[rr]].copy(), s_new[rr]))
                if crossed.any():
                    aa = np.flatnonzero(crossed)
                    cross_rows.append((ii[aa], t[ii[aa]].copy(),
                                       x[ii[aa]].copy(), k[aa],
                                       np.sign(side[aa]), s[ii[aa]].copy()))
    else:
        raise RuntimeError("runaway batch: event cap exceeded")
    return mu, death, term, ev_rows, cross_rows, bp_rows


def _interior_starts(field: UnitField, count, rng):
    x0, x1, y0, y1 = field.domain.bbox()
    out_x = np.empty((0, 2))
    out_s = np.empty(0)
    while len(out_x) < count:
        draw = max(4096, 2 * (count - len(out_x)))
        P = np.column_stack([rng.uniform(x0, x1, draw),
                             rng.uniform(y0, y1, draw)])
        S = rng.uniform(0.0, TWO_PI, draw)
        keep = field.domain.inside(P)
        keep &= jump_distance(field, P) > 1e-9
        m, _ = eval_many(field, P, extend=True)
        keep &= np.cos(S) * m[:, 0] + np.sin(S) * m[:, 1] > 0.0
        out_x = np.concatenate([out_x, P[keep]])
        out_s = np.concatenate([out_s, S[keep]])
    return out_x[:count], out_s[:count]


def _birth_table(field: UnitField, n_table: int = 8192):
    """Cumulative influx-rate table over the boundary parameter."""
    sb = np.linspace(0.0, field.domain.perimeter, n_table, endpoint=False)
    _, _, lo, hi = _influx_at(field, sb)
    dens = np.clip(np.sin(hi) - np.sin(lo), 0.0, None)
    h = field.domain.perimeter / n_table
    cum = np.concatenate([[0.0], np.cumsum(dens) * h])
    return sb, dens, cum


def _boundary_starts(field: UnitField, count, T, rng, table):
    sb_grid, dens, cum = table
    total = cum[-1]
    h = sb_grid[1] - sb_grid[0]
    u = rng.uniform(0.0, total, count)
    j = np.searchsorted(cum, u, side="right") - 1
    j = np.clip(j, 0, len(sb_grid) - 1)
    frac = (u - cum[j]) / np.maximum(cum[j + 1] - cum[j], 1e-300)
    sb = sb_grid[j] + frac * h
    t0 = rng.uniform(0.0, T, count)
    pts, inward, lo, hi = _influx_at(field, sb)
    hi = np.maximum(hi, lo + 1e-12)
    v = rng.uniform(0.0, 1.0, count)
    # direction density cos(.) on [lo, hi] in the inward frame; the CDF
    # inverts through arcsin since [lo, hi] sits inside [-pi/2, pi/2]
    sdir = inward + np.arcsin(np.sin(lo) + v * (np.sin(hi) - np.sin(lo)))
    return pts, sdir % TWO_PI, t0, sb


# -- ensemble result ------------------------------------------------------


@dataclass
class EnsembleResult:
    spec: EnsembleSpec
    weights: np.ndarray
    birth_t: np.ndarray
    death_t: np.ndarray
    mu_total: np.ndarray
    termination: np.ndarray        # 0 horizon, 1 boundary, 2 center
    start_x: np.ndarray
    start_s: np.ndarray
    birth_param: np.ndarray        # boundary parameter, nan for interior
    events: Dict[str, np.ndarray]
    bp_offsets: np.ndarray         # (n+1,) row ranges into bp_* per curve
    bp_t: np.ndarray
    bp_x: np.ndarray
    bp_s: np.ndarray
    n_interior: int
    influx_rate: float

    @property
    def n_curves(self) -> int:
        return len(self.weights)


_POOL_FIELD: Optional[UnitField] = None
_POOL_ARGS: Optional[tuple] = None


def _pool_init(field, T, seed, table):
    global _POOL_FIELD, _POOL_ARGS
    _POOL_FIELD = field
    _POOL_ARGS = (T, seed, table)


def _run_batch(job):
    batch_idx, kind, count = job
    field = _POOL_FIELD
    T, seed, table = _POOL_ARGS
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, batch_idx], dtype=np.uint64)))
    if kind == 0:
        X, S = _interior_starts(field, count, rng)
        T0 = np.zeros(count)
        SB = np.full(count, np.nan)
    else:
        X, S, T0, SB = _boundary_starts(field, count, T, rng, table)
    mu, death, term, ev_rows, cross_rows, bp_rows = _advance_batch(
        field, X.copy(), S.copy(), T0.copy(), T)
    return (batch_idx, X, S, T0, SB, mu, death, term,
            ev_rows, cross_rows, bp_rows)


def sample_ensemble(spec: EnsembleSpec, workers: int = 1) -> EnsembleResult:
    """Sample and trace the full weighted ensemble.

    Batches use counter-based streams keyed (seed, batch index) and are
    reduced in batch order, so the result does not depend on `workers`.
    """
    if workers < 1:
        raise ValueError("need workers >= 1")
    field = spec.field
    T = spec.horizon
    rate = boundary_influx_rate(field)
    w_int = em_mass(field) / spec.interior_count if spec.interior_count else 0.0

    n_b = 0
    if spec.boundary_rate > 0:
        rng0 = np.random.Generator(np.random.Philox(
            key=np.array([spec.seed, 2 ** 40], dtype=np.uint64)))
        n_b = int(rng0.poisson(spec.boundary_rate * rate * T))
    w_b = 1.0 / spec.boundary_rate if spec.boundary_rate > 0 else 0.0
    table = _birth_table(field) if n_b else None

    jobs = []
    batch_idx = 0
    for kind, count in ((0, spec.interior_count), (1, n_b)):
        done = 0
        while done < count:
            nb = min(BATCH, count - done)
            jobs.append((batch_idx, kind, nb))
            done += nb
            batch_idx += 1

    if workers > 1 and len(jobs) > 1:
        ctx = mp.get_context("fork")
        with ctx.Pool(workers, initializer=_pool_init,
                      initargs=(field, T, spec.seed, table)) as pool:
            outs = pool.map(_run_batch, jobs)
        outs.sort(key=lambda o: o[0])
    else:
        _pool_init(field, T, spec.seed, table)
        outs = [_run_batch(j) for j in jobs]

    n_total = spec.interior_count + n_b
    weights = np.empty(n_total)
    birth_t = np.empty(n_total)
    start_x = np.empty((n_total, 2))
    start_s = np.empty(n_total)
    birth_param = np.empty(n_total)
    mu_total = np.empty(n_total)
    death_t = np.empty(n_total)
    term = np.empty(n_total, dtype=np.int8)
    ev_parts, cross_parts, bp_parts = [], [], []
    pos = 0
    for (bi, X, S, T0, SB, mu, death, tr, ev_rows, cross_rows,
         bp_rows) in outs:
        nb = len(S)
        sl = slice(pos, pos + nb)
        kind = jobs[bi][1]
        weights[sl] = w_int if kind == 0 else w_b
        birth_t[sl] = T0
        start_x[sl] = X
        start_s[sl] = S
        birth_param[sl] = SB
        mu_total[sl] = mu
        death_t[sl] = death
        term[sl] = tr
        for r in ev_rows:
            ev_parts.append((r[0] + pos,) + r[1:])
        for r in cross_rows:
            cross_parts.append((r[0] + pos,) + r[1:])
        for r in bp_rows:
            bp_parts.append((r[0] + pos,) + r[1:])
        pos += nb

    def _cat(parts, j, shape, dtype=float):
        if parts:
            return np.concatenate([p[j] for p in parts]).astype(dtype, copy=False)
        return np.zeros(shape, dtype=dtype)

    events = {
        "curve": _cat(ev_parts, 0, 0, int), "t": _cat(ev_parts, 1, 0),
        "xy": _cat(ev_parts, 2, (0, 2)), "mu": _cat(ev_parts, 3, 0),
        "seg": _cat(ev_parts, 4, 0, int), "side": _cat(ev_parts, 5, 0),
        "s_out": _cat(ev_parts, 6, 0),
        "cross_curve": _cat(cross_parts, 0, 0, int),
        "cross_t": _cat(cross_parts, 1, 0),
        "cross_xy": _cat(cross_parts, 2, (0, 2)),
        "cross_seg": _cat(cross_parts, 3, 0, int),
        "cross_side": _cat(cross_parts, 4, 0),
        "cross_s": _cat(cross_parts, 5, 0),
    }

    # breakpoint polylines: birth row + recorded direction changes/deaths,
    # sorted per curve by time
    bc = np.concatenate([np.arange(n_total), _cat(bp_parts, 0, 0, int)])
    bt = np.concatenate([birth_t, _cat(bp_parts, 1, 0)])
    bx = np.concatenate([start_x, _cat(bp_parts, 2, (0, 2))])
    bs = np.concatenate([start_s, _cat(bp_parts, 3, 0)])
    order = np.lexsort((bt, bc))
    bc, bt, bx, bs = bc[order], bt[order], bx[order], bs[order]
    counts = np.bincount(bc, minlength=n_total)
    offsets = np.concatenate([[0], np.cumsum(counts)])

    return EnsembleResult(
        spec=spec, weights=weights, birth_t=birth_t, death_t=death_t,
        mu_total=mu_total, termination=term, start_x=start_x,
        start_s=start_s, birth_param=birth_param, events=events,
        bp_offsets=offsets, bp_t=bt, bp_x=bx, bp_s=bs,
        n_interior=spec.interior_count, influx_rate=rate)


def states_at(result: EnsembleResult, t: float):
    """Positions, directions, weights of trajectories alive at time t."""
    alive = (result.birth_t <= t) & (t < result.death_t)
    idx = np.flatnonzero(alive)
    if len(idx) == 0:
        return np.zeros((0, 2)), np.zeros(0), np.zeros(0), idx
    # last breakpoint at or before t, per curve, through one global
    # searchsorted on lexicographic (curve, time) keys
    scale = result.spec.horizon + 1.0
    keys = result.bp_t + scale * np.arange(result.n_curves)[
        np.searchsorted(result.bp_offsets[1:], np.arange(len(result.bp_t)),
                        side="right")]
    q = t + scale * idx
    j = np.searchsorted(keys, q, side="right") - 1
    dt = t - result.bp_t[j]
    X = result.bp_x[j] + dt[:, None] * np.stack(
        [np.cos(result.bp_s[j]), np.sin(result.bp_s[j])], axis=-1)
    return X, result.bp_s[j], result.weights[idx], idx


# -- statistical checks ---------------------------------------------------


def _arc_overlap(lo, width, c):
    """Length of [lo, lo+width] (width <= 2 pi) inside the half-circle
    of directions about angle c."""
    a = (np.asarray(lo) - (np.asarray(c) - math.pi / 2)) % TWO_PI
    b = a + width
    first = np.clip(np.minimum(b, math.pi) - np.clip(a, 0.0, math.pi),
                    0.0, None)
    second = np.clip(np.minimum(b - TWO_PI, math.pi), 0.0, None)
    return first + np.where(b > TWO_PI, second, 0.0)


def exact_bin_masses(field: UnitField, nx: int, ny: int, ns: int,
                     sub: int = 4) -> np.ndarray:
    """Masses of 1_{E_m} dx ds on an (nx, ny, ns) grid over the bbox."""
    x0, x1, y0, y1 = field.domain.bbox()
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
    hs = TWO_PI / ns
    fx = x0 + hx * (np.arange(nx * sub) + 0.5) / sub
    fy = y0 + hy * (np.arange(ny * sub) + 0.5) / sub
    P = np.stack(np.meshgrid(fx, fy, indexing="ij"), axis=-1).reshape(-1, 2)
    inside = field.domain.inside(P)
    m, _ = eval_many(field, P, extend=True)
    theta = np.arctan2(m[:, 1], m[:, 0])
    cell = hx * hy / (sub * sub)
    out = np.zeros((nx, ny, ns))
    ix = np.repeat(np.arange(nx), sub)
    iy = np.repeat(np.arange(ny), sub)
    IX = np.broadcast_to(ix[:, None], (nx * sub, ny * sub)).reshape(-1)
    IY = np.broadcast_to(iy[None, :], (nx * sub, ny * sub)).reshape(-1)
    for k in range(ns):
        ov = np.where(inside, _arc_overlap(k * hs, hs, theta), 0.0)
        np.add.at(out, (IX, IY, np.full(len(IX), k)), ov * cell)
    return out


def representation_check(result: EnsembleResult, t: float,
                         bins: Tuple[int, int, int] = (16, 16, 8)) -> float:
    """Normalized TV distance between the alive empirical law at time t
    and the uniform law on the admissible phase set."""
    if not 0.0 < t < result.spec.horizon:
        raise ValueError("time must lie inside the open horizon")
    X, S, W, idx = states_at(result, t)
    if len(S) == 0:
        raise ValueError("no alive trajectories at the requested time")
    nx, ny, ns = bins
    field = result.spec.field
    x0, x1, y0, y1 = field.domain.bbox()
    ix = np.clip(((X[:, 0] - x0) / (x1 - x0) * nx).astype(int), 0, nx - 1)
    iy = np.clip(((X[:, 1] - y0) / (y1 - y0) * ny).astype(int), 0, ny - 1)
    isb = ((S % TWO_PI) / TWO_PI * ns).astype(int) % ns
    emp = np.zeros((nx, ny, ns))
    np.add.at(emp, (ix, iy, isb), W)
    exact = exact_bin_masses(field, nx, ny, ns)
    emp /= emp.sum()
    exact /= exact.sum()
    return 0.5 * float(np.abs(emp - exact).sum())


def influx_check(result: EnsembleResult, bins: Tuple[int, int] = (16, 16),
                 sub: int = 16) -> float:
    """TV distance between the empirical birth law over (boundary
    parameter, direction) and the exact influx density."""
    sel = np.isfinite(result.birth_param)
    if not sel.any():
        raise ValueError("ensemble has no boundary births")
    field = result.spec.field
    P = field.domain.perimeter
    nb, ns = bins
    sb = result.birth_param[sel] % P
    s = result.start_s[sel] % TWO_PI
    w = result.weights[sel]
    ib = np.clip((sb / P * nb).astype(int), 0, nb - 1)
    isb = np.clip((s / TWO_PI * ns).astype(int), 0, ns - 1)
    emp = np.zeros((nb, ns))
    np.add.at(emp, (ib, isb), w)

    fine_b = P * (np.arange(nb * sub) + 0.5) / (nb * sub)
    _, inward, lo, hi = _influx_at(field, fine_b)
    exact = np.zeros((nb, ns))
    hsb = TWO_PI / ns
    dl = P / (nb * sub)
    ibf = np.repeat(np.arange(nb), sub)
    for k in range(ns):
        # integral of cos(phi) over the s-bin mapped into the inward frame,
        # intersected with the admitted window [lo, hi]
        a = k * hsb - inward
        contrib = np.zeros(len(fine_b))
        for shift in (-TWO_PI, 0.0, TWO_PI):
            aa = wrap_pi(a + hsb / 2) - hsb / 2 + shift
            lo_c = np.maximum(lo, aa)
            hi_c = np.minimum(hi, aa + hsb)
            contrib += np.where(hi_c > lo_c,
                                np.sin(np.clip(hi_c, -math.pi / 2, math.pi / 2))
                                - np.sin(np.clip(lo_c, -math.pi / 2, math.pi / 2)),
                                0.0)
        np.add.at(exact, (ibf, np.full(len(ibf), k)), contrib * dl)
    emp /= emp.sum()
    exact /= exact.sum()
    return 0.5 * float(np.abs(emp - exact).sum())


@dataclass(frozen=True)
class RateEstimate:
    rate: float
    standard_error: float
    window: Tuple[float, float]
    n_events: int


def dissipation_decomposition(result: EnsembleResult,
                              region: Optional[Callable] = None,
                              burn_in: Optional[float] = None) -> RateEstimate:
    """Weighted reflection variation per unit time over the late window.

    The rate is a sum of independent per-curve contributions c, so its
    standard error is closed-form.  The interior starts are a fixed count
    n_i of draws and enter as n_i * var(c).  The boundary births come in a
    Poisson number with mean lambda (sample_ensemble draws the count), and
    a compound Poisson sum has variance lambda * E[c^2], so they enter as
    the unbiased estimate sum(c^2): the spread of their count is part of
    the error, and n * var over the pooled curves would leave it out.  On
    the rounded N-gons the two forms differ by 0.2-3% of the error.
    """
    T = result.spec.horizon
    burn = min(math.pi, T / 3.0) if burn_in is None else burn_in
    if burn >= T:
        raise ValueError("empty averaging window")
    ev = result.events
    keep = ev["t"] >= burn
    if region is not None:
        keep &= region(ev["xy"])
    mu = ev["mu"][keep]
    curves = ev["curve"][keep]
    window = T - burn
    rate = float(np.sum(result.weights[curves] * mu)) / window

    per_curve = np.zeros(result.n_curves)
    np.add.at(per_curve, curves, mu)
    contrib = per_curve * result.weights / window
    born = ~np.isnan(result.birth_param)
    interior = contrib[~born]
    var = float(np.sum(contrib[born] ** 2))
    if len(interior):
        var += len(interior) * float(interior.var())
    return RateEstimate(rate=rate, standard_error=math.sqrt(var),
                        window=(burn, T), n_events=int(keep.sum()))


def jump_flux_check(result: EnsembleResult, seg_index: int,
                    bins: int = 16) -> float:
    """TV between outgoing per-direction crossing flux at one jump and the
    uniform-epigraph prediction, worst side."""
    field = result.spec.field
    seg = field.jump_set[seg_index]
    ev = result.events
    worst = 0.0
    for side, m_side in ((1.0, seg.m_minus), (-1.0, seg.m_plus)):
        # outgoing into this side: crossers that entered it plus reflectors
        # that failed to leave it
        sel_r = (ev["seg"] == seg_index) & (ev["side"] == -side)
        sel_c = (ev["cross_seg"] == seg_index) & (ev["cross_side"] == side)
        s_out = np.concatenate([ev["s_out"][sel_r], ev["cross_s"][sel_c]])
        w_out = np.concatenate([result.weights[ev["curve"][sel_r]],
                                result.weights[ev["cross_curve"][sel_c]]])
        if len(s_out) == 0:
            continue
        theta_m = math.atan2(m_side[1], m_side[0])
        rel = wrap_pi(s_out - theta_m)
        edges = np.linspace(-math.pi / 2, math.pi / 2, bins + 1)
        ib = np.clip(np.searchsorted(edges, rel, side="right") - 1, 0, bins - 1)
        emp = np.zeros(bins)
        np.add.at(emp, ib, w_out)
        n_J = np.array([-math.sin(seg.theta_J), math.cos(seg.theta_J)])
        centers = 0.5 * (edges[:-1] + edges[1:])
        dirs = np.stack([np.cos(theta_m + centers),
                         np.sin(theta_m + centers)], axis=-1)
        # outgoing into the side also needs the normal component into it
        pred = np.clip(side * (dirs @ n_J), 0.0, None)
        if emp.sum() <= 0 or pred.sum() <= 0:
            continue
        tv = 0.5 * float(np.abs(emp / emp.sum() - pred / pred.sum()).sum())
        worst = max(worst, tv)
    return worst


def trajectory_table(result: EnsembleResult, max_curves: int = 1000) -> np.ndarray:
    """Breakpoint rows (curve, t, x, y, s) of the first curves, for dumps."""
    k = min(max_curves, result.n_curves)
    end = result.bp_offsets[k]
    curve_ids = np.searchsorted(result.bp_offsets[1:], np.arange(end),
                                side="right")
    return np.column_stack([curve_ids, result.bp_t[:end],
                            result.bp_x[:end], result.bp_s[:end]])


# -- planar jump harness --------------------------------------------------


@dataclass(frozen=True)
class PlanarJumpRate:
    rate: float
    exact: float
    standard_error: float
    n_crossings: int


def planar_jump_rate(X: float, n_crossings: int = 1_000_000,
                     seed: int = 0) -> PlanarJumpRate:
    """Reflection dissipation rate of a unit-length planar jump.

    A flux-equilibrated uniform ensemble hits a vertical jump with traces
    at half-angle X; every hit runs through the shared crossing rule and
    the weighted mean variation gives the rate per unit length and time.
    """
    if not 0.0 < X < math.pi / 2:
        raise ValueError("half-angle must lie in (0, pi/2)")
    theta_J = math.pi / 2
    m_left = np.array([math.cos(X), -math.sin(X)])   # trace on x < 0
    m_right = np.array([math.cos(X), math.sin(X)])
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, 0], dtype=np.uint64)))
    p_left = (1.0 + math.cos(X)) / 2.0
    from_left = rng.uniform(0.0, 1.0, n_crossings) < p_left
    u = rng.uniform(0.0, 1.0, n_crossings)
    # left-side hits: directions on (-pi/2, pi/2 - X), density cos
    sl = np.arcsin(u * (1.0 + math.cos(X)) - 1.0)
    # right-side hits: depth w in (0, X) below the up tangent, density sin
    wr = np.arccos(1.0 - u * (1.0 - math.cos(X)))
    s_hit = np.where(from_left, sl, math.pi / 2 + wr)
    far = np.where(from_left[:, None], m_right[None, :], m_left[None, :])
    _, mu, _ = jump_rule(theta_J, far, s_hit)
    # total hit flux per unit length and time is exactly 2
    rate = 2.0 * float(mu.mean())
    se = 2.0 * float(mu.std(ddof=1)) / math.sqrt(n_crossings)
    exact = 4.0 * (math.sin(X) - X * math.cos(X))
    return PlanarJumpRate(rate=rate, exact=exact, standard_error=se,
                          n_crossings=n_crossings)
