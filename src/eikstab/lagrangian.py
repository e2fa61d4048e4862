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

from .fields import UnitField, eval_many, jump_distance
from .geometry import BoundaryCurve, wrap_pi
from .geometry.pieces import segment_ray_hits_xy

TWO_PI = 2.0 * math.pi
BATCH = 16384
# the tracer's one tolerance: starts within it of the jump set are refused,
# jump hits and boundary exits within it of a line's start are ignored, and
# a jump hit within it of the hub ends the curve there
TOL = 1e-9


def circ_dist(a, b):
    """Distance on the circle of directions."""
    return np.abs(wrap_pi(np.asarray(a) - np.asarray(b)))


def _admits(mx, my, c, sn):
    """Whether the trace (mx, my) admits the direction (c, sn) = (cos s,
    sin s): a start's own trace, or at a jump the far one, which crosses."""
    return mx * c + my * sn > 0.0


def _into_left(J, k, c, sn):
    """Whether the direction (c, sn) = (cos s, sin s) heads into the left
    of jump segment k of the jump table J, where its m_minus trace lies: a
    hit's far side, and the side a crossing or a reflection leaves into."""
    return c * J.normal[:, 0][k] + sn * J.normal[:, 1][k] > 0.0


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
    crossed = _admits(m_far[..., 0], m_far[..., 1], np.cos(s), np.sin(s))
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
    as a batch of one curve.  Its breakpoints are the rows sample_ensemble
    keeps for the curve: the birth, each reflection and the end state.
    The start lies inside, more than TOL from the jump set, and its trace
    admits s0 (ValueError)."""
    x = np.asarray(x0, dtype=float).copy()
    s = float(s0) % TWO_PI
    if not bool(field.domain.inside(x[None, :])[0]):
        raise ValueError("start point must be interior")
    if jump_distance(field, x[None, :])[0] <= TOL:
        raise ValueError("start point lies on the jump set")
    m0 = eval_many(field, x[None, :])[0][0]
    if not _admits(m0[0], m0[1], math.cos(s), math.sin(s)):
        raise ValueError("start direction not admitted by the field")

    cols = _advance_batch(field, x[None, :], np.array([s]),
                          np.array([float(t0)]), T)
    _, bt, bx, bs = _breakpoints(cols)
    return Trajectory(t_minus=t0, t_plus=float(cols["death_t"][0]),
                      breakpoints=[(float(a), b, float(c))
                                   for a, b, c in zip(bt, bx, bs)],
                      mu=float(cols["mu_total"][0]),
                      termination=_TERMINATIONS[cols["termination"][0]])


# -- ensemble specification ----------------------------------------------


def domain_diameter(curve: BoundaryCurve) -> float:
    s = np.linspace(0.0, curve.perimeter, 512, endpoint=False)
    gx, gy = curve.point(s).T
    dx, dy = gx[:, None] - gx[None, :], gy[:, None] - gy[None, :]
    return float(np.sqrt((dx * dx + dy * dy).max()))


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
    m, _ = eval_many(field, pts)
    inward = np.arctan2(tau[:, 1], tau[:, 0]) + math.pi / 2
    delta = wrap_pi(np.arctan2(m[:, 1], m[:, 0]) - inward)
    lo = np.maximum(-math.pi / 2, delta - math.pi / 2)
    hi = np.minimum(math.pi / 2, delta + math.pi / 2)
    return pts, inward, lo, hi


def boundary_influx_rate(field: UnitField) -> float:
    """Total birth intensity per unit time along the boundary.

    Integrates the inward flux of admitted directions on 32-point panels;
    the direction integral is in closed form per boundary node.
    """
    nodes, weights = field.domain.quad_nodes(32)
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


# (line, spoke) pairs per block of _line_hits: each of its float planes
# (256 KB) stays in cache
_PAIRS = 2 ** 15


def _line_hits(x, d, u_end, J, star):
    """Jump-segment hits of the lines x + u d with TOL < u < u_end, as
    flat arrays (line, u, segment) ordered by line, then segment.

    Segment k of the jump table J is spoke k of the medial star; each
    (line, spoke) pair of star.spoke_pairs takes segment_ray_hits_xy on
    planes gathered per pair, elementwise, so a hit does not depend on the
    other pairs evaluated.
    """
    parts = [(np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=int))]
    r0, r1 = J.hub[0] - x[:, 0], J.hub[1] - x[:, 1]
    d0, d1, e0, e1 = d[:, 0], d[:, 1], J.e[:, 0], J.e[:, 1]
    for line, k in (star.spoke_pairs(x, d, u_end, _PAIRS) if len(J.length)
                    else ()):
        uh = segment_ray_hits_xy(r0[line], r1[line], d0[line], d1[line],
                                 e0[k], e1[k], J.length[k], TOL)
        hit = np.flatnonzero(uh < u_end[line])
        parts.append((line[hit], uh[hit], k[hit]))
    return tuple(np.concatenate(p) for p in zip(*parts))


# event column -> its empty column, which fixes the dtype and row shape: a
# reflection's curve, time, point, variation, segment and new direction,
# and a crossing's curve, time, segment and (kept) direction
_EVENT_COLUMNS = {
    "curve": np.zeros(0, dtype=int), "t": np.zeros(0), "xy": np.zeros((0, 2)),
    "mu": np.zeros(0), "seg": np.zeros(0, dtype=int), "s_out": np.zeros(0),
    "cross_curve": np.zeros(0, dtype=int), "cross_t": np.zeros(0),
    "cross_seg": np.zeros(0, dtype=int), "cross_s": np.zeros(0),
}


def _join(parts, names):
    """The named columns of the dicts parts, each concatenated in order and
    popped from its parts as it joins, so one copy of it stays live."""
    return {k: np.concatenate([p.pop(k) for p in parts]) for k in names}


def _advance_batch(field: UnitField, X, S, T0, T) -> dict:
    """Trace a batch of curves from points X, directions S and times T0
    to the horizon T, one lockstep step per straight line.

    A crossing keeps the direction s, and whether a hit crosses depends
    only on the segment, the side and s, so all hits of a line are known
    from the point where it starts.  Each step takes the alive curves'
    lines (from their birth or last reflection), their boundary exits
    (ray_exit) and the horizon, and their hits among the spokes of their
    runs (_line_hits).  It runs each line to its first hit that reflects
    or lies within TOL of the hub, where all segments meet, or else to the
    exit or the horizon.  The crossings before that point are recorded;
    only reflected curves take another step.

    Returns the named per-curve columns start_x, start_s and birth_t (the
    inputs), mu_total, death_t, termination (0 horizon, 1 boundary, 2
    hub), end_x and end_s, and under 'events' the batch's reflections and
    crossings as the columns of _EVENT_COLUMNS, 'curve' and 'cross_curve'
    indexing the batch.  Each event is recorded once; each step adds its
    reflections by curve, then its crossings by curve and segment.
    """
    x, s, t = X.copy(), S.copy(), T0.copy()
    J = field._jump_table
    # a hit's far-side trace: row k on side +, row nseg + k on side -
    far_x, far_y = np.concatenate([J.m_minus, J.m_plus]).T
    mu, term = np.zeros(len(s)), np.zeros(len(s), dtype=np.int8)
    steps = []  # each step's events as _EVENT_COLUMNS parts
    idx = np.arange(len(s))  # the alive curves

    for _ in range(200_000):
        if not len(idx):
            break
        x0, s0, t0 = x[idx], s[idx], t[idx]
        d = np.stack([np.cos(s0), np.sin(s0)], axis=-1)
        u_exit = field.domain.ray_exit(x0, d, tol=TOL)
        u_cap = T - t0
        u = np.minimum(u_exit, u_cap)
        line, uh, k = _line_hits(x0, d, u, J, field.domain.medial_star)
        c, sn = d[:, 0][line], d[:, 1][line]
        hx = x0[:, 0][line] + uh * c
        hy = x0[:, 1][line] + uh * sn
        f = k + len(J.length) * ~_into_left(J, k, c, sn)
        crossed = _admits(far_x[f], far_y[f], c, sn)
        at_hub = np.hypot(hx - J.hub[0], hy - J.hub[1]) < TOL

        # each line's first hit (least u, then least segment) that stops
        # it; the hits before it cross
        stops = np.flatnonzero(~crossed | at_hub)
        stops = stops[np.lexsort((uh[stops], line[stops]))]
        stopped, first = np.unique(line[stops], return_index=True)
        stops = stops[first]
        u[stopped] = uh[stops]
        cc = np.flatnonzero(uh < u[line])
        x[idx] = x0 + u[:, None] * d
        t[idx] = t0 + u

        # what each line ends on: the horizon (0), the boundary (1), the
        # hub (2) or a reflection (-1; the curve takes another step)
        code = np.where(u_cap <= u_exit, 0, 1).astype(np.int8)
        code[stopped] = np.where(at_hub[stops], 2, -1)
        term[idx] = code
        rr = stops[~at_hub[stops]]
        ii = idx[line[rr]]
        s_new, dmu, _ = jump_rule(J.theta[k[rr]], np.stack(
            [far_x[f[rr]], far_y[f[rr]]], axis=-1), s[ii])
        mu[ii] += dmu
        s[ii] = s_new
        steps.append(dict(
            curve=ii, t=t[ii], xy=x[ii], mu=dmu, seg=k[rr], s_out=s_new,
            cross_curve=idx[line[cc]], cross_t=t0[line[cc]] + uh[cc],
            cross_seg=k[cc], cross_s=s0[line[cc]]))
        idx = ii
    else:
        raise RuntimeError("runaway batch: event cap exceeded")
    return dict(start_x=X, start_s=S, birth_t=T0, mu_total=mu, death_t=t,
                termination=term, end_x=x, end_s=s,
                events=_join([dict(_EVENT_COLUMNS)] + steps, _EVENT_COLUMNS))


def _interior_starts(field: UnitField, count, rng):
    x0, x1, y0, y1 = field.domain.bbox()
    out_x, out_s = np.empty((0, 2)), np.empty(0)
    while len(out_x) < count:
        draw = max(4096, 2 * (count - len(out_x)))
        P = np.column_stack([rng.uniform(x0, x1, draw),
                             rng.uniform(y0, y1, draw)])
        S = rng.uniform(0.0, TWO_PI, draw)
        keep = field.domain.inside(P)
        keep &= jump_distance(field, P) > TOL
        m, _ = eval_many(field, P)
        keep &= _admits(m[:, 0], m[:, 1], np.cos(S), np.sin(S))
        out_x = np.concatenate([out_x, P[keep]])
        out_s = np.concatenate([out_s, S[keep]])
    return out_x[:count], out_s[:count]


def _birth_table(field: UnitField):
    """Cumulative influx-rate table over 8192 boundary parameters."""
    sb = np.linspace(0.0, field.domain.perimeter, 8192, endpoint=False)
    _, _, lo, hi = _influx_at(field, sb)
    dens = np.clip(np.sin(hi) - np.sin(lo), 0.0, None)
    h = field.domain.perimeter / 8192
    cum = np.concatenate([[0.0], np.cumsum(dens) * h])
    return sb, dens, cum


def _boundary_starts(field: UnitField, count, T, rng, table):
    sb_grid, dens, cum = table
    total = cum[-1]
    h = sb_grid[1] - sb_grid[0]
    u = rng.uniform(0.0, total, count)
    order = np.argsort(u)  # sorted draws search the table in one sweep
    j = np.empty(count, dtype=int)
    j[order] = np.searchsorted(cum, u[order], side="right") - 1
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


def _breakpoints(curves: dict):
    """Breakpoint rows (offsets, t, x, s) of _advance_batch's columns: per
    curve its birth, its reflections in time order, then its end state.

    A curve's direction changes only at reflections, so these rows are its
    polyline.  The engine records a curve's reflections in time order, so
    a stable sort on the curve alone places them: the j-th reflection of
    that order belongs to curve c and lands on row j + 2c + 1, after the
    birth and end rows of the curves before c and c's own birth.
    """
    ev = curves["events"]
    n = len(curves["birth_t"])
    order = np.argsort(ev["curve"], kind="stable")
    offsets = np.concatenate([[0], np.cumsum(
        2 + np.bincount(ev["curve"], minlength=n))])
    rows = np.arange(len(order)) + 2 * ev["curve"][order] + 1
    out = []
    for birth, event, end in (("birth_t", "t", "death_t"),
                              ("start_x", "xy", "end_x"),
                              ("start_s", "s_out", "end_s")):
        col = np.empty((offsets[-1],) + curves[birth].shape[1:])
        col[offsets[:-1]] = curves[birth]
        col[rows] = ev[event][order]
        col[offsets[1:] - 1] = curves[end]
        out.append(col)
    return (offsets, *out)


def _run_batch(job) -> dict:
    """_advance_batch's columns, plus birth_param, for the batch whose curves
    start at index first of the ensemble; its event columns index the
    ensemble's curves."""
    batch_idx, kind, first, count = job
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
    out = _advance_batch(field, X, S, T0, T)
    out["events"]["curve"] += first
    out["events"]["cross_curve"] += first
    out["birth_param"] = SB
    return out


def sample_ensemble(spec: EnsembleSpec, workers: int = 1) -> EnsembleResult:
    """Sample and trace the full weighted ensemble.

    Batches use counter-based streams keyed (seed, batch index) and are
    concatenated in batch order, so the result does not depend on
    `workers`.  Each batch's per-curve and event columns are joined by
    name, and the breakpoint rows are built once from the joined births,
    reflection events and end states.
    """
    if workers < 1:
        raise ValueError("need workers >= 1")
    field = spec.field
    T = spec.horizon
    rate = boundary_influx_rate(field)
    n_int = spec.interior_count
    w_int = em_mass(field) / n_int if n_int else 0.0

    n_b = 0
    if spec.boundary_rate > 0:
        rng0 = np.random.Generator(np.random.Philox(
            key=np.array([spec.seed, 2 ** 40], dtype=np.uint64)))
        n_b = int(rng0.poisson(spec.boundary_rate * rate * T))
    w_b = 1.0 / spec.boundary_rate if spec.boundary_rate > 0 else 0.0
    table = _birth_table(field) if n_b else None

    # (kind, first curve, count) per batch, interior batches first; an
    # empty ensemble runs one empty batch, which types its columns
    jobs = [(0, first, min(BATCH, n_int - first))
            for first in range(0, n_int, BATCH)]
    jobs += [(1, n_int + done, min(BATCH, n_b - done))
             for done in range(0, n_b, BATCH)]
    jobs = [(i,) + job for i, job in enumerate(jobs or [(0, 0, 0)])]

    if workers > 1 and len(jobs) > 1:
        ctx = mp.get_context("fork")
        with ctx.Pool(workers, initializer=_pool_init,
                      initargs=(field, T, spec.seed, table)) as pool:
            outs = pool.map(_run_batch, jobs)
    else:
        _pool_init(field, T, spec.seed, table)
        outs = [_run_batch(j) for j in jobs]

    cols = _join(outs, [k for k in outs[0] if k != "events"])
    cols["events"] = _join([o["events"] for o in outs], _EVENT_COLUMNS)
    offsets, bt, bx, bs = _breakpoints(cols)
    return EnsembleResult(
        spec=spec, weights=np.repeat([w_int, w_b], [n_int, n_b]),
        birth_t=cols["birth_t"], death_t=cols["death_t"],
        mu_total=cols["mu_total"], termination=cols["termination"],
        start_x=cols["start_x"], start_s=cols["start_s"],
        birth_param=cols["birth_param"], events=cols["events"],
        bp_offsets=offsets, bp_t=bt, bp_x=bx, bp_s=bs,
        n_interior=n_int, influx_rate=rate)


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


def exact_bin_masses(field: UnitField, nx: int, ny: int, ns: int) -> np.ndarray:
    """Masses of 1_{E_m} dx ds on an (nx, ny, ns) grid over the bbox."""
    sub = 4  # samples per cell side
    x0, x1, y0, y1 = field.domain.bbox()
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
    hs = TWO_PI / ns
    fx = x0 + hx * (np.arange(nx * sub) + 0.5) / sub
    fy = y0 + hy * (np.arange(ny * sub) + 0.5) / sub
    P = np.stack(np.meshgrid(fx, fy, indexing="ij"), axis=-1).reshape(-1, 2)
    inside = field.domain.inside(P)
    m, _ = eval_many(field, P)
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


def influx_check(result: EnsembleResult, bins: Tuple[int, int] = (16, 16)) -> float:
    """TV distance between the empirical birth law over (boundary
    parameter, direction) and the exact influx density."""
    sub = 16  # samples per boundary bin
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
    standard error is closed-form.  Each c sums its curve's rows in time
    order and the rate sums the c, so neither depends on the row order.
    The interior starts are a fixed count n_i of draws and enter as
    n_i * var(c).  The boundary births come in a Poisson number with mean
    lambda (sample_ensemble draws the count), and a compound Poisson sum
    has variance lambda * E[c^2], so they enter as the unbiased estimate
    sum(c^2): the spread of their count is part of the error, and n * var
    over the pooled curves would leave it out.  On the rounded N-gons the
    two forms differ by 0.2-3% of the error.
    """
    T = result.spec.horizon
    burn = min(math.pi, T / 3.0) if burn_in is None else burn_in
    if burn >= T:
        raise ValueError("empty averaging window")
    ev = result.events
    keep = ev["t"] >= burn
    if region is not None:
        keep &= region(ev["xy"])
    t, curves, mu = (ev[k][keep] for k in ("t", "curve", "mu"))
    order = np.lexsort((t, curves))
    per_curve = np.bincount(curves[order], weights=mu[order],
                            minlength=result.n_curves)
    window = T - burn
    contrib = per_curve * result.weights / window
    rate = float(np.sum(contrib))
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
    # what leaves the segment, reflected or crossed, by the side it enters
    sel_r = ev["seg"] == seg_index
    sel_c = ev["cross_seg"] == seg_index
    s_all = np.concatenate([ev["s_out"][sel_r], ev["cross_s"][sel_c]])
    w_all = np.concatenate([result.weights[ev["curve"][sel_r]],
                            result.weights[ev["cross_curve"][sel_c]]])
    left = _into_left(field._jump_table, seg_index, np.cos(s_all),
                      np.sin(s_all))
    worst = 0.0
    for side, pick, m_side in ((1.0, left, seg.m_minus),
                               (-1.0, ~left, seg.m_plus)):
        s_out, w_out = s_all[pick], w_all[pick]
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
