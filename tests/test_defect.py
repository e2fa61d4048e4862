import math

import numpy as np
import pytest

from eikstab.geometry import (
    Disk,
    make_circle,
    make_ellipse,
    make_rounded_ngon,
    max_inscribed_disk,
    ngon_scale,
    parse_curve_spec,
    rounded_ngon_side_midpoints,
    rounded_ngon_vertex_params,
    star_region,
)
from eikstab import defect
from eikstab.defect import (
    _STENCIL_BLOCK,
    _objective,
    _search,
    defect_a,
    defect_batch,
    incircle_candidate,
    integral_a2,
    lipschitz_probe,
)
from _oracles import brute_defect, brute_objective_at, certified_defect

TWO_PI = 2.0 * math.pi


def _random_triples(rng, n, min_gap=0.05):
    out = []
    while len(out) < n:
        t = np.sort(rng.random(3) * TWO_PI)
        if min(np.diff(t).min(), TWO_PI - (t[2] - t[0])) > min_gap:
            out.append(t)
    return np.array(out)


@pytest.fixture(scope="module")
def ellipse13():
    c = make_ellipse(1.3)
    return c, max_inscribed_disk(c)


@pytest.fixture(scope="module")
def ngon6():
    c = make_rounded_ngon(6)
    return c, max_inscribed_disk(c)


def test_disk_defect_vanishes():
    c = make_circle()
    d = max_inscribed_disk(c)
    rng = np.random.default_rng(3)
    for t in _random_triples(rng, 30):
        assert defect_a(c, d, t).a <= 1e-6


def test_degenerate_triple_rejected(ngon6):
    c, d = ngon6
    with pytest.raises(ValueError):
        defect_a(c, d, (1.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        defect_a(c, d, (0.5, 0.5 + 5e-7, 2.0))


def test_symmetric_arc_triple_closed_form():
    # three points on arcs 120 degrees apart, each at angular offset chi
    # inside its arc window: the concurrent point is the center and
    # a = sin(chi/2) exactly (margin sin(chi/2) vs arc excess pi/3)
    for n, ks, chi in ((6, (0, 2, 4), math.pi / 8),
                       (6, (0, 2, 4), math.pi / 12),
                       (9, (0, 3, 6), math.pi / 10)):
        g = make_rounded_ngon(n)
        d = max_inscribed_disk(g)
        vps = rounded_ngon_vertex_params(g)
        r_arc = ngon_scale(n) / 2.0
        trip = np.array([vps[k] + r_arc * chi for k in ks])
        res = defect_a(g, d, trip)
        assert abs(res.a - math.sin(chi / 2.0)) < 1e-9
        # oracle is converged here (the max sits at the grid-exact center)
        orc = brute_defect(g.point(trip), g.tangent(trip), d.center_xy, d.radius)
        assert abs(res.a - orc) < 1e-4


def test_certified_oracle_brackets_closed_form():
    # the branch-and-bound interval holds the exact a = sin(chi/2) of the
    # symmetric arc triples and closes to 1e-6; on the circle, where the
    # defect vanishes, its upper end is within 1e-6 of 0
    for n, ks, chi in ((6, (0, 2, 4), math.pi / 8),
                       (6, (0, 2, 4), math.pi / 12),
                       (9, (0, 3, 6), math.pi / 10)):
        g = make_rounded_ngon(n)
        d = max_inscribed_disk(g)
        vps = rounded_ngon_vertex_params(g)
        trip = np.array([vps[k] + ngon_scale(n) / 2.0 * chi for k in ks])
        lo, hi = certified_defect(g.point(trip), g.tangent(trip),
                                  d.center_xy, d.radius)
        assert lo <= math.sin(chi / 2.0) <= hi
        assert hi - lo <= 1e-6
    c = make_circle()
    d = max_inscribed_disk(c)
    for t in _random_triples(np.random.default_rng(3), 5):
        lo, hi = certified_defect(c.point(t), c.tangent(t), d.center_xy, d.radius)
        assert 0.0 <= lo <= hi <= 1e-6


def test_alternating_side_midpoints_exactly_zero(ngon6):
    # side-midpoint normals all pass through the center, and tilting the
    # concurrent point trades the margin against the arc excess exactly,
    # so this triple has zero defect; the exhaustive oracle agrees
    c, d = ngon6
    mids = rounded_ngon_side_midpoints(c)
    trip = np.array([mids[0], mids[2], mids[4]])
    res = defect_a(c, d, trip)
    orc = brute_defect(c.point(trip), c.tangent(trip), d.center_xy, d.radius)
    assert res.a <= 1e-9
    assert orc <= 1e-9


def test_ellipse_triple_matches_oracle(ellipse13):
    c, d = ellipse13
    trip = np.array([0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0])
    res = defect_a(c, d, trip)
    orc = brute_defect(c.point(trip), c.tangent(trip), d.center_xy, d.radius)
    assert abs(res.a - orc) < 1e-4


def test_certified_oracle_stops_when_no_cell_meets_disk(ellipse13):
    # every child cell of a level falls outside the disk here; the search
    # must stop with hi = max(lo, hi_dropped) instead of reducing an empty
    # cell set
    c, d = ellipse13
    t = np.array([0.697582, 0.210834, 3.316632])
    lo, hi = certified_defect(c.point(t), c.tangent(t), d.center_xy, d.radius)
    assert 0.0709632 <= lo <= hi <= 0.0709640
    assert defect_a(c, d, t).a <= hi + 1e-12


def test_defect_dominates_oracle_and_is_certified(ellipse13, ngon6):
    # grid+polish never loses to the exhaustive grid, and the reported
    # value is attained by the objective at the reported z0
    rng = np.random.default_rng(42)
    for curve, disk in (ellipse13, ngon6):
        for t in _random_triples(rng, 5):
            res = defect_a(curve, disk, t)
            X, T = curve.point(t), curve.tangent(t)
            orc = brute_defect(X, T, disk.center_xy, disk.radius)
            assert res.a >= orc - 1e-9
            assert res.a <= math.pi + 1e-9
            assert np.hypot(*(res.z0 - disk.center_xy)) <= disk.radius / 2 + 1e-9
            if res.a > 0:
                assert abs(brute_objective_at(X, T, res.z0) - res.a) < 1e-9


def test_result_conditions(ngon6):
    c, d = ngon6
    vps = rounded_ngon_vertex_params(c)
    r_arc = ngon_scale(6) / 2.0
    trip = np.array([vps[k] + r_arc * math.pi / 8 for k in (0, 2, 4)])
    res = defect_a(c, d, trip)
    assert res.a > 0.1
    X, T = c.point(trip), c.tangent(trip)
    e = np.column_stack([np.cos(res.alphas), np.sin(res.alphas)])
    # direction constraint with margin a
    assert np.max(np.sum(T * e, axis=1)) <= -res.a + 1e-9
    # the three lines pass through z0
    v = res.z0 - X
    assert np.max(np.abs(v[:, 0] * e[:, 1] - v[:, 1] * e[:, 0])) < 1e-9
    # covering-arc condition caps a
    al = np.sort(res.alphas)
    gaps = np.array([al[1] - al[0], al[2] - al[1], TWO_PI - (al[2] - al[0])])
    l = TWO_PI - gaps.max()
    assert res.a <= max(l - math.pi, 0.0) + 1e-9


def test_permutation_invariance(ngon6):
    c, d = ngon6
    trip = np.array([0.7, 2.9, 4.8])
    base = defect_a(c, d, trip).a
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        assert abs(defect_a(c, d, trip[list(perm)]).a - base) < 1e-9


def test_rigid_motion_invariance():
    base_curve = make_rounded_ngon(6)
    moved = make_rounded_ngon(6, rotation=0.4, center=(0.3, -0.2))
    db, dm = max_inscribed_disk(base_curve), max_inscribed_disk(moved)
    for trip in (np.array([0.7, 2.9, 4.8]), np.array([0.3, 1.2, 3.3])):
        a0 = defect_a(base_curve, db, trip).a
        a1 = defect_a(moved, dm, trip).a
        assert abs(a0 - a1) < 1e-9


def test_incircle_circle_concurrent():
    c = make_circle()
    center, radius = incircle_candidate(c, (0.3, 2.1, 4.4))
    assert radius == 0.0
    assert np.hypot(*center) < 1e-9


def test_incircle_ellipse_defining_property(ellipse13):
    c, _ = ellipse13
    trip = np.array([0.4, 2.3, 4.1])
    center, radius = incircle_candidate(c, trip)
    assert radius > 1e-3
    X, N = c.point(trip), c.normal(trip)
    # equidistant from all three normal lines
    for k in range(3):
        perp = np.array([-N[k, 1], N[k, 0]])
        assert abs(abs(np.dot(center - X[k], perp)) - radius) < 1e-9


def test_incircle_parallel_normals(ngon6):
    c, _ = ngon6
    mids = rounded_ngon_side_midpoints(c)
    seg_half = ngon_scale(6) * 0.5 * 0.4
    # two points on the same flat side have parallel normal lines
    center, radius = incircle_candidate(
        c, (mids[0] - seg_half, mids[0] + seg_half, mids[3]))
    assert radius == 0.0
    assert np.isfinite(center).all()


def test_incircle_candidate_dominated(ellipse13):
    c, d = ellipse13
    rng = np.random.default_rng(9)
    for t in _random_triples(rng, 8):
        center, _ = incircle_candidate(c, t)
        if np.hypot(*(center - d.center_xy)) > d.radius / 2:
            continue
        res = defect_a(c, d, t)
        assert res.a >= brute_objective_at(c.point(t), c.tangent(t), center) - 1e-9


def test_batch_agrees_with_single(ellipse13, ngon6):
    rng = np.random.default_rng(5)
    for curve, disk in (ellipse13, ngon6):
        tr = _random_triples(rng, 12)
        bv = defect_batch(curve, disk, tr)
        av = np.array([defect_a(curve, disk, t).a for t in tr])
        # defect_a polishes the seeds defect_batch takes its value from, so
        # it never falls below it; both are lower bounds of the max, and a
        # few 1e-3 of slack covers the batch's shortfall at narrow peaks
        assert np.all(av >= bv - 1e-12)
        assert np.max(np.abs(bv - av)) < 5e-3
        assert np.median(np.abs(bv - av)) < 5e-4


def _ellipse_hard_cases():
    e = make_ellipse(1.3)
    er = make_ellipse(1.3, rotation=0.4, center=(0.1, 0.2))
    de, der = max_inscribed_disk(e), max_inscribed_disk(er)
    return [(e, de, np.array([0.472461, 3.041884, 6.012017])),
            (e, de, np.array([2.600107, 3.102223, 6.275476])),
            (e, de, np.array([4.294493, 5.062491, 5.407368])),
            (er, der, np.array([0.579823, 3.235101, 3.638359]))]


def test_defect_a_reaches_certified_max_on_narrow_peaks():
    # triples where a search that keeps only the best grid point of each
    # sign choice stops 1e-3 to 2.5e-3 short of the certified maximum
    for curve, disk, t in _ellipse_hard_cases():
        lo, hi = certified_defect(curve.point(t), curve.tangent(t),
                                  disk.center_xy, disk.radius)
        a = defect_a(curve, disk, t).a
        assert max(abs(a - lo), abs(a - hi)) < 1e-5


def test_batch_climbs_from_all_negative_grid():
    # no seed-grid point of this triple has a positive objective; the true
    # maximum is 2.1e-3, which the refinement reaches only if it climbs
    # the unclipped (negative) objective
    curve, disk, t = _ellipse_hard_cases()[2]
    assert defect_batch(curve, disk, t[None])[0] > 0.0


def test_batch_rotation_equivariant():
    # a shift by perimeter/order rotates the triple about the disk center,
    # which the per-triple frame of defect_batch undoes; the last triple, a
    # node of the M=16 product rule, has seeds on a line through x_1 when
    # x_1 lies on a ray of the seed grid
    rng = np.random.default_rng(12)
    node = np.array([[4.0 + 1.0 / 6.0, 12.5, 8.0 + 5.0 / 6.0]]) * TWO_PI / 16
    for curve in (make_rounded_ngon(8), make_ellipse(1.3),
                  make_ellipse(1.3, rotation=0.4, center=(0.1, 0.2))):
        disk = max_inscribed_disk(curve)
        tr = np.vstack([rng.random((200, 3)) * TWO_PI, node])
        a0 = defect_batch(curve, disk, tr)
        a1 = defect_batch(curve, disk, tr + TWO_PI / curve.rotation_order)
        assert a0.max() > 0.1
        assert np.max(np.abs(a0 - a1)) < 1e-7


def _reference_objective(X, T, Z):
    # the objective over (B, G, 3, 2) arrays, with sum reductions over the
    # coordinate axis and a sort of the three line angles
    V = Z[:, :, None, :] - X[:, None, :, :]
    U = V / np.sqrt(np.sum(V * V, axis=-1))[..., None]
    d = np.sum(T[:, None, :, :] * U, axis=-1)
    alpha = np.arctan2(U[..., 1], U[..., 0]) + np.where(d > 0, math.pi, 0.0)
    a = np.sort(np.mod(alpha, TWO_PI), axis=-1)
    gap = np.maximum(np.maximum(a[..., 1] - a[..., 0], a[..., 2] - a[..., 1]),
                     TWO_PI - (a[..., 2] - a[..., 0]))
    value = np.minimum(np.min(np.abs(d), axis=-1), TWO_PI - gap - math.pi)
    return value, d, np.mod(alpha, TWO_PI)


def test_objective_kernel_bits_match_reference():
    rng = np.random.default_rng(41)
    B, G = 64, 300
    X = rng.uniform(-1.0, 1.0, (B, 3, 2))
    T = rng.standard_normal((B, 3, 2))
    T /= np.hypot(T[..., 0], T[..., 1])[..., None]
    # edge cases on the first triple: x_1 at the origin with tangent
    # (-0.8, 0.6), so z0 = (-1, 0) sends u_1 to angle pi with d > 0 (the
    # flipped angle is 2pi, taken mod 2pi to 0), z0 = (0.6, 0.8) makes
    # d = 0 exactly, and z0 = (1, -0.0) gives the angle -0.0
    X[0, 0], T[0, 0] = (0.0, 0.0), (-0.8, 0.6)
    Z = rng.uniform(-0.6, 0.6, (B, G, 2))
    Z[0, :3] = [(-1.0, 0.0), (0.6, 0.8), (1.0, -0.0)]
    for zz in (Z, Z[:1]):       # per-triple grids and one shared grid
        value, d, alpha = _objective(X, T, zz[..., 0], zz[..., 1])
        ref_value, ref_d, ref_alpha = _reference_objective(X, T, zz)
        d, alpha = np.stack(d, axis=-1), np.stack(alpha, axis=-1)
        assert (d > 0).any() and (d < 0).any() and (d[0, 1] == 0).any()
        assert alpha[0, 0, 0] == 0.0 and not np.signbit(alpha[0, 2, 0])
        assert np.array_equal(value, ref_value)
        assert np.array_equal(d, ref_d)
        assert np.array_equal(alpha, ref_alpha)
        assert np.array_equal(np.signbit(alpha), np.signbit(ref_alpha))


@pytest.mark.parametrize("curve", [make_rounded_ngon(8), make_rounded_ngon(16),
                                   make_ellipse(1.3)], ids=lambda c: c.spec)
def test_batch_independent_of_block_split(curve):
    # the seed grid and the stencil are scored in fixed blocks of triples;
    # a batch split at other places, some across a block boundary, gives
    # the same bits, seed values and z0 included
    disk = max_inscribed_disk(curve)
    tr = np.random.default_rng(31).random((512, 3)) * TWO_PI
    assert len(tr) > 2 * _STENCIL_BLOCK
    whole = defect_batch(curve, disk, tr)
    edges = np.cumsum([0, 1, 31, 33, 447])
    parts = [defect_batch(curve, disk, tr[lo:hi])
             for lo, hi in zip(edges[:-1], edges[1:])]
    assert np.array_equal(whole, np.concatenate(parts))
    vals, z0 = _search(curve, disk, tr)
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, z = _search(curve, disk, tr[lo:hi])
        assert np.array_equal(v, vals[lo:hi]) and np.array_equal(z, z0[lo:hi])


def _product_triples(M, n_first):
    # integral_a2's product rule on a 2pi perimeter, first node in the
    # first n_first cells, in its order (third node fastest)
    h = TWO_PI / M
    nodes = [(np.arange(n) + ph) * h
             for n, ph in ((n_first, 1.0 / 6.0), (M, 0.5), (M, 5.0 / 6.0))]
    return np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1).reshape(-1, 3)


def _mixed_triples():
    # 32 triples with one second node: 16 first nodes, two triples each,
    # which share their first node (and so their frame) but not the third;
    # triples with different first nodes share x_2's point, not its frame row
    rng = np.random.default_rng(5)
    first = np.repeat(rng.random(16) * 2.0 + 0.5, 2)
    third = rng.random(32) * 2.0 + 3.5
    return np.column_stack([first, np.full(32, 3.0), third])


def _reference_seed_grid(X, T, gx, gy, n_seeds):
    # one triple at a time on _objective, whose kernel is pinned above,
    # and the top n_seeds of a full stable argsort.  It agrees with the
    # partition only where no tie of grid values spans the cut (on the
    # circle's product set some do), so the batches below have none
    out = np.empty((3, len(X), n_seeds))
    for b in range(len(X)):
        vals = _objective(X[b:b + 1], T[b:b + 1], gx[None], gy[None])[0][0]
        top = np.argsort(vals, kind="stable")[-n_seeds:]
        out[:, b] = gx[top], gy[top], vals[top]
    return tuple(out)


@pytest.mark.parametrize("spec, triples", [
    ("rounded_ngon:n=8", _product_triples(16, 2)),      # the benchmark's batch
    ("rounded_ngon:n=8", _product_triples(24, 3)[:1000]),
    ("ellipse:aspect=1.3", _product_triples(12, 6)),
    ("rounded_ngon:n=8", np.random.default_rng(8).random((300, 3)) * TWO_PI),
    ("rounded_ngon:n=8", _mixed_triples()),
    ("ellipse:aspect=1.3", _mixed_triples()),
], ids=["ngon8-M16", "ngon8-M24", "ellipse-M12", "random", "mixed-ngon8",
        "mixed-ellipse"])
def test_seed_grid_bits_match_per_triple_reference(monkeypatch, spec, triples):
    # the shared plane table gives every triple the seeds (and so the
    # refined values and z0) of scoring it alone
    curve = parse_curve_spec(spec)
    disk = max_inscribed_disk(curve)
    vals, z0 = _search(curve, disk, triples)
    monkeypatch.setattr(defect, "_seed_grid", _reference_seed_grid)
    ref_vals, ref_z0 = _search(curve, disk, triples)
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(z0, ref_z0)


def _seed_rows_scored(fn):
    # rows of _point_planes calls on the shared 1617-point seed grid
    rows = []
    point_planes = defect._point_planes

    def counted(P, T, zx, zy):
        if zx.shape == (1, 33 * 49):
            rows.append(len(P))
        return point_planes(P, T, zx, zy)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(defect, "_point_planes", counted)
        fn()
    return sum(rows)


def test_seed_grid_scores_each_distinct_row_once():
    # the benchmark's batch: 512 triples, 1536 (triple, point) rows, of
    # which 66 are distinct; the table starts afresh once within it
    curve = make_rounded_ngon(8)
    disk = max_inscribed_disk(curve)
    assert 66 <= _seed_rows_scored(lambda: integral_a2(curve, disk, M=16)) <= 80
    # random triples repeat no row: each is scored once, no more
    tr = np.random.default_rng(9).random((200, 3)) * TWO_PI
    assert _seed_rows_scored(lambda: _search(curve, disk, tr)) == 3 * len(tr)


def _full_product_sum(curve, disk, M):
    # every one of the M^3 product triples, nodes at phases 1/6, 1/2, 5/6
    h = TWO_PI / M
    nodes = [(np.arange(M) + ph) * h for ph in (1.0 / 6.0, 0.5, 5.0 / 6.0)]
    tr = np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1).reshape(-1, 3)
    a = defect_batch(curve, disk, tr)
    return float(np.sum(a * a)) * h**3


def test_integral_symmetry_block_equals_full_sum():
    for curve, g in ((make_rounded_ngon(8), 8), (make_ellipse(1.3), 2)):
        disk = max_inscribed_disk(curve)
        r = integral_a2(curve, disk, M=8)
        assert r.symmetry_order == g
        assert r.n_evals == 8**3 // g
        full = _full_product_sum(curve, disk, 8)
        assert abs(r.value - full) <= 1e-8 * full


def test_integral_symmetry_falls_back_to_full_rule(ngon6):
    # 9 nodes share no factor with the 8-gon's order or the ellipse's
    for curve in (make_rounded_ngon(8), make_ellipse(1.3)):
        r = integral_a2(curve, max_inscribed_disk(curve), M=9)
        assert (r.symmetry_order, r.n_evals) == (1, 9**3)
    # 8 nodes share the factor 2 with the 6-gon's order
    c, d = ngon6
    assert integral_a2(c, d, M=8).symmetry_order == 2
    # a star region has no rotation symmetry of its own
    r = integral_a2(c, d, region=star_region(c, d, 0.03), M=8)
    assert (r.symmetry_order, r.n_evals) == (1, 8**3)
    # nor does a disk off the symmetry center
    r = integral_a2(c, Disk(center=(1e-3, 0.0), radius=d.radius), M=8)
    assert (r.symmetry_order, r.n_evals) == (1, 8**3)


def test_integral_circle_zero():
    c = make_circle()
    d = max_inscribed_disk(c)
    r = integral_a2(c, d, M=16)
    assert r.value <= 1e-10
    assert r.mode == "tensor"
    assert r.n_evals == 16**3
    assert r.symmetry_order == 1


def test_integral_weights_sum(ngon6):
    c, d = ngon6
    r = integral_a2(c, d, M=8)
    assert abs(r.grid.total_weight - TWO_PI**3) < 1e-9
    sr = star_region(c, d, 0.03)
    r2 = integral_a2(c, d, region=sr, M=8)
    assert abs(r2.grid.total_weight - sr.total_length**3) < 1e-9


def test_integral_region_monotone(ngon6):
    c, d = ngon6
    sr = star_region(c, d, 0.03)
    assert not sr.covers_full_boundary(tol=1e-6)
    full = integral_a2(c, d, M=16)
    part = integral_a2(c, d, region=sr, M=16)
    assert part.value <= full.value * (1.0 + 1e-6)


def test_integral_mc_deterministic(ngon6):
    c, d = ngon6
    r1 = integral_a2(c, d, mc_samples=2000, seed=17)
    r2 = integral_a2(c, d, mc_samples=2000, seed=17)
    r3 = integral_a2(c, d, mc_samples=2000, seed=17, batch=137)
    assert r1.value == r2.value == r3.value
    assert r1.standard_error == r3.standard_error
    r4 = integral_a2(c, d, mc_samples=2000, seed=18)
    assert r4.value != r1.value


def test_integral_tensor_close_to_mc_moderate_n():
    # the product rule holds its nodes a cell-third off the diagonal where
    # a is small, so it overshoots slightly; at moderate sample counts the
    # gap stays within sampling noise (the bias is measured in the notes)
    g8 = make_rounded_ngon(8)
    d8 = max_inscribed_disk(g8)
    rt = integral_a2(g8, d8, M=24)
    rm = integral_a2(g8, d8, mc_samples=30000, seed=11)
    assert abs(rt.value - rm.value) <= 3.5 * rm.standard_error


def test_integral_m_self_consistency():
    e = make_ellipse(1.2)
    d = max_inscribed_disk(e)
    v24 = integral_a2(e, d, M=24).value
    v32 = integral_a2(e, d, M=32).value
    assert abs(v24 - v32) / v32 < 0.02


def test_integral_ngon_slope():
    vals = []
    for n in (8, 16, 32):
        g = make_rounded_ngon(n)
        vals.append(integral_a2(g, max_inscribed_disk(g), M=24).value)
    slope = np.polyfit(np.log([8.0, 16.0, 32.0]), np.log(vals), 1)[0]
    assert abs(slope + 2.0) < 0.3


def test_lipschitz_probe(ngon6):
    c, d = ngon6
    circle = make_circle()
    dc = max_inscribed_disk(circle)
    assert lipschitz_probe(circle, dc, pairs=200, seed=1) <= 1e-4
    ratio = lipschitz_probe(c, d, pairs=1000, seed=1)
    assert ratio <= 50.0 * c.curvature_bound
    assert ratio == lipschitz_probe(c, d, pairs=1000, seed=1)
    with pytest.raises(ValueError):
        lipschitz_probe(c, d, pairs=50)


def test_finite_difference_ratio_stabilizes(ngon6):
    c, d = ngon6
    trip = np.array([0.7, 2.9, 4.8])
    base = defect_a(c, d, trip).a
    ratios = []
    for h in (1e-2, 1e-3):
        pert = defect_a(c, d, trip + np.array([h, 0.0, 0.0])).a
        ratios.append(abs(pert - base) / h)
    assert ratios[1] > 0.0
    assert 0.5 < ratios[0] / ratios[1] < 2.0
