import math

import numpy as np
import pytest

from eikstab.fields import distgrad_field, vortex
from eikstab.geometry import make_circle, make_ellipse, make_rounded_ngon, ngon_scale
from eikstab.kinetic import nu_total, wall_cost_ars
from eikstab import lagrangian as lag
from _oracles import trace_reference

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def disk_vortex():
    return vortex(make_circle(), (0.0, 0.0), -1)


@pytest.fixture(scope="module")
def ngon8_field():
    return distgrad_field(make_rounded_ngon(8))


# -- jump rule -------------------------------------------------------------


def test_jump_rule_reflection_arithmetic():
    # vertical tangent, half-angle pi/6; a hit 0.1 inside the forbidden
    # band reflects to the mirror angle and pays 0.2 of variation
    X = math.pi / 6
    m_far = np.array([math.cos(X), math.sin(X)])
    s = -math.pi / 2 + 0.1
    s_new, mu, crossed = lag.jump_rule(math.pi / 2, m_far, s)
    assert not crossed
    assert abs(mu - 0.2) < 1e-12
    assert abs(lag.circ_dist(s_new, -math.pi / 2 - 0.1)) < 1e-12


def test_jump_rule_crossing_free():
    X = math.pi / 6
    m_far = np.array([math.cos(X), math.sin(X)])
    s_new, mu, crossed = lag.jump_rule(math.pi / 2, m_far, 0.3)
    assert crossed
    assert mu == 0.0
    assert s_new == 0.3


# -- scalar tracer ---------------------------------------------------------


def test_vortex_chords_never_reflect(disk_vortex):
    rng = np.random.default_rng(4)
    n_done = 0
    while n_done < 10_000:
        x = rng.uniform(-1, 1, 2)
        if np.hypot(*x) > 0.97 or np.hypot(*x) < 1e-3:
            continue
        s = rng.uniform(0, TWO_PI)
        m = np.array([x[1], -x[0]]) / np.hypot(*x)
        if m @ [math.cos(s), math.sin(s)] <= 1e-12:
            continue
        tr = lag.trace(disk_vortex, x, s, T=10.0)
        assert tr.mu == 0.0
        assert tr.termination == "boundary"
        assert len(tr.breakpoints) == 2
        n_done += 1


def test_trace_breakpoint_invariants(ngon8_field):
    rng = np.random.default_rng(9)
    seen_reflection = False
    for _ in range(300):
        x = rng.uniform(-0.7, 0.7, 2)
        if not ngon8_field.domain.inside(x[None])[0]:
            continue
        from eikstab.fields import jump_distance, field_eval
        if jump_distance(ngon8_field, x[None])[0] < 1e-6:
            continue
        s = rng.uniform(0, TWO_PI)
        m = field_eval(ngon8_field, x)
        if m @ [math.cos(s), math.sin(s)] <= 1e-9:
            continue
        tr = lag.trace(ngon8_field, x, s, T=8.0)
        bps = tr.breakpoints
        mu_sum = 0.0
        for (t0, x0, s0), (t1, x1, s1) in zip(bps[:-1], bps[1:]):
            # straight flight at unit speed between breakpoints
            d = np.array([math.cos(s0), math.sin(s0)])
            assert np.linalg.norm(x1 - (x0 + (t1 - t0) * d)) < 1e-9
            assert np.linalg.norm(x1 - x0) <= (t1 - t0) + 1e-9
            mu_sum += float(lag.circ_dist(s0, s1))
        assert abs(mu_sum - tr.mu) < 1e-9
        if tr.mu > 0:
            seen_reflection = True
        if tr.termination == "boundary":
            p = bps[-1][1]
            assert abs(ngon8_field.domain.dist_to_boundary(p[None])[0]) < 1e-7
        else:
            assert tr.t_plus == 8.0 or tr.termination == "center"
    assert seen_reflection


def test_trace_preconditions(disk_vortex, ngon8_field):
    with pytest.raises(ValueError):
        lag.trace(disk_vortex, (1.5, 0.0), 0.0)
    # admissible at (0.5, 0) for alpha=-1 means pointing lower half
    with pytest.raises(ValueError):
        lag.trace(disk_vortex, (0.5, 0.0), math.pi / 2)
    # on the jump segment of the n-gon (positive x axis)
    with pytest.raises(ValueError):
        lag.trace(ngon8_field, (0.2, 0.0), 1.0)


def test_trace_horizon_termination(disk_vortex):
    tr = lag.trace(disk_vortex, (0.5, 0.0), -math.pi / 2 + 0.3, T=0.25)
    assert tr.termination == "time-horizon"
    assert tr.t_plus == 0.25


def test_trace_center_termination(ngon8_field):
    # aim straight at the point where all jump segments meet
    for p in [(0.31, 0.155), (0.22, 0.4), (-0.35, 0.1)]:
        x = np.array(p)
        s = math.atan2(-x[1], -x[0])
        from eikstab.fields import field_eval
        if field_eval(ngon8_field, x) @ [math.cos(s), math.sin(s)] <= 1e-9:
            continue
        tr = lag.trace(ngon8_field, x, s, T=8.0)
        assert tr.termination == "center"
        assert np.hypot(*tr.breakpoints[-1][1]) < 1e-8
        return
    pytest.fail("no admissible center-aimed start found")


# -- planar jump harness ---------------------------------------------------


def test_planar_rate_matches_wall_cost():
    X = math.pi / 8
    res = lag.planar_jump_rate(X, 1_000_000, seed=2)
    # the closed form equals twice the per-length wall cost: the module's
    # central cross-check against the kinetic cost density
    assert abs(res.exact - 2.0 * wall_cost_ars(2.0 * math.sin(X))) < 1e-12
    assert abs(res.rate - res.exact) / res.exact < 0.05
    assert abs(res.rate - res.exact) < 4.0 * res.standard_error
    assert res.standard_error < 0.01 * res.exact


def test_planar_rate_small_angle_cubic():
    X = 0.05
    res = lag.planar_jump_rate(X, 4_000_000, seed=5)
    cubic = (4.0 / 3.0) * X ** 3
    assert abs(res.rate - cubic) / cubic < 0.03


def test_planar_rate_domain():
    with pytest.raises(ValueError):
        lag.planar_jump_rate(0.0)
    with pytest.raises(ValueError):
        lag.planar_jump_rate(math.pi / 2)


# -- ensemble construction -------------------------------------------------


def test_spec_validation(disk_vortex):
    with pytest.raises(ValueError):
        lag.EnsembleSpec(field=disk_vortex, interior_count=-1)
    with pytest.raises(ValueError):
        lag.EnsembleSpec(field=disk_vortex, horizon=1.0)  # < diameter 2


def test_influx_rate_disk_oracle(disk_vortex):
    # independent 2D midpoint quadrature of the influx density
    nb, ns = 2048, 4096
    sb = TWO_PI * (np.arange(nb) + 0.5) / nb
    pts = disk_vortex.domain.point(sb)
    tau = disk_vortex.domain.tangent(sb)
    m = np.stack([pts[:, 1], -pts[:, 0]], axis=-1)
    s = TWO_PI * (np.arange(ns) + 0.5) / ns
    e = np.stack([np.cos(s), np.sin(s)], axis=-1)
    itau = np.stack([-tau[:, 1], tau[:, 0]], axis=-1)
    oracle = 0.0
    for i in range(0, nb, 256):
        blk = slice(i, i + 256)
        flux = np.clip(itau[blk] @ e.T, 0.0, None)
        adm = (m[blk] @ e.T) > 0.0
        oracle += float(np.sum(flux * adm))
    oracle *= (TWO_PI / nb) * (TWO_PI / ns)
    rate = lag.boundary_influx_rate(disk_vortex)
    assert abs(rate - oracle) / oracle < 1e-3
    assert abs(rate - TWO_PI) < 1e-9


def test_interior_sampler_selftest(disk_vortex):
    spec = lag.EnsembleSpec(field=disk_vortex, horizon=2.1,
                            interior_count=200_000, boundary_rate=0.0,
                            seed=12)
    res = lag.sample_ensemble(spec)
    tv = lag.representation_check(res, 1e-6, bins=(16, 16, 8))
    assert tv < 0.03
    # continuity near zero: the same curves are alive, so the value repeats
    tv2 = lag.representation_check(res, 1e-9, bins=(16, 16, 8))
    assert abs(tv - tv2) < 1e-3


def test_seed_reproducibility(disk_vortex):
    spec = lag.balanced_spec(disk_vortex, 20_000, horizon=2.1, seed=3)
    a = lag.sample_ensemble(spec)
    b = lag.sample_ensemble(spec)
    assert np.array_equal(a.start_x, b.start_x)
    assert np.array_equal(a.bp_t, b.bp_t)
    assert np.array_equal(a.mu_total, b.mu_total)
    c = lag.sample_ensemble(lag.balanced_spec(disk_vortex, 20_000,
                                              horizon=2.1, seed=4))
    assert not np.array_equal(a.start_x[:100], c.start_x[:100])


def test_worker_count_invariance(ngon8_field):
    spec = lag.balanced_spec(ngon8_field, 40_000, horizon=2.2, seed=6)
    a = lag.sample_ensemble(spec, workers=1)
    b = lag.sample_ensemble(spec, workers=3)
    assert np.array_equal(a.start_x, b.start_x)
    assert np.array_equal(a.death_t, b.death_t)
    assert np.array_equal(a.mu_total, b.mu_total)
    assert np.array_equal(a.events["t"], b.events["t"])
    assert np.array_equal(a.bp_x, b.bp_x)


def _engine_vs_reference(field, rng, T):
    from eikstab.fields import jump_distance, field_eval
    X, S = [], []
    while len(S) < 60:
        x = rng.uniform(-0.9, 0.9, 2)
        if not field.domain.inside(x[None])[0]:
            continue
        if jump_distance(field, x[None])[0] < 1e-6:
            continue
        s = rng.uniform(0, TWO_PI)
        if field_eval(field, x) @ [math.cos(s), math.sin(s)] <= 1e-9:
            continue
        X.append(x)
        S.append(s)
    X, S = np.array(X), np.array(S)
    mu, death, term, ev = lag._advance_batch(
        field, X.copy(), S.copy(), np.zeros(len(S)), T)
    names = {0: "time-horizon", 1: "boundary", 2: "center"}
    for i in range(len(S)):
        termination, t_plus, mu_ref, crossings = trace_reference(
            field, X[i], S[i], T)
        assert names[int(term[i])] == termination
        assert abs(death[i] - t_plus) < 1e-9
        assert abs(mu[i] - mu_ref) < 1e-9
        # the engine records a line's crossings by segment; compare in time
        mine = np.flatnonzero(ev["cross_curve"] == i)
        mine = mine[np.argsort(ev["cross_t"][mine])]
        assert len(mine) == len(crossings)
        for j, (t_ref, seg_ref) in zip(mine, crossings):
            assert ev["cross_seg"][j] == seg_ref
            assert abs(ev["cross_t"][j] - t_ref) < 1e-9


def test_engine_matches_scalar_trace(ngon8_field):
    # the reference takes its exits from segment_hits, not ray_exit, and
    # its jump hits one event at a time from the event point, applying the
    # crossing rule inline; the engine takes its exits from one sector on
    # the n-gons and all jump hits of a line from the line's start
    _engine_vs_reference(ngon8_field, np.random.default_rng(21), T=7.0)
    shifted = make_rounded_ngon(7, rotation=0.3, center=(0.1, -0.2))
    _engine_vs_reference(distgrad_field(shifted),
                         np.random.default_rng(23), T=7.0)
    _engine_vs_reference(distgrad_field(make_rounded_ngon(128)),
                         np.random.default_rng(24), T=7.0)
    ellipse = make_ellipse(1.3, rotation=0.4)
    _engine_vs_reference(vortex(ellipse, (0.0, 0.0), 1),
                         np.random.default_rng(22), T=7.0)


@pytest.mark.parametrize("n", [8, 32])
def test_engine_hub_aimed_batch_ends_at_hub(n):
    # a line aimed at the hub meets every spoke there, within 1e-9 of the
    # hub, whether that hit would cross or reflect: each curve ends code 2
    from eikstab.fields import eval_many, jump_distance
    field = distgrad_field(make_rounded_ngon(n))
    rng = np.random.default_rng(40 + n)
    P = rng.uniform(-0.9, 0.9, (20_000, 2))
    P = P[field.domain.inside(P) & (jump_distance(field, P) > 1e-6)]
    S = np.arctan2(-P[:, 1], -P[:, 0]) % TWO_PI
    m, _ = eval_many(field, P)
    keep = m[:, 0] * np.cos(S) + m[:, 1] * np.sin(S) > 1e-9
    X, S = P[keep][:200], S[keep][:200]
    assert len(S) >= 50
    x = X.copy()
    mu, death, term, ev = lag._advance_batch(
        field, x, S.copy(), np.zeros(len(S)), 7.0)
    assert np.all(term == 2)
    assert np.hypot(x[:, 0], x[:, 1]).max() < 1e-9
    assert np.allclose(death, np.hypot(X[:, 0], X[:, 1]), rtol=0.0, atol=1e-12)
    assert len(ev["t"]) == len(ev["cross_t"]) == 0 and not mu.any()


@pytest.mark.parametrize("n", [8, 32])
def test_engine_exits_only_new_lines(n, monkeypatch):
    # a crossing keeps a curve's line, so the engine asks ray_exit only for
    # newborn and reflected curves, once per line; a curve that exits ends
    # where that exit, from its last direction change, puts it
    field = distgrad_field(make_rounded_ngon(n))
    curve = field.domain
    asked = []
    ray_exit = curve.ray_exit

    def counted(x, d, tol=1e-12):
        asked.append(len(np.atleast_2d(x)))
        return ray_exit(x, d, tol)

    monkeypatch.setattr(curve, "ray_exit", counted)
    res = lag.sample_ensemble(lag.balanced_spec(field, 6000, seed=13))
    monkeypatch.undo()
    assert len(res.events["cross_t"]) > res.n_curves // 4
    assert sum(asked) == res.n_curves + len(res.events["t"])

    exits = np.flatnonzero(res.termination == 1)
    last = res.bp_offsets[exits + 1] - 1     # the death row
    x_end, x_last, s_last = res.bp_x[last], res.bp_x[last - 1], res.bp_s[last - 1]
    assert curve.dist_to_boundary(x_end).max() <= 1e-12
    d = np.column_stack([np.cos(s_last), np.sin(s_last)])
    fresh = x_last + curve.ray_exit(x_last, d, tol=1e-9)[:, None] * d
    assert np.abs(x_end - fresh).max() <= 4e-15


# -- representation and influx laws ---------------------------------------


def test_representation_vortex(disk_vortex):
    spec = lag.balanced_spec(disk_vortex, 200_000, horizon=2.1, seed=7)
    res = lag.sample_ensemble(spec)
    tv = lag.representation_check(res, math.pi / 2, bins=(16, 16, 8))
    assert tv < 0.05


def test_representation_ngon(ngon8_field):
    spec = lag.balanced_spec(ngon8_field, 500_000, horizon=2.2, seed=11)
    res = lag.sample_ensemble(spec)
    tv = lag.representation_check(res, math.pi / 2, bins=(16, 16, 8))
    assert tv < 0.08


def test_representation_mass_conservation(disk_vortex):
    spec = lag.balanced_spec(disk_vortex, 100_000, horizon=2.1, seed=15)
    res = lag.sample_ensemble(spec)
    target = lag.em_mass(disk_vortex)
    for t in (0.5, 1.0, 1.5):
        _, _, w, _ = lag.states_at(res, t)
        assert abs(w.sum() - target) / target < 0.02


def test_representation_errors(disk_vortex):
    spec = lag.EnsembleSpec(field=disk_vortex, horizon=2.1,
                            interior_count=2_000, boundary_rate=0.0, seed=1)
    res = lag.sample_ensemble(spec)
    with pytest.raises(ValueError):
        lag.representation_check(res, -0.5)
    with pytest.raises(ValueError):
        lag.representation_check(res, 2.1)
    with pytest.raises(ValueError):
        # all chords have length at most the diameter 2, so nothing is
        # alive this close to the horizon
        lag.representation_check(res, 2.05)


def test_influx_law(disk_vortex):
    q = 200_000 / (TWO_PI * 2.1)
    spec = lag.EnsembleSpec(field=disk_vortex, horizon=2.1,
                            interior_count=1, boundary_rate=q, seed=19)
    res = lag.sample_ensemble(spec)
    n_births = int(np.isfinite(res.birth_param).sum())
    assert abs(n_births - 200_000) < 5 * math.sqrt(200_000)
    assert lag.influx_check(res, bins=(16, 16)) < 0.05


def test_influx_law_ngon(ngon8_field):
    rate = lag.boundary_influx_rate(ngon8_field)
    q = 100_000 / (rate * 2.2)
    spec = lag.EnsembleSpec(field=ngon8_field, horizon=2.2,
                            interior_count=1, boundary_rate=q, seed=23)
    res = lag.sample_ensemble(spec)
    assert lag.influx_check(res, bins=(16, 16)) < 0.05


# -- dissipation -----------------------------------------------------------


def test_dissipation_vortex_zero(disk_vortex):
    spec = lag.balanced_spec(disk_vortex, 50_000, horizon=2.1, seed=8)
    res = lag.sample_ensemble(spec)
    est = lag.dissipation_decomposition(res, burn_in=0.5)
    assert abs(est.rate) < 1e-6
    assert est.n_events == 0


def test_dissipation_ngon_matches_nu(ngon8_field):
    spec = lag.balanced_spec(ngon8_field, 500_000, seed=13)
    res = lag.sample_ensemble(spec)
    nu = nu_total(ngon8_field, "ars_wall").nu_total
    est = lag.dissipation_decomposition(res)
    assert 0.85 < est.rate / nu < 1.15
    assert est.standard_error > 0
    assert abs(est.rate - nu) < 4 * est.standard_error

    # regional restriction: a disk meeting only the positive-x segment
    # collects that segment's share of the rate
    c, r = np.array([0.3, 0.0]), 0.15
    lam8 = ngon_scale(8)
    covered = min(c[0] + r, lam8 / 2) - max(c[0] - r, 0.0)
    share = 2.0 * covered * wall_cost_ars(2.0 * math.sin(math.pi / 8))

    def region(xy):
        return np.hypot(xy[:, 0] - c[0], xy[:, 1] - c[1]) <= r

    est_r = lag.dissipation_decomposition(res, region=region)
    assert abs(est_r.rate - share) / share < 0.2


def test_dissipation_se_matches_bootstrap(ngon8_field):
    # the closed-form error against 400 bootstrap resamples of the curves
    spec = lag.balanced_spec(ngon8_field, 50_000, seed=17)
    res = lag.sample_ensemble(spec)
    est = lag.dissipation_decomposition(res)
    per_curve = np.zeros(res.n_curves)
    keep = res.events["t"] >= est.window[0]
    np.add.at(per_curve, res.events["curve"][keep], res.events["mu"][keep])
    contrib = per_curve * res.weights / (est.window[1] - est.window[0])
    assert math.isclose(contrib.sum(), est.rate, rel_tol=1e-12)
    rng = np.random.default_rng(3)
    n = res.n_curves
    boots = [contrib[rng.integers(0, n, n)].sum() for _ in range(400)]
    assert 0.85 < est.standard_error / np.std(boots, ddof=1) < 1.15


def test_dissipation_empty_window(disk_vortex):
    spec = lag.balanced_spec(disk_vortex, 5_000, horizon=2.1, seed=2)
    res = lag.sample_ensemble(spec)
    with pytest.raises(ValueError):
        lag.dissipation_decomposition(res, burn_in=2.1)


def test_jump_flux_balance(ngon8_field):
    spec = lag.balanced_spec(ngon8_field, 300_000, seed=13)
    res = lag.sample_ensemble(spec)
    for k in (0, 3):
        assert lag.jump_flux_check(res, k, bins=16) < 0.05


def test_admissibility_after_events(ngon8_field):
    spec = lag.balanced_spec(ngon8_field, 100_000, seed=29)
    res = lag.sample_ensemble(spec)
    ev = res.events
    segs = ngon8_field.jump_set
    m_minus = np.array([s.m_minus for s in segs])
    m_plus = np.array([s.m_plus for s in segs])
    # reflections continue on the near side (opposite the attempted entry)
    near = np.where(ev["side"][:, None] < 0, m_minus[ev["seg"]],
                    m_plus[ev["seg"]])
    e_out = np.stack([np.cos(ev["s_out"]), np.sin(ev["s_out"])], axis=-1)
    assert np.min(np.sum(near * e_out, axis=1)) >= -1e-12
    # crossers continue on the entered side
    far = np.where(ev["cross_side"][:, None] > 0, m_minus[ev["cross_seg"]],
                   m_plus[ev["cross_seg"]])
    e_c = np.stack([np.cos(ev["cross_s"]), np.sin(ev["cross_s"])], axis=-1)
    assert np.min(np.sum(far * e_c, axis=1)) > 0


def test_trajectory_table(ngon8_field):
    spec = lag.balanced_spec(ngon8_field, 5_000, horizon=2.2, seed=1)
    res = lag.sample_ensemble(spec)
    tab = lag.trajectory_table(res, max_curves=100)
    assert tab.shape[1] == 5
    ids = tab[:, 0].astype(int)
    assert ids.max() == 99
    assert np.all(np.diff(ids) >= 0)
    n0 = res.bp_offsets[1] - res.bp_offsets[0]
    assert int((ids == 0).sum()) == n0


def test_breakpoints_are_birth_reflections_end(ngon8_field):
    # each curve's rows: its birth, its reflection events in time order,
    # then its end state at death_t; each reflection is stored once
    res = lag.sample_ensemble(lag.balanced_spec(ngon8_field, 4000, seed=31))
    ev, n = res.events, res.n_curves
    assert len(res.bp_t) == 2 * n + len(ev["t"])
    assert np.array_equal(np.diff(res.bp_offsets),
                          2 + np.bincount(ev["curve"], minlength=n))
    first, last = res.bp_offsets[:-1], res.bp_offsets[1:] - 1
    assert np.array_equal(res.bp_t[first], res.birth_t)
    assert np.array_equal(res.bp_x[first], res.start_x)
    assert np.array_equal(res.bp_s[first], res.start_s)
    assert np.array_equal(res.bp_t[last], res.death_t)
    inner = np.ones(len(res.bp_t), dtype=bool)
    inner[first] = inner[last] = False
    order = np.lexsort((ev["t"], ev["curve"]))
    assert np.array_equal(res.bp_t[inner], ev["t"][order])
    assert np.array_equal(res.bp_x[inner], ev["xy"][order])
    assert np.array_equal(res.bp_s[inner], ev["s_out"][order])
    curve_of_row = np.repeat(np.arange(n), np.diff(res.bp_offsets))
    same = curve_of_row[1:] == curve_of_row[:-1]
    assert np.all(np.diff(res.bp_t)[same] >= 0.0)
    assert np.allclose(np.bincount(ev["curve"], weights=ev["mu"], minlength=n),
                       res.mu_total, rtol=1e-14, atol=0.0)

    # trace() runs a batch of one curve and gives the ensemble's rows: the
    # curves with the most rows, and 200 random ones
    interior = np.flatnonzero(np.isnan(res.birth_param))
    rng = np.random.default_rng(31)
    for i in np.concatenate([
            interior[np.argsort(-np.diff(res.bp_offsets)[interior])[:5]],
            rng.choice(interior, 200, replace=False)]):
        tr = lag.trace(ngon8_field, res.start_x[i], res.start_s[i],
                       t0=res.birth_t[i], T=res.spec.horizon)
        rows = slice(res.bp_offsets[i], res.bp_offsets[i + 1])
        assert [t for t, _, _ in tr.breakpoints] == list(res.bp_t[rows])
        assert np.array_equal(np.array([x for _, x, _ in tr.breakpoints]),
                              res.bp_x[rows])
        assert [s for _, _, s in tr.breakpoints] == list(res.bp_s[rows])
        assert tr.t_plus == res.death_t[i] and tr.mu == res.mu_total[i]
        assert tr.termination == lag._TERMINATIONS[res.termination[i]]
