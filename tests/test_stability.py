"""Normal-deviation functionals, lemma checks, and sharpness sweeps."""

import math

import numpy as np
import pytest

from eikstab import fields, kinetic
from eikstab import stability as st
from eikstab.geometry import make_circle, make_ellipse, make_rounded_ngon

from _domains import dumbbell_curve


def test_circle_center_is_exact_zero():
    disk = make_circle()
    assert st.normal_deviation(disk, (0.0, 0.0)) < 1e-10
    assert st.normal_deviation(disk, (0.2, -0.1)) > 1e-3


def test_center_on_boundary_rejected():
    disk = make_circle()
    with pytest.raises(ValueError, match="boundary"):
        st.normal_deviation(disk, (1.0, 0.0))


def test_ellipse_matches_dense_sampling():
    ell = make_ellipse(1.2)
    c = ell.centroid()
    val = st.normal_deviation(ell, c)
    s = np.linspace(0.0, ell.perimeter, 1_000_000, endpoint=False)
    g = ell.point(s)
    n = ell.normal(s)
    rel = g - c
    rel /= np.linalg.norm(rel, axis=1, keepdims=True)
    oracle = float(np.sum((n - rel) ** 2, axis=1).mean() * ell.perimeter)
    assert val == pytest.approx(oracle, rel=1e-6)


def test_ngon_center_zero_slope():
    ns = [8, 16, 32, 64]
    devs = [st.normal_deviation(make_rounded_ngon(n), (0.0, 0.0)) for n in ns]
    assert all(d > 0 for d in devs)
    slope = st.fit_slope(ns, devs)
    assert slope == pytest.approx(-2.0, abs=0.15)


def test_minimizer_ordering():
    curve = make_rounded_ngon(12)
    from eikstab.geometry.circlefit import best_circle_center
    best = best_circle_center(curve)
    d_best = st.normal_deviation(curve, best)
    d_centroid = st.normal_deviation(curve, curve.centroid())
    assert d_best <= d_centroid + 1e-12
    rng = np.random.default_rng(5)
    for _ in range(6):
        probe = rng.uniform(-0.3, 0.3, size=2)
        assert d_centroid <= st.normal_deviation(curve, probe) + 1e-12


@pytest.mark.parametrize("curve", [
    *(make_rounded_ngon(n) for n in (3, 5, 8, 16, 64, 128)),
    make_rounded_ngon(7, rotation=0.25),
    *(make_ellipse(a) for a in (1.05, 1.3, 4.0)),
    make_ellipse(2.0, rotation=0.4),
], ids=lambda c: c.spec)
def test_symmetric_best_center_is_local_minimum(curve):
    # the centre of rotation is a critical point by symmetry; the Hessian is
    # a multiple of the identity only for rotation order >= 3, so on the
    # ellipse (order 2) only a probe shows it is a minimum
    from eikstab.geometry.circlefit import best_circle_center
    center = best_circle_center(curve)
    assert np.hypot(*(center - curve.centroid())) < 1e-12
    d0 = st.normal_deviation(curve, center)
    for h in (1e-2, 1e-4):
        for th in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            probe = center + h * np.array([math.cos(th), math.sin(th)])
            assert st.normal_deviation(curve, probe) > d0


def test_cauchy_schwarz_chain():
    cases = [
        (make_ellipse(1.3), (0.1, 0.05)),
        (make_rounded_ngon(8), (0.0, 0.0)),
        (make_rounded_ngon(8), (0.2, -0.1)),
        (make_circle(), (0.4, 0.3)),
    ]
    for curve, center in cases:
        l2, l1 = st._deviation_integrals(curve, center)
        assert l1 * l1 <= 2.0 * math.pi * l2 + 1e-9


def test_translation_equivariance():
    shift = np.array([0.37, -0.21])
    a = make_ellipse(1.3)
    b = make_ellipse(1.3, center=shift)
    c0 = np.array([0.08, 0.03])
    assert st.normal_deviation(a, c0) == pytest.approx(
        st.normal_deviation(b, c0 + shift), abs=1e-9)
    la = st.lemma_aux_check(a, c0)
    lb = st.lemma_aux_check(b, c0 + shift)
    assert la[0] == pytest.approx(lb[0], abs=1e-9)
    assert la[1] == pytest.approx(lb[1], abs=1e-9)


def test_lemma_aux_sweeps():
    for aspect in (1.05, 1.2, 1.5):
        ell = make_ellipse(aspect)
        lhs, rhs, ok = st.lemma_aux_check(ell, ell.centroid())
        assert ok
        assert lhs > 0 and rhs > lhs
    for n in (6, 12, 24, 48):
        lhs, rhs, ok = st.lemma_aux_check(make_rounded_ngon(n), (0.0, 0.0))
        assert ok


def test_lemma_aux_requires_star_shape():
    db = dumbbell_curve(0.1)
    with pytest.raises(ValueError, match="star"):
        st.lemma_aux_check(db, (-0.8, 0.0))


def test_disk_vortex_report_all_zero():
    disk = make_circle()
    rep = st.check_main2(disk, fields.vortex(disk, (0.0, 0.0), alpha=1))
    assert rep.lhs_normal_dev < 1e-10
    assert rep.nu_ars == 0.0 and rep.nu_cubic == 0.0
    assert rep.hausdorff < 1e-9
    assert rep.l4_deviation < 1e-12
    assert all(v == 0.0 for v in rep.ratios.values())
    assert rep.curve_id == "circle"


def test_check_main2_rejects_foreign_field():
    disk = make_circle()
    other = make_circle()
    f = fields.vortex(other, (0.0, 0.0), alpha=1)
    with pytest.raises(ValueError, match="curve"):
        st.check_main2(disk, f)


def test_check_main2_ngon_values():
    curve = make_rounded_ngon(16)
    rep = st.check_main2(curve, fields.distgrad_field(curve))
    assert abs(rep.best_center[0]) < 1e-8 and abs(rep.best_center[1]) < 1e-8
    # both sides scale like 1/n^2; the ratio settles near 1/4
    assert rep.ratios["normal_dev_over_nu_ars"] == pytest.approx(0.25, rel=0.02)
    assert rep.ratios["hausdorff_over_sqrt_nu_ars"] < 0.05
    assert rep.curve_id == "rounded_ngon:n=16"


def test_ratio_stability_and_corollary_slopes():
    ns = [16, 32, 64]
    reps = {}
    for n in ns:
        curve = make_rounded_ngon(n)
        reps[n] = st.check_main2(curve, fields.distgrad_field(curve))
    ratios = [reps[n].ratios["normal_dev_over_nu_ars"] for n in ns]
    assert (max(ratios) - min(ratios)) / min(ratios) < 0.25
    h_slope = st.fit_slope(ns, [reps[n].hausdorff for n in ns])
    assert h_slope == pytest.approx(-2.0, abs=0.15)
    r_slope = st.fit_slope(ns, [math.sqrt(reps[n].nu_ars) for n in ns])
    assert r_slope == pytest.approx(-1.0, abs=0.1)
    l4_slope = st.fit_slope(ns, [reps[n].l4_deviation for n in ns])
    assert l4_slope == pytest.approx(-4.0, abs=0.3)
    n23_slope = st.fit_slope(ns, [reps[n].nu_ars ** (2.0 / 3.0) for n in ns])
    assert n23_slope == pytest.approx(-4.0 / 3.0, abs=0.15)


def test_dissipation_limits_at_n64():
    f = fields.distgrad_field(make_rounded_ngon(64))
    na = kinetic.nu_total(f, "ars_wall").nu_total
    nc = kinetic.nu_total(f, "cubic").nu_total
    # small-angle limits of the closed forms: 2 pi^3/3 and 4 pi^3
    assert 64 ** 2 * na == pytest.approx(2.0 * math.pi ** 3 / 3.0, rel=0.02)
    assert 64 ** 2 * nc == pytest.approx(4.0 * math.pi ** 3, rel=0.02)


def test_sharpness_sweep_table():
    tab = st.sharpness_sweep([8, 16, 32, 64], "ars_wall")
    assert tab.slope_lhs == pytest.approx(-2.0, abs=0.15)
    assert tab.slope_nu == pytest.approx(-2.0, abs=0.15)
    last = tab.rows[-1]
    assert last["n"] == 64
    assert last["n2_nu"] == pytest.approx(2.0 * math.pi ** 3 / 3.0, rel=0.02)
    for row in tab.rows:
        assert row["lhs_normal_dev"] > 0 and row["nu"] > 0


def test_sharpness_sweep_includes_triangle():
    tab = st.sharpness_sweep([3, 8], "cubic")
    assert all(np.isfinite(list(r.values())).all() for r in tab.rows)
    with pytest.raises(ValueError, match="at least 3"):
        st.sharpness_sweep([2, 8])
