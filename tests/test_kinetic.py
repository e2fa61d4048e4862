import math

import numpy as np
import pytest

from eikstab.geometry import make_circle, make_rounded_ngon, ngon_scale
from eikstab.fields import distgrad_field, vortex
from eikstab.kinetic import (
    check_entropy,
    cost_table,
    entropy_disk_flux,
    entropy_half_wave,
    entropy_phi_f,
    entropy_production,
    entropy_sigma1,
    entropy_sigma2,
    half_wave_g,
    nu_total,
    phi_f_eval,
    production_sweep,
    wall_cost_ars,
    wall_cost_cubic,
)


def test_wall_cost_values():
    assert wall_cost_ars(0.0) == 0.0
    assert abs(wall_cost_ars(1.0) - (1.0 - math.pi * math.sqrt(3.0) / 6.0)) < 1e-15
    assert abs(wall_cost_ars(1.0) - 0.0931005) < 1e-6
    assert abs(wall_cost_ars(2.0) - 2.0 * (math.sqrt(2.0) - 1.0)) < 1e-15
    assert abs(wall_cost_ars(2.0) - 0.8284271) < 1e-6
    for bad in (-0.1, 2.1):
        with pytest.raises(ValueError):
            wall_cost_ars(bad)
        with pytest.raises(ValueError):
            wall_cost_cubic(bad)


def test_wall_cost_branch_continuity():
    X = math.pi / 4
    b1 = 2.0 * abs(math.sin(X) - X * math.cos(X))
    b2 = 2.0 * abs((X - math.pi / 2) * math.cos(X) - math.sin(X) + math.sqrt(2.0))
    assert abs(b1 - b2) < 1e-12
    assert abs(wall_cost_ars(2.0 * math.sin(X)) - b1) < 1e-12


def test_wall_cost_monotone_and_positive():
    amps = np.linspace(0.0, 2.0, 10001)
    vals = np.array([wall_cost_ars(a) for a in amps])
    assert vals[0] == 0.0
    assert np.all(vals[1:] > 0.0)
    assert np.all(np.diff(vals) > -1e-15)


def test_wall_cost_small_amplitude_asymptotics():
    X = 0.01
    ratio = wall_cost_ars(2.0 * math.sin(X)) / X ** 3
    assert abs(ratio - 2.0 / 3.0) / (2.0 / 3.0) < 0.01


def test_cubic_cost_values():
    assert wall_cost_cubic(0.0) == 0.0
    assert wall_cost_cubic(1.0) == 1.0
    a = 2.0 * math.sin(math.pi / 8)
    assert abs(wall_cost_cubic(a) - a ** 3) < 1e-15
    assert abs(wall_cost_cubic(a) - 0.448342) < 1e-6


def test_ars_below_cubic_on_family():
    for n in range(3, 129):
        a = 2.0 * math.sin(math.pi / n)
        assert 2.0 * wall_cost_ars(a) <= wall_cost_cubic(a) + 1e-15


def test_cost_table():
    t = cost_table(101)
    assert t.shape == (101, 3)
    assert t[0, 1] == 0.0 and t[-1, 0] == 2.0
    assert abs(t[-1, 1] - wall_cost_ars(2.0)) < 1e-15


def test_phi_f_basic():
    zero = phi_f_eval(lambda s: 0.0 * np.asarray(s), (0.6, 0.8))
    assert np.abs(zero).max() < 1e-14
    one = phi_f_eval(lambda s: np.ones_like(np.asarray(s, float)), (1.0, 0.0))
    assert np.abs(one - [2.0, 0.0]).max() < 1e-10
    with pytest.raises(ValueError):
        phi_f_eval(lambda s: 1.0, (1.1, 0.0))


def test_entropy_derivative_relation():
    assert check_entropy(entropy_sigma1()) < 1e-8
    assert check_entropy(entropy_sigma2()) < 1e-8
    smooth = entropy_phi_f(lambda s: np.cos(np.asarray(s, float)))
    assert check_entropy(smooth, n_angles=16, h=3e-5) < 1e-8


def test_half_wave_entropy_relation():
    # the base density has kinks, so the step must be small enough that the
    # one-sided slopes average out below the target
    assert check_entropy(entropy_half_wave(0.0), n_angles=64, h=1e-6) < 1e-6


def test_half_wave_shape():
    assert abs(half_wave_g(math.pi / 4) - math.pi / 4) < 1e-15
    assert abs(half_wave_g(0.0)) < 1e-15
    assert abs(half_wave_g(math.pi / 2)) < 1e-15
    assert abs(half_wave_g(-math.pi / 4) + math.pi / 4) < 1e-15
    s = np.linspace(0.0, 2.0 * math.pi, 123)
    assert np.abs(half_wave_g(s) - half_wave_g(s + math.pi)).max() < 1e-12


def test_nu_vortex_zero():
    f = vortex(make_circle(), (0.0, 0.0), 1)
    rep = nu_total(f, "ars_wall")
    assert rep.nu_total == 0.0
    assert rep.per_segment == []
    with pytest.raises(ValueError):
        nu_total(f, "other")


def test_nu_ngon_closed_forms():
    g6 = make_rounded_ngon(6)
    f6 = distgrad_field(g6)
    lam6 = ngon_scale(6)
    cub = nu_total(f6, "cubic")
    ars = nu_total(f6, "ars_wall")
    assert abs(cub.nu_total - 3.0 * lam6) < 1e-12
    assert abs(ars.nu_total - 6.0 * lam6 * wall_cost_ars(1.0)) < 1e-12
    for rep in (cub, ars):
        contribs = [r[4] for r in rep.per_segment]
        assert all(c >= 0.0 for c in contribs)
        assert abs(sum(contribs) - rep.nu_total) < 1e-12
        assert len(contribs) == 6


def test_nu_limits():
    for n in (32, 64):
        f = distgrad_field(make_rounded_ngon(n))
        na = nu_total(f, "ars_wall").nu_total
        nc = nu_total(f, "cubic").nu_total
        lim_a = 2.0 * math.pi ** 3 / 3.0
        lim_c = 4.0 * math.pi ** 3
        assert abs(n * n * na - lim_a) / lim_a < 0.02
        assert abs(n * n * nc - lim_c) / lim_c < 0.02


def test_vortex_production_vanishes():
    f = vortex(make_circle(), (0.0, 0.0), 1)
    for ent in (entropy_sigma1(), entropy_sigma2(), entropy_half_wave(0.3)):
        assert entropy_production(f, ent, [((0.2, 0.0), 0.3)]) < 1e-8


def test_ngon_production_closed_form():
    g8 = make_rounded_ngon(8)
    f8 = distgrad_field(g8)
    ent = entropy_sigma1()
    got = entropy_production(f8, ent)
    expect = 0.0
    lam_half = ngon_scale(8) / 2.0
    for k in range(8):
        phi_k = 2.0 * math.pi * k / 8.0
        tm = phi_k + math.pi / 8 - math.pi / 2  # left strip direction angle
        tp = phi_k - math.pi / 8 - math.pi / 2
        n_J = np.array([-math.sin(phi_k), math.cos(phi_k)])
        pm = (4.0 / 3.0) * np.array([math.sin(tm) ** 3, math.cos(tm) ** 3])
        pp = (4.0 / 3.0) * np.array([math.sin(tp) ** 3, math.cos(tp) ** 3])
        expect += lam_half * abs(float((pp - pm) @ n_J))
    assert abs(got - expect) < 1e-12
    assert got > 0.1


def test_ngon_smooth_disk_fluxes():
    g6 = make_rounded_ngon(6)
    f6 = distgrad_field(g6)
    ent = entropy_sigma2()
    # strip interior and patch interior probes
    mid = 0.5 * (f6.patches[0].center + f6.patches[1].center)
    assert abs(entropy_disk_flux(f6, ent, mid * 1.05, 0.04)) < 1e-10
    v0 = f6.patches[0].center
    patch_pt = v0 + 0.3 * np.array([math.cos(0.0), math.sin(0.0)])
    assert abs(entropy_disk_flux(f6, ent, patch_pt, 0.05)) < 1e-10
    with pytest.raises(ValueError):
        entropy_disk_flux(f6, ent, (0.05, 0.05), 0.2)


def test_production_sweep_attains_half_nu():
    g8 = make_rounded_ngon(8)
    f8 = distgrad_field(g8)
    best, arg = production_sweep(f8, 32)
    half_nu = 0.5 * nu_total(f8, "ars_wall").nu_total
    assert abs(best - half_nu) / half_nu < 0.05
    # the optimal shift is attained exactly on this sweep grid
    assert abs(best - half_nu) / half_nu < 1e-6
    p_exact = entropy_production(f8, entropy_half_wave(math.pi / 8))
    assert p_exact >= best * (1.0 - 1e-9)
