"""Grid energy tests: stray-field solver oracles, mollification, functionals."""

import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from eikstab import energy as en
from eikstab import fields, kinetic
from eikstab.geometry import make_circle, make_rounded_ngon, parse_curve_spec
from _oracles import field_values_by_rows, inside_by_rows, mollify_full_box


@pytest.fixture(scope="module")
def disk_vortex():
    return fields.vortex(make_circle(), (0.0, 0.0), alpha=1)


@pytest.fixture(scope="module")
def ngon8_field():
    return fields.distgrad_field(make_rounded_ngon(8))


def uniform_disk_grid(n, pad, R=1.0):
    """Unit magnetization on a disk; exact interior stray field is -m/2."""
    half = R * (1.0 + 2.0 * pad)
    box = (-half, half, -half, half)
    h = 2.0 * half / n
    fx = box[0] + h * (np.arange(n) + 0.5)
    X, Y = np.meshgrid(fx, fx, indexing="ij")
    vals = np.zeros((n, n, 3))
    vals[:, :, 0] = 1.0
    g = en.GridField(bbox=box, n=n, h=h, values=vals,
                     mask=X * X + Y * Y < R * R)
    return g, X, Y


def test_raster_mask_matches_inside(ngon8_field):
    # the stored block holds every cell of the box inside the domain
    g = en.raster_field(ngon8_field, 256)
    assert g.mask.shape[0] < 256 and g.mask.shape[1] < 256
    x0, _, y0, _ = g.bbox
    fx = x0 + g.h * (np.arange(256) + 0.5)
    fy = y0 + g.h * (np.arange(256) + 0.5)
    P = np.stack(np.meshgrid(fx, fy, indexing="ij"), axis=-1).reshape(-1, 2)
    expected = ngon8_field.domain.inside(P).reshape(256, 256)
    assert np.array_equal(_embed(g).mask, expected)
    assert np.all(np.isfinite(g.values))
    assert np.all(g.values[:, :, 2] == 0.0)
    norms = np.linalg.norm(g.values, axis=-1)
    assert norms.max() <= 1.0 + 1e-12
    # unit length wherever sampled, including the analytic extension
    assert norms.min() >= 1.0 - 1e-12 or norms.min() == 0.0


def test_vortex_raster_stray_field_small(disk_vortex):
    # tangential divergence-free field: continuum stray field vanishes
    g = en.raster_field(disk_vortex, 1024)
    assert en.stray_field_l2(g) < 0.05


def test_zero_field_zero_stray(disk_vortex):
    g = en.raster_field(disk_vortex, 128)
    g.values[:] = 0.0
    H = en.solve_stray_field(g)
    assert np.max(np.abs(H)) < 1e-14


def dipole_grid(n):
    """One magnetized cell (m = e1) at the centre of the unit box."""
    vals = np.zeros((n, n, 3))
    mask = np.zeros((n, n), dtype=bool)
    ic = n // 2
    vals[ic, ic, 0] = 1.0
    mask[ic, ic] = True
    return en.GridField(bbox=(-0.5, 0.5, -0.5, 0.5), n=n, h=1.0 / n,
                        values=vals, mask=mask)


def test_dipole_matches_free_space_kernel():
    n = 512
    h = 1.0 / n
    ic = n // 2
    H = en.solve_stray_field(dipole_grid(n))
    fx = -0.5 + h * (np.arange(n) + 0.5)
    X, Y = np.meshgrid(fx, fx, indexing="ij")
    dx, dy = X - fx[ic], Y - fx[ic]
    r2 = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        ex = -(h * h / (2 * math.pi)) * (1.0 / r2 - 2 * dx * dx / r2 ** 2)
        ey = -(h * h / (2 * math.pi)) * (-2 * dx * dy / r2 ** 2)
    sel = (r2 > (12 * h) ** 2) & (r2 < (24 * h) ** 2)
    rel = np.hypot(H[:, :, 0][sel] - ex[sel], H[:, :, 1][sel] - ey[sel]) \
        / np.hypot(ex[sel], ey[sel])
    assert rel.max() < 0.02


@pytest.mark.parametrize("n", [255, 256, 511])
def test_spectral_stray_sum_matches_real_space(ngon8_field, n):
    # Parseval over the rfft2 half spectrum: column 0 (and n/2 for even n)
    # once, every other column twice
    for g in (en.mollify_field(ngon8_field, 0.1, n), dipole_grid(n)):
        H = en.solve_stray_field(g)
        assert en._stray_sum_sq(g) == pytest.approx(float(np.sum(H * H)),
                                                    rel=1e-12, abs=0.0)
    zero = dipole_grid(n)
    zero.values[:] = 0.0
    assert en._stray_sum_sq(zero) == 0.0


@pytest.mark.parametrize("n", [128, 255, 1024])
def test_bump_kernel_bits_match_full_grid_formula(n):
    # on the whole box and on blocks just wide enough for the support, the
    # kernel holds the bits of the n x n formula at the same offsets
    h = 4.0 / n
    for eps in (4.0 * h, 0.02, 3.0):     # 3.0: the support is the whole box
        k = np.fft.fftfreq(n, d=1.0 / n) * h
        X, Y = np.meshgrid(k, k, indexing="ij")
        r2 = (X * X + Y * Y) / (eps * eps)
        w = np.zeros((n, n))
        inside = r2 < 1.0
        w[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        full = w / math.fsum(w.ravel())
        assert np.array_equal(en._bump_kernel(n, h, eps, (n, n)), full)
        sup = np.flatnonzero(inside[:, 0])
        off = np.where(sup < (n + 1) // 2, sup, sup - n)
        side = 2 * int(np.max(np.abs(off))) + 1
        for shape in ((side, side + 7), (n, side + 2), (side + 8, side)):
            if max(shape) > n:
                continue
            expect = np.zeros(shape)
            expect[np.ix_(off % shape[0], off % shape[1])] = full[np.ix_(sup, sup)]
            assert np.array_equal(en._bump_kernel(n, h, eps, shape), expect)
    assert np.all(inside)


def test_mollify_and_F_eps_traced_peak():
    # the largest live set is the grid plus three half spectra (the kernel
    # spectrum and two passes of one component, or u_hat and one FFT's two
    # passes), below the grid plus four
    field = fields.distgrad_field(make_rounded_ngon(32))
    n = 512
    tracemalloc.start()
    try:
        g = en.mollify_field(field, 0.05, n)
        en.evaluate_F_eps(g, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= g.values.nbytes + 4 * (16 * n * (n // 2 + 1))


def test_uniform_disk_interior_value():
    g, X, Y = uniform_disk_grid(1024, pad=1.0)
    H = en.solve_stray_field(g)
    core = X * X + Y * Y < 0.25
    # periodic images shift the exact -1/2 by area/(2 L^2), L the box side
    bg = math.pi / (2.0 * 6.0 ** 2)
    err = np.hypot(H[:, :, 0][core] + 0.5 - bg, H[:, :, 1][core])
    assert err.mean() < 0.01
    assert np.hypot(H[:, :, 0][core] + 0.5, H[:, :, 1][core]).mean() \
        == pytest.approx(bg, rel=0.05)


def test_padding_doubling_second_order():
    errs = {}
    for pad in (0.5, 1.5):
        g, X, Y = uniform_disk_grid(1024, pad)
        H = en.solve_stray_field(g)
        core = X * X + Y * Y < 0.25
        errs[pad] = np.hypot(H[:, :, 0][core] + 0.5, H[:, :, 1][core]).mean()
    # box side doubles from pad 0.5 to pad 1.5: error must drop ~4x
    assert 3.5 < errs[0.5] / errs[1.5] < 4.5


def test_insufficient_padding_raises():
    n = 64
    vals = np.zeros((n, n, 3))
    vals[:, :, 0] = 1.0
    mask = np.ones((n, n), dtype=bool)
    g = en.GridField(bbox=(-1.0, 1.0, -1.0, 1.0), n=n, h=2.0 / n,
                     values=vals, mask=mask)
    with pytest.raises(ValueError, match="pad"):
        en.solve_stray_field(g)


def test_mollify_under_resolved_raises(disk_vortex):
    with pytest.raises(ValueError, match="eps"):
        en.mollify_field(disk_vortex, 0.02, 256)


@pytest.mark.parametrize("eps, grid_n, word", [
    (0.05, 0, "grid_n"), (0.05, -3, "grid_n"), (0.0, 256, "eps"),
    (-1.0, 256, "eps"), (math.nan, 256, "eps"), (math.inf, 256, "eps")])
def test_mollify_bad_argument_names_it(ngon8_field, eps, grid_n, word):
    # checked before the box is built: no divide-by-zero warning, and not
    # worded as under-resolution
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=word) as err:
            en.mollify_field(ngon8_field, eps, grid_n)
    assert "under-resolved" not in str(err.value)


def test_mollify_bump_wider_than_box_takes_whole_box(ngon8_field, monkeypatch):
    # a block past the box is the whole axis before any FFT length is
    # sought; at eps = 1e9 that search would run up to ~1e11 cells
    asked = []
    monkeypatch.setattr(en, "_smooth_len", lambda m: asked.append(m) or m)
    g = en.mollify_field(ngon8_field, 1e9, 64)
    assert g.mask.shape == (64, 64) and g.origin == (0, 0)
    assert asked == []


def test_mollify_norm_bound(ngon8_field):
    g = en.mollify_field(ngon8_field, 0.05, 512)
    norms = np.linalg.norm(g.values, axis=-1)
    assert norms.max() <= 1.0 + 1e-12
    assert np.all(g.values[:, :, 2] == 0.0)
    # smoothing must actually bite: norms dip strictly below 1 on the walls
    assert norms[g.mask].min() < 0.9


def test_vortex_functional_value(disk_vortex):
    g = en.mollify_field(disk_vortex, 0.02, 1024)
    b = en.evaluate_F_eps(g, 0.02)
    assert b.total < 0.5
    assert b.total == pytest.approx(0.3173, rel=0.05)


def test_constant_field_zero_dirichlet():
    n = 64
    vals = np.zeros((n, n, 3))
    vals[:, :, 0] = 1.0
    g = en.GridField(bbox=(0.0, 1.0, 0.0, 1.0), n=n, h=1.0 / n,
                     values=vals, mask=np.ones((n, n), dtype=bool))
    b = en.evaluate_E_AG(g, 0.1)
    assert b.dirichlet == 0.0
    assert b.penalty == 0.0
    assert b.total == 0.0


def test_breakdown_invariants(ngon8_field):
    g = en.mollify_field(ngon8_field, 0.04, 512)
    b = en.evaluate_F_eps(g, 0.04)
    for term in (b.dirichlet, b.magnetostatic, b.penalty, b.m3_term):
        assert term >= 0.0
    assert b.total == pytest.approx(
        b.dirichlet + b.magnetostatic + b.penalty + b.m3_term, abs=1e-12)
    with pytest.raises(ValueError):
        en.EnergyBreakdown(dirichlet=-1.0, magnetostatic=0.0, penalty=0.0,
                           m3_term=0.0, total=-1.0, epsilon=0.1)
    with pytest.raises(ValueError):
        en.EnergyBreakdown(dirichlet=1.0, magnetostatic=0.0, penalty=0.0,
                           m3_term=0.0, total=2.0, epsilon=0.1)


def test_reduced_functional_dominates_AG(ngon8_field):
    # the two extra terms of the full functional are nonnegative, so
    # dropping them can only lower the energy
    g = en.mollify_field(ngon8_field, 0.04, 512)
    f = en.evaluate_F_eps(g, 0.04)
    ag = en.evaluate_E_AG(g, 0.04)
    assert ag.total <= f.total
    assert f.total - ag.total == pytest.approx(
        f.magnetostatic + f.m3_term, abs=1e-12)
    assert ag.dirichlet == f.dirichlet
    assert ag.penalty == f.penalty


def test_refinement_stability(ngon8_field):
    bs = {}
    for n in (1024, 2048):
        g = en.mollify_field(ngon8_field, 0.02, n)
        bs[n] = en.evaluate_F_eps(g, 0.02)
    a, b = bs[1024], bs[2048]
    assert a.dirichlet == pytest.approx(b.dirichlet, rel=0.05)
    assert a.penalty == pytest.approx(b.penalty, rel=0.05)
    assert a.total == pytest.approx(b.total, rel=0.05)
    # stray term is pure rasterization residue here (the continuum field
    # is divergence-free) and shrinks under refinement
    assert b.magnetostatic < a.magnetostatic


def test_penalty_trend_under_eps_halving(ngon8_field):
    pens = []
    for eps in (0.08, 0.04, 0.02):
        g = en.mollify_field(ngon8_field, eps, 1024)
        pens.append(en.evaluate_F_eps(g, eps).penalty)
    # narrower walls: less area off the unit circle, 1/eps growth notwithstanding
    assert pens[0] > pens[1] > pens[2]


def test_ngon_total_near_cubic_rate(ngon8_field):
    g = en.mollify_field(ngon8_field, 0.02, 2048)
    b = en.evaluate_F_eps(g, 0.02)
    nu = kinetic.nu_total(ngon8_field, "cubic").nu_total
    assert nu / 3.0 < b.total < 3.0 * nu


def test_ngon_energy_decreases_with_n():
    totals = {}
    for N in (8, 16, 32):
        f = fields.distgrad_field(make_rounded_ngon(N))
        g = en.mollify_field(f, 0.02, 1024)
        totals[N] = en.evaluate_F_eps(g, 0.02).total
    slope = np.polyfit(np.log([8.0, 16.0, 32.0]),
                       np.log([totals[8], totals[16], totals[32]]), 1)[0]
    # fixed eps: the n vortex cores keep the decay well short of the
    # quadratic wall rate; measured about -0.63
    assert -1.0 < slope < -0.35


# -- bits of the per-point and windowed kernels -------------------------------


RASTER_CASES = {
    "ngon8@256": (lambda: fields.distgrad_field(make_rounded_ngon(8)), 256),
    "ngon32-rot7-shifted@512": (lambda: fields.distgrad_field(
        make_rounded_ngon(32, rotation=7.0, center=(0.25, -0.4))), 512),
    "circle-vortex@256": (lambda: fields.vortex(make_circle(), (0.0, 0.0)), 256),
}


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _raster_by_rows(field, grid):
    """Values (ni, nj, 2) and mask of raster_field's stored cells by the
    row formulas."""
    fx, fy = grid.cell_centers()
    P = np.stack(np.meshgrid(fx, fy, indexing="ij"), axis=-1).reshape(-1, 2)
    shape = grid.mask.shape
    return (field_values_by_rows(field, P).reshape(shape + (2,)),
            inside_by_rows(field.domain, P).reshape(shape))


def _embed(grid):
    """The grid's block zero-embedded in its whole box."""
    (oi, oj), (ni, nj) = grid.origin, grid.mask.shape
    values = np.zeros((grid.n, grid.n, 3))
    mask = np.zeros((grid.n, grid.n), dtype=bool)
    values[oi:oi + ni, oj:oj + nj] = grid.values
    mask[oi:oi + ni, oj:oj + nj] = grid.mask
    return en.GridField(bbox=grid.bbox, n=grid.n, h=grid.h, values=values,
                        mask=mask)


def _local_terms_by_roll(grid, eps):
    """(Dirichlet, penalty, m3 term): np.roll central differences on the
    whole grid, each density summed over grid.values[mask]."""
    v, h, mask = grid.values, grid.h, grid.mask
    density = np.zeros((grid.n, grid.n))
    for c in range(3):
        gx = (np.roll(v[:, :, c], -1, axis=0) - np.roll(v[:, :, c], 1, axis=0)) / (2 * h)
        gy = (np.roll(v[:, :, c], -1, axis=1) - np.roll(v[:, :, c], 1, axis=1)) / (2 * h)
        density += gx * gx + gy * gy
    norm2 = v[:, :, 0] * v[:, :, 0] + v[:, :, 1] * v[:, :, 1] + v[:, :, 2] * v[:, :, 2]
    h2 = h * h
    return (0.5 * eps * float(np.sum(density[mask])) * h2,
            0.5 / eps * float(np.sum(((1.0 - norm2) ** 2)[mask])) * h2,
            0.5 / eps * float(np.sum((v[:, :, 2] ** 4)[mask])) * h2)


@pytest.mark.parametrize("case", list(RASTER_CASES), ids=str)
def test_raster_and_local_terms_bits_match_row_formulas(case):
    make_field, n = RASTER_CASES[case]
    field = make_field()
    g = en.raster_field(field, n)
    assert g.mask.shape[0] < n and g.mask.shape[1] < n
    values, mask = _raster_by_rows(field, g)
    assert mask.any() and not mask.all()
    assert np.array_equal(g.mask, mask)
    assert np.array_equal(_bits(g.values[:, :, :2]), _bits(values))
    assert not _bits(g.values[:, :, 2]).any()   # +0.0 everywhere
    eps = 8.0 * g.h
    for grid in (g, en.mollify_field(field, eps, n)):
        assert en._local_terms(grid, eps) == _local_terms_by_roll(_embed(grid), eps)
        # the stray solve embeds the block where it lies in the box
        assert np.array_equal(_bits(en.solve_stray_field(grid)),
                              _bits(en.solve_stray_field(_embed(grid))))
    # off the grid: scattered points and the patch centres themselves
    # (a centre keeps its strip value, or gets zero in a full patch)
    centres = np.array([p.center for p in field.patches])
    P = np.vstack([centres, centres[0] + np.random.default_rng(n).uniform(
        -1.6, 1.6, (5000, 2))])
    assert np.array_equal(_bits(fields.eval_many(field, P)[0]),
                          _bits(field_values_by_rows(field, P)))


# case -> (field, n, eps in cells, whether the block is the whole box): a
# bump of 14 cells at n = 64 reaches past the 8-gon's box, so _block
# returns the whole axis and the convolution is the whole box's
MOLLIFY_CASES = {**{c: (*RASTER_CASES[c], 8.0, False) for c in RASTER_CASES},
                 "ngon8@64-eps14": (RASTER_CASES["ngon8@256"][0], 64, 14.0, True)}


@pytest.mark.parametrize("case", list(MOLLIFY_CASES), ids=str)
def test_windowed_mollifier_matches_full_box(case):
    # the block, widened by the bump's radius and cropped again, against
    # one periodic convolution of the whole box: every stored cell (the
    # window and its halo) within 1e-14, the energy terms within 1e-12
    make_field, n, cells, whole = MOLLIFY_CASES[case]
    field = make_field()
    x0, x1, y0, y1 = field.domain.bbox()
    eps = cells * 2.0 * max(x1 - x0, y1 - y0) / n
    values, mask, box, h = mollify_full_box(field, eps, n)
    g = en.mollify_field(field, eps, n)
    assert (g.bbox, g.n, g.h) == (box, n, h)
    if whole:
        assert g.mask.shape == (n, n) and g.origin == (0, 0)
    else:
        assert g.mask.shape[0] < n and g.mask.shape[1] < n
    assert np.array_equal(_embed(g).mask, mask)
    (oi, oj), (ni, nj) = g.origin, g.mask.shape
    assert np.max(np.abs(g.values - values[oi:oi + ni, oj:oj + nj])) <= 1e-14
    full = en.GridField(bbox=box, n=n, h=h, values=values, mask=mask)
    windowed, reference = en.evaluate_F_eps(g, eps), en.evaluate_F_eps(full, eps)
    for term in ("dirichlet", "magnetostatic", "penalty", "m3_term", "total"):
        assert getattr(windowed, term) == pytest.approx(
            getattr(reference, term), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spec", ["rounded_ngon:n=8", "circle",
                                  "ellipse:aspect=1.3"])
def test_box_pads_every_bbox_window_by_half(spec):
    # window arithmetic alone, no raster: the cells whose centres lie in
    # the bbox hold every masked cell, so the padding check must pass on a
    # mask that fills them.  At n = 2^k + 1 it fails on the half-side box,
    # which gains one cell per side; at 2^k - 1 and 2^k the box is that box
    curve = parse_curve_spec(spec)

    def check(box, h, n, lo, hi):
        shape = (hi[0] - lo[0] + 2, hi[1] - lo[1] + 2)
        mask = np.zeros(shape, dtype=bool)
        mask[1, 1] = mask[-2, -2] = True    # the window's corners
        en._check_padding(en.GridField(
            bbox=box, n=n, h=h, values=np.broadcast_to(0.0, shape + (3,)),
            mask=mask, origin=(lo[0] - 1, lo[1] - 1)))

    x0, x1, y0, y1 = curve.bbox()
    half = max(x1 - x0, y1 - y0)
    for k in range(6, 12):
        for n in (2 ** k - 1, 2 ** k, 2 ** k + 1):
            box, h, m, lo, hi = en._box(curve, n)
            assert h == 2.0 * half / n
            check(box, h, m, lo, hi)
            grow = (m - n) // 2
            assert m - n == (2 if n == 2 ** k + 1 else 0)
            if grow:
                narrow = tuple(b + s * grow * h for b, s in zip(box, (1, -1, 1, -1)))
                with pytest.raises(ValueError, match="pad"):
                    check(narrow, h, n, tuple(a - grow for a in lo),
                          tuple(b - grow for b in hi))


def test_grid_field_block_must_keep_mask_off_its_edge():
    values = np.zeros((8, 10, 3))
    mask = np.zeros((8, 10), dtype=bool)
    mask[1:-1, 1:-1] = True
    en.GridField(bbox=(-1.0, 1.0, -1.0, 1.0), n=16, h=0.125, values=values,
                 mask=mask, origin=(4, 3))
    for cell in ((0, 4), (7, 4), (3, 0), (3, 9)):
        edge = mask.copy()
        edge[cell] = True
        with pytest.raises(ValueError, match="edge"):
            en.GridField(bbox=(-1.0, 1.0, -1.0, 1.0), n=16, h=0.125,
                         values=values, mask=edge, origin=(4, 3))
    with pytest.raises(ValueError, match="box"):
        en.GridField(bbox=(-1.0, 1.0, -1.0, 1.0), n=16, h=0.125,
                     values=values, mask=mask, origin=(9, 3))


def test_local_terms_periodic_halo_and_m3_plane():
    # masks whose window touches the box edges take their differences
    # across the periodic halo; the m3 plane is nonzero
    n = 64
    rng = np.random.default_rng(9)
    vals = rng.uniform(-1.0, 1.0, (n, n, 3))
    edges = np.zeros((n, n), dtype=bool)
    edges[0, 5:20] = edges[n - 1, 30] = edges[10:14, 0] = edges[40, n - 1] = True
    low = np.zeros((n, n), dtype=bool)
    low[:6, 10:25] = True
    inner = np.zeros((n, n), dtype=bool)
    inner[20:31, 17:45] = rng.random((11, 28)) < 0.7
    for mask in (edges, low, inner, rng.random((n, n)) < 0.3,
                 np.zeros((n, n), dtype=bool)):
        g = en.GridField(bbox=(-1.0, 1.0, -1.0, 1.0), n=n, h=2.0 / n,
                         values=vals, mask=mask)
        terms = en._local_terms(g, 0.1)
        assert terms == _local_terms_by_roll(g, 0.1)
        assert (terms[2] > 0.0) == mask.any()
