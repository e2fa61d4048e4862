import math

import numpy as np
import pytest

from eikstab.geometry import (
    BoundaryCurve,
    best_circle_center,
    hausdorff_to_circle,
    make_circle,
    make_ellipse,
    make_rounded_ngon,
    make_spline_curve,
    max_inscribed_disk,
    mod_2pi,
    ngon_scale,
    rounded_ngon_side_midpoints,
    segment_clearance,
    star_region,
    wrap_pi,
)
from eikstab.fields import distgrad_field, jump_distance
from eikstab.geometry import inscribed
from eikstab.geometry.pieces import ArcPiece, SegmentPiece
from _domains import blob_points, dumbbell_curve
from _oracles import (ellipse_arclength, ellipse_dist_by_bisection,
                      ellipse_nearest_dist, first_exit, ngon_gap_by_sector,
                      ngon_signed_gap, sector_by_np_mod,
                      sector_off_spokes_by_rows, spline_nearest_dist)

TWO_PI = 2.0 * math.pi

# closed forms for the rounded hexagon, frozen before implementation:
# scale lam_N = 2*pi / (pi + N*sin(pi/N)), inradius lam_N*(1+cos(pi/N))/2
LAM6 = 2.0 * math.pi / (math.pi + 6.0 * math.sin(math.pi / 6.0))
R6 = LAM6 * (1.0 + math.cos(math.pi / 6.0)) / 2.0


def families():
    return [
        make_circle(),
        make_ellipse(1.3),
        make_rounded_ngon(6),
        make_rounded_ngon(12),
        make_spline_curve(blob_points()),
    ]


FAMILY_IDS = ["circle", "ellipse", "rounded_ngon6", "rounded_ngon12", "spline"]


@pytest.mark.parametrize("curve", families(), ids=FAMILY_IDS)
def test_parametrization_invariants(curve):
    s = np.linspace(0.0, curve.perimeter, 400, endpoint=False)
    assert abs(curve.perimeter - TWO_PI) < 1e-12

    tau = curve.tangent(s)
    assert np.max(np.abs(np.hypot(tau[:, 0], tau[:, 1]) - 1.0)) < 1e-10

    # |g'| = 1 by central differences; samples offset so the FD stencil never
    # straddles a piece junction (curvature jumps there)
    h = 1e-6
    so = s + 1e-4
    fd = (curve.point(so + h) - curve.point(so - h)) / (2.0 * h)
    assert np.max(np.abs(np.hypot(fd[:, 0], fd[:, 1]) - 1.0)) < 1e-7
    assert np.max(np.hypot(*(fd - curve.tangent(so)).T)) < 1e-7

    # n = -i tau and it points outward
    n = curve.normal(s)
    assert np.max(np.abs(n - np.column_stack([tau[:, 1], -tau[:, 0]]))) == 0.0
    g = curve.point(s)
    eps = 1e-6
    assert not curve.inside(g + eps * n).any()
    assert curve.inside(g - eps * n).all()

    assert np.max(np.abs(curve.curvature(s))) <= curve.curvature_bound + 1e-9


def test_rounded_ngon_closed_forms():
    g6 = make_rounded_ngon(6)
    assert abs(ngon_scale(6) - LAM6) < 1e-15
    assert abs(max_inscribed_disk(g6).radius - R6) < 1e-12
    assert abs(g6.curvature_bound - 2.0 / LAM6) < 1e-12
    assert g6.curvature_bound <= 2.0

    # segment pieces have length lam*sin(pi/6); arcs subtend 2*pi/6 at radius lam/2
    seg_len = LAM6 * math.sin(math.pi / 6.0)
    for p in g6.pieces[1::2]:
        assert abs(p.length - seg_len) < 1e-12
    for p in g6.pieces[0::2]:
        assert abs(p.length - (LAM6 / 2.0) * (TWO_PI / 6.0)) < 1e-12

    # numeric perimeter integration agrees with the closed-form normalization
    s, w = g6.quad_nodes()
    assert abs(w.sum() - TWO_PI) < 1e-10

    with pytest.raises(ValueError):
        make_rounded_ngon(2)


def test_ngon_large_n_approaches_circle():
    g = make_rounded_ngon(512)
    assert abs(g.perimeter - TWO_PI) < 1e-12
    assert hausdorff_to_circle(g, (0.0, 0.0)) < 1e-4


def test_ellipse_construction():
    c = make_ellipse(1.0)
    s = np.linspace(0, TWO_PI, 257)
    assert np.max(np.abs(c.curvature(s) - 1.0)) < 1e-8

    e = make_ellipse(2.0)
    assert abs(e.perimeter - TWO_PI) < 1e-10

    e12 = make_ellipse(1.2)
    a, b = e12.pieces[0].a, e12.pieces[0].b
    kmax_closed = a / b**2
    assert abs(np.max(np.abs(e12.curvature(np.linspace(0, TWO_PI, 4096)))) - kmax_closed) < 1e-6

    # dense finite-difference curvature oracle: kappa = x'y'' - y'x'' on arc length
    s = np.linspace(0, TWO_PI, 2000, endpoint=False)
    h = 1e-5
    d1 = (e12.point(s + h) - e12.point(s - h)) / (2 * h)
    d2 = (e12.point(s + h) - 2 * e12.point(s) + e12.point(s - h)) / h**2
    kappa_fd = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    assert np.max(np.abs(kappa_fd - e12.curvature(s))) < 1e-4

    with pytest.raises(ValueError):
        make_ellipse(0.9)


@pytest.mark.parametrize("aspect", [1.0, 1.05, 1.3, 2.0])
def test_ellipse_arclength_matches_quadrature(aspect):
    # the arc length from the angle theta = 0 to the point at parameter u,
    # by quadrature of the speed, must give u back; theta is read off the
    # point itself in the ellipse's frame
    curve = make_ellipse(aspect, rotation=0.4, center=(0.3, -0.2))
    piece = curve.pieces[0]
    a, b = piece.a, piece.b
    perimeter = 4.0 * ellipse_arclength(a, b, 0.5 * math.pi)
    assert abs(curve.perimeter - perimeter) <= 1e-12
    u = np.concatenate([[0.0, 1e-9, curve.perimeter - 1e-9],
                        np.linspace(0.0, curve.perimeter, 64, endpoint=False)
                        + 0.5 * curve.perimeter / 64,
                        np.random.default_rng(8).uniform(0.0, curve.perimeter, 64)])
    rel = curve.point(u) - piece.center
    c, s = math.cos(0.4), math.sin(0.4)
    x, y = c * rel[:, 0] + s * rel[:, 1], c * rel[:, 1] - s * rel[:, 0]
    theta = np.mod(np.arctan2(y / b, x / a), TWO_PI)
    arc = np.array([ellipse_arclength(a, b, th) for th in theta])
    err = np.abs(np.mod(arc - u + 0.5 * perimeter, perimeter) - 0.5 * perimeter)
    assert err.max() <= 1e-12


def test_inscribed_disk_circle():
    d = max_inscribed_disk(make_circle())
    assert np.hypot(*d.center_xy) < 1e-8
    assert abs(d.radius - 1.0) < 1e-8


def test_inscribed_disk_ngon_closed_form_and_grid_oracle():
    g6 = make_rounded_ngon(6)
    d = max_inscribed_disk(g6)
    assert abs(d.radius - R6) < 1e-8
    assert np.hypot(*d.center_xy) < 1e-8

    # distance-transform oracle on a 2048^2 grid
    from scipy.ndimage import distance_transform_edt

    x0, x1, y0, y1 = g6.bbox()
    n = 2048
    gx = np.linspace(x0, x1, n)
    gy = np.linspace(y0, y1, n)
    hx = gx[1] - gx[0]
    X, Y = np.meshgrid(gx, gy)
    mask = g6.inside(np.column_stack([X.ravel(), Y.ravel()])).reshape(n, n)
    edt = distance_transform_edt(mask, sampling=(gy[1] - gy[0], hx))
    assert abs(edt.max() - d.radius) < 2.0 * hx


@pytest.mark.parametrize("curve", families(), ids=FAMILY_IDS)
def test_inscribed_disk_bounds(curve):
    d = max_inscribed_disk(curve)
    assert 1.0 / curve.curvature_bound - 1e-7 <= d.radius <= 1.0 + 1e-7


@pytest.mark.parametrize("curve", [
    make_ellipse(1.3), make_ellipse(2.0),
    make_ellipse(1.3, rotation=0.4, center=(0.1, -0.2))], ids=lambda c: c.spec)
def test_inscribed_disk_ellipse(curve):
    piece = curve.pieces[0]
    d = max_inscribed_disk(curve)
    assert np.hypot(*(d.center_xy - piece.center)) < 1e-8
    assert abs(d.radius - piece.b) < 1e-8


@pytest.mark.parametrize("curve", [
    make_rounded_ngon(3), make_rounded_ngon(8), make_rounded_ngon(32),
    make_rounded_ngon(128),
    make_rounded_ngon(6, rotation=0.3, center=(0.25, -0.4))],
    ids=lambda c: c.spec + str(c.medial_star.hub))
def test_inscribed_disk_ngon_is_exact_closed_form(curve):
    d = max_inscribed_disk(curve)
    n = len(curve.medial_star.axes)
    assert d.center == tuple(float(v) for v in curve.medial_star.hub)
    assert d.radius == ngon_scale(n) * (1.0 + math.cos(math.pi / n)) / 2.0


def test_inscribed_disk_circle_is_exact():
    d = max_inscribed_disk(make_circle(center=(0.3, -0.7)))
    assert d.center == (0.3, -0.7)
    assert d.radius == 1.0


def test_hausdorff_values():
    c = make_circle()
    assert hausdorff_to_circle(c, (0.0, 0.0)) < 1e-12
    assert abs(hausdorff_to_circle(c, (0.1, 0.0)) - 0.1) < 1e-10

    g6 = make_rounded_ngon(6)
    # star-shaped radial formula: max(1 - r_min, r_max - 1) with r_min = inradius
    assert abs(hausdorff_to_circle(g6, (0.0, 0.0)) - (1.0 - R6)) < 1e-9


def test_best_circle_center_recovers_shift():
    from eikstab.stability import normal_deviation

    pts = blob_points() + np.array([0.15, -0.07])
    curve = make_spline_curve(pts)
    center = best_circle_center(curve)
    dev = normal_deviation(curve, center)
    assert dev <= normal_deviation(curve, curve.centroid()) + 1e-12


def test_best_circle_center_shift_equivariant_on_spline():
    # an asymmetric spline (rotation order 1) takes the Newton fit; the
    # Nelder-Mead search it replaced, from both of its seeds, is the reference
    from scipy.optimize import minimize
    from eikstab.stability import normal_deviation

    th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    r = 1 + 0.1 * np.cos(2 * th) + 0.08 * np.sin(3 * th) + 0.05 * np.cos(th + 0.3)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    base = make_spline_curve(pts)
    c0 = best_circle_center(base)
    ref = min(minimize(lambda c: normal_deviation(base, c), seed,
                       method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000}).fun
              for seed in (base.centroid(), max_inscribed_disk(base).center_xy))
    s = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    for shift in ((0.0, 0.0), (0.3, -0.2), (5.0, 5.0)):
        curve = make_spline_curve(pts + np.array(shift))
        # the perimeter normalization scales the samples about the origin,
        # so the curve moves by the scaled shift; measure it on the curve
        move = (curve.point(s) - base.point(s)).mean(axis=0)
        center = best_circle_center(curve)
        assert np.hypot(*(center - c0 - move)) < 1e-8
        assert normal_deviation(curve, center) <= ref + 1e-12


def test_star_region_circle_full():
    c = make_circle()
    d = max_inscribed_disk(c)
    for eta in (0.0, 0.3, 2.0):
        sr = star_region(c, d, eta)
        assert sr.covers_full_boundary()


def test_star_region_ngon8_eta1_full():
    g8 = make_rounded_ngon(8)
    d = max_inscribed_disk(g8)
    # circumradius/inradius - 1 < 1 so eta = 1 admits the whole boundary
    assert ngon_scale(8) / d.radius - 1.0 < 1.0
    assert star_region(g8, d, 1.0).covers_full_boundary()


def test_star_region_dumbbell_proper_subset():
    db = dumbbell_curve(delta=0.2)
    d = max_inscribed_disk(db)
    sr = star_region(db, d, 0.05)
    assert sr.total_length > 0.0
    assert not sr.covers_full_boundary(tol=1e-6)
    assert sr.total_length < 0.9 * db.perimeter

    # ray-cast oracle at 512 samples: region membership iff radius bound and
    # unobstructed segment both hold; skip samples near interval edges
    per = db.perimeter
    z = d.center_xy
    edges = np.array([v for ab in sr.intervals for v in ab]) % per
    for s in np.linspace(0, per, 512, endpoint=False):
        gap = np.abs(edges - s)
        if np.minimum(gap, per - gap).min() < 2e-3:
            continue
        x = db.point(s)
        r_ok = np.hypot(*(x - z)) <= (1.0 + 0.05) * d.radius + 1e-9
        expected = r_ok and segment_clearance(db, d, x, z)
        assert sr.contains_param(s) == expected


def test_star_region_tests_visibility_on_splines_only(monkeypatch):
    # the circle, the ellipse and the rounded n-gon are convex, so their
    # regions take the radius condition alone; a spline's also take the
    # segment test
    blocked, calls = inscribed._segment_blocked, []

    def refuse(*args):
        raise AssertionError("segment test on a convex domain")

    def counted(*args):
        calls.append(args)
        return blocked(*args)

    monkeypatch.setattr(inscribed, "_segment_blocked", refuse)
    for c in (make_circle((0.1, 0.0)), make_ellipse(1.3, rotation=0.4),
              make_rounded_ngon(8)):
        star_region(c, max_inscribed_disk(c), 0.05)
    monkeypatch.setattr(inscribed, "_segment_blocked", counted)
    db = dumbbell_curve(delta=0.2)
    star_region(db, max_inscribed_disk(db), 0.05)
    assert calls


def test_star_region_maximal_intervals_ngon():
    # for convex Omega_N with eta <= 1/(4K) the region is exactly the radius-
    # bound set; intervals must be maximal: bound holds inside, fails beyond ends
    g = make_rounded_ngon(6)
    d = max_inscribed_disk(g)
    eta = min(1.0 / (4.0 * g.curvature_bound), 0.04)
    sr = star_region(g, d, eta)
    lim = (1.0 + eta) * d.radius
    assert len(sr.intervals) == 6
    for a, b in sr.intervals:
        inner = np.linspace(a + 1e-4, b - 1e-4, 32)
        di = np.hypot(*(g.point(inner) - d.center_xy).T)
        assert (di <= lim + 1e-9).all()
        for s_out in (a - 1e-3, b + 1e-3):
            assert np.hypot(*(g.point(s_out) - d.center_xy)) > lim


def test_segment_clearance_circle_and_ngon():
    c = make_circle()
    dc = max_inscribed_disk(c)
    for s in np.linspace(0, TWO_PI, 16, endpoint=False):
        assert segment_clearance(c, dc, c.point(s), np.zeros(2))

    g6 = make_rounded_ngon(6)
    d6 = max_inscribed_disk(g6)
    eta0 = 1.0 / (8.0 * g6.curvature_bound)
    sr = star_region(g6, d6, eta0)
    rng = np.random.default_rng(5)
    zs = d6.center_xy + (2.0 * d6.radius / 3.0) * rng.uniform(-1, 1, size=(40, 2)) / math.sqrt(2.0)
    for a, b in sr.intervals:
        for s in np.linspace(a + 1e-6, b - 1e-6, 8):
            x = g6.point(s)
            for z in zs[:10]:
                assert segment_clearance(g6, d6, x, z)


def test_segment_clearance_dumbbell_blocked():
    db = dumbbell_curve(delta=0.2)
    d = max_inscribed_disk(db)
    assert abs(d.center_xy[1]) < 0.05 and abs(d.center_xy[0]) > 0.05
    s_grid = np.linspace(0, db.perimeter, 4096, endpoint=False)
    pts = db.point(s_grid)

    # the on-axis chord to the far lobe passes through the open neck
    far_axis = pts[np.argmax(pts[:, 0] * np.sign(-d.center_xy[0]))]
    z0 = d.center_xy
    assert segment_clearance(db, d, far_axis, z0)

    # a chord from high in the near lobe to the top of the far lobe must cut
    # through the exterior notch above the neck
    far_mask = (pts[:, 0] * np.sign(-d.center_xy[0])) > 0.25
    far_top = pts[far_mask][np.argmax(pts[far_mask, 1])]
    z = z0 + np.array([0.0, 0.55 * d.radius])
    assert not segment_clearance(db, d, far_top, z)

    with pytest.raises(ValueError):
        segment_clearance(db, d, z0 + np.array([1e-3, 0.0]), z0)  # x not on boundary


@pytest.mark.parametrize("curve", families(), ids=FAMILY_IDS)
def test_geom1_inequality(curve):
    # |tau(x) . (x-x0)/|x-x0|| <= 2 sqrt(K dist(x, boundary of B_R(x0)))
    d = max_inscribed_disk(curve)
    s = np.linspace(0.0, curve.perimeter, 10_000, endpoint=False)
    x = curve.point(s)
    tau = curve.tangent(s)
    v = x - d.center_xy
    r = np.hypot(v[:, 0], v[:, 1])
    lhs = np.abs(np.sum(tau * v, axis=1) / r)
    # the disk is known to 1e-8; inflate the distance accordingly so the
    # touching points (dist = 0, lhs = center error) stay inside the bound
    rhs = 2.0 * np.sqrt(curve.curvature_bound * (np.abs(r - d.radius) + 1e-8))
    assert (lhs <= rhs + 1e-9).all()


def test_reparametrization_invariance():
    g = make_rounded_ngon(6)
    g2 = g.with_param_offset(0.37)
    s = np.linspace(0, TWO_PI, 100)
    assert np.max(np.abs(g2.point(s) - g.point(s + 0.37))) < 1e-12
    assert abs(g2.area() - g.area()) < 1e-9
    d, d2 = max_inscribed_disk(g), max_inscribed_disk(g2)
    assert np.hypot(*(d.center_xy - d2.center_xy)) < 1e-7
    assert abs(d.radius - d2.radius) < 1e-9
    assert abs(hausdorff_to_circle(g2, (0, 0)) - hausdorff_to_circle(g, (0, 0))) < 1e-9


def test_isoperimetric_sanity():
    assert abs(make_circle().area() - math.pi) < 1e-8
    for curve in (make_ellipse(1.2), make_rounded_ngon(6), make_spline_curve(blob_points())):
        assert curve.area() <= math.pi - 1e-4
    assert make_rounded_ngon(512).area() <= math.pi + 1e-8


def test_side_midpoints_lie_on_segments():
    g6 = make_rounded_ngon(6)
    mids = rounded_ngon_side_midpoints(g6)
    assert len(mids) == 6
    pts = g6.point(np.asarray(mids))
    # side midpoints sit at distance inradius from the center
    assert np.max(np.abs(np.hypot(pts[:, 0], pts[:, 1]) - R6)) < 1e-12


def test_curve_csv_export_columns():
    g = make_rounded_ngon(4)
    table = g.sample_table(64)
    assert table.shape == (64, 6)
    s, x, y, tx, ty, kappa = table.T
    assert np.max(np.abs(g.point(s) - np.column_stack([x, y]))) < 1e-12
    assert np.max(np.abs(np.hypot(tx, ty) - 1.0)) < 1e-12
    assert np.max(np.abs(kappa)) <= g.curvature_bound + 1e-12


def test_ray_exit_lands_on_boundary():
    # exits must land on the curve with inside/outside flipping across
    # them, for rays through arcs and flat sides alike
    rng = np.random.default_rng(31)
    for curve in (make_circle(), make_rounded_ngon(8), make_ellipse(1.3)):
        done = 0
        while done < 200:
            x = rng.uniform(-0.6, 0.6, 2)
            if not curve.inside(x[None])[0]:
                continue
            s = rng.uniform(0.0, 2.0 * math.pi)
            d = np.array([math.cos(s), math.sin(s)])
            t = curve.ray_exit(x, d, tol=1e-9)
            assert np.isfinite(t)
            hit = x + t * d
            assert abs(curve.dist_to_boundary(hit[None])[0]) < 1e-7
            assert curve.inside((x + (t - 1e-6) * d)[None])[0]
            assert not curve.inside((x + (t + 1e-6) * d)[None])[0]
            done += 1


def _junction_rays(curve):
    """Rays from 0.3 inside each piece junction to 1e-4 either side of it."""
    ends = np.cumsum([p.length for p in curve.pieces]) - curve.param_offset
    O = curve.point(ends) - 0.3 * curve.normal(ends)
    V = np.vstack([curve.point(ends + side) - O for side in (-1e-4, 1e-4)])
    return np.vstack([O, O]), V / np.hypot(V[:, 0], V[:, 1])[:, None]


@pytest.mark.parametrize("curve", [
    make_circle(),
    make_ellipse(1.3, rotation=0.4),
    make_rounded_ngon(3),
    make_rounded_ngon(8),
    make_rounded_ngon(32),
    make_spline_curve(blob_points()),
], ids=lambda c: c.spec)
def test_ray_exit_batch_matches_segment_hits(curve):
    # one batch call against the first crossing of each ray's chord,
    # found by the pieces' segment intersections
    rng = np.random.default_rng(32)
    P = rng.uniform(-1.0, 1.0, (2000, 2))
    X = P[curve.inside(P)][:300]
    s = rng.uniform(0.0, TWO_PI, len(X))
    D = np.column_stack([np.cos(s), np.sin(s)])
    # plus rays from inside each arc's disk to 1e-4 either side of every
    # piece junction: they cross the arc's circle just outside its window
    O, V = _junction_rays(curve)
    X = np.vstack([X, O])
    D = np.vstack([D, V])
    t = curve.ray_exit(X, D, tol=1e-9)
    expect = np.array([first_exit(curve, x, d) for x, d in zip(X, D)])
    assert np.all(np.isfinite(expect))
    assert np.max(np.abs(t - expect)) < 1e-12
    assert curve.ray_exit(X[0], D[0], tol=1e-9) == t[0]


@pytest.mark.parametrize("n", [3, 4, 5, 8, 32, 128])
def test_ngon_inside_matches_gap_oracle(n):
    # the sector rule checks one polygon edge; the oracle checks all n
    curve = make_rounded_ngon(n, rotation=0.3)
    rng = np.random.default_rng(n)
    s = rng.uniform(0.0, TWO_PI, 50_000)
    near = curve.point(s) + rng.uniform(-1e-6, 1e-6, len(s))[:, None] * curve.normal(s)
    P = np.vstack([rng.uniform(-1.3, 1.3, (150_000, 2)), near])
    assert np.array_equal(curve.inside(P), ngon_signed_gap(curve, P) < 0.0)


def test_spline_inside_matches_circle():
    # a spline through circle samples; 1001 points, not a multiple of the
    # containment block, all more than 1e-3 from the circle
    th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    curve = make_spline_curve(np.column_stack([np.cos(th), np.sin(th)]))
    rng = np.random.default_rng(8)
    P = rng.uniform(-1.3, 1.3, (3000, 2))
    P = P[np.abs(np.hypot(P[:, 0], P[:, 1]) - 1.0) > 1e-3][:1001]
    assert len(P) == 1001
    assert np.array_equal(curve.inside(P), np.hypot(P[:, 0], P[:, 1]) < 1.0)


# -- sector-local queries on the rounded n-gon ------------------------------


SECTOR_CURVES = [make_rounded_ngon(n) for n in (3, 4, 5, 8, 32, 128)] + [
    make_rounded_ngon(7, rotation=0.3, center=(0.1, -0.2))]


def _sector_id(curve):
    return curve.spec + ("@shifted" if np.any(curve.medial_star.hub) else "")


def _all_pieces_min(curve, method, *args):
    """The minimum over every piece of the curve, as the sector rule must
    reproduce it bit for bit."""
    return np.min([getattr(p, method)(*args) for p in curve.pieces], axis=0)


def _spoke_points(curve, rng, count):
    star = curve.medial_star
    k = rng.integers(0, len(star.axes), count)
    r = rng.uniform(0.0, 1.5, count)
    return star.hub + r[:, None] * np.column_stack(
        [np.cos(star.axes[k]), np.sin(star.axes[k])])


@pytest.mark.parametrize("curve", SECTOR_CURVES, ids=_sector_id)
def test_sector_dist_matches_all_pieces(curve):
    rng = np.random.default_rng(len(curve.pieces))
    hub = curve.medial_star.hub
    P = np.vstack([hub + rng.uniform(-1.6, 1.6, (20_000, 2)),  # in and out
                   hub[None, :], _spoke_points(curve, rng, 2000)])
    assert not curve.inside(P).all() and curve.inside(P).any()
    assert np.array_equal(curve.dist_to_boundary(P),
                          _all_pieces_min(curve, "nearest_dist", P))
    # one point per call, as Nelder-Mead asks
    for p in P[-200:]:
        assert np.array_equal(curve.dist_to_boundary(p[None]),
                              _all_pieces_min(curve, "nearest_dist", p[None]))


def _exit_rays(curve, rng):
    """Rays from interior points, from boundary births, grazing the
    boundary from just inside it, and from inside each arc's disk to 1e-4
    either side of every piece junction."""
    hub = curve.medial_star.hub
    P = hub + rng.uniform(-1.2, 1.2, (8000, 2))
    X = [P[curve.inside(P)][:3000]]
    s = rng.uniform(0.0, TWO_PI, len(X[0]))
    D = [np.column_stack([np.cos(s), np.sin(s)])]
    sb = rng.uniform(0.0, curve.perimeter, 3000)
    inward = np.arctan2(*curve.tangent(sb).T[::-1]) + math.pi / 2
    s = inward + rng.uniform(-1.0, 1.0, len(sb)) * (math.pi / 2 - 1e-6)
    X.append(curve.point(sb))
    D.append(np.column_stack([np.cos(s), np.sin(s)]))
    for depth in (1e-3, 1e-7):
        for tilt in (-1e-4, 1e-4):
            g = curve.point(sb) - depth * curve.normal(sb)
            s = np.arctan2(*curve.tangent(sb).T[::-1]) + tilt
            X.append(g)
            D.append(np.column_stack([np.cos(s), np.sin(s)]))
    O, V = _junction_rays(curve)
    return np.vstack(X + [O]), np.vstack(D + [V])


@pytest.mark.parametrize("curve", SECTOR_CURVES, ids=_sector_id)
def test_sector_ray_exit_matches_all_pieces(curve):
    X, D = _exit_rays(curve, np.random.default_rng(len(curve.pieces) + 1))
    t = curve.ray_exit(X, D, tol=1e-9)
    assert np.all(np.isfinite(t))
    assert np.array_equal(t, _all_pieces_min(curve, "ray_hits", X, D, 1e-9))
    for i in range(0, len(X), len(X) // 50):
        assert curve.ray_exit(X[i], D[i], tol=1e-9) == t[i]


@pytest.mark.parametrize("curve", SECTOR_CURVES, ids=_sector_id)
def test_sector_ray_exit_needs_no_fallback_inside(curve, monkeypatch):
    # rays from well inside the domain exit through a piece of the sector
    # window, so no piece is asked on its own; a window missing a piece is
    # caught here, because its missed rays still come out exact from the
    # all-pieces fallback
    rng = np.random.default_rng(len(curve.pieces) + 2)
    P = curve.medial_star.hub + rng.uniform(-1.2, 1.2, (8000, 2))
    X = P[curve.dist_to_boundary(P) > 1e-3]
    X = X[curve.inside(X)][:2000]
    s = rng.uniform(0.0, TWO_PI, len(X))
    D = np.column_stack([np.cos(s), np.sin(s)])
    asked = []
    for cls in (ArcPiece, SegmentPiece):
        monkeypatch.setattr(cls, "ray_hits",
                            lambda self, *a: asked.append(self) or math.inf)
    t = curve.ray_exit(X, D, tol=1e-9)
    assert not asked and np.all(np.isfinite(t))


@pytest.mark.parametrize("curve", SECTOR_CURVES, ids=_sector_id)
def test_sector_ray_exit_needs_no_fallback_from_rim(curve, monkeypatch):
    # a boundary birth starts on the rim, where the gap reads a few 1e-16
    # either way by rounding; such an origin is not outside the domain, so
    # its exit comes from the sector window, exact against every piece
    rng = np.random.default_rng(len(curve.pieces) + 3)
    sb = rng.uniform(0.0, curve.perimeter, 3000)
    inward = np.arctan2(*curve.tangent(sb).T[::-1]) + math.pi / 2
    s = inward + rng.uniform(-1.0, 1.0, len(sb)) * (math.pi / 2 - 1e-6)
    X = curve.point(sb)
    D = np.column_stack([np.cos(s), np.sin(s)])
    expected = _all_pieces_min(curve, "ray_hits", X, D, 1e-9)
    asked = []
    monkeypatch.setattr(type(curve), "_all_pieces_exit",
                        lambda self, X, *a: asked.append(len(X)))
    assert np.array_equal(curve.ray_exit(X, D, tol=1e-9), expected)
    assert not asked


# -- batched distance kernels -----------------------------------------------


def _ellipse_probe_points(piece, rng):
    """The centre, both axes, the evolute and 1e-3 off it, the curve and
    1e-6 off it, and points inside and outside, in the ellipse's frame and
    then placed with its rotation and centre."""
    a, b = piece.a, piece.b
    t = rng.uniform(0.0, TWO_PI, 300)
    evolute = np.column_stack([(a * a - b * b) / a * np.cos(t) ** 3,
                               (b * b - a * a) / b * np.sin(t) ** 3])
    axis = np.linspace(-1.5, 1.5, 101)
    local = np.vstack([
        np.zeros((1, 2)),
        np.column_stack([a * axis, np.zeros(101)]),
        np.column_stack([np.zeros(101), b * axis]),
        evolute, evolute + rng.normal(0.0, 1e-3, evolute.shape),
        np.column_stack([a * np.cos(t), b * np.sin(t)])
        * (1.0 + rng.uniform(-1e-6, 1e-6, (300, 1))),
        rng.uniform(-2.0, 2.0, (600, 2))])
    c, s = math.cos(piece.rotation), math.sin(piece.rotation)
    return piece.center + np.column_stack([local[:, 0] * c - local[:, 1] * s,
                                           local[:, 0] * s + local[:, 1] * c])


@pytest.mark.parametrize("curve", [
    make_ellipse(1.3), make_ellipse(4.0),
    make_ellipse(1.3, rotation=0.4, center=(0.1, -0.2))], ids=lambda c: c.spec)
def test_ellipse_nearest_dist_matches_golden_oracle(curve):
    piece = curve.pieces[0]
    P = _ellipse_probe_points(piece, np.random.default_rng(5))
    err = np.abs(piece.nearest_dist(P) - ellipse_nearest_dist(piece, P))
    assert err.max() < 1e-12


@pytest.mark.parametrize("curve", [
    make_ellipse(1.05), make_ellipse(1.3), make_ellipse(2.0), make_ellipse(4.0),
    make_ellipse(4.0, rotation=0.4, center=(0.1, -0.2))], ids=lambda c: c.spec)
def test_ellipse_nearest_dist_matches_bisection_oracle(curve):
    # the oracle bisects the Lagrange multiplier of the foot, sharing no
    # step with the angle Newton of nearest_dist; besides the probe points,
    # points within 1e-9 of the evolute, where the minimum is nearly flat,
    # and points just off the major axis inside the evolute
    piece = curve.pieces[0]
    rng = np.random.default_rng(8)
    a, b = piece.a, piece.b
    t = rng.uniform(0.0, TWO_PI, 300)
    evolute = np.column_stack([(a * a - b * b) / a * np.cos(t) ** 3,
                               (b * b - a * a) / b * np.sin(t) ** 3])
    local = np.vstack([
        evolute * (1.0 + rng.normal(0.0, 1e-9, (300, 1))),
        np.column_stack([rng.uniform(-1.0, 1.0, 300) * (a * a - b * b) / a,
                         10.0 ** rng.uniform(-15.0, -3.0, 300)])])
    c, s = math.cos(piece.rotation), math.sin(piece.rotation)
    P = np.vstack([_ellipse_probe_points(piece, rng), piece.center
                   + np.column_stack([local[:, 0] * c - local[:, 1] * s,
                                      local[:, 0] * s + local[:, 1] * c])])
    err = np.abs(curve.dist_to_boundary(P) - ellipse_dist_by_bisection(piece, P))
    assert err.max() < 1e-13


@pytest.mark.parametrize("curve", [make_spline_curve(blob_points()),
                                   dumbbell_curve()], ids=["blob", "dumbbell"])
def test_spline_nearest_dist_matches_golden_oracle(curve):
    piece = curve.pieces[0]
    rng = np.random.default_rng(6)
    near = piece._poly[::16]
    P = np.vstack([np.zeros((1, 2)), rng.uniform(-1.6, 1.6, (400, 2)),
                   near + rng.normal(0.0, 1e-3, near.shape),
                   near + rng.normal(0.0, 1e-7, near.shape)])
    err = np.abs(piece.nearest_dist(P) - spline_nearest_dist(piece, P))
    assert err.max() < 1e-12


@pytest.mark.parametrize("curve", [
    make_rounded_ngon(8), make_ellipse(1.3, rotation=0.4, center=(0.1, -0.2)),
    make_spline_curve(blob_points())], ids=lambda c: c.spec)
def test_one_point_queries_equal_batch(curve):
    # a point's distance, position and tangent do not depend on the batch
    # it comes in
    rng = np.random.default_rng(9)
    P = rng.uniform(-1.4, 1.4, (1000, 2))
    d = curve.dist_to_boundary(P)
    assert np.array_equal(d, [curve.dist_to_boundary(p[None])[0] for p in P])
    s = rng.uniform(-1.0, 8.0, 300)
    for query in (curve.point, curve.tangent, curve.curvature):
        assert np.array_equal(query(s), [query(x) for x in s])


def test_quad_nodes_cached_and_read_only():
    g = make_rounded_ngon(6)
    s, w = g.quad_nodes(order=8, min_panels=4)
    assert g.quad_nodes(order=8, min_panels=4)[0] is s
    for a in (s, w):
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert len(g.quad_nodes(order=4, min_panels=4)[0]) == 12 * 4
    # a shifted parametrization gets its own nodes on the same points
    g2 = g.with_param_offset(0.37)
    s2, w2 = g2.quad_nodes(order=8, min_panels=4)
    assert np.allclose(s2, s - 0.37, rtol=0.0, atol=1e-14)
    assert np.array_equal(w2, w)
    assert np.max(np.abs(g2.point(s2) - g.point(s))) < 1e-12
    assert g.quad_nodes(order=8, min_panels=4)[0] is s


def _all_segments_min(field, P):
    """The minimum over every jump segment, with the per-segment arithmetic
    of fields.jump_distance."""
    best = np.full(len(P), np.inf)
    for seg in field.jump_set:
        p0 = np.asarray(seg.p0, dtype=float)
        d = np.asarray(seg.p1, dtype=float) - p0
        L2 = float(d @ d)
        t = np.clip(((P[:, 0] - p0[0]) * d[0] + (P[:, 1] - p0[1]) * d[1]) / L2,
                    0.0, 1.0)
        best = np.minimum(best, np.hypot(P[:, 0] - (p0[0] + t * d[0]),
                                         P[:, 1] - (p0[1] + t * d[1])))
    return best


@pytest.mark.parametrize("curve", SECTOR_CURVES, ids=_sector_id)
def test_fan_jump_distance_matches_all_segments(curve):
    # the points of test_sector_dist_matches_all_pieces
    field = distgrad_field(curve)
    assert field.fan is curve.medial_star
    rng = np.random.default_rng(len(curve.pieces))
    hub = curve.medial_star.hub
    P = np.vstack([hub + rng.uniform(-1.6, 1.6, (20_000, 2)),
                   hub[None, :], _spoke_points(curve, rng, 2000)])
    assert np.array_equal(jump_distance(field, P), _all_segments_min(field, P))
    for p in P[-200:]:
        assert np.array_equal(jump_distance(field, p[None]),
                              _all_segments_min(field, p[None]))


# -- exact angle kernels ------------------------------------------------------


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_mod_2pi_and_wrap_pi_match_np_mod():
    # the branch-free interval's ends, zeros of both signs, angles whose
    # remainder rounds to 2pi, and values that take np.mod
    tiny = np.nextafter(0.0, 1.0)
    edges = np.array([0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi,
                      TWO_PI, -TWO_PI, np.nextafter(TWO_PI, 0.0),
                      np.nextafter(-TWO_PI, 0.0), np.nextafter(-TWO_PI, -7.0),
                      -1e-20, 1e-20, tiny, -tiny, 1e300, -1e300, np.nan])
    rng = np.random.default_rng(12)
    a = np.concatenate([edges, rng.uniform(-TWO_PI, TWO_PI, 5000),
                        rng.uniform(-40.0, 40.0, 5000)])
    assert np.array_equal(_bits(mod_2pi(a)), _bits(np.mod(a, TWO_PI)))
    assert np.array_equal(_bits(wrap_pi(a)),
                          _bits((a + math.pi) % TWO_PI - math.pi))
    # any shape, and a scalar stays a scalar
    grid = a[:10000].reshape(100, 100)
    assert np.array_equal(_bits(wrap_pi(grid)),
                          _bits((grid + math.pi) % TWO_PI - math.pi))
    for x in (math.pi, -math.pi, -0.0, 3 * math.pi, 1e300):
        w = wrap_pi(x)
        assert np.ndim(w) == 0 and isinstance(w, np.float64)
        assert _bits(w) == _bits((np.asarray(x) + math.pi) % TWO_PI - math.pi)


ANGLE_CURVES = [make_rounded_ngon(n, rotation=r, center=c) for n, r, c in (
    (3, 0.0, (0.0, 0.0)), (8, 0.0, (0.0, 0.0)), (8, 0.3, (0.0, 0.0)),
    (32, 7.0, (0.25, -0.4)), (32, -3.0, (0.0, 0.0)), (128, 0.3, (0.1, -0.2)),
    (128, 7.0, (0.0, 0.0)), (5, -7.0, (0.0, 0.0)))]


@pytest.mark.parametrize("curve", ANGLE_CURVES, ids=_sector_id)
def test_sector_matches_np_mod_reference(curve):
    star = curve.medial_star
    hub = star.hub
    rng = np.random.default_rng(len(star.axes))
    # every spoke line on both sides of the hub, where the quotient is
    # within rounding of an integer
    t = np.linspace(-1.5, 1.5, 41)[:, None, None]
    lines = hub + t * np.stack([np.cos(star.axes), np.sin(star.axes)], axis=-1)
    # and parallel to them, on both sides of sector_off_spokes' 1e-12 band
    normal = np.stack([-np.sin(star.axes), np.cos(star.axes)], axis=-1)
    lines = np.concatenate([lines] + [lines + h * normal for h in
                                      (-2e-12, -5e-13, 5e-13, 2e-12)])
    # the ray theta = +-pi through the hub: relative y of +0.0 and -0.0
    rel_x = -rng.uniform(0.0, 1.5, 50)
    ray = np.concatenate([np.column_stack([rel_x, np.zeros(50)]),
                          np.column_stack([rel_x, np.full(50, -0.0)])])
    if np.any(hub):
        ray = ray + hub   # rel y = -0.0 needs a hub at the origin
    P = np.vstack([hub + rng.uniform(-1.6, 1.6, (20_000, 2)), hub[None, :],
                   lines.reshape(-1, 2), _spoke_points(curve, rng, 2000), ray])
    if abs(star.axes[0]) > 4.0:   # np.mod's own branch runs
        assert np.any(np.abs(np.arctan2(P[:, 1] - hub[1], P[:, 0] - hub[0])
                             - star.axes[0]) >= TWO_PI)
    assert np.array_equal(star.sector(P), sector_by_np_mod(star, P))
    off = star.sector_off_spokes(P)
    assert (off < 0).any()
    assert np.array_equal(off, sector_off_spokes_by_rows(star, P))


@pytest.mark.parametrize("curve", ANGLE_CURVES, ids=_sector_id)
def test_ngon_inside_exact_at_the_rim_circles(curve):
    # inside decides the points off the annulus between the inscribed and
    # circumscribed circles by their radius alone; on and near both
    # circles, and on the boundary itself, it keeps the sector-edge rule's
    # bits, and off the boundary it agrees with the all-edges oracle
    rng = np.random.default_rng(3)
    star = curve.medial_star
    offsets = np.array([-2e-9, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 2e-9])
    inner, outer = max_inscribed_disk(curve).radius, ngon_scale(len(star.axes))
    radii = np.outer([inner, outer], 1.0 + offsets)
    # random directions, and those of the arc and side midpoints, where
    # the boundary touches the circumscribed and the inscribed circle
    th = np.concatenate([rng.uniform(0.0, TWO_PI, 2000), star.axes,
                         star.axes + star.half_width])
    th, r = np.repeat(th, radii.size), np.tile(radii.ravel(), len(th))
    rim = star.hub + r[:, None] * np.column_stack([np.cos(th), np.sin(th)])
    off_boundary = np.tile(np.tile(offsets, 2) != 0.0, len(th) // radii.size)
    s = rng.uniform(0.0, TWO_PI, 20_000)
    P = np.vstack([rim, curve.point(s), curve.point(s) + rng.uniform(
        -1e-9, 1e-9, 20_000)[:, None] * curve.normal(s)])
    assert np.array_equal(curve.inside(P), ngon_gap_by_sector(curve, P) < 0.0)
    rim = rim[off_boundary]
    assert np.array_equal(curve.inside(rim), ngon_signed_gap(curve, rim) < 0.0)
