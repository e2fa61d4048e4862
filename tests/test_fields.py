import math

import numpy as np
import pytest
from scipy.ndimage import distance_transform_edt

from eikstab.geometry import make_circle, make_ellipse, make_rounded_ngon, ngon_scale
from eikstab.fields import (
    JumpSegment,
    OnJumpError,
    best_vortex_fit,
    circle_cut_angles,
    distgrad_field,
    eval_many,
    field_eval,
    flux_probe,
    jump_distance,
    l4_vortex_deviation,
    vortex,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def f6():
    return distgrad_field(make_rounded_ngon(6))


def test_vortex_basic_values():
    circ = make_circle()
    f = vortex(circ, (0.0, 0.0), 1)
    assert np.allclose(field_eval(f, (1.0 - 1e-9, 0.0)), (0.0, 1.0), atol=1e-8)
    assert abs(flux_probe(f, (0.2, 0.0), 0.5)) < 1e-10
    s = np.linspace(0.0, TWO_PI, 257)
    assert set(np.asarray(f.boundary_trace(s)).tolist()) == {1.0}
    fm = vortex(circ, (0.0, 0.0), -1)
    assert set(np.asarray(fm.boundary_trace(s)).tolist()) == {-1.0}


def test_vortex_argument_checks():
    circ = make_circle()
    with pytest.raises(ValueError):
        vortex(circ, (2.0, 0.0), 1)
    with pytest.raises(ValueError):
        vortex(circ, (0.0, 0.0), 2)
    f = vortex(circ, (0.1, 0.0), 1)
    with pytest.raises(OnJumpError):
        field_eval(f, (0.1, 0.0))
    with pytest.raises(ValueError):
        field_eval(f, (1.5, 0.0))


def test_jump_segment_validation():
    # only the tangential component may jump across the segment
    ok = JumpSegment(p0=np.zeros(2), p1=np.array([1.0, 0.0]), theta_J=0.0,
                     m_minus=np.array([math.sin(0.3), -math.cos(0.3)]),
                     m_plus=np.array([-math.sin(0.3), -math.cos(0.3)]),
                     amplitude=2.0 * math.sin(0.3), half_angle=0.3)
    assert abs(ok.length - 1.0) < 1e-15
    with pytest.raises(ValueError):
        JumpSegment(p0=np.zeros(2), p1=np.array([1.0, 0.0]), theta_J=0.0,
                    m_minus=np.array([0.0, 1.0]), m_plus=np.array([1.0, 0.0]),
                    amplitude=math.sqrt(2.0), half_angle=math.pi / 4)
    with pytest.raises(ValueError):
        JumpSegment(p0=np.zeros(2), p1=np.array([1.0, 0.0]), theta_J=0.0,
                    m_minus=np.array([math.sin(0.3), -math.cos(0.3)]),
                    m_plus=np.array([-math.sin(0.3), -math.cos(0.3)]),
                    amplitude=1.0, half_angle=0.3)


def test_distgrad_structure(f6):
    assert len(f6.jump_set) == 6
    for seg in f6.jump_set:
        assert abs(seg.amplitude - 1.0) < 1e-12  # 2 sin(pi/6)
        assert abs(seg.half_angle - math.pi / 6) < 1e-15
        assert abs(np.hypot(*seg.p0)) < 1e-15
        assert abs(np.hypot(*seg.p1) - ngon_scale(6) / 2) < 1e-12
    with pytest.raises(ValueError):
        distgrad_field(make_ellipse(1.3))
    s = np.linspace(0.0, TWO_PI, 100)
    assert set(np.asarray(f6.boundary_trace(s)).tolist()) == {-1.0}


def test_distgrad_regions(f6):
    strips, patches = f6.strips, f6.patches
    # region ids index the strips first, then the patches
    assert len(strips) == 6 and len(patches) == 6
    assert all(a is b for a, b in zip(f6.regions, strips + patches))
    for k, p in enumerate(patches):
        assert p.alpha == -1
        assert np.array_equal(p.center, f6.jump_set[k].p1)
        assert p.window == (float(TWO_PI * k / 6), math.pi / 6)
    assert vortex(make_circle(), (0.1, 0.0), 1).strips == ()


def test_distgrad_region_values(f6):
    vertices = [p.center for p in f6.patches]
    p = 0.5 * (vertices[0] + vertices[1])
    assert eval_many(f6, p)[1][0] == 0
    assert np.allclose(field_eval(f6, p), f6.strips[0].value, atol=1e-15)
    v0 = vertices[0]
    axis0 = f6.patches[0].window[0]
    q = v0 + 0.1 * np.array([math.cos(axis0), math.sin(axis0)])
    assert eval_many(f6, q)[1][0] == 6
    u = (q - v0) / np.hypot(*(q - v0))
    assert np.allclose(field_eval(f6, q), [u[1], -u[0]], atol=1e-15)
    # singular points: a windowed patch centre keeps its strip value, the
    # centre of a full patch gets a zero vector
    m, r = eval_many(f6, v0)
    assert np.allclose(m[0], [0.5, -math.sqrt(3.0) / 2.0], atol=1e-15)
    assert r[0] == 0
    m, _ = eval_many(vortex(make_circle(), (0.1, 0.0), 1), (0.1, 0.0))
    assert np.array_equal(m[0], [0.0, 0.0])


def test_boundary_trace_is_negative_tangent(f6):
    s = np.linspace(0.0, TWO_PI, 777)
    bp = f6.domain.point(s) * (1.0 - 1e-9)
    m, _ = eval_many(f6, bp)
    assert np.abs(m + f6.domain.tangent(s)).max() < 1e-8


def test_interface_continuity(f6):
    # strip and patch formulas agree exactly on the shared rays
    for k, patch in enumerate(f6.patches):
        axis, half = patch.window
        for t in np.linspace(0.05, 0.95, 9):
            for sgn in (1, -1):
                ang = axis + sgn * half
                p = patch.center + t * 0.45 * np.array(
                    [math.cos(ang), math.sin(ang)])
                u = p - patch.center
                nu = np.hypot(*u)
                patch_val = -np.array([-u[1], u[0]]) / nu
                ks = k if sgn > 0 else (k - 1) % 6
                assert np.abs(patch_val - f6.strips[ks].value).max() < 1e-10


def _line_circle_angles(p0, e, t_max, c, rho):
    """Angles about c where |p0 + t e - c| = rho for 0 <= t <= t_max."""
    b = float(e @ (p0 - c))
    disc = b * b - float((p0 - c) @ (p0 - c)) + rho * rho
    if disc < 0:
        return []
    ts = [t for t in (-b - math.sqrt(disc), -b + math.sqrt(disc))
          if 0.0 <= t <= t_max]
    return [math.atan2(*(p0 + t * e - c)[::-1]) % TWO_PI for t in ts]


def test_circle_cut_angles(f6):
    # a circle about a point of spoke 0 that crosses both window rays of
    # patch 0 and only the near part of spoke 0
    v0 = f6.patches[0].center
    c, rho = v0 - np.array([0.1, 0.0]), 0.15
    spoke = f6.jump_set[0]
    expect = _line_circle_angles(spoke.p0, np.array([1.0, 0.0]),
                                 spoke.length, c, rho)
    assert len(expect) == 1
    for ang in (-math.pi / 6, math.pi / 6):
        hits = _line_circle_angles(
            v0, np.array([math.cos(ang), math.sin(ang)]), math.inf, c, rho)
        assert len(hits) == 1
        expect += hits
    got = circle_cut_angles(f6, c, rho)
    assert np.allclose(got, sorted([0.0, TWO_PI] + expect), atol=1e-12)
    # a vortex is cut along the direction of its core
    fv = vortex(make_circle(), (0.1, 0.2), 1)
    got = circle_cut_angles(fv, (-0.3, 0.1), 0.2)
    assert np.allclose(got, [0.0, math.atan2(0.1, 0.4), TWO_PI], atol=1e-15)


def test_divergence_probes(f6):
    rng = np.random.default_rng(7)
    ring_t = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    done = 0
    while done < 100:
        c = rng.uniform(-0.6, 0.6, 2)
        r = rng.uniform(0.05, 0.45)
        ring = c + r * np.stack([np.cos(ring_t), np.sin(ring_t)], axis=-1)
        if not f6.domain.inside(ring).all():
            continue
        assert abs(flux_probe(f6, c, r)) <= 1e-8 * TWO_PI * r
        done += 1


def test_exact_distance_gradient_identity(f6):
    g = f6.domain
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.1, 1.1, (3000, 2))
    pts = pts[g.inside(pts)
              & (g.dist_to_boundary(pts) > 0.02)
              & (jump_distance(f6, pts) > 0.02)]
    h = 1e-6
    gx = (g.dist_to_boundary(pts + [h, 0]) - g.dist_to_boundary(pts - [h, 0]))
    gy = (g.dist_to_boundary(pts + [0, h]) - g.dist_to_boundary(pts - [0, h]))
    m_fd = np.stack([-gy, gx], axis=-1) / (2 * h)
    m, _ = eval_many(f6, pts)
    assert np.abs(m - m_fd).max() < 1e-6


def test_distance_transform_oracle(f6):
    # fully independent pixel oracle; its gradient direction carries a
    # quantization floor of a few 1e-3 even on a wide stencil, so the
    # bounds here are resolution limits, not field accuracy
    g = f6.domain
    n = 2048
    x0, x1, y0, y1 = g.bbox()
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    h, hy = xs[1] - xs[0], ys[1] - ys[0]
    P = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    mask = g.inside(P.reshape(-1, 2)).reshape(n, n)
    D = distance_transform_edt(mask, sampling=(h, hy))
    k = 8
    gx = np.full_like(D, np.nan)
    gy = np.full_like(D, np.nan)
    gx[k:-k, :] = (D[2 * k:, :] - D[:-2 * k, :]) / (2 * k * h)
    gy[:, k:-k] = (D[:, 2 * k:] - D[:, :-2 * k]) / (2 * k * hy)
    m_fd = np.stack([-gy, gx], axis=-1)

    flat = P.reshape(-1, 2)
    keep = (mask.reshape(-1)
            & (g.dist_to_boundary(flat) > 0.05)
            & (jump_distance(f6, flat) > 0.05))
    idx = np.flatnonzero(keep)[::97]
    pts = flat[idx]
    m, _ = eval_many(f6, pts)
    err = np.abs(m - m_fd.reshape(-1, 2)[idx]).max(axis=1)
    assert np.median(err) < 5e-3
    assert np.quantile(err, 0.9) < 2e-2
    assert err.max() < 0.1

    # jump located on the segment: near-unit trace difference across it,
    # and no jump beyond the claimed far endpoint
    lam_half = ngon_scale(6) / 2.0
    e0 = np.array([1.0, 0.0])
    perp = np.array([0.0, 1.0])
    for t in (0.4, 0.8):
        a, _ = eval_many(f6, (t * lam_half * e0 + 0.002 * perp)[None, :])
        b, _ = eval_many(f6, (t * lam_half * e0 - 0.002 * perp)[None, :])
        assert np.hypot(*(a[0] - b[0])) > 0.95
    # past the endpoint the field is a smooth vortex about the arc center
    a, _ = eval_many(f6, (1.5 * lam_half * e0 + 0.002 * perp)[None, :])
    b, _ = eval_many(f6, (1.5 * lam_half * e0 - 0.002 * perp)[None, :])
    assert np.hypot(*(a[0] - b[0])) < 0.05


def test_unit_length_everywhere(f6):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1.1, 1.1, (4000, 2))
    pts = pts[f6.domain.inside(pts)]
    pts = pts[jump_distance(f6, pts) > 1e-9]
    m, _ = eval_many(f6, pts)
    assert np.abs(np.hypot(m[:, 0], m[:, 1]) - 1.0).max() < 1e-12


def test_l4_deviation_disk_exact():
    circ = make_circle()
    f = vortex(circ, (0.0, 0.0), 1)
    assert l4_vortex_deviation(f, (0.0, 0.0), 1, 128) <= 1e-10
    with pytest.raises(ValueError):
        l4_vortex_deviation(f, (0.0, 0.0), 1, 32)


def test_l4_deviation_ngon_slope():
    ns = np.array([8, 16, 32, 64])
    vals = []
    for n in ns:
        f = distgrad_field(make_rounded_ngon(int(n)))
        vals.append(l4_vortex_deviation(f, (0.0, 0.0), -1, 192))
    assert abs(vals[0] - 6.500392e-03) / vals[0] < 1e-3
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert abs(slope + 4.0) < 0.3


def test_l4_deviation_flipped_sign_order_one(f6):
    assert l4_vortex_deviation(f6, (0.0, 0.0), 1, 96) >= 1.0


def test_best_vortex_fit_ngon():
    f = distgrad_field(make_rounded_ngon(8))
    dev, center, alpha = best_vortex_fit(f, 96)
    assert alpha == -1
    assert np.hypot(*center) < 0.02
    assert dev <= l4_vortex_deviation(f, (0.0, 0.0), -1, 96) + 1e-12


def test_large_n_limit_is_negative_vortex():
    g = make_rounded_ngon(64)
    f = distgrad_field(g)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.05, 1.05, (20000, 2))
    pts = pts[g.inside(pts) & (jump_distance(f, pts) > 0.1)]
    m, _ = eval_many(f, pts)
    nu = np.hypot(pts[:, 0], pts[:, 1])
    vneg = -np.stack([-pts[:, 1], pts[:, 0]], axis=-1) / nu[:, None]
    sup = np.abs(m - vneg).max()
    assert sup * 64 < 10.0
    # the opposite orientation misses by an order-one amount
    assert np.abs(m + vneg).max() > 1.5
