"""Brute-force reference computations kept independent of the package's
optimizers and batch kernels.  Only elementary numpy is used, and scipy's
adaptive quadrature for the ellipse's arc length; geometry comes from the
caller (points, tangents), from a curve's pieces and medial star and
segment intersections, never from its ray exits or inside tests."""

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# the 8 antipodal sign choices for the three line directions
_SIGNS = np.array([[s1, s2, s3] for s1 in (1.0, -1.0)
                   for s2 in (1.0, -1.0) for s3 in (1.0, -1.0)])


def _sign_pieces(X, T, Z):
    """Margin and unclipped arc excess at each z0 for each sign choice.

    Returns (margin, arc) of shape (G, 8): margin = min_k -s_k tau_k . u_k
    and arc = l - pi, with l the shortest arc covering the three line
    directions.  The objective is max over signs of min(margin, max(arc, 0)).
    """
    V = Z[:, None, :] - X[None, :, :]
    nrm = np.sqrt((V * V).sum(-1))
    U = V / nrm[..., None]
    dot = (T[None, :, :] * U).sum(-1)           # (G, 3)
    ang = np.arctan2(U[..., 1], U[..., 0])      # (G, 3)

    margin = np.min(-_SIGNS[None, :, :] * dot[:, None, :], axis=-1)
    shift = np.where(_SIGNS > 0, 0.0, math.pi)
    a = np.sort(np.mod(ang[:, None, :] + shift[None, :, :], TWO_PI), axis=-1)
    gap = np.maximum(np.maximum(a[..., 1] - a[..., 0], a[..., 2] - a[..., 1]),
                     TWO_PI - (a[..., 2] - a[..., 0]))
    return margin, TWO_PI - gap - math.pi


def _objective(X, T, Z):
    margin, arc = _sign_pieces(X, T, Z)
    return np.max(np.minimum(margin, np.maximum(arc, 0.0)), axis=1)


def brute_defect(X, T, x0, R, nr=201, ntheta=201):
    """Exhaustive defect maximization on a polar z0 grid times 8 sign choices.

    X, T: (3, 2) triple points and unit tangents; z0 ranges over the closed
    disk of radius R/2 about x0 including the rim exactly.  The grid value
    is a lower bound of the maximum, short of it by up to a few 1e-3 at the
    default resolution where the objective peaks conically.
    """
    X = np.asarray(X, float)
    T = np.asarray(T, float)
    x0 = np.asarray(x0, float)
    r = np.linspace(0.0, R / 2.0, nr)
    th = np.linspace(0.0, TWO_PI, ntheta, endpoint=False)
    RR, TH = np.meshgrid(r, th)
    Z = x0 + np.column_stack([(RR * np.cos(TH)).ravel(),
                              (RR * np.sin(TH)).ravel()])
    return max(float(np.max(_objective(X, T, Z))), 0.0)


def brute_objective_at(X, T, z0):
    """Defect objective at a single z0 (max over the 8 sign choices)."""
    return brute_defect(X, T, np.asarray(z0, float), 0.0, nr=1, ntheta=1)


def certified_defect(X, T, x0, R, tol=1e-6):
    """Interval (lo, hi) containing the defect maximum over the closed disk
    of radius R/2 about x0, by Lipschitz branch-and-bound on square cells.

    lo is the best objective value at a feasible point (a cell centre, or
    its projection onto the rim when the centre lies outside the disk).
    Each cell of half-diagonal r and centre c bounds the objective from
    above: with d = min_k |c - x_k| - r the least distance from the cell
    to a triple point, u_k and the line angles move at rate at most 1/d,
    so the margin is (1/d)-Lipschitz, and the covering-arc length is
    2-Lipschitz in the angles, so the arc excess is (2/d)-Lipschitz:

        max over the cell <= max(0, max_s min(margin_s(c) + r/d,
                                              arc_s(c) + 2r/d)).

    Bounding the two pieces apart (rather than f(c) + 2r/d) keeps cells
    where the objective is flat at 0 prunable.  Cells whose bound is within
    tol of lo are dropped; the rest, starting from a 64 x 64 cover, are
    halved until hi - lo <= tol, or until no child meets the disk any more
    (the parent cells only seemed to: the test is conservative).  If the
    level or cell cap stops the search first, the interval returned is
    still valid but wider than tol.
    """
    X = np.asarray(X, float)
    T = np.asarray(T, float)
    x0 = np.asarray(x0, float)
    half = R / 2.0
    start, max_levels, max_cells = 64, 40, 400_000

    h = half / start                               # half side of a cell
    ticks = -half + h * (2.0 * np.arange(start) + 1.0)
    C = x0 + np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
    lo = 0.0
    hi_dropped = 0.0
    for _ in range(max_levels):
        r = h * math.sqrt(2.0)
        rel = C - x0
        rc = np.hypot(rel[:, 0], rel[:, 1])
        meets = rc <= half + r                     # cell meets the disk
        C, rel, rc = C[meets], rel[meets], rc[meets]
        if len(C) == 0:                            # the children all miss it
            hi = max(lo, hi_dropped)
            break

        # feasible value: the centre, or its projection onto the rim
        scale = np.minimum(1.0, half / np.maximum(rc, 1e-300))
        lo = max(lo, float(np.max(_objective(X, T, x0 + rel * scale[:, None]))))

        D = C[:, None, :] - X[None, :, :]
        d = np.min(np.hypot(D[..., 0], D[..., 1]), axis=1) - r
        margin, arc = _sign_pieces(X, T, C)
        with np.errstate(divide="ignore"):
            step = np.where(d > 0.0, r / d, np.inf)
        bound = np.maximum(np.max(np.minimum(margin + step[:, None],
                                             arc + 2.0 * step[:, None]),
                                  axis=1), 0.0)

        keep = bound > lo + tol
        hi_dropped = max(hi_dropped, float(np.max(bound[~keep], initial=0.0)))
        C, bound = C[keep], bound[keep]
        hi = max(lo, hi_dropped, float(np.max(bound, initial=0.0)))
        if len(C) == 0 or hi - lo <= tol or 4 * len(C) > max_cells:
            break
        h /= 2.0
        quad = h * np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
        C = (C[:, None, :] + quad[None, :, :]).reshape(-1, 2)
    return lo, hi


def ngon_side_lines(curve):
    """The rounded n-gon's inner polygon from its medial star: vertices,
    outward side normals at axes + half_width, apothems v . n, and the arc
    radius (that of arc piece 0)."""
    star = curve.medial_star
    v = star.vertices
    psi = star.axes + star.half_width
    n_out = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
    return v, n_out, (v * n_out).sum(axis=1), curve.pieces[0].radius


def ngon_signed_gap(curve, pts, block=8192):
    """dist(x, inner polygon) - arc radius of a rounded n-gon, negative
    inside, against every polygon edge (O(n) per point)."""
    v, n_out, apothem, r = ngon_side_lines(curve)
    edges = np.roll(v, -1, axis=0) - v
    elen = np.linalg.norm(edges, axis=1)
    edir = edges / elen[:, None]
    out = np.empty(len(pts))
    for i in range(0, len(pts), block):
        P = pts[i:i + block]
        inside_poly = np.all(P @ n_out.T - apothem <= 0.0, axis=1)
        rel = P[:, None, :] - v[None, :, :]
        t = np.clip(np.einsum("mnd,nd->mn", rel, edir), 0.0, elen[None, :])
        foot = v[None, :, :] + t[..., None] * edir[None, :, :]
        dist_seg = np.linalg.norm(P[:, None, :] - foot, axis=2).min(axis=1)
        out[i:i + block] = np.where(inside_poly, 0.0, dist_seg) - r
    return out


# -- per-point kernels as (n, 2)-row formulas ---------------------------------
#
# MedialStar.sector, the rounded n-gon's sector-edge gap and field
# evaluation written with np.mod, np.floor_divide, row gathers and hypot on
# every point, from a star's, curve's or field's stored data.  The
# package's x/y-plane kernels must give their bits.


def sector_by_np_mod(star, pts):
    """Sector k of each point: polar angle about the hub in
    [axes[k], axes[k+1]), by np.mod and np.floor_divide."""
    rel = pts - star.hub
    theta = np.arctan2(rel[:, 1], rel[:, 0]) - star.axes[0]
    n = len(star.axes)
    return np.floor_divide(theta % TWO_PI, TWO_PI / n).astype(int) % n


def ngon_gap_by_sector(curve, pts):
    """dist(x, inner polygon) - arc radius against the polygon edge of the
    point's sector only; -inf inside the polygon."""
    star = curve.medial_star
    v, n_out, apothem, r = ngon_side_lines(curve)
    k = sector_by_np_mod(star, pts)
    edges = np.roll(v, -1, axis=0) - v
    elen = np.hypot(edges[:, 0], edges[:, 1])
    ex, ey = (edges / elen[:, None])[k].T
    vx, vy = v[k].T
    rx, ry = pts[:, 0] - vx, pts[:, 1] - vy
    t = np.clip(rx * ex + ry * ey, 0.0, elen[k])
    nx, ny = n_out[k].T
    in_poly = pts[:, 0] * nx + pts[:, 1] * ny <= apothem[k]
    return np.where(in_poly, -np.inf, np.hypot(rx - t * ex, ry - t * ey) - r)


def ngon_dist_by_sector(curve, pts):
    """Distance to the rounded n-gon's boundary, |dist - arc radius|, with
    the signed distance to the inner polygon taken against the edge of the
    point's sector: the depth below its line inside the polygon, the
    distance to the closed edge outside."""
    star = curve.medial_star
    v, n_out, apothem, r = ngon_side_lines(curve)
    k = sector_by_np_mod(star, pts)
    edges = np.roll(v, -1, axis=0) - v
    elen = np.hypot(edges[:, 0], edges[:, 1])
    ex, ey = (edges / elen[:, None])[k].T
    vx, vy = v[k].T
    rx, ry = pts[:, 0] - vx, pts[:, 1] - vy
    t = np.clip(rx * ex + ry * ey, 0.0, elen[k])
    nx, ny = n_out[k].T
    depth = pts[:, 0] * nx + pts[:, 1] * ny - apothem[k]
    signed = np.where(depth <= 0.0, depth, np.hypot(rx - t * ex, ry - t * ey))
    return np.abs(signed - r)


def field_values_by_rows(field, pts):
    """The extended field's values (n, 2): the strip of the point's sector,
    overwritten by the patch at either spoke of the sector whose window
    holds the point (the second spoke's last), or the one full patch."""
    strips = [r for r in field.regions if hasattr(r, "value")]
    patches = [r for r in field.regions if hasattr(r, "center")]
    if strips:
        region = sector_by_np_mod(field.domain.medial_star, pts)
        values = np.array([r.value for r in strips])[region]
        near = (region, (region + 1) % len(strips))
    else:
        values = np.zeros_like(pts)
        near = (0,)
    centers = np.array([p.center for p in patches])
    alphas = np.array([p.alpha for p in patches], dtype=float)
    axis, half = np.array([p.window or (0.0, math.inf) for p in patches]).T
    for k in near:
        rel = pts - centers[k]
        nu = np.hypot(rel[:, 0], rel[:, 1])
        hit = nu > 0
        if any(p.window for p in patches):
            ang = np.arctan2(rel[:, 1], rel[:, 0])
            hit &= np.abs((ang - axis[k] + math.pi) % TWO_PI - math.pi) \
                <= half[k] + 1e-15
        u = rel[hit] / nu[hit][:, None]
        a = alphas[k[hit] if np.ndim(k) else k, None]
        values[hit] = a * np.stack([-u[:, 1], u[:, 0]], axis=-1)
    return values


def inside_by_rows(curve, pts):
    """The mask of the rounded N-gon (by its sector's edge) or of the unit
    circle about its center."""
    if curve.medial_star is None:
        c = curve.pieces[0].center
        return np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]) < 1.0
    return ngon_gap_by_sector(curve, pts) < 0.0


def mollify_full_box(field, eps, n):
    """(values (n, n, 3), mask (n, n), box, h): the field on every cell of
    the square box (the bbox made square and padded by half its side at
    each end), by the row formulas, convolved with the bump w / w.sum() of
    the n x n grid by one periodic FFT convolution of the whole box."""
    x0, x1, y0, y1 = field.domain.bbox()
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    half = max(x1 - x0, y1 - y0)
    box = (cx - half, cx + half, cy - half, cy + half)
    h = (box[1] - box[0]) / n
    fx = box[0] + h * (np.arange(n) + 0.5)
    fy = box[2] + h * (np.arange(n) + 0.5)
    P = np.stack(np.meshgrid(fx, fy, indexing="ij"), axis=-1).reshape(-1, 2)
    k = np.fft.fftfreq(n, d=1.0 / n) * h
    X, Y = np.meshgrid(k, k, indexing="ij")
    r2 = (X * X + Y * Y) / (eps * eps)
    w = np.zeros((n, n))
    w[r2 < 1.0] = np.exp(-1.0 / (1.0 - r2[r2 < 1.0]))
    ker = np.fft.rfft2(w / w.sum())
    values = np.zeros((n, n, 3))
    raw = field_values_by_rows(field, P).reshape(n, n, 2)
    for c in range(2):
        values[:, :, c] = np.fft.irfft2(np.fft.rfft2(raw[:, :, c]) * ker,
                                        s=(n, n))
    return values, inside_by_rows(field.domain, P).reshape(n, n), box, h


def first_exit(curve, x, d, tol=1e-9, reach=4.0):
    """First boundary hit t > tol along x + t d, from the curve's segment
    intersections with x -> x + reach d (reach exceeds every diameter of a
    perimeter-2 pi domain); inf when there is none."""
    hits = [reach * t for t, _ in curve.segment_hits(x, x + reach * d)
            if reach * t > tol]
    return min(hits, default=math.inf)


def line_hits_table(field, x, d, u_end, tol=1e-9):
    """Jump-segment hits of the lines x + u d with tol < u < u_end, as flat
    arrays (line, u, segment) ordered by line, then segment.

    The (lines x segments) table of every line against every jump segment,
    with the ray-segment formula written out on x/y planes: u along the
    line and v along the segment from its start, v within 1e-9 of the
    segment and the two directions not parallel to 1e-14."""
    segs = field.jump_set
    p0 = np.array([seg.p0 for seg in segs], dtype=float).reshape(-1, 2)
    off = np.array([seg.p1 for seg in segs], dtype=float).reshape(-1, 2) - p0
    length = np.hypot(off[:, 0], off[:, 1])
    e0, e1 = off[:, 0] / length, off[:, 1] / length
    d0, d1 = d[:, 0, None], d[:, 1, None]
    r0, r1 = p0[:, 0] - x[:, 0, None], p0[:, 1] - x[:, 1, None]
    den = d0 * e1 - d1 * e0
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (r0 * e1 - r1 * e0) / den
        v = (r0 * d1 - r1 * d0) / den
    ok = ((np.abs(den) > 1e-14) & (u > tol) & (v >= -1e-9)
          & (v <= length + 1e-9) & (u < u_end[:, None]))
    line, k = np.nonzero(ok)
    return line, u[line, k], k


def trace_reference(field, x0, s0, T):
    """Scalar event loop of one characteristic: straight flight to the
    first of boundary exit (from segment intersections), jump-segment hit
    and time horizon; at a jump the direction crosses when the far trace
    admits it and otherwise reflects across the jump tangent.

    Returns (termination, t_plus, mu, crossings), the crossings as
    (t, segment index) pairs in time order.
    """
    x = np.asarray(x0, dtype=float).copy()
    s = float(s0) % TWO_PI
    t, mu, crossings = 0.0, 0.0, []
    # the hub: the endpoint that all jump segments share
    ends = [{tuple(seg.p0), tuple(seg.p1)} for seg in field.jump_set]
    shared = set.intersection(*ends) if len(ends) > 1 else set()
    hub = np.asarray(shared.pop(), dtype=float) if shared else None
    for _ in range(100_000):
        d = np.array([math.cos(s), math.sin(s)])
        u_exit = first_exit(field.domain, x, d)
        u_cap = T - t
        u_seg, hit = math.inf, None
        for j, seg in enumerate(field.jump_set):
            e = np.asarray(seg.p1) - np.asarray(seg.p0)
            L = math.hypot(*e)
            e = e / L
            den = d[0] * e[1] - d[1] * e[0]
            if abs(den) < 1e-14:
                continue
            rel = np.asarray(seg.p0) - x
            u = (rel[0] * e[1] - rel[1] * e[0]) / den
            v = (rel[0] * d[1] - rel[1] * d[0]) / den
            if 1e-9 < u < u_seg and -1e-9 <= v <= L + 1e-9:
                u_seg, hit, j_hit = u, seg, j
        if u_cap <= min(u_exit, u_seg):
            return "time-horizon", T, mu, crossings
        u = min(u_exit, u_seg)
        x, t = x + u * d, t + u
        if u_exit <= u_seg:
            return "boundary", t, mu, crossings
        if hub is not None and math.hypot(*(x - hub)) < 1e-9:
            return "center", t, mu, crossings
        side = d[0] * -math.sin(hit.theta_J) + d[1] * math.cos(hit.theta_J)
        far = hit.m_plus if side < 0.0 else hit.m_minus
        if float(np.dot(far, d)) > 0.0:
            crossings.append((t, j_hit))
            continue
        s_new = (2.0 * hit.theta_J - s) % TWO_PI
        mu += abs((s - s_new + math.pi) % TWO_PI - math.pi)
        s = s_new
    raise RuntimeError("reference trace: event cap exceeded")


def _golden_min(f, lo, hi, iters=90):
    """Golden-section minimum value of f on [lo, hi]."""
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return min(fc, fd)


def golden_nearest_dist(sq_dist, params, nodes, pts):
    """Distance from each point p to a curve g, one point at a time: the
    nearest of the nodes g(params), equispaced in the parameter, brackets
    the foot within one spacing, and a golden-section search on
    sq_dist(t, p) = |g(t) - p|^2 refines it."""
    h = params[1] - params[0]
    out = np.empty(len(pts))
    for i, p in enumerate(pts):
        j = int(np.argmin(((nodes - p) ** 2).sum(axis=1)))
        out[i] = math.sqrt(_golden_min(lambda t: sq_dist(t, p),
                                       params[j] - h, params[j] + h))
    return out


def ellipse_nearest_dist(piece, pts):
    """golden_nearest_dist on an ellipse piece, in its own frame, from 4096
    equispaced angles."""
    a, b = piece.a, piece.b
    c, s = math.cos(piece.rotation), math.sin(piece.rotation)
    rel = np.asarray(pts, dtype=float) - piece.center
    loc = np.column_stack([rel[:, 0] * c + rel[:, 1] * s,
                           rel[:, 1] * c - rel[:, 0] * s])
    th = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    nodes = np.column_stack([a * np.cos(th), b * np.sin(th)])
    return golden_nearest_dist(
        lambda t, p: (a * math.cos(t) - p[0]) ** 2 + (b * math.sin(t) - p[1]) ** 2,
        th, nodes, loc)


def _ellipse_dist_first_quadrant(a, b, x, y):
    """Distance from (x, y), x, y >= 0, to the ellipse with semiaxes a >= b
    along x and y, by Eberly's bisection on the Lagrange multiplier.  In
    units of b^2 the multiplier is u - 1: the foot is (r x / (u - 1 + r),
    y / u) with r = (a / b)^2, and u is the root of (r x / a / (u - 1 +
    r))^2 + (y / b / u)^2 = 1, bisected until the midpoint repeats an end.
    Bisecting u, not u - 1, keeps its digits near the x axis, where u is
    tiny.  On either axis the foot is in closed form."""
    if y > 0.0:
        if x == 0.0:
            return abs(y - b)
        z0, z1 = x / a, y / b
        g = z0 * z0 + z1 * z1 - 1.0
        if g == 0.0:
            return 0.0
        r = (a / b) ** 2
        n0 = r * z0
        lo, hi = z1, (math.hypot(n0, z1) if g > 0.0 else 1.0)
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            f = (n0 / (mid - 1.0 + r)) ** 2 + (z1 / mid) ** 2 - 1.0
            if f == 0.0:
                break
            lo, hi = (mid, hi) if f > 0.0 else (lo, mid)
        return math.hypot(r * x / (mid - 1.0 + r) - x, y / mid - y)
    if a * x < a * a - b * b:  # inside the evolute: the foot leaves the axis
        u = a * x / (a * a - b * b)
        return math.hypot(a * u - x, b * math.sqrt(1.0 - u * u))
    return abs(x - a)


def ellipse_dist_by_bisection(piece, pts):
    """Distance from points to an ellipse piece, from its semiaxes, rotation
    and centre alone: each point folds into the first quadrant of the
    ellipse frame and _ellipse_dist_first_quadrant measures it there."""
    a, b = piece.a, piece.b
    c, s = math.cos(piece.rotation), math.sin(piece.rotation)
    rel = np.asarray(pts, dtype=float) - piece.center
    loc = np.abs(np.column_stack([rel[:, 0] * c + rel[:, 1] * s,
                                  rel[:, 1] * c - rel[:, 0] * s]))
    if a < b:
        a, b, loc = b, a, loc[:, ::-1]
    return np.array([_ellipse_dist_first_quadrant(a, b, x, y) for x, y in loc])


def spline_nearest_dist(piece, pts):
    """golden_nearest_dist on a spline piece from its dense polyline."""
    return golden_nearest_dist(
        lambda t, p: float(np.sum((piece.point(t) - p) ** 2)),
        piece._poly_s, piece._poly, np.asarray(pts, dtype=float))


def ellipse_arclength(a, b, theta):
    """Arc length of (a cos t, b sin t) from t = 0 to theta: adaptive
    Gauss-Kronrod quadrature of the speed (within about 2e-15 of a
    30-digit quadrature for aspects up to 3)."""
    from scipy.integrate import quad

    return quad(lambda t: math.hypot(a * math.sin(t), b * math.cos(t)),
                0.0, theta, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
