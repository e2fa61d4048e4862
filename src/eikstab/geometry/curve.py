"""Closed boundary curves with exact arc-length parametrization.

A :class:`BoundaryCurve` is a counterclockwise piecewise-analytic closed
curve of total length 2*pi.  Supported families, by constructor:

* ``make_circle``        - the unit circle (optionally translated),
* ``make_ellipse``       - axis ratio ``aspect``, perimeter-normalized,
* ``make_rounded_ngon``  - convex hull of n congruent disks centered on the
  vertices of a regular n-gon, rescaled to perimeter 2*pi,
* ``make_spline_curve``  - periodic C^2 spline through user samples.

The parametrization satisfies |g'| = 1 (exactly for the analytic families,
to interpolation accuracy ~1e-6 for splines; spline tangents are
renormalized to unit length on evaluation).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .pieces import (ArcPiece, EllipsePiece, SegmentPiece, SplinePiece,
                     arc_nearest_dist, arc_point, arc_ray_hits, arc_tangent,
                     ellipse_speed_series, mod_2pi, segment_nearest_dist,
                     segment_point, segment_ray_hits, segment_tangent)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MedialStar:
    """Medial axis of a domain that is a star of straight spokes.

    Spoke k runs from the hub along the direction axes[k] to vertices[k],
    the centre of a corner arc; the points nearest that arc see its centre
    within half_width of axes[k].
    """

    hub: np.ndarray
    vertices: np.ndarray
    axes: np.ndarray
    half_width: float

    def sector(self, pts) -> np.ndarray:
        """Sector of each point of the plane: sector k holds the polar
        angles [axes[k], axes[k+1]) about the hub, the wedge of flat side k,
        whose points are nearest to side k or to the arcs at its two ends."""
        n = len(self.axes)
        w = TWO_PI / n
        r = mod_2pi(np.arctan2(pts[:, 1] - self.hub[1], pts[:, 0] - self.hub[0])
                    - self.axes[0])
        q = r / w
        k = np.floor(q)
        # floor(r / w) is np.floor_divide(r, w) unless the quotient lies
        # within rounding of an integer (a spoke line): those few take
        # np.floor_divide, whose remainder is exact
        q -= k
        q -= 0.5
        tie = np.abs(q, out=q) > 0.5 - 1e-9
        k = k.astype(int)
        if tie.any():
            k[tie] = np.floor_divide(r[tie], w).astype(int) % n
        return k

    def sector_off_spokes(self, pts) -> np.ndarray:
        """sector(pts), but -1 for points within 1e-12 of the line of
        either spoke bounding their sector, the hub among them.  There two
        sectors' nearest pieces (or spokes) tie, rounding picks one, and a
        query must take the minimum over all of them."""
        k = self.sector(pts)
        rx, ry = pts[:, 0] - self.hub[0], pts[:, 1] - self.hub[1]
        cos, sin = self._axis_cos_sin
        tie = np.zeros(len(pts), dtype=bool)
        for j in (k, (k + 1) % len(self.axes)):
            tie |= np.abs(cos[j] * ry - sin[j] * rx) < 1e-12
        return np.where(tie, -1, k)

    @cached_property
    def _axis_cos_sin(self):
        """cos and sin of each spoke's axis, gathered by sector."""
        return np.cos(self.axes), np.sin(self.axes)


def _table(pieces, names) -> SimpleNamespace:
    """The named attributes of the pieces as arrays indexed by piece."""
    return SimpleNamespace(**{f: np.array([getattr(p, f) for p in pieces])
                              for f in names})


@dataclass
class BoundaryCurve:
    """Closed ccw boundary curve, arc-length parametrized on [0, 2*pi).

    ``medial_star`` alone decides the family: without it the curve is one
    piece, which answers containment, distance and ray exits itself; with
    it the curve is the rounded n-gon, described by the star and its arcs.

    Attributes
    ----------
    pieces : analytic pieces in traversal order: one piece, or with a
        medial star the rounded n-gon's arc k and side k as pieces 2k and
        2k + 1.
    perimeter : total length (2*pi by construction).
    curvature_bound : max |curvature| over the curve.
    param_offset : shift applied to the public parameter; geometry is
        invariant under it, which reparametrization tests exploit.
    spec : canonical curve spec, ``family[:key=value,...]``, as the command
        line parses it; it names the family in reports.
    rotation_order : g such that the rotation by 2*pi/g about the
        centre of rotation maps the curve onto itself and shifts the
        parameter by perimeter/g: n for the rounded n-gon, 2 for the
        ellipse, 1 otherwise (the circle's defect vanishes identically, so
        its full symmetry buys nothing).  For g >= 2 the centre of rotation
        is the inscribed disk's centre (``max_inscribed_disk(curve).center_xy``:
        the n-gon's hub, the ellipse's centre), which is also the centroid;
        the best-fit circle and vortex centres are taken there.
    medial_star : the medial axis when it is a star of straight spokes
        (the rounded n-gon), else None.
    """

    pieces: list
    perimeter: float
    curvature_bound: float
    param_offset: float = 0.0
    spec: str = ""
    rotation_order: int = 1
    medial_star: Optional[MedialStar] = None

    def __post_init__(self):
        self._starts = np.concatenate([[0.0], np.cumsum([p.length for p in self.pieces])])
        if abs(self._starts[-1] - self.perimeter) > 1e-9:
            raise ValueError("piece lengths do not sum to the stated perimeter")
        self._quad_cache = {}
        if self.medial_star is None:
            if len(self.pieces) != 1:
                raise ValueError("a curve of several pieces needs a medial star")
            return
        # arc k, side k and polygon edge k of the rounded n-gon as arrays
        # indexed by k: every query gathers one row per point
        self._arcs = _table(self.pieces[0::2], ("center", "radius", "a0", "width",
                                                "mid", "half", "e0", "e1"))
        self._sides = _table(self.pieces[1::2], ("p0", "dir", "length"))

    @cached_property
    def _polygon(self) -> SimpleNamespace:
        """The inner polygon's vertex k, edge k (unit direction ex, ey and
        length) and edge k's outward normal and offset (nx, ny, apothem) as
        1-D arrays indexed by k: a query gathers one element per point.
        Also the arc radius r, the circumradius 2r, the inradius
        r (1 + cos(half_width)), and the squared radii of the circles 1e-9
        of the radius inside the inscribed circle and outside the
        circumscribed one."""
        star = self.medial_star
        v = star.vertices
        edges = np.roll(v, -1, axis=0) - v
        elen = np.hypot(edges[:, 0], edges[:, 1])
        e = edges / elen[:, None]
        psi = star.axes + star.half_width
        nrm = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
        big = 2.0 * self._arcs.radius[0]
        inradius = big * (1.0 + math.cos(star.half_width)) / 2.0
        return SimpleNamespace(vx=v[:, 0].copy(), vy=v[:, 1].copy(),
                               ex=e[:, 0].copy(), ey=e[:, 1].copy(), length=elen,
                               nx=nrm[:, 0].copy(), ny=nrm[:, 1].copy(),
                               apothem=(v * nrm).sum(axis=1),
                               arc_radius=self._arcs.radius[0],
                               circumradius=big, inradius=inradius,
                               inner2=(inradius * (1.0 - 1e-9)) ** 2,
                               outer2=(big * (1.0 + 1e-9)) ** 2)

    # -- parametrization ------------------------------------------------

    def _locate(self, s):
        s = np.mod(np.asarray(s, dtype=float) + self.param_offset, self.perimeter)
        idx = np.searchsorted(self._starts, s, side="right") - 1
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        return idx, s - self._starts[idx]

    def _eval(self, s, what: str):
        idx, u = self._locate(s)
        idx, u = np.atleast_1d(idx), np.atleast_1d(u)
        if self.medial_star is None:
            out = getattr(self.pieces[0], what)(u)
        else:
            out = self._ngon_eval(idx, u, what)
        return out[0] if np.ndim(s) == 0 else out

    def _ngon_eval(self, idx, u, what: str):
        """point, tangent or curvature through the arc and side tables;
        piece 2k is arc k, piece 2k + 1 side k."""
        k, on_side = np.divmod(idx, 2)
        i, j = np.flatnonzero(on_side == 0), np.flatnonzero(on_side)
        ka, ks = k[i], k[j]
        A, S = self._arcs, self._sides
        if what == "curvature":
            out = np.zeros(len(u))
            out[i] = 1.0 / A.radius[ka]
        else:
            out = np.empty((len(u), 2))
            if what == "point":
                out[i] = arc_point(A.center[ka], A.radius[ka], A.a0[ka], u[i])
                out[j] = segment_point(S.p0[ks], S.dir[ks], u[j])
            else:
                out[i] = arc_tangent(A.radius[ka], A.a0[ka], u[i])
                out[j] = segment_tangent(S.dir[ks], u[j])
        return out

    def point(self, s):
        return self._eval(s, "point")

    def tangent(self, s):
        return self._eval(s, "tangent")

    def normal(self, s):
        """Outward normal, -i * tangent for a ccw curve."""
        t = self.tangent(s)
        return np.stack([t[..., 1], -t[..., 0]], axis=-1)

    def curvature(self, s):
        return self._eval(s, "curvature")

    def with_param_offset(self, delta: float) -> "BoundaryCurve":
        return replace(self, param_offset=(self.param_offset + delta) % self.perimeter)

    # -- quadrature -----------------------------------------------------

    def quad_nodes(self, order: int = 32, min_panels: int = 96):
        """Gauss-Legendre nodes/weights adapted to the piece structure.

        Analytic pieces get one panel each (the integrands we meet are
        smooth per piece); single-piece curves are split into panels so
        the total node count stays adequate.  Built once per (order,
        min_panels) and returned read-only.
        """
        key = (order, min_panels)
        if key not in self._quad_cache:
            nodes = self._build_quad_nodes(order, min_panels)
            for a in nodes:
                a.flags.writeable = False
            self._quad_cache[key] = nodes
        return self._quad_cache[key]

    def _build_quad_nodes(self, order: int, min_panels: int):
        xg, wg = np.polynomial.legendre.leggauss(order)
        all_s, all_w = [], []
        for j, p in enumerate(self.pieces):
            n_panels = 1 if len(self.pieces) > 1 else max(min_panels, 1)
            edges = np.linspace(0.0, p.length, n_panels + 1)
            for a, b in zip(edges[:-1], edges[1:]):
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                all_s.append(self._starts[j] + mid + half * xg)
                all_w.append(np.full(order, 1.0) * half * wg)
        s = np.concatenate(all_s) - self.param_offset
        return s, np.concatenate(all_w)

    def area(self) -> float:
        s, w = self.quad_nodes()
        g = self.point(s)
        t = self.tangent(s)
        return float(0.5 * np.sum(w * (g[:, 0] * t[:, 1] - g[:, 1] * t[:, 0])))

    def sample_table(self, n: int) -> np.ndarray:
        """Equispaced export table with columns (s, x, y, tau_x, tau_y, kappa)."""
        if n < 1:
            raise ValueError("need samples >= 1")
        s = np.linspace(0.0, self.perimeter, n, endpoint=False)
        g = self.point(s)
        t = self.tangent(s)
        k = self.curvature(s)
        return np.column_stack([s, g, t, k])

    def centroid(self) -> np.ndarray:
        s, w = self.quad_nodes()
        g = self.point(s)
        t = self.tangent(s)
        a = 0.5 * np.sum(w * (g[:, 0] * t[:, 1] - g[:, 1] * t[:, 0]))
        cx = np.sum(w * 0.5 * g[:, 0] ** 2 * t[:, 1])
        cy = np.sum(w * (-0.5) * g[:, 1] ** 2 * t[:, 0])
        return np.array([cx, cy]) / a

    # -- containment / distance -----------------------------------------

    def inside(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.medial_star is None:
            return self.pieces[0].inside(pts)
        return self._ngon_gap(pts) < 0.0

    def _ngon_gap(self, pts):
        """dist(x, inner polygon) - arc radius, against the polygon edge of
        the point's sector only (in sector k the nearest polygon point lies
        on the closed edge from vertex k to vertex k+1); -inf inside the
        polygon.  Negative exactly inside the domain, <= 0 on its closure.

        Off the annulus between the inscribed and the circumscribed circle
        only the sign is kept: a point inside the one, or outside the
        other, by more than 1e-9 of its radius gets -inf or +inf without
        the sector work, as its gap lies that far from zero, far beyond
        rounding.  The rest take the polygon test, and those outside the
        polygon the distance to the edge (and its hypot)."""
        P = self._polygon
        hub = self.medial_star.hub
        dx, dy = pts[:, 0] - hub[0], pts[:, 1] - hub[1]
        rho2 = dx * dx + dy * dy
        far = rho2 > P.outer2
        gap = np.where(far, np.inf, -np.inf)
        rim = np.flatnonzero(~(far | (rho2 < P.inner2)))
        px, py = pts[rim, 0], pts[rim, 1]
        k = self.medial_star.sector(pts[rim])
        out = np.flatnonzero(~(px * P.nx[k] + py * P.ny[k] <= P.apothem[k]))
        k, px, py = k[out], px[out], py[out]
        ex, ey = P.ex[k], P.ey[k]
        rx, ry = px - P.vx[k], py - P.vy[k]
        t = np.clip(rx * ex + ry * ey, 0.0, P.length[k])
        gap[rim[out]] = np.hypot(rx - t * ex, ry - t * ey) - P.arc_radius
        return gap

    def dist_to_boundary(self, pts) -> np.ndarray:
        """Distance from each point (n, 2) to the curve.

        On a curve with a medial star (the rounded n-gon) a point of sector
        k is nearest to arc k, side k or arc k+1, pieces 2k, 2k+1 and
        2k+2 mod 2n, at every point of the plane; only those three are
        measured.  Points that MedialStar.sector_off_spokes puts on a spoke
        line take the minimum over all pieces.  Both read the piece tables
        through the pieces' own kernels, so they give the bits of the
        pieces' nearest_dist.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.medial_star is None:
            return self.pieces[0].nearest_dist(pts)
        A, S = self._arcs, self._sides
        n = len(S.length)

        def arcs(q, k):
            return arc_nearest_dist(q, A.center[k], A.radius[k], A.a0[k],
                                    A.width[k], A.e0[k], A.e1[k])

        def sides(q, k):
            return segment_nearest_dist(q, S.p0[k], S.dir[k], S.length[k])

        k = self.medial_star.sector_off_spokes(pts)
        d = np.minimum(np.minimum(arcs(pts, k), sides(pts, k)),
                       arcs(pts, (k + 1) % n))
        tie = np.flatnonzero(k < 0)
        if len(tie):
            q, every = pts[tie, None, :], slice(None)
            d[tie] = np.minimum(arcs(q, every), sides(q, every)).min(axis=1)
        return d

    def bbox(self):
        s = np.linspace(0.0, self.perimeter, 4096, endpoint=False)
        g = self.point(s)
        pad = 1.0 / 4096
        return (g[:, 0].min() - pad, g[:, 0].max() + pad,
                g[:, 1].min() - pad, g[:, 1].max() + pad)

    # -- intersections ---------------------------------------------------

    def segment_hits(self, p, q):
        """All crossings of segment p->q with the curve as (t, s) pairs."""
        out = []
        for j, piece in enumerate(self.pieces):
            for t, u in piece.segment_hits(p, q):
                out.append((t, (self._starts[j] + u - self.param_offset) % self.perimeter))
        return sorted(out)

    def ray_exit(self, x, d, tol: float = 1e-12):
        """Smallest ray parameter t > tol where x + t d meets the curve.

        Takes one ray (x, d of shape (2,)) and returns a float, or a batch
        (shape (n, 2)) and returns an (n,) array; d must be a unit vector.
        Rays that never meet the curve get inf.

        On a curve with a medial star (the rounded n-gon) a ray that leaves
        the closed domain through arc k, side k or arc k+1 crosses the
        circumscribed circle in sector k (an arc straddles two sectors), so
        only the three pieces of that crossing's sector are tested.  A ray
        whose origin lies outside the domain, that hits none of the three,
        or whose hit lands outside the sector takes the minimum over all
        pieces instead.  On a convex domain only the pieces through the exit
        point report a hit, and the pieces of other sectors end half an arc
        away from the sector's edges, so both give the same bits.
        """
        X = np.atleast_2d(np.asarray(x, dtype=float))
        D = np.atleast_2d(np.asarray(d, dtype=float))
        if self.medial_star is None:
            best = self.pieces[0].ray_hits(X, D, tol)
        else:
            best = self._ngon_ray_exit(X, D, tol)
        return float(best[0]) if np.ndim(x) == 1 else best

    def _all_pieces_exit(self, X, D, tol):
        best = np.full(len(X), np.inf)
        for piece in self.pieces:
            best = np.minimum(best, piece.ray_hits(X, D, tol))
        return best

    def _ngon_ray_exit(self, X, D, tol):
        star = self.medial_star
        n = len(star.axes)
        rel = X - star.hub
        b = np.sum(rel * D, axis=1)
        rho2 = np.sum(rel * rel, axis=1)
        big = self._polygon.circumradius
        t_far = -b + np.sqrt(np.maximum(b * b - (rho2 - big * big), 0.0))
        k = star.sector(X + t_far[:, None] * D)
        k1 = (k + 1) % n
        A, S = self._arcs, self._sides
        best = np.minimum(
            np.minimum(arc_ray_hits(X, D, A.center[k], A.radius[k], A.mid[k],
                                    A.half[k], tol),
                       segment_ray_hits(X, D, S.p0[k], S.dir[k], S.length[k], tol)),
            arc_ray_hits(X, D, A.center[k1], A.radius[k1], A.mid[k1],
                         A.half[k1], tol))
        hit = np.isfinite(best)
        redo = ~hit | (star.sector(X + np.where(hit, best, 0.0)[:, None] * D) != k)
        # an origin outside the inscribed circle may lie outside the domain,
        # where the first hit is an entry, not an exit; a gap of rounding
        # size (up to 3e-16 on the rim, where births start) is not outside
        near_rim = rho2 > self._polygon.inradius ** 2
        if near_rim.any():
            redo[near_rim] |= self._ngon_gap(X[near_rim]) > 1e-12
        if redo.any():
            best[redo] = self._all_pieces_exit(X[redo], D[redo], tol)
        return best


# -- constructors --------------------------------------------------------


def _spec(family: str, rotation: float, **keys) -> str:
    """Canonical spec; numbers print as %g when that reads back exactly,
    and a zero rotation is left out."""
    def num(x):
        return f"{x:g}" if float(f"{x:g}") == x else repr(float(x))

    if rotation:
        keys["rotation"] = rotation
    return family + ":" + ",".join(f"{k}={num(v)}" for k, v in keys.items())


def make_circle(center=(0.0, 0.0)) -> BoundaryCurve:
    """Unit circle: the only radius compatible with perimeter 2*pi."""
    piece = ArcPiece(center, 1.0, 0.0, TWO_PI)
    return BoundaryCurve(pieces=[piece], perimeter=TWO_PI, curvature_bound=1.0,
                         spec="circle")


def make_ellipse(aspect: float, rotation: float = 0.0, center=(0.0, 0.0)) -> BoundaryCurve:
    """Ellipse with semiaxis ratio ``aspect`` >= 1, perimeter 2*pi."""
    if aspect < 1.0:
        raise ValueError("aspect must be >= 1 (major over minor axis)")
    raw_length = TWO_PI * ellipse_speed_series(aspect, 1.0)[0]
    scale = TWO_PI / raw_length
    piece = EllipsePiece(aspect * scale, scale, rotation=rotation, center=center)
    kmax = piece.a / piece.b**2
    return BoundaryCurve(
        pieces=[piece],
        perimeter=piece.length,
        curvature_bound=kmax,
        spec=_spec("ellipse", aspect=aspect, rotation=rotation),
        rotation_order=2,
    )


def ngon_scale(n: int) -> float:
    """Perimeter-normalizing scale for the rounded n-gon."""
    return TWO_PI / (math.pi + n * math.sin(math.pi / n))


def make_rounded_ngon(n: int, rotation: float = 0.0, center=(0.0, 0.0)) -> BoundaryCurve:
    """Convex hull of n disks of radius lambda/2 centered on a radius-lambda/2
    regular n-gon: n arcs alternating with n straight sides, perimeter 2*pi.

    Parametrization starts at the beginning of the arc around vertex 0
    (outward normal angle ``rotation - pi/n``).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    lam = ngon_scale(n)
    r = lam / 2.0
    center = np.asarray(center, dtype=float)
    phis = rotation + TWO_PI * np.arange(n) / n
    verts = center + r * np.stack([np.cos(phis), np.sin(phis)], axis=-1)
    pieces = []
    for k in range(n):
        phi = phis[k]
        pieces.append(ArcPiece(verts[k], r, phi - math.pi / n, phi + math.pi / n))
        n_side = np.array([math.cos(phi + math.pi / n), math.sin(phi + math.pi / n)])
        p0 = verts[k] + r * n_side
        p1 = verts[(k + 1) % n] + r * n_side
        pieces.append(SegmentPiece(p0, p1))
    return BoundaryCurve(
        pieces=pieces,
        perimeter=TWO_PI,
        curvature_bound=2.0 / lam,
        spec=_spec("rounded_ngon", n=n, rotation=rotation),
        rotation_order=n,
        medial_star=MedialStar(hub=center, vertices=verts, axes=phis,
                               half_width=math.pi / n),
    )


def make_spline_curve(points) -> BoundaryCurve:
    """Periodic C^2 spline through ccw sample points, perimeter-normalized."""
    pts = np.asarray(points, dtype=float)
    raw = SplinePiece(pts)
    scale = TWO_PI / raw.length
    piece = SplinePiece(pts * scale)
    # accept small residual: the rescaled spline's length is not exactly
    # scale * raw length because the fit is repeated on scaled samples
    for _ in range(3):
        if abs(piece.length - TWO_PI) < 1e-9:
            break
        piece = SplinePiece(np.asarray(piece._poly[:-1]) * (TWO_PI / piece.length))
    s_dense = np.linspace(0.0, piece.length, 4096, endpoint=False)
    kmax = float(np.abs(piece.curvature(s_dense)).max())
    # orientation check via the shoelace of the cached polyline
    poly = piece._poly[:-1]
    area2 = float(np.sum(poly[:, 0] * np.roll(poly[:, 1], -1) - np.roll(poly[:, 0], -1) * poly[:, 1]))
    if area2 < 0:
        raise ValueError("sample points must be ordered counterclockwise")
    return BoundaryCurve(pieces=[piece], perimeter=piece.length,
                         curvature_bound=kmax, spec="spline")


def _ngon_arc_side_lengths(curve: BoundaryCurve):
    """n and the arc and side lengths of a rounded n-gon."""
    star = curve.medial_star
    if star is None:
        raise ValueError("not a rounded n-gon")
    n = len(star.axes)
    P = curve._polygon
    return n, P.arc_radius * TWO_PI / n, P.circumradius * math.sin(star.half_width)


def rounded_ngon_side_midpoints(curve: BoundaryCurve) -> np.ndarray:
    """Arc-length parameters of the flat-side midpoints of a rounded n-gon."""
    n, arc_len, side_len = _ngon_arc_side_lengths(curve)
    k = np.arange(n)
    return (k + 1) * arc_len + k * side_len + side_len / 2.0 - curve.param_offset


def rounded_ngon_vertex_params(curve: BoundaryCurve) -> np.ndarray:
    """Arc-length parameters of the arc midpoints (outermost points)."""
    n, arc_len, side_len = _ngon_arc_side_lengths(curve)
    k = np.arange(n)
    return k * (arc_len + side_len) + arc_len / 2.0 - curve.param_offset
