"""Grid energies: stray-field solve, mollified fields, epsilon functionals.

The upper-bound construction rasterizes a unit field on a padded square
box, smooths it at a chosen width, and evaluates the elastic, stray-field,
and penalty terms with central differences and a spectral Poisson solve.
Only the cells about the domain's bbox are rastered, smoothed and stored
(a GridField block); the Poisson solve embeds them in the whole periodic
box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import UnitField, eval_many


@dataclass
class GridField:
    """A block of the cells of a periodic square box.

    The box (bbox) has n x n cells of side h; the stored block is the cells
    origin[0] <= i < origin[0] + values.shape[0], and likewise in j.  The
    cells off the block count as zero and outside the mask.  An axis that
    the block spans wraps around the box; on an axis it does not span, the
    masked cells keep off the block's first and last cell, so every central
    difference on the mask reads stored cells.
    """
    bbox: tuple          # (x0, x1, y0, y1) of the whole box, square
    n: int
    h: float
    values: np.ndarray   # (ni, nj, 3), first index along x
    mask: np.ndarray     # (ni, nj) bool, cell centers inside the domain
    origin: tuple = (0, 0)   # box index of the block's first cell

    def __post_init__(self):
        if self.values.ndim != 3 or self.values.shape[2] != 3:
            raise ValueError("values must be (ni, nj, 3)")
        if self.mask.shape != self.values.shape[:2]:
            raise ValueError("mask must be (ni, nj), the shape of values")
        for o, m, rims in zip(self.origin, self.mask.shape,
                              ((self.mask[:1], self.mask[-1:]),
                               (self.mask[:, :1], self.mask[:, -1:]))):
            if o < 0 or o + m > self.n:
                raise ValueError("the block must lie in the box")
            if m < self.n and any(rim.any() for rim in rims):
                raise ValueError("the mask must keep off the edge of a block "
                                 "narrower than the box")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def cell_centers(self):
        """x and y of the stored cells' centers."""
        x0, _, y0, _ = self.bbox
        (oi, oj), (ni, nj) = self.origin, self.mask.shape
        fx = x0 + self.h * (np.arange(oi, oi + ni) + 0.5)
        fy = y0 + self.h * (np.arange(oj, oj + nj) + 0.5)
        return fx, fy


@dataclass(frozen=True)
class EnergyBreakdown:
    dirichlet: float
    magnetostatic: float
    penalty: float
    m3_term: float
    total: float
    epsilon: float

    def __post_init__(self):
        parts = (self.dirichlet, self.magnetostatic, self.penalty,
                 self.m3_term)
        if any(p < 0 for p in parts):
            raise ValueError("energy terms must be nonnegative")
        if abs(self.total - sum(parts)) > 1e-9 * max(1.0, abs(self.total)):
            raise ValueError("total must equal the sum of the terms")


def _box(curve, grid_n: int):
    """(box, h, n, lo, hi): raster_field's square box of n cells of side h,
    and per axis the cells lo <= i < hi whose centers lie in the curve's
    bbox, which hold every cell of the domain's mask.

    The box is the bbox made square and padded by half its side at each
    end, in grid_n cells.  _check_padding counts the mask's window in whole
    cells, and at some grid_n (n = 4k + 1 on a square bbox: 2k + 1 cells
    with k-cell gaps) that window's padding is short of half its extent;
    there the box gains the fewest whole cells per side that make it hold,
    with h unchanged.
    """
    x0, x1, y0, y1 = curve.bbox()
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    half = max(x1 - x0, y1 - y0)
    box = (cx - half, cx + half, cy - half, cy + half)
    h = (box[1] - box[0]) / grid_n
    # the bbox pads the domain by 1/4096, so a center within 1e-9 cells of
    # a bbox edge lies outside the domain
    lo = [math.floor((e - b) / h - 0.5 + 1e-9) + 1 for e, b in
          ((x0, box[0]), (y0, box[2]))]
    hi = [math.ceil((e - b) / h - 0.5 - 1e-9) for e, b in
          ((x1, box[0]), (y1, box[2]))]
    grow = max(max((b - a + 1) // 2 - a, (b - a + 1) // 2 - (grid_n - b))
               for a, b in zip(lo, hi))
    if grow <= 0:
        return box, h, grid_n, tuple(lo), tuple(hi)
    box = (box[0] - grow * h, box[1] + grow * h,
           box[2] - grow * h, box[3] + grow * h)
    return (box, h, grid_n + 2 * grow, tuple(a + grow for a in lo),
            tuple(b + grow for b in hi))


def _smooth_len(m: int) -> int:
    """The least 2^a 3^b 5^c >= m: a fast FFT length (a block of a large
    prime length takes pocketfft's slow path, over twice the time)."""
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _block(lo: int, hi: int, n: int, halo: int):
    """(start, length) along one axis of the cells raster_field stores: the
    bbox cells lo <= i < hi with a two-cell margin and `halo` more cells per
    side, the length rounded up to a fast FFT length when halo > 0.  A
    block that would reach past the box edge is the whole axis."""
    start, length = lo - 2 - halo, hi - lo + 4 + 2 * halo
    if halo:
        length = _smooth_len(length)
    if start < 0 or start + length > n:
        return 0, n
    return start, length


def raster_field(field: UnitField, grid_n: int, halo: int = 0) -> GridField:
    """Sample the field (analytically extended) on the cells of _box that
    hold the domain's bbox, with a two-cell margin and `halo` more cells per
    side (the block of _block); the rest of the box is not evaluated."""
    if grid_n < 1:
        raise ValueError("need grid_n >= 1 cells per side")
    curve = field.domain
    box, h, n, lo, hi = _box(curve, grid_n)
    (oi, ni), (oj, nj) = (_block(a, b, n, halo) for a, b in zip(lo, hi))
    fx = box[0] + h * (np.arange(oi, oi + ni) + 0.5)
    fy = box[2] + h * (np.arange(oj, oj + nj) + 0.5)
    values = np.zeros((ni, nj, 3))
    mask = np.zeros((ni, nj), dtype=bool)
    # evaluate in row blocks of about 2^15 cells: each temporary plane
    # (256 KB) stays in cache and its allocation reuses freed memory
    block = max(1, (1 << 15) // nj)
    for i0 in range(0, ni, block):
        i1 = min(i0 + block, ni)
        P = np.stack(np.meshgrid(fx[i0:i1], fy, indexing="ij"),
                     axis=-1).reshape(-1, 2)
        m, _ = eval_many(field, P)
        values[i0:i1, :, 0] = m[:, 0].reshape(i1 - i0, nj)
        values[i0:i1, :, 1] = m[:, 1].reshape(i1 - i0, nj)
        mask[i0:i1, :] = curve.inside(P).reshape(i1 - i0, nj)
    return GridField(bbox=box, n=n, h=h, values=values, mask=mask,
                     origin=(oi, oj))


def _bump_kernel(n: int, h: float, eps: float, shape) -> np.ndarray:
    """Normalized compactly supported C-infinity bump of width eps on an
    array of the given shape, offset (o1, o2) at index (o1 mod shape[0],
    o2 mod shape[1]).  The bump is evaluated only on its support, on the
    inputs of the n x n box's full-grid formula and in its order (the same
    bits), and normalized by the exactly rounded sum of its weights, so
    every shape holds the same bits at the same offsets."""
    k = np.fft.fftfreq(n, d=1.0 / n) * h   # signed cell offsets
    sup = np.flatnonzero(k * k / (eps * eps) < 1.0)
    X, Y = np.meshgrid(k[sup], k[sup], indexing="ij")
    r2 = (X * X + Y * Y) / (eps * eps)
    bump = np.zeros(r2.shape)
    inside = r2 < 1.0
    bump[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    off = np.where(sup < (n + 1) // 2, sup, sup - n)
    w = np.zeros(shape)
    w[np.ix_(off % shape[0], off % shape[1])] = bump
    return w / math.fsum(bump.ravel())


def mollify_field(field: UnitField, eps: float, grid_n: int) -> GridField:
    """Rasterize and convolve with a smooth bump of width eps; m3 = 0.

    The raster block is widened by the bump's radius in cells and
    convolved there with FFTs; the cells of that rim, where the circular
    convolution wraps, are cropped off again.  An axis whose widened block
    spans the box is the box's periodic convolution, uncropped."""
    if not grid_n >= 1:
        raise ValueError(f"need grid_n >= 1 cells per side, got {grid_n!r}")
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"need a finite mollification width eps > 0, got {eps!r}")
    _, h, n, _, _ = _box(field.domain, grid_n)
    if eps < 4.0 * h:
        raise ValueError("mollification width under-resolved: eps < 4h")
    r = math.ceil(eps / h)    # the bump's support reaches |offset| < eps / h
    wide = raster_field(field, grid_n, halo=r)
    shape = wide.mask.shape
    keep = tuple(slice(0, m) if m == n else slice(r, m - r) for m in shape)
    ker = np.fft.rfft2(_bump_kernel(n, h, eps, shape))
    values = np.zeros(wide.values[keep].shape)
    for c in range(2):
        spec = np.fft.rfft2(wide.values[:, :, c])
        spec *= ker
        # irfft2's two passes, so at most two spectra live beside the kernel's
        spec = np.fft.ifft(spec, axis=0)
        values[:, :, c] = np.fft.irfft(spec, shape[1], axis=1)[keep]
        del spec
    return GridField(bbox=wide.bbox, n=n, h=h, values=values,
                     mask=wide.mask[keep].copy(),
                     origin=tuple(o + s.start for o, s in zip(wide.origin, keep)))


def _mask_window(grid: GridField):
    """(i0, i1, j0, j1): the stored rows i0 <= i < i1 and columns
    j0 <= j < j1 that hold every masked cell, or None when the mask is
    empty."""
    rows = np.flatnonzero(grid.mask.any(axis=1))
    if len(rows) == 0:
        return None
    cols = np.flatnonzero(grid.mask.any(axis=0))
    return rows[0], rows[-1] + 1, cols[0], cols[-1] + 1


def _check_padding(grid: GridField):
    """Raise unless the box pads the mask's window by at least half the
    window's extent on each side."""
    win = _mask_window(grid)
    if win is None:
        return
    i0, i1, j0, j1 = win
    oi, oj = grid.origin
    h = grid.h
    x0, x1, y0, y1 = grid.bbox
    mx0, mx1 = x0 + h * (oi + i0), x0 + h * (oi + i1)
    my0, my1 = y0 + h * (oj + j0), y0 + h * (oj + j1)
    ex, ey = mx1 - mx0, my1 - my0
    if mx0 - x0 < 0.5 * ex - 1e-9 or x1 - mx1 < 0.5 * ex - 1e-9 \
            or my0 - y0 < 0.5 * ey - 1e-9 or y1 - my1 < 0.5 * ey - 1e-9:
        raise ValueError("box must pad the masked region by >= 50% per side")


def _stray_spectrum(grid: GridField):
    """(u_hat, sig1, sig2), where H_c = irfft2(1j * sig_c * u_hat)."""
    _check_padding(grid)
    n, h = grid.n, grid.h
    (oi, oj), (ni, nj) = grid.origin, grid.mask.shape
    k_full = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
    k_half = k_full[: n // 2 + 1]
    sig1 = (np.sin(k_full * h) / h)[:, None]
    sig2 = (np.sin(k_half * h) / h)[None, :]

    def masked_spectrum(c):
        # rfft2 of m_c * mask zero-embedded in the box, in its two passes:
        # the row pass runs on the block's rows only (every other row's
        # transform is zero; the same bits)
        rows = np.zeros((ni, n))
        rows[:, oj:oj + nj] = grid.values[:, :, c] * grid.mask
        spec = np.zeros((n, n // 2 + 1), dtype=complex)
        spec[oi:oi + ni] = np.fft.rfft(rows, axis=1)
        del rows
        return np.fft.fft(spec, axis=0)

    # u_hat = 1j * (sig1 * F1 + sig2 * F2) / lap, in place, products in
    # that order
    u_hat = masked_spectrum(0)
    u_hat *= sig1
    spec = masked_spectrum(1)
    spec *= sig2
    u_hat += spec
    del spec
    lap = ((2.0 - 2.0 * np.cos(k_full * h)) / h ** 2)[:, None] \
        + ((2.0 - 2.0 * np.cos(k_half * h)) / h ** 2)[None, :]
    lap[0, 0] = 1.0
    np.multiply(1j, u_hat, out=u_hat)
    u_hat /= lap
    u_hat[0, 0] = 0.0
    return u_hat, sig1, sig2


def solve_stray_field(grid: GridField) -> np.ndarray:
    """H = grad u with Delta u = -div(m 1_mask), periodic box, FFT.

    Compact five-point Laplacian symbol with central-difference divergence
    and gradient: no even/odd decoupling, O(h^2) consistency.  Needs the
    box to pad the masked region by at least half its extent per side;
    the leftover periodic-image error is second order in the padding.
    """
    u_hat, sig1, sig2 = _stray_spectrum(grid)
    n = grid.n
    H = np.empty((n, n, 2))
    for c, sig in enumerate((sig1, sig2)):
        H[:, :, c] = np.fft.irfft2(1j * sig * u_hat, s=(n, n))
    return H


def _stray_sum_sq(grid: GridField) -> float:
    """Sum of |H|^2 over the grid by Parseval: the rfft2 columns other than
    0 and (n even) n/2 each stand for two."""
    u_hat, sig1, sig2 = _stray_spectrum(grid)
    p = (u_hat.real ** 2 + u_hat.imag ** 2) * (sig1 * sig1 + sig2 * sig2)
    p[:, 1:(grid.n + 1) // 2] *= 2.0
    return float(np.sum(p)) / grid.n ** 2


def _local_terms(grid: GridField, eps: float):
    """(Dirichlet, unit-length penalty, m3 term) over the masked cells.

    Each reads the values on the mask's window (_mask_window) plus a
    one-cell halo, which wraps around the box on an axis the stored block
    spans, so the central differences are slices of it and cost nothing
    outside the window.  The masked cells reach np.sum in the order of the
    full grid, so every sum has the bits of the full-grid formula (np.roll
    differences summed over values[mask] of the zero-embedded box)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    win = _mask_window(grid)
    if win is None:
        return 0.0, 0.0, 0.0
    i0, i1, j0, j1 = win
    n, h, h2 = grid.n, grid.h, grid.h * grid.h
    mask = grid.mask[i0:i1, j0:j1]
    # a halo index wraps only where the block spans the box: elsewhere the
    # mask keeps off the block's edge cells (GridField)
    rows = (np.arange(i0 - 1, i1 + 1) % n)[:, None]
    cols = np.arange(j0 - 1, j1 + 1) % n
    density = np.zeros(mask.shape)
    norm2 = np.zeros(mask.shape)
    for c in range(3):
        v = grid.values[rows, cols, c]
        gx = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2 * h)
        gy = (v[1:-1, 2:] - v[1:-1, :-2]) / (2 * h)
        density += gx * gx + gy * gy
        norm2 += v[1:-1, 1:-1] * v[1:-1, 1:-1]
    m3 = v[1:-1, 1:-1]     # the last plane read
    dirichlet = 0.5 * eps * float(np.sum(density[mask])) * h2
    penalty = 0.5 / eps * float(np.sum(((1.0 - norm2) ** 2)[mask])) * h2
    m3_term = 0.5 / eps * float(np.sum((m3 ** 4)[mask])) * h2
    return dirichlet, penalty, m3_term


def evaluate_F_eps(grid: GridField, eps: float) -> EnergyBreakdown:
    """Elastic + stray-field + unit-length penalty + third-component terms.

    The two-term energy of the same grid is ``dirichlet + penalty``."""
    dirichlet, penalty, m3_term = _local_terms(grid, eps)
    h2 = grid.h * grid.h
    magnetostatic = 0.5 / eps * _stray_sum_sq(grid) * h2
    total = dirichlet + magnetostatic + penalty + m3_term
    return EnergyBreakdown(dirichlet=dirichlet, magnetostatic=magnetostatic,
                           penalty=penalty, m3_term=m3_term, total=total,
                           epsilon=eps)


def evaluate_E_AG(grid: GridField, eps: float) -> EnergyBreakdown:
    """Elastic + unit-length penalty only."""
    dirichlet, penalty, _ = _local_terms(grid, eps)
    return EnergyBreakdown(dirichlet=dirichlet, magnetostatic=0.0,
                           penalty=penalty, m3_term=0.0,
                           total=dirichlet + penalty, epsilon=eps)


def stray_field_l2(grid: GridField) -> float:
    return math.sqrt(_stray_sum_sq(grid) * grid.h * grid.h)
