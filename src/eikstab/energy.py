"""Grid energies: stray-field solve, mollified fields, epsilon functionals.

The upper-bound construction rasterizes a unit field on a padded square
box, smooths it at a chosen width, and evaluates the elastic, stray-field,
and penalty terms with central differences and a spectral Poisson solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import UnitField, eval_many


@dataclass
class GridField:
    bbox: tuple          # (x0, x1, y0, y1), square
    n: int
    h: float
    values: np.ndarray   # (n, n, 3), first index along x
    mask: np.ndarray     # (n, n) bool, cell centers inside the domain

    def __post_init__(self):
        if self.values.shape != (self.n, self.n, 3):
            raise ValueError("values must be (n, n, 3)")
        if self.mask.shape != (self.n, self.n):
            raise ValueError("mask must be (n, n)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def cell_centers(self):
        x0, x1, y0, y1 = self.bbox
        fx = x0 + self.h * (np.arange(self.n) + 0.5)
        fy = y0 + self.h * (np.arange(self.n) + 0.5)
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


def raster_field(field: UnitField, grid_n: int) -> GridField:
    """Sample the field (analytically extended) on a square grid: the
    domain's bounding box made square and padded by half its side at each
    end."""
    if grid_n < 1:
        raise ValueError("need grid_n >= 1 cells per side")
    curve = field.domain
    x0, x1, y0, y1 = curve.bbox()
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    half = max(x1 - x0, y1 - y0)
    box = (cx - half, cx + half, cy - half, cy + half)
    h = (box[1] - box[0]) / grid_n
    fx = box[0] + h * (np.arange(grid_n) + 0.5)
    fy = box[2] + h * (np.arange(grid_n) + 0.5)
    values = np.zeros((grid_n, grid_n, 3))
    mask = np.zeros((grid_n, grid_n), dtype=bool)
    # evaluate in row blocks of about 2^15 cells: each temporary plane
    # (256 KB) stays in cache and its allocation reuses freed memory
    block = max(1, (1 << 15) // grid_n)
    for i0 in range(0, grid_n, block):
        i1 = min(i0 + block, grid_n)
        P = np.stack(np.meshgrid(fx[i0:i1], fy, indexing="ij"),
                     axis=-1).reshape(-1, 2)
        m, _ = eval_many(field, P)
        values[i0:i1, :, 0] = m[:, 0].reshape(i1 - i0, grid_n)
        values[i0:i1, :, 1] = m[:, 1].reshape(i1 - i0, grid_n)
        mask[i0:i1, :] = curve.inside(P).reshape(i1 - i0, grid_n)
    return GridField(bbox=box, n=grid_n, h=h, values=values, mask=mask)


def _bump_kernel(grid: GridField, eps: float) -> np.ndarray:
    """Normalized compactly supported C-infinity bump on the grid."""
    n, h = grid.n, grid.h
    k = np.fft.fftfreq(n, d=1.0 / n) * h   # signed cell offsets
    # the rows and columns that hold every cell with r2 < 1, kept in order:
    # exp sees the full-grid formula's inputs in its order (the same bits)
    sup = np.flatnonzero(k * k / (eps * eps) < 1.0)
    X, Y = np.meshgrid(k[sup], k[sup], indexing="ij")
    r2 = (X * X + Y * Y) / (eps * eps)
    bump = np.zeros(r2.shape)
    inside = r2 < 1.0
    bump[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    w = np.zeros((n, n))
    w[np.ix_(sup, sup)] = bump
    return w / w.sum()


def mollify_field(field: UnitField, eps: float, grid_n: int) -> GridField:
    """Rasterize and convolve with a smooth bump of width eps; m3 = 0."""
    grid = raster_field(field, grid_n)
    if eps < 4.0 * grid.h:
        raise ValueError("mollification width under-resolved: eps < 4h")
    ker = np.fft.rfft2(_bump_kernel(grid, eps))
    for c in range(2):
        spec = np.fft.rfft2(grid.values[:, :, c])
        spec *= ker
        # irfft2's two passes, so at most two spectra live beside the kernel's
        spec = np.fft.ifft(spec, axis=0)
        grid.values[:, :, c] = np.fft.irfft(spec, grid.n, axis=1)
        del spec
    return grid


def _mask_window(grid: GridField):
    """(i0, i1, j0, j1): the rows i0 <= i < i1 and columns j0 <= j < j1
    that hold every masked cell, or None when the mask is empty."""
    rows = np.flatnonzero(grid.mask.any(axis=1))
    if len(rows) == 0:
        return None
    cols = np.flatnonzero(grid.mask.any(axis=0))
    return rows[0], rows[-1] + 1, cols[0], cols[-1] + 1


def _mask_gaps(grid: GridField):
    win = _mask_window(grid)
    if win is None:
        return None
    i0, i1, j0, j1 = win
    h = grid.h
    x0, x1, y0, y1 = grid.bbox
    mx0, mx1 = x0 + h * i0, x0 + h * i1
    my0, my1 = y0 + h * j0, y0 + h * j1
    return (mx0 - x0, x1 - mx1, my0 - y0, y1 - my1), (mx1 - mx0, my1 - my0)


def _stray_spectrum(grid: GridField):
    """(u_hat, sig1, sig2), where H_c = irfft2(1j * sig_c * u_hat)."""
    gaps = _mask_gaps(grid)
    if gaps is not None:
        (gl, gr, gb, gt), (ex, ey) = gaps
        if gl < 0.5 * ex - 1e-9 or gr < 0.5 * ex - 1e-9 \
                or gb < 0.5 * ey - 1e-9 or gt < 0.5 * ey - 1e-9:
            raise ValueError("box must pad the masked region by >= 50% per side")
    n, h = grid.n, grid.h
    k_full = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
    k_half = k_full[: n // 2 + 1]
    sig1 = (np.sin(k_full * h) / h)[:, None]
    sig2 = (np.sin(k_half * h) / h)[None, :]
    # F_c = rfft2(m_c * mask) in its two passes (same calls, same bits), so
    # each masked plane is freed before the column pass; then in place:
    # u_hat = 1j * (sig1 * F1 + sig2 * F2) / lap, products in that order
    u_hat, spec = (np.fft.fft(np.fft.rfft(grid.values[:, :, c] * grid.mask,
                                          axis=1), axis=0) for c in (0, 1))
    lap = ((2.0 - 2.0 * np.cos(k_full * h)) / h ** 2)[:, None] \
        + ((2.0 - 2.0 * np.cos(k_half * h)) / h ** 2)[None, :]
    lap[0, 0] = 1.0
    u_hat *= sig1
    spec *= sig2
    u_hat += spec
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
    one-cell periodic halo, so the central differences are slices of it
    and cost nothing outside the window.  The masked cells reach np.sum in
    the order of the full grid, so every sum has the bits of the full-grid
    formula (np.roll differences summed over grid.values[mask])."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    win = _mask_window(grid)
    if win is None:
        return 0.0, 0.0, 0.0
    i0, i1, j0, j1 = win
    n, h, h2 = grid.n, grid.h, grid.h * grid.h
    mask = grid.mask[i0:i1, j0:j1]
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
