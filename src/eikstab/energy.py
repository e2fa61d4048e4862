"""Grid energies: stray-field solve, mollified fields, epsilon functionals.

The upper-bound construction rasterizes a unit field on a padded square
box, smooths it at a chosen width, and evaluates the elastic, stray-field,
and penalty terms with central differences and a spectral Poisson solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .fields import UnitField, eval_many


@dataclass
class GridField:
    bbox: tuple          # (x0, x1, y0, y1), square
    n: int
    h: float
    values: np.ndarray   # (n, n, 3), first index along x
    mask: np.ndarray     # (n, n) bool, cell centers inside the domain
    meta: Dict

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


def _square_box(curve, pad: float):
    x0, x1, y0, y1 = curve.bbox()
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    half = 0.5 * max(x1 - x0, y1 - y0) * (1.0 + 2.0 * pad)
    return (cx - half, cx + half, cy - half, cy + half)


def raster_field(field: UnitField, grid_n: int, pad: float = 0.5) -> GridField:
    """Sample the field (analytically extended) on a padded square grid."""
    if grid_n < 1:
        raise ValueError("need grid_n >= 1 cells per side")
    curve = field.domain
    box = _square_box(curve, pad)
    h = (box[1] - box[0]) / grid_n
    fx = box[0] + h * (np.arange(grid_n) + 0.5)
    fy = box[2] + h * (np.arange(grid_n) + 0.5)
    values = np.zeros((grid_n, grid_n, 3))
    mask = np.zeros((grid_n, grid_n), dtype=bool)
    # evaluate in row blocks; per-point work scales with the piece count
    block = max(1, (1 << 18) // grid_n)
    for i0 in range(0, grid_n, block):
        i1 = min(i0 + block, grid_n)
        P = np.stack(np.meshgrid(fx[i0:i1], fy, indexing="ij"),
                     axis=-1).reshape(-1, 2)
        m, _ = eval_many(field, P, extend=True)
        values[i0:i1, :, 0] = m[:, 0].reshape(i1 - i0, grid_n)
        values[i0:i1, :, 1] = m[:, 1].reshape(i1 - i0, grid_n)
        mask[i0:i1, :] = curve.inside(P).reshape(i1 - i0, grid_n)
    return GridField(bbox=box, n=grid_n, h=h, values=values, mask=mask,
                     meta={"pad": pad, "field_kind": field.kind})


def _bump_kernel(grid: GridField, eps: float) -> np.ndarray:
    """Normalized compactly supported C-infinity bump on the grid."""
    n, h = grid.n, grid.h
    k = np.fft.fftfreq(n, d=1.0 / n) * h   # signed cell offsets
    X, Y = np.meshgrid(k, k, indexing="ij")
    r2 = (X * X + Y * Y) / (eps * eps)
    w = np.zeros((n, n))
    inside = r2 < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return w / w.sum()


def mollify_field(field: UnitField, eps: float, grid_n: int,
                  pad: float = 0.5) -> GridField:
    """Rasterize and convolve with a smooth bump of width eps; m3 = 0."""
    grid = raster_field(field, grid_n, pad=pad)
    if eps < 4.0 * grid.h:
        raise ValueError("mollification width under-resolved: eps < 4h")
    ker = np.fft.rfft2(_bump_kernel(grid, eps))
    for c in range(2):
        grid.values[:, :, c] = np.fft.irfft2(
            np.fft.rfft2(grid.values[:, :, c]) * ker, s=(grid.n, grid.n))
    grid.meta["eps"] = eps
    return grid


def _mask_gaps(grid: GridField):
    rows = np.flatnonzero(grid.mask.any(axis=1))
    cols = np.flatnonzero(grid.mask.any(axis=0))
    if len(rows) == 0:
        return None
    h = grid.h
    x0, x1, y0, y1 = grid.bbox
    mx0 = x0 + h * rows[0]
    mx1 = x0 + h * (rows[-1] + 1)
    my0 = y0 + h * cols[0]
    my1 = y0 + h * (cols[-1] + 1)
    return (mx0 - x0, x1 - mx1, my0 - y0, y1 - my1), (mx1 - mx0, my1 - my0)


def solve_stray_field(grid: GridField) -> np.ndarray:
    """H = grad u with Delta u = -div(m 1_mask), periodic box, FFT.

    Compact five-point Laplacian symbol with central-difference divergence
    and gradient: no even/odd decoupling, O(h^2) consistency.  Needs the
    box to pad the masked region by at least half its extent per side;
    the leftover periodic-image error is second order in the padding.
    """
    gaps = _mask_gaps(grid)
    if gaps is not None:
        (gl, gr, gb, gt), (ex, ey) = gaps
        if gl < 0.5 * ex - 1e-9 or gr < 0.5 * ex - 1e-9 \
                or gb < 0.5 * ey - 1e-9 or gt < 0.5 * ey - 1e-9:
            raise ValueError("box must pad the masked region by >= 50% per side")
    n, h = grid.n, grid.h
    M1 = grid.values[:, :, 0] * grid.mask
    M2 = grid.values[:, :, 1] * grid.mask
    k_full = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
    k_half = k_full[: n // 2 + 1]
    sig1 = (np.sin(k_full * h) / h)[:, None]
    sig2 = (np.sin(k_half * h) / h)[None, :]
    lap = ((2.0 - 2.0 * np.cos(k_full * h)) / h ** 2)[:, None] \
        + ((2.0 - 2.0 * np.cos(k_half * h)) / h ** 2)[None, :]
    lap[0, 0] = 1.0
    u_hat = 1j * (sig1 * np.fft.rfft2(M1) + sig2 * np.fft.rfft2(M2)) / lap
    u_hat[0, 0] = 0.0
    H = np.empty((n, n, 2))
    H[:, :, 0] = np.fft.irfft2(1j * sig1 * u_hat, s=(n, n))
    H[:, :, 1] = np.fft.irfft2(1j * sig2 * u_hat, s=(n, n))
    return H


def _dirichlet_density(grid: GridField) -> np.ndarray:
    v = grid.values
    h = grid.h
    out = np.zeros((grid.n, grid.n))
    for c in range(3):
        gx = (np.roll(v[:, :, c], -1, axis=0) - np.roll(v[:, :, c], 1, axis=0)) / (2 * h)
        gy = (np.roll(v[:, :, c], -1, axis=1) - np.roll(v[:, :, c], 1, axis=1)) / (2 * h)
        out += gx * gx + gy * gy
    return out


def _local_terms(grid: GridField, eps: float):
    """(Dirichlet, unit-length penalty) over the masked cells."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    h2 = grid.h * grid.h
    mask = grid.mask
    dirichlet = 0.5 * eps * float(np.sum(_dirichlet_density(grid)[mask])) * h2
    # |m|^2 summed plane by plane: no (n, n, 3) temporary
    v = grid.values
    norm2 = v[:, :, 0] * v[:, :, 0] + v[:, :, 1] * v[:, :, 1] + v[:, :, 2] * v[:, :, 2]
    penalty = 0.5 / eps * float(np.sum(((1.0 - norm2) ** 2)[mask])) * h2
    return dirichlet, penalty


def evaluate_F_eps(grid: GridField, eps: float) -> EnergyBreakdown:
    """Elastic + stray-field + unit-length penalty + third-component terms.

    The two-term energy of the same grid is ``dirichlet + penalty``."""
    dirichlet, penalty = _local_terms(grid, eps)
    H = solve_stray_field(grid)
    h2 = grid.h * grid.h
    magnetostatic = 0.5 / eps * float(np.sum(H * H)) * h2
    m3_term = 0.5 / eps * float(np.sum((grid.values[:, :, 2] ** 4)[grid.mask])) * h2
    total = dirichlet + magnetostatic + penalty + m3_term
    return EnergyBreakdown(dirichlet=dirichlet, magnetostatic=magnetostatic,
                           penalty=penalty, m3_term=m3_term, total=total,
                           epsilon=eps)


def evaluate_E_AG(grid: GridField, eps: float) -> EnergyBreakdown:
    """Elastic + unit-length penalty only."""
    dirichlet, penalty = _local_terms(grid, eps)
    return EnergyBreakdown(dirichlet=dirichlet, magnetostatic=0.0,
                           penalty=penalty, m3_term=0.0,
                           total=dirichlet + penalty, epsilon=eps)


def stray_field_l2(grid: GridField) -> float:
    H = solve_stray_field(grid)
    return math.sqrt(float(np.sum(H * H)) * grid.h * grid.h)
