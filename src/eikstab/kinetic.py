"""Entropies, wall costs, and the dissipation of piecewise-smooth fields.

The dissipation functional is evaluated through its jump disintegration:
each jump segment contributes length times a cost density in the trace
amplitude, and smooth regions contribute nothing (verified by disk flux
probes of the entropy fields).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .fields import UnitField, jump_distance, split_circle_flux

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Entropy:
    """An entropy: a map phi on the circle with generator lam.

    The defining relation d/dtheta phi(e^{i theta}) = lam(theta) i e^{i theta}
    is checkable through check_entropy.  For the half-circle construction f
    is the base density and phi integrates f e^{is} over {z . e^{is} > 0}.
    """

    kind: str
    phi: Callable[[np.ndarray], np.ndarray]
    lam: Callable[[np.ndarray], np.ndarray]
    f: Optional[Callable[[np.ndarray], np.ndarray]] = None
    breakpoints: Tuple[float, ...] = ()


def _unit_check(z):
    z = np.asarray(z, dtype=float)
    if abs(math.hypot(z[0], z[1]) - 1.0) > 1e-9:
        raise ValueError("entropy argument must be a unit vector")
    return z


def phi_f_eval(f, z, breakpoints: Sequence[float] = ()) -> np.ndarray:
    """Integral of f(s) e^{is} over the half-circle {s : z . e^{is} > 0}.

    The endpoints are the exact tangency angles (z-angle +- pi/2); interior
    kinks of f can be passed as absolute angles for the quadrature to split.
    """
    from scipy.integrate import quad

    z = _unit_check(z)
    th = math.atan2(z[1], z[0])
    lo, hi = th - math.pi / 2, th + math.pi / 2
    pts = sorted({lo, hi} | {
        b + TWO_PI * k
        for b in breakpoints for k in range(-2, 3)
        if lo < b + TWO_PI * k < hi})
    cx = quad(lambda s: f(s) * math.cos(s), lo, hi, points=pts,
              limit=200, epsabs=1e-13, epsrel=1e-12)[0]
    cy = quad(lambda s: f(s) * math.sin(s), lo, hi, points=pts,
              limit=200, epsabs=1e-13, epsrel=1e-12)[0]
    return np.array([cx, cy])


def entropy_phi_f(f, breakpoints: Sequence[float] = (),
                  kind: str = "phi_f") -> Entropy:
    bp = tuple(float(b) for b in breakpoints)

    def phi(z):
        return phi_f_eval(f, z, bp)

    def lam(theta):
        theta = np.asarray(theta, dtype=float)
        return f(theta + math.pi / 2) + f(theta - math.pi / 2)

    return Entropy(kind=kind, phi=phi, lam=lam, f=f, breakpoints=bp)


def entropy_sigma1() -> Entropy:
    def phi(z):
        z = _unit_check(z)
        return (4.0 / 3.0) * np.array([z[1] ** 3, z[0] ** 3])

    def lam(theta):
        return -2.0 * np.sin(2.0 * np.asarray(theta, dtype=float))

    return Entropy(kind="sigma1", phi=phi, lam=lam)


def entropy_sigma2() -> Entropy:
    def phi(z):
        z = _unit_check(z)
        m1, m2 = z
        return (2.0 / 3.0) * np.array(
            [-m1 ** 3 - 3.0 * m1 * m2 ** 2, m2 ** 3 + 3.0 * m2 * m1 ** 2])

    def lam(theta):
        return 2.0 * np.cos(2.0 * np.asarray(theta, dtype=float))

    return Entropy(kind="sigma2", phi=phi, lam=lam)


def half_wave_g(s):
    """pi-periodic triangle wave: pi/4 - |s - pi/4| on [-pi/4, 3pi/4)."""
    u = (np.asarray(s, dtype=float) - math.pi / 4) % math.pi
    u = np.where(u >= math.pi / 2, u - math.pi, u)
    return math.pi / 4 - np.abs(u)


def entropy_half_wave(sigma: float) -> Entropy:
    def f(s):
        return 0.5 * half_wave_g(np.asarray(s, dtype=float) - sigma)

    # kinks of g(. - sigma) sit at sigma + pi/4 + k pi/2
    bp = tuple((sigma + math.pi / 4 + k * math.pi / 2) % TWO_PI
               for k in range(4))
    return entropy_phi_f(f, bp, kind="half_wave")


def check_entropy(entropy: Entropy, n_angles: int = 64,
                  h: float = 3e-5) -> float:
    """Max deviation of the finite-difference derivative relation.

    Returns sup over angles of |dphi/dtheta - lam(theta) i e^{i theta}|.
    """
    worst = 0.0
    for theta in np.linspace(0.0, TWO_PI, n_angles, endpoint=False):
        zp = np.array([math.cos(theta + h), math.sin(theta + h)])
        zm = np.array([math.cos(theta - h), math.sin(theta - h)])
        d = (entropy.phi(zp) - entropy.phi(zm)) / (2.0 * h)
        ie = np.array([-math.sin(theta), math.cos(theta)])
        worst = max(worst, float(np.hypot(*(d - float(entropy.lam(theta)) * ie))))
    return worst


def wall_cost_ars(amplitude: float) -> float:
    """Optimal wall cost density as a function of the jump amplitude."""
    if not 0.0 <= amplitude <= 2.0:
        raise ValueError("amplitude must lie in [0, 2]")
    X = math.asin(amplitude / 2.0)
    if X <= math.pi / 4:
        return 2.0 * abs(math.sin(X) - X * math.cos(X))
    return 2.0 * abs((X - math.pi / 2) * math.cos(X) - math.sin(X) + SQRT2)


def wall_cost_cubic(amplitude: float) -> float:
    """Cubic upper-bound cost density: amplitude cubed."""
    if not 0.0 <= amplitude <= 2.0:
        raise ValueError("amplitude must lie in [0, 2]")
    return amplitude ** 3


def cost_table(num: int = 201) -> np.ndarray:
    """Sampled cost curves with columns (amplitude, ars, cubic)."""
    amps = np.linspace(0.0, 2.0, num)
    return np.column_stack([
        amps,
        [wall_cost_ars(a) for a in amps],
        [wall_cost_cubic(a) for a in amps]])


@dataclass(frozen=True)
class DissipationReport:
    nu_total: float
    per_segment: List[tuple]
    cost_kind: str


def nu_total(field: UnitField, cost_kind: str = "ars_wall") -> DissipationReport:
    """Dissipation of a field with analytic jump set, by closed per-segment sums.

    ars_wall doubles the wall integral (the dissipation counts both wall
    orientations); cubic reports the plain cubed-amplitude surrogate.
    """
    if cost_kind not in ("ars_wall", "cubic"):
        raise ValueError("cost_kind must be 'ars_wall' or 'cubic'")
    rows = []
    total = 0.0
    for i, seg in enumerate(field.jump_set):
        if cost_kind == "ars_wall":
            dens = wall_cost_ars(seg.amplitude)
            contrib = 2.0 * seg.length * dens
        else:
            dens = wall_cost_cubic(seg.amplitude)
            contrib = seg.length * dens
        rows.append((i, seg.length, seg.amplitude, dens, contrib))
        total += contrib
    return DissipationReport(nu_total=total, per_segment=rows,
                             cost_kind=cost_kind)


def _entropy_kink_segments(field: UnitField, entropy: Entropy):
    """Rays along which phi(m(x)) loses smoothness for kinked densities.

    The half-circle endpoints hit a kink of f when the field direction is a
    breakpoint -+ pi/2; around each vortex-like center that locus is a ray.
    """
    if not entropy.breakpoints:
        return []
    psis = {(b + math.pi / 2) % TWO_PI for b in entropy.breakpoints}
    psis |= {(b - math.pi / 2) % TWO_PI for b in entropy.breakpoints}
    segs = []
    for p in field.patches:
        for psi in psis:
            ang = psi - p.alpha * math.pi / 2
            e = np.array([math.cos(ang), math.sin(ang)])
            segs.append((p.center, p.center + 8.0 * e))
    return segs


def entropy_disk_flux(field: UnitField, entropy: Entropy, center,
                      radius: float) -> float:
    """Flux of phi(m) through a circle lying in a smooth region."""
    center = np.asarray(center, dtype=float)
    d = jump_distance(field, center[None, :])[0]
    if d <= radius + 1e-9:
        raise ValueError("probe disk touches the jump set")
    thetas = np.linspace(0.0, TWO_PI, 128, endpoint=False)
    ring = center + radius * np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
    if not np.all(field.domain.inside(ring)):
        raise ValueError("probe circle leaves the domain")
    return split_circle_flux(
        field, center, radius, lambda vals: np.array([entropy.phi(v) for v in vals]),
        _entropy_kink_segments(field, entropy))


def entropy_production(field: UnitField, entropy: Entropy,
                       test_disks: Sequence[tuple] = ()) -> float:
    """Total mass of |div phi(m)|: jump-trace defects plus disk probes.

    The jump part is exact (constant traces per segment); every requested
    smooth-region disk adds its |flux|, which vanishes for entropies of
    divergence-free unit fields.
    """
    total = 0.0
    for seg in field.jump_set:
        n_J = np.array([-math.sin(seg.theta_J), math.cos(seg.theta_J)])
        d_phi = entropy.phi(np.asarray(seg.m_plus, float)) - \
            entropy.phi(np.asarray(seg.m_minus, float))
        total += seg.length * abs(float(d_phi @ n_J))
    for center, radius in test_disks:
        total += abs(entropy_disk_flux(field, entropy, center, radius))
    return total


def production_sweep(field: UnitField, n_sigma: int = 32) -> Tuple[float, float]:
    """Max over sigma of the half-wave entropy production; returns (max, argmax)."""
    best, arg = -1.0, 0.0
    for sigma in np.linspace(0.0, math.pi, n_sigma, endpoint=False):
        p = entropy_production(field, entropy_half_wave(float(sigma)))
        if p > best:
            best, arg = p, float(sigma)
    return best, arg
