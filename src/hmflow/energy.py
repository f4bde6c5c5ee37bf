"""Energies, norms, sector classification and concentration monitors.

All integrals are against the measure r dr on the half-line.  The degree m
enters every functional and is passed explicitly (fields do not carry it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ContractViolation, SectorError
from .grid import RadialField, RadialGrid, differentiate

E0_LABEL = "E0"
E1_LABEL = "E1"
OTHER_LABEL = "Other"


@dataclass
class EnergyBreakdown:
    total: float
    dirichlet: float
    potential: float
    window: Optional[Tuple[float, float, float]] = None  # (r1, r2, windowed E)


@dataclass
class SectorClass:
    label: str
    delta1: Optional[float] = None  # margin 2 E(Q) - E(u) for E0 data


def energy_density(grid: RadialGrid, offset: np.ndarray,
                   m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dirichlet and potential halves of the energy density at the nodes,
    u_r^2 / 2 and m^2 sin^2(u) / (2 r^2), and the sine of the offset.

    Takes the offset u - inner_limit: it has the derivative and sin^2 of u,
    since the two differ by 0 or pi.  Every energy in the package (the
    breakdown, its windows, the exterior energy, the evolve gate and the
    half-energy radius) integrates these two halves, so they all agree to
    the last digit.  The sine of the offset is +-sin(u); it is returned for
    the next IMEX1 step, whose F'(u) uses only its square.
    """
    u_r = grid.derivative(offset)
    sin_off = np.sin(offset)
    return 0.5 * u_r**2, 0.5 * (m * sin_off / grid.nodes) ** 2, sin_off


def integrate_density(grid: RadialGrid, dir_dens: np.ndarray,
                      pot_dens: np.ndarray) -> EnergyBreakdown:
    """Breakdown of the two density halves of ``energy_density`` against
    the r dr weights."""
    dirichlet = float(np.dot(grid.weights, dir_dens))
    potential = float(np.dot(grid.weights, pot_dens))
    return EnergyBreakdown(dirichlet + potential, dirichlet, potential)


def energy(field: RadialField, m: int,
           r1: Optional[float] = None, r2: Optional[float] = None) -> EnergyBreakdown:
    """Energy (u_r^2 + m^2 sin^2 u / r^2)/2 integrated over r dr.

    With r1/r2 given, additionally reports the energy restricted to nodes in
    [r1, r2); windows built from half-open node masks add up exactly.
    """
    g = field.grid
    dir_dens, pot_dens, _ = energy_density(g, field.offset, m)
    out = integrate_density(g, dir_dens, pot_dens)
    if r1 is not None or r2 is not None:
        lo = 0.0 if r1 is None else r1
        hi = np.inf if r2 is None else r2
        if not lo < hi:
            raise ContractViolation(f"need r1 < r2, got {lo}, {hi}")
        mask = (g.nodes >= lo) & (g.nodes < hi)
        ew = float(np.dot(g.weights[mask], dir_dens[mask] + pot_dens[mask]))
        out.window = (lo, hi, ew)
    return out


def x2_norm(field: RadialField, m: int) -> float:
    """Energy-space norm: sqrt of  integral (u_r^2 + m^2 u^2/r^2) r dr."""
    g = field.grid
    u_r = differentiate(field).values
    sq = g.integrate(u_r**2 + (m * field.values / g.nodes) ** 2)
    return float(np.sqrt(max(sq, 0.0)))


def xp_norm(field: RadialField, m: int, p: float) -> float:
    """||u_r||_p^p + m^p ||u/r||_p^p to the 1/p (sum of sups at p = inf)."""
    if p < 1:
        raise ContractViolation(f"need p >= 1, got {p}")
    g = field.grid
    u_r = differentiate(field).values
    if np.isinf(p):
        return g.lp_norm(u_r, p) + g.lp_norm(field.values / g.nodes, p)
    return float((g.lp_norm(u_r, p) ** p
                  + m**p * g.lp_norm(field.values / g.nodes, p) ** p) ** (1.0 / p))


def rlp_norm(field: RadialField, p: float) -> float:
    """||u/r||_{L^p(r dr)}."""
    if p < 1:
        raise ContractViolation(f"need p >= 1, got {p}")
    return field.grid.lp_norm(field.values / field.grid.nodes, p)


def classify(field: RadialField, m: int) -> SectorClass:
    """Sector of the field from its inner limit and energy.

    Thresholds use the exact bubble energy E(Q) = 2m: the below-threshold
    sector requires E < 4m with inner limit 0; the degree-m sector requires
    E <= 6m with inner limit pi.  Every degree-m map has E >= 2m (the
    Bogomolny bound), so the sector has no lower edge: one would reject
    only quadrature error, which puts an exact bubble just below 2m.
    """
    e = energy(field, m).total
    eq = 2.0 * m
    if field.inner_limit == 0.0 and e < 2 * eq:
        return SectorClass(E0_LABEL, delta1=2 * eq - e)
    if field.inner_limit == np.pi and e <= 3 * eq:
        return SectorClass(E1_LABEL)
    return SectorClass(OTHER_LABEL)


def g_functional(u, m: int):
    """G(u) = integral of m |sin| from 0 to u: odd, increasing, G(pi) = 2m."""
    u = np.asarray(u, dtype=float)
    a = np.abs(u)
    k = np.floor(a / np.pi)
    v = a - k * np.pi
    # 1 - cos v written as 2 sin^2(v/2), which keeps full relative accuracy
    # for small v.
    return np.sign(u) * m * (2.0 * k + 2.0 * np.sin(0.5 * v) ** 2)


def g_inverse(y, m: int):
    """Inverse of the monotone functional G, computed from the closed form."""
    y = np.asarray(y, dtype=float)
    a = np.abs(y)
    k = np.floor(a / (2.0 * m))
    rem = a - 2.0 * m * k
    # Invert rem = 2m sin^2(v/2) with arcsin, not arccos(1 - rem/m), so that
    # small angles are recovered without cancellation.
    v = 2.0 * np.arcsin(np.sqrt(np.clip(rem / (2.0 * m), 0.0, 1.0)))
    return np.sign(y) * (k * np.pi + v)


def pointwise_bound_check(field: RadialField, m: int, delta1: float):
    """Pointwise sup bound that below-threshold data must satisfy.

    For a field in the zero-degree sector with E(u) <= 4m - delta1, returns
    (delta2, ok) where delta2 = pi - G^{-1}(2m - delta1/2) and ok checks
    sup |u| <= pi - delta2 on the nodes.
    """
    if delta1 <= 0:
        raise ContractViolation(f"delta1 must be positive, got {delta1}")
    sector = classify(field, m)
    if sector.label != E0_LABEL:
        raise SectorError(f"pointwise bound applies to {E0_LABEL} data, "
                          f"field classifies as {sector.label}")
    if energy(field, m).total > 4.0 * m - delta1 + 1e-12:
        raise SectorError("field energy exceeds 4m - delta1")
    delta2 = np.pi - float(g_inverse(2.0 * m - 0.5 * delta1, m))
    ok = bool(np.max(np.abs(field.values)) <= np.pi - delta2 + 1e-12)
    return delta2, ok


def topological_bound_gap(field: RadialField, m: int) -> float:
    """E(u) - 2 |degree|, the gap in the topological energy lower bound.

    The degree m (cos u(inf) - cos u(0)) / 2 is m for inner limit pi and 0
    for inner limit 0, since u tends to 0 at infinity.  Equals the
    Bogomolny integral (1/2) integral (u_r +/- (m/r) sin u)^2 r dr up to
    quadrature error.
    """
    degree = m if field.inner_limit == np.pi else 0
    e_tot = energy(field, m).total
    gap = e_tot - 2.0 * degree
    if gap < -1e-6 * max(e_tot, 1.0):
        raise ContractViolation(f"topological bound violated: gap = {gap}")
    return gap


def smoothstep(x):
    """Cubic 0 -> 1 transition on [0, 1]."""
    t = np.clip(x, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def exterior_energy(field: RadialField, m: int, R: float) -> float:
    """Energy weighted by the cutoff psi(r/R), psi = 0 below 1 and 1 above 2
    with a cubic smoothstep between; monitors concentration at infinity."""
    g = field.grid
    if not (g.r_min < R < g.r_max):
        raise ContractViolation(f"R = {R} outside ({g.r_min}, {g.r_max})")
    psi = smoothstep(g.nodes / R - 1.0)
    dir_dens, pot_dens, _ = energy_density(g, field.offset, m)
    return float(np.dot(g.weights, psi * (dir_dens + pot_dens)))
