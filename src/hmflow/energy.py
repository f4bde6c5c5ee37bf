"""Energies, norms, sector classification and concentration monitors.

Every energy is the discrete E_h of ``node_energies``, whose exact gradient
in the r dr weights is the discrete Delta_m + F that the flow steps up to
``tail_gradient_gap``; norms integrate against r dr.  E_h's value, its
gradient (``neg_gradient``) and its Hessian diagonal (``hessian_potential``)
live here.  The degree m enters every functional and is passed explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .bubble import BubbleProfile, sample_Q
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


def sin_terms(offset: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(sin^2 v, sin v cos v) of the offset v from one tangent T = tan v:
    sin v cos v = T / (1 + T^2), and sin^2 v = T times that.  The step
    needs both: sin^2 for E_h and F' = (2 m^2/r^2) sin^2 u, sin cos for
    F = (m^2/r^2)(u - sin u cos u).  A non-finite v gives NaN in both."""
    t, sin_cos = _tan_sin_cos(offset)
    t *= sin_cos
    return t, sin_cos


def _tan_sin_cos(offset: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(tan v, sin v cos v): ``sin_terms`` before it forms sin^2, for a
    caller that needs sin v cos v alone."""
    t = np.tan(offset)
    sin_cos = t * t
    sin_cos += 1.0
    np.divide(t, sin_cos, out=sin_cos)
    return t, sin_cos


def node_energies(grid: RadialGrid, offset: np.ndarray, m: int,
                  inner: float) -> Tuple[np.ndarray, np.ndarray]:
    """Dirichlet and potential halves of E_h at the nodes, for the offset
    v = u - inner.  With h the log step and tw the trapezoid weights in
    x = ln r,
        E_h = sum_i (v_{i+1} - v_i)^2 / (2h) + 2m sin^2(v_0/2)
              + (m/2) (v_{n-1} + inner)^2 + sum_i tw_i m^2 sin^2(v_i) / 2.
    Each edge gives half its energy to each end; the tails (inside r_0 that
    of the bubble through v_0, so E_h of a bubble does not rise as it
    shrinks toward r_0; outside r_{n-1} the r^-m law's) are split evenly
    between the halves, as in the continuum.  Every energy the package
    reports sums these node energies, so all agree to the last digit;
    ``gate_energy`` forms their sum without the node arrays.  sin^2 is that
    of ``sin_terms``, one tangent, as in the gate.  Operations are in place.
    """
    edge = np.diff(offset)
    edge *= edge
    edge *= 0.25 / grid.log_step
    dir_e = np.empty(grid.n)
    dir_e[:-1] = edge
    dir_e[-1] = 0.0
    dir_e[1:] += edge
    pot_e = sin_terms(offset)[0]
    pot_e *= grid._trapz_log
    pot_e *= 0.5 * m * m
    tail0 = m * np.sin(0.5 * offset[0]) ** 2
    tail1 = 0.25 * m * (offset[-1].item() + inner) ** 2
    for e in (dir_e, pot_e):
        e[0] += tail0
        e[-1] += tail1
    return dir_e, pot_e


def gate_energy(grid: RadialGrid, offset: np.ndarray, edges: np.ndarray,
                sin_sq: np.ndarray, m: int, inner: float) -> float:
    """E_h, the sum of ``node_energies``, from edges = np.diff(offset) and
    sin_sq = sin^2(offset) by dot products: edge j carries
    (v_{j+1} - v_j)^2 / (2h).  The stepper passes the sin_sq of
    ``sin_terms``, whose one tangent per trial also gives the next step's
    F and F'.  Equal to the node sum up to rounding, not bit for bit."""
    edge_sq = float(np.dot(edges, edges))
    sin_sum = float(np.dot(grid._trapz_log, sin_sq))
    return ((0.5 / grid.log_step) * edge_sq + 0.5 * m * m * sin_sum
            + 2.0 * m * np.sin(0.5 * offset[0]) ** 2
            + 0.5 * m * (offset[-1] + inner) ** 2)


def gradient_weights(grid: RadialGrid,
                     m: int) -> Tuple[np.ndarray, np.ndarray]:
    """(m^2 tw, 2 m^2 tw), tw the log-trapezoid weights, which turn sin v cos v
    and sin^2 v into rows of ``neg_gradient`` and ``hessian_potential``."""
    msq_tw = m * m * grid._trapz_log
    return msq_tw, 2.0 * msq_tw


def neg_gradient(grid: RadialGrid, offset: np.ndarray, edges: np.ndarray,
                 sin_cos: np.ndarray, m: int, ghost: float,
                 msq_tw: np.ndarray) -> np.ndarray:
    """-grad E_h of the offset v, in a new array, from edges = np.diff(v),
    sin_cos of ``sin_terms``, msq_tw of ``gradient_weights`` and ghost =
    -inner: row i is (e_i - e_{i-1})/h - m^2 tw_i sin v_i cos v_i less the
    tail gradients m sin v_0 and m (v_{n-1} - ghost): W (Delta_m + F) of
    ``RadialGrid.operator_bands`` plus ``tail_gradient_gap``, to rounding."""
    out = np.empty(offset.shape[0])
    np.subtract(edges[1:], edges[:-1], out=out[1:-1])
    out[0] = edges[0]
    out[-1] = 0.0 - edges[-1]
    out *= 1.0 / grid.log_step
    out -= msq_tw * sin_cos
    out[0] -= m * np.sin(offset[0])
    out[-1] -= m * (offset[-1].item() - ghost)
    return out


def tail_gradient_gap(m: int, v0: float) -> float:
    """m (v_0 - sin v_0), -grad E_h less W (Delta_m + F) at node 0, whose
    row of ``operator_bands`` differentiates the tail (m/2) v_0^2."""
    return m * (v0 - np.sin(v0))


def hessian_potential(sin_sq: np.ndarray, fp_tw: np.ndarray, m: int,
                      v0: float) -> np.ndarray:
    """W F'(u) = 2 m^2 tw sin^2 u (fp_tw of ``gradient_weights``) plus the
    inner tail's m (1 - cos v_0) at node 0: with Op of ``operator_bands``,
    -grad^2 E_h, the Jacobian of ``neg_gradient``, is W Op + diag(this)."""
    out = fp_tw * sin_sq
    out[0] += m * (1.0 - np.cos(v0))
    return out


def integrate_density(dir_e: np.ndarray, pot_e: np.ndarray) -> EnergyBreakdown:
    """Breakdown of the two halves of ``node_energies``."""
    dirichlet, potential = float(dir_e.sum()), float(pot_e.sum())
    return EnergyBreakdown(dirichlet + potential, dirichlet, potential)


def energy(field: RadialField, m: int,
           r1: Optional[float] = None, r2: Optional[float] = None) -> EnergyBreakdown:
    """The discrete energy E_h of ``node_energies``, which approximates
    (u_r^2 + m^2 sin^2 u / r^2)/2 integrated over r dr.

    With r1/r2 given, additionally reports the energy of the nodes in
    [r1, r2); windows built from half-open node masks add up exactly.
    """
    g = field.grid
    dir_e, pot_e = node_energies(g, field.offset, m, field.inner_limit)
    out = integrate_density(dir_e, pot_e)
    if r1 is not None or r2 is not None:
        lo = 0.0 if r1 is None else r1
        hi = np.inf if r2 is None else r2
        if not lo < hi:
            raise ContractViolation(f"need r1 < r2, got {lo}, {hi}")
        mask = (g.nodes >= lo) & (g.nodes < hi)
        ew = float(np.sum(dir_e[mask] + pot_e[mask]))
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
    only discretization error, which puts E_h of an exact bubble just below
    2m (the trapezoid rule underestimates the potential of the concave sin).
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


def _half_turn_radius(g: RadialGrid, off: np.ndarray, m: int) -> float:
    """Radius where the angle pi + off first drops through pi/2,
    log-interpolated; NaN where the grid shows no such crossing.  Where
    node 0 is already past it, the half-turn radius r_0 tan(-v_0/2)^(-1/m)
    of the bubble through v_0, the bubble whose energy E_h's inner tail
    counts (finite and positive for v_0 <= -pi too)."""
    # argmax is 0 both when no node lies below and when node 0 does
    i = int((off < -0.5 * math.pi).argmax())
    if i == 0:
        v0 = off[0].item()
        if not v0 < -0.5 * math.pi:
            return np.nan
        return g.r_min * math.tan(min(-0.5 * v0, 0.5 * math.pi)) ** (-1.0 / m)
    v0, v1 = off[i - 1].item(), off[i].item()
    w = (v0 + 0.5 * math.pi) / (v0 - v1)
    return math.exp((1 - w) * math.log(g.nodes[i - 1].item())
                    + w * math.log(g.nodes[i].item()))


def topological_bound_gap(field: RadialField, m: int) -> float:
    """E_h(u) - E_h(Q^s), the gap in the topological energy lower bound.

    For degree-m data (inner limit pi) the bound is the energy of the
    bubble, E(Q) = 2m in the continuum; on the grid it is E_h of the bubble
    Q^s sampled at the field's half-turn radius s (the grid's geometric
    mid-point when the field has none), since E_h(Q^s) differs from 2m by
    discretization error.  Zero-degree data has degree 0 and gap E_h(u).
    """
    g = field.grid
    e_tot = energy(field, m).total
    gap = e_tot
    if field.inner_limit == np.pi:
        s = _half_turn_radius(g, field.offset, m)
        if not np.isfinite(s):
            s = float(np.sqrt(g.r_min * g.r_max))
        gap = e_tot - energy(sample_Q(BubbleProfile(m, s), g), m).total
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
    dir_e, pot_e = node_energies(g, field.offset, m, field.inner_limit)
    return float(np.dot(psi, dir_e + pot_e))
