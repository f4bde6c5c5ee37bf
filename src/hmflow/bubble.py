"""The static bubble family and its derived closed-form quantities.

The degree-m harmonic map angle is Q(r) = pi - 2 arctan(r^m), rescaled as
Q^s(r) = Q(r/s).  Everything else in the package is anchored to it:
h = sin(Q) and hhat = cos(Q) have rational closed forms, Q solves the
first-order equation Q_r + (m/r) sin(Q) = 0, and E(Q) = 2m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .grid import RadialField, RadialGrid, check_degree, differentiate

# (r/s)^(2m) above this is treated as infinite; keeps h, hhat at their
# closed-form limits and preserves h^2 + hhat^2 = 1
_POW_CAP = 1e300


@dataclass(frozen=True)
class BubbleProfile:
    """Degree m and scale s parameterizing Q^s."""

    m: int
    s: float = 1.0

    def __post_init__(self):
        check_degree(self.m)
        if not (self.s > 0):
            raise ContractViolation(f"scale must be positive, got {self.s}")


def _rho_pow(profile: BubbleProfile, r, power: int):
    """(r/s)^power via exp/log, clamped against overflow."""
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        out = np.exp(power * (np.log(r) - np.log(profile.s)))
    return np.minimum(out, _POW_CAP)


def eval_Q_offset(profile: BubbleProfile, r):
    """Bubble offset Q^s - pi = -2 arctan((r/s)^m), exact near the origin
    where Q^s itself rounds to pi."""
    return -2.0 * np.arctan(_rho_pow(profile, r, profile.m))


def eval_Q(profile: BubbleProfile, r):
    """Bubble angle pi - 2 arctan((r/s)^m)."""
    return np.pi + eval_Q_offset(profile, r)


def eval_h(profile: BubbleProfile, r):
    """sin of the bubble angle: 2 (r/s)^m / (1 + (r/s)^2m)."""
    rho_m = _rho_pow(profile, r, profile.m)
    with np.errstate(over="ignore"):
        return 2.0 * rho_m / (1.0 + rho_m * rho_m)


def eval_hhat(profile: BubbleProfile, r):
    """cos of the bubble angle: ((r/s)^2m - 1) / ((r/s)^2m + 1)."""
    rho_2m = _rho_pow(profile, r, 2 * profile.m)
    return (rho_2m - 1.0) / (rho_2m + 1.0)


def eval_Q_deriv(profile: BubbleProfile, r):
    """Analytic Q_r = -(m/r) h, from the first-order equation."""
    return -(profile.m / np.asarray(r, dtype=float)) * eval_h(profile, r)


def sample_Q(profile: BubbleProfile, grid: RadialGrid) -> RadialField:
    """Q^s sampled on the grid, as a degree-m field (inner limit pi)."""
    return RadialField(grid, eval_Q_offset(profile, grid.nodes),
                       inner_limit=np.pi)


def sample_h(profile: BubbleProfile, grid: RadialGrid) -> RadialField:
    return RadialField(grid, eval_h(profile, grid.nodes))


def bogomolny_residual(profile: BubbleProfile, grid: RadialGrid,
                       finite_difference: bool = False) -> float:
    """Max of |Q_r + (m/r) sin(Q)| over the grid.

    Analytic mode uses the closed-form derivative and is zero up to
    rounding; finite-difference mode measures the stencil error instead.
    """
    q = sample_Q(profile, grid)
    if finite_difference:
        qr = differentiate(q).values
    else:
        qr = eval_Q_deriv(profile, grid.nodes)
    res = qr + (profile.m / grid.nodes) * np.sin(q.values)
    return float(np.max(np.abs(res)))


def derivative_identity_residuals(profile: BubbleProfile, r):
    """Residuals of h_r = -(m/r) h hhat and hhat_r = (m/r) h^2, evaluated
    with the analytic chain-rule derivatives (zero up to rounding)."""
    r = np.asarray(r, dtype=float)
    m = profile.m
    h = eval_h(profile, r)
    hh = eval_hhat(profile, r)
    qr = eval_Q_deriv(profile, r)
    h_r = np.cos(eval_Q(profile, r)) * qr
    hh_r = -np.sin(eval_Q(profile, r)) * qr
    return (float(np.max(np.abs(h_r + (m / r) * h * hh))),
            float(np.max(np.abs(hh_r - (m / r) * h * h))))


def energy_of_Q(m: int, grid: RadialGrid) -> float:
    """Quadrature of the bubble energy; converges to 2m.

    Uses the analytic derivative so the result isolates quadrature error:
    the integrand is Q_r^2 + m^2 h^2 / r^2 = 2 m^2 h^2 / r^2.
    """
    profile = BubbleProfile(m)
    h = eval_h(profile, grid.nodes)
    integrand = (m * m) * (h / grid.nodes) ** 2
    return grid.integrate(integrand)
