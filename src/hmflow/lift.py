"""Change of variables v = u / r^m linking the corotational problem to the
radial heat equation in dimension d = 2m + 2.

Used purely as a verification oracle: the linear flow of the singular
operator in 2d corresponds to plain radial heat flow in d dimensions, and
certain weighted norms of u/r match d-dimensional Lebesgue norms of v up to
the angular surface constant (carried explicitly, never absorbed).
Production solves stay in the angle variable, since degree-m sector data
cannot be lifted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SectorError
from .grid import RadialField, RadialGrid


@dataclass
class LiftedField:
    grid: RadialGrid
    values: np.ndarray  # v(r_i) = u(r_i) / r_i^m
    dimension: int      # 2m + 2


def lift(u: RadialField, m: int) -> LiftedField:
    """Nodewise u / r^m; requires trivial-topology data so v stays bounded."""
    if u.inner_limit != 0.0:
        raise SectorError("only inner_limit = 0 fields can be lifted")
    return LiftedField(u.grid, u.values / u.grid.nodes**m, 2 * m + 2)


def unlift(v: LiftedField, m: int) -> RadialField:
    """Exact inverse of lift at the nodes."""
    return RadialField(v.grid, v.values * v.grid.nodes**m)


def apply_radial_laplacian(v: LiftedField) -> np.ndarray:
    """v_rr + ((d-1)/r) v_r, r^-2 (d_x^2 + (d-2) d_x) in x = ln r, by its
    centered 3-point rows with zero ghost values: the lift's own stencil,
    apart from the degree-m operator of the grid that it checks."""
    h, a1, vals = v.grid.log_step, v.dimension - 2.0, v.values
    inv_r2 = 1.0 / v.grid.nodes**2
    sub = (1.0 / h**2 - 0.5 * a1 / h) * inv_r2
    diag = (-2.0 / h**2) * inv_r2
    sup = (1.0 / h**2 + 0.5 * a1 / h) * inv_r2
    return (sub * np.concatenate(([0.0], vals[:-1])) + diag * vals
            + sup * np.concatenate((vals[1:], [0.0])))


def commutation_residual(u: RadialField, m: int) -> float:
    """Max over the interior window of |Delta_m u - r^m Lap_d (u/r^m)|.

    Pure discretization error for smooth data; decreases at second order.
    The window [10 r_min, r_max/10] excludes the ghost-closure rows.
    """
    from .grid import apply_delta_m

    g = u.grid
    lhs = apply_delta_m(u, m).values
    rhs = g.nodes**m * apply_radial_laplacian(lift(u, m))
    win = (g.nodes > 10 * g.r_min) & (g.nodes < g.r_max / 10)
    return float(np.max(np.abs(lhs[win] - rhs[win])))


def sphere_area_constant(d: int) -> float:
    """Surface area of the unit sphere in R^d (the angular constant between
    half-line r^{d-1} dr integrals and full R^d integrals)."""
    return float(2.0 * np.pi ** (d / 2.0) / math.gamma(d / 2.0))


def norm_identity_check(u: RadialField, m: int):
    """Single-time version of the norm identity behind the lift.

    Returns (lhs, rhs, angular_constant): lhs = ||u/r||_{L^p(r dr)} with
    p = 2m/(m-1), rhs = the L^p norm of v against r^{d-1} dr in d = 2m+2,
    and the sphere-area constant whose p-th root converts rhs to the full
    R^d norm.  lhs and rhs agree identically in the continuum.
    """
    if m < 2:
        raise SectorError("norm identity needs m >= 2 (p = 2m/(m-1))")
    g = u.grid
    p = 2.0 * m / (m - 1.0)
    d = 2 * m + 2
    lhs = g.lp_norm(u.values / g.nodes, p)
    v = lift(u, m)
    rhs = g.integrate(np.abs(v.values) ** p, power=d - 1) ** (1.0 / p)
    return float(lhs), float(rhs), sphere_area_constant(d)
