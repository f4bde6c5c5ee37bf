import numpy as np
import pytest

from hmflow.errors import SectorError
from hmflow.grid import RadialField, build_grid, solve_helmholtz
from hmflow.lift import (LiftedField, apply_radial_laplacian,
                         commutation_residual, lift, norm_identity_check,
                         sphere_area_constant, unlift)


def _smooth_field(grid, m, sigma=1.0):
    rho = grid.nodes / sigma
    return RadialField(grid, rho**m * np.exp(-(rho**2)))


def test_lift_unlift_roundtrip(default_grid):
    u = _smooth_field(default_grid, 2)
    v = lift(u, 2)
    assert v.dimension == 6
    back = unlift(v, 2)
    assert np.max(np.abs(back.values - u.values)) < 1e-14


def test_lift_rejects_degree_sector(default_grid):
    u = RadialField(default_grid, np.full(default_grid.n, -np.pi / 2),
                    inner_limit=np.pi)
    with pytest.raises(SectorError):
        lift(u, 2)


def test_commutation_residual_second_order():
    e1 = commutation_residual(_smooth_field(build_grid(1e-4, 1e3, 2048), 2), 2)
    e2 = commutation_residual(_smooth_field(build_grid(1e-4, 1e3, 4096), 2), 2)
    assert e1 < 1e-3
    assert e1 / e2 > 3.0


def test_sphere_area_constants():
    assert sphere_area_constant(2) == pytest.approx(2 * np.pi)
    assert sphere_area_constant(3) == pytest.approx(4 * np.pi)
    assert sphere_area_constant(4) == pytest.approx(2 * np.pi**2)
    assert sphere_area_constant(6) == pytest.approx(np.pi**3)


def test_norm_identity(default_grid):
    # ||u/r||_{L^p(r dr)} equals the lifted L^p norm against r^{d-1} dr
    u = _smooth_field(default_grid, 2)
    lhs, rhs, const = norm_identity_check(u, 2)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert const == pytest.approx(sphere_area_constant(6))


def _gaussian_heat_exact(grid, m, sigma, t):
    d = 2 * m + 2
    s2 = sigma**2 + 4.0 * t
    amp = (sigma**2 / s2) ** (d / 2.0)
    return amp * grid.nodes**m * np.exp(-grid.nodes**2 / s2)


def test_helmholtz_step_matches_the_lifted_heat_flow(default_grid):
    # one implicit Euler step of Delta_m ~ the lifted d = 6 Gaussian heat
    # solution + O(dt^2)
    u = _smooth_field(default_grid, 2)
    dt = 1e-4
    exact = _gaussian_heat_exact(default_grid, 2, 1.0, dt)
    got = solve_helmholtz(u, 2, dt).values
    win = (default_grid.nodes > 1e-3) & (default_grid.nodes < 1e2)
    assert np.max(np.abs(got[win] - exact[win])) < 5e-6


def test_lifted_laplacian_matches_exact(default_grid):
    g = default_grid
    v = lift(_smooth_field(g, 2), 2)
    # Lap_6 e^{-r^2} = (4 r^2 - 2 d) e^{-r^2}
    exact = (4.0 * g.nodes**2 - 12.0) * np.exp(-g.nodes**2)
    got = apply_radial_laplacian(v)
    win = (g.nodes > 10 * g.r_min) & (g.nodes < g.r_max / 10)
    assert np.max(np.abs(got[win] - exact[win])) < 1e-3


def test_radial_laplacian_is_finite_on_the_widest_grids():
    # the grid admits r_min down to 1.3e-77 and r_max up to 1.1e77, where
    # r^2 and r^-2 are still finite
    for r_min, r_max in ((1.3e-77, 1e2), (1e-3, 1.1e77)):
        for n in (16, 64, 2048):
            g = build_grid(r_min, r_max, n)
            got = apply_radial_laplacian(LiftedField(g, np.ones(n), 3))
            assert np.isfinite(got).all()


def _forced_linear_error(dt, n=2048, m=2, t_end=0.1):
    g = build_grid(1e-4, 1e3, n)
    # e^{t Delta_m} by implicit Euler steps of the linear operator alone
    off = _smooth_field(g, m).offset
    steps = round(t_end / dt)
    for _ in range(steps):
        off = solve_helmholtz(RadialField(g, off), m, dt).offset
    exact = _gaussian_heat_exact(g, m, 1.0, steps * dt)
    win = (g.nodes > 10 * g.r_min) & (g.nodes < g.r_max / 10)
    return float(np.max(np.abs(off[win] - exact[win])))


def test_linear_flow_matches_closed_form():
    # e^{t Delta_m} u0 equals the lifted d = 2m+2 Gaussian heat solution
    # within O(dt) + O(h^2); halving dt roughly halves the error
    e1, e2 = _forced_linear_error(2e-3), _forced_linear_error(1e-3)
    assert e1 < 5e-3
    assert e1 / e2 > 1.5
