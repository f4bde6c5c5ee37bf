import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmflow.errors import ConfigurationError, ContractViolation
from hmflow.grid import (RadialField, apply_delta_m, build_grid, differentiate,
                         origin_exponent, solve_helmholtz)


def test_quadrature_gaussian(default_grid):
    # integral_0^inf e^{-r^2} r dr = 1/2
    g = default_grid
    val = g.integrate(np.exp(-g.nodes**2))
    # the inner truncation alone costs r_min^2 / 2 = 5e-9
    assert abs(val - 0.5) <= 2e-8


def test_quadrature_higher_moment(default_grid):
    # integral_0^inf e^{-r^2} r^3 dr = 1/2
    g = default_grid
    val = g.integrate(np.exp(-g.nodes**2), power=3)
    assert abs(val - 0.5) <= 1e-7


def test_inner_product_matches_weights(default_grid):
    g = default_grid
    a = np.sin(g.nodes) * np.exp(-g.nodes)
    b = np.exp(-g.nodes**2)
    assert g.inner(a, b) == pytest.approx(float(np.dot(g.weights, a * b)))


def test_lp_norm_consistency(default_grid):
    g = default_grid
    a = np.exp(-g.nodes)
    assert g.lp_norm(a, 2.0) == pytest.approx(np.sqrt(g.integrate(a * a)))
    assert g.lp_norm(a, 4.0) == pytest.approx(g.integrate(a**4) ** 0.25)


@given(c1=st.floats(-3, 3), c2=st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_quadrature_is_linear(c1, c2):
    g = build_grid(1e-2, 10.0, 64)
    a = np.exp(-g.nodes)
    b = np.cos(g.nodes) * np.exp(-g.nodes**2)
    lhs = g.integrate(c1 * a + c2 * b)
    rhs = c1 * g.integrate(a) + c2 * g.integrate(b)
    assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)


def test_grid_construction_validation():
    with pytest.raises(ConfigurationError):
        build_grid(0.0, 1.0, 64)
    with pytest.raises(ConfigurationError):
        build_grid(-1e-3, 1.0, 64)
    with pytest.raises(ConfigurationError):
        build_grid(1.0, 0.5, 64)
    with pytest.raises(ConfigurationError):
        build_grid(np.nan, 1.0, 64)
    with pytest.raises(ConfigurationError):
        build_grid(1e-3, np.inf, 64)
    with pytest.raises(ConfigurationError):
        build_grid(1e-3, 1.0, 8)


def test_field_contract(default_grid):
    g = default_grid
    with pytest.raises(ContractViolation):
        RadialField(g, np.zeros(3))
    with pytest.raises(ContractViolation):
        RadialField(g, np.zeros(g.n), inner_limit=1.0)
    with pytest.raises(ContractViolation):
        RadialField(g, np.full(g.n, np.nan))
    f = RadialField(g, np.full(g.n, 2.0 - np.pi), inner_limit=np.pi)
    assert f.values[0] == pytest.approx(2.0)
    assert f.outer_ghost_offset() == pytest.approx(-np.pi)


def _derivative_error(n):
    g = build_grid(1e-4, 1e3, n)
    r = g.nodes
    f = RadialField(g, np.exp(-r**2))
    exact = -2.0 * r * np.exp(-r**2)
    got = differentiate(f).values
    win = (r > 10 * g.r_min) & (r < g.r_max / 10)
    return float(np.max(np.abs(got[win] - exact[win])))


def test_derivative_second_order():
    e1, e2 = _derivative_error(2048), _derivative_error(4096)
    assert e1 < 5e-5
    assert e1 / e2 > 3.0


@pytest.mark.parametrize("n", [16, 257])
def test_derivative_matches_row_stencils(n):
    # reference assembled row by row: centered interior rows, one-sided
    # second-order rows at both ends; the arithmetic is the same, so the
    # columns of derivative and the rows of derivative_adjoint (one unit
    # vector each) must agree with it exactly
    g = build_grid(1e-3, 1e2, n)
    r = g.nodes
    cm, c0, cp = g.derivative_coeffs()
    ref = np.zeros((n, n))
    for i in range(1, n - 1):
        ref[i, i - 1:i + 2] = (cm[i], c0[i], cp[i])
    h1, h2 = r[1] - r[0], r[2] - r[1]
    ref[0, :3] = (-(2 * h1 + h2) / (h1 * (h1 + h2)), (h1 + h2) / (h1 * h2),
                  -h1 / (h2 * (h1 + h2)))
    g1, g2 = r[-1] - r[-2], r[-2] - r[-3]
    ref[-1, -3:] = (g1 / (g2 * (g1 + g2)), -(g1 + g2) / (g1 * g2),
                    (2 * g1 + g2) / (g1 * (g1 + g2)))
    unit = np.eye(n)
    cols = np.column_stack([g.derivative(e) for e in unit])
    assert np.array_equal(cols, ref)
    rows = np.column_stack([g.derivative_adjoint(e) for e in unit])
    assert np.array_equal(rows, ref.T)


def _delta_m_error(m, n):
    g = build_grid(1e-4, 1e3, n)
    r = g.nodes
    e = np.exp(-r**2)
    u = r**m * e
    u_r = (m * r ** (m - 1) - 2 * r ** (m + 1)) * e
    u_rr = (m * (m - 1) * r ** (m - 2) - 2 * (2 * m + 1) * r**m
            + 4 * r ** (m + 2)) * e
    exact = u_rr + u_r / r - m * m * u / r**2
    got = apply_delta_m(RadialField(g, u), m).values
    win = (r > 10 * g.r_min) & (r < g.r_max / 10)
    return float(np.max(np.abs(got[win] - exact[win])))


def test_delta_m_second_order():
    e1, e2 = _delta_m_error(2, 2048), _delta_m_error(2, 4096)
    assert e1 < 2e-4
    assert e1 / e2 > 3.0


def test_delta_m_rejects_bad_degree(default_grid):
    f = RadialField(default_grid, np.zeros(default_grid.n))
    with pytest.raises(ContractViolation):
        apply_delta_m(f, 0)


def test_helmholtz_roundtrip(default_grid):
    g = default_grid
    rhs = RadialField(g, np.exp(-g.nodes))
    u = solve_helmholtz(rhs, 2, 0.01)
    back = u.values - 0.01 * apply_delta_m(u, 2).values
    # the m^2/r^2 rows amplify roundoff by ~alpha/r_min^2
    assert float(np.max(np.abs(back - rhs.values))) < 1e-9


def test_helmholtz_validation(default_grid):
    rhs = RadialField(default_grid, np.zeros(default_grid.n))
    with pytest.raises(ContractViolation):
        solve_helmholtz(rhs, 2, -0.1)
    with pytest.raises(ContractViolation):
        solve_helmholtz(rhs, 0, 0.1)


def test_origin_exponent(default_grid):
    g = default_grid
    for m in (1, 2, 3):
        f = RadialField(g, g.nodes**m * np.exp(-g.nodes**2))
        assert origin_exponent(f) == pytest.approx(m, abs=0.05)
    assert np.isnan(origin_exponent(RadialField(g, np.zeros(g.n))))


def test_shifted_band_cache_matches_fresh_grid():
    # one grid keeps the shifted bands of its latest (alpha, advection,
    # inv_square); interleaved keys, potentials and ghost values must give
    # exactly what a fresh grid gives
    args = (1e-3, 1e2, 256)
    g = build_grid(*args)
    rhs = np.exp(-g.nodes) * np.sin(g.nodes)
    pot = 2.0 / (1.0 + g.nodes**2)
    dt, m, d = 1e-2, 2, 6
    keys = [(dt, 1.0, float(m * m)), (0.5 * dt, 1.0, float(m * m)),
            (dt, float(d - 1), 0.0)]
    calls = [(key, p, ghost) for key in keys + keys[::-1]
             for p in (None, pot) for ghost in (0.0, -np.pi)]
    for (alpha, adv, inv_sq), p, ghost in calls:
        got = g.solve_shifted(rhs, alpha, adv, inv_sq, ghost, potential=p)
        want = build_grid(*args).solve_shifted(rhs, alpha, adv, inv_sq, ghost,
                                               potential=p)
        assert np.array_equal(got, want)
    # consecutive calls share a key, so bands dgtsv had overwritten in
    # the cache would have shown above
    assert np.array_equal(rhs, np.exp(-g.nodes) * np.sin(g.nodes))
