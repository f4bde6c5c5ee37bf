import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmflow
from conftest import same_bits
from hmflow import grid as grid_module
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
    # the operator bands divide by r^2 and the L4 monitor by r^4: r_min^4
    # must be a normal float, which holds down to r_min = 1.2213e-77;
    # r_min = 1e-200 used to pass check and end the run Aborted
    for n in (16, 64, 2048):
        g = build_grid(1.3e-77, 1e2, n)
        for bands in (g.operator_bands(1.0, 16.0), g.operator_bands(2.0, 0.0)):
            assert all(np.isfinite(b).all() for b in bands)
        assert np.isfinite(g.weights / g.nodes**4).all()
    for r_min in (1.2e-77, 1e-200):
        with pytest.raises(ConfigurationError, match="r_min"):
            build_grid(r_min, 1e2, 64)


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
    # reference assembled row by row from the stencils in x = ln r, with
    # c_i = 1/(2h r_i): centered interior rows (v_{i+1} - v_{i-1}) c_i and
    # one-sided second-order rows (-3, 4, -1) c_0 and (1, -4, 3) c_{n-1};
    # the arithmetic is the same, so the columns of derivative and the rows
    # of derivative_adjoint (one unit vector each) must agree with it
    # exactly
    g = build_grid(1e-3, 1e2, n)
    c = 0.5 / (g.log_step * g.nodes)
    ref = np.zeros((n, n))
    for i in range(1, n - 1):
        ref[i, i - 1] = -c[i]
        ref[i, i + 1] = c[i]
    ref[0, :3] = np.array([-3.0, 4.0, -1.0]) * c[0]
    ref[-1, -3:] = np.array([1.0, -4.0, 3.0]) * c[-1]
    unit = np.eye(n)
    cols = np.column_stack([g.derivative(e) for e in unit])
    assert np.array_equal(cols, ref)
    rows = np.column_stack([g.derivative_adjoint(e) for e in unit])
    assert np.array_equal(rows, ref.T)


_SYMMETRY_GRIDS = [(1e-3, 1e2, 16), (1e-4, 1e3, 2048), (1e-6, 1e2, 3072)]


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("r_min,r_max,n", _SYMMETRY_GRIDS)
def test_delta_m_interior_symmetric_in_weights(m, r_min, r_max, n):
    # w_i (Delta_m)_{i,i+1} = w_{i+1} (Delta_m)_{i+1,i} between interior
    # rows: the operator is symmetric in the r dr inner product there
    g = build_grid(r_min, r_max, n)
    sub, _, sup = g.operator_bands(1.0, float(m * m))
    w = g.weights
    upper = w[1:n - 2] * sup[1:n - 2]
    lower = w[2:n - 1] * sub[2:n - 1]
    assert np.max(np.abs(upper / lower - 1.0)) <= 1e-13


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("r_min,r_max,n", _SYMMETRY_GRIDS)
def test_delta_m_end_rows_symmetric_in_weights(m, r_min, r_max, n):
    # the tail-energy end rows keep the symmetry in the r dr weights for
    # the pairs (0, 1) and (n-2, n-1); a plain ghost-node row, whose r dr
    # weight is half an interior one, is off by a factor of 2 there
    g = build_grid(r_min, r_max, n)
    sub, _, sup = g.operator_bands(1.0, float(m * m))
    w = g.weights
    upper = w[[0, n - 2]] * sup[[0, n - 2]]
    lower = w[[1, n - 1]] * sub[[1, n - 1]]
    assert np.max(np.abs(upper / lower - 1.0)) <= 1e-13


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
    # sqrt(m^2) = |m| in the operator's tails but m in the energy's: a
    # negative degree would step a flow that does not descend E_h
    f = RadialField(default_grid, np.zeros(default_grid.n))
    for m in (0, -2, 2.5, np.nan):
        with pytest.raises(ContractViolation):
            apply_delta_m(f, m)


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
    for m in (0, -2, 2.5, np.nan):
        with pytest.raises(ContractViolation):
            solve_helmholtz(rhs, m, 0.1)


def test_origin_exponent(default_grid):
    g = default_grid
    for m in (1, 2, 3):
        f = RadialField(g, g.nodes**m * np.exp(-g.nodes**2))
        assert origin_exponent(f) == pytest.approx(m, abs=0.05)
    assert np.isnan(origin_exponent(RadialField(g, np.zeros(g.n))))


def test_shifted_band_cache_matches_fresh_grid():
    # one grid keeps the shifted bands of its latest (alpha, inv_square);
    # interleaved keys, potentials and ghost values must give exactly what
    # a fresh grid gives
    args = (1e-3, 1e2, 256)
    g = build_grid(*args)
    rhs = np.exp(-g.nodes) * np.sin(g.nodes)
    # a potential in the r dr-weighted units of the degree-m contract
    pot = 2.0 * g.weights / (1.0 + g.nodes**2)
    dt = 1e-2
    keys = [(dt, 4.0), (0.5 * dt, 4.0), (dt, 1.0)]
    calls = [(key, p, ghost) for key in keys + keys[::-1]
             for p in (None, pot) for ghost in (0.0, -np.pi)]
    for (alpha, inv_sq), p, ghost in calls:
        got = g.solve_shifted(rhs, alpha, inv_sq, ghost, potential=p)
        want = build_grid(*args).solve_shifted(rhs, alpha, inv_sq, ghost,
                                               potential=p)
        assert np.array_equal(got, want)
    # consecutive calls share a key, so bands dptsv had overwritten in
    # the cache would have shown above
    assert np.array_equal(rhs, np.exp(-g.nodes) * np.sin(g.nodes))
    # only the tail rows of inv_square > 0 make Op symmetric in the r dr
    # weights, so both contracts refuse inv_square = 0
    for p in (None, pot):
        with pytest.raises(ContractViolation, match="degree-m operator"):
            g.solve_shifted(rhs, dt, 0.0, potential=p)


def _backend(name):
    """``(ptsv, pttrf)`` of a fresh backend; the OpenBLAS one only where
    numpy bundles it."""
    backend = getattr(grid_module, f"_{name}_lapack")()
    if backend is None:
        pytest.skip("numpy bundles no OpenBLAS with the scipy_dptsv_64_, "
                    "scipy_dpttrf_64_ and scipy_dpttrs_64_ routines")
    return backend


def _use_backend(name, monkeypatch):
    """Route every solve through a fresh backend: dptsv and dpttrf/dpttrs
    alike, from one library."""
    backend = _backend(name)
    monkeypatch.setattr(grid_module, "_ptsv", backend[0])
    monkeypatch.setattr(grid_module, "_pttrf", backend[1])


@pytest.mark.parametrize("n", [16, 512, 2048, 8192])
def test_dptsv_backends_give_the_same_bits(n, monkeypatch):
    # random symmetric diagonally dominant systems, straight to each
    # backend's dptsv, then the solves of a grid
    rng = np.random.default_rng(n)
    systems = []
    for _ in range(5):
        e = rng.normal(size=n - 1)
        ends = np.abs(np.concatenate(([0.0], e))) + np.abs(np.append(e, 0.0))
        systems.append((ends + rng.uniform(0.1, 2.0, n), e,
                        rng.normal(size=n)))
    raw = {}
    for name in ("openblas", "scipy"):
        ptsv = _backend(name)[0]
        raw[name] = [ptsv(d.copy(), e.copy(), b.copy())
                     for d, e, b in systems]
    for (a, info_a), (b, info_b) in zip(raw["openblas"], raw["scipy"]):
        assert info_a == info_b == 0
        assert np.array_equal(a, b)
    solutions = {}
    for name in ("openblas", "scipy"):
        _use_backend(name, monkeypatch)
        # a fresh grid, so the factors cached by one backend are not reused
        g = build_grid(1e-4, 1e3, n)
        rhs = np.exp(-g.nodes) * np.sin(g.nodes)
        # a potential in the r dr-weighted units of the degree-m contract
        pot = 2.0 * g.weights / (1.0 + g.nodes**2)
        solutions[name] = [g.solve_shifted(rhs, 1e-2, 4.0, ghost, potential=p)
                           for p in (None, pot) for ghost in (0.0, -np.pi)]
    for a, b in zip(solutions["openblas"], solutions["scipy"]):
        assert np.isfinite(a).all()
        assert np.array_equal(a, b)


@pytest.mark.parametrize("backend", ["openblas", "scipy"])
def test_singular_shifted_system_raises_on_each_backend(backend, monkeypatch):
    _use_backend(backend, monkeypatch)
    g = build_grid(1e-3, 1e2, 17)
    # the dpttrf path (no potential): alpha = -1 gives W (I + Op), whose
    # diagonal w (1 + diag) is negative on the inner nodes, where diag ~
    # -(2/h^2 + m^2)/r^2; a positive definite matrix has a positive
    # diagonal
    _, diag, _ = g.operator_bands(1.0, 4.0)
    assert (1.0 + diag[0]) < 0.0
    with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
        g.solve_shifted(np.ones(17), -1.0, 4.0)


def _dense_shifted(g, alpha, inv_square):
    """I - alpha Op as a dense matrix."""
    sub, diag, sup = g.operator_bands(1.0, inv_square)
    return (np.diag(1.0 - alpha * diag)
            + np.diag(-alpha * sup[:-1], 1) + np.diag(-alpha * sub[1:], -1))


def _dense_newton(g, alpha, inv_square, potential):
    """W/alpha - W Op - diag(potential) as a dense matrix, W the r dr
    weights: the matrix that ``solve_shifted`` solves with a potential."""
    sub, diag, sup = g.operator_bands(1.0, inv_square)
    w = g.weights
    return (np.diag(w / alpha - w * diag - potential)
            + np.diag(-w[:-1] * sup[:-1], 1) + np.diag(-w[1:] * sub[1:], -1))


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("ghost", [0.0, -np.pi])
def test_solve_shifted_with_a_potential_matches_the_dense_solve(m, ghost):
    g = build_grid(1e-4, 1e3, 256)
    rng = np.random.default_rng(m)
    rhs = rng.normal(size=g.n) * np.exp(-0.1 * g.nodes)
    msq = float(m * m)
    sup_end = g.operator_bands(1.0, msq)[2][-1]
    # W F' = 2 m^2 tw sin^2 u of a bubble (tw the log-trapezoid weights),
    # and a random potential in [0, w m^2/r^2]
    off = -2.0 * np.arctan((g.nodes / 0.1) ** m)
    for pot in (2.0 * msq * g._trapz_log * np.sin(off) ** 2,
                msq * g.weights * rng.uniform(size=g.n) / g.nodes**2):
        for alpha in (1e-3, 1e-2):
            b = rhs.copy()
            b[-1] += g.weights[-1] * sup_end * ghost
            want = np.linalg.solve(_dense_newton(g, alpha, msq, pot), b)
            got = g.solve_shifted(rhs, alpha, msq, ghost, potential=pot)
            assert (np.linalg.norm(got - want)
                    <= 1e-10 * np.linalg.norm(want))


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("ghost", [0.0, -np.pi])
def test_solve_shifted_without_a_potential_matches_the_dense_solve(m, ghost):
    # the degree-m system without a potential goes through the cached
    # dpttrf and one dpttrs on W rhs; it must still solve I - alpha Op
    g = build_grid(1e-4, 1e3, 256)
    rng = np.random.default_rng(10 + m)
    rhs = rng.normal(size=g.n) * np.exp(-0.1 * g.nodes)
    msq = float(m * m)
    sup_end = g.operator_bands(1.0, msq)[2][-1]
    for alpha in (1e-3, 1e-2, 5e-3, 1e-3):
        b = rhs.copy()
        b[-1] += alpha * sup_end * ghost
        want = np.linalg.solve(_dense_shifted(g, alpha, msq), b)
        got = g.solve_shifted(rhs, alpha, msq, ghost)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        helm = solve_helmholtz(RadialField(g, rhs), m, alpha).values
        if ghost == 0.0:
            assert np.array_equal(helm, got)


@pytest.mark.parametrize("backend", ["openblas", "scipy"])
def test_indefinite_shifted_system_raises_on_each_backend(backend,
                                                          monkeypatch):
    _use_backend(backend, monkeypatch)
    # a potential (in W units) just above d_free = w/alpha - w diag on one
    # node makes that diagonal entry of the Newton matrix negative, so the
    # matrix is indefinite (but not singular, as the dense determinant
    # shows)
    g = build_grid(1e-3, 1e2, 64)
    _, diag, _ = g.operator_bands(1.0, 4.0)
    alpha = 1e-2
    w = g.weights
    pot = np.zeros(g.n)
    pot[30] = 1.001 * (w[30] / alpha - w[30] * diag[30])
    newton = _dense_newton(g, alpha, 4.0, pot)
    assert newton[30, 30] < 0.0
    assert np.linalg.slogdet(newton)[0] != 0.0
    with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
        g.solve_shifted(np.ones(g.n), alpha, 4.0, potential=pot)
    # the potential-free system of the same key still solves
    assert np.isfinite(g.solve_shifted(np.ones(g.n), alpha, 4.0)).all()


def test_solve_shifted_rejects_rhs_of_wrong_length():
    # dptsv and dpttrs get addresses into arrays sized from the grid
    g = build_grid(1e-3, 1e2, 32)
    for rhs, pot in ((np.ones(31), None), (np.ones(33), None),
                     (np.ones(32), np.ones(31))):
        with pytest.raises(ContractViolation):
            g.solve_shifted(rhs, 1e-2, 4.0, potential=pot)


@pytest.mark.parametrize("advection, inv_square",
                         [(1.0, 1.0), (1.0, 4.0), (1.0, 16.0), (3.0, 0.0),
                          (5.0, 0.0)])
@pytest.mark.parametrize("ghost", [0.0, -np.pi])
def test_apply_operator_keeps_the_bits_of_the_concatenation(advection,
                                                            inv_square, ghost):
    g = build_grid(1e-4, 1e3, 512)
    sub, diag, sup = g.operator_bands(advection, inv_square)
    rng = np.random.default_rng(7)
    values = rng.normal(size=g.n) * np.exp(-g.nodes)
    values[::9] = 0.0
    values[4::11] = -0.0
    values[0] = -0.0
    zeros = np.zeros(g.n)
    zeros[1::2] = -0.0
    for v in (values, -values, zeros, -zeros):
        vm = np.concatenate(([0.0], v[:-1]))
        vp = np.concatenate((v[1:], [ghost]))
        want = sub * vm + diag * v + sup * vp
        assert same_bits(g.apply_operator(v, advection, inv_square, ghost),
                         want)


def _fresh_dpttrs(g, rhs, alpha, inv_square, ghost):
    """The degree-m shifted system scaled by the r dr weights,
    W (I - alpha Op) u = W rhs, built anew and solved by scipy's dpttrf
    and dpttrs."""
    from scipy.linalg.lapack import dpttrf, dpttrs

    _, diag, sup = g.operator_bands(1.0, inv_square)
    w = g.weights
    b = w * rhs
    if ghost != 0.0:
        b[-1] += (alpha * (w[-1] * sup[-1])) * ghost
    d, e, info = dpttrf(w - alpha * (w * diag), alpha * -(w[:-1] * sup[:-1]))
    assert info == 0
    u, info = dpttrs(d, e, b)
    assert info == 0
    return u


@pytest.mark.parametrize("backend", ["openblas", "scipy"])
@pytest.mark.parametrize("n", [16, 512, 2048, 8192])
def test_cached_factorization_gives_the_bits_of_a_fresh_dpttrs(backend, n,
                                                              monkeypatch):
    # each key against a fresh dpttrf/dpttrs of the W-scaled system
    _use_backend(backend, monkeypatch)
    factorizations = []

    def counted(*bands, factor=grid_module._pttrf):
        factorizations.append(bands)
        return factor(*bands)

    monkeypatch.setattr(grid_module, "_pttrf", counted)
    g = build_grid(1e-4, 1e3, n)
    rhs = np.exp(-g.nodes) * np.sin(g.nodes)
    pot = 2.0 * g.weights / (1.0 + g.nodes**2)
    # alpha changes, and potential calls on the same key between the
    # potential-free ones, which must not disturb the stored factors
    for alpha in (1e-2, 5e-3, 1e-2, 2e-3):
        for ghost in (0.0, -np.pi, 0.0):
            want = _fresh_dpttrs(g, rhs, alpha, 4.0, ghost)
            assert same_bits(g.solve_shifted(rhs, alpha, 4.0, ghost), want)
            g.solve_shifted(rhs, alpha, 4.0, ghost, potential=pot)
            assert same_bits(g.solve_shifted(rhs, alpha, 4.0, ghost), want)
    # one factorization per key
    assert len(factorizations) == 4
    assert np.array_equal(rhs, np.exp(-g.nodes) * np.sin(g.nodes))


@pytest.mark.parametrize("backend", ["openblas", "scipy"])
def test_singular_potential_free_system_raises_on_each_backend(backend,
                                                               monkeypatch):
    _use_backend(backend, monkeypatch)
    # a unit diagonal with alpha = 1 zeroes the shifted diagonal exactly;
    # a tridiagonal matrix with zero diagonal and odd order is singular
    g = build_grid(1e-3, 1e2, 17)
    sub, _, sup = g.operator_bands(1.0, 4.0)
    monkeypatch.setattr(g, "operator_bands",
                        lambda advection, inv_square: (sub, np.ones(17), sup))
    for _ in range(2):
        with pytest.raises(np.linalg.LinAlgError):
            g.solve_shifted(np.ones(17), 1.0, 4.0)


_IMPORT_PROBE = """
import ctypes, json, sys
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "no-symbol":
    # a numpy whose linalg library lacks scipy_dptsv_64_ (numpy 1.x wheels)
    ctypes.CDLL = lambda path: object()
elif sys.argv[2] == "dptsv-only":
    # a library that exports scipy_dptsv_64_ but not dpttrf or dpttrs
    cdll = ctypes.CDLL

    class DptsvOnly:
        def __init__(self, path):
            self.scipy_dptsv_64_ = cdll(path).scipy_dptsv_64_

    ctypes.CDLL = DptsvOnly
import hmflow
print(json.dumps([[f.__qualname__.split(".")[0]
                   for f in (hmflow.grid._ptsv, hmflow.grid._pttrf)],
                  sorted(k for k in sys.modules if k.split(".")[0] == "scipy")]))
"""


def _import_in_fresh_interpreter(mode):
    src = str(Path(hmflow.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, src, mode],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _public_scipy_subpackages(modules):
    return {k.split(".")[1] for k in modules
            if "." in k and not k.split(".")[1].startswith("_")}


@pytest.mark.parametrize("mode", ["default", "no-symbol", "dptsv-only"])
def test_import_loads_scipy_only_for_the_fallback_backend(mode):
    backends, scipy_modules = _import_in_fresh_interpreter(mode)
    # a partial symbol set falls back as a whole
    backend = "_scipy_lapack"
    if mode == "default" and grid_module._openblas_lapack() is not None:
        backend = "_openblas_lapack"
    assert backends == [backend, backend]
    if backend == "_openblas_lapack":
        assert scipy_modules == []
    else:
        assert "scipy.linalg" in scipy_modules
        assert _public_scipy_subpackages(scipy_modules) <= {"linalg",
                                                            "version"}


@pytest.mark.parametrize("n", [16, 512, 2048, 8192])
def test_dpttrf_backends_give_the_same_bits(n):
    # random symmetric diagonally dominant systems, factored by each
    # backend's dpttrf and solved by its dpttrs; the grid's potential-free
    # solves on both backends are compared above
    rng = np.random.default_rng(n + 1)
    raw = {"openblas": [], "scipy": []}
    for _ in range(5):
        e = rng.normal(size=n - 1)
        ends = np.abs(np.concatenate(([0.0], e))) + np.abs(np.append(e, 0.0))
        d = ends + rng.uniform(0.1, 2.0, n)
        rhs = [rng.normal(size=n) for _ in range(3)]
        for name, out in raw.items():
            solve, info = _backend(name)[1](d.copy(), e.copy())
            assert info == 0
            out.extend(solve(b.copy()) for b in rhs)
    for a, b in zip(raw["openblas"], raw["scipy"]):
        assert np.isfinite(a).all()
        assert same_bits(a, b)


_PARTIAL_LIBRARY_PROBE = """
import ctypes, json, sys
sys.path.insert(0, sys.argv[1])
cdll = ctypes.CDLL


class Without:
    # numpy's linalg library less the one symbol named by argv[2]
    def __init__(self, path):
        self.lib = cdll(path)

    def __getattr__(self, name):
        if name == sys.argv[2]:
            raise AttributeError(name)
        return getattr(self.lib, name)


ctypes.CDLL = Without
import hmflow
print(json.dumps([f.__qualname__.split(".")[0]
                  for f in (hmflow.grid._ptsv, hmflow.grid._pttrf)]))
"""


@pytest.mark.parametrize("missing", ["none", "scipy_dptsv_64_",
                                     "scipy_dpttrf_64_", "scipy_dpttrs_64_"])
def test_a_library_without_one_of_the_three_routines_falls_back_as_a_whole(
        missing):
    if grid_module._openblas_lapack() is None:
        pytest.skip("numpy bundles no OpenBLAS with the three routines")
    src = str(Path(hmflow.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _PARTIAL_LIBRARY_PROBE, src,
                          missing],
                         check=True, capture_output=True, text=True).stdout
    backend = "_openblas_lapack" if missing == "none" else "_scipy_lapack"
    assert json.loads(out) == [backend] * 2
