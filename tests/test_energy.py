import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_bump
from hmflow.bubble import BubbleProfile, sample_Q
from hmflow.energy import (classify, energy, exterior_energy, g_functional,
                           g_inverse, pointwise_bound_check, rlp_norm,
                           smoothstep, topological_bound_gap, x2_norm,
                           xp_norm)
from hmflow.errors import ContractViolation, SectorError
from hmflow.grid import RadialField


def test_energy_breakdown_sums(default_grid):
    f = RadialField(default_grid, gaussian_bump(default_grid))
    eb = energy(f, 2)
    assert eb.total == pytest.approx(eb.dirichlet + eb.potential)
    assert eb.dirichlet > 0 and eb.potential > 0


def test_energy_of_bubble_sample(default_grid):
    # the sampled bubble (stencil derivative) still lands near 2m
    f = sample_Q(BubbleProfile(2), default_grid)
    assert energy(f, 2).total == pytest.approx(4.0, rel=1e-4)


def test_energy_window_additivity(default_grid):
    f = RadialField(default_grid, gaussian_bump(default_grid))
    total = energy(f, 2).total
    lo = energy(f, 2, r1=0.0, r2=1.0).window[2]
    hi = energy(f, 2, r1=1.0, r2=np.inf).window[2]
    assert lo + hi == pytest.approx(total, rel=1e-12)


def test_energy_window_validation(default_grid):
    f = RadialField(default_grid, gaussian_bump(default_grid))
    with pytest.raises(ContractViolation):
        energy(f, 2, r1=2.0, r2=1.0)


def test_x2_norm_small_angle_limit(default_grid):
    # for small fields sin u ~ u, so 2 E ~ ||u||_{X^2}^2
    f = RadialField(default_grid, 1e-4 * gaussian_bump(default_grid))
    assert x2_norm(f, 2) ** 2 == pytest.approx(2 * energy(f, 2).total, rel=1e-6)


def test_norm_validation(default_grid):
    f = RadialField(default_grid, gaussian_bump(default_grid))
    with pytest.raises(ContractViolation):
        xp_norm(f, 2, 0.5)
    with pytest.raises(ContractViolation):
        rlp_norm(f, 0.5)
    assert xp_norm(f, 2, 2.0) > 0
    assert rlp_norm(f, 4.0) > 0


def test_classify_sectors(default_grid):
    g = default_grid
    small = RadialField(g, 0.3 * gaussian_bump(g))
    assert classify(small, 2).label == "E0"
    assert classify(small, 2).delta1 == pytest.approx(
        8.0 - energy(small, 2).total)
    bub = sample_Q(BubbleProfile(2), g)
    assert classify(bub, 2).label == "E1"
    # the quadrature energy of an exact bubble lies just below 2m for
    # m = 3 and 4 (-6.2e-5 and -2.8e-4 here); it is still degree-m data
    for m in (3, 4):
        assert classify(sample_Q(BubbleProfile(m), g), m).label == "E1"
    big = RadialField(g, 4.0 * gaussian_bump(g))
    assert classify(big, 2).label not in ("E0",) or energy(big, 2).total < 8.0


def test_g_functional_landmarks():
    for m in (1, 2, 3):
        assert g_functional(np.pi, m) == pytest.approx(2.0 * m)
        assert g_functional(-np.pi, m) == pytest.approx(-2.0 * m)
        assert g_functional(0.0, m) == 0.0
        assert g_functional(np.pi / 2, m) == pytest.approx(m)


@given(u=st.floats(-10.0, 10.0), m=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_g_inverse_roundtrip(u, m):
    assert float(g_inverse(g_functional(u, m), m)) == pytest.approx(
        u, abs=1e-9)


def test_g_functional_monotone():
    u = np.linspace(-8, 8, 2001)
    assert np.all(np.diff(g_functional(u, 2)) > 0)


def test_pointwise_bound(default_grid):
    g = default_grid
    f = RadialField(g, 0.5 * gaussian_bump(g))
    delta2, ok = pointwise_bound_check(f, 2, delta1=1.6)
    assert 0 < delta2 < np.pi
    assert ok
    with pytest.raises(ContractViolation):
        pointwise_bound_check(f, 2, delta1=-1.0)
    bub = sample_Q(BubbleProfile(2), g)
    with pytest.raises(SectorError):
        pointwise_bound_check(bub, 2, delta1=1.6)


def test_topological_bound_gap(default_grid):
    g = default_grid
    # the bubble saturates the bound: gap ~ quadrature error
    bub = sample_Q(BubbleProfile(2), g)
    assert abs(topological_bound_gap(bub, 2)) < 1e-3
    # zero-degree data: gap equals the full energy
    f = RadialField(g, gaussian_bump(g))
    assert topological_bound_gap(f, 2) == pytest.approx(energy(f, 2).total)


def test_smoothstep_shape():
    assert smoothstep(-1.0) == 0.0
    assert smoothstep(0.0) == 0.0
    assert smoothstep(0.5) == pytest.approx(0.5)
    assert smoothstep(1.0) == 1.0
    assert smoothstep(2.0) == 1.0
    x = np.linspace(0, 1, 200)
    assert np.all(np.diff(smoothstep(x)) >= 0)


def test_exterior_energy(default_grid):
    g = default_grid
    f = RadialField(g, gaussian_bump(g))  # supported near r ~ 1
    total = energy(f, 2).total
    assert exterior_energy(f, 2, 2 * g.r_min) == pytest.approx(total, rel=1e-6)
    assert exterior_energy(f, 2, 50.0) < 1e-10 * total
    # monotone in R
    radii = [0.1, 1.0, 10.0, 100.0]
    vals = [exterior_energy(f, 2, R) for R in radii]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ContractViolation):
        exterior_energy(f, 2, 1e-6)
