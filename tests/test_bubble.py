import numpy as np
import pytest

from hmflow.bubble import (BubbleProfile, bogomolny_residual,
                           derivative_identity_residuals, energy_of_Q,
                           eval_Q, eval_Q_deriv, eval_h, eval_hhat,
                           sample_Q)
from hmflow.errors import ContractViolation
from hmflow.grid import build_grid, differentiate


def test_profile_angle_values():
    p = BubbleProfile(2)
    # pi - 2 arctan(rho^m): pi at 0+, pi/2 at r = s, 0 at infinity
    assert eval_Q(p, 1e-12) == pytest.approx(np.pi, abs=1e-10)
    assert eval_Q(p, 1.0) == pytest.approx(np.pi / 2)
    assert eval_Q(p, 1e12) == pytest.approx(0.0, abs=1e-10)


def test_profile_rejects_non_positive_scales():
    for s in (0.0, -1.0, np.nan):
        with pytest.raises(ContractViolation, match="scale must be positive"):
            BubbleProfile(2, s)


def test_h_is_sin_Q_and_hhat_is_cos_Q():
    p = BubbleProfile(3, s=0.7)
    r = np.geomspace(1e-3, 1e3, 400)
    assert np.max(np.abs(eval_h(p, r) - np.sin(eval_Q(p, r)))) < 1e-12
    assert np.max(np.abs(eval_hhat(p, r) - np.cos(eval_Q(p, r)))) < 1e-12
    # h peaks at r = s with value 1
    assert eval_h(p, 0.7) == pytest.approx(1.0)


def test_scaling_covariance():
    r = np.geomspace(1e-2, 1e2, 200)
    base = eval_Q(BubbleProfile(2, s=1.0), r / 3.0)
    scaled = eval_Q(BubbleProfile(2, s=3.0), r)
    assert np.max(np.abs(base - scaled)) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_bubble_energy(default_grid, m):
    # quadrature of the bubble energy converges to 2m
    val = energy_of_Q(m, default_grid)
    assert abs(val - 2.0 * m) <= 1e-5 * 2.0 * m


def test_bogomolny_residual_analytic(default_grid):
    for m in (1, 2, 4):
        assert bogomolny_residual(BubbleProfile(m), default_grid) < 1e-10


def test_bogomolny_residual_stencil_converges():
    p = BubbleProfile(2)
    e1 = bogomolny_residual(p, build_grid(1e-4, 1e3, 2048),
                            finite_difference=True)
    e2 = bogomolny_residual(p, build_grid(1e-4, 1e3, 4096),
                            finite_difference=True)
    assert e1 / e2 > 3.0


def test_derivative_identities():
    r = np.geomspace(1e-3, 1e3, 500)
    for m in (1, 2, 3):
        res_h, res_hhat = derivative_identity_residuals(BubbleProfile(m), r)
        assert res_h < 1e-12
        assert res_hhat < 1e-12


def test_sample_Q_boundary_labels(default_grid):
    f = sample_Q(BubbleProfile(2), default_grid)
    assert f.inner_limit == np.pi
    # sampled values decrease monotonically from near pi to near 0
    assert np.all(np.diff(f.values) < 0)
    # the stored offset Q - pi is exact at every node, also where Q itself
    # rounds to pi (m = 4 at r_min: -2e-16)
    r = default_grid.nodes
    for m in (1, 2, 3, 4):
        off = sample_Q(BubbleProfile(m), default_grid).offset
        assert np.max(np.abs(off / (-2.0 * np.arctan(r**m)) - 1.0)) <= 1e-14


def test_Q_deriv_matches_stencil(default_grid):
    g = default_grid
    p = BubbleProfile(2)
    exact = eval_Q_deriv(p, g.nodes)
    approx = differentiate(sample_Q(p, g)).values
    win = (g.nodes > 10 * g.r_min) & (g.nodes < g.r_max / 10)
    assert np.max(np.abs(exact[win] - approx[win])) < 2e-4


def test_extreme_radius_no_overflow():
    p = BubbleProfile(4, s=1e-3)
    vals = eval_h(p, np.array([1e-300, 1e300]))
    assert np.all(np.isfinite(vals))
