"""Convergence orders against an exact solution.

For small data the flow is the linear heat flow of Delta_m, and
u = eps r^m (t0/(t0 + t))^(m+1) exp(-r^2/(4 (t0 + t))) solves it exactly:
r^m times the heat kernel in 2m + 2 dimensions.  At eps = 1e-4 the
nonlinearity F(u) = O(u^3/r^2) is far below every error measured here.
The error is the relative L^2(r dr) distance to it at t_end.
"""

import numpy as np
import pytest

from hmflow.evolve import StepperConfig, evolve
from hmflow.grid import RadialField, build_grid

EPS, T0, T_END = 1e-4, 0.25, 0.5


def _exact(g, m, t):
    r = g.nodes
    return (EPS * r**m * (T0 / (T0 + t)) ** (m + 1)
            * np.exp(-r * r / (4.0 * (T0 + t))))


def _error(m, n, dt, scheme):
    g = build_grid(1e-4, 1e2, n)
    rec = evolve(RadialField(g, _exact(g, m, 0.0)), m, T_END,
                 StepperConfig(dt=dt, scheme=scheme), sample_every=T_END)
    assert rec.status == "Global"
    assert rec.times[-1] == pytest.approx(T_END)
    want = _exact(g, m, T_END)
    return g.lp_norm(rec.final_field.offset - want, 2) / g.lp_norm(want, 2)


def _order(coarse, fine):
    """Observed order of two errors whose step (dt or log step) halves."""
    return float(np.log2(coarse / fine))


@pytest.mark.parametrize("m", [2, 4])
def test_imex1_is_first_order_in_time(m):
    # the Newton form of the step is the same linearly implicit Euler step:
    # errors near 8e-3 and 4e-3 at m = 2, far above the spatial 7e-5
    assert _order(_error(m, 1024, 4e-3, "IMEX1"),
                  _error(m, 1024, 2e-3, "IMEX1")) >= 0.95


def test_imex2_is_second_order_in_time():
    # at n = 4096 the spatial error (4e-6) is far below the time errors
    # (1.1e-4 and 2.6e-5)
    assert _order(_error(2, 4096, 8e-3, "IMEX2"),
                  _error(2, 4096, 4e-3, "IMEX2")) >= 1.9


@pytest.mark.parametrize("m", [2, 4])
def test_space_is_second_order(m):
    # IMEX2 at dt = 5e-4 has a time error near 4e-7, far below the spatial
    # 7e-5 (m = 2, n = 1024)
    assert _order(_error(m, 512, 5e-4, "IMEX2"),
                  _error(m, 1024, 5e-4, "IMEX2")) >= 1.9
