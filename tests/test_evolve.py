import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_bump
from hmflow.bubble import BubbleProfile, sample_Q
from hmflow.energy import energy
from hmflow.errors import ConfigurationError, ContractViolation
from hmflow.evolve import (STATUS_ABORTED, STATUS_BLOWUP, STATUS_GLOBAL,
                           StepperConfig, dissipation_audit, evolve,
                           nonlinearity, scale_estimate, step)
from hmflow.grid import RadialField, apply_delta_m, build_grid


def test_stepper_config_validation():
    StepperConfig(dt=1e-3)
    with pytest.raises(ConfigurationError):
        StepperConfig(dt=1e-3, scheme="RK4")
    with pytest.raises(ConfigurationError):
        StepperConfig(dt=1e-10, dt_floor=1e-9)


def test_nonlinearity_zero(default_grid):
    f = RadialField(default_grid, np.zeros(default_grid.n))
    assert np.all(nonlinearity(f, 2).values == 0.0)


def test_nonlinearity_series_branch_continuous(default_grid):
    # the small-angle series and the direct formula agree at the switch
    # the direct formula has relative cancellation noise ~eps/u^2, so the
    # comparison must allow ~1e-8 relative at u ~ 1e-4
    g = default_grid
    for amp in (0.9e-4, 1.1e-4):
        f = RadialField(g, np.full(g.n, amp))
        exact = (4.0 / g.nodes**2) * ((2.0 / 3.0) * amp**3 * (1 - 0.2 * amp**2))
        rel = np.abs(nonlinearity(f, 2).values / exact - 1.0)
        assert np.max(rel) < 1e-7


def test_bubble_is_stationary_point(default_grid):
    # Delta_m Q + F(Q) = 0: the residual is pure discretization error
    g = default_grid
    q = sample_Q(BubbleProfile(2), g)
    resid = apply_delta_m(q, 2).values + nonlinearity(q, 2).values
    win = (g.nodes > 10 * g.r_min) & (g.nodes < g.r_max / 10)
    e1 = np.max(np.abs(resid[win]))
    g2 = build_grid(1e-4, 1e3, 4096)
    q2 = sample_Q(BubbleProfile(2), g2)
    resid2 = apply_delta_m(q2, 2).values + nonlinearity(q2, 2).values
    win2 = (g2.nodes > 10 * g2.r_min) & (g2.nodes < g2.r_max / 10)
    e2 = np.max(np.abs(resid2[win2]))
    assert e1 < 1e-3
    assert e1 / e2 > 3.0


@given(amp=st.floats(0.05, 2.5))
@settings(max_examples=25, deadline=None)
def test_nonlinearity_cubic_bound(amp):
    # |u - sin(2u)/2| <= (2/3)|u|^3, so |F(u)| <= (2 m^2 / 3) |u|^3 / r^2
    g = build_grid(1e-3, 1e2, 256)
    u = amp * gaussian_bump(g)
    f = RadialField(g, u)
    bound = (2.0 * 4.0 / 3.0) * np.abs(u) ** 3 / g.nodes**2
    slack = 1e-6 * bound + 1e-16 * 4.0 * np.abs(u) / g.nodes**2  # roundoff
    assert np.all(np.abs(nonlinearity(f, 2).values) <= bound + slack)


def _step_error(scheme, dt, t_end=0.25):
    # reference: the higher-order scheme at a much smaller step, so the
    # measured error isolates the scheme's own dt dependence
    g = build_grid(1e-4, 1e3, 1024)
    u0 = RadialField(g, 1.2 * gaussian_bump(g))
    ref = u0
    for _ in range(500):
        ref = step(ref, 2, StepperConfig(dt=t_end / 500, scheme="IMEX2"))
    cur = u0
    for _ in range(int(round(t_end / dt))):
        cur = step(cur, 2, StepperConfig(dt=dt, scheme=scheme))
    return float(np.max(np.abs(cur.values - ref.values)))


def test_imex1_first_order_in_dt():
    e1, e2 = _step_error("IMEX1", 1e-2), _step_error("IMEX1", 5e-3)
    assert 1.5 < e1 / e2 < 3.0


def test_imex2_second_order_in_dt():
    e1, e2 = _step_error("IMEX2", 2e-2), _step_error("IMEX2", 1e-2)
    assert e1 / e2 > 3.0
    # and visibly more accurate than the first-order scheme at the same dt
    assert e2 < 0.5 * _step_error("IMEX1", 1e-2)


def test_evolve_energy_monotone(default_grid):
    u0 = RadialField(default_grid, 1.5 * gaussian_bump(default_grid))
    rec = evolve(u0, 2, t_end=0.5, stepper=StepperConfig(dt=1e-3),
                 sample_every=0.05)
    totals = [eb.total for eb in rec.energies]
    assert rec.status == STATUS_GLOBAL
    assert all(a >= b - 1e-8 * totals[0] for a, b in zip(totals, totals[1:]))
    assert rec.times[0] == 0.0
    assert rec.times[-1] == pytest.approx(0.5, abs=1e-9)
    assert all(b > a for a, b in zip(rec.times, rec.times[1:]))


def test_evolve_preserves_boundary_labels(default_grid):
    q = sample_Q(BubbleProfile(2), default_grid)
    rec = evolve(q, 2, t_end=0.1, stepper=StepperConfig(dt=1e-3),
                 sample_every=0.05)
    for f in rec.fields:
        assert f.inner_limit == np.pi


def test_dissipation_audit_first_order_in_dt(default_grid):
    u0 = RadialField(default_grid, 1.5 * gaussian_bump(default_grid))
    res = []
    for dt in (2e-3, 1e-3):
        rec = evolve(u0, 2, t_end=0.5, stepper=StepperConfig(dt=dt),
                     sample_every=0.1)
        res.append(max(dissipation_audit(rec)))
    e0 = energy(u0, 2).total
    assert res[0] < 0.01 * e0
    assert res[0] / res[1] > 1.5


def test_dissipation_audit_needs_samples(default_grid):
    from hmflow.evolve import TrajectoryRecord
    rec = TrajectoryRecord(2, default_grid)
    with pytest.raises(ContractViolation):
        dissipation_audit(rec)
    # a run that stops before its first accepted step holds only the
    # initial sample, and its audit is still defined
    u0 = RadialField(default_grid, gaussian_bump(default_grid))
    rec.times.append(0.0)
    rec.energies.append(energy(u0, 2))
    rec.dissipated.append(0.0)
    assert dissipation_audit(rec) == [0.0]


# a NaN horizon used to end the run after one sample, a non-positive
# sample_every used to hang the sampling clock, and a NaN scale floor
# silently turned off the Blowup verdict
@pytest.mark.parametrize("t_end,sample_every,scale_floor", [
    pytest.param(0.0, 0.05, None, id="t_end_zero"),
    pytest.param(-1.0, 0.05, None, id="t_end_negative"),
    pytest.param(np.nan, 0.05, None, id="t_end_nan"),
    pytest.param(np.inf, 0.05, None, id="t_end_inf"),
    pytest.param(0.1, 0.0, None, id="sample_every_zero"),
    pytest.param(0.1, -0.05, None, id="sample_every_negative"),
    pytest.param(0.1, np.nan, None, id="sample_every_nan"),
    pytest.param(0.1, np.inf, None, id="sample_every_inf"),
    pytest.param(0.1, 0.05, 0.0, id="scale_floor_zero"),
    pytest.param(0.1, 0.05, -1e-3, id="scale_floor_negative"),
    pytest.param(0.1, 0.05, np.nan, id="scale_floor_nan"),
    pytest.param(0.1, 0.05, np.inf, id="scale_floor_inf"),
])
def test_evolve_rejects_bad_horizon(default_grid, monkeypatch, t_end,
                                    sample_every, scale_floor):
    u0 = RadialField(default_grid, gaussian_bump(default_grid))

    def no_step(*args, **kwargs):
        raise AssertionError("evolve stepped before rejecting its horizon")

    monkeypatch.setattr("hmflow.evolve._step_offset", no_step)
    with pytest.raises(ContractViolation):
        evolve(u0, 2, t_end=t_end, stepper=StepperConfig(dt=1e-3),
               sample_every=sample_every, scale_floor=scale_floor)


def _excited_bubble(g, m):
    """Degree-m bubble plus a small bump: relaxes without rejected steps."""
    q = sample_Q(BubbleProfile(m), g)
    return RadialField(g, q.offset + 0.2 * gaussian_bump(g, sigma=2.0, m=m),
                       inner_limit=np.pi)


@pytest.mark.parametrize("sector", ["zero_degree", "degree_m"])
def test_evolve_monitors_equal_reference_functionals(sector):
    # the loop computes energies and scale estimates from one energy
    # density per trial step; they must be exactly what the public
    # functionals give on the sampled fields
    g = build_grid(1e-3, 1e2, 512)
    if sector == "zero_degree":
        u0 = RadialField(g, 1.5 * gaussian_bump(g))
    else:
        u0 = _excited_bubble(g, 2)
    rec = evolve(u0, 2, t_end=0.1, stepper=StepperConfig(dt=1e-3),
                 sample_every=0.01)
    assert len(rec.fields) == 11
    for fld, eb, s in zip(rec.fields, rec.energies, rec.scale_estimates):
        ref = energy(fld, 2)
        assert (eb.total, eb.dirichlet, eb.potential) == (
            ref.total, ref.dirichlet, ref.potential)
        assert s == scale_estimate(fld, 2)


@pytest.mark.parametrize("scheme", ["IMEX1", "IMEX2"])
@pytest.mark.parametrize("sector", ["zero_degree", "degree_m"])
def test_step_equals_one_evolve_step(sector, scheme):
    # step() and the evolve loop build F'(u) from the same sine of the
    # offset, so one accepted step of each gives the same field
    g = build_grid(1e-3, 1e2, 512)
    if sector == "zero_degree":
        u0 = RadialField(g, 1.5 * gaussian_bump(g))
    else:
        u0 = _excited_bubble(g, 2)
    cfg = StepperConfig(dt=1e-3, scheme=scheme)
    rec = evolve(u0, 2, t_end=cfg.dt, stepper=cfg, sample_every=cfg.dt)
    assert rec.times == [0.0, cfg.dt]
    assert np.array_equal(rec.final_field.values, step(u0, 2, cfg).values)


def test_l4_monitor_matches_power_form():
    # degree-m offsets u - pi are negative; the monitor squares twice where
    # the reference takes the fourth power
    g = build_grid(1e-3, 1e2, 512)
    dt, t_end = 1e-3, 0.05
    rec = evolve(_excited_bubble(g, 2), 2, t_end=t_end,
                 stepper=StepperConfig(dt=dt), sample_every=dt)
    # one sample per step at the full step size: no step was rejected
    assert np.allclose(np.diff(rec.times), dt, rtol=1e-9, atol=0.0)
    assert len(rec.times) == round(t_end / dt) + 1
    w = g.weights / g.nodes**4
    ref = sum(dt * np.dot(w, (f.values - np.pi) ** 4) for f in rec.fields[1:])
    assert rec.l4_accum[-1] ** 4 == pytest.approx(ref, rel=1e-12)


def test_scale_estimate_bubble(default_grid):
    for s in (0.05, 1.0, 20.0):
        q = sample_Q(BubbleProfile(2, s=s), default_grid)
        assert scale_estimate(q, 2) == pytest.approx(s, rel=1e-3)


def test_scale_estimate_bump_tracks_width(default_grid):
    g = default_grid
    for sigma in (0.5, 2.0):
        f = RadialField(g, gaussian_bump(g, sigma=sigma))
        est = scale_estimate(f, 2)
        assert 0.3 * sigma < est < 3.0 * sigma


@pytest.mark.parametrize("sector", ["degree_m", "zero_degree"])
def test_concentration_floor_terminates_as_blowup(default_grid, sector):
    # data already below the resolvable scale floor pins the step size at
    # its floor and the run must be declared Blowup, not ground forever; in
    # the zero-degree sector the half-energy radius is computed only when
    # the floor test finds half the energy near the floor
    g = default_grid
    if sector == "degree_m":
        u0, scale_floor = sample_Q(BubbleProfile(2, s=0.01), g), 0.1
    else:
        u0, scale_floor = RadialField(g, gaussian_bump(g, sigma=0.05)), 1.0
        assert scale_estimate(u0, 2) < 0.1 * scale_floor
    rec = evolve(u0, 2, t_end=10.0,
                 stepper=StepperConfig(dt=1e-3, dt_floor=1e-5),
                 sample_every=0.01, scale_floor=scale_floor)
    assert rec.status == STATUS_BLOWUP
    assert rec.times[-1] < 10.0
    # the final state is always sampled, so its concentration is on record
    assert rec.scale_estimates[-1] < scale_floor
    for fld, s in zip(rec.fields, rec.scale_estimates):
        assert s == scale_estimate(fld, 2)


# a step that fails at every dt: shrinking from dt = 1e-3 by halves takes
# 7 attempts to reach dt_floor = 1e-5; there a non-finite step aborts at
# once, and a third energy rise ends the run as Blowup if the state sits
# below the scale floor and as Aborted otherwise
@pytest.mark.parametrize("bad,sigma,scale_floor,status,attempts", [
    pytest.param(lambda off: 1.1 * off, 1.0, 1e-3, STATUS_ABORTED, 7 + 3,
                 id="energy_rise_unconcentrated"),
    pytest.param(lambda off: 1.1 * off, 0.05, 1.0, STATUS_BLOWUP, 7 + 3,
                 id="energy_rise_concentrated"),
    pytest.param(lambda off: np.full_like(off, np.nan), 1.0, 1e-3,
                 STATUS_ABORTED, 7 + 1, id="non_finite"),
])
def test_failures_at_the_floor_step_end_the_run(default_grid, monkeypatch, bad,
                                                sigma, scale_floor, status,
                                                attempts):
    calls = []

    def failing_step(grid, off, *args):
        calls.append(1)
        return bad(off)

    monkeypatch.setattr("hmflow.evolve._step_offset", failing_step)
    u0 = RadialField(default_grid, gaussian_bump(default_grid, sigma=sigma))
    rec = evolve(u0, 2, t_end=1.0,
                 stepper=StepperConfig(dt=1e-3, dt_floor=1e-5),
                 sample_every=0.1, scale_floor=scale_floor)
    assert rec.status == status
    assert rec.times == [0.0]
    assert len(calls) == attempts


def test_m1_bubble_near_inner_wall_is_stationary():
    # the offset of an m = 1 bubble behaves like r at the origin; a zero
    # inner ghost value pinned it to pi at the wall, so a bubble within a
    # few decades of r_min failed the energy gate at every dt
    s = 1e-3
    g = build_grid(1e-6, 1e2, 3072)
    q = sample_Q(BubbleProfile(1, s=s), g)
    rec = evolve(q, 1, t_end=200 * s**2, stepper=StepperConfig(dt=s**2 / 5),
                 sample_every=50 * s**2)
    assert rec.status == STATUS_GLOBAL
    assert rec.times[-1] == pytest.approx(200 * s**2)
    assert scale_estimate(rec.final_field, 1) == pytest.approx(s, rel=1e-3)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_exact_bubble_does_not_drift(m):
    # Q^s is stationary, so s s' (half the slope of s^2 against t) is set
    # by the discretization alone; a Delta_m that is not symmetric in the
    # r dr weights drifts at O(h^2), -5e-6 to -1.6e-5 on this grid
    s = 1e-2
    g = build_grid(1e-6, 1e2, 3072)
    rec = evolve(sample_Q(BubbleProfile(m, s=s), g), m, t_end=50 * s**2,
                 stepper=StepperConfig(dt=s**2 / 20), sample_every=5 * s**2)
    assert rec.status == STATUS_GLOBAL
    slope = np.polyfit(rec.times, np.square(rec.scale_estimates), 1)[0]
    assert abs(0.5 * slope) <= 1e-7


def test_monitor_accumulates(default_grid):
    u0 = RadialField(default_grid, 1.5 * gaussian_bump(default_grid))
    rec = evolve(u0, 2, t_end=0.2, stepper=StepperConfig(dt=1e-3),
                 sample_every=0.05)
    assert all(b >= a for a, b in zip(rec.l4_accum, rec.l4_accum[1:]))
    # the estimate of the final state, the last one recorded, is finite
    assert np.isfinite(rec.scale_estimates[-1])
