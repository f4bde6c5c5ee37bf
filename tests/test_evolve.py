import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_bump, same_bits, trig_probe_points
from hmflow import evolve as evolve_module
from hmflow.bubble import BubbleProfile, sample_Q
from hmflow.energy import (energy, gate_energy, pointwise_bound_check,
                           sin_terms)
from hmflow.errors import ConfigurationError, ContractViolation
from hmflow.evolve import (STATUS_ABORTED, STATUS_BLOWUP, STATUS_GLOBAL,
                           StepperConfig, check_horizon, dissipation_audit,
                           evolve, nonlinearity, scale_estimate, step,
                           step_floor)
from hmflow.grid import RadialField, apply_delta_m, build_grid


def test_stepper_config_validation():
    StepperConfig(dt=1e-3)
    with pytest.raises(ConfigurationError):
        StepperConfig(dt=1e-3, scheme="RK4")
    # step() does not check a horizon, so the stepper checks its own dt
    for dt in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="dt"):
            StepperConfig(dt=dt)


def test_nonlinearity_zero(default_grid):
    f = RadialField(default_grid, np.zeros(default_grid.n))
    assert np.all(nonlinearity(f, 2).values == 0.0)


def test_nonlinearity_series_branch_continuous(default_grid):
    # the small-angle series and the direct formula agree at the switch
    # the direct formula has relative cancellation noise ~eps/u^2, so the
    # comparison must allow ~1e-8 relative at u ~ 1e-4; the series runs up
    # to 1e-3, where that noise is ~1e-10
    g = default_grid
    for amp, bound in ((0.9e-4, 1e-7), (1.1e-4, 1e-7), (0.9e-3, 1e-8),
                       (1.1e-3, 1e-8)):
        f = RadialField(g, np.full(g.n, amp))
        exact = (4.0 / g.nodes**2) * ((2.0 / 3.0) * amp**3 * (1 - 0.2 * amp**2))
        rel = np.abs(nonlinearity(f, 2).values / exact - 1.0)
        assert np.max(rel) < bound


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
# sample_every used to hang the sampling clock, a NaN scale floor silently
# turned off the Blowup verdict, and a dt at or below sqrt(eps) * t_end
# (1.5e-9 at t_end = 0.1) needs more steps than the clock t can count
@pytest.mark.parametrize("t_end,sample_every,scale_floor,dt", [
    pytest.param(0.0, 0.05, None, 1e-3, id="t_end_zero"),
    pytest.param(-1.0, 0.05, None, 1e-3, id="t_end_negative"),
    pytest.param(np.nan, 0.05, None, 1e-3, id="t_end_nan"),
    pytest.param(np.inf, 0.05, None, 1e-3, id="t_end_inf"),
    pytest.param(0.1, 0.0, None, 1e-3, id="sample_every_zero"),
    pytest.param(0.1, -0.05, None, 1e-3, id="sample_every_negative"),
    pytest.param(0.1, np.nan, None, 1e-3, id="sample_every_nan"),
    pytest.param(0.1, np.inf, None, 1e-3, id="sample_every_inf"),
    pytest.param(0.1, 0.05, 0.0, 1e-3, id="scale_floor_zero"),
    pytest.param(0.1, 0.05, -1e-3, 1e-3, id="scale_floor_negative"),
    pytest.param(0.1, 0.05, np.nan, 1e-3, id="scale_floor_nan"),
    pytest.param(0.1, 0.05, np.inf, 1e-3, id="scale_floor_inf"),
    pytest.param(0.1, 0.05, None, 1e-10, id="dt_far_below_clock_edge"),
    pytest.param(0.1, 0.05, None, 1e-9, id="dt_below_clock_edge"),
    # a step at the float spacing at t_end leaves t unchanged; a tiny scale
    # floor does not let it pass
    pytest.param(1.0, 0.05, 1e-20, np.spacing(1.0),
                 id="dt_at_spacing_of_t_end"),
])
def test_evolve_rejects_bad_horizon(default_grid, monkeypatch, t_end,
                                    sample_every, scale_floor, dt):
    u0 = RadialField(default_grid, gaussian_bump(default_grid))

    def no_step(*args, **kwargs):
        raise AssertionError("evolve stepped before rejecting its horizon")

    monkeypatch.setattr("hmflow.evolve._step_offset", no_step)
    with pytest.raises(ContractViolation):
        evolve(u0, 2, t_end=t_end, stepper=StepperConfig(dt=dt),
               sample_every=sample_every, scale_floor=scale_floor)


@pytest.mark.parametrize("scale_floor,dt_floor", [
    (1e-3, 1e-9), (1e-4, 1e-9), (1e-6, 1e-13), (1e-8, 1e-17)])
def test_step_floor_follows_scale_floor(scale_floor, dt_floor):
    # min(1e-9, scale_floor^2 / 10), exactly, the step floor at the Blowup
    # threshold that the provenance records; a floor of 1e-4 lands on the
    # cap, so every preset records 1e-9
    assert step_floor(scale_floor) == dt_floor
    assert check_horizon(1.0, 0.1, 1e-3, 1.0, scale_floor) == scale_floor
    # the default scale floor is 10 r_min
    assert check_horizon(1.0, 0.1, 1e-3, scale_floor / 10,
                         None) == 10.0 * (scale_floor / 10)


def test_step_floor_of_a_state_without_scale():
    # a state with no half-turn crossing has a NaN scale estimate, and its
    # floor step size is the cap
    assert step_floor(np.nan) == 1e-9


@pytest.mark.parametrize("t_end", [1e-3, 0.05, 1.0, 20.0])
def test_check_horizon_needs_dt_above_sqrt_eps_t_end(t_end):
    # fewer than 1/sqrt(eps) ~ 6.7e7 steps at dt, so the rounding of t stays
    # below half a step; a tiny scale floor is valid, since it only decides
    # Blowup
    edge = np.sqrt(np.finfo(float).eps) * t_end
    with pytest.raises(ContractViolation, match="dt must exceed"):
        check_horizon(t_end, 0.1, edge, 1e-3, 1e-170)
    assert check_horizon(t_end, 0.1, 1.01 * edge, 1e-3, 1e-170) == 1e-170


def test_sample_every_below_ulp_of_t_samples_each_step(monkeypatch):
    # the sampling clock used to add one interval at a time, which makes no
    # progress once sample_every is below ulp(t); it must jump past every
    # interval a step spans and take one sample per accepted step
    g = build_grid(1e-3, 1e2, 64)
    trials = []
    real_step = evolve_module._step_offset

    def counted_step(*args):
        trials.append(args)
        return real_step(*args)

    monkeypatch.setattr(evolve_module, "_step_offset", counted_step)
    rec = evolve(RadialField(g, 0.5 * gaussian_bump(g)), 2, t_end=0.01,
                 stepper=StepperConfig(dt=1e-3), sample_every=1e-20)
    assert rec.status == STATUS_GLOBAL
    assert len(rec.times) == len(trials) + 1
    assert np.all(np.diff(rec.times) > 0.0)
    assert rec.times[-1] == pytest.approx(0.01, rel=1e-12)


def _excited_bubble(g, m):
    """Degree-m bubble plus a small bump: relaxes without rejected steps."""
    q = sample_Q(BubbleProfile(m), g)
    return RadialField(g, q.offset + 0.2 * gaussian_bump(g, sigma=2.0, m=m),
                       inner_limit=np.pi)


def _collapsing_bubble(g, m):
    """Degree-m bubble pushed inward: from dt = 0.2 its first step fails the
    bound on the fall of the half-turn radius at three step sizes."""
    q = sample_Q(BubbleProfile(m), g)
    return RadialField(g, q.offset - 1.5 * gaussian_bump(g, sigma=2.0, m=m),
                       inner_limit=np.pi)


def _monitor_case(sector, g):
    """(initial field, evolve keywords, samples) of a monitor test case."""
    cfg = StepperConfig(dt=1e-3)
    if sector == "degree_m":
        return _excited_bubble(g, 2), dict(stepper=cfg), 11
    if sector == "degree_m_scale_retries":
        return (_collapsing_bubble(g, 2),
                dict(stepper=StepperConfig(dt=0.2), t_end=0.5,
                     sample_every=0.1), 6)
    return RadialField(g, 1.5 * gaussian_bump(g)), dict(stepper=cfg), 11


@pytest.mark.parametrize("sector", [
    "zero_degree", "degree_m", "degree_m_scale_retries"])
def test_evolve_monitors_equal_reference_functionals(sector):
    # the loop gates trial steps on sums and builds node energies only for
    # samples; the recorded energies and scale estimates must be exactly
    # what the public functionals give on the sampled fields
    g = build_grid(1e-3, 1e2, 512)
    u0, kwargs, samples = _monitor_case(sector, g)
    rec = evolve(u0, 2, **{"t_end": 0.1, "sample_every": 0.01, **kwargs})
    assert len(rec.fields) == samples
    for fld, eb, s in zip(rec.fields, rec.energies, rec.scale_estimates):
        ref = energy(fld, 2)
        assert (eb.total, eb.dirichlet, eb.potential) == (
            ref.total, ref.dirichlet, ref.potential)
        assert s == scale_estimate(fld, 2)


@pytest.mark.parametrize("m", [0, -2, 2.5])
def test_evolve_rejects_bad_degree(default_grid, monkeypatch, m):
    # for m < 0 the stepped operator's tails use |m| and the energy's use m,
    # so the flow would not descend the energy it reports
    def no_step(*args, **kwargs):
        raise AssertionError("evolve stepped before rejecting its degree")

    monkeypatch.setattr("hmflow.evolve._step_offset", no_step)
    u0 = RadialField(default_grid, gaussian_bump(default_grid))
    with pytest.raises(ContractViolation):
        evolve(u0, m, t_end=0.1, stepper=StepperConfig(dt=1e-3))


@pytest.mark.parametrize("n", [16, 2048])
@pytest.mark.parametrize("inner", [0.0, np.pi], ids=["zero_degree",
                                                     "degree_m"])
def test_gate_sums_equal_node_energy_sums(n, inner):
    # the gate's E_h comes from dot products, the reported energies from
    # node sums; they must agree to rounding
    g = build_grid(1e-3, 1e2, n)
    rng = np.random.default_rng(n + int(inner))
    for m in (1, 2, 4):
        off = rng.uniform(-np.pi, np.pi, n)
        sin_off = np.sin(off)
        total = gate_energy(g, off, np.diff(off), sin_off * sin_off, m, inner)
        ref = energy(RadialField(g, off, inner), m).total
        assert total == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_node_energies_only_for_samples(monkeypatch):
    # the gate works on sums: node energies are built for the initial state
    # and each sample, not for the trials, retried or accepted
    g = build_grid(1e-3, 1e2, 512)
    calls = {"trials": 0, "node": 0}
    real_step, real_node = (evolve_module._step_offset,
                            evolve_module.node_energies)

    def counted_step(*args):
        calls["trials"] += 1
        return real_step(*args)

    def counted_node(*args):
        calls["node"] += 1
        return real_node(*args)

    monkeypatch.setattr(evolve_module, "_step_offset", counted_step)
    monkeypatch.setattr(evolve_module, "node_energies", counted_node)
    rec = evolve(_collapsing_bubble(g, 2), 2, t_end=0.5,
                 stepper=StepperConfig(dt=0.2), sample_every=0.1)
    assert rec.status == STATUS_GLOBAL
    assert calls["trials"] > len(rec.times)
    assert calls["node"] == len(rec.times)


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
def test_concentration_floor_terminates_as_blowup(default_grid, monkeypatch,
                                                   sector):
    # degree-m initial data below the resolvable scale floor end as Blowup
    # at sample 0, with no trial step (the run used to take one accepted
    # step first); zero-degree data below 2 E(Q) cannot bubble, so the same
    # concentration ends Global, and the pointwise bound of Theorem 1 holds
    # at every sample
    g = default_grid
    if sector == "degree_m":
        def no_step(*args, **kwargs):
            raise AssertionError("a trial step below the scale floor")

        monkeypatch.setattr("hmflow.evolve._step_offset", no_step)
        u0, scale_floor = sample_Q(BubbleProfile(2, s=0.01), g), 0.1
        t_end = 10.0
    else:
        u0, scale_floor = RadialField(g, gaussian_bump(g, sigma=0.05)), 1.0
        assert scale_estimate(u0, 2) < 0.1 * scale_floor
        t_end = 0.05
    rec = evolve(u0, 2, t_end=t_end, stepper=StepperConfig(dt=1e-3),
                 sample_every=0.01, scale_floor=scale_floor)
    for fld, s in zip(rec.fields, rec.scale_estimates):
        assert s == scale_estimate(fld, 2)
    if sector == "degree_m":
        assert rec.status == STATUS_BLOWUP
        assert rec.times == [0.0]
        # the final state is always sampled, so its concentration is on
        # record
        assert rec.scale_estimates[-1] < scale_floor
        return
    assert rec.status == STATUS_GLOBAL
    assert rec.times[-1] == pytest.approx(t_end)
    delta1 = 4.0 * 2 - rec.energies[0].total
    assert all(pointwise_bound_check(f, 2, delta1)[1] for f in rec.fields)


def _bump(sigma):
    return lambda g: RadialField(g, gaussian_bump(g, sigma=sigma))


def _bubble(s):
    return lambda g: sample_Q(BubbleProfile(2, s=s), g)


# a step that fails at every dt: shrinking from dt = 1e-3 by halves takes
# 20 attempts to reach the floor step size 1e-9; the first failure there
# ends the run as Aborted (a retry would repeat the same solve), for either
# sector and either failure (degree-m data below the scale floor used to
# end as Blowup here; they now end at sample 0, with no trial step).  The
# floor is that of the state's own scale s, min(1e-9, s^2 / 10), whatever
# the scale floor: a state of scale 1 on a grid that resolves 1e-6 still
# stops at 1e-9 (it used to halve on to 1e-13, and an IMEX2 step whose
# energy rise is first order in dt then crawled at dt ~ 6e-14), and one of
# scale 9.85e-6 stops at 9.7e-12, after 27 halvings.  A deep grid is on
# [1e-8, 1e2].
@pytest.mark.parametrize("bad,data,scale_floor,attempts,deep", [
    pytest.param(lambda off: 1.1 * off, _bump(1.0), 1e-3, 20 + 1, False,
                 id="energy_rise_unconcentrated"),
    pytest.param(lambda off: 1.1 * off, _bump(0.05), 1.0, 20 + 1, False,
                 id="energy_rise_zero_degree_below_floor"),
    pytest.param(lambda off: 1.1 * off, _bubble(0.05), 1e-3, 20 + 1, False,
                 id="energy_rise_degree_m_above_floor"),
    pytest.param(lambda off: np.full_like(off, np.nan), _bump(1.0), 1e-3,
                 20 + 1, False, id="non_finite"),
    pytest.param(lambda off: 1.1 * off, _bump(1.0), 1e-6, 20 + 1, True,
                 id="energy_rise_wide_state_deep_floor"),
    pytest.param(lambda off: 1.1 * off, _bump(1e-5), 1e-7, 27 + 1, True,
                 id="energy_rise_small_state_deep_floor"),
])
def test_failures_at_the_floor_step_end_the_run(default_grid, monkeypatch, bad,
                                                data, scale_floor, attempts,
                                                deep):
    calls = []

    def failing_step(grid, off, *args):
        calls.append(1)
        new_off = bad(off)
        return new_off - off, new_off

    monkeypatch.setattr("hmflow.evolve._step_offset", failing_step)
    g = build_grid(1e-8, 1e2, 1024) if deep else default_grid
    u0 = data(g)
    rec = evolve(u0, 2, t_end=1.0, stepper=StepperConfig(dt=1e-3),
                 sample_every=0.1, scale_floor=scale_floor)
    assert rec.status == STATUS_ABORTED
    assert rec.times == [0.0]
    assert len(calls) == attempts


# a bubble of scale 1e-5 has the step floor 1e-11 at its own scale, above
# dt = 5e-12, which check accepts (it exceeds sqrt(eps) * t_end); the
# floor is capped at half of dt, so a failed first step is retried at
# 2.5e-12 (it used to end the run), and a first step whose half-turn radius
# halves is retried too (the collapse guard used to be off all run)
@pytest.mark.parametrize("failure", ["non_finite", "scale_fall"])
def test_a_dt_below_the_step_of_the_state_keeps_retries(monkeypatch,
                                                        failure):
    g = build_grid(1e-8, 1e2, 1024)
    u0 = sample_Q(BubbleProfile(2, s=1e-5), g)
    assert step_floor(scale_estimate(u0, 2)) > 5e-12
    real_step = evolve_module._step_offset
    real_radius = evolve_module._half_turn_radius
    trials = []

    def step_once_bad(grid, off, sin_sq, m, coeffs, dt, *args):
        trials.append(dt)
        delta, new_off = real_step(grid, off, sin_sq, m, coeffs, dt, *args)
        if failure == "non_finite" and len(trials) == 1:
            return delta, np.full_like(new_off, np.nan)
        return delta, new_off

    def radius_once_halved(grid, off):
        s = real_radius(grid, off)
        return 0.5 * s if failure == "scale_fall" and len(trials) == 1 else s

    monkeypatch.setattr("hmflow.evolve._step_offset", step_once_bad)
    monkeypatch.setattr("hmflow.evolve._half_turn_radius", radius_once_halved)
    rec = evolve(u0, 2, t_end=1e-10, stepper=StepperConfig(dt=5e-12),
                 sample_every=5e-11)
    assert rec.status == STATUS_GLOBAL
    assert trials[:2] == [5e-12, 2.5e-12]
    assert rec.times[-1] == pytest.approx(1e-10)


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


def test_free_m1_bubble_far_from_r_max_steps_freely(monkeypatch):
    # u(r_max) = 0.02 for this bubble; an outer Dirichlet ghost holding
    # u = 0 made each step raise the energy, so the gate held dt near 5e-6
    # (45017 attempts to t = 0.05); the tail closure makes the scheme
    # descend the energy it reports
    calls = []
    real_step = evolve_module._step_offset

    def counted_step(*args):
        calls.append(1)
        assert len(calls) <= 100, "more than 100 step attempts"
        return real_step(*args)

    monkeypatch.setattr(evolve_module, "_step_offset", counted_step)
    g = build_grid(1e-6, 1e2, 3072)
    rec = evolve(sample_Q(BubbleProfile(1), g), 1, t_end=0.05,
                 stepper=StepperConfig(dt=2e-3), sample_every=0.005,
                 scale_floor=1e-4)
    assert rec.status == STATUS_GLOBAL
    assert rec.times[-1] == pytest.approx(0.05)
    totals = [eb.total for eb in rec.energies]
    assert all(b <= a for a, b in zip(totals, totals[1:]))


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


def _f_offset_masked(coef, off):
    # the masked formula of F on one tangent: v - T/(1 + T^2), T = tan v,
    # outside the series band |v| < 1e-3
    out = np.empty_like(off)
    small = np.abs(off) < 1e-3
    v = off[~small]
    t = np.tan(v)
    out[~small] = v - t / (1.0 + t * t)
    v = off[small]
    v2 = v * v
    out[small] = (2.0 / 3.0) * v * v2 * (1.0 - 0.2 * v2)
    return coef * out


def _nonlinearity_patterns(n, rng):
    """Offsets of n nodes: every node small, no node small, small runs at
    both ends and inside the span, signed zeros among them, and nodes on
    both sides of the series band's edge 1e-3."""
    sign = rng.choice([-1.0, 1.0], n)
    small = sign * rng.uniform(0.0, 1e-3, n)
    large = sign * rng.uniform(1e-3, 4.0, n)
    mixed = large.copy()
    k = max(n // 8, 1)
    mixed[:k] = small[:k]
    mixed[-k:] = small[-k:]
    mixed[n // 2:n // 2 + k] = small[n // 2:n // 2 + k]
    mixed[n // 3] = small[n // 3]
    zeros = mixed.copy()
    zeros[::5] = 0.0
    zeros[2::7] = -0.0
    edge = np.full(n, 1e-3)
    edge[1::2] = -np.nextafter(1e-3, 0.0)
    return [small, large, mixed, zeros, edge]


@pytest.mark.parametrize("n", [*range(16, 71), 2048, 3071])
def test_f_offset_keeps_the_bits_of_the_masked_formula(n):
    rng = np.random.default_rng(n)
    coef = 4.0 / build_grid(1e-4, 1e3, n).nodes**2
    for off in _nonlinearity_patterns(n, rng):
        want = _f_offset_masked(coef, off)
        # views at odd element offsets, and data one byte past alignment
        views = [np.empty(n + k)[k:] for k in (1, 3)]
        views.append(np.frombuffer(bytearray(8 * n + 1), offset=1, count=n))
        assert not views[-1].flags.aligned
        for data in (off, *views):
            data[...] = off
            got = evolve_module._f_offset(coef, data, sin_terms(data)[1])
            assert same_bits(got, want)


def _cn_step(grid, off, m, dt, ghost):
    """The IMEX2 step from scratch: half-step of F (masked formula on one
    tangent), Crank-Nicolson with its explicit half folded in, b = x - a
    with W (I - (dt/2) Op) x = W 2a and the ghost term doubled, solved by
    scipy's dpttrf and dpttrs, then the second half-step of F; returns
    (out - off, out)."""
    from scipy.linalg.lapack import dpttrf, dpttrs

    half = 0.5 * dt
    coef = m * m / grid.nodes**2
    _, diag, sup = grid.operator_bands(1.0, float(m * m))
    w = grid.weights
    a = off + half * _f_offset_masked(coef, off)
    rhs = w * (a + a)
    rhs[-1] += (half * (w[-1] * sup[-1])) * (2.0 * ghost)
    d, e, info = dpttrf(w - half * (w * diag), half * -(w[:-1] * sup[:-1]))
    assert info == 0
    x, info = dpttrs(d, e, rhs)
    assert info == 0
    b = x - a
    out = b + half * _f_offset_masked(coef, b)
    return out - off, out


def _newton_step(grid, off, sin_sq, sin_cos, m, dt, ghost):
    """The IMEX1 step as one proximal Newton step on E_h, from scratch:
    (W/dt - W Op + diag(W F')) delta = -grad E_h, with grad E_h from the
    edges and sin cos and the tail energies and W F' = 2 m^2 tw sin^2 u
    (tw the log-trapezoid weights), solved by scipy's dptsv; returns
    (delta, off + delta)."""
    from scipy.linalg.lapack import dptsv

    h, w, tw = grid.log_step, grid.weights, grid._trapz_log
    _, diag, sup = grid.operator_bands(1.0, float(m * m))
    e = off[1:] - off[:-1]
    rhs = ((np.concatenate((e, [0.0])) - np.concatenate(([0.0], e)))
           * (1.0 / h) - (m * m * tw) * sin_cos)
    rhs[0] -= m * off[0]
    rhs[-1] -= m * (off[-1] - ghost)
    d = (w / dt - w * diag) - (2.0 * (m * m * tw)) * sin_sq
    *_, delta, info = dptsv(d, -(w[:-1] * sup[:-1]), rhs)
    assert info == 0
    return delta, off + delta


@pytest.mark.parametrize("scheme", ["IMEX1", "IMEX2"])
@pytest.mark.parametrize("m, inner", [(2, 0.0), (3, np.pi)])
def test_step_keeps_the_bits_of_the_packed_dgtsv_step(scheme, m, inner):
    # guards every artifact's bits against trims of the step: both schemes
    # against from-scratch references of their energy-metric solves
    g = build_grid(1e-4, 1e3, 512)
    if inner == 0.0:
        off = gaussian_bump(g, 1.2, 0.5, m)
    else:
        off = -2.0 * np.arctan(g.nodes**m) + gaussian_bump(g, 0.3, 2.0, m)
    ghost = RadialField(g, off, inner).outer_ghost_offset()
    coeffs = evolve_module._rate_coeffs(g, m)
    for dt in [2e-3] * 10 + [1e-3, 5e-4] * 5:
        t = np.tan(off)
        sin_cos = t / (1.0 + t * t)
        sin_sq = t * sin_cos
        if scheme == "IMEX1":
            want = _newton_step(g, off, sin_sq, sin_cos, m, dt, ghost)
        else:
            want = _cn_step(g, off, m, dt, ghost)
        got = evolve_module._step_offset(g, off, (sin_sq, sin_cos), m,
                                         coeffs, dt, scheme, ghost,
                                         np.diff(off))
        assert np.isfinite(got[1]).all()
        assert same_bits(got[0], want[0])
        assert same_bits(got[1], want[1])
        off = got[1]


def test_f_offset_against_mpmath():
    # F / coef = v - sin v cos v against 200-bit arithmetic; the closed
    # form's cancellation is largest just outside the series band
    import mpmath

    mpmath.mp.prec = 200
    v = trig_probe_points()
    got = evolve_module._f_offset(np.ones_like(v), v, sin_terms(v)[1])
    for x, f in zip(v.tolist(), got.tolist()):
        want = mpmath.mpf(x) - mpmath.sin(x) * mpmath.cos(x)
        assert abs(f - want) <= 1e-9 * abs(want)


# a trial with one non-finite node: its E_h is NaN or +inf (tan of +-inf
# is NaN, and every term of E_h is a square), so the gate alone rejects it
# and the step is retried at half the dt, with no separate finite check
@pytest.mark.parametrize("node", [0, 1000, -1], ids=["first", "mid", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "pos_inf", "neg_inf"])
def test_a_trial_with_a_non_finite_node_is_rejected(default_grid, monkeypatch,
                                                    node, bad):
    g = default_grid
    off = gaussian_bump(g)
    off[node] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        e = gate_energy(g, off, np.diff(off), sin_terms(off)[0], 2, 0.0)
    assert np.isnan(e) or e == np.inf
    real_step = evolve_module._step_offset
    trials = []

    def step_once_bad(grid, off, terms, m, coeffs, dt, *args):
        trials.append(dt)
        delta, new_off = real_step(grid, off, terms, m, coeffs, dt, *args)
        if len(trials) == 1:
            new_off[node] = bad
        return delta, new_off

    monkeypatch.setattr("hmflow.evolve._step_offset", step_once_bad)
    rec = evolve(RadialField(g, gaussian_bump(g)), 2, t_end=4e-3,
                 stepper=StepperConfig(dt=1e-3), sample_every=1e-3)
    assert rec.status == STATUS_GLOBAL
    assert trials[:2] == [1e-3, 5e-4]
    assert rec.times[-1] == pytest.approx(4e-3)
    assert all(np.isfinite(f.offset).all() for f in rec.fields)


def _failing_solve(grid, fails):
    """solve_shifted of grid that raises LinAlgError on the trials for
    which fails(k) holds, k counting from 0; returns the list of alphas."""
    real_solve = grid.solve_shifted
    alphas = []

    def solve(rhs, alpha, *args, **kwargs):
        alphas.append(alpha)
        if fails(len(alphas) - 1):
            raise np.linalg.LinAlgError(
                "shifted operator is not positive definite")
        return real_solve(rhs, alpha, *args, **kwargs)

    return solve, alphas


def test_a_trial_whose_solve_raises_is_retried_at_half_the_dt(monkeypatch):
    # a non positive definite IMEX1 matrix fails the trial like an energy
    # rise; the LinAlgError used to escape evolve
    g = build_grid(1e-4, 1e3, 256)
    solve, alphas = _failing_solve(g, lambda k: k == 0)
    monkeypatch.setattr(g, "solve_shifted", solve)
    rec = evolve(RadialField(g, gaussian_bump(g)), 2, t_end=4e-3,
                 stepper=StepperConfig(dt=1e-3), sample_every=1e-3)
    assert rec.status == STATUS_GLOBAL
    assert alphas[:2] == [1e-3, 5e-4]
    assert rec.times[-1] == pytest.approx(4e-3)


@pytest.mark.parametrize("data", [_bump(1.0), _bubble(0.05)],
                         ids=["zero_degree", "degree_m"])
def test_a_solve_that_raises_at_the_floor_step_aborts(monkeypatch, data):
    # halving from dt = 1e-3 takes 20 attempts to reach the floor step size
    # 1e-9, and the failure there ends the run
    g = build_grid(1e-4, 1e3, 256)
    solve, alphas = _failing_solve(g, lambda k: True)
    monkeypatch.setattr(g, "solve_shifted", solve)
    rec = evolve(data(g), 2, t_end=1.0, stepper=StepperConfig(dt=1e-3),
                 sample_every=0.1, scale_floor=1e-3)
    assert rec.status == STATUS_ABORTED
    assert rec.times == [0.0]
    assert len(alphas) == 20 + 1
    assert alphas[-1] == 1e-9


def _energy_gradient(g, off, m, inner):
    """grad E_h = -W (Delta_m + F) of the offset, by the operator and the
    nonlinearity (not by the step's own edge form)."""
    u = RadialField(g, off, inner)
    return -g.weights * (apply_delta_m(u, m).values
                         + nonlinearity(u, m).values)


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("inner", [0.0, np.pi], ids=["zero_degree",
                                                     "degree_m"])
def test_every_imex1_increment_descends_the_energy(m, inner):
    # with W + dt grad^2 E_h positive definite, delta = -dt (W + dt
    # grad^2 E_h)^-1 grad E_h has grad E_h . delta < 0; a solve that finds
    # the matrix indefinite raises instead
    g = build_grid(1e-4, 1e3, 256)
    rng = np.random.default_rng(10 * m + int(inner))
    r = g.nodes
    coeffs = evolve_module._rate_coeffs(g, m)
    ghost = 0.0 - inner
    solved = 0
    for _ in range(8):
        s = 10.0 ** rng.uniform(-2.0, 1.0)
        rho = (r / s) ** m
        rough = rng.normal(size=g.n) * rho / (1.0 + rho * rho)
        if inner == 0.0:
            off = rng.uniform(0.5, 2.5) * rho * np.exp(-(r / s) ** 2)
        else:
            off = -2.0 * np.arctan(rho)
        off = off + rng.uniform(0.0, 0.5) * rough
        grad = _energy_gradient(g, off, m, inner)
        for dt in (1e-4, 1e-3, 1e-2, 1e-1):
            try:
                _, new_off = evolve_module._step_offset(
                    g, off, sin_terms(off), m, coeffs, dt, "IMEX1", ghost,
                    np.diff(off))
            except np.linalg.LinAlgError:
                continue
            solved += 1
            assert float(np.dot(grad, new_off - off)) < 0.0
    assert solved >= 16


def _seeded_states(g, m, inner, rng, count):
    """Offsets of count seeded states: a bump (zero-degree) or a bubble
    (degree-m) of random scale, plus a rough perturbation."""
    r = g.nodes
    for _ in range(count):
        s = 10.0 ** rng.uniform(-2.0, 1.0)
        rho = (r / s) ** m
        if inner == 0.0:
            off = rng.uniform(0.5, 2.5) * rho * np.exp(-(r / s) ** 2)
        else:
            off = -2.0 * np.arctan(rho)
        yield off + (rng.uniform(0.0, 0.3) * rng.normal(size=g.n)
                     * rho / (1.0 + rho * rho))


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("inner", [0.0, np.pi], ids=["zero_degree",
                                                     "degree_m"])
def test_folded_imex2_step_matches_the_unfolded_one(m, inner):
    # Crank-Nicolson's explicit half folded into its solve, b = (I -
    # half Op)^-1 (2a) - a, against the operator applied and then solved
    g = build_grid(1e-4, 1e3, 512)
    rng = np.random.default_rng(100 * m + int(inner))
    coeffs = evolve_module._rate_coeffs(g, m)
    coef = m * m / g.nodes**2
    msq = float(m * m)
    ghost = 0.0 - inner
    for off in _seeded_states(g, m, inner, rng, 6):
        for dt in (1e-4, 1e-3, 1e-2):
            half = 0.5 * dt
            a = off + half * _f_offset_masked(coef, off)
            rhs = a + half * g.apply_operator(a, 1.0, msq, ghost)
            b = g.solve_shifted(rhs, half, msq, ghost)
            want = b + half * _f_offset_masked(coef, b)
            delta, got = evolve_module._step_offset(
                g, off, sin_terms(off), m, coeffs, dt, "IMEX2", ghost,
                np.diff(off))
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
            assert np.array_equal(delta, got - off)


class _Retried(Exception):
    """Raised by a step wrapper on a run's second trial."""


@pytest.mark.parametrize("scheme", ["IMEX1", "IMEX2"])
@pytest.mark.parametrize("inner", [0.0, np.pi], ids=["zero_degree",
                                                     "degree_m"])
def test_booked_dissipation_is_the_squared_step(scheme, inner, monkeypatch):
    # an accepted step books ||delta||_W^2 / dt from the step's own
    # increment; IMEX2's delta is out - off, so it books ||new - off||^2
    # to rounding, and IMEX1's is the solve's, which new - off holds up to
    # the rounding r of off + delta, |r| <= eps/2 |new|:
    # | ||delta||^2 - ||new - off||^2 | <= 2 ||new - off|| ||r|| + ||r||^2
    g = build_grid(1e-4, 1e3, 512)
    eps = np.finfo(float).eps
    real_step = evolve_module._step_offset
    trials = []

    def first_trial_only(*args):
        # a run to t_end = dt whose first trial is accepted makes no other
        if trials:
            raise _Retried
        trials.append(1)
        return real_step(*args)

    monkeypatch.setattr(evolve_module, "_step_offset", first_trial_only)
    checked = 0
    for m in (1, 2, 4):
        rng = np.random.default_rng(m + 10 * int(inner))
        for off in _seeded_states(g, m, inner, rng, 4):
            for dt in (1e-4, 1e-3, 1e-2):
                trials.clear()
                try:
                    rec = evolve(RadialField(g, off, inner), m, t_end=dt,
                                 stepper=StepperConfig(dt=dt, scheme=scheme),
                                 sample_every=dt)
                except _Retried:
                    continue
                assert rec.times == [0.0, dt]
                checked += 1
                new = rec.fields[-1].offset
                du = new - off
                want = float(np.dot(g.weights, du * du)) / dt
                booked = rec.dissipated[-1]
                if scheme == "IMEX2":
                    assert booked == pytest.approx(want, rel=1e-14, abs=0.0)
                else:
                    rounding = (2.0 * eps * np.sqrt(g.inner(new, new))
                                * np.sqrt(g.inner(du, du)) / dt)
                    assert abs(booked - want) <= 1e-14 * want + rounding
    assert checked >= 20
