"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
pass/fail line (run with -s to see them as they happen).  Expensive scenario
runs are shared through module-scoped fixtures; the runtime budget of a
shared run is charged to the first criterion that needs it.
"""

import sys
import time

import numpy as np
import pytest

from hmflow.bubble import BubbleProfile, energy_of_Q, sample_Q, sample_h
from hmflow.energy import (energy, exterior_energy, g_inverse,
                           pointwise_bound_check, xp_norm)
from hmflow.evolve import StepperConfig, dissipation_audit, evolve
from hmflow.grid import RadialField, build_grid, solve_helmholtz
from hmflow.lift import commutation_residual, lift, unlift
from hmflow.modulation import apply_H, apply_L, apply_Lstar, \
    potential_inequality_margin
from hmflow.runner import build_run_config, execute

_global_runs = []


def _report(num, name, ok):
    line = "criterion %02d %-28s %s" % (num, name, "PASS" if ok else "FAIL")
    print(line)
    print(line, file=sys.stderr)
    assert ok, line


def _scenario(tmp, name, **over):
    raw = {"scenario": name}
    raw.update({k: str(v) for k, v in over.items()})
    cfg = build_run_config(raw, out_dir=str(tmp))
    t0 = time.perf_counter()
    res = execute(cfg)
    elapsed = time.perf_counter() - t0
    if res.status == "Global":
        _global_runs.append(res)
    return res, elapsed


@pytest.fixture(scope="module")
def decay(tmp_path_factory):
    return _scenario(tmp_path_factory.mktemp("decay"), "below_threshold_decay")


@pytest.fixture(scope="module")
def decay_refined(tmp_path_factory):
    # the residual accumulates while dissipation is active (t < 1) and then
    # plateaus, so a shorter horizon measures the same maximum at 1/4 cost
    return _scenario(tmp_path_factory.mktemp("decay_ref"),
                     "below_threshold_decay", dt=2.5e-4, n=4096, t_end=5)


@pytest.fixture(scope="module")
def stability(tmp_path_factory):
    return _scenario(tmp_path_factory.mktemp("stab"),
                     "above_threshold_stability")


@pytest.fixture(scope="module")
def blowup(tmp_path_factory):
    return _scenario(tmp_path_factory.mktemp("blow"), "m1_blowup")


def test_criterion_01_bubble_energy():
    t0 = time.perf_counter()
    g = build_grid(1e-4, 1e3, 2048)
    worst = max(abs(energy_of_Q(m, g) - 2.0 * m) / (2.0 * m)
                for m in (1, 2, 3, 4))
    ok = worst <= 1e-3 and (time.perf_counter() - t0) < 1.0
    _report(1, "bubble_energy_2m", ok)


def test_criterion_02_stationarity():
    t0 = time.perf_counter()
    drifts = []
    for n in (2048, 4096):
        g = build_grid(1e-4, 1e3, n)
        q = sample_Q(BubbleProfile(2), g)
        rec = evolve(q, 2, t_end=1.0, stepper=StepperConfig(dt=1e-3),
                     sample_every=0.1)
        drifts.append(max(
            xp_norm(RadialField(g, f.values - q.values), 2, 2)
            for f in rec.fields))
        if n == 2048:
            _global_runs.append(rec)
    scale = np.sqrt(2 * energy(q, 2).total)
    ok = (drifts[0] <= 1e-3 * scale
          and drifts[0] / drifts[1] >= 3.0
          and (time.perf_counter() - t0) < 30.0)
    _report(2, "bubble_stationarity", ok)


def test_criterion_03_dissipation_identity(decay, decay_refined):
    res, t_base = decay
    ref, t_ref = decay_refined
    e0 = res.summary["final_metrics"]["E_initial"]
    base = res.summary["final_metrics"]["max_dissipation_residual"]
    fine = ref.summary["final_metrics"]["max_dissipation_residual"]
    ok = (base < 0.01 * e0
          and fine <= 0.5 * base
          and (t_base + t_ref) < 60.0)
    _report(3, "dissipation_identity", ok)


def test_criterion_04_below_threshold_decay(decay):
    res, _ = decay
    fm = res.summary["final_metrics"]
    ok = (res.status == "Global"
          and fm["t_end"] == pytest.approx(20.0, abs=1e-9)
          and fm["E_final"] < 0.05 * fm["E_initial"]
          and fm["sup_abs_u_final"] < 0.1)
    _report(4, "below_threshold_decay", ok)


def test_criterion_05_pointwise_bound(decay):
    res, _ = decay
    rec = res.record
    delta1 = 0.2 * 8.0  # 0.2 * twice the m = 2 bubble energy
    cap = np.pi - (np.pi - float(g_inverse(4.0 - 0.5 * delta1, 2)))
    violations = 0
    applied = 0
    for f, eb in zip(rec.fields, rec.energies):
        if eb.total > 4.0 * rec.m - delta1:
            continue  # the bound's energy precondition does not hold yet
        applied += 1
        delta2, good = pointwise_bound_check(f, rec.m, delta1)
        if not good:
            violations += 1
    ok = applied > 0 and violations == 0 and cap < np.pi
    _report(5, "pointwise_sup_bound", ok)


def test_decay_keeps_the_pointwise_bound_at_every_sample(decay):
    # the evidence for the zero-degree Global verdict: E never rises, so
    # delta1 = 4m - E(u0) bounds sup |u| below pi at every sample, the
    # early ones that criterion 05 skips included
    rec = decay[0].record
    delta1 = 4.0 * rec.m - rec.energies[0].total
    assert len(rec.fields) == 41
    assert all(pointwise_bound_check(f, rec.m, delta1)[1] for f in rec.fields)


def test_criterion_06_above_threshold_convergence(stability):
    res, elapsed = stability
    e_init = res.summary["final_metrics"]["E_initial"]
    ok = (res.status == "Global"
          and 2.4 * 8.0 <= e_init <= 2.6 * 8.0
          and res.checks["scale_stabilized"]
          and res.checks["bubble_residual_small"]
          and res.checks["orthogonality_clean"]
          and elapsed < 120.0)
    _report(6, "above_threshold_convergence", ok)


def test_criterion_07_m1_singular_behavior(blowup):
    res, elapsed = blowup
    ok = (res.checks["status_blowup"]
          and res.checks["scale_fell_1p5_decades"]
          and res.checks["ratio_to_sqrt_decreasing"]
          and res.checks["rate_exponent_is_1"]
          and elapsed < 180.0)
    _report(7, "m1_singular_behavior", ok)


def test_m1_blowup_energy_ledger_closes(blowup):
    # E(u0) = E(u(t)) + dissipated holds step by step for the energy the
    # scheme descends; an outer Dirichlet ghost, which that energy does not
    # see, left 13.8% of E0 unaccounted on this preset
    res, _ = blowup
    metrics = res.summary["final_metrics"]
    assert (metrics["max_dissipation_residual"]
            <= 1e-3 * metrics["E_initial"])


def test_criterion_08_linearized_suite():
    t0 = time.perf_counter()
    norms = []
    for n in (2048, 4096):
        g = build_grid(1e-4, 1e3, n)
        p = BubbleProfile(2)
        norms.append(g.lp_norm(apply_H(sample_h(p, g), p).values, 2))
    second_order = norms[0] < 1e-2 and norms[0] / norms[1] >= 3.0

    g = build_grid(1e-4, 1e3, 2048)
    p = BubbleProfile(2, s=0.7)
    xi = RadialField(g, (g.nodes / 0.5) ** 2 * np.exp(-((g.nodes / 0.5) ** 2)))
    eta = RadialField(g, np.sin(g.nodes) * np.exp(-g.nodes))
    lhs = g.inner(apply_L(xi, p).values, eta.values)
    rhs = g.inner(xi.values, apply_Lstar(eta, p).values)
    adjoint_exact = abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    margins_ok = all(
        potential_inequality_margin(BubbleProfile(m), g) >= -1e-11
        for m in (1, 2, 3, 4))
    ok = (second_order and adjoint_exact and margins_ok
          and (time.perf_counter() - t0) < 5.0)
    _report(8, "linearized_operator_suite", ok)


def test_criterion_09_lift_oracle():
    t0 = time.perf_counter()
    m = 2
    res = []
    for n in (2048, 4096):
        g = build_grid(1e-4, 1e3, n)
        u = RadialField(g, g.nodes**m * np.exp(-g.nodes**2))
        res.append(commutation_residual(u, m))
    commutes = res[0] < 1e-2 and res[0] / res[1] >= 3.0

    def linear_error(dt):
        g = build_grid(1e-4, 1e3, 2048)
        # e^{t Delta_m} by implicit Euler steps of the linear operator alone
        off = g.nodes**m * np.exp(-g.nodes**2)
        steps = round(0.1 / dt)
        for _ in range(steps):
            off = solve_helmholtz(RadialField(g, off), m, dt).offset
        d = 2 * m + 2
        s2 = 1.0 + 4.0 * steps * dt
        exact = (1.0 / s2) ** (d / 2.0) * g.nodes**m * np.exp(-g.nodes**2 / s2)
        win = (g.nodes > 10 * g.r_min) & (g.nodes < g.r_max / 10)
        return float(np.max(np.abs(off[win] - exact[win])))

    e1, e2 = linear_error(2e-3), linear_error(1e-3)
    gaussian_match = e1 < 5e-3 and e1 / e2 >= 1.5
    ok = commutes and gaussian_match and (time.perf_counter() - t0) < 30.0
    _report(9, "dimension_lift_oracle", ok)


def test_criterion_10_no_concentration_at_infinity(decay, stability, blowup):
    # runs on every Global trajectory recorded by the suite so far
    checked = 0
    ok = True
    for item in _global_runs:
        rec = item.record if hasattr(item, "record") else item
        if rec is None or rec.status != "Global":
            continue
        R = rec.grid.r_max / 10.0
        e0 = rec.energies[0].total
        first = exterior_energy(rec.fields[0], rec.m, R)
        last = exterior_energy(rec.fields[-1], rec.m, R)
        ok = ok and (last <= first + 0.01 * e0)
        checked += 1
    ok = ok and checked >= 3
    _report(10, "no_concentration_at_infinity", ok)
