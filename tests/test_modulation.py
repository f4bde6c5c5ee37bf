import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hmflow
from conftest import gaussian_bump
from hmflow.bubble import (BubbleProfile, eval_Q, eval_Q_deriv, eval_Q_offset,
                           eval_h, sample_Q, sample_h)
from hmflow.energy import energy
from hmflow.errors import (ContractViolation, FitUnreliableError,
                           NoBubbleError)
from hmflow.evolve import StepperConfig, evolve
from hmflow.grid import RadialField, build_grid
from hmflow.modulation import (_orth_mismatch, _rate_model_rms, apply_H,
                               apply_L, apply_Lstar,
                               approx_solution_residual, brentq,
                               bubble_decompose, fit_blowup_rate, fit_scale,
                               orthogonality_ok, potential_inequality_margin,
                               track_modulation)


def test_fit_scale_recovers_exact_bubble(default_grid):
    for s in (0.2, 1.0, 5.0):
        u = sample_Q(BubbleProfile(2, s=s), default_grid)
        st = fit_scale(u, 2, s_init=1.0)
        assert st.s == pytest.approx(s, rel=1e-6)
        assert orthogonality_ok(st, default_grid, 2)


def test_fit_scale_with_perturbation(default_grid):
    g = default_grid
    u = RadialField(g, sample_Q(BubbleProfile(2, s=0.8), g).offset
                    + 0.02 * gaussian_bump(g, sigma=5.0),
                    inner_limit=np.pi)
    st = fit_scale(u, 2, s_init=1.0)
    assert st.s == pytest.approx(0.8, rel=0.05)
    # the fitted remainder is orthogonal to h at the fitted scale
    h = eval_h(BubbleProfile(2, st.s), g.nodes)
    assert abs(g.inner(st.xi.values, h)) < 1e-8 * g.lp_norm(h, 2)


def test_fit_scale_with_body_reference(default_grid):
    g = default_grid
    w = RadialField(g, 0.05 * gaussian_bump(g, sigma=8.0))
    u = RadialField(g, sample_Q(BubbleProfile(2, s=0.5), g).offset + w.values,
                    inner_limit=np.pi)
    st = fit_scale(u, 2, w=w, s_init=1.0)
    assert st.s == pytest.approx(0.5, rel=1e-4)


def test_fit_scale_guards(default_grid):
    u = sample_Q(BubbleProfile(2), default_grid)
    with pytest.raises(ContractViolation):
        fit_scale(u, 2, s_init=1e-5)   # below the resolvable range
    with pytest.raises(ContractViolation):
        fit_scale(u, 2, s_init=1e4)


def test_fit_scale_no_root(default_grid):
    # m = 1 pairing is dominated by the slowly decaying 1/r tail of h; a
    # strong negative far-field perturbation keeps the mismatch one-signed,
    # so no orthogonality root exists in any nearby decade
    g = default_grid
    u = RadialField(g, eval_Q_offset(BubbleProfile(1), g.nodes)
                    - 1.5 * eval_h(BubbleProfile(1, s=4.0), g.nodes),
                    inner_limit=np.pi)
    with pytest.raises(NoBubbleError):
        fit_scale(u, 1, s_init=1.0)


def _scale_mismatch():
    # fit_scale's root function: a perturbed bubble's orthogonality
    # mismatch in log s
    g = build_grid(1e-3, 1e2, 256)
    base = (sample_Q(BubbleProfile(2, s=0.7), g).values
            + 0.05 * gaussian_bump(g, sigma=3.0))

    def mismatch(log_s):
        s = np.exp(log_s)
        return _orth_mismatch(g, base - eval_Q(BubbleProfile(2, s), g.nodes), 2, s)

    return mismatch


@pytest.mark.parametrize("f,a,b", [
    (_scale_mismatch(), np.log(0.2), np.log(3.0)),
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, -1.0, 2.5),
    (lambda x: math.tanh(3.0 * x - 0.7), -4.0, 5.0),
    (lambda x: x * math.exp(-x * x) - 0.1, 0.05, 1.0),
    (lambda x: math.sin(5.0 * x) + 0.3, 0.5, 1.0),
], ids=["scale_mismatch", "cubic", "cos", "tanh", "gauss", "sin"])
def test_brentq_port_matches_scipy(f, a, b):
    from scipy import optimize
    for xtol, rtol in ((1e-14, 1e-15), (2e-12, 4 * np.finfo(float).eps),
                       (1e-6, 1e-10)):
        assert brentq(f, a, b, xtol, rtol) == optimize.brentq(f, a, b,
                                                              xtol=xtol,
                                                              rtol=rtol)


def test_import_leaves_unused_scipy_subpackages_unloaded():
    # brentq, gamma and the derivative stencil are in-tree; scipy.optimize
    # and scipy.special add about 0.2 s to every fresh interpreter, and
    # scipy.sparse 34 modules
    src = str(Path(hmflow.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hmflow; "
            "print([k for k in ('scipy.optimize', 'scipy.special', "
            "'scipy.sparse') if k in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _kernel_residual(n):
    g = build_grid(1e-4, 1e3, n)
    p = BubbleProfile(2)
    h = sample_h(p, g)
    out = apply_L(h, p)
    return g.lp_norm(out.values, 2)


def test_L_annihilates_h():
    # L h = 0 analytically; the stencil residual converges at second order
    e1, e2 = _kernel_residual(2048), _kernel_residual(4096)
    assert e1 < 1e-3
    assert e1 / e2 > 3.0


def test_L_annihilates_h_analytic_derivative(default_grid):
    g = default_grid
    p = BubbleProfile(2)
    h = sample_h(p, g)
    h_r = np.cos(eval_Q(p, g.nodes)) * eval_Q_deriv(p, g.nodes)
    out = apply_L(h, p, field_r=h_r)
    assert g.lp_norm(out.values, 2) < 1e-12


def test_adjoint_identity(default_grid):
    g = default_grid
    p = BubbleProfile(2, s=0.7)
    xi = RadialField(g, gaussian_bump(g, sigma=0.5))
    eta = RadialField(g, np.sin(g.nodes) * np.exp(-g.nodes))
    lhs = g.inner(apply_L(xi, p).values, eta.values)
    rhs = g.inner(xi.values, apply_Lstar(eta, p).values)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_H_is_nonnegative_quadratic_form(default_grid):
    g = default_grid
    p = BubbleProfile(2)
    xi = RadialField(g, gaussian_bump(g, sigma=2.0))
    quad = g.inner(apply_H(xi, p).values, xi.values)
    norm_sq = g.lp_norm(apply_L(xi, p).values, 2) ** 2
    assert quad == pytest.approx(norm_sq, rel=1e-12)
    assert quad >= 0.0


def test_potential_inequality_margin(default_grid):
    # 1 + m^2 - 2m cos(Q) >= (m-1)^2 at every node
    for m in (1, 2, 3, 4):
        margin = potential_inequality_margin(BubbleProfile(m), default_grid)
        assert margin >= -1e-11


def test_approx_solution_residual(default_grid):
    g = default_grid
    p = BubbleProfile(2)
    zero = RadialField(g, np.zeros(g.n))
    resid, x1 = approx_solution_residual(p, zero)
    assert np.all(resid.values == 0.0) and x1 == 0.0
    w = RadialField(g, 0.1 * gaussian_bump(g, sigma=5.0))
    _, x1 = approx_solution_residual(p, w)
    assert 0.0 < x1 < np.inf


def test_track_modulation_stationary(default_grid):
    q = sample_Q(BubbleProfile(2), default_grid)
    rec = evolve(q, 2, t_end=0.2, stepper=StepperConfig(dt=1e-3),
                 sample_every=0.05)
    track = track_modulation(rec, s_init=1.0)
    assert track.truncated_reason is None
    assert len(track.times) == len(rec.times)
    assert np.max(np.abs(track.scales - 1.0)) < 1e-3
    assert not track.flagged.any()
    assert len(track.orth_residuals) == len(track.times)


def _synthetic_track(L, T=2.0, n=60):
    tau = np.geomspace(0.5, 1e-5, n)
    t = T - tau
    corr = 2.0 * L / (2.0 * L - 1.0)
    s = 0.3 * tau**L / np.abs(np.log(tau)) ** corr
    return t, s


@pytest.mark.parametrize("L", [1, 2, 3])
def test_rate_fit_recovers_exponent(L):
    fit = fit_blowup_rate(*_synthetic_track(L))
    assert fit.L_fit == L
    assert fit.reliable
    assert fit.T_est == pytest.approx(2.0, abs=1e-3)
    assert fit.rms < 1e-2
    assert set(fit.rms_by_exponent) == {1, 2, 3}


def test_rate_model_needs_every_sample_before_the_blowup_time():
    # log(T - t) is undefined at or past a sample, so such a T has no fit
    t, s = _synthetic_track(1)
    log_s = np.log(s)
    assert np.isfinite(_rate_model_rms(t, log_s, 2.0, 1))
    for T in (t[-1], t[-2]):
        assert _rate_model_rms(t, log_s, T, 1) == np.inf


def test_rate_fit_rejects_thin_or_flat_tracks():
    short = _synthetic_track(1, n=10)
    with pytest.raises(FitUnreliableError):
        fit_blowup_rate(*short)
    n = 60
    with pytest.raises(FitUnreliableError):
        fit_blowup_rate(np.linspace(0, 1, n), np.full(n, 0.5))


def _exponential_track(t_span, n=60):
    t = np.linspace(0.0, t_span, n)
    s = 0.5 * np.exp(-6.0 * t / t_span)
    return t, s


def test_rate_fit_flags_wrong_model():
    # scale history that is not a power law at all: exponential in t.  Over
    # t in [0, 5] at most 5 samples lie within 1/e of any blow-up time, so
    # the fit is refused; the same history over [0, 0.25] lies in the law's
    # domain, and the fit is made and flagged by its residual
    with pytest.raises(FitUnreliableError):
        fit_blowup_rate(*_exponential_track(5.0))
    fit = fit_blowup_rate(*_exponential_track(0.25))
    assert not fit.reliable


def test_rate_fit_refuses_track_outside_law_domain():
    # a power law in T - t sampled evenly over 5 time units passes the
    # length and decade requirements, but no candidate T leaves 30 samples
    # with T - t <= 1/e; this used to return L_fit = 1 with T_est = nan
    n = 60
    t = np.linspace(0.0, 5.0, n)
    s = (5.1 - t) ** 2
    with pytest.raises(FitUnreliableError, match="1/e"):
        fit_blowup_rate(t, s)


def test_bubble_decompose(default_grid):
    g = default_grid
    u = RadialField(g, sample_Q(BubbleProfile(2, s=0.3), g).offset
                    + 0.1 * gaussian_bump(g, sigma=10.0),
                    inner_limit=np.pi)
    profile, body, xi, report = bubble_decompose(u, 2, s_init=1.0)
    assert profile.s == pytest.approx(0.3, rel=0.05)
    assert report["E_total"] == pytest.approx(energy(u, 2).total)
    assert report["E_bubble"] == 4.0
    assert report["E_body"] < report["E_total"]
    # remainder lives near the bubble, body in the far field
    assert energy(xi, 2).total < report["E_total"]


def test_bubble_decompose_needs_degree_sector(default_grid):
    g = default_grid
    u = RadialField(g, gaussian_bump(g))
    with pytest.raises(ContractViolation):
        bubble_decompose(u, 2)
