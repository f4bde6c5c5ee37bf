"""Bubble-scale extraction and the linearized machinery around Q^s.

The scale s of a near-bubble field u = Q^s + w + xi is fixed by the
orthogonality condition (xi, h^s)_{L^2(r dr)} = 0, solved as a 1-d root
find in log s (safeguarded bracketing; the nearest root to the initial
guess wins, realizing the locality of the implicit-function argument).

The linearized operator about Q^s is handled only through its factorized
form: the first-order factor A = d/dr + (m/r) cos(Q^s) annihilates h^s,
its adjoint is taken discretely exactly in the weighted inner product, and
the second-order operator is the composition adjoint(A) o A.  (The
factorization is the self-consistent definition; see the identity
A h^s = 0 checked in the tests.)
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Optional, Tuple

import numpy as np

from .bubble import BubbleProfile, eval_h, eval_hhat, eval_Q, eval_Q_offset
from .energy import classify, E1_LABEL, energy, smoothstep, xp_norm
from .errors import ContractViolation, FitUnreliableError, NoBubbleError
from .grid import RadialField, RadialGrid

ORTH_TOL = 1e-8  # |(xi, h^s)| <= ORTH_TOL * ||xi|| * ||h^s|| after a fit


@dataclass
class ModulationState:
    s: float
    xi: RadialField
    orth_residual: float


@dataclass
class ScaleTrack:
    times: np.ndarray
    scales: np.ndarray
    sdots: np.ndarray
    flagged: np.ndarray          # samples whose orthogonality residual exceeded tol
    orth_residuals: np.ndarray
    truncated_reason: Optional[str] = None


@dataclass
class BlowupRateFit:
    T_est: float
    L_fit: int
    rms: float
    rms_by_exponent: dict
    reliable: bool


def _orth_mismatch(grid: RadialGrid, resid_values: np.ndarray, m: int, s: float) -> float:
    h = eval_h(BubbleProfile(m, s), grid.nodes)
    return grid.inner(resid_values, h)


def brentq(f, xa: float, xb: float, xtol: float, rtol: float,
           maxiter: int = 100) -> float:
    """Root of f in [xa, xb] by Brent's method: a line-for-line port of
    scipy's brentq.c, so it returns scipy.optimize.brentq's root bit for
    bit without importing scipy.optimize."""
    def fx(x):
        y = float(f(x))
        if math.isnan(y):
            raise ValueError(f"the function value at x={x} is NaN")
        return y

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            bound = abs(spre)
            if not bound < 3 * abs(sbis) - delta:
                bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations")


def fit_scale(u: RadialField, m: int, w: Optional[RadialField] = None,
              s_init: float = 1.0) -> ModulationState:
    """Find s with (u - w - Q^s, h^s)_{L^2(rdr)} = 0 nearest to s_init.

    Brackets in log s by stepwise expansion around s_init (so the nearest
    sign change is found first), then solves by Brent's method.  Raises
    NoBubbleError if no sign change exists within three decades of s_init.
    """
    g = u.grid
    if not (g.r_min * 10 <= s_init <= g.r_max / 10):
        raise ContractViolation(f"s_init {s_init} outside the resolvable range")
    # u - Q^s is formed from the offsets u - inner_limit and Q^s - pi,
    # which are exact near the origin where u and Q^s round to pi
    base = u.offset + (u.inner_limit - np.pi)
    if w is not None:
        base = base - w.values

    def mismatch(log_s):
        s = np.exp(log_s)
        resid = base - eval_Q_offset(BubbleProfile(m, s), g.nodes)
        return _orth_mismatch(g, resid, m, s)

    x0 = np.log(s_init)
    f0 = mismatch(x0)
    bracket = None
    if f0 == 0.0:
        root = x0
    else:
        dx = 0.05
        lo = hi = x0
        flo = fhi = f0
        limit = np.log(1e3)
        while hi - x0 < limit or x0 - lo < limit:
            if hi - x0 < limit:
                nxt, fn = hi + dx, mismatch(hi + dx)
                if np.sign(fn) != np.sign(fhi):
                    bracket = (hi, nxt)
                    break
                hi, fhi = nxt, fn
            if x0 - lo < limit:
                nxt, fn = lo - dx, mismatch(lo - dx)
                if np.sign(fn) != np.sign(flo):
                    bracket = (nxt, lo)
                    break
                lo, flo = nxt, fn
            dx = min(dx * 1.3, 0.5)
        if bracket is None:
            raise NoBubbleError(
                f"no orthogonality root within [{s_init / 1e3:g}, {s_init * 1e3:g}]")
        root = brentq(mismatch, bracket[0], bracket[1], xtol=1e-14, rtol=1e-15)

    s = float(np.exp(root))
    xi_vals = base - eval_Q_offset(BubbleProfile(m, s), g.nodes)
    h = eval_h(BubbleProfile(m, s), g.nodes)
    orth = abs(g.inner(xi_vals, h))
    return ModulationState(s=s, xi=RadialField(g, xi_vals), orth_residual=orth)


def orthogonality_ok(state: ModulationState, grid: RadialGrid, m: int) -> bool:
    h_norm = grid.lp_norm(eval_h(BubbleProfile(m, state.s), grid.nodes), 2)
    xi_norm = grid.lp_norm(state.xi.values, 2)
    return state.orth_residual <= ORTH_TOL * max(xi_norm * h_norm, 1e-300)


# ---- linearized operators ------------------------------------------------


def apply_L(field: RadialField, profile: BubbleProfile,
            field_r: Optional[np.ndarray] = None) -> RadialField:
    """First-order factor: xi_r + (m/r) cos(Q^s) xi.

    Pass field_r to use an analytic derivative instead of the stencil.
    """
    g = field.grid
    dr = g.derivative(field.values) if field_r is None else field_r
    hhat = eval_hhat(profile, g.nodes)
    return RadialField(g, dr + (profile.m / g.nodes) * hhat * field.values)


def apply_Lstar(field: RadialField, profile: BubbleProfile) -> RadialField:
    """Exact discrete adjoint of apply_L in the weighted inner product:
    W^{-1} D^T W eta + (m/r) cos(Q^s) eta."""
    g = field.grid
    dt_part = g.derivative_adjoint(g.weights * field.values) / g.weights
    hhat = eval_hhat(profile, g.nodes)
    return RadialField(g, dt_part + (profile.m / g.nodes) * hhat * field.values)


def apply_H(field: RadialField, profile: BubbleProfile) -> RadialField:
    """Linearized operator about Q^s, by composition of the factors."""
    return apply_Lstar(apply_L(field, profile), profile)


def potential_inequality_margin(profile: BubbleProfile, grid: RadialGrid) -> float:
    """Nodewise min of 1 + m^2 - 2m cos(Q^s) - (m-1)^2; nonnegative since
    cos(Q^s) <= 1, which is what makes the reverse factorization positive."""
    m = profile.m
    hhat = eval_hhat(profile, grid.nodes)
    return float(np.min(1.0 + m * m - 2.0 * m * hhat - (m - 1) ** 2))


# ---- approximate solution residual ---------------------------------------


def approx_solution_residual(profile: BubbleProfile, w: RadialField
                             ) -> Tuple[RadialField, float]:
    """Residual of the superposition Q^s + w under the flow, and its
    ``xp_norm`` at p = 1.

    The residual is (m^2 / 2r^2)(sin(2Q^s)(1 - cos 2w) + sin(2w)(1 - cos 2Q^s)).
    """
    g = w.grid
    m = profile.m
    q = eval_Q(profile, g.nodes)
    vals = (m * m / (2.0 * g.nodes**2)) * (
        np.sin(2 * q) * (1.0 - np.cos(2 * w.values))
        + np.sin(2 * w.values) * (1.0 - np.cos(2 * q)))
    resid = RadialField(g, vals)
    return resid, xp_norm(resid, m, 1)


# ---- trajectory-level tracking -------------------------------------------


def track_modulation(record, s_init: float = 1.0) -> ScaleTrack:
    """Fit s at every trajectory sample, warm-starting from the previous one.

    A NoBubbleError at any sample truncates the track there with the cause
    recorded; sdot is by centered differences on the sample times.
    """
    times, scales, flags, resids = [], [], [], []
    reason = None
    s_prev = s_init
    for k, fld in enumerate(record.fields):
        try:
            st = fit_scale(fld, record.m, s_init=s_prev)
        except (NoBubbleError, ContractViolation) as exc:
            reason = f"sample {k} (t={record.times[k]:g}): {exc}"
            break
        times.append(record.times[k])
        scales.append(st.s)
        flags.append(not orthogonality_ok(st, fld.grid, record.m))
        resids.append(st.orth_residual)
        s_prev = st.s
    t = np.asarray(times)
    s = np.asarray(scales)
    sdot = np.gradient(s, t) if len(t) >= 2 else np.zeros_like(s)
    return ScaleTrack(t, s, sdot, np.asarray(flags, dtype=bool),
                      np.asarray(resids), reason)


# ---- blow-up rate fitting ------------------------------------------------

_FIT_EXPONENTS = (1, 2, 3)
_RELIABLE_RMS = 0.2  # natural-log units
_MIN_SAMPLES = 30
_MIN_DECADES = 1.5
_MAX_LOG_TAU = -1.0  # the rate law is fitted where T - t <= 1/e


def _enough_samples(log_s: np.ndarray) -> bool:
    return (len(log_s) >= _MIN_SAMPLES
            and np.ptp(log_s) >= _MIN_DECADES * np.log(10.0))


def _rate_model_rms(t: np.ndarray, log_s: np.ndarray, T: float, L: int) -> float:
    """Best rms of log s against L log(T-t) - (2L/(2L-1)) log|log(T-t)| with
    a free intercept, over the samples in the law's asymptotic domain
    T - t <= 1/e (log|log(T-t)| is singular at T - t = 1).  Infinite unless
    at least _MIN_SAMPLES samples over _MIN_DECADES decades of s lie there."""
    tau = T - t
    if np.any(tau <= 0):
        return np.inf
    log_tau = np.log(tau)
    ok = log_tau <= _MAX_LOG_TAU
    if not _enough_samples(log_s[ok]):
        return np.inf
    x = L * log_tau[ok] - (2.0 * L / (2.0 * L - 1.0)) * np.log(-log_tau[ok])
    c = float(np.mean(log_s[ok] - x))
    return float(np.sqrt(np.mean((log_s[ok] - x - c) ** 2)))


def fit_blowup_rate(t: np.ndarray, s: np.ndarray) -> BlowupRateFit:
    """Joint fit of the blow-up time T and the rate exponent, with a free
    prefactor, to shrinking scale samples s at times t.

    The exponent is restricted to {1, 2, 3}; the fit is a diagnostic, not
    asserted ground truth, and is flagged unreliable when even the best
    exponent leaves a large residual.  FitUnreliableError is raised when
    the samples are too few or flat, or when no candidate T leaves enough
    samples in the domain T - t <= 1/e.
    """
    shrinking = np.all(np.diff(s) < 0)
    decades = np.log10(s.max() / s.min()) if len(s) else 0.0
    if not (shrinking and _enough_samples(np.log(s))):
        raise FitUnreliableError(
            f"need >= {_MIN_SAMPLES} strictly decreasing samples over "
            f">= {_MIN_DECADES} decades "
            f"(got {len(s)} samples, {decades:.2f} decades)")
    log_s = np.log(s)
    t_last = t[-1]
    span = t_last - t[0]
    results = {}
    for L in _FIT_EXPONENTS:
        best = (np.inf, np.nan)
        # golden-free scan + refine: T on a geometric ladder past t_last
        offsets = np.geomspace(1e-6 * span, 2.0 * span, 200)
        for dT in offsets:
            rms = _rate_model_rms(t, log_s, t_last + dT, L)
            if rms < best[0]:
                best = (rms, t_last + dT)
        if not np.isfinite(best[0]):
            raise FitUnreliableError(
                f"no blow-up time T leaves >= {_MIN_SAMPLES} samples over "
                f">= {_MIN_DECADES} decades with T - t <= 1/e")
        # local refinement around the scan winner
        dT0 = best[1] - t_last
        for dT in np.geomspace(dT0 / 1.5, dT0 * 1.5, 60):
            rms = _rate_model_rms(t, log_s, t_last + dT, L)
            if rms < best[0]:
                best = (rms, t_last + dT)
        results[L] = best
    L_best = min(results, key=lambda L: results[L][0])
    rms, T = results[L_best]
    return BlowupRateFit(
        T_est=float(T), L_fit=int(L_best), rms=float(rms),
        rms_by_exponent={L: float(results[L][0]) for L in _FIT_EXPONENTS},
        reliable=bool(rms <= _RELIABLE_RMS))


# ---- single-time bubble decomposition ------------------------------------


def bubble_decompose(u: RadialField, m: int, s_init: float = 1.0):
    """Split a degree-m field into bubble + far-field body + remainder.

    The scale comes from fit_scale; the body estimate is the part of
    u - Q^s beyond the geometric-mean radius sqrt(s * 1) between the bubble
    scale and the unit body scale (smoothstep transition in log r, a factor
    2 wide each way).  Returns (profile, body_estimate, xi, energy_report).
    """
    sector = classify(u, m)
    if sector.label != E1_LABEL:
        raise ContractViolation(f"bubble decomposition needs {E1_LABEL} data, "
                                f"got {sector.label}")
    st = fit_scale(u, m, s_init=s_init)
    g = u.grid
    # the E1 label fixes inner_limit = pi, so u - Q^s is the offset difference
    resid = u.offset - eval_Q_offset(BubbleProfile(m, st.s), g.nodes)
    r_split = np.sqrt(st.s * 1.0)
    mask = smoothstep((np.log(g.nodes) - np.log(r_split / 2.0))
                      / np.log(4.0))
    w0 = RadialField(g, mask * resid)
    xi = RadialField(g, (1.0 - mask) * resid)
    profile = BubbleProfile(m, st.s)
    report = {
        "E_total": energy(u, m).total,
        "E_bubble": 2.0 * m,
        "E_body": energy(w0, m).total,
        "E_remainder": energy(xi, m).total,
    }
    report["cross"] = (report["E_total"] - report["E_bubble"]
                       - report["E_body"] - report["E_remainder"])
    return profile, w0, xi, report
