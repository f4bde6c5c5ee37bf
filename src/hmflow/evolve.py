"""Semi-implicit time integration of u_t = Delta_m u + F(u).

The stiff singular-linear part is treated implicitly via tridiagonal solves.
IMEX1 is linearly implicit in the nonlinearity F as well: F'(u) =
(m^2/r^2)(1 - cos 2u), which reaches 2 m^2 / r^2 in a bubble core of
radius s, sits on the diagonal of the same solve, so the stiffness of a
collapsing core does not slow the computed collapse by a splitting error
of order dt/s^2.  With W the r dr weights, Delta_m + F = -W^-1 grad E_h
up to ``energy.tail_gradient_gap`` at node 0, and the step takes E_h's
own gradient, so it is one proximal Newton step on the discrete energy:
(W/dt + grad^2 E_h) delta = -grad E_h, u_new = u + delta, which
``RadialGrid.solve_shifted`` takes as it stands, from the gate's edges
and trig terms by ``energy.neg_gradient`` and ``hessian_potential``.  Its
matrix is symmetric positive definite for small dt (dt times it tends to
W), so one LDL^T solve takes it.  A trial whose matrix is not positive
definite (the solve raises ``numpy.linalg.LinAlgError``) fails like a
trial that raises E_h: only such a matrix makes delta a descent
direction.  IMEX2 keeps F explicit in two half-steps around a
Crank-Nicolson step whose explicit half is folded into its solve:
(I + h Op) a = 2a - (I - h Op) a with h = dt/2, so the step solves
(W/h - W Op)(a + b) = (2/h) W a on the cached LDL^T of that matrix and
applies no operator.  Each step returns its increment delta with the new
state, and the ledger books ||delta||_W^2 / dt.  The stepper works on the
offset u - inner_limit, for which the equation takes the identical form
and the offset vanishes like r^m at the origin: the singular
m^2 * inner_limit / r^2 contributions of Delta_m and F cancel
analytically and are never formed.

Step-size control is tied to the flow's defining monotonicity: the step
descends the discrete energy E_h (``energy.node_energies``), which the
gate, the ledger and every report read, and any increase of E_h beyond
rounding fails the step, which is shrunk and retried.  The gate forms E_h
from two dot products; node energies are built only for the samples.
Each trial takes one tangent of its new state (``energy.sin_terms``): it
gives the gate's sin^2, and, once the state is accepted, the next step's
F' = (2 m^2/r^2) sin^2 u and, with the gate's edges, its gradient of E_h,
so the step path takes no sine of an array (only the inner tail's of v_0).
For degree-m data a step is also retried when the bubble's half-turn
radius falls too far in one step, and a sample is taken each time that
radius falls by a fixed fraction of a decade, so the step size and the
sampling follow a collapse.  A degree-m run ends as blow-up at its first
sampled state (the initial one, or the first accepted step) whose
half-turn radius lies below the resolvable scale (``scale_floor``);
nothing else reads it.  The floor step size is the state's own
(``step_floor`` of its scale estimate): the flow is critical, so the step
that resolves a state shrinks like the square of its scale.  A failure at
the floor step size aborts the run (a retry would repeat the same solve).
Zero-degree data below 2 E(Q) keep sup |u| < pi (``pointwise_bound_check``),
so they cannot bubble and are never screened for concentration.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Optional

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .energy import (EnergyBreakdown, _half_turn_radius, _tan_sin_cos,
                     gate_energy, gradient_weights, hessian_potential,
                     integrate_density, neg_gradient, node_energies,
                     sin_terms)
from .grid import RadialField, RadialGrid, check_degree

STATUS_GLOBAL = "Global"
STATUS_BLOWUP = "Blowup"
STATUS_ABORTED = "Aborted"

# accepted steps may raise the energy by at most this fraction of E(u0)
ENERGY_INCREASE_TOL = 1e-8

# dt shrink factor on a failed step
STEP_SHRINK = 0.5

# largest fall of ln(half-turn radius) an accepted degree-m step may make
MAX_LOG_SCALE_FALL = 0.025

# a degree-m run takes a sample each time the half-turn radius falls by
# this many decades
SAMPLE_DECADES = 1.0 / 16.0

# dt must exceed this fraction of t_end, the square root of the float
# epsilon: a run then takes fewer than 1/sqrt(eps) ~ 6.7e7 steps at dt, and
# the rounding of t over that many additions stays below half a step
DT_MIN_FRACTION = float(np.sqrt(np.finfo(float).eps))


@dataclass
class StepperConfig:
    """The initial and largest step size dt (positive and finite), and the
    scheme; the floor step size is derived (``step_floor``)."""
    dt: float
    scheme: str = "IMEX1"

    def __post_init__(self):
        if self.scheme not in ("IMEX1", "IMEX2"):
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if not 0 < self.dt < np.inf:
            raise ConfigurationError(
                f"dt must be positive and finite, got {self.dt}")


@dataclass
class TrajectoryRecord:
    m: int
    grid: RadialGrid
    times: List[float] = dc_field(default_factory=list)
    energies: List[EnergyBreakdown] = dc_field(default_factory=list)
    dissipated: List[float] = dc_field(default_factory=list)
    l4_accum: List[float] = dc_field(default_factory=list)
    scale_estimates: List[float] = dc_field(default_factory=list)
    fields: List[RadialField] = dc_field(default_factory=list)
    status: str = STATUS_GLOBAL

    @property
    def final_field(self) -> RadialField:
        return self.fields[-1]


def _f_offset(coef: np.ndarray, off: np.ndarray,
              sin_cos: Optional[np.ndarray] = None) -> np.ndarray:
    """coef * (v - sin v cos v), coef = m^2/r^2, from sin_cos = sin v cos v
    (``sin_terms``): F on the offset, for IMEX2's half-steps and
    ``nonlinearity()`` (IMEX1 reads sin v cos v directly).  It takes the
    series (2/3) v^3 (1 - v^2/5) where
    |v| < 1e-3, to kill the cubic-order cancellation.  The series is exact
    to 2e-14 relative in that band; the closed form's rounding, a few ulp
    of v over (2/3) v^3, stays below 4e-10 relative outside it.

    The closed form runs over the span from the first to the last node
    outside that band, the series over the nodes before and after the span
    and over any small nodes inside it, so no array is gathered by a mask.
    Without sin_cos, sin v cos v is taken (``sin_terms``' one tangent) over
    that span only.
    """
    n = off.shape[0]
    out = np.empty(n)
    small = np.abs(off) < 1e-3
    lo = int(small.argmin())
    hi = lo if small[lo] else n - int(small[::-1].argmin())
    span = off[lo:hi]
    sc = _tan_sin_cos(span)[1] if sin_cos is None else sin_cos[lo:hi]
    np.subtract(span, sc, out=out[lo:hi])
    if lo > 0:
        _cubic_series(off[:lo], out[:lo])
    if hi < n:
        _cubic_series(off[hi:], out[hi:])
    if np.count_nonzero(small) > lo + n - hi:
        inside = lo + np.flatnonzero(small[lo:hi])
        out[inside] = _cubic_series(off[inside], np.empty(inside.size))
    out *= coef
    return out


def _cubic_series(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(2/3) v^3 (1 - v^2/5) into out."""
    v2 = v * v
    np.multiply(v, 2.0 / 3.0, out=out)
    out *= v2
    v2 *= -0.2
    v2 += 1.0
    out *= v2
    return out


def _rate_coeffs(grid: RadialGrid, m: int):
    """m^2/r^2, the factor of F on the nodes (IMEX2), and the m^2 tw and
    2 m^2 tw of ``energy.gradient_weights`` (IMEX1)."""
    return (m * m / grid.nodes**2, *gradient_weights(grid, m))


def nonlinearity(field: RadialField, m: int) -> RadialField:
    """F(u) = (m^2/r^2)(u - sin(2u)/2) on the true angle."""
    r = field.grid.nodes
    out = _f_offset(m * m / r**2, field.offset)
    if field.inner_limit != 0.0:
        out = out + m * m * field.inner_limit / r**2
    return RadialField(field.grid, out)


def _step_offset(grid: RadialGrid, off: np.ndarray, terms, m: int, coeffs,
                 dt: float, scheme: str, ghost_outer: float,
                 edges: np.ndarray):
    """One step of the offset off, as (delta, off + delta); terms is
    ``sin_terms(off)`` and edges is ``np.diff(off)``, which the energy gate
    of the step that reached off has formed (sin^2 u and sin u cos u, since
    u and off differ by a multiple of pi), and coeffs is
    ``_rate_coeffs(grid, m)``."""
    msq = float(m * m)
    coef, msq_tw, fp_tw = coeffs
    sin_sq, sin_cos = terms
    if scheme == "IMEX1":
        # the Newton system (W/dt + grad^2 E_h) delta = -grad E_h as it
        # stands, with a zero ghost for delta
        delta = grid.solve_shifted(
            neg_gradient(grid, off, edges, sin_cos, m, ghost_outer, msq_tw),
            dt, msq, potential=hessian_potential(sin_sq, fp_tw, m, off[0]))
        return delta, off + delta
    # IMEX2: explicit half-step of F, Crank-Nicolson diffusion, half-step
    # of F, each formed in place; Crank-Nicolson's explicit half is folded
    # into its solve, (I + half Op) a = 2a - (I - half Op) a, so b solves
    # (W/half - W Op)(a + b) = (2/half) W a with the ghost term doubled
    half = 0.5 * dt
    a = _f_offset(coef, off, sin_cos)
    a *= half
    a += off
    rhs = grid.weights * a
    rhs *= 2.0 / half
    b = grid.solve_shifted(rhs, half, msq, 2.0 * ghost_outer)
    b -= a
    out = _f_offset(coef, b)
    out *= half
    out += b
    return out - off, out


def step(field: RadialField, m: int, config: StepperConfig) -> RadialField:
    """One IMEX step, closed by the tail laws of the sector (the offset
    vanishes at the origin and tends to -inner_limit at infinity)."""
    g = field.grid
    check_degree(m, g.r_min)
    off = field.offset
    _, new_off = _step_offset(g, off, sin_terms(off), m, _rate_coeffs(g, m),
                              config.dt, config.scheme,
                              field.outer_ghost_offset(), np.diff(off))
    return RadialField(g, new_off, field.inner_limit)


def _half_energy_radius(g: RadialGrid, node_e: np.ndarray) -> float:
    """Radius enclosing half the sum of the node energies node_e,
    log-interpolated."""
    total = float(node_e.sum())
    if total <= 0.0:
        return np.nan
    cum = np.cumsum(node_e)
    i = int(np.searchsorted(cum, 0.5 * total))
    if i == 0:
        return float(g.nodes[0])
    w = (0.5 * total - cum[i - 1]) / max(cum[i] - cum[i - 1], 1e-300)
    return float(np.exp((1 - w) * np.log(g.nodes[i - 1]) + w * np.log(g.nodes[i])))


def scale_estimate(field: RadialField, m: int) -> float:
    """Concentration-scale estimate.

    For degree-m sector data: the radius where the angle first drops through
    pi/2 (log-interpolated, or that of the bubble through node 0 when the
    drop lies inside r_min), i.e. the bubble's half-turn radius.  For
    trivial-topology data: the radius enclosing half the energy.
    """
    g = field.grid
    if field.inner_limit == np.pi:
        return _half_turn_radius(g, field.offset, m)
    dir_e, pot_e = node_energies(g, field.offset, m, field.inner_limit)
    return _half_energy_radius(g, dir_e + pot_e)


def step_floor(scale: float) -> float:
    """min(1e-9, scale^2 / 10): the flow is critical (u(t, r) ->
    u(lambda^2 t, lambda r) maps solutions to solutions), so the step that
    resolves a state of scale s shrinks like s^2.  A NaN scale (a state
    with no half-turn crossing or no energy) gets 1e-9."""
    # a product, not a power: a float power raises on overflow
    return min(1e-9, scale * scale / 10.0)


def scale_floor(r_min: float) -> float:
    """10 r_min, the smallest bubble core a grid from r_min resolves."""
    return 10.0 * r_min


def check_horizon(t_end: float, sample_every: float, dt: float) -> None:
    """Raise ContractViolation unless t_end and sample_every are positive
    and finite and dt > DT_MIN_FRACTION * t_end, which bounds the run to
    fewer than 6.7e7 steps at dt and keeps each step above the float
    spacing at t_end."""
    for name, value in (("t_end", t_end), ("sample_every", sample_every)):
        if not 0 < value < np.inf:
            raise ContractViolation(
                f"{name} must be positive and finite, got {value}")
    if not dt > DT_MIN_FRACTION * t_end:
        raise ContractViolation(
            f"dt must exceed sqrt(eps) * t_end = {DT_MIN_FRACTION * t_end:g}"
            f", got {dt}")


def evolve(field: RadialField, m: int, t_end: float, stepper: StepperConfig,
           sample_every: float = 0.05) -> TrajectoryRecord:
    """Adaptive evolution with dissipation ledger and blow-up monitors.

    A degree-m run of any m ends as Blowup at its first sampled state
    whose half-turn radius lies below ``scale_floor(r_min)``: the initial
    state, which then takes no trial step, or the first accepted step
    below it.  IMEX1 descends E_h; IMEX2 descends it up to
    ``energy.tail_gradient_gap``, which its explicit F must not take: with
    it in both half-steps the m1_blowup preset aborts at t 0.006, not 0.41.

    The floor step size is ``step_floor`` of the state's scale estimate,
    capped at half of stepper.dt: a failing step on a wide state ends the
    run at 1e-9 instead of crawling on, a collapse gets steps that shrink
    with its scale, and a stepper.dt below the step of the state's own
    scale still gets a retry and the collapse guard.  Every failure at the
    floor step size ends the run as Aborted.

    Samples are taken every sample_every in t and, for degree-m data, each
    time the half-turn radius falls SAMPLE_DECADES below the smallest
    sampled radius.  Above the floor step size a degree-m step whose
    half-turn radius falls by more than MAX_LOG_SCALE_FALL in ln is retried
    at a smaller step.

    An accepted step books ||delta||_W^2 / dt from its own increment,
    squared in place, then forms the L4 squares in the same buffer.  The
    recorded energies and scale estimates equal energy() and
    scale_estimate() of the sampled fields exactly.
    """
    g = field.grid
    check_degree(m, g.r_min)
    check_horizon(t_end, sample_every, stepper.dt)
    s_floor = scale_floor(g.r_min)

    rec = TrajectoryRecord(m, g)
    inner = field.inner_limit
    degree_m = inner == np.pi
    scheme = stepper.scheme
    # the current state: its offset, its edges, its sin_terms and its E_h;
    # no array is ever written in place, so samples may share off
    off = field.offset.copy()
    edges = np.diff(off)
    terms = sin_terms(off)
    e_cur = gate_energy(g, off, edges, terms[0], m, inner)
    e_tol = ENERGY_INCREASE_TOL * max(e_cur, 1e-30)
    # node energies of the current state (None: not built yet)
    dens_cur = None
    # the sum of the discrete identity E(u0) = E(u(t)) + dissipated
    dissipated = 0.0
    # running integral of ||u/r||_L4^4 dt; samples record its fourth root
    l4_integral = 0.0
    # scale estimate of the current state; None marks a zero-degree state
    # whose half-energy radius is not built yet
    s_cur = scale_estimate(field, m)

    def current_density():
        nonlocal dens_cur
        if dens_cur is None:
            dens_cur = node_energies(g, off, m, inner)
        return dens_cur

    def current_scale():
        nonlocal s_cur
        if s_cur is None:
            dir_e, pot_e = current_density()
            s_cur = _half_energy_radius(g, dir_e + pot_e)
        return s_cur

    # a step that fails at stepper.dt is always retried at a smaller one
    floor_cap = STEP_SHRINK * stepper.dt

    def current_floor():
        # the floor step size at the current scale; it never exceeds
        # floor_cap, so the collapse guard holds at every dt
        return min(step_floor(current_scale()), floor_cap)

    def take_sample(t):
        rec.times.append(t)
        rec.energies.append(integrate_density(*current_density()))
        rec.dissipated.append(dissipated)
        rec.l4_accum.append(l4_integral ** 0.25)
        rec.scale_estimates.append(current_scale())
        rec.fields.append(RadialField(g, off, inner))

    take_sample(0.0)
    if degree_m and s_cur < s_floor:
        rec.status = STATUS_BLOWUP
        return rec
    # smallest half-turn radius sampled so far (NaN: no scale-driven samples)
    scale_mark = s_cur if degree_m else np.nan
    min_fall = np.exp(-MAX_LOG_SCALE_FALL)
    sample_fall = 10.0 ** -SAMPLE_DECADES

    t = 0.0
    dt = stepper.dt
    next_sample = sample_every
    accepted_streak = 0
    ghost_outer = field.outer_ghost_offset()
    l4_weights = g.weights / g.nodes**4
    coeffs = _rate_coeffs(g, m)

    # a diverging trial may overflow or turn non-finite; its E_h is then
    # NaN or +inf (tan of +-inf is NaN, and every term of E_h is a square),
    # so the gate rejects it, and one errstate spans the loop rather than
    # each trial
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end - 1e-12 * t_end:
            dt_try = min(dt, t_end - t)
            try:
                delta, new_off = _step_offset(g, off, terms, m, coeffs,
                                              dt_try, scheme, ghost_outer,
                                              edges)
            except np.linalg.LinAlgError:
                # the trial's matrix is not positive definite, so its
                # increment need not descend E_h; it tends to W as dt falls
                ok = False
            else:
                new_edges = new_off[1:] - new_off[:-1]
                new_terms = sin_terms(new_off)
                e_new = gate_energy(g, new_off, new_edges, new_terms[0], m,
                                    inner)
                ok = e_new <= e_cur + e_tol
                if ok and degree_m:
                    s_new = _half_turn_radius(g, new_off, m)
                    if dt > current_floor():
                        ok = not (s_new < min_fall * s_cur)

            if not ok:
                floor = current_floor()
                if dt > floor:
                    dt = max(dt * STEP_SHRINK, floor)
                    accepted_streak = 0
                    continue
                rec.status = STATUS_ABORTED
                break

            # accepted: ||delta||_W^2 / dt, then the L4 squares, in delta's
            # buffer; squares, not new_off**4: a power of a negative base
            # takes the slow path of pow
            np.multiply(delta, delta, out=delta)
            dissipated += float(np.dot(g.weights, delta)) / dt_try
            np.multiply(new_off, new_off, out=delta)
            delta *= delta
            l4_integral += dt_try * float(np.dot(l4_weights, delta))
            off, edges, terms, e_cur = new_off, new_edges, new_terms, e_new
            dens_cur = None
            t += dt_try

            if degree_m:
                s_cur = s_new
                if s_cur < s_floor:
                    rec.status = STATUS_BLOWUP
                    break
            else:
                s_cur = None

            accepted_streak += 1
            if accepted_streak >= 20 and dt < stepper.dt:
                dt = min(dt * 1.25, stepper.dt)
                accepted_streak = 0

            if (t >= next_sample - 1e-12 or t >= t_end - 1e-12 * t_end
                    or (degree_m and s_cur <= sample_fall * scale_mark)):
                take_sample(t)
                if degree_m:
                    scale_mark = np.fmin(scale_mark, s_cur)
                if next_sample <= t + 1e-12:
                    # past every interval the step spanned, in one addition
                    spanned = np.floor((t + 1e-12 - next_sample)
                                       / sample_every)
                    next_sample += (spanned + 1.0) * sample_every

    if rec.status != STATUS_GLOBAL and rec.times[-1] < t:
        take_sample(t)
    return rec


def dissipation_audit(record: TrajectoryRecord) -> List[float]:
    """Per-sample |E(u0) - E(u(t)) - dissipated|, the discrete energy-identity
    residual."""
    if not record.times:
        raise ContractViolation("audit needs at least 1 sample")
    e0 = record.energies[0].total
    return [abs(e0 - eb.total - d)
            for eb, d in zip(record.energies, record.dissipated)]
