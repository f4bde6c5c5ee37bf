"""Semi-implicit time integration of u_t = Delta_m u + F(u).

The stiff singular-linear part is treated implicitly via tridiagonal solves;
the nonlinearity F, whose u-derivative is bounded near the origin, is
explicit.  The stepper works on the offset u - inner_limit, for which the
equation takes the identical form with a zero inner Dirichlet value: the
singular m^2 * inner_limit / r^2 contributions of Delta_m and F cancel
analytically and are never formed.

Step-size control is tied to the flow's defining monotonicity: any discrete
energy increase beyond rounding is treated as a step failure, the step is
shrunk and retried.  Persistent failure at the floor step size together
with concentration below the resolvable scale is declared blow-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Optional

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .energy import EnergyBreakdown, energy
from .grid import RadialField, RadialGrid, differentiate

STATUS_GLOBAL = "Global"
STATUS_BLOWUP = "Blowup"
STATUS_ABORTED = "Aborted"

# accepted steps may raise the energy by at most this fraction of E(u0)
ENERGY_INCREASE_TOL = 1e-8

# dt shrink factor on a failed step or on concentration below the scale floor
STEP_SHRINK = 0.5


@dataclass
class StepperConfig:
    dt: float
    scheme: str = "IMEX1"
    dt_floor: float = 1e-9
    linear_only: bool = False     # drop F: pure e^{t Delta_m}, for oracle runs

    def __post_init__(self):
        if self.scheme not in ("IMEX1", "IMEX2"):
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if not (self.dt > self.dt_floor > 0):
            raise ConfigurationError(
                f"need dt > dt_floor > 0, got dt={self.dt}, dt_floor={self.dt_floor}")


@dataclass
class DissipationLedger:
    """Running discrete version of E(u0) = E(u(t)) + integral ||u_t||^2."""

    E0: float
    dissipated: float = 0.0


@dataclass
class BlowupMonitor:
    l4_integral: float = 0.0           # running integral of ||u/r||_L4^4 dt
    min_scale_estimate: float = np.nan
    concentration_flag: bool = False

    @property
    def l4_accum(self) -> float:
        return self.l4_integral ** 0.25


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
    ledger: Optional[DissipationLedger] = None
    monitor: Optional[BlowupMonitor] = None

    @property
    def final_field(self) -> RadialField:
        return self.fields[-1]


def _f_offset(r: np.ndarray, off: np.ndarray, m: int) -> np.ndarray:
    """(m^2/r^2)(v - sin(2v)/2) with a series near v = 0 to kill the
    cubic-order cancellation."""
    out = np.empty_like(off)
    small = np.abs(off) < 1e-4
    v = off[~small]
    out[~small] = v - 0.5 * np.sin(2.0 * v)
    v = off[small]
    v2 = v * v
    out[small] = (2.0 / 3.0) * v * v2 * (1.0 - 0.2 * v2)
    return (m * m / r**2) * out


def nonlinearity(field: RadialField, m: int) -> RadialField:
    """F(u) = (m^2/r^2)(u - sin(2u)/2) on the true angle."""
    r = field.grid.nodes
    out = _f_offset(r, field.offset(), m)
    if field.inner_limit != 0.0:
        out = out + m * m * field.inner_limit / r**2
    return RadialField(field.grid, out)


def _step_offset(grid: RadialGrid, off: np.ndarray, m: int, dt: float,
                 scheme: str, ghost_outer: float,
                 linear_only: bool = False) -> np.ndarray:
    msq = float(m * m)

    def f(v):
        if linear_only:
            return 0.0
        return _f_offset(grid.nodes, v, m)

    if scheme == "IMEX1":
        rhs = off + dt * f(off)
        return grid.solve_shifted(rhs, dt, 1.0, msq, 0.0, ghost_outer)
    # IMEX2: explicit half-step of F, Crank-Nicolson diffusion, half-step of F
    a = off + 0.5 * dt * f(off)
    rhs = a + 0.5 * dt * grid.apply_operator(a, 1.0, msq, 0.0, ghost_outer)
    b = grid.solve_shifted(rhs, 0.5 * dt, 1.0, msq, 0.0, ghost_outer)
    return b + 0.5 * dt * f(b)


def step(field: RadialField, m: int, config: StepperConfig) -> RadialField:
    """One IMEX step; boundary offsets held at the sector values."""
    off = _step_offset(field.grid, field.offset(), m, config.dt,
                       config.scheme, field.outer_ghost_offset(),
                       config.linear_only)
    return field.with_values(off + field.inner_limit)


def scale_estimate(field: RadialField, m: int = 1) -> float:
    """Concentration-scale estimate.

    For degree-m sector data: the radius where the angle first drops through
    pi/2 (log-interpolated), i.e. the bubble's half-turn radius.  For
    trivial-topology data: the radius enclosing half the energy.
    """
    g = field.grid
    if field.inner_limit == np.pi:
        below = field.values < 0.5 * np.pi
        if not below.any() or below[0]:
            return np.nan
        i = int(np.argmax(below))
        u0, u1 = field.values[i - 1], field.values[i]
        w = (u0 - 0.5 * np.pi) / (u0 - u1)
        return float(np.exp((1 - w) * np.log(g.nodes[i - 1]) + w * np.log(g.nodes[i])))
    u_r = differentiate(field).values
    dens = g.weights * (u_r**2 + (m * np.sin(field.values) / g.nodes) ** 2)
    total = float(dens.sum())
    if total <= 0.0:
        return np.nan
    cum = np.cumsum(dens)
    i = int(np.searchsorted(cum, 0.5 * total))
    if i == 0:
        return float(g.nodes[0])
    w = (0.5 * total - cum[i - 1]) / max(cum[i] - cum[i - 1], 1e-300)
    return float(np.exp((1 - w) * np.log(g.nodes[i - 1]) + w * np.log(g.nodes[i])))


def evolve(field: RadialField, m: int, t_end: float, stepper: StepperConfig,
           sample_every: float = 0.05,
           scale_floor: Optional[float] = None) -> TrajectoryRecord:
    """Adaptive evolution with dissipation ledger and blow-up monitors.

    scale_floor is the concentration scale below which the grid can no
    longer resolve the bubble core (default 10 * r_min); a run pinned at the
    floor step size while concentrated below it terminates as Blowup.
    """
    if not 0 < t_end < np.inf:
        raise ContractViolation(f"t_end must be positive and finite, got {t_end}")
    if not 0 < sample_every < np.inf:
        raise ContractViolation(
            f"sample_every must be positive and finite, got {sample_every}")
    g = field.grid
    if scale_floor is None:
        scale_floor = 10.0 * g.r_min

    rec = TrajectoryRecord(m, g)
    e_cur = energy(field, m)  # breakdown of `current`, reused by its sample
    ledger = DissipationLedger(E0=e_cur.total)
    monitor = BlowupMonitor()
    rec.ledger, rec.monitor = ledger, monitor

    def take_sample(t, fld, eb):
        rec.times.append(t)
        rec.energies.append(eb)
        rec.dissipated.append(ledger.dissipated)
        rec.l4_accum.append(monitor.l4_accum)
        rec.scale_estimates.append(monitor.min_scale_estimate)
        rec.fields.append(fld.copy())

    current = field.copy()
    monitor.min_scale_estimate = scale_estimate(current, m)
    take_sample(0.0, current, e_cur)

    t = 0.0
    dt = stepper.dt
    next_sample = sample_every
    accepted_streak = 0
    floor_failures = 0
    pinned_concentrated = 0
    ghost_outer = field.outer_ghost_offset()
    l4_weights = g.weights / g.nodes**4

    while t < t_end - 1e-12 * t_end:
        dt_try = min(dt, t_end - t)
        off = current.offset()
        new_off = _step_offset(g, off, m, dt_try, stepper.scheme, ghost_outer,
                               stepper.linear_only)
        finite = bool(np.all(np.isfinite(new_off)))
        if finite:
            trial = current.with_values(new_off + current.inner_limit)
            e_new = energy(trial, m)
            ok = e_new.total <= (e_cur.total
                                 + ENERGY_INCREASE_TOL * max(ledger.E0, 1e-30))
        else:
            ok = False

        if not ok:
            if not finite and dt <= stepper.dt_floor:
                rec.status = STATUS_ABORTED
                break
            if dt > stepper.dt_floor:
                dt = max(dt * STEP_SHRINK, stepper.dt_floor)
                accepted_streak = 0
                continue
            floor_failures += 1
            if floor_failures >= 3:
                s_est = scale_estimate(current, m)
                concentrated = np.isfinite(s_est) and s_est < scale_floor
                monitor.concentration_flag = bool(concentrated)
                rec.status = STATUS_BLOWUP if concentrated else STATUS_ABORTED
                break
            continue

        # accepted
        floor_failures = 0
        du = new_off - off
        ledger.dissipated += float(np.dot(g.weights, du * du)) / dt_try
        monitor.l4_integral += dt_try * float(np.dot(l4_weights, new_off**4))
        current = trial
        e_cur = e_new
        t += dt_try

        s_est = scale_estimate(current, m)
        monitor.min_scale_estimate = s_est
        if np.isfinite(s_est) and s_est < scale_floor:
            monitor.concentration_flag = True
            if dt > stepper.dt_floor:
                dt = max(dt * STEP_SHRINK, stepper.dt_floor)
            else:
                pinned_concentrated += 1
                if pinned_concentrated >= 3:
                    rec.status = STATUS_BLOWUP
                    break
        else:
            pinned_concentrated = 0

        accepted_streak += 1
        if accepted_streak >= 20 and dt < stepper.dt:
            dt = min(dt * 1.25, stepper.dt)
            accepted_streak = 0

        if t >= next_sample - 1e-12 or t >= t_end - 1e-12 * t_end:
            take_sample(t, current, e_cur)
            while next_sample <= t + 1e-12:
                next_sample += sample_every

    if rec.status != STATUS_GLOBAL and rec.times[-1] < t:
        take_sample(t, current, e_cur)
    return rec


def dissipation_audit(record: TrajectoryRecord) -> List[float]:
    """Per-sample |E(u0) - E(u(t)) - dissipated|, the discrete energy-identity
    residual."""
    if not record.times:
        raise ContractViolation("audit needs at least 1 sample")
    e0 = record.energies[0].total
    return [abs(e0 - eb.total - d)
            for eb, d in zip(record.energies, record.dissipated)]
