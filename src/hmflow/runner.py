"""Scenario presets, config parsing, batch execution, and structured output.

Configs are flat ``key = value`` text files.  A run produces a trajectory
CSV (fixed column order), a summary JSON with per-check pass/fail results
and the full dissipation-residual history, and an integer exit status.
Sweeps expand a parameter grid over a template config and aggregate
end-state classifications into one CSV.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import modulation
from .bubble import BubbleProfile, eval_h, eval_Q_offset, sample_Q
from .energy import (OTHER_LABEL, classify as classify_sector,
                     energy as energy_breakdown, exterior_energy, x2_norm)
from .errors import ConfigurationError, ContractViolation, HmflowError
from .evolve import (StepperConfig, TrajectoryRecord, evolve,
                     dissipation_audit, STATUS_ABORTED, STATUS_BLOWUP,
                     STATUS_GLOBAL)
from .grid import RadialField, RadialGrid, build_grid

CSV_COLUMNS = ["t", "E_total", "E_dirichlet", "E_potential", "X2_norm",
               "sup_abs_u", "s", "sdot", "orth_residual",
               "dissipation_residual", "l4_accum",
               "exterior_energy_R1", "exterior_energy_R10"]

SCENARIOS = ("free", "q_stationarity", "below_threshold_decay",
             "above_threshold_stability", "m1_blowup")

IC_FAMILIES = ("e0_bump", "e1_excited", "q_exact", "custom_samples")

_FLOAT_KEYS = ("r_min", "r_max", "dt", "dt_floor", "t_end", "sample_every",
               "scale_floor", "ic_A", "ic_sigma", "ic_s0", "ic_target_energy")
_INT_KEYS = ("m", "n")
_STR_KEYS = ("scheme", "scenario", "ic_family", "ic_file", "label")
_KNOWN_KEYS = set(_FLOAT_KEYS) | set(_INT_KEYS) | set(_STR_KEYS)

# Presets supply every knob a scenario needs; explicit config keys override.
_SCENARIO_DEFAULTS: Dict[str, Dict[str, object]] = {
    "q_stationarity": dict(m=2, r_min=1e-4, r_max=1e3, n=2048,
                           dt=1e-3, scheme="IMEX1", dt_floor=1e-9,
                           t_end=1.0, sample_every=0.05,
                           ic_family="q_exact", ic_s0=1.0),
    "below_threshold_decay": dict(m=2, r_min=1e-4, r_max=1e3, n=2048,
                                  dt=1e-3, scheme="IMEX1", dt_floor=1e-9,
                                  t_end=20.0, sample_every=0.5,
                                  ic_family="e0_bump", ic_sigma=1.0,
                                  ic_A=1.0, ic_target_energy=0.9 * 2 * (2 * 2)),
    "above_threshold_stability": dict(m=4, r_min=1e-4, r_max=1e3, n=2048,
                                      dt=2e-3, scheme="IMEX1", dt_floor=1e-9,
                                      t_end=20.0, sample_every=0.25,
                                      ic_family="e1_excited", ic_s0=1.0,
                                      ic_sigma=3.0, ic_A=1.0,
                                      ic_target_energy=2.5 * (2 * 4)),
    "m1_blowup": dict(m=1, r_min=1e-6, r_max=1e2, n=3072,
                      dt=2e-3, scheme="IMEX1", dt_floor=1e-9,
                      t_end=25.0, sample_every=0.05, scale_floor=1e-4,
                      ic_family="e1_excited", ic_s0=1.0,
                      ic_sigma=4.0, ic_A=-1.5),
}


@dataclass
class RunConfig:
    m: int = 2
    r_min: float = 1e-4
    r_max: float = 1e3
    n: int = 2048
    dt: float = 1e-3
    scheme: str = "IMEX1"
    dt_floor: float = 1e-9
    t_end: float = 1.0
    sample_every: float = 0.05
    scenario: str = "free"
    scale_floor: Optional[float] = None
    ic_family: str = "q_exact"
    ic_A: Optional[float] = None
    ic_sigma: Optional[float] = None
    ic_s0: Optional[float] = None
    ic_target_energy: Optional[float] = None
    ic_file: Optional[str] = None
    label: str = "run"
    out_dir: str = "."


@dataclass
class RunResult:
    status: str
    checks: Dict[str, bool]
    classification: str
    summary: dict
    record: Optional[TrajectoryRecord] = None
    track: Optional[modulation.ScaleTrack] = None


def parse_config_text(text: str) -> Dict[str, str]:
    """Parse flat ``key = value`` lines; ``#`` starts a comment."""
    out: Dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key or not val:
            raise ConfigurationError(f"line {ln}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigurationError(f"line {ln}: duplicate key {key!r}")
        out[key] = val
    return out


def _coerce(key: str, val: str):
    if key in _INT_KEYS:
        try:
            return int(val)
        except ValueError:
            raise ConfigurationError(f"key {key!r}: expected integer, got {val!r}")
    if key in _FLOAT_KEYS:
        try:
            num = float(val)
        except ValueError:
            num = np.nan
        if not np.isfinite(num):
            raise ConfigurationError(
                f"key {key!r}: expected a finite number, got {val!r}")
        return num
    return val


def build_run_config(raw: Dict[str, str], out_dir: Optional[str] = None) -> RunConfig:
    """Validate raw key/value pairs into a RunConfig.

    Scenario presets fill in unspecified keys; every rejection names the
    violated invariant.  Grid and stepper invariants are checked by
    constructing those objects.
    """
    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    merged: Dict[str, object] = {}
    scenario = raw.get("scenario", "free")
    if scenario not in SCENARIOS:
        raise ConfigurationError(
            f"scenario {scenario!r} not in known set {SCENARIOS}")
    merged.update(_SCENARIO_DEFAULTS.get(scenario, {}))
    for key, val in raw.items():
        merged[key] = _coerce(key, val)
    merged["scenario"] = scenario
    if out_dir is not None:
        merged["out_dir"] = out_dir
    cfg = RunConfig(**merged)
    _validate(cfg)
    return cfg


def _stepper(cfg: RunConfig) -> StepperConfig:
    return StepperConfig(dt=cfg.dt, scheme=cfg.scheme, dt_floor=cfg.dt_floor)


def _validate(cfg: RunConfig) -> None:
    # the grid and the stepper check their own invariants
    RadialGrid(cfg.r_min, cfg.r_max, cfg.n)
    _stepper(cfg)
    if cfg.m < 1:
        raise ConfigurationError(f"m must be a positive degree, got {cfg.m}")
    if "/" in cfg.label or os.sep in cfg.label:
        raise ConfigurationError(
            f"label names files in out_dir and must not hold a path "
            f"separator, got {cfg.label!r}")
    if cfg.t_end <= 0:
        raise ConfigurationError(f"t_end must be positive, got {cfg.t_end}")
    if cfg.sample_every <= 0:
        raise ConfigurationError(
            f"sample_every must be positive, got {cfg.sample_every}")
    if cfg.scale_floor is not None and cfg.scale_floor <= 0:
        raise ConfigurationError(
            f"scale_floor must be positive, got {cfg.scale_floor}")
    if cfg.ic_family not in IC_FAMILIES:
        raise ConfigurationError(
            f"ic_family {cfg.ic_family!r} not in known set {IC_FAMILIES}")
    if cfg.ic_family == "e0_bump":
        if cfg.ic_sigma is None or cfg.ic_sigma <= 0:
            raise ConfigurationError("e0_bump requires ic_sigma > 0")
        if cfg.ic_A is None and cfg.ic_target_energy is None:
            raise ConfigurationError("e0_bump requires ic_A or ic_target_energy")
    elif cfg.ic_family == "e1_excited":
        if cfg.ic_s0 is None or cfg.ic_s0 <= 0:
            raise ConfigurationError("e1_excited requires ic_s0 > 0")
        if cfg.ic_sigma is None or cfg.ic_sigma <= 0:
            raise ConfigurationError("e1_excited requires ic_sigma > 0")
        if cfg.ic_A is None:
            raise ConfigurationError("e1_excited requires ic_A")
    elif cfg.ic_family == "q_exact":
        if cfg.ic_s0 is None or cfg.ic_s0 <= 0:
            raise ConfigurationError("q_exact requires ic_s0 > 0")
    elif cfg.ic_family == "custom_samples":
        if not cfg.ic_file:
            raise ConfigurationError("custom_samples requires ic_file")


def _solve_amplitude(grid: RadialGrid, m: int, shape: np.ndarray,
                     base, inner: float, target: float, sign: float) -> float:
    """The amplitude A, of the given sign, with E(base + A*shape) = target.

    The energy is evaluated by quadrature at every trial; the bracket
    [0, hi] is grown geometrically first, so non-monotone saturation past
    it cannot mislead Brent's method inside it.
    """
    def e_of(a):
        fld = RadialField(grid, base + sign * a * shape, inner_limit=inner)
        return energy_breakdown(fld, m).total

    e_lo = e_of(0.0)
    if e_lo > target:
        raise ConfigurationError(
            f"target energy {target:g} below the A=0 energy {e_lo:g}")
    hi, grows = 1.0, 0
    while e_of(hi) < target:
        hi *= 1.5
        grows += 1
        if grows > 60:
            raise ConfigurationError(
                f"target energy {target:g} unreachable by amplitude growth")
    return sign * modulation.brentq(lambda a: e_of(a) - target, 0.0, hi,
                                    xtol=1e-13, rtol=1e-13)


def build_initial_condition(cfg: RunConfig, grid: RadialGrid) -> RadialField:
    """Construct the configured initial data and enforce its sector window.

    ``e0_bump`` is A h^sigma and ``e1_excited`` is Q^{s0} + A h^sigma; every
    family must classify into sector E0 or E1.
    """
    m = cfg.m
    if cfg.ic_family == "q_exact":
        fld = sample_Q(BubbleProfile(m, cfg.ic_s0), grid)
    elif cfg.ic_family == "custom_samples":
        try:
            data = np.loadtxt(cfg.ic_file)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"cannot read custom_samples file {cfg.ic_file!r}: {exc}")
        if data.ndim != 2 or data.shape[1] != 2:
            raise ConfigurationError(
                f"custom_samples file {cfg.ic_file!r} must have two columns (r, u)")
        if not np.isfinite(data).all():
            raise ConfigurationError(
                f"custom_samples file {cfg.ic_file!r} holds non-finite values")
        r_in, u_in = data[:, 0], data[:, 1]
        if np.any(r_in <= 0) or np.any(np.diff(r_in) <= 0):
            raise ConfigurationError(
                "custom_samples radii must be positive and strictly increasing")
        vals = np.interp(np.log(grid.nodes), np.log(r_in), u_in)
        inner = np.pi if abs(u_in[0] - np.pi) < abs(u_in[0]) else 0.0
        fld = RadialField(grid, vals - inner, inner_limit=inner)
    else:  # e0_bump or e1_excited
        excited = cfg.ic_family == "e1_excited"
        inner = np.pi if excited else 0.0
        base = (eval_Q_offset(BubbleProfile(m, cfg.ic_s0), grid.nodes)
                if excited else 0.0)
        shape = eval_h(BubbleProfile(m, cfg.ic_sigma), grid.nodes)
        A = cfg.ic_A
        if cfg.ic_target_energy is not None:
            sign = -1.0 if cfg.ic_A is not None and cfg.ic_A < 0 else 1.0
            A = _solve_amplitude(grid, m, shape, base, inner,
                                 cfg.ic_target_energy, sign)
        fld = RadialField(grid, base + A * shape, inner_limit=inner)
    if classify_sector(fld, m).label == OTHER_LABEL:
        e_tot, eq = energy_breakdown(fld, m).total, 2.0 * m
        window = (f"not below the 2E(Q) = {2 * eq:g} window"
                  if fld.inner_limit == 0.0 else
                  f"above the E1 window bound 3E(Q) = {3 * eq:g}")
        raise ConfigurationError(f"{cfg.ic_family} energy {e_tot:g} {window}")
    return fld


# ---- single run ----------------------------------------------------------

def _fmt(x: float) -> str:
    return "%.12g" % x


def _exterior_energy_cell(fld: RadialField, m: int, R: float) -> float:
    """``exterior_energy`` at R, or NaN when R lies outside the grid."""
    try:
        return exterior_energy(fld, m, R)
    except ContractViolation:
        return float("nan")


def _trajectory_rows(cfg: RunConfig, rec: TrajectoryRecord,
                     track: Optional[modulation.ScaleTrack],
                     diss_resid: List[float]) -> List[List[str]]:
    rows = []
    n_track = 0 if track is None else len(track.times)
    for k, t in enumerate(rec.times):
        fld = rec.fields[k]
        br = rec.energies[k]
        # the X^2 norm is taken on the offset so it stays finite in
        # the degree-m sector
        x2 = x2_norm(RadialField(fld.grid, fld.offset), cfg.m)
        in_track = track is not None and k < n_track
        row = [t, br.total, br.dirichlet, br.potential, x2,
               float(np.max(np.abs(fld.values))),
               track.scales[k] if in_track else float("nan"),
               track.sdots[k] if in_track else float("nan"),
               track.orth_residuals[k] if in_track else float("nan"),
               diss_resid[k], rec.l4_accum[k],
               _exterior_energy_cell(fld, cfg.m, 1.0),
               _exterior_energy_cell(fld, cfg.m, 10.0)]
        rows.append([_fmt(v) for v in row])
    return rows


def _scenario_checks(cfg: RunConfig, rec: TrajectoryRecord,
                     track: Optional[modulation.ScaleTrack]) -> Dict[str, bool]:
    checks: Dict[str, bool] = {}
    e0 = rec.energies[0].total
    tag = cfg.scenario
    if tag == "q_stationarity":
        drift = max(
            x2_norm(RadialField(rec.grid, f.offset - rec.fields[0].offset),
                    cfg.m)
            for f in rec.fields)
        checks["x2_drift_small"] = drift <= 1e-3 * np.sqrt(2 * e0)
    elif tag == "below_threshold_decay":
        checks["status_global"] = rec.status == STATUS_GLOBAL
        checks["energy_decayed"] = rec.energies[-1].total < 0.05 * e0
    elif tag == "above_threshold_stability":
        checks["status_global"] = rec.status == STATUS_GLOBAL
        conv = _bubble_convergence(cfg, rec, track)
        checks["scale_stabilized"], checks["bubble_residual_small"] = (
            conv or (False, False))
        checks["orthogonality_clean"] = (conv is not None
                                         and not track.flagged.any())
    elif tag == "m1_blowup":
        checks["status_blowup"] = rec.status == STATUS_BLOWUP
        ok_decades = ok_ratio = ok_rate = False
        # the m=1 orthogonality pairing is tail-dominated (sin Q decays like
        # 1/r, borderline square-integrable), so the concentration-scale
        # history drives the rate analysis here
        t, s = concentration_scale_track(rec)
        if len(t) >= 4:
            ok_decades = np.log10(np.max(s) / s[-1]) >= 1.5
            try:
                k = _collapse_start(s)
                fit = modulation.fit_blowup_rate(t[k:], s[k:])
                ok_rate = fit.L_fit == 1
                tau = fit.T_est - t
                if np.all(tau > 0):
                    ratio = s / np.sqrt(tau)
                    in_last = s <= 10 * s[-1]
                    last_dec = ratio[in_last]
                    ok_ratio = (len(last_dec) >= 2
                                and last_dec[-1] < last_dec[0])
            except HmflowError:
                pass
        checks["scale_fell_1p5_decades"] = ok_decades
        checks["ratio_to_sqrt_decreasing"] = ok_ratio
        checks["rate_exponent_is_1"] = ok_rate
    # numpy booleans become the bools that json writes
    return {name: bool(ok) for name, ok in checks.items()}


def concentration_scale_track(rec: TrajectoryRecord
                              ) -> Tuple[np.ndarray, np.ndarray]:
    """Times and finite concentration-scale estimates of a run's samples."""
    t = np.asarray(rec.times)
    s = np.asarray(rec.scale_estimates)
    ok = np.isfinite(s)
    return t[ok], s[ok]


def _collapse_start(s: np.ndarray) -> int:
    """Start of the longest strictly-decreasing suffix of the non-empty
    scales s, past the departure transient (scales above a third of the
    suffix maximum) when at least 4 samples remain."""
    k = len(s) - 1
    while k > 0 and s[k - 1] > s[k]:
        k -= 1
    # the suffix decreases, so s[k] is its maximum and the kept scales are
    # a suffix of it
    n_keep = int(np.count_nonzero(s[k:] <= s[k] / 3.0))
    if n_keep >= 4:
        k = len(s) - n_keep
    return k


def _bubble_convergence(cfg: RunConfig, rec: TrajectoryRecord,
                        track: Optional[modulation.ScaleTrack]
                        ) -> Optional[Tuple[bool, bool]]:
    """Whether the run converged to a rescaled bubble: (the scale's final
    half stays within 5% of its last value, the energy of the residual to
    the bubble at that scale is below 5% of E(Q)).  None unless the scale
    track covers every sample."""
    if track is None or len(track.times) != len(rec.times):
        return None
    s_inf = track.scales[-1]
    half = track.scales[len(track.scales) // 2:]
    diff = RadialField(
        rec.grid,
        rec.fields[-1].offset
        - eval_Q_offset(BubbleProfile(cfg.m, s_inf), rec.grid.nodes))
    return (bool(np.max(np.abs(half - s_inf)) < 0.05 * s_inf),
            energy_breakdown(diff, cfg.m).total < 0.05 * (2.0 * cfg.m))


def _classify_end_state(cfg: RunConfig, rec: TrajectoryRecord,
                        track: Optional[modulation.ScaleTrack]) -> str:
    if rec.status == STATUS_BLOWUP:
        return "Blowup"
    if rec.status != STATUS_GLOBAL:
        return "Undetermined"
    if rec.energies[-1].total < 0.05 * rec.energies[0].total:
        return "Decayed"
    conv = _bubble_convergence(cfg, rec, track)
    if conv is not None and all(conv):
        return "ConvergedToQ"
    return "Undetermined"


def _setup(cfg: RunConfig) -> Tuple[RadialField, StepperConfig]:
    """Initial condition (on its grid) and stepper of a run.

    ``hmflow check`` runs this too, so every error it can raise surfaces
    before a run starts.
    """
    grid = build_grid(cfg.r_min, cfg.r_max, cfg.n)
    return build_initial_condition(cfg, grid), _stepper(cfg)


def execute(cfg: RunConfig) -> RunResult:
    """Run the configured scenario and gather diagnostics (no file I/O)."""
    u0, stepper = _setup(cfg)
    rec = evolve(u0, cfg.m, cfg.t_end, stepper,
                 sample_every=cfg.sample_every, scale_floor=cfg.scale_floor)
    track = None
    if u0.inner_limit == np.pi:
        track = modulation.track_modulation(rec, s_init=cfg.ic_s0 or 1.0)
    diss = dissipation_audit(rec)
    checks = _scenario_checks(cfg, rec, track)
    classification = _classify_end_state(cfg, rec, track)
    summary = {
        "scenario": cfg.scenario,
        "label": cfg.label,
        "status": rec.status,
        "classification": classification,
        "checks": checks,
        "final_metrics": {
            "t_end": rec.times[-1],
            "E_initial": rec.energies[0].total,
            "E_final": rec.energies[-1].total,
            "sup_abs_u_final": float(np.max(np.abs(rec.fields[-1].values))),
            "s_final": (float(track.scales[-1])
                        if track is not None and len(track.times) else None),
            "l4_accum_final": rec.l4_accum[-1],
            "max_dissipation_residual": max(diss),
        },
        "dissipation_residual_history": list(diss),
        "provenance": {
            "grid": {"r_min": cfg.r_min, "r_max": cfg.r_max, "n": cfg.n},
            "stepper": {"dt": cfg.dt, "scheme": cfg.scheme,
                        "dt_floor": cfg.dt_floor,
                        "scale_floor": cfg.scale_floor},
            "initial_condition": {
                "family": cfg.ic_family,
                "A": cfg.ic_A, "sigma": cfg.ic_sigma, "s0": cfg.ic_s0,
                "target_energy": cfg.ic_target_energy, "file": cfg.ic_file},
        },
    }
    if track is not None and track.truncated_reason:
        summary["scale_track_truncated"] = track.truncated_reason
    return RunResult(rec.status, checks, classification, summary, rec, track)


def run(cfg: RunConfig) -> int:
    """Execute one scenario, write trajectory.csv and summary.json.

    Exit status: 0 all checks passed, 2 solver aborted, 3 checks failed.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    result = execute(cfg)
    rec = result.record
    diss = result.summary["dissipation_residual_history"]
    rows = _trajectory_rows(cfg, rec, result.track, diss)
    csv_path = os.path.join(cfg.out_dir, f"{cfg.label}_trajectory.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
    json_path = os.path.join(cfg.out_dir, f"{cfg.label}_summary.json")
    with open(json_path, "w") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if result.status == STATUS_ABORTED:
        return 2
    if result.checks and not all(result.checks.values()):
        return 3
    return 0


# ---- sweeps --------------------------------------------------------------

def parse_grid_file(text: str) -> List[Tuple[str, List[str]]]:
    """Parameter grid: ``key = v1, v2, ...`` lines in the config syntax,
    expanded as a Cartesian product."""
    axes: List[Tuple[str, List[str]]] = []
    for key, vals in parse_config_text(text).items():
        if key not in _KNOWN_KEYS:
            raise ConfigurationError(f"grid: unknown config key {key!r}")
        values = vals.replace(",", " ").split()
        if not values:
            raise ConfigurationError(f"grid: no values for {key!r}")
        axes.append((key, values))
    return axes


def _sweep_point(args):
    idx, base_raw, overrides, out_dir = args
    raw = dict(base_raw)
    raw.update(overrides)
    row = {"run_id": "%04d" % idx}
    row.update(overrides)
    try:
        cfg = build_run_config(raw, out_dir=out_dir)
        cfg.label = "run_%04d" % idx
        result = execute(cfg)
        row["status"] = result.status
        row["classification"] = result.classification
        row["E_initial"] = _fmt(result.summary["final_metrics"]["E_initial"])
        row["E_final"] = _fmt(result.summary["final_metrics"]["E_final"])
        s_fin = result.summary["final_metrics"]["s_final"]
        row["s_final"] = "" if s_fin is None else _fmt(s_fin)
        row["error"] = ""
    except HmflowError as exc:
        row["status"] = "Failed"
        row["classification"] = "Undetermined"
        row["E_initial"] = row["E_final"] = row["s_final"] = ""
        row["error"] = str(exc)
    return idx, row


def sweep(base_raw: Dict[str, str], axes: List[Tuple[str, List[str]]],
          out_dir: str, threads: int = 1) -> List[dict]:
    """Run the Cartesian product of the grid over the template config.

    Individual failures are recorded in their row; the sweep continues.
    Returns the rows and writes ``sweep.csv`` in out_dir.
    """
    os.makedirs(out_dir, exist_ok=True)
    keys = [k for k, _ in axes]
    points = list(product(*(vals for _, vals in axes))) if axes else []
    jobs = [(i, base_raw, dict(zip(keys, combo)), out_dir)
            for i, combo in enumerate(points)]
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = [row for _, row in sorted(pool.map(_sweep_point, jobs))]
    else:
        rows = [_sweep_point(job)[1] for job in jobs]
    header = ["run_id"] + keys + ["status", "classification",
                                  "E_initial", "E_final", "s_final", "error"]
    path = os.path.join(out_dir, "sweep.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return rows
