"""Benchmark for hmflow: the paper's scenario presets and a seeded sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hmflow is imported from ``src/``.
Workloads are closed loops: one operation at a time from this process
(``runner.sweep`` adds two worker processes).  With ``--trace 0`` the
operations repeat for ``--seconds`` (at least three times) and the end-to-end
metrics are reported as medians; with ``--trace 1`` one untraced and two
traced operations give the per-layer split, its overhead and a determinism
check.  Every operation's status, classification and check verdicts are
compared with ``oracle.json``.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in turn and prints their metrics by name and unit.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import tracing as tr  # noqa: E402

PRESETS = {"decay_e0": "below_threshold_decay",
           "stability_e1": "above_threshold_stability",
           "blowup_m1": "m1_blowup"}
SWEEP = "sweep_short"
WORKLOADS = (*PRESETS, SWEEP)

SWEEP_THREADS = 2
# Every point of this window is below-threshold e0_bump data that decays to
# under 5% of its energy by t_end = 0.3 on each m, n and scheme swept.
SWEEP_ENERGY = (0.5, 3.5)
SWEEP_SIGMA = (0.1, 0.3)
SWEEP_CONFIG = "scenario = free\nic_family = e0_bump\nt_end = 0.3\n"
SWEEP_AXES = "m = 2, 3, 4\nn = 512, 2048, 8192\nscheme = IMEX1, IMEX2\n"

MIN_OPS = 3
SETUP_REPEATS = 3
STEP_PROBE = (tr.EVOLVE, tr.SOLVE)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "us_per_step": "us",
                    "ok_frac": "ratio", "checks_passed": "count",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "grid.solve_shifted.calls": "count", "grid.solve_shifted.us_per_call": "us",
    "grid.solve_shifted.distinct_alpha": "count",
    "grid.apply_operator.calls": "count", "grid.apply_operator.us_per_call": "us",
    "grid.differentiate.calls": "count", "grid.differentiate.us_per_call": "us",
    "grid.build_grid.s": "s",
    "energy.energy.calls": "count", "energy.energy.us_per_call": "us",
    "evolve.evolve.s": "s", "evolve.evolve.self_s": "s",
    "evolve.self_us_per_step": "us",
    "evolve.scale_estimate.calls": "count", "evolve.scale_estimate.us_per_call": "us",
    "evolve.steps_accepted": "count", "evolve.steps_rejected": "count",
    "evolve.samples": "count", "evolve.ledger_residual_rel": "ratio",
    "evolve.collapse_decades": "decades",
    "modulation.track_modulation.s": "s", "modulation.fit_scale.calls": "count",
    "modulation.fit_scale.us_per_call": "us", "modulation.fit_blowup_rate.s": "s",
    "bubble.eval_Q.calls": "count", "bubble.eval_Q.us_per_call": "us",
    "runner.build_initial_condition.s": "s", "runner.run.self_s": "s",
    "runner.sweep.parallel_eff": "ratio", "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here, or no operation completed."""


# ---- inputs ------------------------------------------------------------------

def inputs(workload: str, seed: int):
    """(config text, grid text or None): all the program sees of a workload."""
    if workload in PRESETS:
        return f"scenario = {PRESETS[workload]}\nlabel = {workload}\n", None
    rng = random.Random(seed)
    energy = rng.uniform(*SWEEP_ENERGY)
    sigma = rng.uniform(*SWEEP_SIGMA)
    return SWEEP_CONFIG, (SWEEP_AXES + f"ic_target_energy = {energy:.6f}\n"
                          f"ic_sigma = {sigma:.6f}\n")


def import_hmflow():
    if not (SRC / "hmflow" / "__init__.py").is_file():
        raise BenchError(f"no hmflow source under {SRC}")
    sys.path.insert(0, str(SRC))
    import hmflow
    if Path(hmflow.__file__).resolve().parent != SRC / "hmflow":
        raise BenchError(f"imported hmflow from {hmflow.__file__}, not {SRC}")


def setup_once(workload: str, seed: int) -> float:
    """Seconds to import hmflow and build every config, grid and initial
    condition of one operation (in a fresh interpreter)."""
    t0 = time.perf_counter()
    import_hmflow()
    from hmflow import runner
    from hmflow.grid import build_grid
    config_text, grid_text = inputs(workload, seed)
    base = runner.parse_config_text(config_text)
    points = [base]
    if grid_text is not None:
        axes = runner.parse_grid_file(grid_text)
        keys = [k for k, _ in axes]
        points = [{**base, **dict(zip(keys, combo))}
                  for combo in product(*(v for _, v in axes))]
    for raw in points:
        cfg = runner.build_run_config(raw, out_dir=str(OUT))
        runner.build_initial_condition(
            cfg, build_grid(cfg.r_min, cfg.r_max, cfg.n))
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


# ---- one operation -----------------------------------------------------------

class Oracle:
    def __init__(self, workload: str):
        with open(HERE / "oracle.json") as fh:
            self.expect = json.load(fh)[workload]

    def run_errors(self, summary: dict, code: int) -> list:
        """Mismatches of one scenario run against the oracle.  A check the
        oracle records as a known failure may pass; that is a gain."""
        exp = self.expect
        errs = [f"{key} {summary[key]!r} != {exp[key]!r}"
                for key in ("status", "classification")
                if summary[key] != exp[key]]
        checks = summary["checks"]
        if set(checks) != set(exp["checks"]):
            errs.append(f"checks {sorted(checks)} != {sorted(exp['checks'])}")
        errs += [f"check {name} failed" for name, want in exp["checks"].items()
                 if want and not checks.get(name)]
        want_code = 0 if all(checks.values()) else 3
        if code != want_code:
            errs.append(f"exit status {code} != {want_code}")
        return errs

    def row_ok(self, row: dict) -> bool:
        return (row["status"] == self.expect["status"]
                and row["classification"] == self.expect["classification"])


class Op:
    """Outcome of one operation: a scenario run or one whole sweep."""

    def __init__(self):
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.checks_passed = 0
        self.verdicts = None          # compared between traced and untraced runs
        self.ledger_residual_rel = None


def run_op(workload: str, seed: int, oracle: Oracle) -> Op:
    """One operation; an hmflow error counts all its runs as failed."""
    from hmflow import runner
    from hmflow.errors import HmflowError
    op = Op()
    out_dir = OUT / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    config_text, grid_text = inputs(workload, seed)
    raw = runner.parse_config_text(config_text)
    axes = runner.parse_grid_file(grid_text) if grid_text else None
    op.attempted = 1
    for _, values in axes or ():
        op.attempted *= len(values)
    t0 = time.perf_counter()
    try:
        if axes is None:
            _scenario_run(runner, raw, out_dir, oracle, op, t0)
        else:
            _sweep_run(runner, raw, axes, out_dir, oracle, op, t0)
    except HmflowError as exc:
        op.wall = time.perf_counter() - t0
        op.failed = op.attempted
        op.errors.append(f"{type(exc).__name__}: {exc}")
    return op


def _scenario_run(runner, raw, out_dir, oracle, op, t0) -> None:
    cfg = runner.build_run_config(raw, out_dir=str(out_dir))
    code = runner.run(cfg)
    op.wall = time.perf_counter() - t0
    with open(out_dir / f"{cfg.label}_summary.json") as fh:
        summary = json.load(fh)
    with open(out_dir / f"{cfg.label}_trajectory.csv", newline="") as fh:
        n_rows = sum(1 for _ in csv.reader(fh)) - 1
    op.errors = oracle.run_errors(summary, code)
    n_samples = len(summary["dissipation_residual_history"])
    if n_rows != n_samples:
        op.errors.append(f"trajectory has {n_rows} rows for {n_samples} samples")
    op.failed = int(bool(op.errors))
    op.checks_passed = sum(bool(v) for v in summary["checks"].values())
    op.verdicts = [summary["status"], summary["classification"],
                   summary["checks"], code]
    fm = summary["final_metrics"]
    op.ledger_residual_rel = fm["max_dissipation_residual"] / fm["E_initial"]


def _sweep_run(runner, raw, axes, out_dir, oracle, op, t0) -> None:
    rows = runner.sweep(raw, axes, str(out_dir), threads=SWEEP_THREADS)
    op.wall = time.perf_counter() - t0
    with open(out_dir / "sweep.csv", newline="") as fh:
        n_rows = sum(1 for _ in csv.reader(fh)) - 1
    bad = [r["run_id"] for r in rows if not oracle.row_ok(r)]
    op.checks_passed = len(rows) - len(bad)
    op.failed = op.attempted - op.checks_passed
    if bad:
        op.errors.append(f"rows {bad} not {oracle.expect['status']}/"
                         f"{oracle.expect['classification']}")
    if len(rows) != op.attempted or n_rows != op.attempted:
        op.errors.append(f"{len(rows)} rows returned, {n_rows} in sweep.csv, "
                         f"{op.attempted} points")
    op.verdicts = [[r["status"], r["classification"]] for r in rows]


# ---- the two modes -----------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float):
    oracle = Oracle(workload)
    probe = tr.Tracer(OUT / "spill", only=STEP_PROBE)
    ops, per_step = [], []
    deadline = time.perf_counter() + seconds
    probe.install()
    try:
        while True:
            probe.begin(f"op{len(ops)}")
            op = run_op(workload, seed, oracle)
            stats = tr.RunStats(probe.collect(), own_pid=os.getpid())
            if stats.attempted:
                per_step.append(1e6 * stats.total[tr.EVOLVE] / stats.attempted)
            elif not op.failed:
                raise BenchError("no RadialGrid.solve_shifted call inside "
                                 "evolve: the step probe needs updating")
            ops.append(op)
            now = time.perf_counter()
            if len(ops) >= MIN_OPS and now + op.wall > deadline:
                break
    finally:
        probe.uninstall()
    if not per_step:
        raise BenchError("every operation failed: " + "; ".join(ops[0].errors))
    rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    setup = measure_setup(workload, seed)
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    metrics = {
        "wall_s": statistics.median(op.wall for op in ops),
        "setup_s": statistics.median(setup),
        "us_per_step": statistics.median(per_step),
        "ok_frac": 1.0 - failed / attempted,
        "checks_passed": min(op.checks_passed for op in ops),
        "peak_rss_mb": rss,
    }
    info = {"operations": len(ops), "walls_s": [op.wall for op in ops],
            "setup_runs_s": setup}
    if ops[0].ledger_residual_rel is not None:
        info["ledger_residual_rel"] = ops[0].ledger_residual_rel
    return _result(ops, attempted, failed, metrics, END_TO_END_UNITS, info, [])


def traced(workload: str, seed: int):
    oracle = Oracle(workload)
    plain = run_op(workload, seed, oracle)
    tracer = tr.Tracer(OUT / "spill")
    ops, runs, chunks = [plain], [], []
    tracer.install()
    try:
        for k in (1, 2):
            tracer.begin(f"traced{k}")
            ops.append(run_op(workload, seed, oracle))
            run_chunks = tracer.collect()
            chunks += run_chunks
            runs.append(tr.RunStats(run_chunks, own_pid=os.getpid()))
    finally:
        tracer.uninstall()
    tr.write_spans(OUT / f"trace-{workload}.jsonl", chunks)

    problems = []
    if runs[0].counts() != runs[1].counts():
        problems.append("call or step counts differ between the two traced runs")
    if any(op.verdicts != plain.verdicts for op in ops[1:]):
        problems.append("traced and untraced runs gave different verdicts")

    def med(fn):
        return statistics.median(fn(r) for r in runs)

    first = runs[0]
    accepted = max(first.accepted, 1)
    sweep_wall = med(lambda r: r.total["runner.sweep"])
    metrics = {
        "grid.solve_shifted.calls": first.calls[tr.SOLVE],
        "grid.solve_shifted.us_per_call": med(lambda r: r.us_per_call(tr.SOLVE)),
        "grid.solve_shifted.distinct_alpha": first.distinct_alpha,
        "grid.build_grid.s": med(lambda r: r.total["grid.build_grid"]),
        "evolve.evolve.s": med(lambda r: r.total[tr.EVOLVE]),
        "evolve.evolve.self_s": med(lambda r: r.self_time[tr.EVOLVE]),
        "evolve.self_us_per_step": med(lambda r: r.self_time[tr.EVOLVE]) * 1e6 / accepted,
        "evolve.steps_accepted": first.accepted,
        "evolve.steps_rejected": first.rejected,
        "evolve.samples": first.samples,
        "evolve.ledger_residual_rel": first.ledger_residual_rel,
        "evolve.collapse_decades": first.collapse_decades,
        "modulation.track_modulation.s": med(lambda r: r.total["modulation.track_modulation"]),
        "modulation.fit_blowup_rate.s": med(lambda r: r.total["modulation.fit_blowup_rate"]),
        "runner.build_initial_condition.s": med(lambda r: r.total["runner.build_initial_condition"]),
        "runner.run.self_s": med(lambda r: r.self_time["runner.run"]),
        "runner.sweep.parallel_eff": (
            med(lambda r: r.worker_busy) / (sweep_wall * SWEEP_THREADS)
            if sweep_wall else 0.0),
        "trace.overhead_frac": statistics.median(op.wall for op in ops[1:]) / plain.wall - 1.0,
    }
    for name in ("grid.apply_operator", "grid.differentiate", "energy.energy",
                 "evolve.scale_estimate", "modulation.fit_scale", "bubble.eval_Q"):
        metrics[f"{name}.calls"] = first.calls[name]
        metrics[f"{name}.us_per_call"] = med(lambda r: r.us_per_call(name))
    info = {"untraced_wall_s": plain.wall,
            "traced_wall_s": [op.wall for op in ops[1:]],
            "spans": sum(len(c[2]) for c in chunks)}
    return _result(ops, sum(op.attempted for op in ops),
                   sum(op.failed for op in ops), metrics, PER_LAYER_UNITS,
                   info, problems)


def _result(ops, attempted, failed, metrics, units, info, problems):
    """(result line, notes): notes are printed above the result."""
    errors = problems + [e for op in ops for e in op.errors]
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, [f"[{k}] {v}" for k, v in info.items()] + [
        f"ERROR {e}" for e in errors]


def report(workload: str, seed: int, result: dict, notes: list) -> None:
    """Human-readable lines: every metric by name and unit, then notes."""
    if workload in PRESETS:
        print(f"{workload}: preset inputs; seed {seed} is ignored")
    else:
        print(f"{workload}: sweep points drawn from seed {seed}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:<14.6g} {m['unit']}")
    for note in notes:
        print(f"  {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(repr(setup_once(args.workload, args.seed)))
            return 0
        import_hmflow()
        OUT.mkdir(exist_ok=True)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            results[name], notes = (
                traced(name, args.seed) if args.trace
                else end_to_end(name, args.seed, args.seconds))
            report(name, args.seed, results[name], notes)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    if args.workload == "all":
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
