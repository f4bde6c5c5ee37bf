"""Span tracer for hmflow, installed from outside the package.

The tracer replaces each public function of the layer modules, and every
other name in the package that is bound to the same function object (for
example ``hmflow.evolve.energy`` or ``hmflow.runner.energy_breakdown``),
with a wrapper that records one span per call: name, start, end, parent
span and an optional note.  The public methods of ``RadialGrid`` count as
grid entry points, because the solves and operators are methods.

Spans stay in memory.  Processes forked while the tracer is installed (the
workers of ``runner.sweep``) start with an empty span list and append each
finished top-level span tree to ``<spill_dir>/<pid>.jsonl``; the parent
reads those files back in ``collect``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("grid", "energy", "evolve", "modulation", "bubble", "runner")
METHOD_OWNERS = {"grid": ("RadialGrid",)}

EVOLVE = "evolve.evolve"
SOLVE = "grid.solve_shifted"
SCALE_ESTIMATE = "evolve.scale_estimate"


def _alpha_note(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["alpha"]


def _record_note(args, kwargs, rec):
    """Samples, max ledger residual over E0, and decades of concentration
    (log10 of max over final scale estimate) of an evolve record."""
    e0 = rec.energies[0].total
    resid = max(abs(e0 - eb.total - d)
                for eb, d in zip(rec.energies, rec.dissipated))
    scales = [s for s in rec.scale_estimates if math.isfinite(s) and s > 0]
    decades = math.log10(max(scales) / scales[-1]) if scales else 0.0
    return [len(rec.times), resid / e0 if e0 else 0.0, decades]


NOTES = {SOLVE: _alpha_note, EVOLVE: _record_note}


class Tracer:
    """Wraps hmflow's public functions while installed.

    ``only`` restricts the wrapped names (e.g. the two-name step probe used
    with tracing off); ``None`` wraps every public function of every layer.
    """

    def __init__(self, spill_dir: Path, only=None):
        self.spill_dir = Path(spill_dir)
        self.only = only
        self.spans: list = []
        self.stack: list = [-1]
        self.run_id = ""
        self._patches: list = []
        self._installed = False
        self._worker = False
        os.register_at_fork(after_in_child=self._after_fork)

    # ---- install / remove -----------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, function) for every entry point."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"hmflow.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    out.append((f"{layer}.{attr}", mod, attr, obj))
            for cls_name in METHOD_OWNERS.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in vars(cls).items():
                    if inspect.isfunction(obj) and not attr.startswith("_"):
                        out.append((f"{layer}.{attr}", cls, attr, obj))
        if self.only is not None:
            out = [t for t in out if t[0] in self.only]
            missing = set(self.only) - {t[0] for t in out}
            if missing:
                raise LookupError(f"no hmflow entry point named {sorted(missing)}")
        return out

    def install(self) -> None:
        targets = self._targets()
        wrapped = {id(fn): self._wrap(name, fn) for name, _, _, fn in targets}
        for _, owner, attr, fn in targets:
            self._patch(owner, attr, wrapped[id(fn)])
        # aliases: names bound to the same function in other hmflow modules
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hmflow"
                                   or mod_name.startswith("hmflow.")):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None and obj is not w:
                    self._patch(mod, attr, w)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._installed = False

    def _patch(self, owner, attr, new) -> None:
        original = vars(owner)[attr]
        if original is new:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            extra = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                t1 = clock()
                if note is not None:
                    extra = note(args, kwargs, result)
            except BaseException:
                t1 = clock()
                raise
            finally:
                stack.pop()
                spans[idx] = (name, t0, t1, parent, extra)
                if self._worker and len(stack) == 1:
                    self._spill()
            return result

        return traced

    # ---- forked workers --------------------------------------------------

    def _after_fork(self) -> None:
        if self._installed:
            self._worker = True
            del self.spans[:]
            del self.stack[1:]

    def _spill(self) -> None:
        line = json.dumps({"run": self.run_id, "pid": os.getpid(),
                           "spans": self.spans})
        with open(self.spill_dir / f"{os.getpid()}.jsonl", "a") as fh:
            fh.write(line + "\n")
        del self.spans[:]

    # ---- collection ------------------------------------------------------

    def begin(self, run_id: str) -> None:
        self.run_id = run_id
        del self.spans[:]
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.spill_dir.glob("*.jsonl"):
            stale.unlink()

    def collect(self) -> list:
        """Chunks of this run: ``(run_id, pid, spans)``, own process first."""
        chunks = [(self.run_id, os.getpid(), list(self.spans))]
        for path in sorted(self.spill_dir.glob("*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    rec = json.loads(line)
                    if rec["run"] == self.run_id:
                        chunks.append((rec["run"], rec["pid"],
                                       [tuple(s) for s in rec["spans"]]))
        del self.spans[:]
        return chunks


def write_spans(path: Path, chunks) -> None:
    """One JSON line per chunk: run id, pid and its spans
    ``[name, start, end, parent, note]`` (parent indexes the same chunk)."""
    with open(path, "w") as fh:
        for run_id, pid, spans in chunks:
            fh.write(json.dumps({"run": run_id, "pid": pid,
                                 "spans": spans}) + "\n")


class RunStats:
    """Per-name call counts, inclusive and self time, and step counts of one
    traced operation, computed from its span chunks."""

    def __init__(self, chunks, own_pid: int):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.attempted = 0      # solves inside evolve: one per attempted step
        self.accepted = 0       # scale estimates inside evolve, minus the initial one
        self.distinct_alpha = 0
        self.samples = 0
        self.ledger_residual_rel = 0.0
        self.collapse_decades = 0.0
        self.worker_busy = 0.0
        for _, pid, spans in chunks:
            child = [0.0] * len(spans)
            for name, t0, t1, parent, _ in spans:
                if parent >= 0:
                    child[parent] += t1 - t0
            alphas = defaultdict(set)
            for i, (name, t0, t1, parent, note) in enumerate(spans):
                dur = t1 - t0
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - child[i]
                if parent < 0 and pid != own_pid:
                    self.worker_busy += dur
                if name == EVOLVE and note is not None:
                    self.accepted -= 1
                    samples, resid, decades = note
                    self.samples += samples
                    self.ledger_residual_rel = max(self.ledger_residual_rel, resid)
                    self.collapse_decades = max(self.collapse_decades, decades)
                elif parent >= 0 and spans[parent][0] == EVOLVE:
                    if name == SOLVE:
                        self.attempted += 1
                        alphas[parent].add(note)
                    elif name == SCALE_ESTIMATE:
                        self.accepted += 1
            self.distinct_alpha += sum(len(a) for a in alphas.values())

    @property
    def rejected(self) -> int:
        return self.attempted - self.accepted

    def counts(self) -> dict:
        """Everything that must repeat exactly between two traced runs."""
        return {"calls": dict(self.calls), "attempted": self.attempted,
                "accepted": self.accepted, "distinct_alpha": self.distinct_alpha,
                "samples": self.samples}

    def us_per_call(self, name: str) -> float:
        n = self.calls[name]
        return 1e6 * self.total[name] / n if n else 0.0
