"""Outside-in layer tracing of the qcollapse modules.

:class:`Tracer` wraps the public functions of each module (and the class
method ``PauliTermSum.eigensystem``) by replacing the module attributes, so
calls between modules go through the wrappers without any change to the
package.  Each wrapped call records a span (id, name, start, end, parent id,
run id) in memory, plus counts taken at the same boundary.  A span's self
time is its duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.

One private name is wrapped: ``core._apply_terms``, the Pauli-term apply
behind ``apply_operator`` that the RK4 integrator calls directly.  Its spans
are reported as ``core.apply_operator``.  A name that a later version of the
package no longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import functools
import time
import warnings
from collections import defaultdict
from pathlib import Path

# per-layer metric -> unit; every value is a total per CLI command (bullet:
# per bullet command), except the ratios and the run-level figures at the end
PER_LAYER_UNITS = {
    "core.eigensystem.calls": "count",
    "core.eigensystem.first_calls": "count",
    "core.eigensystem.busy_s": "s",
    "core.evolve.dense.calls": "count",
    "core.evolve.dense.busy_s": "s",
    "core.evolve.dense.bytes_computed": "B",
    "core.evolve.rk4.calls": "count",
    "core.evolve.rk4.busy_s": "s",
    "core.evolve.diagonal.calls": "count",
    "core.evolve.diagonal.busy_s": "s",
    "core.apply_operator.calls": "count",
    "core.apply_operator.busy_s": "s",
    "core.evolve_many.calls": "count",
    "core.evolve_many.columns": "count",
    "core.evolve_many.busy_s": "s",
    "entanglement.block_entropies.columns": "count",
    "entanglement.block_entropies.busy_s": "s",
    "entanglement.state_entropy.calls": "count",
    "entanglement.entangling_speed.calls": "count",
    "entanglement.entangling_speed.busy_s": "s",
    "entanglement.entangling_speed.self_s": "s",
    "entanglement.entangling_speed.warnings": "count",
    "entanglement.entangling_speed.warning_ratio": "ratio",
    "entanglement.entangling_acceleration.calls": "count",
    "entanglement.entangling_acceleration.busy_s": "s",
    "entanglement.entangling_acceleration.self_s": "s",
    "entanglement.compute_trace.self_s": "s",
    "collapse.run_trajectory.busy_s": "s",
    "collapse.run_trajectory.self_s": "s",
    "collapse.scan_collapse_basis.calls": "count",
    "collapse.scan_collapse_basis.busy_s": "s",
    "collapse.scan_collapse_basis.self_s": "s",
    "collapse.scan.grid_cells": "count",
    "collapse.scan.nm_evaluations": "count",
    "collapse.scan.flat": "count",
    "collapse.scan.nonflat_ratio": "ratio",
    "collapse.collapse_operator.calls": "count",
    "collapse.collapse_operator.degenerate": "count",
    "collapse.collapse_operator.busy_s": "s",
    "collapse.collapse_operator.degenerate_ratio": "ratio",
    "collapse.decompose.calls": "count",
    "collapse.sample_outcome.calls": "count",
    "collapse.events": "count",
    "collapse.crossings": "count",
    "collapse.events_per_crossing": "ratio",
    "energy.energy_before.calls": "count",
    "energy.energy_before.busy_s": "s",
    "energy.energy_after_ensemble.calls": "count",
    "energy.energy_after_ensemble.busy_s": "s",
    "experiment.revival_protocol.busy_s": "s",
    "experiment.revival_protocol.self_s": "s",
    "experiment.critical_n_sweep.busy_s": "s",
    "experiment.critical_n_sweep.self_s": "s",
    "experiment.replay.evolve_calls": "count",
    "experiment.replay.busy_s": "s",
    "bullet.bullet_report.busy_s": "s",
    "bullet.uncertainties.busy_s": "s",
    "cli.main.busy_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "events_per_s": "1/s",
    "ref_err": "tol",
    "failed_frac": "ratio",
}

# ratio -> (numerator, base); each base is itself a reported metric
RATIOS = {
    "entanglement.entangling_speed.warning_ratio": (
        "entanglement.entangling_speed.warnings", "entanglement.entangling_speed.calls"),
    "collapse.collapse_operator.degenerate_ratio": (
        "collapse.collapse_operator.degenerate", "collapse.collapse_operator.calls"),
    "collapse.events_per_crossing": ("collapse.events", "collapse.crossings"),
    "collapse.scan.nonflat_ratio": ("collapse.scan.nonflat", "collapse.scan_collapse_basis.calls"),
}

# measured by the run itself rather than by the wrappers
RUN_LEVEL = ("cli.bytes_written", "trace.overhead_s", "trace.overhead_ratio", "trace.spans",
             "events_per_s", "ref_err", "failed_frac")


def _evolve_path(core, h, method: str) -> str:
    """The propagation path ``core.evolve`` takes, from public attributes."""
    if method != "auto":
        return method
    if h.is_diagonal:
        return "diagonal"
    if h.num_sites <= core.DENSE_SITE_LIMIT:
        return "dense"
    return "rk4"


class Tracer:
    """Context manager that installs the wrappers and removes them on exit.

    ``stats`` maps ``<span name>.calls|busy_s|self_s`` and the extra counts
    to totals; ``spans`` keeps every span until :meth:`write_spans`.
    """

    def __init__(self, modules):
        self.modules = modules
        self.stats = defaultdict(float)
        self.spans = []
        self.run_id = 0
        self._stack = []  # [span id, name, start, child time, parent id]
        self._next_id = 0
        self._patched = []
        self._seen_operators = []
        self._t0 = time.perf_counter()

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, name, time.perf_counter(), 0.0, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child, parent = frame
        dur = end - start
        self.stats[f"{name}.calls"] += 1
        self.stats[f"{name}.busy_s"] += dur
        self.stats[f"{name}.self_s"] += dur - child
        if self._stack:
            outer = self._stack[-1]
            outer[3] += dur
            if name.startswith("core.evolve.") and outer[1].startswith("experiment."):
                self.stats["experiment.replay.evolve_calls"] += 1
                self.stats["experiment.replay.busy_s"] += dur
        self.spans.append((span_id, name, start - self._t0, end - self._t0, parent, self.run_id))

    def _wrap(self, module, attr: str, name: str, label=None, after=None, record_warnings=False):
        fn = getattr(module, attr, None)
        if fn is None:
            return
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(label(args, kwargs) if label else name)
            try:
                if record_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    tracer.stats[f"{name}.warnings"] += sum(
                        issubclass(w.category, RuntimeWarning) for w in caught)
                else:
                    result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after:
                after(args, kwargs, result)
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        m = self.modules
        core, stats = m.core, self.stats

        def evolve_label(args, kwargs):
            h = args[1] if len(args) > 1 else kwargs["h"]
            method = args[3] if len(args) > 3 else kwargs.get("method", "auto")
            path = _evolve_path(core, h, method)
            if path == "dense":
                # two complex GEMVs against the d x d eigenvector matrix
                stats["core.evolve.dense.bytes_computed"] += 2 * 16 * float(h.dim) ** 2
            return f"core.evolve.{path}"

        def eigensystem_first(args, kwargs, result):
            op = args[0]
            if not any(seen is op for seen in self._seen_operators):
                self._seen_operators.append(op)
                stats["core.eigensystem.first_calls"] += 1

        def columns(key):
            def count(args, kwargs, result):
                block = args[0] if args else kwargs["block"]
                stats[key] += block.shape[1] if getattr(block, "ndim", 1) == 2 else 1
            return count

        def scan_report(args, kwargs, result):
            report = result[1]
            stats["collapse.scan.grid_cells"] += report.mean_accelerations.size
            stats["collapse.scan.nm_evaluations"] += report.nm_evaluations
            stats["collapse.scan.flat"] += bool(report.flat)
            stats["collapse.scan.nonflat"] += not report.flat

        def degenerate(args, kwargs, result):
            stats["collapse.collapse_operator.degenerate"] += bool(result.degenerate)

        def trajectory(args, kwargs, result):
            trace, events = result
            policy = args[2] if len(args) > 2 else kwargs["policy"]
            stats["collapse.events"] += len(events)
            stats["collapse.crossings"] += int(
                (trace.epsilon_dot >= policy.epsilon_dot_threshold).sum())

        self._wrap(core.PauliTermSum, "eigensystem", "core.eigensystem", after=eigensystem_first)
        self._wrap(core, "evolve", "core.evolve", label=evolve_label)
        self._wrap(core, "evolve_many", "core.evolve_many",
                   after=columns("core.evolve_many.columns"))
        self._wrap(core, "_apply_terms", "core.apply_operator")
        ent = m.entanglement
        self._wrap(ent, "state_entropy", "entanglement.state_entropy")
        self._wrap(ent, "block_entropies", "entanglement.block_entropies",
                   after=columns("entanglement.block_entropies.columns"))
        self._wrap(ent, "entangling_speed", "entanglement.entangling_speed",
                   record_warnings=True)
        self._wrap(ent, "entangling_acceleration", "entanglement.entangling_acceleration")
        self._wrap(ent, "compute_trace", "entanglement.compute_trace")
        col = m.collapse
        self._wrap(col, "scan_collapse_basis", "collapse.scan_collapse_basis", after=scan_report)
        self._wrap(col, "collapse_operator", "collapse.collapse_operator", after=degenerate)
        self._wrap(col, "decompose", "collapse.decompose")
        self._wrap(col, "sample_outcome", "collapse.sample_outcome")
        self._wrap(col, "run_trajectory", "collapse.run_trajectory", after=trajectory)
        for fn in ("energy_before", "energy_after_ensemble"):
            self._wrap(m.energy, fn, f"energy.{fn}")
        for fn in ("revival_protocol", "critical_n_sweep"):
            self._wrap(m.experiment, fn, f"experiment.{fn}")
        for fn in ("bullet_report", "uncertainties"):
            self._wrap(m.bullet, fn, f"bullet.{fn}")
        self._wrap(m.cli, "main", "cli.main")
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def next_run(self) -> None:
        """Start the spans of the next CLI command."""
        self.run_id += 1
        self._seen_operators.clear()

    # -- output -----------------------------------------------------------

    def take_stats(self) -> dict:
        """Return the totals so far and start new ones."""
        out = dict(self.stats)
        self.stats.clear()
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("id,name,start_s,end_s,parent,run\n")
            for span_id, name, start, end, parent, run in sorted(self.spans):
                f.write(f"{span_id},{name},{start:.9f},{end:.9f},{parent},{run}\n")


def per_layer_metrics(command_stats: dict, commands: int, bullet_stats: dict) -> dict:
    """Layer metrics per traced CLI command; bullet's are of its one command."""
    out = {}
    for name in PER_LAYER_UNITS:
        if name in RUN_LEVEL or name in RATIOS:
            continue
        if name.startswith("bullet."):
            out[name] = bullet_stats.get(name, 0.0)
        else:
            out[name] = command_stats.get(name, 0.0) / commands
    for name, (num, base) in RATIOS.items():
        value = command_stats.get(num, 0.0) / commands
        out[name] = value / out[base] if out[base] else 0.0
    return out
