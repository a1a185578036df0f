"""qcollapse benchmark: run one workload through ``qcollapse.cli.main``.

Usage, from the root of a source checkout::

    python3 benchmarks/run.py --workload trace-dense --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first runs the commands untraced, then again under the layer
tracer (``layers.py``), and reports the per-layer metrics and the tracer's
own overhead.  Either way every command's payload is checked against the
independent references in ``checks.py``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it record the environment and the checks.
See README.md beside this file.
"""

from __future__ import annotations

import os

# one BLAS thread in this process and in every set-up probe it starts; this
# has to happen before numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

# checks.py and layers.py are imported where they are used, so that a set-up
# probe imports only what a user's process imports
from workloads import WORKLOADS, Input, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_PROBES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# the summary line adds the three end-to-end figures that can read 0
SUMMARY_UNITS = {**END_TO_END_UNITS, "events_per_s": "1/s", "ref_err": "tol",
                 "failed_frac": "ratio"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import qcollapse, generate the inputs and exit (times set-up)")
    return parser.parse_args(argv)


def import_package():
    """Import qcollapse from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "qcollapse" / "__init__.py").is_file():
        raise FileNotFoundError(f"no qcollapse sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import qcollapse
    from qcollapse import bullet, cli, collapse, core, energy, entanglement, experiment

    if Path(qcollapse.__file__).resolve().parent != (src / "qcollapse").resolve():
        raise ImportError(f"qcollapse imported from {qcollapse.__file__}, not from {src}")
    return SimpleNamespace(bullet=bullet, cli=cli, collapse=collapse, core=core, energy=energy,
                           entanglement=entanglement, experiment=experiment)


def measure_setup(workload: Workload, seed: int) -> float:
    """Median of several fresh processes that import qcollapse and make the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
             "--seed", str(seed), "--setup-probe"],
            check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Command:
    """One CLI command of a run and what it left in its output directory."""

    input: Input
    wall: float
    exit_code: int
    files: dict


def read_outputs(out_dir: Path) -> dict:
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_text() for p in sorted(out_dir.iterdir()) if p.is_file()}


def run_command(cli, argv: list[str], out_dir: Path) -> tuple[float, int, dict]:
    """Time one ``cli.main`` call; its stdout (the written paths) is discarded.

    A command that raises counts as failed (exit code -1) and the run goes on.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = -1
    wall = time.perf_counter() - start
    return wall, code, read_outputs(out_dir)


def run_phase(qc, workload: Workload, inputs: list[Input], seconds: float, out_dir: Path,
              tracer=None) -> list[Command]:
    """Cycle through the inputs, one command at a time, for ``seconds``.

    The phase always completes one full cycle, so every input is measured.
    """
    commands = []
    start = time.perf_counter()
    i = 0
    while i < len(inputs) or time.perf_counter() - start < seconds:
        inp = inputs[i % len(inputs)]
        if tracer is not None:
            tracer.next_run()
        # cli.main is looked up at call time, so the tracer's wrapper is used
        wall, code, files = run_command(qc.cli, workload.argv(inp, out_dir / f"in{inp.index}"),
                                        out_dir / f"in{inp.index}")
        commands.append(Command(inp, wall, code, files))
        i += 1
    return commands


def per_input_walls(commands: list[Command], inputs: list[Input]) -> list[float]:
    """Median wall time of each input's commands, in input order.

    On a shared host the machine's speed drifts over seconds, so the fastest
    repeat depends on whether a run happened to catch a fast spell; the
    median over the run moves much less from one run to the next.
    """
    return [statistics.median(c.wall for c in commands if c.input.index == inp.index)
            for inp in inputs]


def environment(workload: Workload, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "jobs": 1,
        "commit": git_commit(),
        "workload": workload.name,
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def gate(qc, workload: Workload, inputs: list[Input], commands: list[Command],
         out_dir: Path) -> list:
    """Exit codes, run-to-run byte identity and the reference checks."""
    import checks

    results = []
    first = {}
    for c in commands:
        results.append(checks.Check("exit_code", abs(c.exit_code), 0))
        if c.input.index not in first:
            first[c.input.index] = c
        else:
            same = c.files == first[c.input.index].files
            results.append(checks.Check("identical_payload", 0 if same else 1, 0))
    for inp in inputs:
        ref_files = None
        ref_argv = checks.reference_argv(workload, inp, out_dir / f"ref{inp.index}")
        if ref_argv is not None:
            _, code, ref_files = run_command(qc.cli, ref_argv, out_dir / f"ref{inp.index}")
            results.append(checks.Check("reference_command", abs(code), 0))
        results += checks.check_outputs(workload, inp, first[inp.index].files, qc, ref_files)
    return results


def count(counter, files: dict) -> int:
    """A workload's count from one payload; 0 when the payload is unreadable,
    which the gate has already reported as a failure."""
    try:
        return counter(files)
    except (KeyError, ValueError, IndexError):
        return 0


def check_table(results: list) -> dict:
    """Worst error, tolerance, count and failures per check name, inputs pooled."""
    table = {}
    for r in results:
        row = table.setdefault(r.name, {"worst_err": 0.0, "tol": r.tol, "count": 0, "failed": 0})
        row["worst_err"] = max(row["worst_err"], r.err)
        row["count"] += 1
        row["failed"] += not r.passed
    return table


def run_bullet(qc, out_dir: Path) -> list:
    """The bullet command, run once so the bullet layer has spans."""
    import checks

    _, code, files = run_command(qc.cli, ["bullet", "--out", str(out_dir / "bullet")],
                                 out_dir / "bullet")
    ok = code == 0 and "bullet.json" in files and bool(json.loads(files["bullet.json"]))
    return [checks.Check("bullet.exit_code", 0 if ok else 1, 0)]


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        qc = import_package()
    except (ImportError, FileNotFoundError) as exc:
        print(f"benchmark: cannot import the program: {exc}", file=sys.stderr)
        return 2
    inputs = workload.inputs(args.seed)
    if args.setup_probe:
        return 0
    return run(qc, workload, inputs, args.seed, args.seconds, bool(args.trace))


def run(qc, workload: Workload, inputs: list[Input], seed: int, seconds: float,
        trace: bool) -> int:
    import layers

    setup_s = measure_setup(workload, seed)
    out_dir = OUT_ROOT / workload.name
    shutil.rmtree(out_dir, ignore_errors=True)

    # one untimed command first, so lazy imports and first-touch costs of the
    # process are not charged to the first measured input
    warm = run_phase(qc, workload, inputs[:1], 0.0, out_dir)
    window = seconds / 2 if trace else seconds
    untraced = run_phase(qc, workload, inputs, window, out_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = []
    if trace:
        with layers.Tracer(qc) as tracer:
            traced = run_phase(qc, workload, inputs, window, out_dir, tracer)
            command_stats = tracer.take_stats()
            tracer.next_run()
            bullet_checks = run_bullet(qc, out_dir) if workload.runs_bullet else []
            bullet_stats = tracer.take_stats()
        tracer.write_spans(out_dir / "spans.csv")
    else:
        bullet_checks = run_bullet(qc, out_dir) if workload.runs_bullet else []

    results = gate(qc, workload, inputs, warm + untraced + traced, out_dir) + bullet_checks
    failed = sum(not r.passed for r in results)
    # exact checks (exit codes, counts, byte identity) count only as failures
    ref_err = max((r.err / r.tol for r in results if r.tol), default=0.0)

    walls = per_input_walls(untraced, inputs)
    first_files = {c.input.index: c.files for c in untraced}
    samples = sum(count(workload.samples, first_files[i.index]) for i in inputs)
    events = sum(count(workload.events, first_files[i.index]) for i in inputs)
    summary = {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(walls),
        "samples_per_s": samples / sum(walls),
        "events_per_s": events / sum(walls),
        "peak_rss_mb": peak_rss_mb,
        "ref_err": ref_err,
        "failed_frac": failed / len(results),
    }
    if trace:
        traced_walls = per_input_walls(traced, inputs)
        values = layers.per_layer_metrics(command_stats, len(traced), bullet_stats)
        overhead = statistics.fmean(traced_walls) - summary["wall_s"]
        values.update({
            "cli.bytes_written": statistics.fmean(
                sum(len(t.encode()) for t in c.files.values()) for c in traced),
            "trace.overhead_s": overhead,
            "trace.overhead_ratio": overhead / summary["wall_s"],
            "trace.spans": len(tracer.spans) / len(traced),
            "events_per_s": summary["events_per_s"],
            "ref_err": ref_err,
            "failed_frac": summary["failed_frac"],
        })
        units = layers.PER_LAYER_UNITS
    else:
        values = {name: summary[name] for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS

    print(json.dumps({"environment": environment(workload, seed)}))
    print(json.dumps({
        "checks": check_table(results),
        "summary": {name: {"value": summary[name], "unit": unit}
                    for name, unit in SUMMARY_UNITS.items()},
        "command_walls": [[c.input.index, round(c.wall, 4)] for c in untraced],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
