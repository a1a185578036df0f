"""Smoke test of the benchmark itself at tiny sizes.

Run from the repository root with ``python3 -m pytest benchmarks/test_smoke.py -q``.
It checks that every metric named in BENCHMARK.json is emitted with its unit,
that a deliberately corrupted reference trips the correctness gate, that
tracing leaves the payload files byte-identical, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# small registers and short windows that still take every workload's paths:
# the rk4 case keeps 13 sites because that is what selects the RK4 path
TINY = {
    "trace-dense": {"n_list": "3", "t_max": "0.1"},
    "collapse-scan": {"n": "4", "t_max": "0.04", "scan_theta": "12", "scan_phi": "12"},
    "rk4-wide": {"n_list": "12", "t_max": "0.02"},
    "revival-diag": {"n": "2", "n_list": "2", "trials": "2", "check_interval": "0.2"},
}


def tiny(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(w, settings={**w.settings, **TINY[name]},
                               inputs_per_run=min(w.inputs_per_run, 2))


@pytest.fixture(scope="module")
def qc():
    return run.import_package()


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_ROOT", tmp_path / "bench_out")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def run_tiny(qc, capsys, name: str, trace: bool) -> tuple[dict, dict]:
    """The result line and the check table of one tiny run."""
    w = tiny(name)
    assert run.run(qc, w, w.inputs(7), 7, 0.0, trace) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["checks"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(qc, capsys, name, trace):
    result, _ = run_tiny(qc, capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], float) and math.isfinite(value["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_names_match_the_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.PER_LAYER_UNITS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _shifted(fn, shift):
    return lambda *a, **k: fn(*a, **k) + shift


# reference -> corruption -> the check that must fail; each corruption is far
# below what a reader would notice in a plot and far above the tolerance
CORRUPTIONS = {
    "trace-dense": ("entropy", lambda fn: _shifted(fn, 1e-7), "trace.entropy"),
    "rk4-wide": ("entropy_speed", lambda fn: lambda *a: (fn(*a)[0] + 1e-4, fn(*a)[1]),
                 "trace.speed"),
    "collapse-scan": ("hamiltonian", lambda fn: lambda *a, **k: fn(*a, **k) * (1 + 1e-7),
                      "trajectory.energy"),
    "revival-diag": ("closed_form_revival_entropy", lambda fn: _shifted(fn, 1e-7),
                     "revival.pre_event_entropy"),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_reference_trips_the_gate(qc, capsys, monkeypatch, name):
    attr, corrupt, check = CORRUPTIONS[name]
    _, table = run_tiny(qc, capsys, name, trace=False)
    assert table[check]["failed"] == 0
    monkeypatch.setattr(checks, attr, corrupt(getattr(checks, attr)))
    result, table = run_tiny(qc, capsys, name, trace=False)
    assert result["correct"] is False and result["failed"] >= 1
    assert table[check]["failed"] >= 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_payloads_byte_identical(qc, tmp_path, name):
    w = tiny(name)
    inp = w.inputs(3)[0]
    original = qc.cli.main
    _, code, plain = run.run_command(qc.cli, w.argv(inp, tmp_path / "a"), tmp_path / "a")
    with layers.Tracer(qc) as tracer:
        _, traced_code, traced = run.run_command(qc.cli, w.argv(inp, tmp_path / "b"),
                                                 tmp_path / "b")
    assert code == traced_code == 0
    assert plain and plain == traced
    assert tracer.spans and qc.cli.main is original


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "trace-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
