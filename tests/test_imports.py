"""What a fresh process imports: scipy only where a command calls it.

Each test starts a new interpreter, because this test session has already
imported scipy (the test modules use it as an oracle).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcollapse

# Runs one CLI command in a fresh interpreter and prints, as JSON, its exit
# code, the scipy modules loaded before and after it, and the thread that
# first imported scipy.
PROBE = """
import json, sys, threading

first = []

def hook(event, args):
    if event == "import" and args[0].split(".")[0] == "scipy" and not first:
        first.append(threading.current_thread().name)

sys.addaudithook(hook)
import qcollapse, qcollapse.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

before = loaded()
code = qcollapse.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "before": before, "after": loaded(),
                  "first_thread": first[0] if first else None}))
"""


def probe(*argv):
    src = str(Path(qcollapse.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        check=True, capture_output=True, text=True, timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_package_cli_and_trace_load_no_scipy(tmp_path):
    out = tmp_path / "trace"
    got = probe("trace", "--set", "n_list=2,4", "--set", "t_max=0.1", "--out", str(out))
    assert got["code"] == 0
    assert (out / "trace_n4.csv").is_file()
    assert got["before"] == [] and got["after"] == []


@pytest.mark.parametrize(
    "argv, module",
    [
        (["bullet"], "scipy.linalg"),
        (["trajectory", "--set", "n=3", "--set", "threshold=0.5", "--set", "t_max=1.0",
          "--set", "basis_method=scan", "--set", "scan_theta=8", "--set", "scan_phi=8"],
         "scipy.optimize"),
    ],
    ids=["bullet", "scan-trajectory"],
)
def test_scipy_commands_import_it_at_the_call_site(tmp_path, argv, module):
    got = probe(*argv, "--out", str(tmp_path / "o"))
    assert got["code"] == 0
    assert got["before"] == []
    assert module in got["after"]
    assert got["first_thread"] == "MainThread"


def test_first_scipy_import_in_worker_threads_keeps_the_bytes(tmp_path):
    # at n=1 the revival trajectories never reach the threshold; the sweep's
    # sizes 4 and 6 do, and their degenerate collapse operators fall back to
    # the refined scan, so with --jobs 2 scipy is first imported in a worker
    argv = ["revival", "--set", "n=1", "--set", "n_list=4,6", "--set", "threshold=1.5",
            "--set", "check_interval=0.05"]
    payloads = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        got = probe(*argv, "--jobs", jobs, "--out", str(out))
        assert got["code"] == 0 and "scipy.optimize" in got["after"]
        payloads.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert got["first_thread"] != "MainThread"
    assert sorted(payloads[0]) == ["revival.json", "revival_sweep.csv"]
    assert b'"collapse_events_before_revival": 0.0' in payloads[0]["revival.json"]
    assert payloads[0] == payloads[1]
