"""The benchmark's workloads: what each one runs through ``qcollapse.cli.main``.

Every workload is a closed loop: one caller issues one CLI command at a time,
with ``--jobs 1``.  A workload's inputs come only from the benchmark seed:
the seed fixes the CLI ``--seed`` (the Born draws) and the initial Bloch
angles, which are drawn from a narrow band around pi/2.  The angles are
passed as float literals because the config parser does not accept ``pi/2``.

This module imports nothing from numpy or qcollapse, so the set-up probe in
``run.py`` times only what a user's process pays for.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# half-width of the band around pi/2 that initial Bloch angles are drawn from
ANGLE_BAND = 0.05


@dataclass(frozen=True)
class Input:
    """One generated CLI invocation of a workload."""

    index: int
    seed: int
    sys_theta: float | None = None
    env_theta: float | None = None


@dataclass(frozen=True)
class Workload:
    """A CLI command, its fixed settings, and how many inputs one run cycles.

    ``settings`` holds every value the correctness checks need, so the checks
    never depend on the program's defaults.  ``inputs_per_run`` is above one
    only where the cost of a command depends on its inputs: averaging over
    several inputs keeps the figures of one seed close to those of another.
    """

    name: str
    command: str
    settings: dict
    inputs_per_run: int = 1
    seeded_angles: bool = True
    runs_bullet: bool = False

    def inputs(self, seed: int) -> list[Input]:
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for i in range(self.inputs_per_run):
            cli_seed = seed * self.inputs_per_run + i
            if self.seeded_angles:
                a = math.pi / 2 + rng.uniform(-ANGLE_BAND, ANGLE_BAND)
                b = math.pi / 2 + rng.uniform(-ANGLE_BAND, ANGLE_BAND)
                out.append(Input(i, cli_seed, a, b))
            else:
                out.append(Input(i, cli_seed))
        return out

    def argv(self, inp: Input, out_dir: Path) -> list[str]:
        args = [self.command]
        for key, value in self.settings.items():
            args += ["--set", f"{key}={value}"]
        if inp.sys_theta is not None:
            args += ["--set", f"sys_theta={inp.sys_theta!r}",
                     "--set", f"env_theta={inp.env_theta!r}"]
        return args + ["--seed", str(inp.seed), "--jobs", "1", "--out", str(out_dir)]

    def samples(self, files: dict) -> int:
        """Trace or trajectory grid samples that one command computed."""
        if self.command == "revival":
            dt = float(self.settings["check_interval"])
            t_rev = 2.0 * math.pi / float(self.settings["g"])
            per_trajectory = int(math.ceil(t_rev / dt - 1e-12)) + 1
            trajectories = int(self.settings["trials"]) + len(self.settings["n_list"].split(","))
            return trajectories * per_trajectory
        if self.command == "trajectory":
            return len(csv_rows(files["trajectory_trace.csv"]))
        return sum(len(csv_rows(text)) for name, text in files.items()
                   if name.startswith("trace_n"))

    def events(self, files: dict) -> int:
        """Collapse events that one command produced."""
        if self.command == "trajectory":
            return len(files["trajectory_events.jsonl"].splitlines())
        if self.command == "revival":
            report = json.loads(files["revival.json"])
            per_trial = report["collapse_events_before_revival"] * report["trials"]
            sweep = sum(int(row["events"]) for row in csv_rows(files["revival_sweep.csv"]))
            return int(round(per_trial)) + sweep
        return 0


def csv_rows(text: str) -> list[dict]:
    """Rows of a CLI CSV payload as dicts, skipping ``#`` comment lines."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


WORKLOADS = {
    w.name: w
    for w in (
        # cached dense eigh plus the 7 evolutions per sample of the
        # finite-difference speed and acceleration; no scan, no RNG
        Workload("trace-dense", "trace", {
            "model": "transverse_coupled", "n_list": "9",
            "t_max": "1.0", "check_interval": "0.02",
        }),
        # every crossing runs a 64x64 scan plus Nelder-Mead on a cheap
        # 128-amplitude evolution; the scan's cost depends on the state, so
        # one run averages 32 inputs, about 21 s, inside one 25 s window
        Workload("collapse-scan", "trajectory", {
            "model": "transverse_coupled", "n": "6", "threshold": "0.5",
            "basis_method": "scan", "scan_theta": "64", "scan_phi": "64",
            "accel_delta": "0.001", "t_max": "0.25", "check_interval": "0.02",
        }, inputs_per_run=32),
        # 13 sites, above DENSE_SITE_LIMIT: fixed-step RK4 over the Pauli-term
        # apply, no eigh
        Workload("rk4-wide", "trace", {
            "model": "transverse_coupled", "n_list": "12",
            "t_max": "0.04", "check_interval": "0.02",
        }),
        # diagonal phase evolution, degenerate collapse operators falling back
        # to the scan, the revival replay; bullet runs once for its layer
        Workload("revival-diag", "revival", {
            "model": "degenerate_ising", "n": "6", "n_list": "4,6", "g": "1.0",
            "threshold": "0.5", "check_interval": "0.05", "trials": "8",
        }, seeded_angles=False, runs_bullet=True),
    )
}
