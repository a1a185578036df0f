"""Batch command-line front end.

Subcommands: ``trace``, ``energy-sweep``, ``trajectory``, ``bullet``,
``revival``.  Runs are configured by a flat ``key = value`` file (``#``
comments allowed, unknown keys rejected) plus ``--set key=value``
overrides; every key has a documented default, so a bare invocation works.
Outputs are plain CSV / JSON written under ``--out``; identical config and
seed reproduce them byte for byte.  Exit codes: 0 success, 2 usage or
config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

# CPython's own SHA-256 for the config hash: hashlib would also load
# OpenSSL's libcrypto, 3.4 MB of resident memory for one short digest
try:
    from _sha256 import sha256  # Python 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        from hashlib import sha256

from . import bullet, collapse, core, energy, entanglement, experiment


class ConfigError(ValueError):
    """Malformed configuration: unknown key, bad value, or bad combination."""


def _parse_int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.replace(",", " ").split())


@dataclass(frozen=True)
class RunConfig:
    """Effective settings for one command; see README for key meanings."""

    model: str = "transverse_coupled"
    n: int = 8
    n_list: tuple = (2, 4, 6, 8)
    g: float = 1.0
    sys_theta: float = math.pi / 2.0
    env_theta: float = math.pi / 2.0
    threshold: float = math.inf
    check_interval: float = 0.02
    t_max: float = 3.0
    accel_delta: float = 1e-3
    basis_method: str = "auto"
    scan_theta: int = 64
    scan_phi: int = 64
    trials: int = 1
    entropy_units: str = "nats"
    seed: int = 12345
    jobs: int = 1
    out: str = "out"
    format: str = "csv"
    mass_kg: float = 0.01
    density_kg_m3: float = 7850.0
    barrier_j: float = 1.0
    line_density_per_m: float = 3.2e21
    velocity_m_s: float = 0.0
    center_m: float = 0.0
    grid_half_width: float = 13.0
    grid_points: int = 4001


_PARSERS = {
    str: lambda s: s.strip(),
    int: lambda s: int(s, 0),
    float: float,
    tuple: _parse_int_list,
}

_FIELD_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    if key not in _FIELD_TYPES:
        known = ", ".join(sorted(_FIELD_TYPES))
        raise ConfigError(f"unknown config key {key!r} (known keys: {known})")
    try:
        return _PARSERS[_FIELD_TYPES[key]](raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        values[key] = _coerce(key, raw.strip())
    return values


def load_config(path: str | None, overrides: dict) -> RunConfig:
    values = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        values.update(parse_config_text(p.read_text()))
    values.update(overrides)
    cfg = replace(RunConfig(), **values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.model not in ("transverse_coupled", "degenerate_ising"):
        raise ConfigError(f"unknown model {cfg.model!r}")
    if cfg.basis_method not in collapse.BASIS_METHODS:
        raise ConfigError(f"unknown basis_method {cfg.basis_method!r}")
    if cfg.entropy_units not in ("nats", "bits"):
        raise ConfigError(f"unknown entropy_units {cfg.entropy_units!r}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"unknown format {cfg.format!r}")
    if cfg.n < 1 or any(n < 1 for n in cfg.n_list) or not cfg.n_list:
        raise ConfigError("environment sizes must be >= 1")
    for key in ("t_max", "g", "sys_theta", "env_theta"):
        if not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"{key} must be finite")
    if cfg.g <= 0:
        raise ConfigError("g must be positive")
    if not (cfg.t_max > 0 and cfg.accel_delta > 0):
        raise ConfigError("t_max and accel_delta must be positive")
    if cfg.accel_delta < entanglement.MIN_ACCEL_STEP:
        raise ConfigError(f"accel_delta must be at least {entanglement.MIN_ACCEL_STEP}")
    if cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    if cfg.jobs < 1:
        raise ConfigError("jobs must be >= 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    # the library's own parameter objects check the rest
    try:
        _policy(cfg)
        _scan_settings(cfg)
        _bullet_params(cfg)
        _grid_spec(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_hash(cfg: RunConfig) -> str:
    # out and jobs route the work without affecting payload values; leaving
    # them out keeps reruns byte-identical across output directories
    canon = "\n".join(
        f"{f.name}={getattr(cfg, f.name)!r}"
        for f in fields(cfg)
        if f.name not in ("out", "jobs")
    )
    return sha256(canon.encode()).hexdigest()[:12]


def _hamiltonian(cfg: RunConfig, n: int) -> core.PauliTermSum:
    return core.build_hamiltonian(cfg.model, n_env=n, g=cfg.g)


def _initial_state(cfg: RunConfig, n: int) -> core.StateVector:
    sites = [core.spin_state(cfg.sys_theta, 0.0)]
    sites += [core.spin_state(cfg.env_theta, 0.0)] * n
    return core.StateVector.from_site_states(sites)


def _policy(cfg: RunConfig) -> collapse.ThresholdPolicy:
    return collapse.ThresholdPolicy(cfg.threshold, cfg.check_interval)


def _scan_settings(cfg: RunConfig) -> collapse.ScanSettings:
    return collapse.ScanSettings(
        n_theta=cfg.scan_theta, n_phi=cfg.scan_phi, accel_delta=cfg.accel_delta
    )


def _bullet_params(cfg: RunConfig) -> bullet.BulletParams:
    return bullet.BulletParams(
        mass_kg=cfg.mass_kg,
        density_kg_m3=cfg.density_kg_m3,
        barrier_j=cfg.barrier_j,
        line_density_per_m=cfg.line_density_per_m,
        velocity_m_s=cfg.velocity_m_s,
        center_m=cfg.center_m,
    )


def _grid_spec(cfg: RunConfig) -> bullet.GridSpec:
    return bullet.GridSpec(cfg.grid_half_width, cfg.grid_points)


def _map_jobs(fn, items, jobs: int) -> list:
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _write_table(path: Path, columns, rows, fmt: str, hash_: str) -> None:
    """Tabular payload as CSV (with a config-hash comment) or JSON."""
    if fmt == "csv":
        with open(path.with_suffix(".csv"), "w", newline="") as f:
            f.write(f"# config_hash={hash_}\n")
            writer = csv.writer(f)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_cell(v) for v in row])
    else:
        payload = {"config_hash": hash_, "columns": list(columns), "rows": [list(r) for r in rows]}
        path.with_suffix(".json").write_text(json.dumps(payload, indent=2) + "\n")


def _cell(v):
    if isinstance(v, bool) or isinstance(v, (str, int)):
        return v
    return repr(float(v))


def cmd_trace(cfg: RunConfig, out_dir: Path) -> list[Path]:
    """Per-size entanglement traces plus a peak-speed summary."""
    hash_ = config_hash(cfg)

    def one(n: int):
        trace = entanglement.compute_trace(
            _initial_state(cfg, n),
            _hamiltonian(cfg, n),
            t_max=cfg.t_max,
            dt=cfg.check_interval,
            accel_delta=cfg.accel_delta,
            model_tag=cfg.model,
        )
        return n, trace

    written = []
    results = _map_jobs(one, list(cfg.n_list), cfg.jobs)
    scale = entanglement._unit_scale(cfg.entropy_units)
    for n, trace in results:
        path = out_dir / f"trace_n{n}"
        _write_table(path, entanglement.TRACE_COLUMNS, trace.rows(cfg.entropy_units),
                     cfg.format, hash_)
        written.append(path.with_suffix("." + cfg.format))
    if len(cfg.n_list) > 1:
        rows = []
        for n, trace in results:
            k = int(np.argmax(trace.epsilon_dot))
            rows.append((n, trace.epsilon_dot[k] * scale, trace.times[k]))
        path = out_dir / "trace_summary"
        _write_table(path, ("n", "peak_epsilon_dot", "t_peak"), rows, cfg.format, hash_)
        written.append(path.with_suffix("." + cfg.format))
    return written


def cmd_energy_sweep(cfg: RunConfig, out_dir: Path) -> list[Path]:
    """Energy-deviation audit at the first speed peak across sizes."""
    hash_ = config_hash(cfg)
    scan = _scan_settings(cfg)

    def one(n: int) -> energy.SweepPoint:
        return energy.deviation_sweep(
            (n,),
            lambda m: _hamiltonian(cfg, m),
            lambda m: _initial_state(cfg, m),
            t_max=cfg.t_max,
            dt=cfg.check_interval,
            basis_method=cfg.basis_method,
            scan_settings=scan,
            model_tag=cfg.model,
        )[0]

    points = _map_jobs(one, list(cfg.n_list), cfg.jobs)
    columns = (
        "n", "t_c", "e_before", "e_after_ensemble", "delta_e",
        "relative_deviation", "deviation_is_absolute",
        "basis_theta", "basis_phi", "basis_method_used", "degenerate_fallback",
    )
    rows = [
        (
            p.n_env, p.t_c, p.e_before, p.e_after_ensemble, p.delta_e,
            p.relative_deviation, p.floored,
            p.basis_theta, p.basis_phi, p.basis_method_used, p.degenerate_fallback,
        )
        for p in points
    ]
    path = out_dir / "energy_sweep"
    _write_table(path, columns, rows, cfg.format, hash_)
    return [path.with_suffix("." + cfg.format)]


def cmd_trajectory(cfg: RunConfig, out_dir: Path) -> list[Path]:
    """One collapse trajectory: JSON-lines event log plus its trace."""
    hash_ = config_hash(cfg)
    trace, events = collapse.run_trajectory(
        _initial_state(cfg, cfg.n),
        _hamiltonian(cfg, cfg.n),
        _policy(cfg),
        t_max=cfg.t_max,
        seed=cfg.seed,
        basis_method=cfg.basis_method,
        scan_settings=_scan_settings(cfg),
        accel_delta=cfg.accel_delta,
        model_tag=cfg.model,
    )
    events_path = out_dir / "trajectory_events.jsonl"
    events_path.write_text(collapse.events_to_jsonl(events, cfg.seed))
    trace_path = out_dir / "trajectory_trace"  # CSV whatever the format
    _write_table(trace_path, entanglement.TRACE_COLUMNS, trace.rows(cfg.entropy_units),
                 "csv", hash_)
    return [events_path, trace_path.with_suffix(".csv")]


def cmd_bullet(cfg: RunConfig, out_dir: Path) -> list[Path]:
    """Flying-body packet report with the configured physical parameters."""
    report = bullet.bullet_report(_bullet_params(cfg), _grid_spec(cfg))
    path = out_dir / "bullet.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return [path]


def cmd_revival(cfg: RunConfig, out_dir: Path) -> list[Path]:
    """Revival readout for one size plus the event-count sweep table."""
    hash_ = config_hash(cfg)
    # one history tree per size, built before any sweep thread starts: the
    # sweep row at cfg.n walks the seed of the protocol's first trial
    trees = {
        n: experiment.revival_tree(n, cfg.g, _policy(cfg), cfg.basis_method, _scan_settings(cfg))
        for n in dict.fromkeys((cfg.n, *cfg.n_list))
    }
    report = experiment.revival_protocol(
        cfg.n,
        cfg.g,
        _policy(cfg),
        trials=cfg.trials,
        seed=cfg.seed,
        basis_method=cfg.basis_method,
        scan_settings=_scan_settings(cfg),
        trees=trees,
    )
    report_path = out_dir / "revival.json"
    report_path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")

    def one(n: int) -> experiment.SweepRow:
        return experiment.critical_n_sweep(
            (n,), cfg.g, _policy(cfg), seed=cfg.seed,
            basis_method=cfg.basis_method, scan_settings=_scan_settings(cfg), trees=trees,
        )[0]

    rows = _map_jobs(one, list(cfg.n_list), cfg.jobs)
    table = [(r.n_env, r.max_epsilon_dot, r.events, r.p_minus) for r in rows]
    sweep_path = out_dir / "revival_sweep"
    _write_table(sweep_path, ("n", "max_epsilon_dot", "events", "p_minus"), table,
                 cfg.format, hash_)
    return [report_path, sweep_path.with_suffix("." + cfg.format)]


_COMMANDS = {
    "trace": cmd_trace,
    "energy-sweep": cmd_energy_sweep,
    "trajectory": cmd_trajectory,
    "bullet": cmd_bullet,
    "revival": cmd_revival,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcollapse",
        description="Collapse-dynamics simulations: traces, sweeps, trajectories, "
        "the flying-body packet, and the revival protocol.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--seed", type=int, help="override the RNG seed")
    parser.add_argument("--jobs", type=int, help="concurrent sweep points")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), help="table format")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, raw = item.split("=", 1)
            overrides[key.strip()] = _coerce(key.strip(), raw)
        for flag in ("seed", "jobs", "out", "format"):
            value = getattr(args, flag)
            if value is not None:
                overrides[flag] = value
        cfg = load_config(args.config, overrides)
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, core.IntegrationError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
