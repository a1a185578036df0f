import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from qcollapse import cli, collapse, core, entanglement


def run_cli(*argv):
    return cli.main(list(argv))


def read_lines(path):
    return path.read_text().splitlines()


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_defaults_parse_and_validate():
    cfg = cli.load_config(None, {})
    assert cfg.model == "transverse_coupled"
    assert cfg.threshold == math.inf
    assert cfg.n_list == (2, 4, 6, 8)


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "model = degenerate_ising\n"
        "n_list = 2, 3\n"
        "threshold = 0.5  # inline comment\n"
        "g = 1.5\n"
    )
    cfg = cli.load_config(str(path), {"seed": 7})
    assert cfg.model == "degenerate_ising"
    assert cfg.n_list == (2, 3)
    assert cfg.threshold == 0.5
    assert cfg.seed == 7


def test_every_key_parses_its_default():
    # the key types are read off RunConfig's defaults, so each must parse
    for f in fields(cli.RunConfig):
        default = f.default
        text = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
        assert cli.parse_config_text(f"{f.name} = {text}") == {f.name: default}


def test_unknown_key_is_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("no_such_key = 3\n")
    with pytest.raises(cli.ConfigError, match="no_such_key"):
        cli.load_config(str(path), {})


def test_malformed_line_and_bad_values(tmp_path):
    with pytest.raises(cli.ConfigError, match="key = value"):
        cli.parse_config_text("just some words\n")
    with pytest.raises(cli.ConfigError, match="bad value"):
        cli.parse_config_text("seed = not_an_int\n")
    with pytest.raises(cli.ConfigError):
        cli.load_config(None, {"basis_method": "guess"})
    with pytest.raises(cli.ConfigError):
        cli.load_config(None, {"threshold": -1.0})


def test_config_hash_is_sha256_and_a_trace_loads_no_openssl(tmp_path):
    # the built-in SHA-256 gives hashlib's digest; a trace command leaves
    # OpenSSL's libcrypto (3.4 MB resident) unloaded
    data = "\n".join(f"key{k}={k / 7!r}" for k in range(40)).encode()
    assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    script = (
        "import sys\n"
        "from qcollapse import cli\n"
        "code = cli.main(['trace', '--set', 't_max=0.1', '--out', sys.argv[1]])\n"
        "print(code, '_hashlib' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path / "t")], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.stdout.split()[-2:] == ["0", "False"], run.stderr


def test_config_hash_ignores_output_routing():
    a = cli.config_hash(cli.load_config(None, {"out": "x", "jobs": 1}))
    b = cli.config_hash(cli.load_config(None, {"out": "y", "jobs": 4}))
    c = cli.config_hash(cli.load_config(None, {"seed": 1}))
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_cmd_trace_files_and_summary(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "trace", "--set", "n_list=2,3", "--set", "t_max=0.4",
        "--set", "check_interval=0.05", "--out", str(out),
    )
    assert code == 0
    cfg = cli.load_config(None, {"n_list": (2, 3), "t_max": 0.4, "check_interval": 0.05})
    for n in (2, 3):
        lines = read_lines(out / f"trace_n{n}.csv")
        assert lines[0] == f"# config_hash={cli.config_hash(cfg)}"
        assert lines[1] == "t,epsilon,epsilon_dot,epsilon_ddot"
        assert len(lines) == 2 + 9  # header rows + 9 samples
        # the cells parse back to the trace's own values, bit for bit
        trace = entanglement.compute_trace(
            cli._initial_state(cfg, n), cli._hamiltonian(cfg, n), t_max=0.4, dt=0.05
        )
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
        expected = np.column_stack(
            [trace.times, trace.epsilon, trace.epsilon_dot, trace.epsilon_ddot]
        )
        np.testing.assert_array_equal(parsed, expected)
    summary = read_lines(out / "trace_summary.csv")
    assert summary[1] == "n,peak_epsilon_dot,t_peak"
    rows = [line.split(",") for line in summary[2:]]
    assert [r[0] for r in rows] == ["2", "3"]
    assert float(rows[1][1]) >= float(rows[0][1])


def test_cmd_trace_single_size_no_summary(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "trace", "--set", "n_list=2", "--set", "t_max=0.2",
        "--set", "check_interval=0.05", "--out", str(out),
    )
    assert code == 0
    assert (out / "trace_n2.csv").exists()
    assert not (out / "trace_summary.csv").exists()


def test_cmd_trace_json_format(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "trace", "--set", "n_list=2", "--set", "t_max=0.2",
        "--set", "check_interval=0.05", "--format", "json", "--out", str(out),
    )
    assert code == 0
    payload = json.loads((out / "trace_n2.json").read_text())
    assert payload["columns"] == ["t", "epsilon", "epsilon_dot", "epsilon_ddot"]
    assert len(payload["rows"]) == 5


def test_cmd_trace_bits_units(tmp_path):
    out_n = tmp_path / "nats"
    out_b = tmp_path / "bits"
    args = ["trace", "--set", "n_list=2", "--set", "t_max=0.2", "--set", "check_interval=0.05"]
    assert run_cli(*args, "--out", str(out_n)) == 0
    assert run_cli(*args, "--set", "entropy_units=bits", "--out", str(out_b)) == 0
    nats = [float(l.split(",")[1]) for l in read_lines(out_n / "trace_n2.csv")[2:]]
    bits = [float(l.split(",")[1]) for l in read_lines(out_b / "trace_n2.csv")[2:]]
    np.testing.assert_allclose(bits, np.array(nats) / math.log(2.0), atol=1e-12)


def test_cmd_energy_sweep(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "energy-sweep", "--set", "n_list=2,4", "--set", "t_max=1.0",
        "--set", "basis_method=scan", "--jobs", "2", "--out", str(out),
    )
    assert code == 0
    lines = read_lines(out / "energy_sweep.csv")
    header = lines[1].split(",")
    assert header[:6] == ["n", "t_c", "e_before", "e_after_ensemble", "delta_e", "relative_deviation"]
    assert "degenerate_fallback" in header
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 2
    assert float(rows[1][5]) < float(rows[0][5])  # deviation falls with size


def test_cmd_trajectory_deterministic(tmp_path):
    args = [
        "trajectory", "--set", "model=degenerate_ising", "--set", "n=4",
        "--set", "threshold=0.5", "--set", "t_max=1.0", "--seed", "9",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    for name in ("trajectory_events.jsonl", "trajectory_trace.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    event = json.loads(read_lines(out1 / "trajectory_events.jsonl")[0])
    assert list(event) == [
        "t_c", "theta", "phi", "weights", "outcome",
        "e_before", "e_after_ensemble", "e_after_actual", "rng_draw", "seed",
    ]
    assert event["seed"] == 9


def test_cmd_trajectory_infinite_threshold_empty_log(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "trajectory", "--set", "n=3", "--set", "t_max=0.3", "--out", str(out),
    )
    assert code == 0
    assert (out / "trajectory_events.jsonl").read_text() == ""


def test_cmd_bullet_defaults_and_override(tmp_path):
    out = tmp_path / "o"
    assert run_cli("bullet", "--out", str(out)) == 0
    report = json.loads((out / "bullet.json").read_text())
    assert abs(report["delta_x_formula"] - 1.9e-28) / 1.9e-28 < 0.05
    assert abs(report["dominance_ratio"] - 3.9e4) / 3.9e4 < 0.03

    out2 = tmp_path / "o2"
    assert run_cli("bullet", "--set", "barrier_j=10.0", "--out", str(out2)) == 0
    report2 = json.loads((out2 / "bullet.json").read_text())
    assert report2["delta_x_formula"] == report["delta_x_formula"]
    assert report2["delta_x_numeric"] == report["delta_x_numeric"]
    assert report2["dominance_ratio"] == pytest.approx(10.0 * report["dominance_ratio"])


def test_cmd_bullet_rejects_bad_params(tmp_path):
    code = run_cli("bullet", "--set", "mass_kg=-1", "--out", str(tmp_path / "o"))
    assert code == 2


def test_cmd_revival(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "revival", "--set", "model=degenerate_ising", "--set", "n=4",
        "--set", "n_list=2,3", "--set", "threshold=0.5",
        "--set", "check_interval=0.05", "--out", str(out),
    )
    assert code == 0
    report = json.loads((out / "revival.json").read_text())
    assert report["p_plus"] + report["p_minus"] == pytest.approx(1.0, abs=1e-10)
    assert report["collapse_events_before_revival"] >= 1
    lines = read_lines(out / "revival_sweep.csv")
    assert lines[1] == "n,max_epsilon_dot,events,p_minus"


def test_unknown_config_key_exits_2(tmp_path):
    assert run_cli("trace", "--set", "bogus=1", "--out", str(tmp_path / "o")) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert run_cli("trace", "--config", str(tmp_path / "nope.cfg")) == 2


@pytest.mark.parametrize(
    "command, setting",
    [
        ("bullet", "grid_points=50"),
        ("trace", "check_interval=inf"),
        ("trace", "fd_step=0"),
        ("trace", "accel_delta=0"),
        ("trajectory", "scan_theta=1"),
    ],
)
def test_invalid_settings_exit_2(tmp_path, capsys, command, setting):
    assert run_cli(command, "--set", setting, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    if setting.startswith("fd_step="):
        # the speed is taken in closed form; there is no finite-difference step
        assert "unknown config key 'fd_step'" in err


@pytest.mark.parametrize(
    "command, setting",
    [
        ("trace", "t_max=inf"),
        ("trajectory", "t_max=inf"),
        ("energy-sweep", "t_max=inf"),
        ("revival", "g=nan"),
        ("revival", "g=inf"),
        ("trace", "g=inf"),
        ("trace", "sys_theta=nan"),
        ("trace", "env_theta=inf"),
        ("bullet", "grid_half_width=inf"),
        ("bullet", "grid_half_width=nan"),
    ],
)
def test_non_finite_settings_exit_2(tmp_path, capsys, command, setting):
    # these once escaped as an uncaught OverflowError (t_max), failed later
    # as a numerical error (exit 3: grid_half_width), or ran (g=inf on a
    # model without g)
    assert run_cli(command, "--set", "n_list=2", "--set", "n=2", "--set", setting,
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    # the grid's own check names its field, half_width
    name = setting.split("=")[0].removeprefix("grid_")
    assert "config error" in err and f"{name} must be finite" in err


@pytest.mark.parametrize("t_max", [math.inf, math.nan])
def test_library_rejects_a_non_finite_t_max(t_max):
    h = core.degenerate_ising(2)
    psi = core.StateVector.uniform_plus(3)
    with pytest.raises(ValueError, match="t_max"):
        entanglement.compute_trace(psi, h, t_max, 0.05)
    with pytest.raises(ValueError, match="t_max"):
        collapse.HistoryTree(psi, h, collapse.ThresholdPolicy(0.5, 0.05), t_max)


def test_numerical_value_error_exits_3(tmp_path, capsys, monkeypatch):
    def fail(psi, basis):
        raise ValueError("branch weights sum to 0.5, not 1")

    monkeypatch.setattr(collapse, "decompose", fail)
    code = run_cli(
        "trajectory", "--set", "model=degenerate_ising", "--set", "n=3",
        "--set", "threshold=0.5", "--set", "t_max=1.0", "--out", str(tmp_path / "o"),
    )
    assert code == 3
    assert "numerical failure: branch weights" in capsys.readouterr().err


def test_accel_delta_below_stencil_floor_exits_2(tmp_path, capsys):
    code = run_cli("trace", "--set", "accel_delta=1e-9", "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "accel_delta" in err


@pytest.mark.parametrize("command", ["trace", "trajectory"])
@pytest.mark.parametrize("delta", ["inf", "1e300"])
def test_accel_delta_whose_square_overflows_exits_2(tmp_path, capsys, command, delta):
    # 1e300 once escaped as an uncaught OverflowError from delta**2, and inf
    # failed later as a numerical error (exit 3)
    code = run_cli(command, "--set", "n_list=2", "--set", "n=2", "--set", "t_max=0.1",
                   "--set", "basis_method=scan", "--set", f"accel_delta={delta}",
                   "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "finite square" in err


def test_accel_delta_at_stencil_floor_runs(tmp_path):
    out = tmp_path / "o"
    code = run_cli("trace", "--set", "n_list=2", "--set", "t_max=0.1",
                   "--set", "accel_delta=1e-8", "--out", str(out))
    assert code == 0
    assert (out / "trace_n2.csv").is_file()


def test_parallel_sweep_leaves_warning_filters_alone(tmp_path):
    # worker threads must not install process-wide warning filters
    import warnings

    before = list(warnings.filters)
    for i in range(3):
        assert run_cli(
            "trace", "--set", "n_list=2,3,4,5", "--set", "t_max=0.4",
            "--jobs", "2", "--out", str(tmp_path / f"o{i}"),
        ) == 0
        assert warnings.filters == before
