"""Independent references and the correctness gate of every workload.

The references are built here, outside the timed region, without the
program's numerics: Pauli strings become ``scipy.sparse`` Kronecker
products, states are propagated with ``scipy.sparse.linalg.expm_multiply``
(neither the program's cached eigh nor its RK4), and the system qubit's
entropy and entropy speed come from its own 2x2 reduced state.  Where a check
needs a quantity only the package defines (the scan objective, the
cross-term energy), it calls the public function on the reference state.

A :class:`Check` passes when ``err <= tol``; ``ref_err`` reports the largest
``err / tol`` of a run, so 1 is the edge of the gate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from workloads import Input, Workload, csv_rows

# entropy (nats): stepping and roundoff in the program stay near 1e-13
ENTROPY_TOL = 1e-9
# entropy speed (nats per unit time): admits the Richardson finite-difference
# error of the default fd_step=1e-4, which peaks near product states
SPEED_TOL = 1e-6
# the speed is compared only where the reference reduced state's smaller
# eigenvalue exceeds this; nearer to a product state the finite difference is
# the definition and no analytic reference exists
SPEED_MIN_EIGENVALUE = 1e-6
# energies and Born weights, relative to max(1, |value|)
ENERGY_TOL = 1e-9
WEIGHT_TOL = 1e-9
# the scanned basis may beat a rival basis by any margin, and lose to it only
# by the stencil's roundoff, relative to max(1, |objective|)
OBJECTIVE_TOL = 1e-6
# revival read-out: Nelder-Mead leaves the degenerate-model scan about 3e-3
# rad off the Z pole, which moves p_minus and the Born weights by ~1e-6; a
# wrong basis moves them by O(1)
REVIVAL_TOL = 1e-4

PAULI = {
    "I": sparse.identity(2, dtype=complex, format="csr"),
    "X": sparse.csr_matrix(np.array([[0, 1], [1, 0]], dtype=complex)),
    "Z": sparse.csr_matrix(np.array([[1, 0], [0, -1]], dtype=complex)),
}


@dataclass(frozen=True)
class Check:
    name: str
    err: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.err <= self.tol)


# -- reference physics ------------------------------------------------------

def pauli_string(letters: dict, num_sites: int) -> sparse.csr_matrix:
    """Kronecker product with ``letters[site]`` on the given sites (site 0 first)."""
    out = sparse.identity(1, dtype=complex, format="csr")
    for site in range(num_sites):
        out = sparse.kron(out, PAULI[letters.get(site, "I")], format="csr")
    return out


def hamiltonian(model: str, n_env: int, g: float = 1.0) -> sparse.csr_matrix:
    """``transverse_coupled``: X_0 + sum_k (Z_0 Z_k + X_k);
    ``degenerate_ising``: g sum_k Z_0 Z_k."""
    n = n_env + 1
    h = sparse.csr_matrix((2**n, 2**n), dtype=complex)
    for k in range(1, n):
        h = h + (g if model == "degenerate_ising" else 1.0) * pauli_string({0: "Z", k: "Z"}, n)
    if model == "transverse_coupled":
        for k in range(n):
            h = h + pauli_string({k: "X"}, n)
    return h


def product_state(sys_theta: float, env_theta: float, n_env: int) -> np.ndarray:
    def spin(theta):
        return np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)

    psi = spin(sys_theta)
    for _ in range(n_env):
        psi = np.kron(psi, spin(env_theta))
    return psi / np.linalg.norm(psi)


def reduced_state(psi: np.ndarray) -> np.ndarray:
    m = psi.reshape(2, -1)
    return m @ m.conj().T


def entropy_of(lams: np.ndarray) -> float:
    lams = lams[lams > 1e-300]
    return float(-np.sum(lams * np.log(lams)))


def entropy(psi: np.ndarray) -> float:
    return entropy_of(np.linalg.eigvalsh(reduced_state(psi)))


def entropy_speed(psi: np.ndarray, hpsi: np.ndarray) -> tuple[float, float]:
    """(dS/dt, smaller eigenvalue) from rho and rho_dot = Tr_env(-i[H, |psi><psi|])."""
    m, phi = psi.reshape(2, -1), hpsi.reshape(2, -1)
    rho_dot = -1j * (phi @ m.conj().T - m @ phi.conj().T)
    lams, vecs = np.linalg.eigh(reduced_state(psi))
    lam_dots = np.real(np.einsum("ik,ij,jk->k", vecs.conj(), rho_dot, vecs))
    return float(-np.sum(lam_dots * np.log(np.maximum(lams, 1e-300)))), float(lams[0])


def evolve(h: sparse.csr_matrix, psi: np.ndarray, t: float) -> np.ndarray:
    if t == 0.0:
        return psi
    return expm_multiply(-1j * t * h, psi)


def closed_form_revival_entropy(n_env: int, g: float, t: float) -> float:
    lam = 0.5 * (1.0 - abs(math.cos(2.0 * g * t)) ** n_env)
    return entropy_of(np.array([lam, 1.0 - lam]))


def sample_times(t_max: float, dt: float, rounding: str) -> np.ndarray:
    """The sampling grid of ``compute_trace`` (round) or ``run_trajectory`` (ceil)."""
    steps = int(round(t_max / dt)) if rounding == "round" else int(math.ceil(t_max / dt - 1e-12))
    return np.arange(steps + 1) * dt


def _column(rows: list[dict], key: str) -> np.ndarray:
    return np.array([float(r[key]) for r in rows])


def _rel(x: float) -> float:
    return max(1.0, abs(x))


# -- per-workload gates ------------------------------------------------------

def check_trace(workload: Workload, inp: Input, files: dict) -> list[Check]:
    """Entropy and speed columns against an expm_multiply evolution."""
    n = int(workload.settings["n_list"])
    rows = csv_rows(files[f"trace_n{n}.csv"])
    times = sample_times(float(workload.settings["t_max"]),
                         float(workload.settings["check_interval"]), "round")
    checks = [Check("trace.samples", abs(len(rows) - times.size), 0)]
    if len(rows) != times.size:
        return checks
    h = hamiltonian(workload.settings["model"], n)
    states = expm_multiply(-1j * h, product_state(inp.sys_theta, inp.env_theta, n),
                           start=0.0, stop=float(times[-1]), num=times.size, endpoint=True)
    s_ref = np.array([entropy(s) for s in states])
    checks.append(Check("trace.times", float(np.max(np.abs(_column(rows, "t") - times))), 1e-12))
    checks.append(Check("trace.entropy",
                        float(np.max(np.abs(_column(rows, "epsilon") - s_ref))), ENTROPY_TOL))
    speed_err = 0.0
    for row, psi in zip(rows, states):
        ref, lam_min = entropy_speed(psi, h @ psi)
        if lam_min > SPEED_MIN_EIGENVALUE:
            speed_err = max(speed_err, abs(float(row["epsilon_dot"]) - ref))
    checks.append(Check("trace.speed", speed_err, SPEED_TOL))
    return checks


def check_trajectory(workload: Workload, inp: Input, files: dict, qc) -> list[Check]:
    """Replay the trajectory on the reference engine and audit every event.

    Between events the reference evolves its own state; at each event it
    checks the energies and Born weights, the identity ``energy_delta ==
    e_before - e_after_ensemble``, and that the scanned basis's objective
    (the public ``mean_entangling_acceleration``) is no worse than at the six
    axis bases or the collapse-operator basis.  It then collapses onto the
    logged outcome and goes on.
    """
    n = int(workload.settings["n"])
    dt = float(workload.settings["check_interval"])
    delta = float(workload.settings["accel_delta"])
    rows = csv_rows(files["trajectory_trace.csv"])
    events = [json.loads(line) for line in files["trajectory_events.jsonl"].splitlines()]
    times = sample_times(float(workload.settings["t_max"]), dt, "ceil")
    checks = [Check("trajectory.samples", abs(len(rows) - times.size), 0)]
    if len(rows) != times.size:
        return checks

    h = hamiltonian(workload.settings["model"], n)
    h_prog = qc.core.build_hamiltonian(workload.settings["model"], n_env=n)
    axes = [(0.0, 0.0), (math.pi, 0.0)] + [(math.pi / 2, k * math.pi / 2) for k in range(4)]
    by_time = {round(e["t_c"] / dt): e for e in events}
    psi = product_state(inp.sys_theta, inp.env_theta, n)
    t_prev = 0.0
    errs = {"entropy": 0.0, "energy": 0.0, "weights": 0.0, "identity": 0.0, "objective": 0.0}
    for k, t in enumerate(times):
        psi = evolve(h, psi, float(t) - t_prev)
        t_prev = float(t)
        errs["entropy"] = max(errs["entropy"], abs(float(rows[k]["epsilon"]) - entropy(psi)))
        event = by_time.get(k)
        if event is None:
            continue
        state = qc.core.StateVector(psi, normalize=True)
        basis = qc.collapse.CandidateBasis(event["theta"], event["phi"])
        rows_ab = basis.state_pair()
        branches = [np.kron(a, a.conj() @ psi.reshape(2, -1)) for a in rows_ab]
        probs = np.array([np.vdot(b, b).real for b in branches])
        e_before = float(np.vdot(psi, h @ psi).real)
        e_after = sum(float(np.vdot(b, h @ b).real) for b in branches)
        errs["energy"] = max(errs["energy"],
                             abs(event["e_before"] - e_before) / _rel(e_before),
                             abs(event["e_after_ensemble"] - e_after) / _rel(e_after))
        errs["weights"] = max(errs["weights"], float(np.max(np.abs(probs - event["weights"]))))

        decomp = qc.collapse.decompose(state, basis)
        delta_e = qc.energy.energy_delta(decomp, h_prog)
        errs["identity"] = max(errs["identity"], abs(
            delta_e - (event["e_before"] - event["e_after_ensemble"])) / _rel(e_before))

        def objective(b):
            return qc.collapse.mean_entangling_acceleration(qc.collapse.decompose(state, b),
                                                            h_prog, delta)

        scanned = objective(basis)
        rivals = [qc.collapse.CandidateBasis(th, ph) for th, ph in axes]
        op = qc.collapse.collapse_operator(h_prog, psi=state)
        if not op.degenerate:
            rivals.append(op.basis)
        best_rival = min(objective(b) for b in rivals)
        errs["objective"] = max(errs["objective"], (scanned - best_rival) / _rel(scanned))

        chosen = branches[event["outcome"]]
        psi = chosen / np.linalg.norm(chosen)
    checks.append(Check("trajectory.event_times", abs(len(by_time) - len(events)), 0))
    checks.append(Check("trajectory.entropy", errs["entropy"], ENTROPY_TOL))
    checks.append(Check("trajectory.energy", errs["energy"], ENERGY_TOL))
    checks.append(Check("trajectory.weights", errs["weights"], WEIGHT_TOL))
    checks.append(Check("trajectory.energy_identity", errs["identity"], ENERGY_TOL))
    checks.append(Check("trajectory.scan_objective", max(errs["objective"], 0.0), OBJECTIVE_TOL))
    return checks


def reference_argv(workload: Workload, inp: Input, out_dir) -> list[str] | None:
    """An extra, untimed CLI command whose outputs a workload's gate needs.

    The revival payload holds no entropy trace, so the revival gate runs one
    trajectory of the same model and policy from |+>^(N+1) to the revival
    time and checks its pre-event entropy against the closed form.
    """
    if workload.command != "revival":
        return None
    keep = ("model", "n", "g", "threshold", "check_interval")
    settings = {key: workload.settings[key] for key in keep}
    settings["t_max"] = repr(2.0 * math.pi / float(workload.settings["g"]))
    reference = Workload(f"{workload.name}-reference", "trajectory", settings)
    return reference.argv(Input(inp.index, inp.seed, math.pi / 2, math.pi / 2), out_dir)


def check_revival(workload: Workload, inp: Input, files: dict, ref_files: dict) -> list[Check]:
    """p_minus is 1/2 wherever a collapse happened; pre-event entropy is closed form."""
    threshold = float(workload.settings["threshold"])
    report = json.loads(files["revival.json"])
    p_err = abs(report["p_minus"] - (0.5 if report["collapse_events_before_revival"] > 0 else 0.0))
    sweep_err = 0.0
    mismatches = 0
    for row in csv_rows(files["revival_sweep.csv"]):
        events = int(row["events"])
        sweep_err = max(sweep_err, abs(float(row["p_minus"]) - (0.5 if events > 0 else 0.0)))
        mismatches += (events > 0) != (float(row["max_epsilon_dot"]) >= threshold)
    checks = [
        Check("revival.p_minus", p_err, REVIVAL_TOL),
        Check("revival.sweep_p_minus", sweep_err, REVIVAL_TOL),
        Check("revival.sweep_crossings", mismatches, 0),
    ]

    n = int(workload.settings["n"])
    g = float(workload.settings["g"])
    rows = csv_rows(ref_files["trajectory_trace.csv"])
    events = [json.loads(line) for line in ref_files["trajectory_events.jsonl"].splitlines()]
    t_first = events[0]["t_c"] if events else math.inf
    ent_err = max(abs(float(r["epsilon"]) - closed_form_revival_entropy(n, g, float(r["t"])))
                  for r in rows if float(r["t"]) <= t_first)
    w_err = max(abs(w - 0.5) for w in events[0]["weights"]) if events else 0.0
    checks.append(Check("revival.pre_event_entropy", ent_err, ENTROPY_TOL))
    checks.append(Check("revival.first_event_weights", w_err, REVIVAL_TOL))
    return checks


def check_outputs(workload: Workload, inp: Input, files: dict, qc, ref_files=None) -> list[Check]:
    """Run the workload's gate on one command's payload files."""
    try:
        if workload.command == "trace":
            return check_trace(workload, inp, files)
        if workload.command == "trajectory":
            return check_trajectory(workload, inp, files, qc)
        if workload.command == "revival":
            return check_revival(workload, inp, files, ref_files)
    except (KeyError, ValueError, IndexError, json.JSONDecodeError):
        return [Check(f"{workload.name}.payload_readable", math.inf, 1.0)]
    raise ValueError(f"no gate for command {workload.command!r}")
