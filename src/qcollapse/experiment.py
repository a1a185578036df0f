"""Revival-based verification protocol for the uniform-coupling spin model.

Under uniform Z0-Zk couplings the evolution from an all-|+> product state
has a closed form: two branches labeled by the system qubit, each branch a
product of single-spin superpositions with opposite phase winding.  The
whole register revives exactly at t = 2 pi / g independently of the
environment size, while the entangling speed grows with it.  Measuring the
system in the |+>/|-> basis at the revival therefore separates purely
unitary histories (always |+>) from histories that collapsed in between
(|-> appears with nonzero probability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import collapse, core, entanglement


def revival_time(g: float) -> float:
    if g <= 0.0:
        raise ValueError("coupling g must be positive")
    return 2.0 * math.pi / g


def analytic_state(n_env: int, g: float, t: float) -> core.StateVector:
    """Closed-form evolved state of the uniform-coupling model at time t."""
    if n_env < 1:
        raise ValueError("n_env must be >= 1")
    if g <= 0.0:
        raise ValueError("coupling g must be positive")
    up = np.array([np.exp(-1j * g * t), np.exp(1j * g * t)], dtype=complex) / math.sqrt(2.0)
    down = up.conj()
    branch_up = np.array([1.0, 0.0], dtype=complex)
    branch_down = np.array([0.0, 1.0], dtype=complex)
    for _ in range(n_env):
        branch_up = np.kron(branch_up, up)
        branch_down = np.kron(branch_down, down)
    amps = (branch_up + branch_down) / math.sqrt(2.0)
    return core.StateVector(amps)


def reduced_eigenvalues_analytic(n_env: int, g: float, t: float) -> tuple[float, float]:
    """Closed-form eigenvalues of the system qubit's reduced state:
    (1 -+ |cos(2 g t)|^N) / 2."""
    overlap = abs(math.cos(2.0 * g * t)) ** n_env
    return 0.5 * (1.0 - overlap), 0.5 * (1.0 + overlap)


def minus_probability(psi: core.StateVector) -> float:
    """<-|rho_A|-> of the system qubit."""
    rho = core.partial_trace_system(psi).entries
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    return float(np.real(minus.conj() @ rho @ minus))


@dataclass(frozen=True)
class RevivalReport:
    n_env: int
    g: float
    t_rev: float
    fidelity_at_revival: float
    p_plus: float
    p_minus: float
    collapse_events_before_revival: float
    trials: int

    def __post_init__(self):
        if abs(self.p_plus + self.p_minus - 1.0) > 1e-10:
            raise ValueError("p_plus + p_minus must be 1")
        if not -1e-12 <= self.fidelity_at_revival <= 1.0 + 1e-12:
            raise ValueError("fidelity out of [0, 1]")

    def to_json_dict(self) -> dict:
        return {
            "n_env": self.n_env,
            "g": self.g,
            "t_rev": self.t_rev,
            "fidelity_at_revival": self.fidelity_at_revival,
            "p_plus": self.p_plus,
            "p_minus": self.p_minus,
            "collapse_events_before_revival": self.collapse_events_before_revival,
            "trials": self.trials,
        }


def revival_tree(
    n_env: int,
    g: float,
    policy: collapse.ThresholdPolicy,
    basis_method: str = "auto",
    scan_settings: collapse.ScanSettings | None = None,
) -> collapse.HistoryTree:
    """The trajectories of the uniform-coupling model from |+>^(N+1) to the
    revival time, as one :class:`collapse.HistoryTree`.

    Its consumers (:func:`revival_protocol`, :func:`critical_n_sweep`) read
    the speed, the events, the draws and the leaves' final states, never
    the acceleration, so the tree takes no product-state stencils: every
    sample after a collapse is an exact product state here, whose
    acceleration stays the closed form's +inf."""
    return collapse.HistoryTree(
        core.StateVector.uniform_plus(n_env + 1),
        core.degenerate_ising(n_env, g),
        policy,
        revival_time(g),
        basis_method,
        scan_settings,
        model_tag="degenerate_ising",
        stencils=False,
    )


def _tree_for(trees, n_env, g, policy, basis_method, scan_settings) -> collapse.HistoryTree:
    """The tree of ``n_env`` from ``trees`` (a mapping from sizes to trees
    built by :func:`revival_tree` with the same settings), or a new one."""
    tree = (trees or {}).get(n_env)
    if tree is None:
        return revival_tree(n_env, g, policy, basis_method, scan_settings)
    same = (tree.h.num_sites, tree.t_max, tree.policy, tree.basis_method, tree.scan_settings)
    want = (n_env + 1, revival_time(g), policy, basis_method,
            scan_settings or collapse.ScanSettings())
    if same != want:
        raise ValueError(f"the history tree given for n_env={n_env} has other settings")
    return tree


def revival_protocol(
    n_env: int,
    g: float,
    policy: collapse.ThresholdPolicy,
    trials: int = 1,
    seed: int = 0,
    basis_method: str = "auto",
    scan_settings: collapse.ScanSettings | None = None,
    sample_outcomes: bool = False,
    trees: dict | None = None,
) -> RevivalReport:
    """Run trajectories to the revival time and read out the system qubit.

    Every trial walks one :class:`collapse.HistoryTree` (``trees[n_env]``
    when given, see :func:`revival_tree`), so the trials' shared outcome
    prefixes are evolved and scanned once, and each trial's final state is
    its leaf's collapsed branch evolved once to the revival time.
    ``p_minus`` defaults to the exact Born probability from the final
    reduced state, averaged over trials; with ``sample_outcomes`` each
    trial instead contributes one Bernoulli click.  Trials use independent
    spawned RNG streams, so the report is reproducible for a given seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tree = _tree_for(trees, n_env, g, policy, basis_method, scan_settings)
    seeds = np.random.SeedSequence(seed).spawn(trials)
    click_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed).spawn(trials + 1)[-1]))

    fidelities = np.empty(trials)
    p_minus_vals = np.empty(trials)
    event_counts = np.empty(trials)
    for i in range(trials):
        _, events, leaf = tree.walk(int(seeds[i].generate_state(1)[0]))
        final = tree.final_state(leaf)
        fidelities[i] = tree.initial.fidelity(final)
        p = minus_probability(final)
        if sample_outcomes:
            p_minus_vals[i] = 1.0 if click_rng.random() < p else 0.0
        else:
            p_minus_vals[i] = p
        event_counts[i] = len(events)

    p_minus = float(np.mean(p_minus_vals))
    return RevivalReport(
        n_env=n_env,
        g=g,
        t_rev=tree.t_max,
        fidelity_at_revival=float(np.mean(fidelities)),
        p_plus=1.0 - p_minus,
        p_minus=p_minus,
        collapse_events_before_revival=float(np.mean(event_counts)),
        trials=trials,
    )


@dataclass(frozen=True)
class SweepRow:
    n_env: int
    max_epsilon_dot: float
    events: int
    p_minus: float


def critical_n_sweep(
    n_values,
    g: float,
    policy: collapse.ThresholdPolicy,
    seed: int = 0,
    basis_method: str = "auto",
    scan_settings: collapse.ScanSettings | None = None,
    trees: dict | None = None,
) -> list[SweepRow]:
    """Event counts and peak speeds across environment sizes.

    The first size with any event marks where the configured threshold
    starts to fire; the full table is reported rather than a single
    crossover because the threshold itself is a free parameter.  Each size
    walks its tree in ``trees`` (see :func:`revival_tree`) or a new one,
    which repeats of the size share.
    """
    n_values = list(n_values)
    trees = dict(trees or {})
    rows = []
    seeds = np.random.SeedSequence(seed).spawn(len(n_values))
    for i, n in enumerate(n_values):
        tree = trees[n] = _tree_for(trees, n, g, policy, basis_method, scan_settings)
        trace, events, leaf = tree.walk(int(seeds[i].generate_state(1)[0]))
        rows.append(
            SweepRow(
                n_env=n,
                max_epsilon_dot=entanglement.max_speed(trace),
                events=len(events),
                p_minus=minus_probability(tree.final_state(leaf)),
            )
        )
    return rows
