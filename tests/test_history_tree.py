"""Trajectories as walks of a memoised history tree.

Oracles (``trajectory_oracles``): ``hook_trajectory``, one run of the
windowed sampling loop whose per-sample hook substituted the collapsed
branch, and ``replay_final_state``, which replayed a trajectory's collapses
on fresh evolutions to reach the revival time.  The hook loop starts a
fresh window every ``floor(4 / (coefficient_scale() * dt))`` samples, where
a walk keeps one window per segment on the dense and diagonal paths and one
per converging Lanczos basis above them, so a walk agrees with the hook
loop to roundoff in the trace and exactly in every event's time, outcome
and draw (the test names keep their old ids).  A walk equals
``run_trajectory`` bit for bit everywhere.  A leaf's final state has to
equal the replay bit for bit on the diagonal model and to roundoff on
``transverse_coupled``, whose collapsed states come from windowed moments
where the replay evolves each stretch in one step.  A revival tree,
which takes no product-state stencils, has to walk as a tree with them
does, bit for bit, but for the acceleration of its product rows.
"""

import logging
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qcollapse import cli, collapse, core, entanglement, experiment
from trajectory_oracles import hook_trajectory, replay_final_state

REVIVAL_POLICY = collapse.ThresholdPolicy(0.5, 0.05)


def revival_case(n_env):
    return (core.StateVector.uniform_plus(n_env + 1), core.degenerate_ising(n_env, 1.0),
            REVIVAL_POLICY, experiment.revival_time(1.0))


def coupled_case(n_env):
    # about 10 events per trajectory
    return (core.StateVector.uniform_plus(n_env + 1), core.transverse_coupled(n_env),
            collapse.ThresholdPolicy(0.5, 0.02), 3.0)


def revival_seeds(seed, trials):
    # the seeds revival_protocol gives its trials
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(trials)]


CASES = {
    "revival-diag": (revival_case(6), revival_seeds(7, 8)),
    "coupled-4": (coupled_case(4), list(range(16))),
    "coupled-8": (coupled_case(8), list(range(16))),
}


def assert_same_trajectory(got, want, seed):
    (trace, events), (want_trace, want_events) = got, want
    for name in ("times", "epsilon", "epsilon_dot", "epsilon_ddot"):
        assert np.array_equal(getattr(trace, name), getattr(want_trace, name)), name
    assert (trace.model_tag, trace.n_env) == (want_trace.model_tag, want_trace.n_env)
    assert collapse.events_to_jsonl(events, seed) == collapse.events_to_jsonl(want_events, seed)


def assert_close_trajectory(got, want):
    # measured over 16 seeds, relative to max(1, |value|): on coupled-8
    # epsilon 1.5e-15, epsilon_dot 8.1e-15 and epsilon_ddot 7.1e-14, Born
    # weights 1.4e-15, energies 3.4e-14 relative; on coupled-4 2.8e-16,
    # 3.3e-15, 1.7e-14, 4.4e-16 and 1.2e-13; on revival-diag 0
    (trace, events), (want_trace, want_events) = got, want
    assert np.array_equal(trace.times, want_trace.times)
    for name in ("epsilon", "epsilon_dot", "epsilon_ddot"):
        a, b = getattr(trace, name), getattr(want_trace, name)
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b))), name
    assert len(events) == len(want_events)
    for e, w in zip(events, want_events):
        assert (e.t_c, e.outcome_index, e.rng_draw) == (w.t_c, w.outcome_index, w.rng_draw)
        assert e.basis.theta == pytest.approx(w.basis.theta, abs=1e-9)
        assert e.basis.phi == pytest.approx(w.basis.phi, abs=1e-9)
        np.testing.assert_allclose(e.born_weights, w.born_weights, rtol=0, atol=1e-12)
        for name in ("e_before", "e_after_ensemble", "e_after_actual"):
            assert getattr(e, name) == pytest.approx(getattr(w, name), rel=1e-12)


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_walk_equals_the_hook_loop_bit_for_bit(case):
    (initial, h, policy, t_max), seeds = CASES[case]
    tree = collapse.HistoryTree(initial, h, policy, t_max)
    walks = {seed: tree.walk(seed) for seed in seeds}
    for seed, (trace, events, _) in walks.items():
        assert_close_trajectory((trace, events), hook_trajectory(initial, h, policy, t_max, seed))
        # and run_trajectory, one walk of a fresh tree
        assert_same_trajectory(
            collapse.run_trajectory(initial, h, policy, t_max, seed), (trace, events), seed
        )
    assert any(events for _, events, _ in walks.values())
    # trials share their prefixes: fewer nodes than events plus roots
    assert tree.nodes < sum(len(events) + 1 for _, events, _ in walks.values())


@pytest.mark.parametrize(
    "case, atol",
    [(revival_case(4), 0.0), (revival_case(6), 0.0),
     (coupled_case(4), 1e-12), (coupled_case(8), 1e-12)],
    ids=["revival-4", "revival-6", "coupled-4", "coupled-8"],
)
def test_leaf_final_state_matches_the_replay(case, atol):
    # measured: 0.0 on the diagonal model, about 3e-15 and 7e-15 on
    # transverse_coupled at n = 4 and 8
    initial, h, policy, t_max = case
    tree = collapse.HistoryTree(initial, h, policy, t_max)
    for seed in range(6):
        _, events, leaf = tree.walk(seed)
        assert events
        got = tree.final_state(leaf)
        assert tree.final_state(leaf) is got  # evolved once, then kept
        want = replay_final_state(initial, h, events, t_max)
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= atol


def test_final_state_is_only_for_leaves():
    tree = collapse.HistoryTree(*revival_case(4))
    tree.walk(0)
    with pytest.raises(ValueError, match="leaf"):
        tree.final_state(tree._root)


def test_revival_trials_make_a_three_node_tree():
    # every trial collapses once, with outcome weights 1/2: the root and
    # one leaf per outcome
    trees = {6: experiment.revival_tree(6, 1.0, REVIVAL_POLICY)}
    report = experiment.revival_protocol(6, 1.0, REVIVAL_POLICY, trials=8, seed=7, trees=trees)
    assert report.collapse_events_before_revival == 1.0
    assert trees[6].nodes == 3


def test_revival_report_equals_the_replay_route():
    trials, seed = 8, 7
    report = experiment.revival_protocol(4, 1.0, REVIVAL_POLICY, trials=trials, seed=seed)
    initial, h, policy, t_rev = revival_case(4)
    fidelities, p_minus, counts = [], [], []
    for trial_seed in revival_seeds(seed, trials):
        _, events = hook_trajectory(initial, h, policy, t_rev, trial_seed)
        final = replay_final_state(initial, h, events, t_rev)
        fidelities.append(initial.fidelity(final))
        p_minus.append(experiment.minus_probability(final))
        counts.append(len(events))
    assert report.fidelity_at_revival == float(np.mean(fidelities))
    assert report.p_minus == float(np.mean(p_minus))
    assert report.collapse_events_before_revival == float(np.mean(counts))


@pytest.mark.parametrize("n_env", [4, 6])
def test_revival_tree_walks_equal_a_tree_with_stencils(n_env):
    # revival_tree takes no product-state stencils: every walk has to equal
    # the walk of a tree with them, bit for bit, but for the acceleration of
    # product rows (every sample after the collapse), which keeps +inf
    lean = experiment.revival_tree(n_env, 1.0, REVIVAL_POLICY)
    full = collapse.HistoryTree(*revival_case(n_env), model_tag="degenerate_ising")
    assert (lean.stencils, full.stencils) == (False, True)
    for seed in revival_seeds(7, 8) + list(range(8)):
        (trace, events, leaf), (want, want_events, want_leaf) = lean.walk(seed), full.walk(seed)
        for name in ("times", "epsilon", "epsilon_dot"):
            assert np.array_equal(getattr(trace, name), getattr(want, name)), name
        # times, bases, Born weights, outcomes, energies and draws
        assert collapse.events_to_jsonl(events, seed) == collapse.events_to_jsonl(want_events, seed)
        assert np.array_equal(lean.final_state(leaf).amplitudes,
                              full.final_state(want_leaf).amplitudes)
        product = want.epsilon < entanglement.PRODUCT_ENTROPY
        assert product.sum() > len(trace) // 2
        differ = trace.epsilon_ddot != want.epsilon_ddot
        assert np.array_equal(differ, product)
        assert np.all(trace.epsilon_ddot[product] == math.inf)
    assert lean.nodes == full.nodes == 3


def test_revival_rejects_a_tree_with_other_settings():
    trees = {4: experiment.revival_tree(4, 1.0, REVIVAL_POLICY)}
    other = collapse.ThresholdPolicy(0.4, 0.05)
    with pytest.raises(ValueError, match="other settings"):
        experiment.revival_protocol(4, 1.0, other, trials=2, trees=trees)
    with pytest.raises(ValueError, match="other settings"):
        experiment.critical_n_sweep((4,), 2.0, REVIVAL_POLICY, trees=trees)


def test_flat_scan_mid_trajectory_skips_its_event(monkeypatch, caplog):
    # the second crossing's scan is made flat: the trajectory records no
    # event there and carries on in the same window, as the hook loop did
    # (to roundoff, as in test_every_walk_equals_the_hook_loop_bit_for_bit)
    initial, h, policy, t_max = coupled_case(4)
    determine = collapse.determine_basis
    crossings = []

    def flat_second(state, *args):
        crossings.append(state)
        if len(crossings) == 2:
            return None, "scan", False
        return determine(state, *args)

    monkeypatch.setattr(collapse, "determine_basis", flat_second)
    with caplog.at_level(logging.WARNING, logger="qcollapse.collapse"):
        got = collapse.run_trajectory(initial, h, policy, t_max, seed=3)
    assert "flat basis landscape" in caplog.text
    skipped_at = len(crossings)
    crossings.clear()
    want = hook_trajectory(initial, h, policy, t_max, seed=3)
    assert len(crossings) == skipped_at
    assert_close_trajectory(got, want)
    trace, events = got
    # one event before the skipped crossing and more after it
    assert len(events) >= 3
    first, second = events[0].t_c, events[1].t_c
    skipped = [t for t in trace.times if first < t < second and
               trace.epsilon_dot[int(round(t / policy.check_interval))] >= 0.5]
    assert skipped


def test_revival_payloads_do_not_depend_on_jobs(tmp_path):
    # n_list holds cfg.n and a repeated size: both size-6 sweep rows walk the
    # protocol's tree (the first trial's seed), from two threads at --jobs 2
    payloads = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        argv = ["revival", "--set", "n=6", "--set", "n_list=4,6,6", "--set", "threshold=0.5",
                "--set", "check_interval=0.05", "--set", "trials=8", "--set",
                "model=degenerate_ising", "--jobs", jobs, "--out", str(out)]
        assert cli.main(argv) == 0
        payloads.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(payloads[0]) == ["revival.json", "revival_sweep.csv"]
    assert payloads[0] == payloads[1]
    rows = payloads[0]["revival_sweep.csv"].decode().splitlines()[2:]
    assert len(rows) == 3 and rows[1] == rows[2]


def test_concurrent_walks_build_each_node_once():
    # more threads than cores, switching often: a node built twice, or a
    # child lost between two walkers, would change the count or a walk
    initial, h, policy, _ = coupled_case(2)
    seeds = list(range(32))
    serial = collapse.HistoryTree(initial, h, policy, 1.0)
    want = [collapse.events_to_jsonl(serial.walk(s)[1], s) for s in seeds]
    shared = collapse.HistoryTree(initial, h, policy, 1.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(shared.walk, s) for s in seeds]
            got = [collapse.events_to_jsonl(f.result(timeout=60)[1], s)
                   for f, s in zip(futures, seeds)]
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert shared.nodes == serial.nodes > 2


def test_sweep_row_at_the_protocol_size_is_its_first_trial():
    trees = {6: experiment.revival_tree(6, 1.0, REVIVAL_POLICY)}
    experiment.revival_protocol(6, 1.0, REVIVAL_POLICY, trials=8, seed=7, trees=trees)
    built = trees[6].nodes
    (row,) = experiment.critical_n_sweep((6,), 1.0, REVIVAL_POLICY, seed=7, trees=trees)
    assert trees[6].nodes == built  # the walk only read the tree
    trace, events = hook_trajectory(*revival_case(6), revival_seeds(7, 1)[0])
    final = replay_final_state(*revival_case(6)[:2], events, experiment.revival_time(1.0))
    assert row == experiment.SweepRow(6, float(np.max(trace.epsilon_dot)), len(events),
                                      experiment.minus_probability(final))


def test_history_tree_validates_its_settings():
    initial, h, policy, _ = revival_case(2)
    with pytest.raises(ValueError, match="t_max"):
        collapse.HistoryTree(initial, h, policy, 0.0)
    with pytest.raises(ValueError, match="basis method"):
        collapse.HistoryTree(initial, h, policy, 1.0, basis_method="bogus")
    assert collapse.HistoryTree(initial, h, policy, 1.0).steps == 20
