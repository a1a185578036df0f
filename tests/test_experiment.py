import math

import numpy as np
import pytest

from qcollapse import collapse, core, experiment


def test_analytic_state_at_time_zero_is_all_plus():
    psi = experiment.analytic_state(3, 1.0, 0.0)
    np.testing.assert_allclose(
        psi.amplitudes, core.StateVector.uniform_plus(4).amplitudes, atol=1e-14
    )


def test_analytic_state_revives():
    for n in (2, 5):
        psi0 = experiment.analytic_state(n, 1.0, 0.0)
        psi_rev = experiment.analytic_state(n, 1.0, experiment.revival_time(1.0))
        assert psi0.fidelity(psi_rev) == pytest.approx(1.0, abs=1e-12)


def test_analytic_state_matches_numeric_evolution(rng):
    for _ in range(10):
        n = int(rng.integers(1, 7))
        g = float(rng.uniform(0.3, 2.0))
        t = float(rng.uniform(0.0, 2.0 * math.pi / g))
        closed = experiment.analytic_state(n, g, t)
        numeric = core.evolve(
            core.StateVector.uniform_plus(n + 1), core.degenerate_ising(n, g), t
        )
        # amplitude-level agreement, global phase included
        assert np.linalg.norm(closed.amplitudes - numeric.amplitudes) < 1e-10


def test_analytic_state_validation():
    with pytest.raises(ValueError):
        experiment.analytic_state(0, 1.0, 0.1)
    with pytest.raises(ValueError):
        experiment.analytic_state(2, -1.0, 0.1)
    with pytest.raises(ValueError):
        experiment.revival_time(0.0)


def test_minus_probability_reads_reduced_state():
    plus = core.StateVector.uniform_plus(3)
    assert experiment.minus_probability(plus) == pytest.approx(0.0, abs=1e-12)
    flipped = core.StateVector.from_site_states(
        [np.array([1.0, -1.0]) / math.sqrt(2), np.array([1.0, 0.0])]
    )
    assert experiment.minus_probability(flipped) == pytest.approx(1.0, abs=1e-12)


def test_revival_without_collapse_certain_plus():
    policy = collapse.ThresholdPolicy(math.inf, 0.1)
    report = experiment.revival_protocol(4, 1.0, policy, trials=1, seed=2)
    assert report.p_minus == pytest.approx(0.0, abs=1e-9)
    assert report.fidelity_at_revival == pytest.approx(1.0, abs=1e-8)
    assert report.collapse_events_before_revival == 0


def test_revival_with_collapse_disrupts_plus_outcome():
    policy = collapse.ThresholdPolicy(0.5, 0.05)
    report = experiment.revival_protocol(6, 1.0, policy, trials=25, seed=7)
    assert report.collapse_events_before_revival >= 1
    assert report.p_minus > 0.01
    assert report.p_plus + report.p_minus == pytest.approx(1.0, abs=1e-12)


def test_revival_sampled_clicks_mode():
    policy = collapse.ThresholdPolicy(0.5, 0.05)
    report = experiment.revival_protocol(
        4, 1.0, policy, trials=20, seed=3, sample_outcomes=True
    )
    # every trial collapses once, leaving p = 1/2 per click
    assert 0.05 <= report.p_minus <= 0.95
    assert float(report.p_minus * 20).is_integer()


def test_revival_is_reproducible():
    policy = collapse.ThresholdPolicy(0.5, 0.05)
    a = experiment.revival_protocol(4, 1.0, policy, trials=2, seed=9)
    b = experiment.revival_protocol(4, 1.0, policy, trials=2, seed=9)
    assert a == b


def test_critical_n_sweep_monotone_speed_and_events():
    policy = collapse.ThresholdPolicy(1.2, 0.05)
    rows = experiment.critical_n_sweep((2, 4, 6), 1.0, policy, seed=5)
    speeds = [r.max_epsilon_dot for r in rows]
    assert all(b >= a for a, b in zip(speeds, speeds[1:]))
    events = [r.events for r in rows]
    # the threshold sits inside the swept speed range, so the first firing
    # size is well defined and later sizes keep firing
    assert events[0] == 0 or all(e >= 1 for e in events)
    assert any(e >= 1 for e in events)
    first = next(r.n_env for r in rows if r.events >= 1)
    assert all(r.events >= 1 for r in rows if r.n_env >= first)


def test_critical_n_sweep_accepts_a_generator():
    policy = collapse.ThresholdPolicy(0.5, 0.05)
    rows = experiment.critical_n_sweep((n for n in (2, 3)), 1.0, policy, seed=5)
    assert len(rows) == 2
    assert rows == experiment.critical_n_sweep((2, 3), 1.0, policy, seed=5)
