import math

import numpy as np
import pytest

from propagation_oracles import richardson_speed
from qcollapse import collapse, core, entanglement


def random_state(rng, num_sites):
    v = rng.normal(size=2**num_sites) + 1j * rng.normal(size=2**num_sites)
    return core.StateVector(v / np.linalg.norm(v))


def random_basis(rng):
    return collapse.CandidateBasis(
        math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
    )


def tilted_initial(n, theta_env):
    sites = [core.spin_state(math.pi / 2)] + [core.spin_state(theta_env)] * n
    return core.StateVector.from_site_states(sites)


def haar_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


def test_candidate_basis_orthonormal(rng):
    for _ in range(20):
        basis = random_basis(rng)
        rows = basis.state_pair()
        gram = rows @ rows.conj().T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)


def test_basis_axis_distance_identifies_pairs():
    z = collapse.CandidateBasis(0.0, 0.0)
    z_flipped = collapse.CandidateBasis(math.pi, 1.3)
    x = collapse.CandidateBasis(math.pi / 2, 0.0)
    assert collapse.basis_axis_distance(z, z_flipped) == pytest.approx(0.0, abs=1e-12)
    assert collapse.basis_axis_distance(z, x) == pytest.approx(math.pi / 2, abs=1e-12)


def test_canonical_angles_folding():
    theta, phi = collapse.canonical_angles(-0.2, 0.5)
    assert theta == pytest.approx(0.2)
    assert phi == pytest.approx((0.5 + math.pi) % (2 * math.pi))
    theta, phi = collapse.canonical_angles(math.pi + 0.3, 0.0)
    assert theta == pytest.approx(math.pi - 0.3)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_decompose_product_state_single_branch(rng):
    env = rng.normal(size=8) + 1j * rng.normal(size=8)
    env /= np.linalg.norm(env)
    psi = core.StateVector(np.kron(np.array([1.0, 0.0]), env))
    d = collapse.decompose(psi, collapse.CandidateBasis(0.0, 0.0))
    np.testing.assert_allclose(d.weights, [1.0, 0.0], atol=1e-12)
    assert d.zero_weight == (False, True)


def test_decompose_bell_state():
    bell = core.StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
    d = collapse.decompose(bell, collapse.CandidateBasis(0.0, 0.0))
    np.testing.assert_allclose(d.weights, [2**-0.5, 2**-0.5], atol=1e-12)
    overlap = abs(np.vdot(d.env_states[0], d.env_states[1]))
    assert overlap == pytest.approx(0.0, abs=1e-12)


def test_decompose_uniform_coupling_branch_overlap():
    from qcollapse import experiment

    psi = experiment.analytic_state(2, 1.0, math.pi / 8)
    d = collapse.decompose(psi, collapse.CandidateBasis(0.0, 0.0))
    np.testing.assert_allclose(d.weights, [2**-0.5, 2**-0.5], atol=1e-10)
    overlap = abs(np.vdot(d.env_states[0], d.env_states[1]))
    assert overlap == pytest.approx(0.5, abs=1e-10)  # cos(pi/4)^2


def test_reconstruction_property(rng):
    for num_sites in (2, 3, 4):
        for _ in range(10):
            psi = random_state(rng, num_sites)
            d = collapse.decompose(psi, random_basis(rng))
            err = np.max(np.abs(d.reconstruct() - psi.amplitudes))
            assert err < 1e-10


def test_born_weights_phase_invariant(rng):
    psi = random_state(rng, 3)
    basis = random_basis(rng)
    probs = collapse.decompose(psi, basis).born_probabilities()
    shifted = core.StateVector(np.exp(1.2j) * psi.amplitudes)
    probs2 = collapse.decompose(shifted, basis).born_probabilities()
    np.testing.assert_allclose(probs, probs2, atol=1e-12)


# ---------------------------------------------------------------------------
# mean branch acceleration and the basis scan
# ---------------------------------------------------------------------------


def test_mean_acceleration_zero_hamiltonian(rng):
    h = core.PauliTermSum([], num_sites=3)
    d = collapse.decompose(random_state(rng, 3), random_basis(rng))
    assert collapse.mean_entangling_acceleration(d, h) == pytest.approx(0.0, abs=1e-9)


def test_mean_acceleration_stationary_vs_skewed_basis():
    h = core.degenerate_ising(5, 1.0)
    psi = core.evolve(core.StateVector.uniform_plus(6), h, 0.3)
    d_aligned = collapse.decompose(psi, collapse.CandidateBasis(0.0, 0.0))
    d_skewed = collapse.decompose(psi, collapse.CandidateBasis(math.pi / 2, 0.0))
    a_aligned = collapse.mean_entangling_acceleration(d_aligned, h)
    a_skewed = collapse.mean_entangling_acceleration(d_skewed, h)
    assert abs(a_aligned) < 1e-6
    assert a_skewed > a_aligned + 1.0


def test_mean_acceleration_matches_grid_evaluator(rng):
    h = core.transverse_coupled(3)
    psi = core.evolve(core.StateVector.uniform_plus(4), h, 0.25)
    basis = random_basis(rng)
    d = collapse.decompose(psi, basis)
    direct = collapse.mean_entangling_acceleration(d, h)
    delta = entanglement.DEFAULT_ACCEL_STEP
    coeffs = collapse._scan_coefficients(collapse._scan_tensors(psi.amplitudes, h, delta))
    batched = collapse._scan_grid(
        coeffs, np.array([basis.theta]), np.array([basis.phi]), delta
    )[0, 0]
    assert direct == pytest.approx(batched, rel=1e-10, abs=1e-12)


def test_scan_finds_coupling_axis_for_uniform_coupling():
    h = core.degenerate_ising(4, 1.0)
    psi = core.evolve(core.StateVector.uniform_plus(5), h, 0.3)
    basis, report = collapse.scan_collapse_basis(psi, h)
    assert not report.flat
    dist = collapse.basis_axis_distance(basis, collapse.CandidateBasis(0.0, 0.0))
    assert dist < 1e-2


def test_scan_zero_hamiltonian_is_flat(rng):
    h = core.PauliTermSum([], num_sites=3)
    basis, report = collapse.scan_collapse_basis(random_state(rng, 3), h)
    assert report.flat
    assert report.minimum == report.coarse_minimum


def test_scan_argmin_stable_under_grid_halving():
    h = core.transverse_coupled(4)
    psi = core.evolve(tilted_initial(4, math.pi / 4), h, 0.18)
    coarse, _ = collapse.scan_collapse_basis(psi, h, collapse.ScanSettings(32, 32))
    fine, _ = collapse.scan_collapse_basis(psi, h, collapse.ScanSettings(64, 64))
    assert collapse.basis_axis_distance(coarse, fine) < 2e-3


def test_scan_refinement_stable_away_from_poles():
    # isolated equatorial minimum: uniform X0-Xk couplings make the X
    # basis stationary, so the minimum sits at theta = pi/2 where the
    # angle chart is well conditioned and the refiner can be held to a
    # much tighter stability bound
    n = 3
    strings = ["X" + "I" * (k - 1) + "X" + "I" * (n - k) for k in range(1, n + 1)]
    h = core.PauliTermSum([(1.0, s) for s in strings])
    psi = core.evolve(core.StateVector.computational([0] * (n + 1)), h, 0.3)
    coarse, _ = collapse.scan_collapse_basis(psi, h, collapse.ScanSettings(32, 32))
    fine, _ = collapse.scan_collapse_basis(psi, h, collapse.ScanSettings(64, 64))
    assert coarse.theta == pytest.approx(math.pi / 2, abs=1e-3)
    assert collapse.basis_axis_distance(coarse, fine) < 1e-3


def test_scan_tie_break_prefers_smallest_theta():
    h = core.degenerate_ising(3, 1.0)
    psi = core.evolve(core.StateVector.uniform_plus(4), h, 0.4)
    basis, report = collapse.scan_collapse_basis(
        psi, h, collapse.ScanSettings(refine=False)
    )
    # both poles minimize; the deterministic pick is theta = 0, phi = 0
    assert report.coarse_minimum[0] == 0.0
    assert report.coarse_minimum[1] == 0.0


def test_scan_rejects_a_bad_acceleration_step():
    # a zero step once gave theta = 0 from a -inf landscape, and a negative
    # one a basis, with no error
    h = core.transverse_coupled(3)
    psi = core.evolve(tilted_initial(3, math.pi / 4), h, 0.3)
    d = collapse.decompose(psi, collapse.CandidateBasis(0.4, 0.2))
    for delta in (0.0, -1e-3, 0.5 * entanglement.MIN_ACCEL_STEP):
        with pytest.raises(ValueError, match="delta"):
            collapse.ScanSettings(accel_delta=delta)
        with pytest.raises(ValueError, match="delta"):
            collapse.mean_entangling_acceleration(d, h, delta)
    assert math.isfinite(collapse.mean_entangling_acceleration(d, h, entanglement.MIN_ACCEL_STEP))


# ---------------------------------------------------------------------------
# collapse operator
# ---------------------------------------------------------------------------


def test_collapse_operator_requires_one_environment_source():
    h = core.transverse_coupled(2)
    with pytest.raises(ValueError):
        collapse.collapse_operator(h)
    with pytest.raises(ValueError):
        collapse.collapse_operator(
            h, env_state=np.array([1.0, 0, 0, 0]), psi=core.StateVector.uniform_plus(3)
        )


def test_collapse_operator_plus_environment_degenerate():
    h = core.transverse_coupled(3)
    env = core.StateVector.uniform_plus(3).amplitudes
    result = collapse.collapse_operator(h, env_state=env)
    assert result.degenerate
    assert result.basis is None


def test_collapse_operator_polarized_environment():
    n = 3
    h = core.transverse_coupled(n)
    env = np.zeros(2**n)
    env[0] = 1.0  # all environment spins up
    result = collapse.collapse_operator(h, env_state=env)
    assert not result.degenerate
    np.testing.assert_allclose(result.matrix, n * np.diag([1.0, -1.0]), atol=1e-12)
    assert result.eigenvalues[0] == pytest.approx(n)
    assert collapse.basis_axis_distance(
        result.basis, collapse.CandidateBasis(0.0, 0.0)
    ) == pytest.approx(0.0, abs=1e-12)


def test_collapse_operator_symmetric_state_is_degenerate():
    # the all-|+> initial state has an exact spin-flip symmetry that pins
    # every <Z_k> to zero for all times, so the reduced-environment operator
    # vanishes identically for this model
    h = core.transverse_coupled(4)
    psi = core.evolve(core.StateVector.uniform_plus(5), h, 0.12)
    result = collapse.collapse_operator(h, psi=psi)
    assert result.degenerate


def test_collapse_operator_matches_scan_for_tilted_environment():
    n = 6
    h = core.transverse_coupled(n)
    psi = core.evolve(tilted_initial(n, math.pi / 4), h, 0.14)
    op = collapse.collapse_operator(h, psi=psi)
    assert not op.degenerate
    scan_basis, _ = collapse.scan_collapse_basis(psi, h)
    assert collapse.basis_axis_distance(op.basis, scan_basis) < 0.1


# ---------------------------------------------------------------------------
# threshold and sampling
# ---------------------------------------------------------------------------


def test_threshold_policy_validation():
    with pytest.raises(ValueError):
        collapse.ThresholdPolicy(0.0, 0.1)
    with pytest.raises(ValueError):
        collapse.ThresholdPolicy(-0.5, 0.1)
    with pytest.raises(ValueError):
        collapse.ThresholdPolicy(1.0, 0.0)
    collapse.ThresholdPolicy(math.inf, 0.1)  # valid: never fires


def test_check_threshold_boundary_convention():
    policy = collapse.ThresholdPolicy(0.5, 0.1)
    assert not collapse.check_threshold(0.0, policy)
    assert not collapse.check_threshold(-0.7, policy)  # shrinking never fires
    assert collapse.check_threshold(0.5, policy)  # boundary fires
    assert collapse.check_threshold(0.7, policy)


def test_sample_outcome_certain_branch(rng):
    env = np.zeros(4)
    env[1] = 1.0
    psi = core.StateVector(np.kron(np.array([1.0, 0.0]), env))
    d = collapse.decompose(psi, collapse.CandidateBasis(0.0, 0.0))
    gen = np.random.Generator(np.random.Philox(5))
    for _ in range(50):
        res = collapse.sample_outcome(d, gen)
        assert res.outcome_index == 0


def test_sample_outcome_statistics_and_purity():
    bell = core.StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
    d = collapse.decompose(bell, collapse.CandidateBasis(0.0, 0.0))
    gen = np.random.Generator(np.random.Philox(77))
    n_draws = 20000
    zeros = 0
    for _ in range(n_draws):
        res = collapse.sample_outcome(d, gen)
        zeros += res.outcome_index == 0
        assert entanglement.state_entropy(res.state) < 1e-9
    freq = zeros / n_draws
    assert abs(freq - 0.5) < 3.0 * math.sqrt(0.25 / n_draws) * 1.5


def test_post_collapse_entropy_and_speed_vanish(rng):
    # the collapsed product carries no entanglement and no entangling speed
    h = core.transverse_coupled(3)
    psi = core.evolve(core.StateVector.uniform_plus(4), h, 0.25)
    d = collapse.decompose(psi, random_basis(rng))
    gen = np.random.Generator(np.random.Philox(13))
    res = collapse.sample_outcome(d, gen)
    assert entanglement.state_entropy(res.state) < 1e-9
    assert abs(richardson_speed(res.state, h)) < 1e-7
    assert abs(entanglement.entangling_speed(res.state, h)) < 1e-7


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def test_trajectory_infinite_threshold_matches_unitary_run():
    h = core.transverse_coupled(3)
    init = core.StateVector.uniform_plus(4)
    policy = collapse.ThresholdPolicy(math.inf, 0.05)
    trace, events = collapse.run_trajectory(init, h, policy, t_max=0.5, seed=1)
    assert events == []
    unitary = entanglement.compute_trace(init, h, t_max=0.5, dt=0.05)
    np.testing.assert_allclose(trace.epsilon, unitary.epsilon, atol=1e-12)
    np.testing.assert_allclose(trace.epsilon_dot, unitary.epsilon_dot, atol=1e-12)


def test_trajectory_deterministic_given_seed():
    h = core.transverse_coupled(4)
    init = tilted_initial(4, math.pi / 3)
    policy = collapse.ThresholdPolicy(0.6, 0.02)
    runs = [
        collapse.run_trajectory(init, h, policy, t_max=1.0, seed=99,
                                basis_method="collapse_operator")
        for _ in range(2)
    ]
    (tr1, ev1), (tr2, ev2) = runs
    assert len(ev1) > 0
    assert collapse.events_to_jsonl(ev1, 99) == collapse.events_to_jsonl(ev2, 99)
    np.testing.assert_array_equal(tr1.epsilon, tr2.epsilon)


def test_trajectory_zeno_regime_dominant_outcome():
    # frequent collapses pin the state: every event after the first should
    # be nearly deterministic
    h = core.transverse_coupled(8)
    init = tilted_initial(8, math.pi / 3)
    policy = collapse.ThresholdPolicy(0.5, 0.02)
    _, events = collapse.run_trajectory(
        init, h, policy, t_max=2.0, seed=42, basis_method="collapse_operator"
    )
    assert len(events) >= 2
    for event in events[1:]:
        assert max(event.born_weights) > 0.9


def test_trajectory_stationary_model_collapses_once():
    # the uniform-coupling model collapses into its stationary basis, after
    # which the entangling speed is identically zero: exactly one event
    h = core.degenerate_ising(6, 1.0)
    init = core.StateVector.uniform_plus(7)
    policy = collapse.ThresholdPolicy(0.5, 0.05)
    _, events = collapse.run_trajectory(init, h, policy, t_max=2 * math.pi, seed=3)
    assert len(events) == 1
    assert max(events[0].born_weights) == pytest.approx(0.5, abs=1e-3)


def test_trajectory_post_collapse_state_is_product():
    h = core.transverse_coupled(4)
    init = tilted_initial(4, math.pi / 3)
    policy = collapse.ThresholdPolicy(0.6, 0.02)
    trace, events = collapse.run_trajectory(
        init, h, policy, t_max=0.6, seed=5, basis_method="collapse_operator"
    )
    assert events
    # the sample right after each event reflects the collapsed product state
    for event in events:
        k = int(round(event.t_c / policy.check_interval))
        if k + 1 < len(trace):
            assert trace.epsilon[k + 1] < 0.2  # reset well below the running value


def test_event_jsonl_schema():
    basis = collapse.CandidateBasis(0.1, 0.2)
    event = collapse.CollapseEvent(
        t_c=0.5, basis=basis, born_weights=(0.75, 0.25), outcome_index=0,
        e_before=1.0, e_after_ensemble=0.9, e_after_actual=0.95, rng_draw=0.3,
    )
    line = collapse.events_to_jsonl([event], seed=7).strip()
    import json

    payload = json.loads(line)
    assert tuple(payload) == collapse.EVENT_FIELDS
    assert payload["seed"] == 7
    assert payload["weights"] == [0.75, 0.25]


def test_collapse_event_validation():
    basis = collapse.CandidateBasis(0.0, 0.0)
    with pytest.raises(ValueError):
        collapse.CollapseEvent(0.1, basis, (0.7, 0.2), 0, 0, 0, 0, 0.1)
    with pytest.raises(ValueError):
        collapse.CollapseEvent(0.1, basis, (0.5, 0.5), 2, 0, 0, 0, 0.1)


# ---------------------------------------------------------------------------
# measurement operators
# ---------------------------------------------------------------------------


def test_measurement_identity_unitary():
    ops = collapse.derive_measurement_operators(
        np.eye(4, dtype=complex), np.array([1.0, 0.0]), np.eye(2)
    )
    np.testing.assert_allclose(ops[0], np.eye(2), atol=1e-12)
    np.testing.assert_allclose(ops[1], np.zeros((2, 2)), atol=1e-12)


def test_measurement_detector_model():
    c_click = 0.28 + 0.21j
    u = collapse.detector_unitary(c_click)
    ops = collapse.derive_measurement_operators(u, np.array([1.0, 0.0]), np.eye(2))
    photon = np.array([0.0, 1.0])
    np.testing.assert_allclose(ops[1] @ photon, c_click * np.array([1.0, 0.0]), atol=1e-12)
    p_click = float(np.real(np.vdot(photon, ops[1].conj().T @ ops[1] @ photon)))
    assert p_click == pytest.approx(abs(c_click) ** 2, abs=1e-12)


def test_measurement_cnot_gives_projectors():
    cnot = np.zeros((4, 4), dtype=complex)
    for s in range(2):
        for a in range(2):
            cnot[2 * s + (a ^ s), 2 * s + a] = 1.0
    ops = collapse.derive_measurement_operators(cnot, np.array([1.0, 0.0]), np.eye(2))
    np.testing.assert_allclose(ops[0], np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(ops[1], np.diag([0.0, 1.0]), atol=1e-12)


def test_measurement_completeness_and_probabilities(rng):
    for _ in range(25):
        d_s = int(rng.integers(2, 5))
        d_a = int(rng.integers(2, 5))
        u = haar_unitary(d_s * d_a, rng)
        basis = haar_unitary(d_a, rng).T
        ready = basis[int(rng.integers(d_a))]
        ops = collapse.derive_measurement_operators(u, ready, basis)
        total = sum(m.conj().T @ m for m in ops)
        assert np.max(np.abs(total - np.eye(d_s))) < 1e-9
        s0 = rng.normal(size=d_s) + 1j * rng.normal(size=d_s)
        s0 /= np.linalg.norm(s0)
        out = (u @ np.kron(s0, ready)).reshape(d_s, d_a)
        for m_idx, m_op in enumerate(ops):
            p_m = float(np.real(np.vdot(s0, m_op.conj().T @ m_op @ s0)))
            branch = out @ basis[m_idx].conj()
            assert p_m == pytest.approx(float(np.vdot(branch, branch).real), abs=1e-12)


def test_measurement_rejects_non_unitary():
    with pytest.raises(collapse.CompletenessError, match="deviates"):
        collapse.derive_measurement_operators(
            0.9 * np.eye(4, dtype=complex), np.array([1.0, 0.0]), np.eye(2)
        )


def test_measurement_rejects_bad_basis_and_ready_state():
    skewed = np.array([[1.0, 0.0], [1.0, 1.0]]) / 1.0
    with pytest.raises(ValueError, match="orthonormal"):
        collapse.derive_measurement_operators(
            np.eye(4, dtype=complex), np.array([1.0, 0.0]), skewed
        )
    with pytest.raises(ValueError, match="normalized"):
        collapse.derive_measurement_operators(
            np.eye(4, dtype=complex), np.array([2.0, 0.0]), np.eye(2)
        )


def test_trace_is_a_trajectory_that_never_fires():
    # compute_trace and run_trajectory share one sampling loop; on a grid
    # where round() and ceil() agree on the step count they must agree bit
    # for bit, every column
    h = core.transverse_coupled(3)
    init = tilted_initial(3, math.pi / 3)
    trace = entanglement.compute_trace(init, h, t_max=0.5, dt=0.05)
    traj, events = collapse.run_trajectory(
        init, h, collapse.ThresholdPolicy(math.inf, 0.05), t_max=0.5, seed=3
    )
    assert events == []
    assert len(trace) == len(traj) == 11
    for column in ("times", "epsilon", "epsilon_dot", "epsilon_ddot"):
        np.testing.assert_array_equal(getattr(traj, column), getattr(trace, column))


def test_determine_basis_flat_landscape_returns_none(rng):
    h = core.PauliTermSum([], num_sites=3)
    psi = random_state(rng, 3)
    settings = collapse.ScanSettings(n_theta=8, n_phi=8)
    assert collapse.determine_basis(psi, h, "scan", settings) == (None, "scan", False)
    # the zero operator is degenerate, so the operator routes fall back
    assert collapse.determine_basis(psi, h, "auto", settings) == (None, "scan", True)


def test_determine_basis_rejects_unknown_method():
    h = core.transverse_coupled(2)
    state = core.StateVector.uniform_plus(3)
    with pytest.raises(ValueError, match="scan, collapse_operator, auto"):
        collapse.determine_basis(state, h, "bogus", collapse.ScanSettings(n_theta=4, n_phi=4))
