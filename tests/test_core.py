import math
from functools import reduce

import numpy as np
import pytest

from propagation_oracles import evolve_on_path, evolve_rk4
from qcollapse import core, entanglement

# independent dense oracle: build matrices from scratch, no shared code with
# the bit-twiddling application path
_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_oracle(h):
    return sum(
        t.coefficient * reduce(np.kron, [_PAULI[c] for c in t.string])
        for t in h.terms
    )


def random_state(rng, num_sites):
    v = rng.normal(size=2**num_sites) + 1j * rng.normal(size=2**num_sites)
    return core.StateVector(v / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# state construction
# ---------------------------------------------------------------------------


def test_state_vector_requires_normalization():
    with pytest.raises(ValueError):
        core.StateVector(np.array([1.0, 1.0]))
    sv = core.StateVector(np.array([1.0, 1.0]), normalize=True)
    assert sv.norm() == pytest.approx(1.0, abs=1e-12)


def test_non_finite_amplitudes_fail_every_guard():
    # a NaN compares False with every tolerance, so each guard asks whether
    # the value is inside it, not whether it is outside
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            core.StateVector(np.array([bad, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            core.StateVector(np.array([bad, 1.0]), normalize=True)
    # the coefficients sum to inf: the propagated amplitudes are NaN
    h = core.PauliTermSum([(1e308, "XI"), (1e308, "ZZ"), (1e308, "IX")])
    psi = core.StateVector.uniform_plus(2)
    with np.errstate(all="ignore"):
        with pytest.raises(core.IntegrationError, match="drifted the norm to nan"):
            core.evolve(psi, h, 0.1)
        with pytest.raises(core.IntegrationError, match="drifted the norm to nan"):
            entanglement.compute_trace(psi, h, t_max=0.1, dt=0.05)
    # above EIGEN_SITE_LIMIT the Lanczos path cannot split an infinite reach
    h = core.PauliTermSum([(1e308, "X" + "I" * 9), (1e308, "ZZ" + "I" * 8), (1e308, "IX" + "I" * 8)])
    psi = core.StateVector.uniform_plus(10)
    for run in (lambda: core.evolve(psi, h, 0.1), lambda: entanglement.compute_trace(psi, h, 0.1, 0.05)):
        with pytest.raises(core.IntegrationError, match="scale inf is not finite"):
            run()


def test_state_vector_rejects_bad_length():
    with pytest.raises(ValueError):
        core.StateVector(np.array([1.0, 0.0, 0.0]))


def test_computational_and_product_states():
    sv = core.StateVector.computational([1, 0])
    assert sv.amplitudes[2] == 1.0
    plus = core.StateVector.uniform_plus(3)
    np.testing.assert_allclose(plus.amplitudes, np.full(8, 8**-0.5))
    prod = core.StateVector.from_site_states(
        [core.spin_state(math.pi / 2), core.spin_state(0.0)]
    )
    np.testing.assert_allclose(prod.amplitudes, [2**-0.5, 0, 2**-0.5, 0], atol=1e-15)


def test_bipartite_split_validation():
    split = core.BipartiteSplit.for_register(4)
    assert split.env_sites == (1, 2, 3)
    with pytest.raises(ValueError):
        core.BipartiteSplit(1, (0, 2))
    with pytest.raises(ValueError):
        core.BipartiteSplit(0, (2, 3))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        core.DensityMatrix(np.array([[0.5, 0.5], [0.2, 0.5]]))
    with pytest.raises(ValueError):
        core.DensityMatrix(np.diag([0.9, 0.2]))
    rho = core.DensityMatrix(np.diag([0.25, 0.75]))
    assert rho.purity() == pytest.approx(0.625)


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------


def test_degenerate_ising_terms():
    h = core.degenerate_ising(2, g=1.0)
    assert {(t.coefficient, t.string) for t in h.terms} == {(1.0, "ZZI"), (1.0, "ZIZ")}
    assert all(t.partition == core.INTERACTION for t in h.terms)
    assert not h.system_terms() and not h.environment_terms()


def test_transverse_coupled_terms():
    h = core.transverse_coupled(1)
    assert {(t.coefficient, t.string) for t in h.terms} == {
        (1.0, "XI"),
        (1.0, "ZZ"),
        (1.0, "IX"),
    }
    tags = sorted(t.partition for t in h.terms)
    assert tags == [core.ENV_ONLY, core.INTERACTION, core.SYSTEM_ONLY]


def test_custom_empty_is_zero_hamiltonian():
    h = core.build_hamiltonian("custom", n_env=2)
    assert h.terms == ()
    psi = core.StateVector.uniform_plus(3)
    out = core.evolve(psi, h, 1.7)
    np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-14)


def test_build_hamiltonian_errors():
    with pytest.raises(ValueError):
        core.build_hamiltonian("no_such_model", n_env=2)
    with pytest.raises(ValueError):
        core.build_hamiltonian("degenerate_ising", n_env=0)
    with pytest.raises(ValueError):
        core.PauliTermSum([(1.0 + 0.5j, "XX")])
    with pytest.raises(ValueError):
        core.PauliTermSum([(1.0, "XQ")])


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------


def test_apply_x_flips_and_z_phases():
    psi = core.StateVector.computational([0, 0])
    x0 = core.PauliTermSum([(1.0, "XI")])
    out = core.apply_operator(x0, psi)
    np.testing.assert_allclose(out, core.StateVector.computational([1, 0]).amplitudes)

    plus = core.StateVector(np.array([1, 1]) / math.sqrt(2))
    z = core.PauliTermSum([(1.0, "Z")])
    np.testing.assert_allclose(core.apply_operator(z, plus), np.array([1, -1]) / math.sqrt(2))


def test_apply_matches_dense_oracle_exhaustively(rng):
    # applying to every basis vector reconstructs the full matrix, so this
    # is an exhaustive check of the term-by-term application at small sizes
    for n_env in (1, 2, 3):
        h = core.transverse_coupled(n_env)
        dense = dense_oracle(h)
        dim = 2 ** (n_env + 1)
        rebuilt = np.column_stack(
            [core.apply_operator(h, np.eye(dim, dtype=complex)[:, j]) for j in range(dim)]
        )
        np.testing.assert_allclose(rebuilt, dense, atol=1e-12)
        for _ in range(3):
            psi = random_state(rng, n_env + 1)
            np.testing.assert_allclose(
                core.apply_operator(h, psi), dense @ psi.amplitudes, atol=1e-12
            )


def test_apply_matches_dense_for_xyz_strings(rng):
    strings = ["XYZI", "YYXZ", "ZXIY", "IIYX"]
    h = core.PauliTermSum([(0.7, s) for s in strings])
    dense = dense_oracle(h)
    psi = random_state(rng, 4)
    np.testing.assert_allclose(core.apply_operator(h, psi), dense @ psi.amplitudes, atol=1e-12)


def test_apply_dimension_mismatch():
    h = core.transverse_coupled(2)
    with pytest.raises(ValueError):
        core.apply_operator(h, core.StateVector.uniform_plus(2))


def test_expectation_transverse_plus_state():
    h = core.transverse_coupled(2)
    assert core.expectation(h, core.StateVector.uniform_plus(3)) == pytest.approx(3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def test_evolve_preserves_norm_and_composes(rng):
    h = core.transverse_coupled(3)
    psi = random_state(rng, 4)
    for dt in (0.01, 0.3, 1.7):
        out = core.evolve(psi, h, dt)
        assert abs(out.norm() - 1.0) < 1e-10
    one = core.evolve(psi, h, 0.9)
    two = core.evolve(core.evolve(psi, h, 0.4), h, 0.5)
    assert np.linalg.norm(one.amplitudes - two.amplitudes) < 1e-9


def test_evolve_matches_dense_oracle(rng):
    h = core.transverse_coupled(2)
    dense = dense_oracle(h)
    evals, evecs = np.linalg.eigh(dense)
    psi = random_state(rng, 3)
    expected = evecs @ (np.exp(-1j * evals * 0.63) * (evecs.conj().T @ psi.amplitudes))
    out = core.evolve(psi, h, 0.63)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


def test_evolve_energy_constant_along_unitary_run(rng):
    h = core.transverse_coupled(3)
    psi = random_state(rng, 4)
    e0 = core.expectation(h, psi)
    state = psi
    for _ in range(20):
        state = core.evolve(state, h, 0.11)
        assert abs(core.expectation(h, state) - e0) < 1e-9


def test_dense_and_rk4_paths_agree(rng):
    for n_env in (2, 4):
        h = core.transverse_coupled(n_env)
        psi = random_state(rng, n_env + 1)
        dense = evolve_on_path(psi, h, 0.8, "dense")
        rk4 = evolve_rk4(psi.amplitudes, h, 0.8)
        assert np.linalg.norm(dense.amplitudes - rk4) < 1e-9


def test_diagonal_and_dense_paths_agree(rng):
    h = core.degenerate_ising(3, g=1.3)
    psi = random_state(rng, 4)
    a = evolve_on_path(psi, h, 0.77, "diagonal")
    b = evolve_on_path(psi, h, 0.77, "dense")
    assert np.linalg.norm(a.amplitudes - b.amplitudes) < 1e-10


def test_ising_revival_and_analytic_point():
    h = core.degenerate_ising(4, g=1.0)
    psi0 = core.StateVector.uniform_plus(5)
    out = core.evolve(psi0, h, 2.0 * math.pi)
    assert psi0.fidelity(out) == pytest.approx(1.0, abs=1e-8)


def test_evolve_rejects_mismatch_and_nonfinite():
    h = core.transverse_coupled(2)
    with pytest.raises(ValueError):
        core.evolve(core.StateVector.uniform_plus(2), h, 0.1)
    with pytest.raises(ValueError):
        core.evolve(core.StateVector.uniform_plus(3), h, math.nan)


def test_block_propagator_matches_single(rng):
    h = core.transverse_coupled(3)
    cols = np.column_stack([random_state(rng, 4).amplitudes for _ in range(5)])
    block = core.Propagator(cols, h).propagate([0.37])[..., 0]
    for j in range(5):
        single = core.evolve(core.StateVector(cols[:, j]), h, 0.37)
        np.testing.assert_allclose(block[:, j], single.amplitudes, atol=1e-12)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------


def test_partial_trace_product_state(rng):
    env = rng.normal(size=4) + 1j * rng.normal(size=4)
    env /= np.linalg.norm(env)
    plus = np.array([1, 1]) / math.sqrt(2)
    psi = core.StateVector(np.kron(plus, env))
    rho = core.partial_trace_system(psi)
    np.testing.assert_allclose(rho.entries, 0.5 * np.ones((2, 2)), atol=1e-12)
    assert rho.purity() == pytest.approx(1.0, abs=1e-10)


def test_partial_trace_bell_state():
    bell = core.StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
    rho = core.partial_trace_system(bell)
    np.testing.assert_allclose(rho.entries, 0.5 * np.eye(2), atol=1e-12)


def test_partial_trace_two_branch_coherence():
    # two equal branches with per-spin phase-wound environments: the
    # off-diagonal magnitude is half the branch overlap, cos(2gt)^N / 2
    from qcollapse import experiment

    psi = experiment.analytic_state(2, 1.0, math.pi / 8.0)
    rho = core.partial_trace_system(psi)
    assert abs(rho.entries[0, 1]) == pytest.approx(0.25, abs=1e-12)


def test_partial_trace_linearity_on_mixtures(rng):
    # tracing a superposition reproduces the quadratic combination of blocks
    a = random_state(rng, 3).amplitudes
    b = random_state(rng, 3).amplitudes
    for w in (0.3, 0.8):
        v = w * a + math.sqrt(1 - w**2) * b
        v /= np.linalg.norm(v)
        rho = core.partial_trace_system(core.StateVector(v)).entries
        m = v.reshape(2, -1)
        np.testing.assert_allclose(rho, m @ m.conj().T, atol=1e-12)
        assert abs(np.trace(rho) - 1.0) < 1e-10
