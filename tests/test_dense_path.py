"""The dense spectral path against the slow routes it replaced.

Oracles: the Kronecker-product build of a Pauli sum, one ``core.evolve``
call per time offset, and the per-offset entropy stencils that used one
evolution and one ``state_entropy`` per offset (against the batched
stencils of ``propagation_oracles``, one ``evolve_times`` query each).
"""

import math
from functools import reduce

import numpy as np
import pytest

from propagation_oracles import FD_STEP, richardson_speed, stencil_acceleration
from qcollapse import core, entanglement

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_oracle(h):
    out = np.zeros((h.dim, h.dim), dtype=complex)
    for t in h.terms:
        out += t.coefficient * reduce(np.kron, [_PAULI[c] for c in t.string])
    return out


def random_state(rng, num_sites):
    v = rng.normal(size=2**num_sites) + 1j * rng.normal(size=2**num_sites)
    return core.StateVector(v / np.linalg.norm(v))


def tilted_product(num_sites, theta_sys=1.1, theta_env=0.7):
    sites = [core.spin_state(theta_sys, 0.3)] + [core.spin_state(theta_env)] * (num_sites - 1)
    return core.StateVector.from_site_states(sites)


# ---------------------------------------------------------------------------
# signed-permutation build
# ---------------------------------------------------------------------------

DENSE_CASES = [
    ("transverse_coupled", core.transverse_coupled(4), True),
    ("degenerate_ising", core.degenerate_ising(3, g=0.7), True),
    ("XYZI", core.PauliTermSum([(0.3, "XYZI")]), False),
    ("IIYX", core.PauliTermSum([(-1.2, "IIYX")]), False),
    ("YYXZ", core.PauliTermSum([(0.8, "YYXZ")]), True),
    ("XZ+YY", core.PauliTermSum([(0.5, "XZ"), (1.5, "YY")]), True),
    ("mixed", core.PauliTermSum([(0.5, "XYZI"), (0.25, "YYXZ"), (1.0, "ZIII")]), False),
]


@pytest.mark.parametrize("name, h, real", DENSE_CASES, ids=[c[0] for c in DENSE_CASES])
def test_dense_equals_kron_oracle_bit_for_bit(name, h, real):
    dense = h.dense()
    assert np.array_equal(dense, kron_oracle(h))
    assert dense.dtype == (np.float64 if real else np.complex128)


@pytest.mark.parametrize("name, h, real", DENSE_CASES, ids=[c[0] for c in DENSE_CASES])
def test_eigensystem_is_real_exactly_for_even_y(name, h, real):
    evals, evecs = h.eigensystem()
    assert np.isrealobj(evecs) == real
    np.testing.assert_allclose(evecs @ np.diag(evals) @ evecs.conj().T, kron_oracle(h),
                               atol=1e-12)


def test_dense_of_empty_sum_is_real_zero():
    dense = core.PauliTermSum([], num_sites=3).dense()
    assert dense.dtype == np.float64
    assert not dense.any()


def test_operator_holds_no_dense_matrix_after_eigensystem():
    h = core.transverse_coupled(5)
    evals, evecs = h.eigensystem()
    held = []

    def collect(value):
        if isinstance(value, np.ndarray):
            held.append(value)
        elif isinstance(value, (tuple, list)):
            for item in value:
                collect(item)

    for slot in type(h).__slots__:
        collect(getattr(h, slot, None))
    square = [a for a in held if a.shape == (h.dim, h.dim)]
    assert len(square) == 1 and square[0] is evecs


# ---------------------------------------------------------------------------
# evolve_times against stacked evolve calls
# ---------------------------------------------------------------------------


def stacked_evolve(psi, h, times):
    return np.column_stack([core.evolve(psi, h, t).amplitudes for t in times])


@pytest.mark.parametrize(
    "h",
    [
        core.degenerate_ising(4, g=1.3),
        core.transverse_coupled(4),
        core.PauliTermSum([(0.5, "XYZII"), (0.25, "YYXZI"), (1.0, "ZIIIZ"), (0.7, "IXIXI")]),
    ],
    ids=["diagonal", "dense-real", "dense-complex"],
)
def test_evolve_times_matches_stacked_evolve(rng, h):
    psi = random_state(rng, 5)
    times = [0.3, -0.3, 1e-4, -5e-5, 2.0, 0.0]
    out = core.evolve_times(psi, h, times)
    assert out.shape == (h.dim, len(times))
    np.testing.assert_allclose(out, stacked_evolve(psi, h, times), rtol=0, atol=1e-12)


def test_evolve_times_rk4_path_above_dense_limit(rng):
    n = core.DENSE_SITE_LIMIT + 1
    h = core.transverse_coupled(n - 1)
    psi = random_state(rng, n)
    times = [1e-4, -1e-4, 5e-5, -5e-5]
    out = core.evolve_times(psi, h, times)
    np.testing.assert_allclose(out, stacked_evolve(psi, h, times), rtol=0, atol=1e-12)


def test_evolve_times_columns_are_normalized(rng):
    h = core.transverse_coupled(3)
    out = core.evolve_times(random_state(rng, 4), h, np.linspace(-2.0, 2.0, 9))
    np.testing.assert_allclose(np.linalg.norm(out, axis=0), 1.0, atol=1e-14)


def test_evolve_times_raises_when_a_column_norm_drifts(rng, monkeypatch):
    h = core.transverse_coupled(3)
    psi = random_state(rng, 4)
    exact = core._from_eigenbasis

    def leaky(evecs, coeffs):
        out = exact(evecs, coeffs)
        out[:, 1] *= 1.0 + 1e-8
        return out

    monkeypatch.setattr(core, "_from_eigenbasis", leaky)
    with pytest.raises(core.IntegrationError, match="drifted the norm"):
        core.evolve_times(psi, h, [0.1, 0.2, 0.3])


def test_evolve_times_rejects_mismatch_and_nonfinite():
    h = core.transverse_coupled(2)
    with pytest.raises(ValueError):
        core.evolve_times(core.StateVector.uniform_plus(2), h, [0.1])
    with pytest.raises(ValueError):
        core.evolve_times(core.StateVector.uniform_plus(3), h, [0.1, math.inf])


# ---------------------------------------------------------------------------
# batched stencils against the per-offset stencils they replaced
# ---------------------------------------------------------------------------


def _entropy_at_offset(psi, h, dt):
    return entanglement.state_entropy(core.evolve(psi, h, dt))


def oracle_speed(psi, h, fd_step):
    d_full = (_entropy_at_offset(psi, h, fd_step) - _entropy_at_offset(psi, h, -fd_step)) / (
        2.0 * fd_step
    )
    half = 0.5 * fd_step
    d_half = (_entropy_at_offset(psi, h, half) - _entropy_at_offset(psi, h, -half)) / (2.0 * half)
    return (4.0 * d_half - d_full) / 3.0


def oracle_acceleration(psi, h, delta):
    eps0 = entanglement.state_entropy(psi)
    if eps0 < 1e-9:
        e1 = _entropy_at_offset(psi, h, delta)
        e2 = _entropy_at_offset(psi, h, 2.0 * delta)
        return (e2 - 2.0 * e1) / delta**2
    e_plus = _entropy_at_offset(psi, h, delta)
    e_minus = _entropy_at_offset(psi, h, -delta)
    return (e_plus - 2.0 * eps0 + e_minus) / delta**2


STENCIL_MODELS = [core.transverse_coupled(6), core.degenerate_ising(6, g=0.9)]


@pytest.mark.parametrize("h", STENCIL_MODELS, ids=["dense", "diagonal"])
def test_stencils_match_per_offset_oracle_on_random_state(rng, h):
    # the batched stencils of propagation_oracles: one evolve_times query
    psi = random_state(rng, h.num_sites)
    speed = richardson_speed(psi, h)
    accel = stencil_acceleration(psi, h)
    assert speed == pytest.approx(oracle_speed(psi, h, FD_STEP), rel=1e-9)
    assert accel == pytest.approx(
        oracle_acceleration(psi, h, entanglement.DEFAULT_ACCEL_STEP), rel=1e-9
    )


@pytest.mark.parametrize("h", STENCIL_MODELS, ids=["dense", "diagonal"])
def test_stencils_match_per_offset_oracle_on_product_state(h):
    psi = tilted_product(h.num_sites)
    assert entanglement.state_entropy(psi) < 1e-9  # the one-sided stencil applies
    accel = entanglement.entangling_acceleration(psi, h)
    assert accel > 0.0
    assert accel == pytest.approx(
        oracle_acceleration(psi, h, entanglement.DEFAULT_ACCEL_STEP), rel=1e-9
    )
    # at a product state the entropy is even in t, so the speed is pure roundoff
    speed = richardson_speed(psi, h)
    assert speed == pytest.approx(oracle_speed(psi, h, FD_STEP), rel=1e-9, abs=1e-9)


def test_stencils_along_a_dense_trace_match_oracle():
    h = core.transverse_coupled(5)
    state = tilted_product(h.num_sites, math.pi / 2, math.pi / 2 - 0.05)
    for _ in range(8):
        state = core.evolve(state, h, 0.05)
        speed = richardson_speed(state, h)
        assert speed == pytest.approx(oracle_speed(state, h, 1e-4), rel=1e-9, abs=1e-12)
        accel = stencil_acceleration(state, h, 1e-3)
        assert accel == pytest.approx(oracle_acceleration(state, h, 1e-3), rel=1e-9)
