"""One propagator per sampled state: the step and both stencils share it.

Oracle: ``propagation_oracles.sample_per_call``, the sampling loop that
evolved every sample's state three times over (``core.evolve`` for the
step, the public finite-difference speed and ``entangling_acceleration``).
The shared route must reproduce it exactly, not to a tolerance: each
query on a shared Lanczos basis takes the smallest basis a fresh one
would have taken, and each dense product keeps its width.
"""

import math

import numpy as np
import pytest

from propagation_oracles import evolve_block, evolve_on_path, sample_per_call
from qcollapse import collapse, core, entanglement
from test_dense_path import random_state, tilted_product
from test_krylov import STENCIL_OFFSETS, count_lanczos_queries

FD, DELTA = entanglement.DEFAULT_FD_STEP, entanglement.DEFAULT_ACCEL_STEP


def near_pole_product(num_sites):
    # the CLI's initial states: Bloch angles near pi/2
    return tilted_product(num_sites, math.pi / 2 + 0.03, math.pi / 2 - 0.04)


def assert_traces_equal(got, want):
    for column in ("times", "epsilon", "epsilon_dot", "epsilon_ddot"):
        assert np.array_equal(getattr(got, column), getattr(want, column)), column


# ---------------------------------------------------------------------------
# the sampling loop against the per-call route, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "h, t_max",
    [
        (core.transverse_coupled(3), 1.0),
        (core.degenerate_ising(3, g=1.3), 1.0),
        (core.transverse_coupled(9), 1.0),
        (core.transverse_coupled(12), 0.1),
    ],
    ids=["dense-4", "diagonal-4", "krylov-10", "krylov-13"],
)
def test_trace_equals_per_call_route_bit_for_bit(h, t_max):
    initial = near_pole_product(h.num_sites)
    trace = entanglement.compute_trace(initial, h, t_max=t_max, dt=0.02)
    steps = int(round(t_max / 0.02))
    want = sample_per_call(initial, h, 0.02, steps, FD, DELTA, "custom")
    assert_traces_equal(trace, want)


def test_trajectory_equals_per_call_route_bit_for_bit(monkeypatch):
    # every crossing replaces the state, so the next step comes from a fresh
    # propagator at the collapsed branch
    h = core.transverse_coupled(9)
    initial = near_pole_product(10)
    policy = collapse.ThresholdPolicy(0.5, 0.02)

    def run():
        return collapse.run_trajectory(initial, h, policy, t_max=0.4, seed=12345)

    trace, events = run()
    monkeypatch.setattr(entanglement, "_sample", sample_per_call)
    want_trace, want_events = run()
    assert len(events) >= 1
    assert_traces_equal(trace, want_trace)
    assert events == want_events


# ---------------------------------------------------------------------------
# applies and query order on the shared basis
# ---------------------------------------------------------------------------


def test_ten_site_trace_averages_at_most_eleven_applies_per_sample(monkeypatch):
    calls = []
    apply = core._apply_terms

    def counting(op, amps):
        calls.append(amps.shape)
        return apply(op, amps)

    monkeypatch.setattr(core, "_apply_terms", counting)
    trace = entanglement.compute_trace(
        near_pole_product(10), core.transverse_coupled(9), t_max=1.0, dt=0.02
    )
    assert len(trace) == 51
    # the per-call route took 20.8: 10-11 for the step, 5 and 6-7 for the stencils
    assert len(calls) / len(trace) <= 11.0


@pytest.mark.parametrize("num_sites", [4, 10])
def test_query_order_does_not_change_the_bytes(rng, num_sites):
    h = core.transverse_coupled(num_sites - 1)
    psi = random_state(rng, num_sites)
    stencils = ([FD, -FD, FD / 2, -FD / 2], [DELTA, -DELTA])

    step_first = core.Propagator(psi, h)
    step_a = step_first.evolve(0.02).amplitudes
    blocks_a = [step_first.evolve_times(s) for s in stencils]

    step_last = core.Propagator(psi, h)
    blocks_b = [step_last.evolve_times(s) for s in stencils]
    step_b = step_last.evolve(0.02).amplitudes

    assert np.array_equal(step_a, step_b)
    assert np.array_equal(step_a, core.evolve(psi, h, 0.02).amplitudes)
    for s, a, b in zip(stencils, blocks_a, blocks_b):
        assert np.array_equal(a, b)
        assert np.array_equal(a, core.evolve_times(psi, h, s))


def test_step_and_stencils_draw_on_one_basis(rng, monkeypatch):
    # one basis per state: no fresh Lanczos basis, and the step's basis
    # (the largest query) stays within one chunk of vectors
    queried = count_lanczos_queries(monkeypatch, lambda basis, times: basis)
    h = core.transverse_coupled(12)
    prop = core.Propagator(random_state(rng, 13), h)
    prop.evolve_times(STENCIL_OFFSETS[1:5])
    prop.evolve_times([DELTA, -DELTA])
    prop.evolve(0.02)
    (basis,) = prop._bases
    assert len(queried) == 3 and all(b is basis for b in queried)
    assert len(basis.betas) <= core._KRYLOV_CHUNK
    assert basis.vectors.nbytes <= 1.6e6


# ---------------------------------------------------------------------------
# block queries against the per-call dispatcher they replaced
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "h",
    [
        core.degenerate_ising(3, g=1.3),
        core.transverse_coupled(3),
        core.transverse_coupled(6),
        core.transverse_coupled(8),
        core.transverse_coupled(9),
        core.transverse_coupled(11),
    ],
    ids=["diagonal-4", "dense-4", "dense-7", "dense-9", "krylov-10", "krylov-12"],
)
def test_block_queries_equal_the_dispatcher_bit_for_bit(rng, h):
    # the scan's queries: one offset at a time on one kept propagator, with a
    # zero column among the unit ones
    block = np.column_stack([random_state(rng, h.num_sites).amplitudes for _ in range(4)])
    block[:, 2] = 0.0
    prop = core.Propagator(block, h)
    assert prop.method == core._path(h)
    for dt in (DELTA, 2.0 * DELTA, -0.3):
        out = prop.propagate([dt])
        assert out.shape == block.shape + (1,)
        assert np.array_equal(out[..., 0], evolve_block(block, h, dt, "auto"))
    psi = random_state(rng, h.num_sites)
    for dt in (0.02, -0.3):
        want = evolve_on_path(psi, h, dt, "auto").amplitudes
        assert np.array_equal(core.evolve(psi, h, dt).amplitudes, want)


# ---------------------------------------------------------------------------
# edge cases through the shared basis
# ---------------------------------------------------------------------------


def test_zero_operator_leaves_the_state_alone_through_a_propagator(rng):
    psi = random_state(rng, 10)
    # an empty sum counts as diagonal; a zero-weighted X string does not
    for h, method in ((core.PauliTermSum([(0.0, "X" * 10)]), "krylov"),
                      (core.PauliTermSum([], num_sites=10), "diagonal")):
        prop = core.Propagator(psi, h)
        assert prop.method == method
        assert np.max(np.abs(prop.evolve(0.3).amplitudes - psi.amplitudes)) <= 1e-15
        out = prop.evolve_times(STENCIL_OFFSETS)
        assert np.max(np.abs(out - psi.amplitudes[:, None])) <= 1e-15


def test_zero_start_vector_maps_to_zero_through_a_kept_basis():
    h = core.transverse_coupled(9)
    zero = np.zeros(h.dim, dtype=complex)
    basis = core._LanczosBasis(zero, h)
    for times in ([0.1, -2.0], [0.02], [-3.0, 0.0, 0.5]):
        out = core._krylov_times(zero, h, times, basis)
        assert out.shape == (h.dim, len(times)) and not np.any(out)
    assert basis.betas == []


def test_long_offsets_substep_exactly_as_the_one_off_route(rng):
    h = core.transverse_coupled(9)
    psi = random_state(rng, 10)
    times = [-3.0, 0.0, 0.5]
    assert h.coefficient_scale() * 3.0 > core._KRYLOV_MAX_REACH
    prop = core.Propagator(psi, h)
    # a basis already grown by short queries serves the first substeps
    prop.evolve_times(STENCIL_OFFSETS)
    assert np.array_equal(prop.evolve_times(times), core.evolve_times(psi, h, times))
    assert np.array_equal(prop.evolve(3.0).amplitudes, core.evolve(psi, h, 3.0).amplitudes)


def test_non_convergence_raises_from_a_trace(monkeypatch):
    monkeypatch.setattr(core, "_KRYLOV_MAX_VECTORS", 2)
    with pytest.raises(core.IntegrationError, match="Krylov step did not converge"):
        entanglement.compute_trace(
            near_pole_product(10), core.transverse_coupled(9), t_max=0.04, dt=0.02
        )


def test_propagator_rejects_mismatch_and_nonfinite():
    h = core.transverse_coupled(2)
    with pytest.raises(ValueError):
        core.Propagator(core.StateVector.uniform_plus(2), h)
    prop = core.Propagator(core.StateVector.uniform_plus(3), h)
    with pytest.raises(ValueError, match="dt must be finite"):
        prop.evolve(math.nan)
    with pytest.raises(ValueError, match="times must be finite"):
        prop.evolve_times([0.1, math.inf])
