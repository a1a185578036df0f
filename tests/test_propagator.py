"""One propagator per window of samples, and the block queries of the scan.

Oracle: ``propagation_oracles.sample_per_call``, the sampling loop that
evolved every sample's state afresh (``core.evolve`` over one ``dt``) and
took the speed and acceleration from finite differences on it.  The
windowed loop takes them in closed form, so the two routes agree to the
stencils' errors, not bit for bit (the test names keep their old ids):
epsilon to 1e-13; epsilon_dot to 1e-9 relative or 2e-9 absolute (the
Richardson difference's roundoff at a product state, 1.3e-9 at t = 0 and 13
sites); epsilon_ddot to 1e-3 relative or 1e-4 absolute (the symmetric
stencil's truncation, delta^2 / 12 times the fourth derivative).
"""

import math

import numpy as np
import pytest

from propagation_oracles import (
    evolve_block, evolve_on_path, sample_per_call, stencil_acceleration,
)
from qcollapse import collapse, core, entanglement
from test_dense_path import random_state, tilted_product
from test_krylov import STENCIL_OFFSETS, count_lanczos_queries
from trajectory_oracles import hook_trajectory, sample_with_hook

FD, DELTA = 1e-4, entanglement.DEFAULT_ACCEL_STEP


def near_pole_product(num_sites):
    # the CLI's initial states: Bloch angles near pi/2
    return tilted_product(num_sites, math.pi / 2 + 0.03, math.pi / 2 - 0.04)


def assert_traces_close(got, want):
    assert np.array_equal(got.times, want.times)
    np.testing.assert_allclose(got.epsilon, want.epsilon, rtol=0, atol=1e-13)
    for k in range(len(want)):
        assert got.epsilon_dot[k] == pytest.approx(want.epsilon_dot[k], rel=1e-9, abs=2e-9)
        assert got.epsilon_ddot[k] == pytest.approx(want.epsilon_ddot[k], rel=1e-3, abs=1e-4)


def assert_traces_match_to_roundoff(got, want):
    # epsilon to 1e-12; epsilon_dot and epsilon_ddot to 1e-12 relative to
    # max(1, |value|)
    assert np.array_equal(got.times, want.times)
    np.testing.assert_allclose(got.epsilon, want.epsilon, rtol=0, atol=1e-12)
    for name in ("epsilon_dot", "epsilon_ddot"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b))), name


# ---------------------------------------------------------------------------
# the sampling loop against the per-call route
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
def test_trace_matches_per_call_route(h, t_max):
    # within the stencils' errors (assert_traces_close), not bit for bit
    initial = near_pole_product(h.num_sites)
    trace = entanglement.compute_trace(initial, h, t_max=t_max, dt=0.02)
    steps = int(round(t_max / 0.02))
    want = sample_per_call(initial, h, 0.02, steps, DELTA, "custom")
    assert_traces_close(trace, want)


def test_trajectory_matches_per_call_route():
    # within the stencils' errors, not bit for bit: every crossing replaces
    # the state, so the next step comes from a fresh propagator at the
    # collapsed branch; the events agree in time, outcome and draw, and in
    # basis and energies to the speeds' differences
    h = core.transverse_coupled(9)
    initial = near_pole_product(10)
    policy = collapse.ThresholdPolicy(0.5, 0.02)
    trace, events = collapse.run_trajectory(initial, h, policy, t_max=0.4, seed=12345)
    want_trace, want_events = hook_trajectory(
        initial, h, policy, t_max=0.4, seed=12345, sample=sample_per_call
    )
    assert len(events) >= 1 and len(events) == len(want_events)
    assert_traces_close(trace, want_trace)
    for got, want in zip(events, want_events):
        for name in ("t_c", "outcome_index", "rng_draw"):
            assert getattr(got, name) == getattr(want, name)
        assert got.basis.theta == pytest.approx(want.basis.theta, abs=1e-9)
        assert got.basis.phi == pytest.approx(want.basis.phi, abs=1e-9)
        np.testing.assert_allclose(got.born_weights, want.born_weights, rtol=0, atol=1e-12)
        for name in ("e_before", "e_after_ensemble", "e_after_actual"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12)


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
    # one basis per sample took 506 applies; one basis per chunk of 10
    # samples (coefficient_scale() * 0.2 = 3.8), 95-102.  The start state is
    # symmetric under permuting the environment spins, and so is every
    # state it evolves into: the basis breaks down at the dimension 2(N+1) =
    # 20 of that subspace, and one window of 20 applies serves the whole
    # trace; the t = 0 stencil may add a few
    assert len(calls) <= 25


@pytest.mark.parametrize("num_sites", [10, 13])
def test_random_state_trace_runs_several_windows_and_matches_the_fixed_reach_oracle(
    rng, monkeypatch, num_sites
):
    # a random state has no small invariant subspace: its basis converges
    # within 40 vectors up to coefficient_scale() * t of about 24 at 10
    # sites and 16 at 13, so a trace to t = 3 (reach 57 and 75) needs
    # several windows, each started where a chunk failed to converge.  The
    # oracle starts a window every chunk (sample_with_hook); measured:
    # epsilon 3e-16, epsilon_dot 1e-14 and epsilon_ddot 1.3e-13 relative
    windows = []
    init = core.Propagator.__init__

    def counting(self, psi, h):
        windows.append(psi)
        init(self, psi, h)

    h = core.transverse_coupled(num_sites - 1)
    psi = random_state(rng, num_sites)
    monkeypatch.setattr(core.Propagator, "__init__", counting)
    trace = entanglement.compute_trace(psi, h, t_max=3.0, dt=0.02)
    chunks = math.ceil(150 / math.floor(core._KRYLOV_MAX_REACH / (h.coefficient_scale() * 0.02)))
    assert 2 <= len(windows) < chunks / 3
    monkeypatch.setattr(core.Propagator, "__init__", init)
    assert_traces_match_to_roundoff(trace, sample_with_hook(psi, h, 0.02, 150, DELTA, "custom"))


def test_lanczos_windows_restart_from_the_last_sample_taken(rng, monkeypatch):
    # a window keeps only its chunk's last row: where the next chunk does
    # not converge, the new window starts from that row, built into a
    # state, at the sample before the failed chunk's first
    h = core.transverse_coupled(9)
    psi = random_state(rng, 10)
    dt, log = 0.02, []
    init, moments, state_init = (core.Propagator.__init__, core.Propagator.moments,
                                 core.StateVector.__init__)

    def recording_init(self, state, op):
        log.append(("window", state))
        init(self, state, op)

    def recording_moments(self, times, substep=True):
        out = moments(self, times, substep)
        log.append(("chunk", round(times[0] / dt), out is None))
        return out

    built = []

    def counting_states(self, *args, **kwargs):
        built.append(1)
        state_init(self, *args, **kwargs)

    monkeypatch.setattr(core.Propagator, "__init__", recording_init)
    monkeypatch.setattr(core.Propagator, "moments", recording_moments)
    monkeypatch.setattr(core.StateVector, "__init__", counting_states)
    entanglement.compute_trace(psi, h, t_max=3.0, dt=dt)
    monkeypatch.undo()

    origin, restarts = 0, []
    for entry, after in zip(log, log[1:]):
        if entry[0] == "chunk" and entry[2]:
            assert after[0] == "window"
            origin += entry[1] - 1
            restarts.append((origin, after[1]))
    windows = [entry for entry in log if entry[0] == "window"]
    assert windows[0][1] is psi and len(restarts) == len(windows) - 1 >= 1
    # one state per restart and one for the segment's last sample
    assert len(built) == len(windows)
    for origin, state in restarts:
        assert isinstance(state, core.StateVector) and 0 < origin < 150
        want = core.evolve(psi, h, origin * dt)
        assert np.max(np.abs(state.amplitudes - want.amplitudes)) <= 1e-12


def test_product_state_deep_in_a_window_takes_its_stencil_from_the_window_basis(monkeypatch):
    # the terms of sum_k X0 Xk commute, and each turns every state back into
    # a product state at t = pi/2 (exp(-i pi/2 X0 Xk) = -i X0 Xk).  From a
    # product state the basis breaks down at the 10 eigenvalues it sees, so
    # one window serves the whole trace, and sample 40 (t = pi/2, reach 14
    # from the window's state, in its fourth chunk) is a product state
    n = 10
    h = core.PauliTermSum(
        [(1.0, "X" + "I" * (k - 1) + "X" + "I" * (n - 1 - k)) for k in range(1, n)]
    )
    dt = math.pi / 80
    psi = tilted_product(n, 0.4, 1.1)
    queried = count_lanczos_queries(monkeypatch, lambda basis, times: (basis, times.tolist()))
    calls = []
    apply = core._apply_terms

    def counting(op, amps):
        calls.append(amps.shape)
        return apply(op, amps)

    monkeypatch.setattr(core, "_apply_terms", counting)
    trace = entanglement.compute_trace(psi, h, t_max=60 * dt, dt=dt)
    products = np.nonzero(trace.epsilon < entanglement.PRODUCT_ENTROPY)[0]
    assert products.tolist() == [0, 40] and trace.epsilon[20] > 0.5
    # both stencils are single queries on the one basis: substeps from the
    # window's state would query three fresh bases more, and the windows of
    # a fixed reach of 4 took 60 applies where this trace takes 14
    (basis, _), (again, times) = queried
    assert again is basis and times == [40 * dt + DELTA, 40 * dt + 2 * DELTA]
    assert len(calls) <= 20
    monkeypatch.setattr(core, "_apply_terms", apply)
    # the fresh stencil at the sampled state, to the roundoff of entropies
    # over delta^2
    state = core.evolve(psi, h, 40 * dt)
    assert trace.epsilon_ddot[40] == pytest.approx(stencil_acceleration(state, h), rel=1e-9)
    assert trace.epsilon_ddot[40] > 30.0


@pytest.mark.parametrize(
    "h",
    [
        core.degenerate_ising(3, g=1.3),
        core.transverse_coupled(6),
        core.transverse_coupled(9),
        core.transverse_coupled(11),
    ],
    ids=["diagonal-4", "dense-7", "krylov-10", "krylov-12"],
)
def test_moments_equal_applies_on_the_propagated_state(rng, h):
    psi = random_state(rng, h.num_sites)
    window = math.floor(core._KRYLOV_MAX_REACH / (h.coefficient_scale() * 0.02))
    times = np.arange(window + 1) * 0.02
    prop = core.Propagator(psi, h)
    assert prop.method == core._path(h)
    out = prop.moments(times)
    assert out.shape == (times.size, 3, h.dim) and out.flags.c_contiguous
    np.testing.assert_allclose(out[:, 0].T, core.evolve_times(psi, h, times), rtol=0, atol=1e-13)
    assert_moments_are_applies(h, out)


@pytest.mark.parametrize(
    "h, levels",
    [
        (core.degenerate_ising(6), 7),
        (core.PauliTermSum([(0.3, "ZII"), (0.5, "IZI"), (0.11, "IIZ"), (0.07, "ZZZ")]), 8),
    ],
    ids=["degenerate", "distinct"],
)
def test_level_phases_equal_the_per_amplitude_phases_bit_for_bit(rng, h, levels):
    # the diagonal path takes one phase per offset and distinct level and
    # gathers it onto the amplitudes; the per-amplitude route takes one per
    # offset and amplitude, from the same products
    values, inverse = h.levels()
    d = h.diagonal()
    assert values.size == levels and np.array_equal(values[inverse], d)
    assert not values.flags.writeable and not inverse.flags.writeable
    psi = random_state(rng, h.num_sites)
    times = np.concatenate([np.arange(40) * 0.05, [-0.3, 1e-3, 123.456]])
    prop = core.Propagator(psi, h)
    out = prop.moments(times)
    want = np.exp(-1j * np.outer(times, d))[:, None] * (psi.amplitudes * d ** np.arange(3)[:, None])
    assert np.array_equal(out, want) and out.flags.c_contiguous
    per_amplitude = np.exp(-1j * (d[:, None] * times))
    assert np.array_equal(prop.propagate(times), psi.amplitudes[:, None] * per_amplitude)
    block = np.column_stack([psi.amplitudes, random_state(rng, h.num_sites).amplitudes])
    assert np.array_equal(core.Propagator(block, h).propagate(times),
                          block[..., None] * per_amplitude[:, None])


def assert_moments_are_applies(h, out):
    for state, h_moment, h2_moment in out:
        h_state = core._apply_terms(h, state)
        h2_state = core._apply_terms(h, h_state)
        for got, want in ((h_moment, h_state), (h2_moment, h2_state)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_moments_at_zero_are_exact_even_for_a_tiny_basis(rng):
    # the offset 0 alone passes Saad's estimate at one vector; the moments
    # take three, so H psi and H^2 psi are the applies
    h = core.transverse_coupled(9)
    psi = random_state(rng, 10)
    out = core.Propagator(psi, h).moments([0.0])[0]
    h_psi = core._apply_terms(h, psi.amplitudes)
    np.testing.assert_allclose(out[1], h_psi, rtol=0, atol=1e-13)
    np.testing.assert_allclose(out[2], core._apply_terms(h, h_psi), rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="block"):
        core.Propagator(np.column_stack([psi.amplitudes] * 2), h).moments([0.0])


@pytest.mark.parametrize("num_sites, dt", [(10, 0.25), (13, 2.0)], ids=["krylov-10", "krylov-13"])
def test_steps_beyond_the_lanczos_reach_are_substepped(rng, num_sites, dt):
    # coefficient_scale() * dt is 4.75 at 10 sites and 50 at 13 (where one
    # basis of 40 vectors does not converge): every window is one step,
    # which the moments reach by equal substeps within the reach
    h = core.transverse_coupled(num_sites - 1)
    assert h.coefficient_scale() * dt > core._KRYLOV_MAX_REACH
    psi = random_state(rng, num_sites)
    times = [0.0, dt, -dt]
    out = core.Propagator(psi, h).moments(times)
    np.testing.assert_allclose(out[:, 0].T, core.evolve_times(psi, h, times), rtol=0, atol=1e-13)
    assert_moments_are_applies(h, out)
    initial = near_pole_product(num_sites)
    trace = entanglement.compute_trace(initial, h, t_max=3 * dt, dt=dt)
    assert_traces_close(trace, sample_per_call(initial, h, dt, 3, DELTA, "custom"))


@pytest.mark.parametrize("num_sites", [7, 10])
def test_hook_replacing_the_state_sees_every_grid_time_once(num_sites):
    # a window's first chunk takes 15 samples on the dense path at 7 sites
    # (the rest of the segment follows in one chunk) and 10 on the Lanczos
    # path at 10 sites: stop in the middle of the first chunk and where a
    # second window's first chunk ends, and resume each time from a
    # replaced state, as a history tree's child does
    h = core.transverse_coupled(num_sites - 1)
    window = math.floor(core._KRYLOV_MAX_REACH / (h.coefficient_scale() * 0.02))
    assert window == {7: 15, 10: 10}[num_sites]
    replace_at = {4, 4 + window}
    fresh = near_pole_product(num_sites)
    steps = 3 * window
    seen = []

    def stop(t, state, epsilon_dot):
        k = int(round(t / 0.02))
        seen.append((k, t, epsilon_dot))
        return k if k in replace_at else None

    columns, start = [[], [], []], None
    while True:
        rows, k, _, found = entanglement._sample(fresh, h, 0.02, steps, DELTA, start, stop)
        for col, part in zip(columns, rows):
            col.extend(part.tolist())
        if found is None:
            break
        assert found == k
        start = k
    trace = entanglement.EntanglementTrace(np.arange(steps + 1) * 0.02, *columns)
    assert [k for k, _, _ in seen] == list(range(steps + 1))
    assert [t for _, t, _ in seen] == trace.times.tolist()
    assert [v for _, _, v in seen] == trace.epsilon_dot.tolist()

    def hook(t, state, epsilon_dot):
        return fresh if int(round(t / 0.02)) in replace_at else state

    # against the hook loop the segments replaced: to roundoff, since a
    # segment's window outlasts the hook loop's fixed reach (on the dense
    # path it serves the whole segment); within the stencils' errors
    # against the per-call route
    want = sample_with_hook(fresh, h, 0.02, steps, DELTA, "custom", hook)
    assert_traces_match_to_roundoff(trace, want)
    assert_traces_close(trace, sample_per_call(fresh, h, 0.02, steps, DELTA, "custom", hook))
    # each replacement restarts the clock of the state: the sample after it
    # repeats the first step's values
    for k in replace_at:
        assert trace.epsilon[k + 1] == pytest.approx(trace.epsilon[1], abs=1e-15)


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
    # (the largest query) stays within 12 vectors, each stored once
    queried = count_lanczos_queries(monkeypatch, lambda basis, times: basis)
    h = core.transverse_coupled(12)
    prop = core.Propagator(random_state(rng, 13), h)
    prop.evolve_times(STENCIL_OFFSETS[1:5])
    prop.evolve_times([DELTA, -DELTA])
    prop.evolve(0.02)
    (basis,) = prop._bases
    assert len(queried) == 3 and all(b is basis for b in queried)
    assert len(basis.betas) <= 12
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
