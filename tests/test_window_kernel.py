"""One pass per sampling window: the chunked Gram kernel and what it drives.

Oracle (``trajectory_oracles``): the per-sample route, ``inner``'s row
sums and ``entropy_rates`` on one (3, dim) sample at a time.  The window
kernel (``entanglement._gram`` through ``_window_grams`` and ``_rates``)
has to equal it bit for bit, at any window length, chunk size and register
size.  The sampling loop checks the norm of every sample it consumes from
the Gram diagonal, makes one stencil query per chunk, keeps one window
per segment on the dense and diagonal paths and builds a state only where
it hands one out.  Its array passes over a chunk (the norm guard, the
exact-product test) run the scalar tail only on samples of positive D and
the stop only where the speed reaches its threshold, and have to return
what the per-sample loop returned: the stop at the same samples, the same
rows, and a norm error at the first bad sample before the stop.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollapse import collapse, core, entanglement, experiment
from trajectory_oracles import entropy_rates, inner, state_entropy

DELTA = entanglement.DEFAULT_ACCEL_STEP


def random_block(rng, k, num_sites, scale=1.0):
    shape = (k, 3, 2**num_sites)
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def chunk_samples(num_sites):
    # samples per step of the kernel on the (k, 6, n) rows against two
    return max(1, entanglement._GRAM_CHUNK_BYTES // (16 * 2 * 2 ** (num_sites - 1)))


def assert_window_equals_the_oracle(block):
    grams = entanglement._window_grams(block)
    assert len(grams) == len(block)
    for moments, (g, hh) in zip(block, grams):
        rows = moments.reshape(6, -1)
        assert g == inner(rows[:2], rows).T.tolist()
        assert hh == inner(rows[2:4], rows[2:4]).T.tolist()
        assert entanglement._rates(g, hh) == entropy_rates(moments)


@pytest.mark.parametrize("num_sites", [5, 7, 9, 12, 16])
def test_window_kernel_equals_the_per_sample_oracle_bit_for_bit(rng, num_sites):
    # two chunks and one sample more, so the last chunk is short (at 16
    # sites one sample fills a chunk, so every length is a multiple)
    k = 2 * chunk_samples(num_sites) + 1
    assert k == {5: 513, 7: 129, 9: 33, 12: 5, 16: 3}[num_sites]
    assert_window_equals_the_oracle(random_block(rng, k, num_sites))


@pytest.mark.parametrize("num_sites", [5, 9, 12])
def test_batched_entropies_equal_the_per_state_oracle(rng, num_sites):
    # the stencil's entropies: columns of an evolve_times block, made rows
    block = random_block(rng, 7, num_sites)[:, 0]
    cols = np.ascontiguousarray(block.T)
    want = [state_entropy(col) for col in cols.T]
    assert entanglement._entropies(np.ascontiguousarray(cols.T)) == want
    assert [entanglement.state_entropy(col) for col in cols.T] == want


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_sites=st.integers(1, 8),
    k=st.integers(1, 40),
    chunk_bytes=st.sampled_from([1, 100, 4096, 1 << 17]),
    # the squared trace of the reduced state is squared again in _det:
    # _rates rescales Gram entries past 2^+-240 by a power of two, the
    # oracle the rows, so psi at 1e+-150 (Gram entries at 1e+-300) holds
    scale=st.sampled_from([1.0, 1e-150, 1e150]),
)
def test_window_kernel_property(seed, num_sites, k, chunk_bytes, scale):
    block = random_block(np.random.default_rng(seed), k, num_sites, scale)
    with mock.patch.object(entanglement, "_GRAM_CHUNK_BYTES", chunk_bytes):
        assert_window_equals_the_oracle(block)


# ---------------------------------------------------------------------------
# the sampling loop: stencil queries, states built, norm guard
# ---------------------------------------------------------------------------


def revival_segment():
    """The revival model after its first collapse, where every sample is a
    product state: the tree, its root and the collapsed child state."""
    h = core.degenerate_ising(6, 1.0)
    tree = collapse.HistoryTree(core.StateVector.uniform_plus(7), h,
                                collapse.ThresholdPolicy(0.5, 0.05),
                                experiment.revival_time(1.0))
    _, events, leaf = tree.walk(3)
    assert len(events) == 1
    root = tree._root
    return tree, root, leaf, collapse._collapsed(root.decomp, events[0].outcome_index)


def test_each_window_makes_one_stencil_query_and_builds_only_its_handouts(monkeypatch):
    tree, root, leaf, child = revival_segment()
    counts = {"propagators": 0, "moments": 0, "stencils": 0, "states": 0}
    originals = {"propagators": (core.Propagator, "__init__"),
                 "moments": (core.Propagator, "moments"),
                 "stencils": (core.Propagator, "propagate"),
                 "states": (core.StateVector, "__init__")}

    def counting(name, method):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapped

    for name, (owner, attr) in originals.items():
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))

    dt = tree.policy.check_interval
    rows, k, state, found = entanglement._sample(child, tree.h, dt, tree.steps, tree.accel_delta,
                                                 root.k, tree._event_basis)
    assert found is None and k == tree.steps
    assert np.all(rows[0] < entanglement.PRODUCT_ENTROPY)  # every sample a product state
    for got, want in zip(rows, leaf.rows):
        assert np.array_equal(got, want)
    # 125 samples on the diagonal path from one propagator: a first chunk
    # of floor(4 / (6 * 0.05)) = 13 samples and the other 112 in one more,
    # each with one stencil query; one state, the segment's last
    assert tree.steps - root.k == 125
    assert counts == {"propagators": 1, "moments": 2, "stencils": 2, "states": 1}

    # a stop that asks for the state at every fifth sample gets it built
    # there, once, besides the segment's last sample
    asked = []

    def stop(t, state, epsilon_dot):
        j = int(round(t / dt))
        if j % 5 == 0:
            assert state() is state()
            asked.append(j)

    counts.update(propagators=0, moments=0, stencils=0, states=0)
    entanglement._sample(child, tree.h, dt, tree.steps, tree.accel_delta, root.k, stop)
    assert counts == {"propagators": 1, "moments": 2, "stencils": 2,
                      "states": 1 + len(set(asked) - {tree.steps})}


@pytest.mark.parametrize("bad", [1.0 + 1e-9, math.nan], ids=["drift", "nan"])
def test_norm_guard_checks_the_consumed_samples_only(monkeypatch, bad):
    # 5 sites, dense path: one window (22 samples) holds all 9 samples
    h = core.transverse_coupled(4)
    psi = core.StateVector.uniform_plus(5)
    dt, steps, spoiled = 0.02, 8, 5
    want = entanglement._sample(psi, h, dt, steps, DELTA)[0]
    moments = core.Propagator.moments

    def spoiling(self, times):
        block = moments(self, times)
        block[spoiled] *= bad
        return block

    monkeypatch.setattr(core.Propagator, "moments", spoiling)
    with pytest.raises(core.IntegrationError, match="norm"):
        entanglement._sample(psi, h, dt, steps, DELTA)

    def stop_before(t, state, epsilon_dot):
        return "stop" if round(t / dt) == spoiled - 1 else None

    rows, k, state, found = entanglement._sample(psi, h, dt, steps, DELTA, stop=stop_before)
    assert (k, found) == (spoiled - 1, "stop")
    for got, full in zip(rows, want):
        assert np.array_equal(got, full[:spoiled])
    # the handed-out state is the stop sample's, renormalized as before
    assert state.norm() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("bad", [1.0 + 1e-9, math.nan], ids=["drift", "nan"])
def test_norm_guard_checks_every_stencil_column(monkeypatch, bad):
    # the stencil's columns are not renormalized: each one's norm is read
    # off its Gram diagonal, as a sample's is
    h = core.degenerate_ising(3)
    psi = core.StateVector.uniform_plus(4)  # a product state
    propagate = core.Propagator.propagate

    def spoiling(self, times):
        out = propagate(self, times)
        out[:, -1] *= bad
        return out

    monkeypatch.setattr(core.Propagator, "propagate", spoiling)
    with pytest.raises(core.IntegrationError, match="norm"):
        entanglement.entangling_acceleration(psi, h)
    with pytest.raises(core.IntegrationError, match="norm"):
        entanglement.compute_trace(psi, h, t_max=0.1, dt=0.05)


# ---------------------------------------------------------------------------
# the chunk tail: where the stop runs, and the first bad sample
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num_sites", [5, 7, 10])
def test_stop_runs_exactly_where_the_speed_reaches_the_threshold(num_sites):
    # a near-product start: its speed rises through the threshold and its
    # first sample is a product state; one chunk on the dense path at 5 and
    # 7 sites, several Lanczos chunks at 10
    h = core.transverse_coupled(num_sites - 1)
    psi = core.StateVector.from_site_states(
        [core.spin_state(1.55, 0.0)] + [core.spin_state(1.6, 0.0)] * (num_sites - 1))
    dt, steps = 0.02, 40
    want = entanglement._sample(psi, h, dt, steps, DELTA)[0]
    threshold = float(np.quantile(want[1], 0.6))
    hits = np.flatnonzero(want[1] >= threshold).tolist()
    assert 0 < len(hits) < steps and want[0][0] < entanglement.PRODUCT_ENTROPY
    seen = []

    def record(t, state, epsilon_dot):
        seen.append((int(round(t / dt)), t, epsilon_dot))

    rows, k, _, found = entanglement._sample(psi, h, dt, steps, DELTA, stop=record,
                                             threshold=threshold)
    assert (k, found) == (steps, None)
    assert seen == [(j, j * dt, want[1][j]) for j in hits]
    for got, full in zip(rows, want):
        assert np.array_equal(got, full)

    # a stop that ends the segment at its third call, and the rows up to it
    def third(t, state, epsilon_dot):
        seen.append(t)
        return "stop" if len(seen) == 3 else None

    seen = []
    rows, k, state, found = entanglement._sample(psi, h, dt, steps, DELTA, stop=third,
                                                 threshold=threshold)
    assert (k, found) == (hits[2], "stop")
    for got, full in zip(rows, want):
        assert np.array_equal(got, full[:k + 1])


@pytest.mark.parametrize("bad", [1.0 + 1e-9, math.nan], ids=["drift", "nan"])
def test_norm_error_names_the_first_bad_sample_before_the_stop(monkeypatch, bad):
    # two spoiled samples in one chunk before a stop: the error comes from
    # the first, whatever the second holds, and a stop after them (where
    # the speed reaches the threshold) does not save the chunk
    h = core.transverse_coupled(4)
    psi = core.StateVector.uniform_plus(5)
    dt, steps = 0.02, 8
    speeds = entanglement._sample(psi, h, dt, steps, DELTA)[0][1]
    moments = core.Propagator.moments

    def spoiling(self, times):
        block = moments(self, times)
        block[4] *= bad
        block[6] *= 2.0
        return block

    def stop_last(t, state, epsilon_dot):
        return "stop" if round(t / dt) == steps else None

    monkeypatch.setattr(core.Propagator, "moments", spoiling)
    want = "nan" if math.isnan(bad) else "1.000000001"
    for threshold in (-math.inf, float(speeds[steps])):
        with pytest.raises(core.IntegrationError, match=f"norm to {want}$"):
            entanglement._sample(psi, h, dt, steps, DELTA, stop=stop_last, threshold=threshold)


def test_without_stencils_only_product_accelerations_change():
    # a product start on the diagonal path, where D = 0 exactly and the
    # closed form is +inf, and a near-product one, where the first sample's
    # entropy is below PRODUCT_ENTROPY but D > 0 and the closed form finite
    cases = [(core.StateVector.uniform_plus(5), core.degenerate_ising(4), math.inf),
             (core.StateVector.from_site_states(
                 [core.spin_state(1.55, 0.0)] + [core.spin_state(1.6, 0.0)] * 4),
              core.transverse_coupled(4), 304.6)]
    for psi, h, closed_form in cases:
        full = entanglement._sample(psi, h, 0.02, 30, DELTA)[0]
        lean = entanglement._sample(psi, h, 0.02, 30, DELTA, stencils=False)[0]
        for got, want in zip(lean[:2], full[:2]):
            assert np.array_equal(got, want)
        product = full[0] < entanglement.PRODUCT_ENTROPY
        assert product[0]
        assert np.array_equal(lean[2][~product], full[2][~product])
        assert lean[2][0] == pytest.approx(closed_form, rel=1e-4)
        assert np.all(lean[2][product] != full[2][product])
