"""One pass per sampling window: the chunked Gram kernel and what it drives.

Oracle (``trajectory_oracles``): the per-sample route, ``inner``'s row
sums and ``entropy_rates`` on one (3, dim) sample at a time.  The window
kernel (``entanglement._gram`` through ``_window_grams`` and ``_rates``)
has to equal it bit for bit, at any window length, chunk size and register
size.  The sampling loop checks the norm of every sample it consumes from
the Gram diagonal, makes one stencil query per window and builds a state
only where it hands one out.
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
    # the squared trace of the reduced state is squared again in _det, so
    # scales past about 1e+-75 over- or underflow on both routes alike
    scale=st.sampled_from([1.0, 1e-30, 1e30]),
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
    counts = {"moments": 0, "evolve_times": 0, "states": 0}
    moments, evolve_times, init = (core.Propagator.moments, core.Propagator.evolve_times,
                                   core.StateVector.__init__)

    def counting(name, method):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(core.Propagator, "moments", counting("moments", moments))
    monkeypatch.setattr(core.Propagator, "evolve_times", counting("evolve_times", evolve_times))
    monkeypatch.setattr(core.StateVector, "__init__", counting("states", init))

    dt = tree.policy.check_interval
    rows, k, state, found = entanglement._sample(child, tree.h, dt, tree.steps, tree.accel_delta,
                                                 root.k, tree._event_basis)
    assert found is None and k == tree.steps
    assert np.all(rows[0] < entanglement.PRODUCT_ENTROPY)  # every sample a product state
    for got, want in zip(rows, leaf.rows):
        assert np.array_equal(got, want)
    # 125 samples in windows of floor(4 / (6 * 0.05)) = 13
    windows = math.ceil((tree.steps - root.k) / 13)
    assert counts == {"moments": windows, "evolve_times": windows, "states": windows}

    # a stop that asks for the state at every fifth sample gets it built
    # there, once, besides each window's last sample
    asked = []

    def stop(t, state, epsilon_dot):
        j = int(round(t / dt))
        if j % 5 == 0:
            assert state() is state()
            asked.append(j)

    counts.update(moments=0, evolve_times=0, states=0)
    entanglement._sample(child, tree.h, dt, tree.steps, tree.accel_delta, root.k, stop)
    lasts = {root.k + 13 * w for w in range(1, windows)} | {tree.steps}
    assert counts == {"moments": windows, "evolve_times": windows,
                      "states": windows + len(set(asked) - lasts)}


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
