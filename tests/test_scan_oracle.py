"""The bilinear basis-scan evaluator against independent routes.

``collapse._mean_accel_grid`` scores every candidate basis from one set of
per-scan tensors: four vectors evolved by delta and by 2 delta.  It is held
here to two routes that evolve every branch on its own:

* the product-branch evaluator it replaced, copied in as ``oracle_grid``:
  each branch ``a (x) env`` is evolved by delta twice and its entropies come
  from ``entanglement.block_entropies`` (the ``tr - disc`` eigenvalue);
* an explicit rotated-frame route, ``explicit_mean_accel``: each branch is
  evolved by ``core.evolve`` to delta and to 2 delta, read in the pair
  (a, b), and its small eigenvalue taken from the Gram determinant.
"""

import math

import numpy as np
import pytest

from propagation_oracles import evolve_block
from qcollapse import collapse, core, entanglement

DELTA = entanglement.DEFAULT_ACCEL_STEP
EPS = np.finfo(float).eps


def oracle_branch_accelerations(sys_rows, env_rows, h, delta):
    block = np.einsum("ma,me->mae", sys_rows, env_rows).reshape(sys_rows.shape[0], -1).T
    b1 = evolve_block(block, h, delta, "auto")
    b2 = evolve_block(b1, h, delta, "auto")
    s1 = entanglement.block_entropies(b1)
    s2 = entanglement.block_entropies(b2)
    return (s2 - 2.0 * s1) / delta**2


def oracle_grid(amps, h, thetas, phis, delta, chunk=2048):
    mat = amps.reshape(2, -1)
    half = thetas / 2.0
    ph = np.exp(1j * phis)
    a0 = np.stack([np.cos(half), ph * np.sin(half)], axis=1)
    a1 = np.stack([np.sin(half), -ph * np.cos(half)], axis=1)
    out = np.zeros(thetas.size)
    for a_rows in (a0, a1):
        proj = a_rows.conj() @ mat
        c = np.linalg.norm(proj, axis=1)
        env = proj / np.maximum(c, collapse.ZERO_WEIGHT_TOL)[:, None]
        probs = c**2
        for start in range(0, thetas.size, chunk):
            sl = slice(start, min(start + chunk, thetas.size))
            acc = oracle_branch_accelerations(a_rows[sl], env[sl], h, delta)
            out[sl] += probs[sl] * acc
    return out


def explicit_mean_accel(amps, h, theta, phi, delta):
    rows = collapse.CandidateBasis(theta, phi).state_pair()
    mat = amps.reshape(2, -1)
    total = 0.0
    for i in range(2):
        a, b = rows[i], rows[1 - i]
        proj = a.conj() @ mat
        c = float(np.linalg.norm(proj))
        if c < collapse.ZERO_WEIGHT_TOL:
            continue
        branch = core.StateVector(np.kron(a, proj / c))
        s = []
        for t in (delta, 2.0 * delta):
            evolved = core.evolve(branch, h, t).amplitudes.reshape(2, -1)
            r0, r1 = a.conj() @ evolved, b.conj() @ evolved
            det = np.vdot(r0, r0).real * np.vdot(r1, r1).real - abs(np.vdot(r1, r0)) ** 2
            det = min(max(det, 0.0), 0.25)
            lam = 2.0 * det / (1.0 + math.sqrt(1.0 - 4.0 * det))
            small = -lam * math.log(lam) if lam > entanglement.EIG_CUTOFF else 0.0
            s.append(small - (1.0 - lam) * math.log1p(-lam))
        total += c**2 * (s[1] - 2.0 * s[0]) / delta**2
    return total


def tilted_initial(n, theta_env):
    sites = [core.spin_state(math.pi / 2)] + [core.spin_state(theta_env)] * n
    return core.StateVector.from_site_states(sites)


def random_state(rng, num_sites):
    v = rng.normal(size=2**num_sites) + 1j * rng.normal(size=2**num_sites)
    return core.StateVector(v / np.linalg.norm(v))


def full_grid(n_theta=64, n_phi=64):
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    return tt.ravel(), pp.ravel()


# the oracle reads the small eigenvalue as tr - disc, whose absolute
# roundoff of about eps costs up to eps * |ln eps| per entropy, divided by
# delta**2 in the stencil (8e-9 here); the largest difference measured on
# these states is 2.4 times that, on the tilted 9-site state
ORACLE_ATOL = 8.0 * EPS * abs(math.log(EPS)) / DELTA**2


@pytest.mark.parametrize("sites", [5, 7, 9])
def test_grid_matches_product_branch_oracle(sites, rng):
    h = core.transverse_coupled(sites - 1)
    thetas, phis = full_grid()
    states = [
        core.evolve(tilted_initial(sites - 1, math.pi / 4), h, 0.3),
        random_state(rng, sites),
    ]
    for psi in states:
        new = collapse._mean_accel_grid(psi.amplitudes, h, thetas, phis, DELTA)
        old = oracle_grid(psi.amplitudes, h, thetas, phis, DELTA)
        assert np.max(np.abs(new - old)) <= ORACLE_ATOL
        # the landscape is not trivially flat, so the bound means something
        assert np.ptp(old) > 1.0


@pytest.mark.parametrize("sites", [3, 5, 8])
def test_grid_matches_explicit_rotated_frame_route(sites, rng):
    h = core.transverse_coupled(sites - 1)
    psi = core.evolve(tilted_initial(sites - 1, 0.7), h, 0.45)
    thetas = np.concatenate([[0.0, math.pi], rng.uniform(0.0, math.pi, 10)])
    phis = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 2.0 * math.pi, 10)])
    got = collapse._mean_accel_grid(psi.amplitudes, h, thetas, phis, DELTA)
    for t, p, v in zip(thetas, phis, got):
        want = explicit_mean_accel(psi.amplitudes, h, t, p, DELTA)
        assert abs(v - want) <= 1e-10 * max(1.0, abs(want))


def test_rk4_path_above_dense_limit_matches_explicit_route():
    # 13 sites: the four vectors go through the integrator, which needs
    # unit-norm columns; a system in |0> makes two of them exactly zero
    n = 12
    h = core.transverse_coupled(n)
    assert core._path(h) == "krylov"
    for psi in (
        tilted_initial(n, 0.6),
        core.StateVector.from_site_states([core.spin_state(0.0)] + [core.spin_state(0.6)] * n),
    ):
        thetas = np.array([0.0, 0.9, math.pi / 2, 2.4])
        phis = np.array([0.0, 0.3, 4.0, 5.5])
        got = collapse._mean_accel_grid(psi.amplitudes, h, thetas, phis, DELTA)
        for t, p, v in zip(thetas, phis, got):
            want = explicit_mean_accel(psi.amplitudes, h, t, p, DELTA)
            assert abs(v - want) <= 1e-10 * max(1.0, abs(want))


def test_zero_weight_branches_contribute_nothing():
    # system qubit in |0>: at theta = 0 the |1> branch has weight zero, and
    # near the poles one branch is tiny
    h = core.transverse_coupled(4)
    psi = core.StateVector.from_site_states([core.spin_state(0.0)] + [core.spin_state(0.8)] * 4)
    thetas, phis = full_grid(16, 8)
    new = collapse._mean_accel_grid(psi.amplitudes, h, thetas, phis, DELTA)
    assert np.all(np.isfinite(new))
    assert np.max(np.abs(new - oracle_grid(psi.amplitudes, h, thetas, phis, DELTA))) <= ORACLE_ATOL
    d = collapse.decompose(psi, collapse.CandidateBasis(0.0, 0.0))
    assert d.zero_weight == (False, True)
    got = collapse.mean_entangling_acceleration(d, h)
    want = explicit_mean_accel(psi.amplitudes, h, 0.0, 0.0, DELTA)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_zero_hamiltonian_scan_is_exactly_flat(rng):
    h = core.PauliTermSum([], num_sites=4)
    basis, report = collapse.scan_collapse_basis(random_state(rng, 4), h)
    assert np.all(report.mean_accelerations == 0.0)
    assert report.flat and report.nm_evaluations == 0
    assert report.minimum == report.coarse_minimum == (0.0, 0.0, 0.0)


def test_precomputed_tensors_give_the_same_values(rng):
    h = core.transverse_coupled(4)
    psi = random_state(rng, 5)
    thetas, phis = full_grid(8, 8)
    tensors = collapse._scan_tensors(psi.amplitudes, h, DELTA)
    np.testing.assert_array_equal(
        collapse._mean_accel_grid(psi.amplitudes, h, thetas, phis, DELTA, tensors),
        collapse._mean_accel_grid(psi.amplitudes, h, thetas, phis, DELTA),
    )


def test_scan_evolves_eight_columns(monkeypatch):
    # four vectors by delta and by 2 delta, whatever the grid size, from one
    # propagator: one rotation into the eigenbasis on the dense path, one
    # Lanczos basis per vector above it (7 applies each, where a fresh basis
    # per offset took 52 in all)
    cases = {}
    for sites in (6, 7, 10):
        h = core.transverse_coupled(sites - 1)
        cases[sites] = (core.evolve(tilted_initial(sites - 1, math.pi / 4), h, 0.3), h)

    columns, rotations, applies = [], [], []
    propagate, to_eigenbasis, apply = (
        core.Propagator.propagate, core._to_eigenbasis, core._apply_terms)

    def counting_propagate(self, times):
        out = propagate(self, times)
        columns.append(out[0].size)
        return out

    def counting_rotation(evecs, block):
        rotations.append(block.shape)
        return to_eigenbasis(evecs, block)

    def counting_apply(op, amps):
        applies.append(amps.shape)
        return apply(op, amps)

    monkeypatch.setattr(core.Propagator, "propagate", counting_propagate)
    monkeypatch.setattr(core, "_to_eigenbasis", counting_rotation)
    monkeypatch.setattr(core, "_apply_terms", counting_apply)
    psi, h = cases[6]
    _, report = collapse.scan_collapse_basis(psi, h)
    assert report.nm_evaluations > 0
    assert sum(columns) == 8
    rotations.clear()
    collapse._scan_tensors(cases[7][0].amplitudes, cases[7][1], DELTA)
    assert rotations == [(2**7, 4)]
    applies.clear()
    collapse._scan_tensors(cases[10][0].amplitudes, cases[10][1], DELTA)
    assert len(applies) == 28


def test_pole_minimum_is_refined_onto_the_axis():
    # uniform Z0-Zk couplings: the Z basis is stationary and minimizes the
    # landscape; the tangent-plane refine must stay on the pole
    h = core.degenerate_ising(4, 1.0)
    psi = core.evolve(core.StateVector.uniform_plus(5), h, 0.3)
    basis, report = collapse.scan_collapse_basis(psi, h)
    assert not report.flat
    assert collapse.basis_axis_distance(basis, collapse.CandidateBasis(0.0, 0.0)) < 1e-8


def test_refined_minimum_is_the_objective_at_the_returned_basis():
    h = core.transverse_coupled(4)
    psi = core.evolve(tilted_initial(4, math.pi / 4), h, 0.3)
    basis, report = collapse.scan_collapse_basis(psi, h)
    assert report.minimum[2] <= report.coarse_minimum[2]
    assert (basis.theta, basis.phi) == report.minimum[:2]
    value = collapse.mean_entangling_acceleration(collapse.decompose(psi, basis), h)
    assert value == pytest.approx(report.minimum[2], rel=1e-9, abs=1e-9)
