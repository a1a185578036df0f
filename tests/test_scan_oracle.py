"""The polynomial basis-scan evaluator against independent routes.

``collapse._scan_coefficients`` folds one set of per-scan tensors (four
vectors evolved by delta and by 2 delta) into one coefficient array, and
``collapse._scan_grid`` (the grid) and ``collapse._scan_point`` (Nelder-Mead
and ``mean_entangling_acceleration``) read every candidate basis from it.
They are held here to three routes:

* the product-branch evaluator, copied in as ``oracle_grid``: each branch
  ``a (x) env`` is evolved by delta twice and its entropies come from
  ``propagation_oracles.block_entropies`` (the ``tr - disc`` eigenvalue);
* an explicit rotated-frame route, ``explicit_mean_accel``: each branch is
  evolved by ``core.evolve`` to delta and to 2 delta, read in the pair
  (a, b), and its small eigenvalue taken from the Gram determinant;
* the batched-einsum evaluator the polynomial replaced, ``einsum_grid``:
  the same tensors contracted with the branch vectors of every candidate.
"""

import math

import numpy as np
import pytest

from propagation_oracles import block_entropies, evolve_block
from qcollapse import collapse, core, entanglement

DELTA = entanglement.DEFAULT_ACCEL_STEP
EPS = np.finfo(float).eps


def oracle_branch_accelerations(sys_rows, env_rows, h, delta):
    # the dense path by name, at every size this is called at: on the
    # automatic path, Lanczos from 8 sites, one fresh basis per column makes
    # the 9-site grid 14x slower
    block = np.einsum("ma,me->mae", sys_rows, env_rows).reshape(sys_rows.shape[0], -1).T
    b1 = evolve_block(block, h, delta, "dense")
    b2 = evolve_block(b1, h, delta, "dense")
    s1 = block_entropies(b1)
    s2 = block_entropies(b2)
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


def einsum_grid(amps, h, thetas, phis, delta, tensors=None):
    rho, gram, cross = collapse._scan_tensors(amps, h, delta) if tensors is None else tensors
    half = thetas / 2.0
    ph = np.exp(1j * phis)
    a0 = np.stack([np.cos(half), ph * np.sin(half)], axis=1)
    a1 = np.stack([np.sin(half), -ph * np.cos(half)], axis=1)
    # both branches of every candidate at once: rows of a, partners in b
    a = np.concatenate([a0, a1])
    b = np.concatenate([a1, a0])
    c2 = np.einsum("np,pq,nq->n", a.conj(), rho, a).real
    c = np.sqrt(np.maximum(c2, 0.0))
    live = c >= collapse.ZERO_WEIGHT_TOL
    inv_c = 1.0 / np.where(live, c, 1.0)
    w = a[:, :, None] * a.conj()[:, None, :] * inv_c[:, None, None]
    alpha = (w[..., None] * a.conj()[:, None, None, :]).reshape(-1, 8)
    beta = (w[..., None] * b.conj()[:, None, None, :]).reshape(-1, 8)
    env = a.conj() * inv_c[:, None]  # coefficients of M_q in the branch
    # one row per offset (delta, 2 delta)
    gram_t = gram.transpose(0, 2, 1)
    r1_sq = np.einsum("nj,knj->kn", beta.conj(), beta @ gram_t).real
    overlap = np.einsum(
        "nj,knj->kn", beta.conj(), alpha @ gram_t + env @ cross.transpose(0, 2, 1)
    )
    det = np.clip((1.0 - r1_sq) * r1_sq - np.abs(overlap) ** 2, 0.0, 0.25)
    lam = 2.0 * det / (1.0 + np.sqrt(1.0 - 4.0 * det))
    above = lam > entanglement.EIG_CUTOFF
    s = -np.where(above, lam * np.log(np.where(above, lam, 1.0)), 0.0)
    s = np.maximum(s - (1.0 - lam) * np.log1p(-lam), 0.0)
    acc = np.where(live, c2 * (s[1] - 2.0 * s[0]) / delta**2, 0.0)
    return acc[: thetas.size] + acc[thetas.size :]


def poly_grid(amps, h, thetas, phis, delta=DELTA):
    """The scan's grid evaluator on the grid thetas x phis."""
    coeffs = collapse._scan_coefficients(collapse._scan_tensors(amps, h, delta))
    return collapse._scan_grid(coeffs, thetas, phis, delta)


def poly_points(amps, h, thetas, phis, delta=DELTA):
    """Both evaluators at the pairs (thetas[k], phis[k]): the grid's
    diagonal and the single-point evaluation Nelder-Mead calls."""
    coeffs = collapse._scan_coefficients(collapse._scan_tensors(amps, h, delta))
    grid = np.diagonal(collapse._scan_grid(coeffs, thetas, phis, delta))
    point = [collapse._scan_point(coeffs, t, p, delta) for t, p in zip(thetas, phis)]
    return grid, np.array(point)


def tilted_initial(n, theta_env):
    sites = [core.spin_state(math.pi / 2)] + [core.spin_state(theta_env)] * n
    return core.StateVector.from_site_states(sites)


def random_state(rng, num_sites):
    v = rng.normal(size=2**num_sites) + 1j * rng.normal(size=2**num_sites)
    return core.StateVector(v / np.linalg.norm(v))


def grid_axes(n_theta=64, n_phi=64):
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    return thetas, phis


def cells(thetas, phis):
    """Every cell of the grid thetas x phis, theta-major, as paired angles."""
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    return tt.ravel(), pp.ravel()


# the oracle reads the small eigenvalue as tr - disc, whose absolute
# roundoff of about eps costs up to eps * |ln eps| per entropy, divided by
# delta**2 in the stencil (8e-9 here); the largest difference measured on
# these states is 2.4 times that, on the tilted 9-site state
ORACLE_ATOL = 8.0 * EPS * abs(math.log(EPS)) / DELTA**2


# the einsum route contracts the same tensors in another order, and the
# single-point evaluation shares the grid's products but not its tail: the
# largest differences measured on these states are 1.5e-14 and 1.2e-14 of
# the largest value (1.9e-12 on values up to 120, on the tilted 9-site state)
EINSUM_RTOL = 1e-12


@pytest.mark.parametrize("sites", [5, 7, 9])
def test_grid_matches_product_branch_oracle(sites, rng):
    h = core.transverse_coupled(sites - 1)
    thetas, phis = grid_axes()
    states = [
        core.evolve(tilted_initial(sites - 1, math.pi / 4), h, 0.3),
        random_state(rng, sites),
    ]
    for psi in states:
        coeffs = collapse._scan_coefficients(collapse._scan_tensors(psi.amplitudes, h, DELTA))
        new = collapse._scan_grid(coeffs, thetas, phis, DELTA)
        old = oracle_grid(psi.amplitudes, h, *cells(thetas, phis), DELTA)
        assert np.max(np.abs(new.ravel() - old)) <= ORACLE_ATOL
        # the landscape is not trivially flat, so the bound means something
        assert np.ptp(old) > 1.0
        scale = np.max(np.abs(new))
        moved = einsum_grid(psi.amplitudes, h, *cells(thetas, phis), DELTA)
        assert np.max(np.abs(new.ravel() - moved)) <= EINSUM_RTOL * scale
        # Nelder-Mead's single-point evaluation at every cell of the grid
        point = [[collapse._scan_point(coeffs, t, p, DELTA) for p in phis] for t in thetas]
        assert np.max(np.abs(np.array(point) - new)) <= EINSUM_RTOL * scale


@pytest.mark.parametrize("sites", [3, 5, 8])
def test_grid_matches_explicit_rotated_frame_route(sites, rng):
    h = core.transverse_coupled(sites - 1)
    psi = core.evolve(tilted_initial(sites - 1, 0.7), h, 0.45)
    thetas = np.concatenate([[0.0, math.pi], rng.uniform(0.0, math.pi, 10)])
    phis = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 2.0 * math.pi, 10)])
    for got in poly_points(psi.amplitudes, h, thetas, phis):
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
        for got in poly_points(psi.amplitudes, h, thetas, phis):
            for t, p, v in zip(thetas, phis, got):
                want = explicit_mean_accel(psi.amplitudes, h, t, p, DELTA)
                assert abs(v - want) <= 1e-10 * max(1.0, abs(want))


def test_zero_weight_branches_contribute_nothing():
    # system qubit in |0>: at theta = 0 the |1> branch has weight zero, and
    # near the poles one branch is tiny
    h = core.transverse_coupled(4)
    psi = core.StateVector.from_site_states([core.spin_state(0.0)] + [core.spin_state(0.8)] * 4)
    thetas, phis = grid_axes(16, 8)
    new = poly_grid(psi.amplitudes, h, thetas, phis).ravel()
    assert np.all(np.isfinite(new))
    old = oracle_grid(psi.amplitudes, h, *cells(thetas, phis), DELTA)
    assert np.max(np.abs(new - old)) <= ORACLE_ATOL
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
    # the scan reads its grid and its refined minimum from one coefficient
    # array, which precomputed tensors reproduce
    h = core.transverse_coupled(4)
    psi = random_state(rng, 5)
    tensors = collapse._scan_tensors(psi.amplitudes, h, DELTA)
    coeffs = collapse._scan_coefficients(tensors)
    basis, report = collapse.scan_collapse_basis(psi, h, collapse.ScanSettings(8, 8))
    np.testing.assert_array_equal(
        collapse._scan_grid(coeffs, report.theta_values, report.phi_values, DELTA),
        report.mean_accelerations,
    )
    assert report.nm_evaluations > 0
    assert collapse._scan_point(coeffs, basis.theta, basis.phi, DELTA) == pytest.approx(
        report.minimum[2], rel=1e-12
    )
    thetas, phis = cells(*grid_axes(8, 8))
    np.testing.assert_array_equal(
        einsum_grid(psi.amplitudes, h, thetas, phis, DELTA, tensors),
        einsum_grid(psi.amplitudes, h, thetas, phis, DELTA),
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
