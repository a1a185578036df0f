"""The polynomial basis-scan evaluator against independent routes.

``collapse._scan_coefficients`` folds one set of per-scan tensors (four
vectors evolved by delta and by 2 delta) into one coefficient array, and
``collapse._scan_grid`` (the grid), ``collapse._scan_point`` (the reported
minimum and ``mean_entangling_acceleration``) and
``collapse._scan_derivatives`` (the Newton refine) read every candidate basis
from it.  They are held here to independent routes:

* the product-branch evaluator, copied in as ``oracle_grid``: each branch
  ``a (x) env`` is evolved by delta twice and its entropies come from
  ``propagation_oracles.block_entropies`` (the ``tr - disc`` eigenvalue);
* an explicit rotated-frame route, ``explicit_mean_accel``: each branch is
  evolved by ``core.evolve`` to delta and to 2 delta, read in the pair
  (a, b), and its small eigenvalue taken from the Gram determinant;
* the batched-einsum evaluator the polynomial replaced, ``einsum_grid``:
  the same tensors contracted with the branch vectors of every candidate;
* central differences of ``collapse._scan_point`` for the closed-form
  gradient and Hessian;
* scipy's Nelder-Mead, the refine the Newton iteration replaced, copied in
  as ``nelder_mead_scan`` with its call and options unchanged;
* the per-form fold that ``collapse._fold_plan``'s one gather replaced,
  copied in as ``oracle_scan_coefficients``: one pair of bincounts per form
  and per branch, each overlap the sum of its two forms' results; the plan
  has to equal it bit for bit;
* ``min`` over ``np.argwhere`` of the tied cells, the grid tie rule the
  first tied cell in C order replaced.
"""

import math

import numpy as np
import pytest
from scipy import optimize

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


def fold_form(x, y, mat, degree):
    """Coefficients of ``sum_ij conj(x_i) mat[i, j] y_j`` for two vectors
    whose entries are ``sign cos^(d-e) sin^e e^{i m phi}``, each vector given
    as ``(e, sign, m)`` arrays: one row of the coefficients,
    monomial-major, summed term by term in a fixed order."""
    (ex, sx, mx), (ey, sy, my) = x, y
    monomial = degree * degree // 4 - 1 + ex[:, None] + ey[None, :]
    index = (7 * monomial + 3 + my[None, :] - mx[:, None]).ravel()
    weight = (sx[:, None] * sy[None, :] * mat).ravel()
    return np.bincount(index, weight.real, 105) + 1j * np.bincount(index, weight.imag, 105)


def oracle_scan_coefficients(tensors):
    """``collapse._scan_coefficients`` by 14 :func:`fold_form` calls."""
    rho, grams, crosses = tensors
    j = np.arange(8)
    p, q, s = j >> 2, (j >> 1) & 1, j & 1
    two = np.arange(2)
    out = []
    for branch in range(2):
        (ea, sa), (eb, sb) = (map(np.array, collapse._ROWS[k]) for k in (branch, 1 - branch))
        a = (ea, sa, two)
        env = (ea, sa, -two)
        alpha = (ea[p] + ea[q] + ea[s], sa[p] * sa[q] * sa[s], p - q - s)
        beta = (ea[p] + ea[q] + eb[s], sa[p] * sa[q] * sb[s], p - q - s)
        out.append(
            [fold_form(a, a, rho, 2)]
            + [fold_form(beta, beta, g, 6) for g in grams]
            + [fold_form(beta, alpha, g, 6) + fold_form(beta, env, c, 4)
               for g, c in zip(grams, crosses)]
        )
    return np.array(out).reshape(2, 5, 15, 7)


def nelder_mead_scan(psi, h, settings=None):
    """The scan with its former refine: scipy's Nelder-Mead in the tangent
    plane ``n0 + x e1 + y e2`` at the best cell's Bloch axis ``n0``, from a
    simplex one grid step wide, mapped back by ``from_bloch_vector``.
    Returns the basis, the minimum and the number of evaluations."""
    settings = settings or collapse.ScanSettings()
    delta = settings.accel_delta
    coeffs = collapse._scan_coefficients(collapse._scan_tensors(psi.amplitudes, h, delta))
    thetas = np.linspace(0.0, math.pi, settings.n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, settings.n_phi, endpoint=False)
    values = collapse._scan_grid(coeffs, thetas, phis, delta)
    tie = np.argwhere(values <= float(values.min()) + collapse.TIE_TOL)
    ti, pi_ = min((int(i), int(j)) for i, j in tie)
    best_theta, best_phi, best_val = float(thetas[ti]), float(phis[pi_]), float(values[ti, pi_])
    n0 = collapse.CandidateBasis(best_theta, best_phi).bloch_axis()
    e1 = collapse.CandidateBasis(best_theta + 0.5 * math.pi, best_phi).bloch_axis()
    e2 = np.cross(n0, e1)

    def chart(x):
        return collapse.CandidateBasis.from_bloch_vector(n0 + x[0] * e1 + x[1] * e2)

    def objective(x):
        b = chart(x)
        return collapse._scan_point(coeffs, b.theta, b.phi, delta)

    step = float(thetas[1] - thetas[0])
    res = optimize.minimize(
        objective,
        x0=np.zeros(2),
        method="Nelder-Mead",
        options={
            "xatol": 1e-5, "fatol": 1e-14, "maxiter": 200,
            "initial_simplex": np.array([[0.0, 0.0], [step, 0.0], [0.0, step]]),
        },
    )
    if res.fun <= best_val:
        return chart(res.x), float(res.fun), int(res.nfev)
    return collapse.CandidateBasis(best_theta, best_phi), best_val, int(res.nfev)


def poly_grid(amps, h, thetas, phis, delta=DELTA):
    """The scan's grid evaluator on the grid thetas x phis."""
    coeffs = collapse._scan_coefficients(collapse._scan_tensors(amps, h, delta))
    return collapse._scan_grid(coeffs, thetas, phis, delta)


def poly_points(amps, h, thetas, phis, delta=DELTA):
    """Both evaluators at the pairs (thetas[k], phis[k]): the grid's
    diagonal and the single-point evaluation."""
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
        # the single-point evaluation at every cell of the grid
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


def central_differences(coeffs, theta, phi, step):
    """Gradient and Hessian of ``_scan_point`` in (theta, phi) by
    fourth-order central differences of width ``step``."""
    def f(i, j):
        return collapse._scan_point(coeffs, theta + i * step, phi + j * step, DELTA)

    def first(g):
        return (8.0 * (g(1) - g(-1)) - (g(2) - g(-2))) / (12.0 * step)

    def second(g):
        return (-g(2) + 16.0 * g(1) - 30.0 * g(0) + 16.0 * g(-1) - g(-2)) / (12.0 * step**2)

    def mixed(k):
        return (f(k, k) - f(k, -k) - f(-k, k) + f(-k, -k)) / (4.0 * (k * step) ** 2)

    grad = np.array([first(lambda i: f(i, 0)), first(lambda j: f(0, j))])
    cross = (4.0 * mixed(1) - mixed(2)) / 3.0
    hess = np.array([[second(lambda i: f(i, 0)), cross], [cross, second(lambda j: f(0, j))]])
    return grad, hess


def closed_form(coeffs, theta, phi):
    f, ft, fp, ftt, ftp, fpp = collapse._scan_derivatives(coeffs, theta, phi, DELTA)
    return f, np.array([ft, fp]), np.array([[ftt, ftp], [ftp, fpp]])


# the closed forms against central differences, relative to max(1, the
# largest entry).  Measured off the poles at a difference step of 1e-3 rad:
# up to 1.5e-11 for gradients and 2.6e-8 for Hessians.  At the theta = 0
# cell the landscape varies on the scale of delta; a step of 5e-5 rad
# measures up to 6e-10 and 3.9e-7 there, where 1e-4 rad would read 2.8e-6
# (truncation) and 1e-5 rad 6.3e-6 (roundoff)
DERIVATIVE_RTOL = 1e-6


@pytest.mark.parametrize("sites", [5, 7, 9])
def test_closed_form_derivatives_match_central_differences(sites, rng):
    h = core.transverse_coupled(sites - 1)
    psi = core.evolve(tilted_initial(sites - 1, math.pi / 4), h, 0.3)
    coeffs = collapse._scan_coefficients(collapse._scan_tensors(psi.amplitudes, h, DELTA))
    # random candidates off the poles, and the theta = 0 cell every
    # pole-started scan begins from, where the minimum lies 3 delta away
    candidates = [(t, p, 1e-3) for t, p in zip(rng.uniform(0.2, math.pi - 0.2, 4),
                                                rng.uniform(0.0, 2.0 * math.pi, 4))]
    for theta, phi, step in candidates + [(0.0, 0.0, 5e-5)]:
        f, grad, hess = closed_form(coeffs, theta, phi)
        assert f == pytest.approx(collapse._scan_point(coeffs, theta, phi, DELTA),
                                  rel=1e-12, abs=1e-12)
        want_grad, want_hess = central_differences(coeffs, theta, phi, step)
        assert np.max(np.abs(grad - want_grad)) <= DERIVATIVE_RTOL * max(1.0, np.max(np.abs(grad)))
        assert np.max(np.abs(hess - want_hess)) <= DERIVATIVE_RTOL * max(1.0, np.max(np.abs(hess)))


def test_derivatives_at_a_stationary_pole_are_finite_and_flat():
    # at the degenerate-Ising pole both branches are product states (lam = 0)
    # at every offset: a slope of ln((1 - lam) / lam) would give inf * 0
    h = core.degenerate_ising(4, 1.0)
    psi = core.evolve(core.StateVector.uniform_plus(5), h, 0.3)
    coeffs = collapse._scan_coefficients(collapse._scan_tensors(psi.amplitudes, h, DELTA))
    jet = collapse._scan_derivatives(coeffs, 0.0, 0.0, DELTA)
    assert all(math.isfinite(x) for x in jet)
    assert jet[1:3] == (0.0, 0.0)


def test_rotated_tensors_score_the_same_candidates(rng):
    # the refine's frame: a candidate (theta, phi) there is rot @ A0(theta,
    # phi) here, which the original landscape scores by its Bloch angles
    h = core.transverse_coupled(5)
    psi = random_state(rng, 6)
    tensors = collapse._scan_tensors(psi.amplitudes, h, DELTA)
    coeffs = collapse._scan_coefficients(tensors)
    for coarse in (collapse.CandidateBasis(0.0, 0.0), collapse.CandidateBasis(1.1, 4.0)):
        rot = collapse._equator_frame(coarse)
        np.testing.assert_allclose(rot.conj().T @ rot, np.eye(2), atol=1e-15)
        frame = collapse._scan_coefficients(collapse._rotated_tensors(tensors, rot))
        here = collapse._scan_point(coeffs, coarse.theta, coarse.phi, DELTA)
        at_cell = collapse._scan_point(frame, math.pi / 2, 0.0, DELTA)
        assert at_cell == pytest.approx(here, rel=1e-12)
        for theta, phi in zip(rng.uniform(0.0, math.pi, 5), rng.uniform(0.0, 2.0 * math.pi, 5)):
            a = rot @ collapse.CandidateBasis(theta, phi).state_pair()[0]
            z = a[0].conjugate() * a[1]
            b = collapse.CandidateBasis.from_bloch_vector(
                [2.0 * z.real, 2.0 * z.imag, abs(a[0]) ** 2 - abs(a[1]) ** 2])
            want = collapse._scan_point(coeffs, b.theta, b.phi, DELTA)
            got = collapse._scan_point(frame, theta, phi, DELTA)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def scan_oracle_states(rng):
    out = []
    for sites in (5, 7, 9):
        h = core.transverse_coupled(sites - 1)
        out.append((core.evolve(tilted_initial(sites - 1, math.pi / 4), h, 0.3), h))
        out.append((random_state(rng, sites), h))
    return out


def acceptance_states():
    # the states of test_10_basis_method_agreement: n = 4 and 8 at the first
    # speed peak of a tilted environment
    out = []
    for n in (4, 8):
        h = core.transverse_coupled(n)
        init = tilted_initial(n, math.pi / 4)
        trace = entanglement.compute_trace(init, h, t_max=2.0, dt=0.02)
        _, t_c, _ = entanglement.first_speed_peak(trace)
        out.append((core.evolve(init, h, t_c), h))
    return out


def trajectory_scan_states(monkeypatch, inputs=5):
    # the states the benchmark's collapse-scan trajectories scan: 7 sites,
    # initial Bloch angles within 0.05 of pi/2, 2 crossings each
    seen = []
    scan = collapse.scan_collapse_basis

    def recording_scan(psi, h, settings=None):
        seen.append((psi, h))
        return scan(psi, h, settings)

    monkeypatch.setattr(collapse, "scan_collapse_basis", recording_scan)
    angles = np.random.default_rng(22).uniform(-0.05, 0.05, (inputs, 2)) + math.pi / 2
    h = core.transverse_coupled(6)
    for i, (sys_theta, env_theta) in enumerate(angles):
        init = core.StateVector.from_site_states(
            [core.spin_state(sys_theta)] + [core.spin_state(env_theta)] * 6)
        collapse.run_trajectory(init, h, collapse.ThresholdPolicy(0.5, 0.02), t_max=0.25,
                                seed=i, basis_method="scan")
    monkeypatch.undo()
    return seen


def test_newton_reaches_the_nelder_mead_minimum(rng, monkeypatch):
    states = scan_oracle_states(rng) + acceptance_states() + trajectory_scan_states(monkeypatch)
    assert len(states) >= 16
    for psi, h in states:
        basis, report = collapse.scan_collapse_basis(psi, h)
        want, want_min, nm_evals = nelder_mead_scan(psi, h)
        got_min = report.minimum[2]
        assert got_min <= want_min + 1e-12 * max(1.0, abs(got_min))
        assert abs(basis.theta - want.theta) <= 1e-6
        assert collapse.basis_axis_distance(basis, want) <= 1e-6
        # both refines ran, and Newton with far fewer evaluations
        assert 0 < report.nm_evaluations < nm_evals


def test_refine_at_an_exact_minimum_keeps_the_cell():
    # the degenerate-Ising pole: no step lowers the objective, so the scan
    # returns the coarse cell bit for bit after one evaluation
    h = core.degenerate_ising(4, 1.0)
    psi = core.evolve(core.StateVector.uniform_plus(5), h, 0.3)
    basis, report = collapse.scan_collapse_basis(psi, h)
    assert (basis.theta, basis.phi) == report.coarse_minimum[:2] == (0.0, 0.0)
    assert report.minimum == report.coarse_minimum
    assert report.nm_evaluations == 1


# ---------------------------------------------------------------------------
# the fold plan and the grid tie rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sites", range(2, 10))
def test_fold_plan_equals_the_per_form_fold_bit_for_bit(rng, sites):
    # a random state, and one whose system qubit is |0>, so that the scan
    # skips its zero branch columns; in the scan's frame and in the
    # refine's rotated frames (one at a pole, one off the axes)
    h = core.transverse_coupled(sites - 1)
    zero = random_state(rng, sites).amplitudes.copy()
    zero.reshape(2, -1)[1] = 0.0
    for amps in (random_state(rng, sites).amplitudes, zero / np.linalg.norm(zero)):
        tensors = collapse._scan_tensors(amps, h, DELTA)
        frames = [tensors] + [
            collapse._rotated_tensors(tensors, collapse._equator_frame(collapse.CandidateBasis(*c)))
            for c in ((0.0, 0.0), (1.1, 4.0))
        ]
        for frame in frames:
            got = collapse._scan_coefficients(frame)
            assert got.shape == (2, 5, 15, 7)
            assert got.tobytes() == oracle_scan_coefficients(frame).tobytes()


def argwhere_tie(values):
    tie = np.argwhere(values <= float(values.min()) + collapse.TIE_TOL)
    return min((int(i), int(j)) for i, j in tie), len(tie)


def test_grid_tie_rule_picks_the_cell_of_min_over_argwhere(monkeypatch):
    # the Z basis minimizes the uniform-coupling landscape, and every phi of
    # a pole row is that basis: both pole rows tie
    h = core.degenerate_ising(4, 1.0)
    psi = core.evolve(core.StateVector.uniform_plus(5), h, 0.3)
    _, report = collapse.scan_collapse_basis(psi, h)
    values = report.mean_accelerations
    (ti, pj), ties = argwhere_tie(values)
    assert ties >= 2 * values.shape[1]
    assert report.coarse_minimum == (float(report.theta_values[ti]),
                                     float(report.phi_values[pj]), float(values[ti, pj]))

    # landscapes whose first tie lies off the first row and column, with
    # ties later in its row and in later rows, within TIE_TOL of the minimum
    rng = np.random.default_rng(5)
    for first in ((3, 4), (0, 5), (6, 0)):
        landscape = rng.uniform(1.0, 2.0, size=(8, 8))
        for i, j in (first, (first[0], first[1] + 2), (7, 1), (first[0] + 1, 0)):
            landscape[i, j] = -1.0 + 0.5 * collapse.TIE_TOL * rng.uniform()
        monkeypatch.setattr(collapse, "_scan_grid", lambda *args, v=landscape: v)
        _, report = collapse.scan_collapse_basis(psi, h, collapse.ScanSettings(8, 8, refine=False))
        assert argwhere_tie(landscape) == (first, 4)
        assert report.coarse_minimum[:2] == (float(report.theta_values[first[0]]),
                                             float(report.phi_values[first[1]]))
