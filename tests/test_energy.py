import math

import numpy as np
import pytest

from qcollapse import collapse, core, energy


def random_state(rng, num_sites):
    v = rng.normal(size=2**num_sites) + 1j * rng.normal(size=2**num_sites)
    return core.StateVector(v / np.linalg.norm(v))


def random_basis(rng):
    return collapse.CandidateBasis(
        math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
    )


def test_energy_before_eigenstate():
    h = core.degenerate_ising(2, g=1.5)
    psi = core.StateVector.computational([0, 0, 0])  # Z-eigenstate, energy 2g
    assert energy.energy_before(psi, h) == pytest.approx(3.0, abs=1e-12)


def test_energy_before_plus_states():
    h30 = core.degenerate_ising(3, 1.0)
    assert energy.energy_before(core.StateVector.uniform_plus(4), h30) == pytest.approx(
        0.0, abs=1e-12
    )
    h16 = core.transverse_coupled(2)
    assert energy.energy_before(core.StateVector.uniform_plus(3), h16) == pytest.approx(
        3.0, abs=1e-12
    )


def test_energy_after_single_branch(rng):
    h = core.transverse_coupled(3)
    env = rng.normal(size=8) + 1j * rng.normal(size=8)
    env /= np.linalg.norm(env)
    psi = core.StateVector(np.kron(np.array([1.0, 0.0]), env))
    d = collapse.decompose(psi, collapse.CandidateBasis(0.0, 0.0))
    assert energy.energy_after_ensemble(d, h) == pytest.approx(
        energy.energy_before(psi, h), abs=1e-10
    )


def test_energy_after_eigenstate_in_own_basis():
    h = core.degenerate_ising(2, 1.0)
    psi = core.StateVector.computational([1, 0, 1])  # Z-eigenstate
    e = energy.energy_before(psi, h)
    d = collapse.decompose(psi, collapse.CandidateBasis(0.0, 0.0))
    assert energy.energy_after_ensemble(d, h) == pytest.approx(e, abs=1e-12)


def test_delta_identity_on_random_pairs(rng):
    h = core.transverse_coupled(4)
    for _ in range(100):
        psi = random_state(rng, 5)
        d = collapse.decompose(psi, random_basis(rng))
        lhs = energy.energy_delta(d, h)
        rhs = energy.energy_before(psi, h) - energy.energy_after_ensemble(d, h)
        assert abs(lhs - rhs) < 1e-10


def test_delta_zero_for_product_input(rng):
    h = core.transverse_coupled(3)
    env = rng.normal(size=8) + 1j * rng.normal(size=8)
    env /= np.linalg.norm(env)
    psi = core.StateVector(np.kron(np.array([0.0, 1.0]), env))
    d = collapse.decompose(psi, collapse.CandidateBasis(0.0, 0.0))
    assert energy.energy_delta(d, h) == pytest.approx(0.0, abs=1e-10)


def test_delta_zero_for_commuting_collapse_basis():
    # the uniform-coupling Hamiltonian commutes with the system Z, so a
    # Z-basis collapse conserves energy exactly
    h = core.degenerate_ising(5, 1.0)
    psi = core.evolve(core.StateVector.uniform_plus(6), h, 0.47)
    d = collapse.decompose(psi, collapse.CandidateBasis(0.0, 0.0))
    assert abs(energy.energy_delta(d, h)) < 1e-10


def test_audit_identity_and_floor(rng):
    h30 = core.degenerate_ising(3, 1.0)
    psi = core.evolve(core.StateVector.uniform_plus(4), h30, 0.3)
    audit = energy.audit_collapse(psi, h30, collapse.CandidateBasis(0.0, 0.0))
    # all-|+> start has exactly zero energy, so the audit reports absolute
    assert audit.floored
    assert audit.relative_deviation == pytest.approx(abs(audit.delta_e), abs=1e-15)

    h16 = core.transverse_coupled(3)
    psi = core.evolve(core.StateVector.uniform_plus(4), h16, 0.15)
    audit = energy.audit_collapse(psi, h16, random_basis(rng))
    assert not audit.floored
    assert audit.delta_e == pytest.approx(
        audit.e_before - audit.e_after_ensemble, abs=1e-10
    )


def test_dominant_outcome_energy_close_to_ensemble():
    # when one Born weight dominates, the actual post-collapse energy is
    # close to the ensemble average
    import warnings

    h = core.transverse_coupled(6)
    sites = [core.spin_state(math.pi / 2)] + [core.spin_state(math.pi / 3)] * 6
    init = core.StateVector.from_site_states(sites)
    policy = collapse.ThresholdPolicy(0.02, 0.004)  # deep frequent-collapse regime
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _, events = collapse.run_trajectory(
            init, h, policy, t_max=0.5, seed=11, basis_method="collapse_operator"
        )
    checked = 0
    for event in events:
        top = max(event.born_weights)
        if top > 0.99 and event.born_weights[event.outcome_index] == top:
            assert abs(event.e_after_actual - event.e_after_ensemble) < 1e-2 * abs(
                event.e_before
            )
            checked += 1
    assert checked >= 5


def test_deviation_sweep_trend():
    points = energy.deviation_sweep(
        (2, 4),
        lambda n: core.transverse_coupled(n),
        lambda n: core.StateVector.uniform_plus(n + 1),
        t_max=1.0,
        dt=0.02,
        basis_method="scan",
    )
    assert points[1].relative_deviation < points[0].relative_deviation
    assert all(not p.floored for p in points)


@pytest.mark.parametrize(
    "model, theta_env, method, used, fell_back",
    [
        ("transverse_coupled", math.pi / 4, "scan", "scan", False),
        ("transverse_coupled", math.pi / 4, "collapse_operator", "collapse_operator", False),
        ("transverse_coupled", math.pi / 4, "auto", "collapse_operator", False),
        ("degenerate_ising", math.pi / 2, "scan", "scan", False),
        ("degenerate_ising", math.pi / 2, "collapse_operator", "scan", True),
        ("degenerate_ising", math.pi / 2, "auto", "scan", True),
    ],
)
def test_deviation_sweep_uses_the_shared_basis_rule(model, theta_env, method, used, fell_back):
    n = 3
    h = core.build_hamiltonian(model, n_env=n)
    sites = [core.spin_state(math.pi / 2)] + [core.spin_state(theta_env)] * n
    init = core.StateVector.from_site_states(sites)
    settings = collapse.ScanSettings(n_theta=16, n_phi=16)
    (point,) = energy.deviation_sweep(
        (n,), lambda m: h, lambda m: init, t_max=1.0, dt=0.02,
        basis_method=method, scan_settings=settings,
    )
    state = core.evolve(init, h, point.t_c)
    basis, method_used, fallback = collapse.determine_basis(state, h, method, settings)
    assert (point.basis_theta, point.basis_phi) == (basis.theta, basis.phi)
    assert (point.basis_method_used, point.degenerate_fallback) == (method_used, fallback)
    assert (method_used, fallback) == (used, fell_back)


def test_deviation_sweep_raises_on_flat_landscape():
    with pytest.raises(ValueError, match="flat basis landscape"):
        energy.deviation_sweep(
            (2,),
            lambda n: core.PauliTermSum([], num_sites=n + 1),
            lambda n: core.StateVector.uniform_plus(n + 1),
            t_max=0.1,
            dt=0.05,
            scan_settings=collapse.ScanSettings(n_theta=8, n_phi=8),
        )


def test_deviation_sweep_rejects_unknown_method_before_any_trace():
    def never_called(n):
        raise AssertionError("the sweep ran a trace before checking the method")

    with pytest.raises(ValueError, match="scan, collapse_operator, auto"):
        energy.deviation_sweep((2,), never_called, never_called, t_max=0.1, dt=0.05,
                               basis_method="bogus")
