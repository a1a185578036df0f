import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from propagation_oracles import (
    block_entropies,
    richardson_acceleration,
    richardson_speed,
    stencil_acceleration,
)
from qcollapse import core, entanglement, experiment


def random_state(rng, num_sites):
    v = rng.normal(size=2**num_sites) + 1j * rng.normal(size=2**num_sites)
    return core.StateVector(v / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_pure_and_maximally_mixed():
    assert entanglement.entropy(np.diag([1.0, 0.0])) == 0.0
    assert entanglement.entropy(0.5 * np.eye(2)) == pytest.approx(math.log(2.0), abs=1e-12)


def test_entropy_direct_evaluation_oracle():
    # oracle: -sum(lam ln lam) evaluated by hand
    expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    assert expected == pytest.approx(0.325083, abs=5e-7)
    assert entanglement.entropy(np.diag([0.9, 0.1])) == pytest.approx(expected, abs=1e-12)


def test_entropy_rejects_invalid_inputs():
    with pytest.raises(ValueError):
        entanglement.entropy(np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        entanglement.entropy(np.diag([0.4, 0.4]))  # trace deficient


def test_entropy_range_for_random_states(rng):
    for _ in range(20):
        psi = random_state(rng, 4)
        s = entanglement.state_entropy(psi)
        assert -1e-12 <= s <= math.log(2.0) + 1e-9


def test_block_entropies_match_scalar_path(rng):
    # the determinant kernel against the ``tr - disc`` eigenvalue route
    cols = np.column_stack([random_state(rng, 3).amplitudes for _ in range(6)])
    batch = block_entropies(cols)
    for j in range(6):
        assert batch[j] == pytest.approx(
            entanglement.state_entropy(cols[:, j]), abs=1e-12
        )


def exact_entropy(amps):
    """The system qubit's entropy of the given double amplitudes: the Gram
    entries in exact rational arithmetic, the logarithms in 60 digits."""
    x = [[(Fraction(float(a.real)), Fraction(float(a.imag))) for a in row]
         for row in amps.reshape(2, -1)]

    def gram(u, v):  # <u, v>
        re = sum(ar * br + ai * bi for (ar, ai), (br, bi) in zip(u, v))
        im = sum(ar * bi - ai * br for (ar, ai), (br, bi) in zip(u, v))
        return re, im

    (r00, _), (r11, _), (re, im) = gram(x[0], x[0]), gram(x[1], x[1]), gram(x[1], x[0])
    d = (r00 * r11 - re * re - im * im) / (r00 + r11) ** 2
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(d.numerator) / Decimal(d.denominator)
        lam = 2 * d / (1 + (1 - 4 * d).sqrt())
        return float(-lam * lam.ln() - (1 - lam) * (1 - lam).ln())


def test_state_entropy_matches_exact_arithmetic_near_a_product_state(rng):
    # small eigenvalues 1e-6 and 1e-10, where (tr - disc) / 2 keeps only
    # 1e-11 and 1e-7 of its relative digits
    for scale in (1.0, 1e-3, 1e-5):
        m0 = rng.normal(size=8) + 1j * rng.normal(size=8)
        m1 = scale * (rng.normal(size=8) + 1j * rng.normal(size=8))
        amps = np.concatenate([m0, m1])
        amps /= np.linalg.norm(amps)
        assert entanglement.state_entropy(amps) == pytest.approx(exact_entropy(amps), rel=1e-13)


def test_analytic_reduced_eigenvalues_oracle():
    # closed-form reduced spectrum of the uniform-coupling model
    for n in (2, 4, 6, 8):
        for gt in (0.11, 0.35, 0.7):
            psi = experiment.analytic_state(n, 1.0, gt)
            rho = core.partial_trace_system(psi)
            expected = experiment.reduced_eigenvalues_analytic(n, 1.0, gt)
            np.testing.assert_allclose(sorted(rho.eigenvalues()), expected, atol=1e-12)
            s_expected = entanglement.entropy_from_eigenvalues(expected)
            assert entanglement.state_entropy(psi) == pytest.approx(s_expected, abs=1e-8)


# ---------------------------------------------------------------------------
# entangling speed
# ---------------------------------------------------------------------------


def test_speed_zero_for_product_states(rng):
    h = core.transverse_coupled(4)
    plus = core.StateVector.uniform_plus(5)
    prods = [plus]
    for _ in range(3):
        sites = [
            core.spin_state(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            for _ in range(5)
        ]
        prods.append(core.StateVector.from_site_states(sites))
    for prod in prods:
        assert abs(richardson_speed(prod, h)) < 1e-7
        assert abs(entanglement.entangling_speed(prod, h)) < 1e-7


def test_speed_zero_for_zero_hamiltonian(rng):
    h = core.PauliTermSum([], num_sites=3)
    psi = random_state(rng, 3)
    assert richardson_speed(psi, h) == pytest.approx(0.0, abs=1e-10)
    assert entanglement.entangling_speed(psi, h) == pytest.approx(0.0, abs=1e-10)


def test_speed_analytic_matches_finite_diff(rng):
    h = core.transverse_coupled(3)
    psi = core.evolve(core.StateVector.uniform_plus(4), h, 0.3)
    a = entanglement.entangling_speed(psi, h)
    f = richardson_speed(psi, h)
    assert a == pytest.approx(f, abs=1e-5)
    for _ in range(5):
        psi = random_state(rng, 4)
        if min(core.partial_trace_system(psi).eigenvalues()) < 1e-6:
            continue
        a = entanglement.entangling_speed(psi, h)
        f = richardson_speed(psi, h)
        assert a == pytest.approx(f, abs=1e-5)


def test_speed_matches_closed_form_for_uniform_coupling():
    n, g, t = 5, 1.0, 0.4
    h = core.degenerate_ising(n, g)
    psi = core.evolve(core.StateVector.uniform_plus(n + 1), h, t)
    c, s = math.cos(2 * g * t), math.sin(2 * g * t)
    lam = (1.0 - c**n) / 2.0
    lam_dot = n * g * c ** (n - 1) * s
    expected = lam_dot * math.log((1.0 - lam) / lam)
    assert entanglement.entangling_speed(psi, h) == pytest.approx(expected, abs=1e-9)


def test_speed_near_pure_states_is_closed_form_without_warning():
    # the closed form needs no fallback: 0 at the product state, and the
    # oracle's value where the small eigenvalue is 1e-8 to 1e-4
    h = core.transverse_coupled(4)
    plus = core.StateVector.uniform_plus(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert entanglement.entangling_speed(plus, h) == 0.0
        for t in (1e-4, 1e-3, 0.01):
            psi = core.evolve(plus, h, t)
            lam = min(core.partial_trace_system(psi).eigenvalues())
            assert 1e-9 < lam < 1e-3
            assert entanglement.entangling_speed(psi, h) == pytest.approx(
                richardson_speed(psi, h, fd_step=t / 10), rel=1e-6
            )


def nearly_mixed(num_sites, alpha=0.7):
    """(|0>|+...+> + e^{i alpha} |1>|-+...+>) / sqrt(2): a maximally mixed
    qubit whose branches the Z0-Z1 coupling turns into each other."""
    plus, minus = core.spin_state(math.pi / 2), core.spin_state(math.pi / 2, math.pi)
    phi = core.StateVector.from_site_states([plus] * (num_sites - 1)).amplitudes
    chi = core.StateVector.from_site_states([minus] + [plus] * (num_sites - 2)).amplitudes
    return core.StateVector(np.concatenate([phi, np.exp(1j * alpha) * chi]), normalize=True)


@pytest.mark.parametrize("num_sites", [5, 9, 10, 13])
def test_closed_form_rates_match_richardson_stencils(num_sites):
    # oracles: the speed's central difference at +-1e-4 and +-5e-5, and the
    # symmetric second difference at 1e-3 and 5e-4, each with one Richardson
    # halving; 5 and 9 sites run the dense path, 10 and 13 the Lanczos one
    h = core.transverse_coupled(num_sites - 1)
    env = [core.spin_state(math.pi / 2 - 0.04)] * (num_sites - 1)
    product = core.StateVector.from_site_states([core.spin_state(math.pi / 2 + 0.03)] + env)
    mixed = core.evolve(nearly_mixed(num_sites), h, 0.01)
    lam = core.partial_trace_system(mixed).eigenvalues()
    assert lam[1] - lam[0] < 0.05  # the series branch
    for psi in (core.evolve(product, h, 0.02), core.evolve(product, h, 0.3), mixed):
        speed = entanglement.entangling_speed(psi, h)
        assert speed == pytest.approx(richardson_speed(psi, h), abs=1e-9)
        assert entanglement.entangling_acceleration(psi, h) == pytest.approx(
            richardson_acceleration(psi, h), rel=1e-7
        )
    # at the product state S'' is +inf: the one-sided stencil stands in
    assert entanglement.entangling_speed(product, h) == pytest.approx(0.0, abs=1e-12)
    assert richardson_speed(product, h) == pytest.approx(0.0, abs=1e-9)
    assert entanglement.entangling_acceleration(product, h) == stencil_acceleration(product, h)


def test_rates_at_an_exact_product_state():
    # D = 0 exactly (the diagonal path keeps |+++> exact): the entropy and
    # the speed are 0 and the closed-form acceleration +inf
    psi = core.StateVector.uniform_plus(3)
    h = core.degenerate_ising(2)
    block = core.Propagator(psi, h).moments([0.0])
    assert entanglement._rates(*entanglement._window_grams(block)[0]) == (0.0, 0.0, math.inf)
    assert entanglement.entangling_acceleration(psi, h) == stencil_acceleration(psi, h) > 0.0


def test_speed_peak_grows_with_environment():
    peaks = {}
    for n in (2, 4):
        h = core.transverse_coupled(n)
        tr = entanglement.compute_trace(
            core.StateVector.uniform_plus(n + 1), h, t_max=1.0, dt=0.02
        )
        peaks[n] = entanglement.max_speed(tr)
    assert peaks[4] > peaks[2]


def test_speed_peak_monotone_for_uniform_coupling():
    peaks = []
    for n in (2, 4, 6, 8):
        h = core.degenerate_ising(n, 1.0)
        tr = entanglement.compute_trace(
            core.StateVector.uniform_plus(n + 1), h, t_max=1.5, dt=0.02
        )
        peaks.append(entanglement.max_speed(tr))
    assert all(b >= a for a, b in zip(peaks, peaks[1:]))


# ---------------------------------------------------------------------------
# entangling acceleration
# ---------------------------------------------------------------------------


def test_acceleration_zero_hamiltonian(rng):
    h = core.PauliTermSum([], num_sites=3)
    psi = random_state(rng, 3)
    assert entanglement.entangling_acceleration(psi, h) == pytest.approx(0.0, abs=1e-9)


def test_acceleration_nonnegative_at_product_state():
    h = core.transverse_coupled(4)
    plus = core.StateVector.uniform_plus(5)
    assert entanglement.entangling_acceleration(plus, h) >= -1e-7


def test_acceleration_prefers_stationary_basis_states():
    # product branches aligned with the coupling axis never entangle, so
    # their acceleration must undercut a skewed product state's
    n = 6
    h = core.degenerate_ising(n, 1.0)
    env = core.StateVector.uniform_plus(n).amplitudes
    aligned = core.StateVector(np.kron(np.array([1.0, 0.0]), env))
    skewed = core.StateVector(np.kron(np.array([1.0, 1.0]) / math.sqrt(2), env))
    acc_aligned = entanglement.entangling_acceleration(aligned, h)
    acc_skewed = entanglement.entangling_acceleration(skewed, h)
    assert acc_aligned < acc_skewed
    assert abs(acc_aligned) < 1e-6


def test_acceleration_step_validation(rng):
    h = core.transverse_coupled(2)
    psi = random_state(rng, 3)
    with pytest.raises(ValueError):
        entanglement.entangling_acceleration(psi, h, delta=0.0)
    with pytest.raises(ValueError):
        entanglement.entangling_acceleration(psi, h, delta=1e-12)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def test_trace_invariants():
    h = core.transverse_coupled(2)
    tr = entanglement.compute_trace(
        core.StateVector.uniform_plus(3), h, t_max=0.5, dt=0.05, model_tag="transverse_coupled"
    )
    assert tr.epsilon[0] == pytest.approx(0.0, abs=1e-9)
    assert np.all(np.diff(tr.times) > 0)


def test_trace_bits_units_scale():
    h = core.transverse_coupled(2)
    tr = entanglement.compute_trace(core.StateVector.uniform_plus(3), h, t_max=0.2, dt=0.05)
    nats = list(tr.rows("nats"))
    bits = list(tr.rows("bits"))
    for rn, rb in zip(nats, bits):
        assert rb[1] == pytest.approx(rn[1] / math.log(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        list(tr.rows("trits"))


def test_trace_rejects_bad_columns():
    with pytest.raises(ValueError):
        entanglement.EntanglementTrace(
            np.array([0.0, 0.1]), np.array([0.0]), np.array([0.0, 0.0]), np.array([0.0, 0.0])
        )
    with pytest.raises(ValueError):
        entanglement.EntanglementTrace(
            np.array([0.1, 0.0]), np.zeros(2), np.zeros(2), np.zeros(2)
        )


def test_first_speed_peak_finds_interior_maximum():
    times = np.arange(6) * 0.1
    speed = np.array([0.0, 0.5, 0.9, 0.7, 0.8, 0.6])
    tr = entanglement.EntanglementTrace(times, np.zeros(6), speed, np.zeros(6))
    k, t, v = entanglement.first_speed_peak(tr)
    assert (k, t, v) == (2, pytest.approx(0.2), pytest.approx(0.9))


def test_trace_rates_are_the_public_speed_and_acceleration():
    # one propagator serves the window; the public functions take one
    # moments([0]) query per state, so the two agree to roundoff
    h = core.transverse_coupled(3)
    init = core.StateVector.uniform_plus(4)
    trace = entanglement.compute_trace(init, h, t_max=0.1, dt=0.05)
    state = init
    for k in range(len(trace)):
        if k > 0:
            state = core.evolve(state, h, 0.05)
        assert trace.epsilon_dot[k] == pytest.approx(
            entanglement.entangling_speed(state, h), rel=1e-12, abs=1e-13
        )
        assert trace.epsilon_ddot[k] == pytest.approx(
            entanglement.entangling_acceleration(state, h), rel=1e-10
        )
    with pytest.raises(TypeError, match="fd_step"):
        entanglement.compute_trace(init, h, t_max=0.1, dt=0.05, fd_step=1e-4)


def tilted_product(num_sites, theta_sys=math.pi / 2 + 0.03, theta_env=math.pi / 2 - 0.04):
    sites = [core.spin_state(theta_sys)] + [core.spin_state(theta_env)] * (num_sites - 1)
    return core.StateVector.from_site_states(sites)


def test_product_stencil_comes_from_the_window_basis(monkeypatch):
    # a 13-site trace at dt = 0.02 over two steps, from the CLI's default
    # |+> state: the window's Lanczos basis (12 applies) serves the three
    # samples and the t = 0 product-state stencil, where a fresh basis at
    # the sampled state would cost 7 more
    calls = []
    apply = core._apply_terms

    def counting(op, amps):
        calls.append(amps.shape)
        return apply(op, amps)

    monkeypatch.setattr(core, "_apply_terms", counting)
    h = core.transverse_coupled(12)
    trace = entanglement.compute_trace(core.StateVector.uniform_plus(13), h, t_max=0.04, dt=0.02)
    assert trace.epsilon[0] < entanglement.PRODUCT_ENTROPY
    assert len(calls) <= 12
    # from a tilted product state too, the stencil costs no apply beyond
    # the window's moments query
    psi = tilted_product(13)
    calls.clear()
    core.Propagator(psi, h).moments([0.0, 0.02, 0.04])
    window = len(calls)
    calls.clear()
    trace = entanglement.compute_trace(psi, h, t_max=0.04, dt=0.02)
    assert trace.epsilon[0] < entanglement.PRODUCT_ENTROPY
    assert len(calls) == window


@pytest.mark.parametrize("num_sites", [3, 5, 10, 13])
def test_trace_product_stencil_matches_the_fresh_stencil(num_sites):
    # at t = 0 the window's state is the sampled state, so the window's
    # stencil at delta and 2 delta is the fresh propagator's, bit for bit;
    # 3 and 5 sites run the dense path, 10 and 13 the Lanczos one
    h = core.transverse_coupled(num_sites - 1)
    psi = tilted_product(num_sites)
    trace = entanglement.compute_trace(psi, h, t_max=0.02, dt=0.02)
    assert trace.epsilon[0] < entanglement.PRODUCT_ENTROPY
    assert trace.epsilon_ddot[0] == stencil_acceleration(psi, h) > 0.0
