import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qcollapse import bullet

# exact series constants for the oracle
AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)


def _airy_rhs(x, y):
    return [y[1], x * y[0]]


def ode_oracle(points):
    """Independent Airy values by integrating y'' = x y.

    The negative axis is covered going left from the exactly known values
    at 0; the positive axis is integrated downward from x = 12 (seeded with
    scipy's independent implementation), which is the stable direction.
    """
    points = np.asarray(points, dtype=float)
    out = np.empty_like(points)
    neg = points[points <= 0.0]
    pos = points[points > 0.0]
    if neg.size:
        order = np.argsort(neg)[::-1]
        sol = solve_ivp(
            _airy_rhs, (0.0, float(neg.min())), [AI0, AIP0],
            t_eval=neg[order], rtol=1e-12, atol=1e-14, method="DOP853",
        )
        out[points <= 0.0] = sol.y[0][np.argsort(order)]
    if pos.size:
        from scipy.special import airy as scipy_airy

        seed_val, seed_deriv = scipy_airy(12.0)[:2]
        order = np.argsort(pos)[::-1]
        sol = solve_ivp(
            _airy_rhs, (12.0, float(pos.min())), [float(seed_val), float(seed_deriv)],
            t_eval=pos[order], rtol=1e-12, atol=1e-300, method="DOP853",
        )
        out[points > 0.0] = sol.y[0][np.argsort(order)]
    return out


# ---------------------------------------------------------------------------
# Airy function
# ---------------------------------------------------------------------------


def test_airy_at_zero_exact_constant():
    assert bullet.airy_ai(0.0) == pytest.approx(AI0, abs=1e-15)
    assert bullet.airy_ai_prime(0.0) == pytest.approx(AIP0, abs=1e-15)


def test_airy_against_ode_oracle():
    rng = np.random.default_rng(5)
    xs = np.concatenate([np.linspace(-10, 10, 301), rng.uniform(-10, 10, 100)])
    ref = ode_oracle(xs)
    mine = bullet.airy_ai(xs)
    # 1e-10 relative plus the integrator's own resolution floor, which is
    # what limits the comparison right at the oscillatory zeros
    envelope = np.maximum(np.abs(xs), 1.0) ** -0.25 / math.sqrt(math.pi)
    tol = 1e-10 * np.abs(ref) + 2e-12 * envelope
    np.testing.assert_array_less(np.abs(mine - ref), tol)


def test_airy_relative_accuracy_against_scipy():
    from scipy.special import airy as scipy_airy

    xs = np.linspace(-10.0, 10.0, 2001)
    ref = scipy_airy(xs)[0]
    mine = bullet.airy_ai(xs)
    mask = np.abs(ref) > 1e-13  # skip exact-zero neighborhoods
    rel = np.abs(mine[mask] - ref[mask]) / np.abs(ref[mask])
    envelope = (np.maximum(np.abs(xs), 1.0) ** -0.25)[mask]
    near_zero = np.abs(ref[mask]) < 1e-3 * envelope
    assert np.max(rel[~near_zero]) < 1e-10


def test_airy_switchover_continuity():
    # the evaluation bands must agree where they meet
    for edge in (4.5, 7.5, -4.5, -7.5):
        lo = bullet.airy_ai(edge - 1e-9)
        hi = bullet.airy_ai(edge + 1e-9)
        assert lo == pytest.approx(hi, rel=1e-8, abs=1e-16)


def test_airy_monotone_decay_for_positive_arguments():
    xs = np.linspace(1.0, 40.0, 400)
    vals = bullet.airy_ai(xs)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_airy_underflows_to_zero():
    assert bullet.airy_ai(1e4) == 0.0
    with pytest.raises(ValueError):
        bullet.airy_ai(math.nan)


def test_airy_prime_first_zero_by_bisection():
    # oracle: bisection on the series derivative, cross-checked against the
    # packaged root finder
    lo, hi = -1.2, -0.9
    flo = bullet.airy_ai_prime(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (bullet.airy_ai_prime(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    zero = 0.5 * (lo + hi)
    assert zero == pytest.approx(-1.0187929716474710, abs=1e-12)
    assert bullet.vee_ground_level() == pytest.approx(-zero, abs=1e-12)
    # scaled form of the level matches the conventional packet constant
    assert bullet.vee_ground_level() * 2.0 ** (-1.0 / 3.0) == pytest.approx(
        0.808614, abs=1e-5
    )


def test_airy_prime_domain_guard():
    with pytest.raises(ValueError):
        bullet.airy_ai_prime(6.0)


# ---------------------------------------------------------------------------
# parameters and the vee operator
# ---------------------------------------------------------------------------


def test_params_derive_half_side_from_steel_density():
    params = bullet.BulletParams()
    assert params.half_side_m == pytest.approx(0.0054, rel=0.01)


def test_params_validation():
    with pytest.raises(ValueError):
        bullet.BulletParams(mass_kg=-0.01)
    with pytest.raises(ValueError):
        bullet.BulletParams(barrier_j=0.0)
    with pytest.raises(ValueError):
        bullet.BulletParams(velocity_m_s=math.inf)


@pytest.mark.parametrize("half_width", [math.inf, math.nan])
def test_grid_rejects_a_non_finite_half_width(half_width):
    # both once passed the `half_width <= 2` check and failed in the solver
    with pytest.raises(ValueError, match="half_width must be finite"):
        bullet.GridSpec(half_width=half_width)


def test_slope_scales_quadratically_with_mass():
    p1 = bullet.BulletParams()
    a_fixed = p1.half_side_m
    # doubling the mass at fixed a quadruples b = m^2 c^2 / (a hbar^2)
    b1 = p1.mass_kg**2 * bullet.C_LIGHT**2 / (a_fixed * bullet.HBAR**2)
    b2 = (2 * p1.mass_kg) ** 2 * bullet.C_LIGHT**2 / (a_fixed * bullet.HBAR**2)
    assert b2 / b1 == pytest.approx(4.0, rel=1e-12)


def test_vee_operator_packet_scale_matches_position_spread():
    params = bullet.BulletParams()
    op = bullet.collapse_operator_vee(params)
    assert op.slope_b == pytest.approx(params.slope_b)
    # b^(-1/3) is the packet size scale: ~1.9e-28 m for the default body
    assert params.slope_b ** (-1.0 / 3.0) == pytest.approx(1.9e-28, rel=0.05)
    assert op.length_scale_m == pytest.approx((2 * op.slope_b) ** (-1 / 3), rel=1e-12)
    assert op.p0_kg_m_s == 0.0


# ---------------------------------------------------------------------------
# ground state
# ---------------------------------------------------------------------------


def test_ground_state_routes_agree():
    params = bullet.BulletParams()
    wp_closed, level_closed = bullet.ground_state(params, method="closed_form")
    wp_grid, level_grid = bullet.ground_state(params, method="finite_difference")
    l2 = math.sqrt(float(np.sum(np.abs(wp_closed.values - wp_grid.values) ** 2) * wp_closed.dx))
    assert l2 < 1e-4
    assert level_grid == pytest.approx(level_closed, rel=1e-4)
    assert level_closed == pytest.approx(1.0187929716474710, abs=1e-12)


def test_ground_state_symmetric_profile():
    params = bullet.BulletParams()
    wp, _ = bullet.ground_state(params, method="finite_difference")
    mags = np.abs(wp.values)
    np.testing.assert_allclose(mags, mags[::-1], atol=1e-8 * mags.max())


def test_ground_state_momentum_boost_shifts_mean_momentum():
    # the packet scale is ~1e-28 m, so only velocities with a resolvable
    # phase winding fit the grid; the boost algebra is scale free anyway
    grid = bullet.GridSpec()
    still = bullet.BulletParams()
    moving = bullet.BulletParams(velocity_m_s=1e-4)
    wp0, _ = bullet.ground_state(still, grid)
    wp1, _ = bullet.ground_state(moving, grid)
    np.testing.assert_allclose(np.abs(wp1.values), np.abs(wp0.values), atol=1e-20)
    grad = np.gradient(wp1.values, wp1.dx)
    p_mean = float(np.real(np.sum(np.conj(wp1.values) * (-1j * bullet.HBAR) * grad) * wp1.dx))
    assert p_mean == pytest.approx(moving.momentum_kg_m_s, rel=1e-4)


def test_ground_state_rejects_unresolvable_boost():
    with pytest.raises(ValueError, match="boost phase"):
        bullet.ground_state(bullet.BulletParams(velocity_m_s=300.0))


def test_ground_state_narrow_grid_rejected():
    params = bullet.BulletParams()
    with pytest.raises(ValueError, match="grid too narrow"):
        bullet.ground_state(params, bullet.GridSpec(half_width=5.0, num_points=1001))


def test_ground_state_agreement_across_slope_decades():
    # four decades of the slope parameter via the mass
    for mass in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
        params = bullet.BulletParams(mass_kg=mass)
        wp_c, _ = bullet.ground_state(params, method="closed_form")
        wp_g, _ = bullet.ground_state(params, method="finite_difference")
        l2 = math.sqrt(float(np.sum(np.abs(wp_c.values - wp_g.values) ** 2) * wp_c.dx))
        assert l2 < 1e-4


# ---------------------------------------------------------------------------
# uncertainties and the dominance ratio
# ---------------------------------------------------------------------------


def test_uncertainties_default_body_reference_values():
    rep = bullet.uncertainties(bullet.BulletParams())
    assert rep.delta_x_formula_m == pytest.approx(1.9e-28, rel=0.05)
    assert rep.delta_v_formula_m_s == pytest.approx(2.8e-5, rel=0.05)
    assert rep.a_m == pytest.approx(0.0054, rel=0.01)
    assert rep.product_over_hbar_formula == pytest.approx(0.5, abs=1e-12)
    assert 0.4 <= rep.product_over_hbar_numeric <= 0.6
    # numeric moments agree with the scale formula within a factor of 2
    ratio = rep.delta_x_numeric_m / rep.delta_x_formula_m
    assert 0.5 < ratio < 2.0


def test_uncertainty_mass_exponents():
    reps = {m: bullet.uncertainties(bullet.BulletParams(mass_kg=m)) for m in (1e-3, 1e-2, 1e-1)}
    for m1, m2 in ((1e-3, 1e-2), (1e-2, 1e-1)):
        dx_ratio = reps[m2].delta_x_formula_m / reps[m1].delta_x_formula_m
        dv_ratio = reps[m2].delta_v_formula_m_s / reps[m1].delta_v_formula_m_s
        assert dx_ratio == pytest.approx(10.0 ** (-5.0 / 9.0), rel=1e-6)
        assert dv_ratio == pytest.approx(10.0 ** (-4.0 / 9.0), rel=1e-6)


def test_uncertainties_independent_of_barrier_and_density():
    base = bullet.uncertainties(bullet.BulletParams())
    varied = bullet.uncertainties(
        bullet.BulletParams(barrier_j=10.0, line_density_per_m=3.2e22)
    )
    assert varied.delta_x_formula_m == base.delta_x_formula_m
    assert varied.delta_v_formula_m_s == base.delta_v_formula_m_s
    assert varied.delta_x_numeric_m == base.delta_x_numeric_m
    assert varied.delta_v_numeric_m_s == base.delta_v_numeric_m_s


def test_dominance_ratio_reference_and_scalings():
    params = bullet.BulletParams()
    ratio = bullet.dominance_ratio(params)
    assert ratio == pytest.approx(3.9e4, rel=0.03)
    assert bullet.dominance_ratio(
        bullet.BulletParams(barrier_j=2.0)
    ) == pytest.approx(2.0 * ratio, rel=1e-12)
    # doubling the mass at fixed a, n, eta halves the ratio
    a = params.half_side_m
    direct = 2.0 * params.barrier_j * params.line_density_per_m * a / (
        params.mass_kg * bullet.C_LIGHT**2
    )
    halved = 2.0 * params.barrier_j * params.line_density_per_m * a / (
        2.0 * params.mass_kg * bullet.C_LIGHT**2
    )
    assert halved == pytest.approx(0.5 * direct, rel=1e-12)


def test_bullet_report_schema():
    report = bullet.bullet_report(bullet.BulletParams())
    assert tuple(report) == (
        "a",
        "b",
        "delta_x_formula",
        "delta_x_numeric",
        "delta_v_formula",
        "delta_v_numeric",
        "product_over_hbar",
        "dominance_ratio",
    )
    assert all(isinstance(v, float) for v in report.values())
