"""Macroscopic flying-body collapse basis: vee-potential wavepackets in SI.

This module works in SI units, unlike the spin modules.  The collapse
operator for a rigid body pushed around by a line density of ambient
molecules reduces, near its minimum, to a kinetic term plus a vee potential
``slope * |x - x0|``.  Its ground state is a shifted Airy function:

    psi0(x) = exp(i p0 x / hbar) * Ai(|zeta| - E0),   zeta = (x - x0) / s

with ``s = (2 b)^(-1/3)`` and ``E0`` the negated first zero of Ai'.  In the
``zeta`` frame the eigenproblem is ``-chi'' + |zeta| chi = E chi``, which is
well conditioned regardless of how extreme the SI scales are; everything
physical is recovered by back-scaling.

Ai and Ai' come from ``scipy.special.airy``; the finite-difference
eigensolver below is the independent route to the same packet.  Each
function imports the scipy module it calls when it is called, so importing
this module (and the package, and its CLI) loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.99792458e8  # m / s

_PRIME_DOMAIN = 4.5  # |x| bound of airy_ai_prime: the turning-point region

_EDGE_AMPLITUDE = 1e-12


# ---------------------------------------------------------------------------
# Airy function
# ---------------------------------------------------------------------------


def _airy_pair(x) -> tuple[np.ndarray, np.ndarray, bool]:
    """Ai and Ai' of a scalar or array, plus whether the input was a scalar."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("argument must be finite")
    from scipy import special

    ai, aip, _, _ = special.airy(arr)
    return ai, aip, arr.ndim == 0


def airy_ai(x):
    """The Airy function Ai for scalars (returns float) or arrays.

    Underflows smoothly to 0 for large positive arguments.
    """
    ai, _, scalar = _airy_pair(x)
    return float(ai) if scalar else ai


def airy_ai_prime(x):
    """Derivative Ai'(x), for scalars (returns float) or arrays.

    Restricted to |x| <= 4.5, which covers the turning-point region where
    the ground level lives.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > _PRIME_DOMAIN):
        raise ValueError(f"airy_ai_prime is implemented for |x| <= {_PRIME_DOMAIN}")
    _, aip, scalar = _airy_pair(arr)
    return float(aip) if scalar else aip


@lru_cache(maxsize=1)
def vee_ground_level() -> float:
    """Ground level of -chi'' + |zeta| chi = E chi: the negated first zero
    of Ai', located by root finding on :func:`airy_ai_prime`."""
    from scipy import optimize

    return float(-optimize.brentq(airy_ai_prime, -1.2, -0.9, xtol=1e-15))


# ---------------------------------------------------------------------------
# physical parameters and the reduced eigenproblem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BulletParams:
    """Rigid cubic body of mass ``mass_kg`` in a molecular line density.

    ``line_density_per_m`` is in SI (per meter).  ``velocity_m_s`` and
    ``center_m`` set the packet's mean velocity and position and do not
    affect any spread.
    """

    mass_kg: float = 0.01
    density_kg_m3: float = 7850.0  # steel
    barrier_j: float = 1.0
    line_density_per_m: float = 3.2e21  # 3.2e19 per cm
    velocity_m_s: float = 0.0
    center_m: float = 0.0

    def __post_init__(self):
        for name in ("mass_kg", "density_kg_m3", "barrier_j", "line_density_per_m"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
        for name in ("velocity_m_s", "center_m"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def half_side_m(self) -> float:
        """Half of the cube side, from mass and density."""
        return 0.5 * (self.mass_kg / self.density_kg_m3) ** (1.0 / 3.0)

    @property
    def slope_b(self) -> float:
        """Vee-potential slope b = m^2 c^2 / (a hbar^2), in 1/m^3."""
        return self.mass_kg**2 * C_LIGHT**2 / (self.half_side_m * HBAR**2)

    @property
    def momentum_kg_m_s(self) -> float:
        return self.mass_kg * self.velocity_m_s


@dataclass(frozen=True)
class VeeOperator:
    """Reduced collapse operator: prefactor * [(-i d/dx - p0/hbar)^2 + b|x - x0|]."""

    prefactor_j_m2: float
    slope_b: float
    x0_m: float
    p0_kg_m_s: float
    length_scale_m: float


def collapse_operator_vee(params: BulletParams) -> VeeOperator:
    a = params.half_side_m
    b = params.slope_b
    pref = (
        params.barrier_j
        * params.line_density_per_m
        * a
        * HBAR**2
        / (params.mass_kg**2 * C_LIGHT**2)
    )
    return VeeOperator(
        prefactor_j_m2=pref,
        slope_b=b,
        x0_m=params.center_m,
        p0_kg_m_s=params.momentum_kg_m_s,
        length_scale_m=(2.0 * b) ** (-1.0 / 3.0),
    )


@dataclass(frozen=True)
class GridSpec:
    """Uniform dimensionless grid zeta in [-half_width, half_width]."""

    half_width: float = 13.0
    num_points: int = 4001

    def __post_init__(self):
        if not math.isfinite(self.half_width):
            raise ValueError("half_width must be finite")
        if self.half_width <= 2.0:
            raise ValueError("half_width must exceed the packet's core region")
        if self.num_points < 101:
            raise ValueError("num_points too small for a meaningful grid")

    def zeta(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.num_points)


@dataclass
class WavePacket:
    """Complex amplitudes on a uniform position grid, discretely normalized."""

    grid: np.ndarray
    values: np.ndarray
    dx: float

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.grid.shape != self.values.shape:
            raise ValueError("grid and values must have equal length")
        norm = float(np.sum(np.abs(self.values) ** 2) * self.dx)
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"discrete norm {norm:.12g} is not 1")


def _closed_form_profile(zeta: np.ndarray) -> np.ndarray:
    chi = airy_ai(np.abs(zeta) - vee_ground_level())
    dz = zeta[1] - zeta[0]
    return chi / math.sqrt(float(np.sum(chi**2) * dz))


def _grid_profile(zeta: np.ndarray) -> tuple[np.ndarray, float]:
    """Ground state of the discretized -chi'' + |zeta| chi by inverse iteration."""
    from scipy.linalg import solve_banded

    n = zeta.size
    dz = zeta[1] - zeta[0]
    diag = 2.0 / dz**2 + np.abs(zeta)
    off = np.full(n - 1, -1.0 / dz**2)
    banded = np.zeros((3, n))
    banded[0, 1:] = off
    banded[1] = diag
    banded[2, :-1] = off

    def matvec(v):
        out = diag * v
        out[:-1] += off * v[1:]
        out[1:] += off * v[:-1]
        return out

    chi = np.exp(-0.5 * zeta**2)
    chi /= np.linalg.norm(chi)
    level = float(chi @ matvec(chi))
    for _ in range(200):
        chi = solve_banded((1, 1), banded, chi)
        chi /= np.linalg.norm(chi)
        new_level = float(chi @ matvec(chi))
        if abs(new_level - level) < 1e-14:
            level = new_level
            break
        level = new_level
    if chi[n // 2] < 0.0:
        chi = -chi
    return chi / math.sqrt(float(np.sum(chi**2) * dz)), level


GROUND_STATE_METHODS = ("closed_form", "finite_difference")


def ground_state(
    params: BulletParams,
    grid: GridSpec | None = None,
    method: str = "closed_form",
) -> tuple[WavePacket, float]:
    """Lowest vee-potential eigenstate in SI coordinates.

    Returns the packet and the dimensionless ground level of the reduced
    problem.  ``closed_form`` evaluates the shifted Airy profile;
    ``finite_difference`` solves the discretized eigenproblem and is the
    independent cross-check.  The grid must be wide enough that the profile
    has decayed below 1e-12 at the edges.
    """
    if method not in GROUND_STATE_METHODS:
        raise ValueError(f"unknown ground-state method {method!r}")
    grid = grid or GridSpec()
    zeta = grid.zeta()
    if method == "closed_form":
        chi = _closed_form_profile(zeta)
        level = vee_ground_level()
    else:
        chi, level = _grid_profile(zeta)
    if max(abs(float(chi[0])), abs(float(chi[-1]))) >= _EDGE_AMPLITUDE:
        raise ValueError(
            "grid too narrow: the packet has not decayed below "
            f"{_EDGE_AMPLITUDE} at the edges; widen half_width"
        )
    op = collapse_operator_vee(params)
    s = op.length_scale_m
    x = op.x0_m + s * zeta
    step_phase = abs(op.p0_kg_m_s) * s * (zeta[1] - zeta[0]) / HBAR
    if step_phase > math.pi:
        raise ValueError(
            "boost phase winds more than pi per grid step; the packet scale "
            "cannot resolve this velocity (reduce it or refine the grid)"
        )
    phase = np.exp(1j * op.p0_kg_m_s * x / HBAR)
    values = chi.astype(complex) * phase / math.sqrt(s)
    return WavePacket(x, values, s * (zeta[1] - zeta[0])), level


@dataclass(frozen=True)
class UncertaintyReport:
    a_m: float
    b_per_m3: float
    delta_x_formula_m: float
    delta_x_numeric_m: float
    delta_v_formula_m_s: float
    delta_v_numeric_m_s: float
    product_over_hbar_formula: float
    product_over_hbar_numeric: float


def uncertainties(params: BulletParams, grid: GridSpec | None = None) -> UncertaintyReport:
    """Position and velocity spreads of the collapse packet.

    The formula route evaluates the printed closed forms

        dx = (hbar^2 / (2 c^2 rho^(1/3)))^(1/3) * m^(-5/9)
        dv = (1/2) (2 hbar c^2 rho^(1/3))^(1/3) * m^(-4/9)

    (equivalently b^(-1/3) and hbar/(2 m dx)); the numeric route takes
    second moments of the finite-difference ground state and back-scales.
    Neither depends on the barrier height or the molecular density, which
    only set when collapses fire, not what they produce.
    """
    m = params.mass_kg
    rho = params.density_kg_m3
    dx_f = (HBAR**2 / (2.0 * C_LIGHT**2 * rho ** (1.0 / 3.0))) ** (1.0 / 3.0) * m ** (-5.0 / 9.0)
    dv_f = 0.5 * (2.0 * HBAR * C_LIGHT**2 * rho ** (1.0 / 3.0)) ** (1.0 / 3.0) * m ** (-4.0 / 9.0)

    grid = grid or GridSpec()
    zeta = grid.zeta()
    dz = float(zeta[1] - zeta[0])
    chi, _ = _grid_profile(zeta)
    mean = float(np.sum(zeta * chi**2) * dz)
    dzeta = math.sqrt(float(np.sum((zeta - mean) ** 2 * chi**2) * dz))
    dchi = np.gradient(chi, dz)
    dk = math.sqrt(float(np.sum(dchi**2) * dz))

    s = collapse_operator_vee(params).length_scale_m
    dx_n = s * dzeta
    dp_n = HBAR * dk / s
    dv_n = dp_n / m

    return UncertaintyReport(
        a_m=params.half_side_m,
        b_per_m3=params.slope_b,
        delta_x_formula_m=dx_f,
        delta_x_numeric_m=dx_n,
        delta_v_formula_m_s=dv_f,
        delta_v_numeric_m_s=dv_n,
        product_over_hbar_formula=m * dx_f * dv_f / HBAR,
        product_over_hbar_numeric=dx_n * dp_n / HBAR,
    )


def dominance_ratio(params: BulletParams) -> float:
    """Kinetic coefficient of the collapse operator over that of the
    body's own Hamiltonian: (eta n a / c^2) / (m / 2)."""
    return (
        2.0
        * params.barrier_j
        * params.line_density_per_m
        * params.half_side_m
        / (params.mass_kg * C_LIGHT**2)
    )


def bullet_report(params: BulletParams, grid: GridSpec | None = None) -> dict:
    """JSON-ready summary; the product entry is the numeric-moment one."""
    rep = uncertainties(params, grid)
    return {
        "a": rep.a_m,
        "b": rep.b_per_m3,
        "delta_x_formula": rep.delta_x_formula_m,
        "delta_x_numeric": rep.delta_x_numeric_m,
        "delta_v_formula": rep.delta_v_formula_m_s,
        "delta_v_numeric": rep.delta_v_numeric_m_s,
        "product_over_hbar": rep.product_over_hbar_numeric,
        "dominance_ratio": dominance_ratio(params),
    }
