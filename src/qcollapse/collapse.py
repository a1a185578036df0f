"""Collapse-basis determination, Born sampling, and collapse trajectories.

The system qubit's candidate bases live on the Bloch sphere, so a basis is
two angles (theta, phi).  Two independent routes produce a collapse basis:

* a brute-force scan that minimizes the weighted mean of the branch
  entanglement accelerations over the sphere, and
* the eigenbasis of the interaction Hamiltonian averaged over an
  environment state ("collapse operator"), which is expected to approach
  the scanned basis as the environment grows.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import core, entanglement

logger = logging.getLogger(__name__)

ZERO_WEIGHT_TOL = 1e-12
FLAT_LANDSCAPE_TOL = 1e-9
TIE_TOL = 1e-9
DEGENERACY_RTOL = 1e-10

EVENT_FIELDS = (
    "t_c",
    "theta",
    "phi",
    "weights",
    "outcome",
    "e_before",
    "e_after_ensemble",
    "e_after_actual",
    "rng_draw",
    "seed",
)


class CompletenessError(ValueError):
    """Measurement operators fail sum(M^dag M) = I beyond tolerance."""


@dataclass(frozen=True)
class CandidateBasis:
    """Orthonormal qubit basis pair parametrized by Bloch angles.

    ``A0 = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>`` and ``A1`` is the
    antipodal state in the same phase convention.
    """

    theta: float
    phi: float

    def state_pair(self) -> np.ndarray:
        """Rows are A0 and A1."""
        half = self.theta / 2.0
        ph = np.exp(1j * self.phi)
        return np.array(
            [
                [math.cos(half), ph * math.sin(half)],
                [math.sin(half), -ph * math.cos(half)],
            ],
            dtype=complex,
        )

    def bloch_axis(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )

    @classmethod
    def from_bloch_vector(cls, vec) -> "CandidateBasis":
        v = np.asarray(vec, dtype=float)
        r = float(np.linalg.norm(v))
        if r == 0.0:
            raise ValueError("zero Bloch vector has no direction")
        v = v / r
        theta = math.acos(min(1.0, max(-1.0, v[2])))
        phi = math.atan2(v[1], v[0]) % (2.0 * math.pi)
        return cls(theta, phi)


def canonical_angles(theta: float, phi: float) -> tuple[float, float]:
    """Fold arbitrary angles into theta in [0, pi], phi in [0, 2 pi)."""
    theta = theta % (2.0 * math.pi)
    if theta > math.pi:
        theta = 2.0 * math.pi - theta
        phi = phi + math.pi
    return theta, phi % (2.0 * math.pi)


def basis_axis_distance(a: CandidateBasis, b: CandidateBasis) -> float:
    """Angle in [0, pi/2] between the two basis axes (pair order ignored)."""
    dot = abs(float(np.dot(a.bloch_axis(), b.bloch_axis())))
    return math.acos(min(1.0, dot))


@dataclass(frozen=True)
class RelativeDecomposition:
    """State written as sum_i c_i |A_i>|E_i> with normalized env branches."""

    basis: CandidateBasis
    weights: np.ndarray
    env_states: np.ndarray
    zero_weight: tuple

    @property
    def n_env(self) -> int:
        return int(round(math.log2(self.env_states.shape[1])))

    def branch_state(self, i: int) -> np.ndarray:
        a = self.basis.state_pair()[i]
        return np.kron(a, self.env_states[i])

    def reconstruct(self) -> np.ndarray:
        rows = self.basis.state_pair()
        out = np.zeros(2 * self.env_states.shape[1], dtype=complex)
        for i in range(2):
            out += self.weights[i] * np.kron(rows[i], self.env_states[i])
        return out

    def born_probabilities(self) -> np.ndarray:
        return np.abs(self.weights) ** 2


def decompose(psi: core.StateVector, basis: CandidateBasis) -> RelativeDecomposition:
    """Relative-state decomposition of a register state in a qubit basis.

    Branch amplitudes are the norms of the partial projections, so they are
    real and nonnegative; each environment branch absorbs the phase.
    Branches below ``ZERO_WEIGHT_TOL`` get weight zero and a flagged
    placeholder environment vector.
    """
    mat = psi.amplitudes.reshape(2, -1)
    rows = basis.state_pair()
    weights = np.zeros(2)
    env = np.zeros((2, mat.shape[1]), dtype=complex)
    flags = []
    for i in range(2):
        proj = rows[i].conj() @ mat
        c = float(np.linalg.norm(proj))
        if c < ZERO_WEIGHT_TOL:
            weights[i] = 0.0
            env[i, 0] = 1.0  # placeholder, never weighted
            flags.append(True)
        else:
            weights[i] = c
            env[i] = proj / c
            flags.append(False)
    total = float(np.sum(weights**2))
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"branch weights sum to {total:.12g}, not 1")
    return RelativeDecomposition(basis, weights, env, tuple(flags))


def mean_entangling_acceleration(
    decomp: RelativeDecomposition,
    h: core.PauliTermSum,
    delta: float = entanglement.DEFAULT_ACCEL_STEP,
) -> float:
    """Born-weighted mean of the branch entanglement accelerations.

    ``delta`` must be at least ``entanglement.MIN_ACCEL_STEP``.
    """
    entanglement._check_accel_step(delta)
    coeffs = _scan_coefficients(_scan_tensors(decomp.reconstruct(), h, delta))
    return _scan_point(coeffs, decomp.basis.theta, decomp.basis.phi, delta)


def _scan_tensors(amps: np.ndarray, h: core.PauliTermSum, delta: float) -> tuple:
    """Inner products that score any candidate basis of ``amps`` in O(1).

    With ``M = amps.reshape(2, -1)`` the branch of a basis vector ``a`` is
    ``sum_pq a_p conj(a_q) / c * v_pq`` with ``v_pq = e_p (x) M_q``, so only
    the four ``v_pq`` are evolved, by ``delta`` and by ``2 delta``, through
    one :class:`core.Propagator` (one rotation into the eigenbasis, or one
    Lanczos basis per column, serves both offsets).  Their increments
    ``X_pq = U v_pq - v_pq`` are O(delta) and keep their relative
    precision.  Columns are evolved at unit norm (rescaling them would move
    the last digits of every scan) and zero columns are skipped.  Returns
    the reduced state ``rho = M M^H`` and, per offset, the (8, 8) Gram
    block ``<X[j], X[i]>`` and the (8, 2) block ``<X[j], M_q>``, where
    ``j = (p, q, s)`` runs over the system rows ``s`` of each ``X_pq``.
    """
    mat = amps.reshape(2, -1)
    vecs = np.zeros((2, 2, 2, mat.shape[1]), dtype=complex)  # (p, q, s, env)
    for p in range(2):
        vecs[p, :, p] = mat
    vecs = vecs.reshape(4, -1).T
    norms = np.linalg.norm(vecs, axis=0)
    live = norms > 0.0
    unit = vecs[:, live] / norms[live]
    prop = core.Propagator(unit, h)
    grams, crosses = [], []
    for step in (delta, 2.0 * delta):
        inc = np.zeros_like(vecs)
        inc[:, live] = (prop.propagate([step])[..., 0] - unit) * norms[live]
        x = inc.T.reshape(8, -1)
        grams.append(entanglement._inner(x, x))
        crosses.append(entanglement._inner(x, mat))
    return entanglement._inner(mat, mat).T, np.stack(grams), np.stack(crosses)


# a candidate row is a_p = r_p e^{i p phi}, each r_p given by its sine
# exponent and its sign: A0 has r = (cos, sin) of theta/2, A1 has
# r = (sin, -cos), and each is the other's partner
_ROWS = (((0, 1), (1.0, 1.0)), ((1, 0), (1.0, -1.0)))


def _fold_form(x: tuple, y: tuple, mat: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients of ``sum_ij conj(x_i) mat[i, j] y_j`` for two vectors
    whose entries are ``sign cos^(d-e) sin^e e^{i m phi}``, each vector given
    as ``(e, sign, m)`` arrays: one row of :func:`_scan_coefficients`,
    monomial-major, summed term by term in a fixed order."""
    (ex, sx, mx), (ey, sy, my) = x, y
    monomial = degree * degree // 4 - 1 + ex[:, None] + ey[None, :]
    index = (7 * monomial + 3 + my[None, :] - mx[:, None]).ravel()
    weight = (sx[:, None] * sy[None, :] * mat).ravel()
    return np.bincount(index, weight.real, 105) + 1j * np.bincount(index, weight.imag, 105)


def _scan_coefficients(tensors: tuple) -> np.ndarray:
    """Fold the scan tensors into one trigonometric polynomial per number
    the landscape reads.

    A candidate row is ``a_p = r_p e^{i p phi}`` with ``r`` one of
    ``(cos, sin)`` and ``(sin, -cos)`` of theta/2, and its partner ``b`` has
    the other.  With ``j = (p, q, s)`` the branch of row ``a`` has the
    vectors ``beta_j = a_p conj(a_q) conj(b_s)``, ``alpha_j = a_p conj(a_q)
    conj(a_s)`` and ``env_q = conj(a_q)``, each a monomial of degree 3 or 1
    in (cos, sin) times ``e^{i m phi}``, and then
    ``c^2 = a^H rho a`` (degree 2), ``c^2 |r1|^2 = beta^H G beta`` (degree 6)
    and ``c^2 <r1, r0> = beta^H (G alpha + C env)`` (degrees 6 and 4), with
    ``|m| <= 3``: the ``1/c`` of each branch vector is taken out and applied
    as ``1/c^2`` after the contraction.  Returns the coefficients as a
    complex (2, 5, 15, 7) array: branch, number (``c^2``, then the two
    Gram forms at delta and 2 delta, then the two overlaps),
    monomial (:func:`_monomials`) and harmonic ``m + 3``.  No coefficient
    goes through BLAS, so its bits do not depend on the thread count.
    """
    rho, grams, crosses = tensors
    j = np.arange(8)
    p, q, s = j >> 2, (j >> 1) & 1, j & 1
    two = np.arange(2)
    out = []
    for branch in range(2):
        (ea, sa), (eb, sb) = (map(np.array, _ROWS[k]) for k in (branch, 1 - branch))
        a = (ea, sa, two)
        env = (ea, sa, -two)
        alpha = (ea[p] + ea[q] + ea[s], sa[p] * sa[q] * sa[s], p - q - s)
        beta = (ea[p] + ea[q] + eb[s], sa[p] * sa[q] * sb[s], p - q - s)
        out.append(
            [_fold_form(a, a, rho, 2)]
            + [_fold_form(beta, beta, g, 6) for g in grams]
            + [_fold_form(beta, alpha, g, 6) + _fold_form(beta, env, c, 4)
               for g, c in zip(grams, crosses)]
        )
    return np.array(out).reshape(2, 5, 15, 7)


def _monomials(c, s) -> np.ndarray:
    """``c^(d-e) s^e`` for d = 2, 4, 6 and e = 0..d, along a new last axis
    of length 15; ``c`` and ``s`` are cos and sin of theta/2, as floats or
    arrays."""
    cp, sp = [1.0, c], [1.0, s]
    for _ in range(5):
        cp.append(cp[-1] * c)
        sp.append(sp[-1] * s)
    return np.array([cp[d - e] * sp[e] for d in (2, 4, 6) for e in range(d + 1)]).T


def _harmonics(z) -> np.ndarray:
    """``z^m`` for m = -3..3, along a new first axis of length 7; ``z`` is
    ``e^{i phi}``, as a complex or an array."""
    zp = [z**0, z, z * z]
    zp.append(zp[2] * z)
    return np.array([p.conjugate() for p in zp[:0:-1]] + zp)


def _scan_grid(
    coeffs: np.ndarray, thetas: np.ndarray, phis: np.ndarray, delta: float
) -> np.ndarray:
    """Mean branch acceleration on every cell of the grid ``thetas x phis``.

    The five numbers of each branch (:func:`_scan_coefficients`) are
    ``V(theta) K W(phi)`` with ``K = coeffs``, :func:`_monomials` as ``V``
    and :func:`_harmonics` as ``W``: two products with inner lengths 15 and
    7, whatever the grid size; the rest is elementwise.  Each branch
    ``a (x) env`` starts as a product state, so its acceleration is the
    one-sided stencil ``(S(2 delta) - 2 S(delta)) / delta**2``.  The evolved
    branch is read in the frame of the pair ``(a, b)``, and its entropy
    follows from the determinant ``(1 - |r1|^2) |r1|^2 - |<r1, r0>|^2``
    (:func:`entanglement._entropies_of_dets`).  Branches below
    ``ZERO_WEIGHT_TOL`` contribute nothing.
    """
    half = thetas / 2.0
    vals = (_monomials(np.cos(half), np.sin(half)) @ coeffs) @ _harmonics(np.exp(1j * phis))
    c2 = vals[:, 0].real
    live = c2 >= ZERO_WEIGHT_TOL**2
    weight = np.where(live, c2, 1.0)[:, None]
    r1_sq = vals[:, 1:3].real / weight
    s = entanglement._entropies_of_dets((1.0 - r1_sq) * r1_sq - np.abs(vals[:, 3:] / weight) ** 2)
    acc = np.where(live, c2 * (s[:, 1] - 2.0 * s[:, 0]) / delta**2, 0.0)
    return acc[0] + acc[1]


def _scan_point(coeffs: np.ndarray, theta: float, phi: float, delta: float) -> float:
    """:func:`_scan_grid` at one candidate: the same two products, and the
    same tail on four pairs of scalars (:func:`entanglement._entropy_of_det`)."""
    half = theta / 2.0
    v = _monomials(math.cos(half), math.sin(half))
    vals = (v @ coeffs) @ _harmonics(complex(math.cos(phi), math.sin(phi)))
    total = 0.0
    for c2, *numbers in vals.tolist():
        c2 = c2.real
        if not c2 >= ZERO_WEIGHT_TOL**2:
            continue
        s = []
        for r1_sq, overlap in zip(numbers[:2], numbers[2:]):
            r1_sq = r1_sq.real / c2
            s.append(entanglement._entropy_of_det((1.0 - r1_sq) * r1_sq - abs(overlap / c2) ** 2))
        total += c2 * (s[1] - 2.0 * s[0]) / delta**2
    return total


@dataclass(frozen=True)
class ScanSettings:
    n_theta: int = 64
    n_phi: int = 64
    accel_delta: float = entanglement.DEFAULT_ACCEL_STEP
    refine: bool = True

    def __post_init__(self):
        if self.n_theta < 2 or self.n_phi < 1:
            raise ValueError("scan grid must have at least 2 x 1 cells")
        entanglement._check_accel_step(self.accel_delta)


@dataclass
class ScanReport:
    theta_values: np.ndarray
    phi_values: np.ndarray
    mean_accelerations: np.ndarray
    flat: bool
    coarse_minimum: tuple
    minimum: tuple
    nm_evaluations: int = 0


def scan_collapse_basis(
    psi: core.StateVector,
    h: core.PauliTermSum,
    settings: ScanSettings | None = None,
) -> tuple[CandidateBasis, ScanReport]:
    """Minimize the mean branch acceleration over the Bloch sphere.

    The state's branch tensors (:func:`_scan_tensors`, eight evolved
    columns) are computed once and folded into one coefficient array
    (:func:`_scan_coefficients`); the grid and every Nelder-Mead evaluation
    read the landscape from it, so neither evolves anything.  A coarse grid
    locates the basin.  Grid ties
    within ``TIE_TOL`` break toward the smallest theta, then the smallest
    phi, so repeated scans are reproducible.  Nelder-Mead then polishes the
    minimum in the tangent plane ``n0 + x e1 + y e2`` at the best cell's
    Bloch axis ``n0``, from a simplex one grid step wide, so a minimum on a
    pole is as well conditioned as one on the equator.  A landscape whose
    grid spread is below ``FLAT_LANDSCAPE_TOL`` is flagged flat and returned
    unrefined.
    """
    settings = settings or ScanSettings()
    delta = settings.accel_delta
    coeffs = _scan_coefficients(_scan_tensors(psi.amplitudes, h, delta))
    thetas = np.linspace(0.0, math.pi, settings.n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, settings.n_phi, endpoint=False)
    values = _scan_grid(coeffs, thetas, phis, delta)

    vmin = float(values.min())
    vmax = float(values.max())
    flat = (vmax - vmin) < FLAT_LANDSCAPE_TOL

    tie = np.argwhere(values <= vmin + TIE_TOL)
    ti, pi_ = min((int(i), int(j)) for i, j in tie)  # smallest theta, then phi
    coarse = (float(thetas[ti]), float(phis[pi_]), float(values[ti, pi_]))

    best_theta, best_phi, best_val = coarse
    nm_evals = 0
    if settings.refine and not flat:
        # orthonormal frame at the cell: its axis and the theta and phi tangents
        n0 = CandidateBasis(best_theta, best_phi).bloch_axis()
        e1 = CandidateBasis(best_theta + 0.5 * math.pi, best_phi).bloch_axis()
        e2 = np.cross(n0, e1)

        def chart(x):
            return CandidateBasis.from_bloch_vector(n0 + x[0] * e1 + x[1] * e2)

        def objective(x):
            b = chart(x)
            return _scan_point(coeffs, b.theta, b.phi, delta)

        # scipy is imported where it is called, so that commands which never
        # refine a scan (`trace` among them) start without loading it
        from scipy import optimize

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
        nm_evals = int(res.nfev)
        if res.fun <= best_val:
            refined = chart(res.x)
            best_theta, best_phi = refined.theta, refined.phi
            best_val = float(res.fun)

    basis = CandidateBasis(best_theta, best_phi)
    report = ScanReport(
        theta_values=thetas,
        phi_values=phis,
        mean_accelerations=values,
        flat=flat,
        coarse_minimum=coarse,
        minimum=(best_theta, best_phi, best_val),
        nm_evaluations=nm_evals,
    )
    return basis, report


@dataclass(frozen=True)
class CollapseOperatorResult:
    matrix: np.ndarray
    eigenvalues: tuple
    basis: CandidateBasis | None
    degenerate: bool


def collapse_operator(
    h: core.PauliTermSum,
    env_state: np.ndarray | None = None,
    psi: core.StateVector | None = None,
) -> CollapseOperatorResult:
    """Interaction Hamiltonian averaged over an environment state.

    Exactly one of ``env_state`` (an explicit vector on the environment
    factor) or ``psi`` (a full register state whose reduced environment
    supplies the expectations) must be given.  The result is a 2 x 2
    Hermitian operator on the system qubit; when its Bloch vector vanishes
    relative to the interaction strength there is no preferred eigenbasis
    and the result is flagged degenerate with no basis claimed.
    """
    if (env_state is None) == (psi is None):
        raise ValueError("supply exactly one of env_state or psi")
    inter = h.interaction_terms()
    cmat = np.zeros((2, 2), dtype=complex)
    scale = 0.0
    if env_state is not None:
        env = np.asarray(env_state, dtype=complex).ravel()
        if env.size != 2 ** (h.num_sites - 1):
            raise ValueError("explicit environment vector has the wrong length")
        nrm = float(np.linalg.norm(env))
        if abs(nrm - 1.0) > 1e-8:
            raise ValueError("environment vector must be normalized")
    else:
        if psi.num_sites != h.num_sites:
            raise ValueError("state register does not match the operator")
    for term in inter:
        letter = term.string[core.SYSTEM_SITE]
        if env_state is not None:
            vec, string = env, term.string[1:]
        else:
            vec, string = psi.amplitudes, "I" + term.string[1:]
        env_op = core.PauliTermSum([(1.0, string)])
        val = complex(np.vdot(vec, core.apply_operator(env_op, vec)))
        cmat += term.coefficient * val.real * core.PAULI_MATRICES[letter]
        scale += abs(term.coefficient)

    bloch = np.array(
        [float(cmat[0, 1].real), float(-cmat[0, 1].imag), float(cmat[0, 0].real)]
    )
    r = float(np.linalg.norm(bloch))
    if scale == 0.0 or r <= DEGENERACY_RTOL * scale:
        return CollapseOperatorResult(cmat, (0.0, 0.0), None, True)
    basis = CandidateBasis.from_bloch_vector(bloch)
    return CollapseOperatorResult(cmat, (r, -r), basis, False)


@dataclass(frozen=True)
class ThresholdPolicy:
    """Collapse trigger: fire when the entangling speed reaches the threshold."""

    epsilon_dot_threshold: float
    check_interval: float

    def __post_init__(self):
        # entanglement can only be released, never forced, by shrinking, so
        # nonpositive thresholds are meaningless
        if not self.epsilon_dot_threshold > 0.0:
            raise ValueError("threshold must be strictly positive")
        if not (self.check_interval > 0.0 and math.isfinite(self.check_interval)):
            raise ValueError("check_interval must be positive and finite")


def check_threshold(epsilon_dot: float, policy: ThresholdPolicy) -> bool:
    """True when the speed is at or above the threshold (boundary fires)."""
    return epsilon_dot >= policy.epsilon_dot_threshold


@dataclass(frozen=True)
class SampleResult:
    outcome_index: int
    state: core.StateVector
    rng_draw: float


def _born_draw(probs: np.ndarray, rng: np.random.Generator) -> tuple[int, float]:
    """One uniform draw from ``rng`` and the outcome that the inverse Born
    CDF of ``probs`` picks for it: ``(outcome, draw)``."""
    cdf = np.cumsum(probs / probs.sum())
    u = float(rng.random())
    outcome = int(np.searchsorted(cdf, u, side="right"))
    return min(outcome, probs.size - 1), u


def _collapsed(decomp: RelativeDecomposition, outcome: int) -> core.StateVector:
    return core.StateVector(decomp.branch_state(outcome), normalize=True)


def sample_outcome(decomp: RelativeDecomposition, rng: np.random.Generator) -> SampleResult:
    """Inverse-CDF Born sampling; returns the collapsed product state."""
    outcome, u = _born_draw(decomp.born_probabilities(), rng)
    return SampleResult(outcome, _collapsed(decomp, outcome), u)


@dataclass(frozen=True)
class CollapseEvent:
    """Record of one collapse along a trajectory."""

    t_c: float
    basis: CandidateBasis
    born_weights: tuple
    outcome_index: int
    e_before: float
    e_after_ensemble: float
    e_after_actual: float
    rng_draw: float

    def __post_init__(self):
        total = sum(self.born_weights)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"Born weights sum to {total:.12g}, not 1")
        if not 0 <= self.outcome_index < len(self.born_weights):
            raise ValueError("outcome index out of range")

    def to_json_dict(self, seed: int) -> dict:
        return {
            "t_c": self.t_c,
            "theta": self.basis.theta,
            "phi": self.basis.phi,
            "weights": list(self.born_weights),
            "outcome": self.outcome_index,
            "e_before": self.e_before,
            "e_after_ensemble": self.e_after_ensemble,
            "e_after_actual": self.e_after_actual,
            "rng_draw": self.rng_draw,
            "seed": seed,
        }


def events_to_jsonl(events, seed: int) -> str:
    """One JSON object per line, fixed key order."""
    lines = [json.dumps(e.to_json_dict(seed)) for e in events]
    return "".join(line + "\n" for line in lines)


BASIS_METHODS = ("scan", "collapse_operator", "auto")


def _check_basis_method(method: str) -> None:
    if method not in BASIS_METHODS:
        raise ValueError(f"unknown basis method {method!r} (known: {', '.join(BASIS_METHODS)})")


def determine_basis(
    state: core.StateVector,
    h: core.PauliTermSum,
    method: str,
    scan_settings: ScanSettings,
) -> tuple[CandidateBasis | None, str, bool]:
    """Collapse basis of ``state`` by ``method``: the one selection rule.

    ``scan`` minimizes the mean branch acceleration; ``collapse_operator``
    (and its alias ``auto``) takes the collapse operator's eigenbasis and
    falls back to the scan when the operator is degenerate.  Returns
    ``(basis, method_used, fell_back)``; ``basis`` is None when the scanned
    landscape is flat, and each caller decides what a flat scan means.
    A method outside ``BASIS_METHODS`` raises ``ValueError``.
    """
    _check_basis_method(method)
    operator_first = method in ("collapse_operator", "auto")
    if operator_first:
        result = collapse_operator(h, psi=state)
        if not result.degenerate:
            return result.basis, "collapse_operator", False
        logger.info("collapse operator degenerate; falling back to basis scan")
    basis, report = scan_collapse_basis(state, h, scan_settings)
    return (None if report.flat else basis), "scan", operator_first


class _Node:
    """One outcome prefix of a :class:`HistoryTree`: its state, the trace
    rows of its segment, its event (``basis`` is None on a leaf) and one
    child per outcome visited so far."""

    __slots__ = ("t0", "state", "e_actual", "rows", "k", "basis", "decomp", "probs",
                 "e_before", "e_after", "children", "final")

    def __init__(self, t0: float, state: core.StateVector, e_actual):
        self.t0 = t0  # time of the state: 0 at the root, else the parent's t_c
        self.state = state
        self.e_actual = e_actual  # energy of the collapsed branch (None at the root)
        self.children: dict[int, _Node] = {}
        self.final = None  # the state at t_max, once a leaf is asked for it


class HistoryTree:
    """All trajectories of one start state, operator, policy and basis rule,
    as a tree of outcome prefixes.

    A trajectory is deterministic between Born draws, so its state after a
    prefix of outcomes depends on the prefix alone.  A node (one prefix) is
    evolved, scanned and energy-audited once, when a walk first reaches it.
    Its segment is a run of the sampling loop shared with
    :func:`entanglement.compute_trace` (``ceil(t_max / check_interval)``
    steps of ``policy.check_interval`` in all, speed in closed form), from
    the node's state up to the first crossing whose basis
    :func:`determine_basis` finds; a flat scan skips the crossing.  There
    the node decomposes the state and keeps the Born weights and the
    energies before and after collapse (ensemble).  A child per outcome
    starts from the collapsed branch and resumes the loop at the next
    sample.  Event times are grid times; no sub-step root polishing is
    attempted.

    :meth:`walk` reads one trajectory off the tree, with one draw per
    event; :meth:`final_state` evolves a leaf's state to ``t_max`` once.
    ``nodes`` counts the nodes built so far.  Walks of one tree from
    several threads take turns.
    """

    def __init__(
        self,
        initial: core.StateVector,
        h: core.PauliTermSum,
        policy: ThresholdPolicy,
        t_max: float,
        basis_method: str = "auto",
        scan_settings: ScanSettings | None = None,
        accel_delta: float = entanglement.DEFAULT_ACCEL_STEP,
        model_tag: str = "custom",
    ):
        _check_basis_method(basis_method)
        if t_max <= 0.0:
            raise ValueError("t_max must be positive")
        self.initial, self.h, self.policy, self.t_max = initial, h, policy, t_max
        self.basis_method = basis_method
        self.scan_settings = scan_settings or ScanSettings()
        self.accel_delta = accel_delta
        self.model_tag = model_tag
        self.steps = int(math.ceil(t_max / policy.check_interval - 1e-12))
        self.nodes = 0
        self._root = None
        self._lock = threading.Lock()

    def _event_basis(self, t: float, state: core.StateVector, epsilon_dot: float):
        if not check_threshold(epsilon_dot, self.policy):
            return None
        basis, _, _ = determine_basis(state, self.h, self.basis_method, self.scan_settings)
        if basis is None:
            logger.warning("flat basis landscape; collapse event skipped")
        return basis

    def _grow(self, start, state: core.StateVector) -> _Node:
        """The node whose state sits at sample ``start`` (None: the root,
        at t = 0), with its segment and its event evaluated."""
        # imported here: energy builds on the decomposition types above
        from . import energy as energy_mod

        dt = self.policy.check_interval
        if start is None:
            node = _Node(0.0, state, None)
        else:
            node = _Node(start * dt, state, energy_mod.energy_before(state, self.h))
        node.rows, node.k, psi, node.basis = entanglement._sample(
            state, self.h, dt, self.steps, self.accel_delta, start, self._event_basis
        )
        if node.basis is not None:
            node.decomp = decompose(psi, node.basis)
            node.probs = node.decomp.born_probabilities()
            node.e_before = energy_mod.energy_before(psi, self.h)
            node.e_after = energy_mod.energy_after_ensemble(node.decomp, self.h)
        self.nodes += 1
        return node

    def walk(self, seed: int) -> tuple[entanglement.EntanglementTrace, list, _Node]:
        """The trajectory of ``seed``: ``(trace, events, leaf)``.

        The draws come from a Philox generator seeded by ``seed``, one per
        event and in order, through :func:`sample_outcome`'s arithmetic, so
        every walk returns the trace and events of the sampling loop run
        with that seed, bit for bit.
        """
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        dt = self.policy.check_interval
        events: list[CollapseEvent] = []
        with self._lock:
            if self._root is None:
                self._root = self._grow(None, self.initial)
            node = self._root
            segments = [node.rows]
            while node.basis is not None:
                outcome, u = _born_draw(node.probs, rng)
                child = node.children.get(outcome)
                if child is None:
                    child = self._grow(node.k, _collapsed(node.decomp, outcome))
                    node.children[outcome] = child
                events.append(
                    CollapseEvent(
                        t_c=node.k * dt,
                        basis=node.basis,
                        born_weights=tuple(float(p) for p in node.probs),
                        outcome_index=outcome,
                        e_before=node.e_before,
                        e_after_ensemble=node.e_after,
                        e_after_actual=child.e_actual,
                        rng_draw=u,
                    )
                )
                node = child
                segments.append(node.rows)
        rows = (np.concatenate([seg[i] for seg in segments]) for i in range(3))
        trace = entanglement.EntanglementTrace(
            np.arange(self.steps + 1) * dt, *rows, self.model_tag, self.initial.n_env
        )
        return trace, events, node

    def final_state(self, leaf: _Node) -> core.StateVector:
        """A leaf's state evolved from its collapse (or from t = 0) to
        ``t_max`` by one :func:`core.evolve`, computed once per leaf."""
        if leaf.basis is not None:
            raise ValueError("only a leaf of the tree has a final state")
        with self._lock:
            if leaf.final is None:
                leaf.final = core.evolve(leaf.state, self.h, self.t_max - leaf.t0)
            return leaf.final


def run_trajectory(
    initial: core.StateVector,
    h: core.PauliTermSum,
    policy: ThresholdPolicy,
    t_max: float,
    seed: int,
    basis_method: str = "auto",
    scan_settings: ScanSettings | None = None,
    accel_delta: float = entanglement.DEFAULT_ACCEL_STEP,
    model_tag: str = "custom",
) -> tuple[entanglement.EntanglementTrace, list[CollapseEvent]]:
    """Evolve, checking the threshold on a fixed grid; collapse on crossings.

    One walk of a fresh :class:`HistoryTree`, which holds the rules: the
    sampling loop over ``ceil(t_max / check_interval)`` steps of
    ``policy.check_interval``; on a crossing the basis of
    :func:`determine_basis` (a flat scan skips the event), the
    decomposition, one Born draw, the energy audit, and the product branch
    as the state from there on.  Runs are deterministic given the seed and
    step sizes.  Trials that share a start state and settings walk one
    tree instead, so their shared prefixes are computed once.
    """
    tree = HistoryTree(initial, h, policy, t_max, basis_method, scan_settings,
                       accel_delta, model_tag)
    trace, events, _ = tree.walk(seed)
    return trace, events


def detector_unitary(c_click: complex) -> np.ndarray:
    """Joint unitary for a two-level detector absorbing a photon.

    Factor order is (field, detector) with field basis {vacuum, photon} and
    detector basis {unclick, click}: |photon, unclick> rotates partially
    into |vacuum, click> with amplitude ``c_click``.
    """
    p = abs(c_click) ** 2
    if p > 1.0:
        raise ValueError("|c_click| must be <= 1")
    root = math.sqrt(1.0 - p)
    u = np.eye(4, dtype=complex)
    # indices: 1 = |vacuum, click>, 2 = |photon, unclick>
    u[1, 1] = root
    u[2, 1] = -np.conj(c_click)
    u[1, 2] = c_click
    u[2, 2] = root
    return u


def derive_measurement_operators(
    joint_unitary: np.ndarray,
    ready_state: np.ndarray,
    collapse_basis: np.ndarray,
    atol: float = 1e-9,
) -> list[np.ndarray]:
    """Measurement operators on the measured factor of a joint unitary.

    The joint space is ordered kron(measured system, apparatus).  For each
    apparatus basis vector ``B_m``, ``M_m = (I (x) <B_m|) U (I (x) |ready>)``.
    The set must satisfy sum(M^dag M) = I; a violation beyond ``atol``
    raises :class:`CompletenessError` naming the residual norm, which is the
    signature of a non-unitary input.
    """
    u = np.asarray(joint_unitary, dtype=complex)
    basis = np.asarray(collapse_basis, dtype=complex)
    ready = np.asarray(ready_state, dtype=complex).ravel()
    d_a = ready.size
    if basis.shape != (d_a, d_a):
        raise ValueError("collapse basis must be d_A orthonormal rows of length d_A")
    if np.max(np.abs(basis @ basis.conj().T - np.eye(d_a))) > 1e-10:
        raise ValueError("collapse basis rows are not orthonormal")
    if abs(np.linalg.norm(ready) - 1.0) > 1e-10:
        raise ValueError("ready state must be normalized")
    if u.shape[0] != u.shape[1] or u.shape[0] % d_a != 0:
        raise ValueError("joint unitary size is not a multiple of the apparatus size")
    d_s = u.shape[0] // d_a
    if d_s > 16 or d_a > 16:
        raise ValueError("dense path supports factor dimensions up to 16")

    u4 = u.reshape(d_s, d_a, d_s, d_a)
    ops = [np.einsum("a,iajb,b->ij", basis[m].conj(), u4, ready) for m in range(d_a)]
    total = sum(m.conj().T @ m for m in ops)
    residual = float(np.max(np.abs(total - np.eye(d_s))))
    if residual > atol:
        raise CompletenessError(
            f"sum(M^dag M) deviates from identity by {residual:.3e}; "
            "the joint operator is not unitary on the ready sector"
        )
    return ops
