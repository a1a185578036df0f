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

import functools
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
# the scan's Newton refine: at most this many objective evaluations, and no
# step whose first-order change of the objective is below this, relative
# to max(1, |f|), is tried (the objective's roundoff could not confirm it)
NEWTON_MAX_EVALS = 40
NEWTON_DECREASE_TOL = 1e-12

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
        x = inc.T.reshape(1, 8, -1)
        grams.append(entanglement._gram(x, x)[0].T)
        crosses.append(entanglement._gram(mat[None], x)[0].T)
    return entanglement._gram(mat[None], mat[None])[0], np.stack(grams), np.stack(crosses)


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


@functools.cache
def _theta_derivatives() -> np.ndarray:
    """``(I, D, D^2)`` side by side, (15, 45), where ``dV/dtheta = V D`` for
    :func:`_monomials`' ``V``: the theta-derivative of ``m(d, e) =
    cos^(d-e) sin^e`` of theta/2 is ``(e m(d, e-1) - (d-e) m(d, e+1)) / 2``,
    of the same degree."""
    out = np.zeros((15, 15))
    for d in (2, 4, 6):
        base = d * d // 4 - 1
        for e in range(d + 1):
            if e > 0:
                out[base + e - 1, base + e] = e / 2.0
            if e < d:
                out[base + e + 1, base + e] = -(d - e) / 2.0
    out = np.hstack([np.eye(15), out, out @ out])
    out.flags.writeable = False  # every caller shares the cached array
    return out


# a jet is (f, f_t, f_p, f_tt, f_tp, f_pp): a value and its partial
# derivatives up to second order in (theta, phi)


def _jet_product(x: tuple, y: tuple) -> tuple:
    """Jet of ``x * y``."""
    x0, x1, x2, x11, x12, x22 = x
    y0, y1, y2, y11, y12, y22 = y
    return (
        x0 * y0,
        x1 * y0 + x0 * y1,
        x2 * y0 + x0 * y2,
        x11 * y0 + 2.0 * x1 * y1 + x0 * y11,
        x12 * y0 + x1 * y2 + x2 * y1 + x0 * y12,
        x22 * y0 + 2.0 * x2 * y2 + x0 * y22,
    )


def _jet_chain(x: tuple, value, slope, curvature) -> tuple:
    """Jet of ``g(x)`` from g's value, first and second derivative at x's
    value."""
    _, x1, x2, x11, x12, x22 = x
    return (
        value,
        slope * x1,
        slope * x2,
        curvature * x1 * x1 + slope * x11,
        curvature * x1 * x2 + slope * x12,
        curvature * x2 * x2 + slope * x22,
    )


def _entropy_slopes(d: float) -> tuple[float, float, float]:
    """:func:`entanglement._entropy_of_det` at ``d`` and its first two
    derivatives in d, of the function as implemented: 0 where d is clipped
    to [0, 1/4] or the entropy to 0, and below ``EIG_CUTOFF`` the
    derivatives of ``-(1 - lam) ln(1 - lam)`` alone, so that a product
    branch (lam = 0) has slope 1, not ``ln((1 - lam) / lam) = inf``."""
    s = entanglement._entropy_of_det(d)
    if not (0.0 < d < 0.25 and s > 0.0):
        return s, 0.0, 0.0
    root = math.sqrt(1.0 - 4.0 * d)
    lam = 2.0 * d / (1.0 + root)  # dlam/dd = 1 / root, d2lam/dd2 = 2 / root**3
    if lam > entanglement.EIG_CUTOFF:
        slope, curve = math.log1p(-lam) - math.log(lam), -1.0 / lam - 1.0 / (1.0 - lam)
    else:
        slope, curve = math.log1p(-lam) + 1.0, -1.0 / (1.0 - lam)
    return s, slope / root, (curve + 2.0 * slope / root) / root**2


def _scan_derivatives(coeffs: np.ndarray, theta: float, phi: float, delta: float) -> tuple:
    """:func:`_scan_point` with its partial derivatives up to second order
    in (theta, phi), as a jet ``(f, f_t, f_p, f_tt, f_tp, f_pp)``.

    ``V(theta) K W(phi)`` has closed-form partials in the same bases:
    ``dV/dtheta = V D`` (:func:`_theta_derivatives`) and ``dW/dphi = i m W``.
    They are chained through ``r = R / c^2``, ``o = O / c^2``, the
    determinant ``d = (1 - r) r - |o|^2`` and the entropy
    (:func:`_entropy_slopes`: ``dS/dd = ln((1 - lam) / lam) / sqrt(1 - 4 d)``
    above the cutoff); a branch below ``ZERO_WEIGHT_TOL`` contributes
    nothing, as in the value.
    """
    half = theta / 2.0
    v = (_monomials(math.cos(half), math.sin(half)) @ _theta_derivatives()).reshape(3, 15)
    m = np.arange(-3, 4)[:, None]
    w = _harmonics(complex(math.cos(phi), math.sin(phi)))[:, None] * (1j * m) ** np.arange(3)
    blocks = (v @ coeffs) @ w
    total = (0.0,) * 6
    for branch in blocks.tolist():  # (number, theta order, phi order)
        c2, *numbers = (
            (b[0][0], b[1][0], b[0][1], b[2][0], b[1][1], b[0][2]) for b in branch
        )
        c2 = tuple(x.real for x in c2)
        if not c2[0] >= ZERO_WEIGHT_TOL**2:
            continue
        inverse = _jet_chain(c2, 1.0 / c2[0], -1.0 / c2[0] ** 2, 2.0 / c2[0] ** 3)
        s = []
        for gram, overlap in zip(numbers[:2], numbers[2:]):
            r = _jet_product(tuple(x.real for x in gram), inverse)
            o = _jet_product(overlap, inverse)
            d = [a - b - c.real for a, b, c in
                 zip(r, _jet_product(r, r), _jet_product(tuple(x.conjugate() for x in o), o))]
            s.append(_jet_chain(d, *_entropy_slopes(d[0])))
        acc = _jet_product(c2, tuple(b - 2.0 * a for a, b in zip(*s)))
        total = tuple(t + a / delta**2 for t, a in zip(total, acc))
    return total


def _newton_step(jet: tuple, radius: float) -> tuple[float, float]:
    """Newton step from a jet of the objective, on its Hessian with the
    eigenvalues made positive (their magnitudes, floored at 1e-8 of the
    largest; a zero Hessian gives the gradient step), cut to ``radius``."""
    _, g1, g2, a, b, c = jet
    mean, half_gap = (a + c) / 2.0, math.hypot((a - c) / 2.0, b)
    angle = 0.5 * math.atan2(2.0 * b, a - c)  # the larger eigenvalue's axis
    cos, sin = math.cos(angle), math.sin(angle)
    lam1, lam2 = abs(mean + half_gap), abs(mean - half_gap)
    floor = 1e-8 * max(lam1, lam2) or 1.0
    along = (cos * g1 + sin * g2) / max(lam1, floor)
    across = (cos * g2 - sin * g1) / max(lam2, floor)
    step = (sin * across - cos * along, -sin * along - cos * across)
    size = math.hypot(*step)
    return (step[0] * radius / size, step[1] * radius / size) if size > radius else step


def _equator_frame(basis: CandidateBasis) -> np.ndarray:
    """Unitary ``R`` whose columns are the system basis of a frame in which
    ``basis``'s axis lies on the equator, at theta = pi/2 and phi = 0:
    ``R A0(pi/2, 0) = A0`` of ``basis``."""
    a0, a1 = basis.state_pair()
    return np.stack([a0 + a1, a0 - a1], axis=1) / math.sqrt(2.0)


def _rotated_tensors(tensors: tuple, rot: np.ndarray) -> tuple:
    """:func:`_scan_tensors` of the same state and Hamiltonian read in the
    system frame whose basis is ``rot``'s columns: a candidate ``a`` there
    is ``rot @ a`` here.  Each of the indices p, q and s of ``j = (p, q,
    s)`` gets ``rot`` (p) or its conjugate (q, s), as do rho's and the
    overlaps' system indices; nothing is evolved again."""
    rho, grams, crosses = tensors
    t = np.kron(np.kron(rot.T, rot.conj().T), rot.conj().T)
    return (
        np.einsum("pa,pq,qb->ab", rot.conj(), rho, rot),
        np.einsum("ja,kab,ib->kji", t.conj(), grams, t),
        np.einsum("ja,kab,bq->kjq", t.conj(), crosses, rot.conj()),
    )


def _newton_refine(
    tensors: tuple, coarse: CandidateBasis, delta: float, radius: float
) -> tuple[CandidateBasis | None, int]:
    """Minimize the landscape of ``tensors`` from the ``coarse`` basis by
    trust-region Newton steps on :func:`_scan_derivatives`.

    The tensors are rotated (:func:`_rotated_tensors`) so that the coarse
    axis sits at theta = pi/2, phi = 0, and folded once more; there the
    (theta, phi) chart is regular within the trust radius (one grid step)
    even when the coarse cell is a pole.  A step is accepted only if it
    strictly lowers the objective, and a rejected one is halved.  Returns
    the refined basis in the original frame, or None when no step was
    accepted, and the number of objective evaluations.
    """
    rot = _equator_frame(coarse)
    coeffs = _scan_coefficients(_rotated_tensors(tensors, rot))
    theta, phi = 0.5 * math.pi, 0.0
    jet = _scan_derivatives(coeffs, theta, phi, delta)
    evals, moved = 1, False
    while evals < NEWTON_MAX_EVALS:
        step = _newton_step(jet, radius)
        change = abs(jet[1] * step[0] + jet[2] * step[1])
        if not change > NEWTON_DECREASE_TOL * max(1.0, abs(jet[0])):
            break
        trial = _scan_derivatives(coeffs, theta + step[0], phi + step[1], delta)
        evals += 1
        if trial[0] < jet[0]:
            theta, phi, jet, moved = theta + step[0], phi + step[1], trial, True
        else:
            radius = math.hypot(*step) / 2.0
    if not moved:
        return None, evals
    a = rot @ CandidateBasis(theta, phi).state_pair()[0]
    z = a[0].conjugate() * a[1]
    bloch = [2.0 * z.real, 2.0 * z.imag, abs(a[0]) ** 2 - abs(a[1]) ** 2]
    return CandidateBasis.from_bloch_vector(bloch), evals


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
    # objective evaluations of the refine, each a value with its gradient
    # and Hessian; the benchmark's layer tracer reads the field by this name
    nm_evaluations: int = 0


def scan_collapse_basis(
    psi: core.StateVector,
    h: core.PauliTermSum,
    settings: ScanSettings | None = None,
) -> tuple[CandidateBasis, ScanReport]:
    """Minimize the mean branch acceleration over the Bloch sphere.

    The state's branch tensors (:func:`_scan_tensors`, eight evolved
    columns) are computed once and folded into one coefficient array
    (:func:`_scan_coefficients`); the grid and the refine read the
    landscape from the tensors, so neither evolves anything.  A coarse grid
    locates the basin.  Grid ties within ``TIE_TOL`` break toward the
    smallest theta, then the smallest phi, so repeated scans are
    reproducible.  Newton steps on the landscape's closed-form derivatives
    then polish the minimum (:func:`_newton_refine`), in a frame where the
    best cell lies on the equator, so a minimum on or near a pole is as well
    conditioned as one on the equator.  The reported minimum is
    :func:`_scan_point` at the returned basis; the coarse cell is kept when
    no step lowers the objective.  ``ScanReport.nm_evaluations`` counts the
    refine's objective evaluations (0 when it does not run).  A landscape
    whose grid spread is below ``FLAT_LANDSCAPE_TOL`` is flagged flat and
    returned unrefined.
    """
    settings = settings or ScanSettings()
    delta = settings.accel_delta
    tensors = _scan_tensors(psi.amplitudes, h, delta)
    coeffs = _scan_coefficients(tensors)
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
    evals = 0
    if settings.refine and not flat:
        step = float(thetas[1] - thetas[0])
        refined, evals = _newton_refine(tensors, CandidateBasis(best_theta, best_phi), delta, step)
        if refined is not None:
            value = _scan_point(coeffs, refined.theta, refined.phi, delta)
            if value <= best_val:
                best_theta, best_phi, best_val = refined.theta, refined.phi, value

    basis = CandidateBasis(best_theta, best_phi)
    report = ScanReport(
        theta_values=thetas,
        phi_values=phis,
        mean_accelerations=values,
        flat=flat,
        coarse_minimum=coarse,
        minimum=(best_theta, best_phi, best_val),
        nm_evaluations=evals,
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

    def _event_basis(self, t: float, state, epsilon_dot: float):
        # the sampling loop builds the sample's state only when asked
        if not check_threshold(epsilon_dot, self.policy):
            return None
        basis, _, _ = determine_basis(state(), self.h, self.basis_method, self.scan_settings)
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
