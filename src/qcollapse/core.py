"""Qubit-register states, Pauli-string operators, and unitary time evolution.

Conventions used throughout the package:

* site 0 of every register is the distinguished system qubit; sites 1..N
  are environment spins,
* amplitudes are stored with site 0 as the most significant bit, so that
  ``amps.reshape([2] * num_sites)[b0, b1, ..., bN]`` indexes per-site bits,
* couplings and times are dimensionless (hbar = 1).

Every Pauli string acts as a signed permutation of the computational basis.
Each operator builds its apply plan once, on first use: one entry per
distinct flip mask, a strided view reversed on the flipped sites and the
summed signed factor of the strings with that mask.  The apply,
:meth:`PauliTermSum.dense` and :meth:`PauliTermSum.diagonal` all read it.

All time evolution goes through :class:`Propagator`, over one state or the
columns of a block; :func:`evolve` and :func:`evolve_times` are one query on
a fresh one.  The operator picks the path: pure phases for diagonal
operators, the cached dense eigendecomposition up to ``EIGEN_SITE_LIMIT``
sites (one rotation into the eigenbasis per propagator), and above that a
matrix-free Lanczos propagator (Saad, SIAM J. Numer. Anal. 29, 209 (1992);
Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1911 (1997)) with one basis per
column.  Every evolution query answers with the bits of the same query on a
fresh propagator.  :meth:`Propagator.moments` also gives ``H psi_t`` and
``H^2 psi_t`` at every offset as one (k, 3, dim) block, which the entropy's
closed-form derivatives read, so one propagator and one query serve a whole
window of trace samples (``entanglement._sample``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

SYSTEM_SITE = 0

# Largest register evolved through the cached dense eigendecomposition;
# larger non-diagonal operators go through the Lanczos propagator.  At 8
# and 9 sites `np.linalg.eigh` returns eigenvectors that differ between one
# and two OpenBLAS threads inside degenerate eigenspaces, so payloads there
# moved with the thread count; Lanczos does not.  A 51-sample
# `compute_trace` (eigh included, one BLAS thread, 2-vCPU x86_64 VM, medians
# of 5) from |+> takes 11.7 ms dense against 7.8 ms Lanczos at 8 sites and
# 47.5 against 11.4 ms at 9; at 3-7 sites Lanczos is 1.2-2.7x slower.
EIGEN_SITE_LIMIT = 7

# Largest register dense() materializes (a 2^12 x 2^12 float64 matrix is
# 128 MiB).
DENSE_SITE_LIMIT = 12

_NORM_ATOL = 1e-8

# Lanczos propagator: at most this many basis vectors per step; Saad's error
# estimate (dimensionless, so it does not depend on the operator's scale)
# relative to the norm of the start vector; steps longer than
# coefficient_scale() * |t| = 4 are split, and a trace window spans at most
# that reach.
_KRYLOV_MAX_VECTORS = 40
_KRYLOV_TOL = 1e-15
_KRYLOV_MAX_REACH = 4.0
# rows a Lanczos basis allocates at a time: a 0.02 step from |+> on 13
# sites takes 12 vectors, 1.5 MB.  Room for all 40 at once would put a
# 13-site basis past numpy's 4 MiB huge-page threshold, whose 2 MB pages
# raised peak RSS by about 1 MB where 13 rows were written
_KRYLOV_CHUNK = 12

SYSTEM_ONLY = "system"
ENV_ONLY = "environment"
INTERACTION = "interaction"

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


class IntegrationError(RuntimeError):
    """Raised when an evolution loses unitarity or the Krylov step fails."""


def _num_sites_for(length: int) -> int:
    n = int(round(math.log2(length)))
    if n < 1 or 2**n != length:
        raise ValueError(f"amplitude length {length} is not a power of two >= 2")
    return n


class StateVector:
    """Normalized complex amplitudes over a tensor product of qubits."""

    __slots__ = ("amplitudes", "num_sites")

    def __init__(self, amplitudes, normalize: bool = False):
        amps = np.asarray(amplitudes, dtype=complex).ravel()
        n = _num_sites_for(amps.size)
        norm = float(np.linalg.norm(amps))
        if not math.isfinite(norm):
            raise ValueError("amplitudes must be finite")
        if normalize:
            if norm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            amps = amps / norm
        elif not abs(norm - 1.0) <= _NORM_ATOL:
            raise ValueError(f"state norm {norm:.12g} is not 1 within {_NORM_ATOL}")
        self.amplitudes = amps
        self.num_sites = n

    @property
    def n_env(self) -> int:
        """Number of environment spins (register size minus the system qubit)."""
        return self.num_sites - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        """Squared overlap |<self|other>|^2."""
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)

    @classmethod
    def computational(cls, bits) -> "StateVector":
        """Basis state |b0 b1 ... bN> for a sequence of 0/1 bits."""
        bits = list(bits)
        idx = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            idx = 2 * idx + b
        amps = np.zeros(2 ** len(bits), dtype=complex)
        amps[idx] = 1.0
        return cls(amps)

    @classmethod
    def from_site_states(cls, site_states) -> "StateVector":
        """Tensor product of normalized single-site vectors (site 0 first)."""
        vecs = [np.asarray(v, dtype=complex).ravel() for v in site_states]
        for v in vecs:
            if v.size != 2:
                raise ValueError("each site state must have length 2")
        return cls(reduce(np.kron, vecs), normalize=True)

    @classmethod
    def uniform_plus(cls, num_sites: int) -> "StateVector":
        """|+>^(num_sites), the equal superposition of all bit strings."""
        if num_sites < 1:
            raise ValueError("num_sites must be >= 1")
        dim = 2**num_sites
        return cls(np.full(dim, 1.0 / math.sqrt(dim), dtype=complex))


def spin_state(theta: float, phi: float = 0.0) -> np.ndarray:
    """Single spin state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    return np.array(
        [math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)],
        dtype=complex,
    )


@dataclass(frozen=True)
class BipartiteSplit:
    """One distinguished degree of freedom (site 0) versus the rest."""

    system_site: int
    env_sites: tuple

    def __post_init__(self):
        if self.system_site != SYSTEM_SITE:
            raise ValueError("the system qubit is fixed at site 0")
        if self.system_site in self.env_sites:
            raise ValueError("system site cannot also be an environment site")
        expected = tuple(range(1, len(self.env_sites) + 1))
        if tuple(sorted(self.env_sites)) != expected:
            raise ValueError("environment sites must cover 1..N exactly once")

    @classmethod
    def for_register(cls, num_sites: int) -> "BipartiteSplit":
        return cls(SYSTEM_SITE, tuple(range(1, num_sites)))

    @property
    def num_sites(self) -> int:
        return 1 + len(self.env_sites)


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite d x d matrix."""

    __slots__ = ("entries",)

    _HERMITIAN_ATOL = 1e-12
    _TRACE_ATOL = 1e-10
    _EIG_FLOOR = -1e-10

    def __init__(self, entries):
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > self._HERMITIAN_ATOL:
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > self._TRACE_ATOL:
            raise ValueError(f"density matrix trace {tr:.12g} is not 1")
        m = 0.5 * (m + m.conj().T)
        if float(np.min(np.linalg.eigvalsh(m))) < self._EIG_FLOOR:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        self.entries = m

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))


@dataclass(frozen=True)
class PauliTerm:
    coefficient: float
    string: str
    partition: str


def _classify(string: str) -> str:
    on_system = string[SYSTEM_SITE] != "I"
    on_env = any(c != "I" for c in string[1:])
    if on_system and on_env:
        return INTERACTION
    if on_system:
        return SYSTEM_ONLY
    # all-identity terms are constant offsets; grouped with the environment
    return ENV_ONLY


class PauliTermSum:
    """Hermitian operator as a weighted sum of Pauli strings.

    Terms are tagged by which side of the system/environment split they act
    on.  Instances are immutable after construction; spectral data is cached
    lazily, which makes repeated evolutions under the same operator cheap.
    """

    __slots__ = ("terms", "num_sites", "is_diagonal", "_scale", "_diag", "_eig", "_plan")

    def __init__(self, terms, num_sites: int | None = None):
        packed = []
        for coeff, string in terms:
            if isinstance(coeff, complex) and abs(coeff.imag) > 1e-12:
                raise ValueError(
                    f"coefficient {coeff} is not real; only Hermitian sums are supported"
                )
            c = float(np.real(coeff))
            if not math.isfinite(c):
                raise ValueError("coefficients must be finite")
            s = str(string).upper()
            if any(ch not in "IXYZ" for ch in s):
                raise ValueError(f"invalid Pauli string {string!r}")
            packed.append((c, s))
        lengths = {len(s) for _, s in packed}
        if len(lengths) > 1:
            raise ValueError("all Pauli strings must have the same length")
        if lengths:
            inferred = lengths.pop()
            if num_sites is not None and num_sites != inferred:
                raise ValueError("num_sites disagrees with the Pauli strings")
            num_sites = inferred
        if num_sites is None:
            raise ValueError("num_sites is required for an empty term list")
        if num_sites < 1:
            raise ValueError("num_sites must be >= 1")

        self.terms = tuple(
            PauliTerm(c, s, _classify(s)) for c, s in packed
        )
        self.num_sites = int(num_sites)
        self.is_diagonal = all(set(t.string) <= {"I", "Z"} for t in self.terms)
        self._scale = float(sum(abs(t.coefficient) for t in self.terms))
        self._diag = None
        self._eig = None
        self._plan = None

    @property
    def dim(self) -> int:
        return 2**self.num_sites

    def system_terms(self) -> tuple:
        return tuple(t for t in self.terms if t.partition == SYSTEM_ONLY)

    def environment_terms(self) -> tuple:
        return tuple(t for t in self.terms if t.partition == ENV_ONLY)

    def interaction_terms(self) -> tuple:
        return tuple(t for t in self.terms if t.partition == INTERACTION)

    def coefficient_scale(self) -> float:
        """Upper bound on the spectral norm: sum of |coefficients|."""
        return self._scale

    def diagonal(self) -> np.ndarray:
        """Diagonal of the operator in the computational basis (I/Z terms only)."""
        if not self.is_diagonal:
            raise ValueError("operator has off-diagonal terms")
        if self._diag is None:
            diag = np.zeros(self.dim)
            for _, _, _, factor in self._apply_plan():  # at most the flip-0 entry
                diag += np.reshape(factor, -1)
            self._diag = diag
        return self._diag

    def dense(self) -> np.ndarray:
        """Materialize the full matrix (small registers only).

        Row ``r`` holds each entry's factor of the apply plan
        (:meth:`_apply_plan`) in column ``r ^ flip``, so the build is one
        scatter-add per flip mask, not Kronecker products.  The matrix is
        float64 when every string has an even number of Y (both named
        models) and complex otherwise.  Each call builds a fresh matrix;
        nothing keeps it.
        """
        if self.num_sites > DENSE_SITE_LIMIT:
            raise ValueError(
                f"refusing to materialize a {self.dim} x {self.dim} matrix"
            )
        cols, _ = _sign_table(self.num_sites)
        real = all(t.string.count("Y") % 2 == 0 for t in self.terms)
        h = np.zeros((self.dim, self.dim), dtype=float if real else complex)
        for flip, _, _, factor in self._apply_plan():
            h[cols, cols ^ flip] += np.reshape(factor, -1)
        return h

    def _apply_plan(self) -> tuple:
        """Cached ``(flip, shape, reverse, factor)`` per distinct flip mask.

        A Pauli string is a signed permutation of the computational basis:
        row ``r`` of ``H v`` gains ``c * i^#Y * (-1)^popcount(g & yz) * v[g]``
        with ``g = r ^ flip``, where ``flip`` marks the X/Y sites and ``yz``
        the Y/Z sites.  Strings with the same flip mask read the same
        ``v[r ^ flip]``, so the plan keeps one entry per mask, in the order
        of the mask's first nonzero term: ``v.reshape(shape)[reverse]`` is
        a strided view that reads ``v[r ^ flip]`` at ``r``
        (:func:`_flip_view`), and ``factor`` is the sum, in term order, of
        the group's signed factors per row, shaped ``shape``, or the scalar
        ``c * i^#Y`` sum when no string in the group has a Y or Z.  A factor
        is float64 when every string in the group has an even number of Y
        and complex otherwise.

        The plan holds no index array, only one ``dim``-length factor per
        mask with a Y or Z: for ``transverse_coupled`` the all-Z diagonal
        (64 KB at 13 sites, 0.5 MB at 16) and n scalars.  It is built on
        first use and kept for the operator's lifetime.
        """
        if self._plan is None:
            n = self.num_sites
            cols, signs = _sign_table(n)
            groups = {}  # flip mask -> summed factor, in order of first appearance
            for t in self.terms:
                if t.coefficient == 0.0:
                    continue
                flip, yz = _string_masks(t.string)
                n_y = t.string.count("Y")
                phase = (-1.0) ** (n_y // 2) * (1j if n_y % 2 else 1.0)
                factor = t.coefficient * phase
                if yz:
                    factor = factor * signs[(cols ^ flip) & yz]
                groups[flip] = groups[flip] + factor if flip in groups else factor
            plan = []
            for flip, factor in groups.items():
                shape, reverse = _flip_view(flip, n)
                if np.ndim(factor):
                    factor = factor.reshape(shape)
                    factor.flags.writeable = False
                plan.append((flip, shape, reverse, factor))
            self._plan = tuple(plan)
        return self._plan

    def eigensystem(self):
        """Cached (eigenvalues, eigenvectors) of the dense matrix.

        A real Hamiltonian (no string with an odd number of Y) gets the
        real-symmetric ``eigh`` and real eigenvectors.  Only the eigensystem
        is cached: the matrix itself is built for ``eigh`` and dropped.
        """
        if self._eig is None:
            evals, evecs = np.linalg.eigh(self.dense())
            self._eig = (evals, evecs)
        return self._eig


def _flip_view(flip: int, num_sites: int) -> tuple[tuple, tuple]:
    """The shape that merges each run of neighbouring sites alike in
    ``flip`` into one axis, and the index that reverses its flipped axes.

    Reversing an axis of ``2^r`` entries flips all r bits of its run, so
    ``v.reshape(shape)[reverse]`` reads ``v[r ^ flip]`` at ``r`` with at
    most one reversed axis per run of flipped sites.
    """
    shape, reverse = [], []
    for k in range(num_sites):
        flipped = bool(flip >> (num_sites - 1 - k) & 1)
        if reverse and (reverse[-1].step == -1) == flipped:
            shape[-1] *= 2
        else:
            shape.append(2)
            reverse.append(slice(None, None, -1 if flipped else None))
    return tuple(shape), tuple(reverse)


def _string_masks(string: str) -> tuple[int, int]:
    """Bit masks of the X/Y sites (flipped) and the Y/Z sites (signed)."""
    flip = yz = 0
    for k, ch in enumerate(string):
        bit = 1 << (len(string) - 1 - k)  # site 0 is the most significant bit
        if ch in "XY":
            flip |= bit
        if ch in "YZ":
            yz |= bit
    return flip, yz


@lru_cache(maxsize=4)
def _sign_table(num_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only basis indices and ``(-1)^popcount(x)`` for every bit pattern x."""
    cols = np.arange(2**num_sites)
    parity = np.zeros(cols.size, dtype=cols.dtype)
    for k in range(num_sites):
        parity ^= (cols >> k) & 1
    signs = 1.0 - 2.0 * parity
    cols.flags.writeable = False
    signs.flags.writeable = False
    return cols, signs


def _apply_terms(op: PauliTermSum, amps: np.ndarray) -> np.ndarray:
    """H applied to a vector or to the columns of a (dim, m) block.

    One pass per flip mask of the operator's apply plan
    (:meth:`PauliTermSum._apply_plan`), in its order: on the entry's
    ``shape`` (a trailing ``(m,)`` for a block), ``out += factor *
    amps[reverse]``, one multiply into a scratch array and one add, where
    ``amps[reverse]`` is a strided view reversed on the flipped sites, so
    no index array is read.  A scalar factor of 1.0 skips its multiply,
    which is exact.  An operator whose strings have distinct flip masks
    gets the products and sums of applying its strings one by one, in term
    order; strings that share a mask have their factors summed first.
    """
    block = amps.shape[1:]
    out = np.zeros(amps.shape, dtype=amps.dtype)  # C order: each reshape is a view
    tmp = np.empty_like(out)
    for _, shape, reverse, factor in op._apply_plan():
        flipped = amps.reshape(shape + block)[reverse]
        acc = out.reshape(shape + block)
        if not isinstance(factor, np.ndarray):
            if factor == 1.0:
                acc += flipped
                continue
        elif block:
            factor = factor[..., None]
        scratch = tmp.reshape(shape + block)
        np.multiply(factor, flipped, out=scratch)
        acc += scratch
    return out


def apply_operator(op: PauliTermSum, psi) -> np.ndarray:
    """H |psi>, term by term, without materializing the matrix.

    Returns the raw (generally unnormalized) amplitude array.
    """
    amps = psi.amplitudes if isinstance(psi, StateVector) else np.asarray(psi, dtype=complex)
    if amps.size != op.dim:
        raise ValueError(
            f"operator on {op.num_sites} sites applied to a length-{amps.size} state"
        )
    return _apply_terms(op, amps)


def expectation(op: PauliTermSum, psi) -> float:
    """<psi|H|psi> for a normalized state; the imaginary residue must be tiny."""
    amps = psi.amplitudes if isinstance(psi, StateVector) else np.asarray(psi, dtype=complex)
    val = complex(np.vdot(amps, apply_operator(op, amps)))
    if abs(val.imag) > 1e-8 * max(1.0, abs(val)):
        raise ValueError(f"expectation value {val} has a non-Hermitian residue")
    return float(val.real)


class _LanczosBasis:
    """The Lanczos basis of one vector under H, grown only as far as asked.

    The basis is orthogonalized in full, twice per vector.  A query for the
    offsets ``times`` takes the smallest size m at which Saad's estimate
    ``beta_m |t| |e_m^T exp(-i T_m t) e_1|`` of the error is at most
    ``_KRYLOV_TOL`` times ``|amps|`` for every t, growing the basis by one
    operator apply per size it has not reached yet; the small exponential
    comes from ``eigh`` of the tridiagonal ``T_m``, kept per size.  The
    estimate is that of the scaled operator ``-i H t``: ``beta_m`` carries
    the units of H, and ``beta_m |t| <= coefficient_scale() |t| <= 4``
    keeps it above the roundoff of the small exponential whatever the
    operator's scale.  A query's answer, one (dim, m) x (m, k) product,
    therefore does not depend on what was asked before it, while every
    apply is paid once.  The vectors are the leading rows of one array
    with room for ``_KRYLOV_CHUNK`` more at a time: a vector past the room
    moves the rows, by a copy, into a new array with that many spare rows
    (at most ``_KRYLOV_MAX_VECTORS`` in all).
    """

    __slots__ = ("h", "dim", "scale", "vectors", "tri", "betas", "spectra", "_residual")

    def __init__(self, amps: np.ndarray, h: PauliTermSum):
        self.h = h
        self.dim = amps.size
        self.scale = float(np.linalg.norm(amps))
        self.betas = []  # beta_m, the norm of the residual after m applies
        self.spectra = []  # eigh(T_m)
        if self.scale != 0.0:
            self.vectors = np.empty((_KRYLOV_CHUNK, amps.size), dtype=complex)
            self.vectors[0] = amps / self.scale
            self.tri = np.zeros((_KRYLOV_MAX_VECTORS, _KRYLOV_MAX_VECTORS))

    def _grow(self) -> None:
        """One operator apply: the basis goes from m - 1 to m vectors."""
        m = len(self.betas) + 1
        if m > 1:
            beta = self.betas[-1]
            if m > len(self.vectors):
                # a copy, not ndarray.resize: that refuses while anything
                # else, a tracer's frame included, refers to the array
                rows = min(m - 1 + _KRYLOV_CHUNK, _KRYLOV_MAX_VECTORS)
                grown = np.empty((rows, self.dim), dtype=complex)
                grown[:m - 1] = self.vectors[:m - 1]
                self.vectors = grown
            self.vectors[m - 1] = self._residual / beta
            self.tri[m - 1, m - 2] = self.tri[m - 2, m - 1] = beta
        basis = self.vectors[:m]
        w = _apply_terms(self.h, basis[m - 1])
        for _ in range(2):
            proj = (basis @ w.conj()).conj()
            w -= proj @ basis
            self.tri[m - 1, m - 1] += proj[m - 1].real
        self.betas.append(float(np.linalg.norm(w)))
        self.spectra.append(np.linalg.eigh(self.tri[:m, :m]))
        self._residual = w

    def _size(self, times: np.ndarray, least: int):
        """The smallest size m >= ``least`` (or at a breakdown, beta_m = 0)
        whose error estimate passes for every offset, with the coefficients
        ``exp(-i T_m t_j) e_1`` as (m, k)."""
        for m in range(1, _KRYLOV_MAX_VECTORS + 1):
            if m > len(self.betas):
                self._grow()
            evals, evecs = self.spectra[m - 1]
            coeffs = evecs @ (evecs[0][:, None] * np.exp(-1j * np.outer(evals, times)))
            estimate = self.betas[m - 1] * float(np.max(np.abs(times * coeffs[-1]), initial=0.0))
            if estimate <= _KRYLOV_TOL and (m >= least or self.betas[m - 1] == 0.0):
                return m, coeffs
        raise IntegrationError(
            f"Krylov step did not converge: Lanczos error estimate {estimate:.3g} "
            f"after {_KRYLOV_MAX_VECTORS} vectors (|t| up to {np.max(np.abs(times)):.6g})"
        )

    def propagate(self, times: np.ndarray) -> np.ndarray:
        """exp(-i H t_j) amps for every t_j, as (dim, k)."""
        if self.scale == 0.0:
            return np.zeros((self.dim, times.size), dtype=complex)
        m, coeffs = self._size(times, 1)
        return self.scale * (self.vectors[:m].T @ coeffs)

    def moments(self, times: np.ndarray) -> np.ndarray:
        """``H^p exp(-i H t_j) amps`` for p = 0, 1, 2, as (k, 3, dim).

        ``scale * V_m T_m^p y`` with ``y = exp(-i T_m t) e_1``: since
        ``H V_m = V_m T_m + beta_m v_{m+1} e_m^T``, this drops terms led by
        ``beta_m |e_m^T y|``, the error estimate over ``|t|``.  At least
        three vectors are taken, so the offset t = 0 gives H psi and
        H^2 psi exactly.
        """
        if self.scale == 0.0:
            return np.zeros((times.size, 3, self.dim), dtype=complex)
        m, _ = self._size(times, 3)
        evals, evecs = self.spectra[m - 1]
        weights = evecs[0][:, None] * np.exp(-1j * np.outer(evals, times))
        powers = weights[:, :, None] * evals[:, None, None] ** np.arange(3)
        out = (evecs @ powers.reshape(m, -1)).T @ self.vectors[:m]
        out *= self.scale
        return out.reshape(times.size, 3, self.dim)


def _krylov_times(amps: np.ndarray, h: PauliTermSum, times, basis: _LanczosBasis,
                  moments: bool = False) -> np.ndarray:
    """exp(-i H t_j) amps for every t_j, as (dim, k); with ``moments``,
    ``H^p exp(-i H t_j) amps`` for p = 0, 1, 2, as (k, 3, dim).

    ``basis`` is the Lanczos basis at ``amps``.  All offsets share it when
    ``coefficient_scale() * |t|`` is at most 4 for each; otherwise every
    offset is reached on its own by equal substeps that each stay within
    that bound, the first from ``basis`` and the rest from fresh bases, and
    the last substep's basis answers the query.
    """
    times = np.asarray(times, dtype=float)
    scale = h.coefficient_scale()
    if not math.isfinite(scale):
        raise IntegrationError(f"operator scale {scale} is not finite")
    query = _LanczosBasis.moments if moments else _LanczosBasis.propagate
    if scale * np.max(np.abs(times), initial=0.0) <= _KRYLOV_MAX_REACH:
        return query(basis, times)
    out = []
    for t in times:
        steps = math.ceil(scale * abs(t) / _KRYLOV_MAX_REACH)
        sub = np.array([t / max(steps, 1)])
        at = basis
        for _ in range(steps - 1):
            at = _LanczosBasis(at.propagate(sub)[:, 0], h)
        # the zero offset evolves nothing: the start vector itself
        out.append(query(at, sub) if steps or moments else amps[:, None])
    return np.concatenate(out, axis=0 if moments else 1)


def _to_eigenbasis(evecs: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``evecs^H @ block`` without copying or casting the eigenvector matrix.

    numpy casts a real matrix to complex before multiplying it by a complex
    block.  With real eigenvectors the real and imaginary parts of the block
    instead go through one real GEMM as stacked rows, ``[re; im]^T @ evecs``.
    """
    if np.iscomplexobj(evecs):
        return (evecs.T @ block.conj()).conj()
    b = block.reshape(block.shape[0], -1)
    m = b.shape[1]
    z = np.concatenate([b.real.T, b.imag.T]) @ evecs
    out = np.empty(b.shape, dtype=complex)
    out.real = z[:m].T
    out.imag = z[m:].T
    return out.reshape(block.shape)


def _from_eigenbasis(evecs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``evecs @ coeffs`` over the first axis, without casting the
    eigenvector matrix.

    The trailing axes of ``coeffs`` are flattened into the columns of one
    product.  With real eigenvectors that is one real GEMM on the float64
    view of the coefficients, whose columns interleave real and imaginary
    parts.
    """
    c = np.ascontiguousarray(coeffs)
    if np.iscomplexobj(evecs):
        return (evecs @ c.reshape(c.shape[0], -1)).reshape(c.shape)
    prod = evecs @ c.view(np.float64).reshape(c.shape[0], -1)
    return prod.view(complex).reshape(c.shape)


def _path(h: PauliTermSum) -> str:
    if h.is_diagonal:
        return "diagonal"
    if h.num_sites <= EIGEN_SITE_LIMIT:
        return "dense"
    return "krylov"


def _finite_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float).ravel()
    if not all(map(math.isfinite, times.tolist())):
        raise ValueError("times must be finite")
    return times


def _unit_columns(out: np.ndarray) -> np.ndarray:
    # per-column BLAS norms: an axis reduction sums sequentially, and its
    # roundoff, different in every column, would leak into the stencils'
    # entropy differences; a drift past 1e-10 raises
    cols = out.reshape(out.shape[0], -1)
    nrm = np.array([float(np.linalg.norm(col)) for col in cols.T])
    # argmax takes a NaN norm first, and no NaN passes the comparison
    worst = float(nrm[np.argmax(np.abs(nrm - 1.0))])
    if not abs(worst - 1.0) <= 1e-10:
        raise IntegrationError(f"evolution drifted the norm to {worst:.12g}")
    return (cols / nrm).reshape(out.shape)


def evolve(psi: StateVector, h: PauliTermSum, dt: float) -> StateVector:
    """exp(-i H dt) |psi>, by one query on a fresh :class:`Propagator`.

    Diagonal operators are advanced by pure phases; other operators use a
    cached dense eigendecomposition up to ``EIGEN_SITE_LIMIT`` sites and a
    matrix-free Lanczos propagator beyond that.  On the dense path the
    state is rotated into the eigenbasis and back by real GEMMs when the
    eigenvectors are real, so the d x d matrix is neither copied nor cast.
    The Lanczos basis grows until Saad's a-posteriori error estimate for
    ``-i H dt`` is at most 1e-15 of the state's norm, and evolutions with
    ``coefficient_scale() * |dt| > 4`` are split into equal substeps; a
    step that does not converge within 40 basis vectors raises
    :class:`IntegrationError`, as does a norm drift beyond 1e-10 (a NaN
    included).  Several queries on one state are cheaper on one kept
    :class:`Propagator`, which returns the same bits.
    """
    return Propagator(psi, h).evolve(dt)


def evolve_times(psi: StateVector, h: PauliTermSum, times) -> np.ndarray:
    """exp(-i H t_j) |psi> for every offset ``t_j``, as a (dim, k) block.

    One query on a fresh :class:`Propagator`: the dense path rotates all k
    phased copies back from the eigenbasis in one matrix product, and above
    ``EIGEN_SITE_LIMIT`` one Lanczos basis serves every offset through one
    (dim, m) x (m, k) product (offsets beyond ``coefficient_scale() * |t| =
    4`` are substepped one by one).  Every column is renormalized; a column
    whose norm drifted by more than 1e-10 raises :class:`IntegrationError`.
    """
    return Propagator(psi, h).evolve_times(times)


class Propagator:
    """exp(-i H t) applied to one state, or to the columns of a (dim, m)
    block, for any number of queries.

    This is the only propagation route.  What the queries share is computed
    once, on construction: on the dense path the coefficients in the cached
    eigenbasis (one rotation of the whole block), above ``EIGEN_SITE_LIMIT``
    one Lanczos basis per column, grown only as far as the hardest query so
    far has needed.  Each answer equals, bit for bit, the same query on a
    fresh propagator: every query takes the smallest basis that converges
    for its own offsets, and every dense product keeps its width.  A
    propagator holds its state and operator and nothing else, so it lives
    only as long as the caller keeps it; there is no cache beyond it.
    """

    __slots__ = ("h", "method", "_amps", "_coeffs", "_bases")

    def __init__(self, psi, h: PauliTermSum):
        amps = psi.amplitudes if isinstance(psi, StateVector) else np.asarray(psi, dtype=complex)
        if amps.ndim not in (1, 2) or amps.shape[0] != h.dim:
            raise ValueError(
                f"amplitudes of shape {amps.shape} evolved by an operator on {h.num_sites} sites"
            )
        self.h = h
        self.method = _path(h)
        self._amps = amps
        # the amplitudes in the eigenbasis of the path (diagonal: as given)
        self._coeffs = _to_eigenbasis(h.eigensystem()[1], amps) if self.method == "dense" else amps
        self._bases = None  # Krylov path: one Lanczos basis per column
        if self.method == "krylov":
            self._bases = [_LanczosBasis(col, h) for col in ([amps] if amps.ndim == 1 else amps.T)]

    def propagate(self, times) -> np.ndarray:
        """exp(-i H t_j) applied for every offset, not renormalized.

        The offsets run along a new last axis: (dim, k) for a state,
        (dim, m, k) for a block.
        """
        times = _finite_times(times)
        amps = self._amps
        if self.method == "krylov":
            cols = [amps] if amps.ndim == 1 else list(amps.T)
            out = [_krylov_times(c, self.h, times, b) for c, b in zip(cols, self._bases)]
            return out[0] if amps.ndim == 1 else np.stack(out, axis=1)
        if self.method == "diagonal":
            return amps[..., None] * self._phases(self.h.diagonal(), times)
        evals, evecs = self.h.eigensystem()
        return _from_eigenbasis(evecs, self._coeffs[..., None] * self._phases(evals, times))

    def moments(self, times) -> np.ndarray:
        """``H^p exp(-i H t_j) |psi>`` for p = 0, 1, 2 and every offset, as
        (k, 3, dim), not renormalized (a propagator over a state only).

        Each offset's three vectors are contiguous rows.  Diagonal path: the
        phases times ``d^p``.  Dense path: one product back from the
        eigenbasis of the coefficients times ``[1, E, E^2]`` and the phases.
        Above ``EIGEN_SITE_LIMIT``: the state's Lanczos basis
        (:meth:`_LanczosBasis.moments`) takes every offset at once within
        ``coefficient_scale() * |t| = 4``; beyond it each offset is reached
        by equal substeps, as in :meth:`propagate`.
        """
        times = _finite_times(times)
        if self._amps.ndim != 1:
            raise ValueError("moments are taken of a state, not of a block")
        if self.method == "krylov":
            return _krylov_times(self._amps, self.h, times, self._bases[0], moments=True)
        energies = self.h.diagonal() if self.method == "diagonal" else self.h.eigensystem()[0]
        terms = self._coeffs * energies ** np.arange(3)[:, None]
        out = np.exp(-1j * np.outer(times, energies))[:, None] * terms
        if self.method == "dense":
            out = np.ascontiguousarray(_from_eigenbasis(self.h.eigensystem()[1], out.T).T)
        return out

    def _phases(self, energies: np.ndarray, times: np.ndarray) -> np.ndarray:
        phases = np.exp(-1j * (energies[:, None] * times))
        return phases if self._amps.ndim == 1 else phases[:, None]

    def evolve_times(self, times) -> np.ndarray:
        """:meth:`propagate` with every column renormalized; a column whose
        norm drifted by more than 1e-10 raises :class:`IntegrationError`."""
        return _unit_columns(self.propagate(times))

    def evolve(self, dt: float) -> StateVector:
        """The state exp(-i H dt) |psi> (a propagator over a state only)."""
        if not math.isfinite(dt):
            raise ValueError("dt must be finite")
        return StateVector(self.evolve_times([dt])[..., 0])


def partial_trace_system(psi: StateVector, split: BipartiteSplit | None = None) -> DensityMatrix:
    """Reduced 2 x 2 density matrix of the system qubit."""
    if split is None:
        split = BipartiteSplit.for_register(psi.num_sites)
    if split.num_sites != psi.num_sites:
        raise ValueError("split does not match the register size")
    m = psi.amplitudes.reshape(2, -1)
    return DensityMatrix(m @ m.conj().T)


def _site_string(letters: dict, num_sites: int) -> str:
    chars = ["I"] * num_sites
    for site, letter in letters.items():
        chars[site] = letter
    return "".join(chars)


def degenerate_ising(n_env: int, g: float = 1.0) -> PauliTermSum:
    """Uniform Z0-Zk couplings with strength g and no self terms.

    All terms commute, so the evolution is exactly periodic with period
    2*pi/g, which is what the revival experiment exploits.
    """
    if n_env < 1:
        raise ValueError("n_env must be >= 1")
    n = n_env + 1
    terms = [(g, _site_string({0: "Z", k: "Z"}, n)) for k in range(1, n)]
    return PauliTermSum(terms)


def transverse_coupled(n_env: int) -> PauliTermSum:
    """Transverse self terms on every site plus uniform Z0-Zk couplings."""
    if n_env < 1:
        raise ValueError("n_env must be >= 1")
    n = n_env + 1
    terms = [(1.0, _site_string({0: "X"}, n))]
    terms += [(1.0, _site_string({0: "Z", k: "Z"}, n)) for k in range(1, n)]
    terms += [(1.0, _site_string({k: "X"}, n)) for k in range(1, n)]
    return PauliTermSum(terms)


def build_hamiltonian(
    model: str,
    n_env: int | None = None,
    g: float = 1.0,
    terms=None,
) -> PauliTermSum:
    """Construct one of the named spin models, or a custom term list.

    ``custom`` takes explicit ``terms``; an empty list is the zero operator
    and then needs ``n_env`` to fix the register size.
    """
    key = model.strip().lower()
    if key == "degenerate_ising":
        return degenerate_ising(_require_n_env(n_env), g)
    if key == "transverse_coupled":
        return transverse_coupled(_require_n_env(n_env))
    if key == "custom":
        if terms:
            return PauliTermSum(terms)
        return PauliTermSum([], num_sites=_require_n_env(n_env) + 1)
    raise ValueError(
        f"unknown model {model!r} (known models: custom, degenerate_ising, "
        "transverse_coupled)"
    )


def _require_n_env(n_env: int | None) -> int:
    if n_env is None or n_env < 1:
        raise ValueError("this model requires n_env >= 1")
    return n_env
