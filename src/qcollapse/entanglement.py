"""Von Neumann entropy of the system qubit and its first two time derivatives.

Entropy is reported in nats throughout; the rate formulas then carry no
base-conversion factors.  The entropy is a function of the reduced state's
Gram determinant alone, and every system entropy comes from one
determinant-to-entropy rule (:func:`_entropy_of_det`, and its array twin
for the basis-scan grid).  Every Gram entry, of one state or of a whole
window of samples, comes from one chunked kernel (:func:`_gram`).  The
speed and acceleration are closed forms in psi, H psi and H^2 psi
(:func:`_rates`), whose determinant also gives the sample's entropy.  At a
product state, exactly where collapse dynamics operates, the speed is 0 and
the acceleration infinite, so there the acceleration is the one-sided
second difference of the entropies of exact short evolutions, by the same
rule (:func:`_stencils`).  The sampling loop (:func:`_sample`) makes one
pass per window of samples: one moments query, one kernel call for every
sample's rates and norm, and one stencil query for its product states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import core

LN2 = math.log(2.0)

# eigenvalues below this contribute 0 to -sum(lam * ln(lam))
EIG_CUTOFF = 1e-12

DEFAULT_ACCEL_STEP = 1e-3
# smallest acceleration stencil step: below it the delta**-2 division turns
# entropy roundoff into noise
MIN_ACCEL_STEP = 1e-8
# below this entropy (nats) a sample counts as a product state, whose
# acceleration comes from the one-sided stencil
PRODUCT_ENTROPY = 1e-9

TRACE_COLUMNS = ("t", "epsilon", "epsilon_dot", "epsilon_ddot")


def entropy_from_eigenvalues(eigenvalues) -> float:
    lams = np.asarray(eigenvalues, dtype=float)
    lams = lams[lams > EIG_CUTOFF]
    if lams.size == 0:
        return 0.0
    return max(0.0, float(-np.sum(lams * np.log(lams))))


def entropy(rho) -> float:
    """Von Neumann entropy -sum(lam * ln(lam)) in nats."""
    if not isinstance(rho, core.DensityMatrix):
        rho = core.DensityMatrix(rho)
    return entropy_from_eigenvalues(rho.eigenvalues())


def _entropy_of_det(d: float) -> float:
    """Entropy of a qubit state whose Gram determinant (the product of its
    eigenvalues) is ``d``, clipped to [0, 1/4].

    The small eigenvalue ``lam = 2 d / (1 + sqrt(1 - 4 d))`` keeps d's
    digits, where ``(1 - sqrt(1 - 4 d)) / 2`` cancels near a product state.
    """
    d = min(max(d, 0.0), 0.25)
    lam = 2.0 * d / (1.0 + math.sqrt(1.0 - 4.0 * d))
    small = -lam * math.log(lam) if lam > EIG_CUTOFF else 0.0
    return max(small - (1.0 - lam) * math.log1p(-lam), 0.0)


def _entropies_of_dets(d: np.ndarray) -> np.ndarray:
    """:func:`_entropy_of_det` elementwise, by the same arithmetic."""
    d = np.clip(d, 0.0, 0.25)
    lam = 2.0 * d / (1.0 + np.sqrt(1.0 - 4.0 * d))
    above = lam > EIG_CUTOFF
    small = -np.where(above, lam * np.log(np.where(above, lam, 1.0)), 0.0)
    return np.maximum(small - (1.0 - lam) * np.log1p(-lam), 0.0)


# bytes of the complex temporary that one step of the Gram kernel makes (one
# sample's at least), so that the temporary does not grow with the window
_GRAM_CHUNK_BYTES = 1 << 17


def _gram(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``out[s, i, j] = <cols[s, j], rows[s, i]>`` for blocks of shape
    (k, a, n) and (k, b, n): the Gram entries of k samples at once.

    Each entry is one product broadcast over the samples and summed along
    the contiguous last axis, where numpy sums pairwise, so its bits depend
    neither on the BLAS thread count, nor on the other rows, nor on k.  The
    samples go in chunks whose (chunk, b, n) temporary stays within
    ``_GRAM_CHUNK_BYTES`` (one sample at least).
    """
    k, a, n = rows.shape
    b = cols.shape[1]
    out = np.empty((k, a, b), dtype=complex)
    step = max(1, _GRAM_CHUNK_BYTES // (16 * b * n))
    for lo in range(0, k, step):
        conj = cols[lo:lo + step].conj()
        for i in range(a):
            out[lo:lo + step, i] = (rows[lo:lo + step, i, None] * conj).sum(axis=-1)
    return out


def _pair(x: tuple, y: tuple) -> float:
    """``det(X + Y) - det(X) - det(Y)`` for Hermitian 2x2 matrices given as
    ``(x00, x11, x01)``."""
    return x[0] * y[1] + x[1] * y[0] - 2.0 * (x[2] * y[2].conjugate()).real


def _det(rho: tuple) -> float:
    """Gram determinant of the reduced state ``rho = (r00, r11, r01)``
    over its squared trace."""
    return 0.5 * _pair(rho, rho) / (rho[0] + rho[1]) ** 2


def _entropies(rows: np.ndarray) -> list:
    """Entropies of the system qubit for the states that are the rows of a
    (c, dim) array (they need not be normalized), from their reduced
    states' Gram determinants by one :func:`_gram` call."""
    m = rows.reshape(rows.shape[0], 2, -1)
    return [_entropy_of_det(_det((g[0][0].real, g[1][1].real, g[0][1])))
            for g in _gram(m, m).tolist()]


def state_entropy(psi) -> float:
    """Entropy of the system qubit for a full register state (or any
    amplitude vector; it need not be normalized), from its reduced state's
    Gram determinant (:func:`_entropies`)."""
    amps = psi.amplitudes if isinstance(psi, core.StateVector) else np.asarray(psi, complex)
    return _entropies(amps[None])[0]


def _window_grams(block: np.ndarray) -> list:
    """The Gram entries that :func:`_rates` reads, for every sample of a
    (k, 3, dim) :meth:`core.Propagator.moments` block, by two
    :func:`_gram` calls: per sample ``(g, hh)`` as nested lists, ``g[r][i]
    = <m_i, row_r>`` over the six rows ``m0, m1, (H psi)0, 1, (H^2 psi)0,
    1`` and ``hh[r][i] = <(H psi)_i, (H psi)_r>``."""
    rows = block.reshape(block.shape[0], 6, -1)
    return list(zip(_gram(rows, rows[:, :2]).tolist(),
                    _gram(rows[:, 2:4], rows[:, 2:4]).tolist()))


def _rates(g: list, hh: list) -> tuple[float, float, float]:
    """S, S' and S'' of the system qubit from one sample's Gram entries
    (:func:`_window_grams`) of psi, H psi and H^2 psi; psi need not be
    normalized.

    With ``M = psi.reshape(2, -1)``, ``A = -i (H psi).reshape(2, -1)`` and
    ``B = -(H^2 psi).reshape(2, -1)``, the reduced state ``rho = M M^H`` has
    ``rho' = A M^H + M A^H`` and ``rho'' = B M^H + 2 A A^H + M B^H``, and
    its Gram determinant D (the product of its eigenvalues) has
    ``D' = P(rho, rho')`` and ``D'' = P(rho, rho'') + P(rho', rho')`` with
    :func:`_pair` as P.  The entropy is a function of D alone
    (:func:`_entropy_of_det`): with ``s = sqrt(1 - 4D)``,
    ``S' = D' 2 atanh(s)/s`` and
    ``S'' = (D'' + 2 D'^2/s^2) 2 atanh(s)/s - D'^2/(s^2 D)``; below
    ``s = 0.05`` (a nearly maximally mixed qubit) both weights come from
    their series.  At D <= 0 (an exact product state) S and S' are 0 and
    S'' is +inf.
    """
    rho = (g[0][0].real, g[1][1].real, g[0][1])
    rho1 = (2.0 * g[2][0].imag, 2.0 * g[3][1].imag, 1j * (g[3][0].conjugate() - g[2][1]))
    rho2 = (
        2.0 * (hh[0][0] - g[4][0]).real,
        2.0 * (hh[1][1] - g[5][1]).real,
        2.0 * hh[0][1] - g[4][1] - g[5][0].conjugate(),
    )
    d = _det(rho)
    if not d > 0.0:
        return 0.0, 0.0, math.inf
    norm2 = (rho[0] + rho[1]) ** 2  # D and its derivatives are quadratic in psi
    d1 = _pair(rho, rho1) / norm2
    d2 = (_pair(rho, rho2) + _pair(rho1, rho1)) / norm2
    s = math.sqrt(max(1.0 - 4.0 * d, 0.0))
    if s < 0.05:
        # 2 atanh(s)/s = 2 sum s^2k/(2k+1); (4 atanh(s)/s - 1/D)/s^2 =
        # -4 sum_{k>=1} 2k/(2k+1) s^(2k-2); eight terms leave under 1e-20
        s2 = s * s
        weight = 2.0 * sum(s2**k / (2 * k + 1) for k in range(8))
        curvature = -4.0 * sum(2 * k / (2 * k + 1) * s2 ** (k - 1) for k in range(1, 9))
    else:
        # 2 atanh(s) = ln((1 + s)^2 / (4D)), which keeps D's digits near a
        # product state, where 1 - s loses them
        weight = (2.0 * math.log1p(s) - math.log(4.0 * d)) / s
        curvature = (2.0 * weight - 1.0 / d) / (s * s)
    return _entropy_of_det(d), d1 * weight, d2 * weight + d1 * d1 * curvature


def _stencils(window: core.Propagator, offsets: list, delta: float) -> list:
    """``(eps(t + 2 delta) - 2 eps(t + delta)) / delta^2`` for every offset
    t of the ``window`` propagator at which its state is a product state
    (there the entropy and its speed vanish and S'' is infinite): one
    :meth:`core.Propagator.evolve_times` query for all of them and one
    :func:`_entropies` call."""
    times = [t + step for t in offsets for step in (delta, 2.0 * delta)]
    eps = _entropies(np.ascontiguousarray(window.evolve_times(times).T))
    return [(e2 - 2.0 * e1) / delta**2 for e1, e2 in zip(eps[::2], eps[1::2])]


def entangling_speed(psi: core.StateVector, h: core.PauliTermSum) -> float:
    """d(entropy)/dt of the system qubit at the given instant, in closed
    form (:func:`_rates`) from a one-sample window, one ``moments([0])``
    query; 0 at a product state."""
    return _rates(*_window_grams(core.Propagator(psi, h).moments([0.0]))[0])[1]


def _check_accel_step(delta: float) -> None:
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if delta < MIN_ACCEL_STEP:
        raise ValueError("delta underflows the second-difference stencil")
    if not math.isfinite(delta * delta):
        raise ValueError("delta must be finite, with a finite square")


def entangling_acceleration(
    psi: core.StateVector,
    h: core.PauliTermSum,
    delta: float = DEFAULT_ACCEL_STEP,
) -> float:
    """d^2(entropy)/dt^2 of the system qubit, in closed form from psi, H psi
    and H^2 psi (:func:`_rates`) of a one-sample window.

    Where the entropy is below ``PRODUCT_ENTROPY`` (a product state, where
    the true value is +inf) it is the one-sided stencil
    ``(eps(2 delta) - 2 eps(delta)) / delta^2`` instead (:func:`_stencils`),
    from exact short evolutions on the propagator that gave the moments
    (the same bits as a fresh one); ``delta`` must be at least
    ``MIN_ACCEL_STEP``.
    """
    _check_accel_step(delta)
    window = core.Propagator(psi, h)
    entropy, _, curvature = _rates(*_window_grams(window.moments([0.0]))[0])
    return _stencils(window, [0.0], delta)[0] if entropy < PRODUCT_ENTROPY else curvature


@dataclass
class EntanglementTrace:
    """Time series of (t, entropy, speed, acceleration) for one register."""

    times: np.ndarray
    epsilon: np.ndarray
    epsilon_dot: np.ndarray
    epsilon_ddot: np.ndarray
    model_tag: str = "custom"
    n_env: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.epsilon = np.asarray(self.epsilon, dtype=float)
        self.epsilon_dot = np.asarray(self.epsilon_dot, dtype=float)
        self.epsilon_ddot = np.asarray(self.epsilon_ddot, dtype=float)
        n = self.times.size
        if not all(a.size == n for a in (self.epsilon, self.epsilon_dot, self.epsilon_ddot)):
            raise ValueError("trace columns must have equal length")
        if n > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")
        if np.any(self.epsilon < -1e-12) or np.any(self.epsilon > LN2 + 1e-9):
            raise ValueError("entropy out of the [0, ln 2] range for a qubit")

    def __len__(self) -> int:
        return int(self.times.size)

    def rows(self, units: str = "nats"):
        scale = _unit_scale(units)
        for i in range(len(self)):
            yield (
                self.times[i],
                self.epsilon[i] * scale,
                self.epsilon_dot[i] * scale,
                self.epsilon_ddot[i] * scale,
            )


def _unit_scale(units: str) -> float:
    if units == "nats":
        return 1.0
    if units == "bits":
        return 1.0 / LN2
    raise ValueError(f"unknown entropy units {units!r}")


def _sample(
    state: core.StateVector,
    h: core.PauliTermSum,
    dt: float,
    steps: int,
    accel_delta: float,
    start: int | None = None,
    stop=None,
) -> tuple:
    """The one sampling loop behind :func:`compute_trace` and
    :class:`collapse.HistoryTree`.

    Samples entropy, speed and acceleration at ``k * dt`` for ``k = 0 ..
    steps`` from ``state`` at t = 0, or, given ``start``, for ``k = start +
    1 .. steps`` from ``state`` at ``start * dt`` (a segment that resumes
    where another stopped and replaced its state).  It makes one pass per
    window of ``J = floor(4 / (coefficient_scale() * dt))`` samples (at
    least one), all from one :class:`core.Propagator` at the window's state:
    one :meth:`core.Propagator.moments` query (one product back from the
    eigenbasis, or one Lanczos basis within its reach) gives the window's
    (k, 3, dim) block, and two :func:`_gram` calls give every sample's Gram
    entries.  Then, sample by sample and in order, the norm of the sample's
    state (``g00 + g11``) is checked: a drift beyond 1e-10, a NaN included,
    raises :class:`core.IntegrationError`.  The sample's rates come from
    :func:`_rates`, and ``stop(t, state, epsilon_dot)`` runs on them; a
    result other than None ends the segment there.  ``state`` is a
    zero-argument callable that builds the sample's :class:`core.StateVector`
    (renormalized) when asked.  The samples after the stop sample are
    neither checked nor used.  The window's product states (entropy below
    ``PRODUCT_ENTROPY``) up to there take their accelerations from the
    one-sided stencil (:func:`_stencils`), all in one query on the window's
    propagator: on the Lanczos path its basis already spans the offsets
    ``j * dt + delta`` and ``j * dt + 2 delta``, and an offset past the
    reach is substepped.  A state is built only where it is handed out: to
    ``stop`` when it asks, and at the window's last sample, whose state
    starts the next window.

    Returns ``(rows, k, state, found)``: the entropy, speed and
    acceleration arrays of the samples taken, the last sample's index and
    state, and what ``stop`` returned there (None when the segment ran to
    ``steps``).
    """
    _check_accel_step(accel_delta)
    origin = 0 if start is None else start  # the window's state is at sample origin
    first = 0 if start is None else start + 1
    eps, eps_dot, eps_ddot = (np.empty(max(steps + 1 - first, 0)) for _ in range(3))
    reach = h.coefficient_scale() * dt
    span = max(1, math.floor(core._KRYLOV_MAX_REACH / reach)) if reach > 0.0 else math.inf
    k, found = first, None  # k is the next sample
    while k <= steps and found is None:
        window = core.Propagator(state, h)
        offsets = range(k - origin, min(steps - origin, span) + 1)
        block = window.moments(np.array(offsets) * dt)
        built = {}  # the window's states handed out so far, by offset

        def state_at(j):
            if j not in built:
                built[j] = core.StateVector(core._unit_columns(block[j - offsets.start, 0]))
            return built[j]

        products = []  # offsets of the product states up to the stop
        for j, (g, hh) in zip(offsets, _window_grams(block)):
            norm = math.sqrt(g[0][0].real + g[1][1].real)
            if not abs(norm - 1.0) <= 1e-10:
                raise core.IntegrationError(f"evolution drifted the norm to {norm:.12g}")
            k = origin + j
            i = k - first
            eps[i], eps_dot[i], eps_ddot[i] = _rates(g, hh)
            if eps[i] < PRODUCT_ENTROPY:
                products.append(j)
            if stop is not None:
                found = stop(k * dt, partial(state_at, j), eps_dot[i])
                if found is not None:
                    break
        if products:
            rows = np.array(products) + (origin - first)
            eps_ddot[rows] = _stencils(window, [j * dt for j in products], accel_delta)
        state = state_at(k - origin)
        # the window's block and basis go before the next window's are made
        del block, window
        origin, k = k, k + 1
    n = k - first
    return (eps[:n], eps_dot[:n], eps_ddot[:n]), k - 1, state, found


def compute_trace(
    initial: core.StateVector,
    h: core.PauliTermSum,
    t_max: float,
    dt: float,
    accel_delta: float = DEFAULT_ACCEL_STEP,
    model_tag: str = "custom",
) -> EntanglementTrace:
    """Sample entropy, speed, and acceleration along a purely unitary run.

    Runs the sampling loop shared with :class:`collapse.HistoryTree` with
    no stop predicate, over ``round(t_max / dt)`` steps of ``dt``.
    """
    if t_max <= 0.0 or dt <= 0.0:
        raise ValueError("t_max and dt must be positive")
    steps = int(round(t_max / dt))
    rows = _sample(initial, h, dt, steps, accel_delta)[0]
    return EntanglementTrace(np.arange(steps + 1) * dt, *rows, model_tag, initial.n_env)


def first_speed_peak(trace: EntanglementTrace, floor: float = 1e-6) -> tuple[int, float, float]:
    """Index, time, and value of the first interior local maximum of the speed.

    Falls back to the global maximum when no interior peak exists on the
    sampled grid (e.g. when the window ends mid-rise).
    """
    sd = trace.epsilon_dot
    for k in range(1, len(trace) - 1):
        if sd[k] > floor and sd[k] > sd[k - 1] and sd[k] >= sd[k + 1]:
            return k, float(trace.times[k]), float(sd[k])
    k = int(np.argmax(sd))
    return k, float(trace.times[k]), float(sd[k])


def max_speed(trace: EntanglementTrace) -> float:
    return float(np.max(trace.epsilon_dot))
