"""Von Neumann entropy of the system qubit and its first two time derivatives.

Entropy is reported in nats throughout; the rate formulas then carry no
base-conversion factors.  The entropy is a function of the reduced state's
Gram determinant alone, and every system entropy comes from one
determinant-to-entropy rule (:func:`_entropy_of_det`, and its array twin
for the basis-scan grid and the product-state stencils).  Every Gram
entry, of one state or of a whole window of samples, comes from one
chunked kernel (:func:`_gram`).  The speed and acceleration are closed
forms in psi, H psi and H^2 psi (:func:`_rates`), whose determinant also
gives the sample's entropy.  At a product state, exactly where collapse
dynamics operates, the speed is 0 and the acceleration infinite, so there
the acceleration is the one-sided second difference of the entropies of
exact short evolutions (:func:`_stencils`), read off unnormalized columns
through the same kernel.  The sampling loop (:func:`_sample`) makes one
pass per chunk of samples: one moments query, one kernel call for every
sample's Gram entries, array passes for the norm guard and the
exact-product test, the scalar rates only where the state is entangled,
and one stencil query for its product states.  A window, one
propagator at one state, serves a whole segment on the dense and diagonal
paths, and on the Lanczos path as many chunks as its basis converges for.
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


# amplitude peaks (state_entropy) and Gram traces (_rates) taken as they
# are: the fourth powers of psi in a Gram determinant stay normal floats.
# Outside them a power of two rescales psi first; it is exact, but it may
# move the last bit, since ``x ** 2`` need not round alike at every scale
_PEAK_RANGE = (2.0**-100, 2.0**100)
_GRAM_RANGE = (2.0**-200, 2.0**200)


def _entropies(rows: np.ndarray) -> list:
    """Entropies of the system qubit for the states that are the rows of a
    (c, dim) array (they need not be normalized), from their reduced
    states' Gram determinants by one :func:`_gram` call."""
    m = rows.reshape(rows.shape[0], 2, -1)
    return [_entropy_of_det(_det((g[0][0].real, g[1][1].real, g[0][1])))
            for g in _gram(m, m).tolist()]


def state_entropy(psi) -> float:
    """Entropy of the system qubit for a full register state (or any
    nonzero amplitude vector; it need not be normalized), from its reduced
    state's Gram determinant (:func:`_entropies`).

    Amplitudes whose largest real or imaginary part lies outside
    ``_PEAK_RANGE`` are first scaled, exactly, by the power of two that
    brings it into [1/2, 1), so that the Gram determinant neither
    underflows nor overflows; the zero vector raises ``ValueError``.
    """
    amps = psi.amplitudes if isinstance(psi, core.StateVector) else np.asarray(psi, complex)
    amps = np.ascontiguousarray(amps)
    peak = float(np.max(np.abs(amps.view(np.float64)), initial=0.0))
    if peak == 0.0:
        raise ValueError("the zero vector has no reduced state")
    if not _PEAK_RANGE[0] <= peak <= _PEAK_RANGE[1]:
        amps = _rescaled(amps, peak)
    return _entropies(amps[None])[0]


def _rescaled(values: np.ndarray, peak: float) -> np.ndarray:
    """The contiguous complex array ``values`` times the power of two that
    brings ``peak``, a positive measure of their size, into [1/2, 1),
    which is exact."""
    return np.ldexp(values.view(np.float64), -np.frexp(peak)[1]).view(complex)


def _grams(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram entries that :func:`_rates` reads, for every sample of a
    (k, 3, dim) :meth:`core.Propagator.moments` block, by two :func:`_gram`
    calls: ``g[s, r, i] = <m_i, row_r>`` over the six rows ``m0, m1, (H
    psi)0, 1, (H^2 psi)0, 1`` of sample s, a (k, 6, 2) array, and ``hh[s,
    r, i] = <(H psi)_i, (H psi)_r>``, a (k, 2, 2) array."""
    rows = block.reshape(block.shape[0], 6, -1)
    return _gram(rows, rows[:, :2]), _gram(rows[:, 2:4], rows[:, 2:4])


def _window_grams(block: np.ndarray) -> list:
    """:func:`_grams` per sample, as nested lists ``(g, hh)``."""
    g, hh = _grams(block)
    return list(zip(g.tolist(), hh.tolist()))


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
    S'' is +inf.  D and its derivatives are ratios of quadratic forms in
    psi, so Gram entries whose trace lies outside ``_GRAM_RANGE`` are first
    rescaled by a power of two, exactly, and the products of the quadratic
    forms neither underflow nor overflow.
    """
    trace = g[0][0].real + g[1][1].real
    if not _GRAM_RANGE[0] <= trace <= _GRAM_RANGE[1]:
        g, hh = (_rescaled(np.array(x), trace).tolist() for x in (g, hh))
    rho = (g[0][0].real, g[1][1].real, g[0][1])
    norm2 = (rho[0] + rho[1]) ** 2  # D and its derivatives are quadratic in psi
    d = 0.5 * _pair(rho, rho) / norm2  # _det(rho)
    if not d > 0.0:
        return 0.0, 0.0, math.inf
    rho1 = (2.0 * g[2][0].imag, 2.0 * g[3][1].imag, 1j * (g[3][0].conjugate() - g[2][1]))
    rho2 = (
        2.0 * (hh[0][0] - g[4][0]).real,
        2.0 * (hh[1][1] - g[5][1]).real,
        2.0 * hh[0][1] - g[4][1] - g[5][0].conjugate(),
    )
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
    :meth:`core.Propagator.propagate` query for all of them and one
    :func:`_gram` call for every column's reduced state.  The columns are
    not renormalized: each one's norm is checked from its Gram diagonal as
    a sample's is, and :func:`_det`, over arrays here, is scale-free; the
    entropies come from the array twin of the one rule
    (:func:`_entropies_of_dets`)."""
    times = [t + step for t in offsets for step in (delta, 2.0 * delta)]
    rows = np.ascontiguousarray(window.propagate(times).T).reshape(len(times), 2, -1)
    g = _gram(rows, rows)
    rho = (g[:, 0, 0].real, g[:, 1, 1].real, g[:, 0, 1])
    norms = np.sqrt(rho[0] + rho[1])
    drifted = ~(np.abs(norms - 1.0) <= 1e-10)  # a NaN drifts
    if drifted.any():
        raise core.IntegrationError(
            f"evolution drifted the norm to {norms[np.argmax(drifted)]:.12g}")
    eps = _entropies_of_dets(_det(rho))
    return ((eps[1::2] - 2.0 * eps[::2]) / delta**2).tolist()


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


# what _rates gives an exact product state (D <= 0): S, S' and S''
_PRODUCT_RATES = np.array([[0.0], [0.0], [math.inf]])

# bytes of the (k, 3, dim) moments block of a chunk after a window's
# first on the dense and diagonal paths, which are exact at any offset: a
# 7-site segment of 150 samples takes 0.9 MB, while from 13 sites up a
# chunk stays at the first chunk's J samples
_CHUNK_BYTES = 1 << 20


def _sample(
    state: core.StateVector,
    h: core.PauliTermSum,
    dt: float,
    steps: int,
    accel_delta: float,
    start: int | None = None,
    stop=None,
    threshold: float = -math.inf,
    stencils: bool = True,
) -> tuple:
    """The one sampling loop behind :func:`compute_trace` and
    :class:`collapse.HistoryTree`.

    Samples entropy, speed and acceleration at ``k * dt`` for ``k = 0 ..
    steps`` from ``state`` at t = 0, or, given ``start``, for ``k = start +
    1 .. steps`` from ``state`` at ``start * dt`` (a segment that resumes
    where another stopped and replaced its state).  A window is one
    :class:`core.Propagator` at a state, and each chunk of samples is one
    :meth:`core.Propagator.moments` query on it, whose (k, 3, dim) block
    two :func:`_gram` calls turn into every sample's Gram entries.  A
    window's first chunk takes ``J = floor(4 / (coefficient_scale() *
    dt))`` samples (at least one; one more when it starts at t = 0), so a
    segment that stops early pays for no more.  On the dense and diagonal
    paths, whose offsets are exact at any reach, one window serves the
    whole segment: a further chunk takes the rest of it, within
    ``_CHUNK_BYTES`` of block and never fewer than J samples.  On the
    Lanczos path a further chunk takes J samples from the same basis,
    grown only as far as each chunk needs, and a new window starts at the
    last sample taken only when the basis does not converge for a chunk
    within ``core._KRYLOV_MAX_VECTORS`` vectors; the first chunk of a
    window substeps offsets beyond the basis like any evolution.

    Each chunk is checked in array passes over its Gram entries: the norm
    of every sample's state (``g00 + g11``), where a drift beyond 1e-10, a
    NaN included, raises :class:`core.IntegrationError` at the first bad
    sample, and the exact-product test D <= 0, whose samples take 0, 0 and
    +inf as :func:`_rates` gives them.  The scalar :func:`_rates` runs, in
    order, only on the samples of positive D before the first bad one.
    ``stop(t, state, epsilon_dot)`` runs, in order, at the samples whose
    speed is at least ``threshold`` (every sample by default), and a result
    other than None ends the segment there: a bad sample after the stop
    raises nothing, and the samples after it are not used.  ``state`` is a
    zero-argument callable that builds the sample's
    :class:`core.StateVector` (renormalized) when asked.  With
    ``stencils``, the chunk's product states (entropy below
    ``PRODUCT_ENTROPY``) up to the stop take their accelerations from the
    one-sided stencil (:func:`_stencils`), all in one query on the
    window's propagator, which on the Lanczos path its basis answers
    wherever in the window they lie; without, they keep the closed form
    (+inf at D <= 0).  A state is built only where it is handed out: to
    ``stop`` when it asks, at the segment's last sample, and, on the
    Lanczos path, at the last sample before a chunk that does not
    converge, whose state starts the next window (of each chunk only that
    row is kept).

    Returns ``(rows, k, state, found)``: the entropy, speed and
    acceleration arrays of the samples taken, the last sample's index and
    state, and what ``stop`` returned there (None when the segment ran to
    ``steps``).
    """
    _check_accel_step(accel_delta)
    first = 0 if start is None else start + 1
    out = np.empty((3, max(steps + 1 - first, 0)))  # entropy, speed, acceleration
    reach = h.coefficient_scale() * dt
    span = max(1, math.floor(core._KRYLOV_MAX_REACH / reach)) if reach > 0.0 else math.inf
    wide = max(span, _CHUNK_BYTES // (48 * h.dim))  # further chunks, exact paths
    # a product sample's speed is 0, so a stop whose threshold is at most 0
    # runs there too: the tail then visits every sample (_rates gives a
    # product sample the same 0, 0, +inf)
    every = stop is not None and not threshold > 0.0
    k, found, window, last = first, None, None, None  # k is the next sample
    while k <= steps and found is None:
        block = None
        if window is not None:
            # a further chunk of the window; on the Lanczos path only if its
            # basis reaches it
            offsets = range(k - origin, min(steps - origin, k - origin - 1 + size) + 1)
            block = window.moments(np.array(offsets) * dt, substep=False)
        if block is None:
            if last is not None:
                state = core.StateVector(core._unit_columns(last))
            # the last window's basis goes before the next one is made;
            # ``state`` is the last sample's, or the start's
            window = last = None
            window, origin = core.Propagator(state, h), max(k - 1, 0)
            size = span if window.method == "krylov" else wide
            offsets = range(k - origin, min(steps - origin, span) + 1)
            block = window.moments(np.array(offsets) * dt)
        built = {}  # the chunk's states handed out so far, by offset

        def state_at(j):
            if j not in built:
                built[j] = core.StateVector(core._unit_columns(block[j - offsets.start, 0]))
            return built[j]

        g, hh = _grams(block)
        parts = g.view(float)  # g00, g11 and g01 are rho's r00, r11 and r01
        r00, r11, re01, im01 = parts[:, 0, 0], parts[:, 1, 2], parts[:, 0, 2], parts[:, 0, 3]
        norms = np.sqrt(r00 + r11)
        held = np.abs(norms - 1.0) <= 1e-10  # a NaN drifts
        end = int(held.argmin())  # the first bad sample, if any
        if held[end]:
            end = len(offsets)
        # _rates returns early unless D > 0, and before the first bad sample
        # D's sign is that of _pair(rho, rho) = 2 (r00 r11 - |r01|^2), which
        # this comparison of the same rounded products gives exactly
        live = r00 * r11 > re01 * re01 + im01 * im01
        lo = origin + offsets.start - first
        ent, speed, accel = rates = out[:, lo:lo + len(offsets)]
        visit = np.arange(end) if every else live[:end].nonzero()[0]
        if visit.size < len(offsets):  # some sample is a product state, or bad
            rates[:] = _PRODUCT_RATES
            g, hh = g[visit], hh[visit]
        taken = end
        for i, gi, hi in zip(visit.tolist(), g.tolist(), hh.tolist()):
            ent[i], speed[i], accel[i] = _rates(gi, hi)
            if stop is not None and speed[i] >= threshold:
                found = stop((origin + offsets[i]) * dt, partial(state_at, offsets[i]), speed[i])
                if found is not None:
                    taken = i + 1
                    break
        if found is None and end < len(offsets):
            raise core.IntegrationError(f"evolution drifted the norm to {norms[end]:.12g}")
        k = origin + offsets[taken - 1]
        if stencils:
            products = (ent[:taken] < PRODUCT_ENTROPY).nonzero()[0]
            if products.size:
                times = [j * dt for j in (products + offsets.start).tolist()]
                accel[products] = _stencils(window, times, accel_delta)
        if found is not None or k == steps:
            state = state_at(k - origin)
        elif window.method == "krylov":
            last = block[-1, 0].copy()
        # the chunk's block goes before the next chunk's is made
        del block
        k += 1
    return tuple(out[:, :k - first]), k - 1, state, found


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
    if not math.isfinite(t_max):
        raise ValueError("t_max must be finite")
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
