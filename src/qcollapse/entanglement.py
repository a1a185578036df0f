"""Von Neumann entropy of the system qubit and its first two time derivatives.

Entropy is reported in nats throughout; the rate formulas then carry no
base-conversion factors.  The entropy is a function of the reduced state's
Gram determinant alone, and every system entropy comes from one
determinant-to-entropy rule (:func:`_entropy_of_det`, and its array twin
for the basis-scan grid).  The speed and acceleration are closed forms in
psi, H psi and H^2 psi (:func:`_entropy_rates`), whose determinant also
gives the sample's entropy.  At a product state, exactly where collapse
dynamics operates, the speed is 0 and the acceleration infinite, so there
the acceleration is the one-sided second difference of the entropies of
exact short evolutions, by the same rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``out[i, j] = <x[i], y[j]>``, each a sum along a contiguous row, where
    numpy sums pairwise, so its bits depend neither on the BLAS thread count
    nor on the other rows."""
    xc = x.conj()
    return np.array([(row * xc).sum(axis=-1) for row in y]).T


def _pair(x: tuple, y: tuple) -> float:
    """``det(X + Y) - det(X) - det(Y)`` for Hermitian 2x2 matrices given as
    ``(x00, x11, x01)``."""
    return x[0] * y[1] + x[1] * y[0] - 2.0 * (x[2] * y[2].conjugate()).real


def _det(rho: tuple) -> float:
    """Gram determinant of the reduced state ``rho = (r00, r11, r01)``
    over its squared trace."""
    return 0.5 * _pair(rho, rho) / (rho[0] + rho[1]) ** 2


def state_entropy(psi) -> float:
    """Entropy of the system qubit for a full register state (or any
    amplitude vector; it need not be normalized), from its reduced state's
    Gram determinant as in :func:`_entropy_rates`."""
    amps = psi.amplitudes if isinstance(psi, core.StateVector) else np.asarray(psi, complex)
    m = amps.reshape(2, -1)
    g = _inner(m, m).tolist()  # g[i][j] = <m_i, m_j>
    return _entropy_of_det(_det((g[0][0].real, g[1][1].real, g[1][0])))


def _entropy_rates(moments: np.ndarray) -> tuple[float, float, float]:
    """S, S' and S'' of the system qubit from psi, H psi and H^2 psi, the
    rows of a contiguous (3, dim) array; psi need not be normalized.

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
    S'' is +inf.  Each Gram entry is a sum along a contiguous row
    (:func:`_inner`), so its bits do not depend on BLAS threads.
    """
    rows = moments.reshape(6, -1)  # m0, m1, (H psi)0, 1, (H^2 psi)0, 1
    g = _inner(rows[:2], rows).T.tolist()  # g[i][j] = <m_j, row_i>
    hh = _inner(rows[2:4], rows[2:4]).T.tolist()
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


def _one_sided(window: core.Propagator, t: float, delta: float) -> float:
    """(eps(t + 2 delta) - 2 eps(t + delta)) / delta^2, the entropies of the
    ``window`` propagator's state evolved to those offsets, where the state
    at offset t is a product state: there the entropy and its speed vanish
    and S'' is infinite."""
    offsets = [t + delta, t + 2.0 * delta]
    e1, e2 = (state_entropy(col) for col in window.evolve_times(offsets).T)
    return (e2 - 2.0 * e1) / delta**2


def _acceleration(rates: tuple, window: core.Propagator, t: float, delta: float) -> float:
    """S'' from the ``rates`` of :func:`_entropy_rates` at offset ``t`` of
    the ``window`` propagator, or, where their entropy is below
    ``PRODUCT_ENTROPY`` (a product state, where S'' is +inf), the
    one-sided stencil over ``delta`` from the same propagator."""
    entropy, _, curvature = rates
    return _one_sided(window, t, delta) if entropy < PRODUCT_ENTROPY else curvature


def entangling_speed(psi: core.StateVector, h: core.PauliTermSum) -> float:
    """d(entropy)/dt of the system qubit at the given instant, in closed
    form (:func:`_entropy_rates`) from one ``moments([0])`` query; 0 at a
    product state."""
    return _entropy_rates(core.Propagator(psi, h).moments([0.0])[0])[1]


def _check_accel_step(delta: float) -> None:
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if delta < MIN_ACCEL_STEP:
        raise ValueError("delta underflows the second-difference stencil")


def entangling_acceleration(
    psi: core.StateVector,
    h: core.PauliTermSum,
    delta: float = DEFAULT_ACCEL_STEP,
) -> float:
    """d^2(entropy)/dt^2 of the system qubit, in closed form from psi, H psi
    and H^2 psi (:func:`_entropy_rates`).

    Where the entropy is below ``PRODUCT_ENTROPY`` (a product state, where
    the true value is +inf) it is the one-sided stencil
    ``(eps(2 delta) - 2 eps(delta)) / delta^2`` instead, from exact short
    evolutions on the propagator that gave the moments (the same bits as a
    fresh one); ``delta`` must be at least ``MIN_ACCEL_STEP``.
    """
    _check_accel_step(delta)
    window = core.Propagator(psi, h)
    return _acceleration(_entropy_rates(window.moments([0.0])[0]), window, 0.0, delta)


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

    Samples entropy, speed and acceleration at ``k * dt``, all three from
    one :func:`_entropy_rates` call, for ``k = 0 .. steps`` from ``state``
    at t = 0, or, given ``start``, for ``k = start + 1 .. steps`` from
    ``state`` at ``start * dt`` (a segment that resumes where another
    stopped and replaced its state).  One :func:`core.moment_window` serves
    a window of ``J = floor(4 / (coefficient_scale() * dt))`` samples (at
    least one) through one :meth:`core.Propagator.moments` query: one
    product back from the eigenbasis, or one Lanczos basis within its
    reach.  Each sample's state is renormalized and drift-guarded there;
    the window's last state starts the next window.  A product state
    (entropy below ``PRODUCT_ENTROPY``) takes its acceleration from the
    one-sided stencil (:func:`_acceleration`), evolved by the window's own
    propagator to the offsets ``j * dt + delta`` and ``j * dt + 2 delta``
    from the window's state: on the Lanczos path its basis already spans
    them, and an offset past the reach is substepped.  ``stop(t, state,
    epsilon_dot)`` runs once after each sample, in order; a result other
    than None ends the segment there.

    Returns ``(rows, k, state, found)``: the entropy, speed and
    acceleration arrays of the samples taken, the last sample's index and
    state, and what ``stop`` returned there (None when the segment ran to
    ``steps``).
    """
    _check_accel_step(accel_delta)
    origin = 0 if start is None else start  # the window's state is at sample origin
    first = 0 if start is None else start + 1
    eps, eps_dot, eps_ddot = (np.empty(max(steps + 1 - first, 0)) for _ in range(3))
    k, found = first, None  # k is the next sample
    while k <= steps and found is None:
        for j, psi, moments, window in core.moment_window(state, h, dt, k - origin,
                                                          steps - origin):
            k = origin + j
            i = k - first
            rates = _entropy_rates(moments)
            eps[i], eps_dot[i] = rates[:2]
            eps_ddot[i] = _acceleration(rates, window, j * dt, accel_delta)
            state = psi
            if stop is not None:
                found = stop(k * dt, psi, eps_dot[i])
                if found is not None:
                    break
        # the window's block (moments is a view of it) and basis go before
        # the next window's are made
        del moments, window
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
