"""Von Neumann entropy of the system qubit and its first two time derivatives.

Entropy is reported in nats throughout; the rate formulas then carry no
base-conversion factors.  The derivative estimators regularize the
``0 * log 0`` singularity at product states with an eigenvalue cutoff,
because product states are exactly where collapse dynamics operates.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import core

LN2 = math.log(2.0)

# eigenvalues below this contribute 0 to -sum(lam * ln(lam))
EIG_CUTOFF = 1e-12

# below this smallest eigenvalue, d(entropy)/dt is ill-conditioned and the
# analytic rate formula falls back to finite differences
ANALYTIC_MIN_EIGENVALUE = 1e-10

DEFAULT_FD_STEP = 1e-4
DEFAULT_ACCEL_STEP = 1e-3
# smallest acceleration stencil step: below it the delta**-2 division turns
# entropy roundoff into noise
MIN_ACCEL_STEP = 1e-8
RICHARDSON_REPORT_TOL = 1e-4

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


def _qubit_eigenvalues(amps: np.ndarray) -> tuple[float, float]:
    """Eigenvalues of the system qubit's reduced state, closed form."""
    m = amps.reshape(2, -1)
    r00 = float(np.real(np.vdot(m[0], m[0])))
    r11 = float(np.real(np.vdot(m[1], m[1])))
    r01 = complex(np.vdot(m[1], m[0]))  # <0|rho|1>
    tr = r00 + r11
    disc = math.sqrt(max((r00 - r11) ** 2 + 4.0 * abs(r01) ** 2, 0.0))
    return 0.5 * (tr - disc), 0.5 * (tr + disc)


def state_entropy(psi) -> float:
    """Entropy of the system qubit for a full register state."""
    amps = psi.amplitudes if isinstance(psi, core.StateVector) else np.asarray(psi, complex)
    return entropy_from_eigenvalues(_qubit_eigenvalues(amps))


def block_entropies(block: np.ndarray) -> np.ndarray:
    """System-qubit entropies for every column of a (dim, m) state block.

    Each column's reduced-state entries are summed along a contiguous row,
    where numpy sums pairwise.  A sequential sum's roundoff differs between
    neighbouring columns and leaks into the finite-difference stencils,
    which divide entropy differences by small steps.
    """
    dim, m = block.shape
    rows = np.ascontiguousarray(block.T).reshape(m, 2, dim // 2)
    up, down = rows[:, 0], rows[:, 1]
    r00 = np.square(up.view(np.float64)).sum(axis=1)
    r11 = np.square(down.view(np.float64)).sum(axis=1)
    r01 = (up * down.conj()).sum(axis=1)
    disc = np.sqrt(np.maximum((r00 - r11) ** 2 + 4.0 * np.abs(r01) ** 2, 0.0))
    tr = r00 + r11
    lams = np.stack([0.5 * (tr - disc), 0.5 * (tr + disc)])
    out = np.zeros(m)
    mask = lams > EIG_CUTOFF
    out -= np.sum(np.where(mask, lams * np.log(np.where(mask, lams, 1.0)), 0.0), axis=0)
    return np.maximum(out, 0.0)


def _richardson_speed(prop: core.Propagator, fd_step: float) -> tuple[float, float]:
    """Central difference of the entropy with one Richardson halving.

    Returns the speed at ``prop.psi`` and the disagreement of the two
    levels; raises no warning, so the sampling loop needs no warning
    filter.  The four offsets +-fd_step and +-fd_step/2 come from one query
    on the state's propagator: on the dense path one matrix product back
    from the eigenbasis, above ``core.EIGEN_SITE_LIMIT`` the state's
    Lanczos basis.
    """
    half = 0.5 * fd_step
    s = block_entropies(prop.evolve_times([fd_step, -fd_step, half, -half]))
    d_full = float(s[0] - s[1]) / (2.0 * fd_step)
    d_half = float(s[2] - s[3]) / (2.0 * half)
    # one Richardson halving: cancels the O(h^2) error of the central stencil
    return (4.0 * d_half - d_full) / 3.0, abs(d_half - d_full)


def _finite_diff_speed(psi, h, fd_step: float) -> float:
    """:func:`_richardson_speed`, warning when its levels disagree by more
    than ``RICHARDSON_REPORT_TOL``."""
    speed, gap = _richardson_speed(core.Propagator(psi, h), fd_step)
    if gap > RICHARDSON_REPORT_TOL:
        warnings.warn(
            f"entangling-speed finite difference is step sensitive: "
            f"levels differ by {gap:.3e}",
            RuntimeWarning,
            stacklevel=3,
        )
    return speed


def entangling_speed(
    psi: core.StateVector,
    h: core.PauliTermSum,
    method: str = "analytic",
    fd_step: float = DEFAULT_FD_STEP,
) -> float:
    """d(entropy)/dt of the system qubit at the given instant.

    ``analytic`` evaluates -Tr(rho_dot ln rho) with
    rho_dot = Tr_env(-i [H, |psi><psi|]); when the reduced state has an
    eigenvalue below ``ANALYTIC_MIN_EIGENVALUE`` the logarithm is
    ill-conditioned, so the call falls back to ``finite_diff`` and reports
    the fallback with a warning.  ``finite_diff`` uses a central difference
    with one Richardson halving and warns when the two levels disagree by
    more than ``RICHARDSON_REPORT_TOL``.
    """
    if method not in ("analytic", "finite_diff"):
        raise ValueError(f"unknown entangling-speed method {method!r}")
    if fd_step <= 0.0:
        raise ValueError("fd_step must be positive")
    if method == "finite_diff":
        return _finite_diff_speed(psi, h, fd_step)

    amps = psi.amplitudes
    rho = core.partial_trace_system(psi).entries
    lams, vecs = np.linalg.eigh(rho)
    if float(lams.min()) < ANALYTIC_MIN_EIGENVALUE:
        warnings.warn(
            "reduced state is nearly pure; analytic entangling speed is "
            "ill-conditioned, falling back to finite differences",
            RuntimeWarning,
            stacklevel=2,
        )
        return _finite_diff_speed(psi, h, fd_step)

    hpsi = core.apply_operator(h, amps)
    phi = hpsi.reshape(2, -1)
    mat = amps.reshape(2, -1)
    rho_dot = -1j * (phi @ mat.conj().T - mat @ phi.conj().T)
    lam_dots = np.real(np.einsum("ik,ij,jk->k", vecs.conj(), rho_dot, vecs))
    return float(-np.sum(lam_dots * np.log(lams)))


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
    """d^2(entropy)/dt^2 via second differences of exact short evolutions.

    At a product state both the entropy and its first derivative vanish, so
    the one-sided stencil (eps(2d) - 2 eps(d)) / d^2 applies; elsewhere the
    symmetric second difference is used.  Both offsets come from one query
    on a :class:`core.Propagator`.  ``delta`` must be at least
    ``MIN_ACCEL_STEP``.
    """
    _check_accel_step(delta)
    return _acceleration(core.Propagator(psi, h), delta, state_entropy(psi))


def _acceleration(prop: core.Propagator, delta: float, eps0: float) -> float:
    """:func:`entangling_acceleration` at ``prop.psi``, whose entropy is
    ``eps0``, from one query on the state's propagator."""
    if eps0 < 1e-9:
        e1, e2 = block_entropies(prop.evolve_times([delta, 2.0 * delta]))
        return float(e2 - 2.0 * e1) / delta**2
    e_plus, e_minus = block_entropies(prop.evolve_times([delta, -delta]))
    return float(e_plus - 2.0 * eps0 + e_minus) / delta**2


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

    def to_csv(self, path_or_file, comment: str | None = None, units: str = "nats") -> None:
        """Write columns t, epsilon, epsilon_dot, epsilon_ddot."""
        own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
        f = open(path_or_file, "w", newline="") if own else path_or_file
        try:
            if comment:
                f.write(f"# {comment}\n")
            writer = csv.writer(f)
            writer.writerow(TRACE_COLUMNS)
            for row in self.rows(units):
                writer.writerow([repr(float(v)) for v in row])
        finally:
            if own:
                f.close()

    def to_csv_text(self, comment: str | None = None, units: str = "nats") -> str:
        buf = io.StringIO()
        self.to_csv(buf, comment=comment, units=units)
        return buf.getvalue()


def _unit_scale(units: str) -> float:
    if units == "nats":
        return 1.0
    if units == "bits":
        return 1.0 / LN2
    raise ValueError(f"unknown entropy units {units!r}")


def _sample(
    initial: core.StateVector,
    h: core.PauliTermSum,
    dt: float,
    steps: int,
    fd_step: float,
    accel_delta: float,
    model_tag: str,
    on_sample=None,
) -> EntanglementTrace:
    """The one sampling loop behind :func:`compute_trace` and
    :func:`collapse.run_trajectory`.

    Samples entropy, finite-difference speed and acceleration at
    ``k * dt`` for ``k = 0 .. steps``.  Each sampled state gets one
    :class:`core.Propagator`, which serves the speed's four offsets, the
    acceleration's two and the step ``dt`` to the next sample: above
    ``core.EIGEN_SITE_LIMIT`` from one Lanczos basis, on the dense path
    from one rotation into the eigenbasis.  Every value equals, bit for bit,
    that of ``core.evolve(state, h, dt)`` followed by the public
    finite-difference speed and :func:`entangling_acceleration`.
    ``on_sample(t, state, epsilon_dot)`` runs after each sample and returns
    the state to continue from, which is how a trajectory substitutes a
    collapsed branch; a new state gets a new propagator.  Finite
    differences are used because samples routinely pass through
    (near-)product states, where the analytic formula would fall back
    anyway.  The loop calls the non-warning :func:`_richardson_speed`, so
    it installs no warning filter (``warnings.catch_warnings`` is not
    thread safe, and ``--jobs`` runs this loop in threads).
    """
    if fd_step <= 0.0:
        raise ValueError("fd_step must be positive")
    _check_accel_step(accel_delta)
    times = np.arange(steps + 1) * dt
    eps = np.empty(steps + 1)
    eps_dot = np.empty(steps + 1)
    eps_ddot = np.empty(steps + 1)
    prop = core.Propagator(initial, h)
    for k in range(steps + 1):
        if k > 0:
            prop = core.Propagator(prop.evolve(dt), h)
        eps[k] = state_entropy(prop.psi)
        eps_dot[k], _ = _richardson_speed(prop, fd_step)
        eps_ddot[k] = _acceleration(prop, accel_delta, eps[k])
        if on_sample is not None:
            state = on_sample(float(times[k]), prop.psi, eps_dot[k])
            if state is not prop.psi:
                prop = core.Propagator(state, h)
    return EntanglementTrace(times, eps, eps_dot, eps_ddot, model_tag, initial.n_env)


def compute_trace(
    initial: core.StateVector,
    h: core.PauliTermSum,
    t_max: float,
    dt: float,
    fd_step: float = DEFAULT_FD_STEP,
    accel_delta: float = DEFAULT_ACCEL_STEP,
    model_tag: str = "custom",
) -> EntanglementTrace:
    """Sample entropy, speed, and acceleration along a purely unitary run.

    Runs the sampling loop shared with :func:`collapse.run_trajectory` with
    no per-sample hook, over ``round(t_max / dt)`` steps of ``dt``.
    """
    if t_max <= 0.0 or dt <= 0.0:
        raise ValueError("t_max and dt must be positive")
    steps = int(round(t_max / dt))
    return _sample(initial, h, dt, steps, fd_step, accel_delta, model_tag)


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
