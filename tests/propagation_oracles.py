"""Slow propagation routes kept as oracles for the fast ones in ``core``.

* ``apply_string_flip`` / ``apply_terms_flip``: the Pauli apply that walked
  the sites of a ``[2] * n`` view, flipping an axis for every X/Y and
  multiplying by a per-axis factor for every Y/Z;
* ``evolve_rk4``: the fixed-step 4th-order Runge-Kutta integrator over that
  apply, with the step chosen for a local error of about 1e-12 and a
  renormalization after every step;
* ``evolve_block`` / ``evolve_on_path``: the three-way dispatcher that
  evolved a vector or the columns of a block by one ``dt`` on a named path
  (``"diagonal"``, ``"dense"``, ``"krylov"`` or ``"auto"``), rotating into
  the eigenbasis and building fresh Lanczos bases on every call, which
  ``core.Propagator`` replaced;
* ``sample_per_call``: the sampling loop that evolved its state afresh for
  the step and for each stencil, through ``core.evolve`` and the public
  finite-difference speed and acceleration.
"""

import math
import warnings

import numpy as np

from qcollapse import core, entanglement

RK4_LOCAL_ERROR = 1e-12
RK4_NORM_GUARD = 1e-6


def _axis_factor(values, axis, ndim):
    shape = [1] * ndim
    shape[axis] = 2
    return np.asarray(values).reshape(shape)


def apply_string_flip(amps, string):
    """Apply one Pauli string to a flat amplitude array."""
    n = len(string)
    arr = amps.reshape([2] * n)
    for k, ch in enumerate(string):
        if ch == "I":
            continue
        if ch in ("X", "Y"):
            arr = np.flip(arr, axis=k)
        if ch == "Y":
            arr = arr * _axis_factor([-1.0j, 1.0j], k, n)
        elif ch == "Z":
            arr = arr * _axis_factor([1.0, -1.0], k, n)
    return np.asarray(arr).reshape(-1)


def apply_terms_flip(op, amps):
    out = np.zeros_like(amps)
    for t in op.terms:
        if t.coefficient != 0.0:
            out += t.coefficient * apply_string_flip(amps, t.string)
    return out


def rk4_steps(dt, scale):
    if scale <= 0.0:
        return 1
    # local RK4 error per step ~ (scale*h)^5 / 120
    h = (120.0 * RK4_LOCAL_ERROR) ** 0.2 / scale
    return max(1, int(math.ceil(abs(dt) / h)))


def evolve_rk4(amps, h, dt):
    """exp(-i H dt) amps by fixed-step RK4; raises on a norm drift past 1e-6."""
    steps = rk4_steps(dt, h.coefficient_scale())
    hs = dt / steps
    y = np.asarray(amps).astype(complex)
    for _ in range(steps):
        k1 = -1j * apply_terms_flip(h, y)
        k2 = -1j * apply_terms_flip(h, y + 0.5 * hs * k1)
        k3 = -1j * apply_terms_flip(h, y + 0.5 * hs * k2)
        k4 = -1j * apply_terms_flip(h, y + hs * k3)
        y = y + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        nrm = float(np.linalg.norm(y))
        if abs(nrm - 1.0) > RK4_NORM_GUARD:
            raise RuntimeError(f"integrator norm drifted to {nrm:.6g}")
        y = y / nrm
    return y


def evolve_block(block, h, dt, path):
    """exp(-i H dt) applied to a vector or to each column of a (dim, m)
    block on the named path, not renormalized."""
    if path == "auto":
        path = core._path(h)
    if path == "diagonal":
        phases = np.exp(-1j * dt * h.diagonal())
        return block * (phases[:, None] if block.ndim == 2 else phases)
    if path == "dense":
        evals, evecs = h.eigensystem()
        phases = np.exp(-1j * dt * evals)
        rotated = core._to_eigenbasis(evecs, block)
        rotated *= phases[:, None] if block.ndim == 2 else phases
        return core._from_eigenbasis(evecs, rotated)
    if path == "krylov":
        def one(col):
            return core._krylov_times(col, h, [dt], core._LanczosBasis(col, h))[:, 0]

        if block.ndim == 1:
            return one(block)
        return np.column_stack([one(col) for col in block.T])
    raise ValueError(f"unknown evolution method {path!r}")


def evolve_on_path(psi, h, dt, path):
    """exp(-i H dt) |psi> on the named path, renormalized."""
    out = evolve_block(psi.amplitudes, h, dt, path)
    return core.StateVector(out / np.linalg.norm(out))


def sample_per_call(initial, h, dt, steps, fd_step, accel_delta, model_tag, on_sample=None):
    """``entanglement._sample`` by one public call per quantity and sample.

    Above ``core.EIGEN_SITE_LIMIT`` this builds three Lanczos bases per
    sample (the step, the speed, the acceleration), and on the dense path
    three rotations into the eigenbasis.
    """
    times = np.arange(steps + 1) * dt
    eps, eps_dot, eps_ddot = (np.empty(steps + 1) for _ in range(3))
    state = initial
    for k in range(steps + 1):
        if k > 0:
            state = core.evolve(state, h, dt)
        eps[k] = entanglement.state_entropy(state)
        with warnings.catch_warnings():
            # the public speed warns where the Richardson levels disagree
            warnings.simplefilter("ignore", RuntimeWarning)
            eps_dot[k] = entanglement.entangling_speed(
                state, h, method="finite_diff", fd_step=fd_step
            )
        eps_ddot[k] = entanglement.entangling_acceleration(state, h, delta=accel_delta)
        if on_sample is not None:
            state = on_sample(float(times[k]), state, eps_dot[k])
    return entanglement.EntanglementTrace(
        times, eps, eps_dot, eps_ddot, model_tag, initial.n_env
    )
