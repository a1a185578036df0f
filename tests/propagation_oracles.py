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
* ``richardson_speed`` / ``stencil_acceleration``: the entropy's
  finite-difference speed (a central difference at +-fd_step with one
  Richardson halving) and second-difference acceleration (symmetric, or
  one-sided at a product state), which the closed form
  ``entanglement._rates`` replaced; ``richardson_acceleration``
  extrapolates the symmetric stencil over delta and delta / 2;
* ``block_entropies``: the system-qubit entropies of a block's columns
  from the eigenvalues ``(tr -+ disc) / 2``, which cancel near a product
  state; ``entanglement._entropy_of_det`` replaced them with the Gram
  determinant's small eigenvalue ``2 D / (1 + sqrt(1 - 4 D))``;
* ``sample_per_call``: the sampling loop that evolved its state afresh for
  every sample (``core.evolve`` over one ``dt``) and took the speed and
  acceleration from the stencils on that state.
"""

import math

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


FD_STEP = 1e-4


def block_entropies(block):
    """System-qubit entropies of every column of a (dim, m) block, each from
    the two eigenvalues ``(tr -+ disc) / 2`` of its reduced state."""
    dim, m = block.shape
    rows = np.ascontiguousarray(block.T).reshape(m, 2, dim // 2)
    up, down = rows[:, 0], rows[:, 1]
    r00 = np.square(up.view(np.float64)).sum(axis=1)
    r11 = np.square(down.view(np.float64)).sum(axis=1)
    r01 = (up * down.conj()).sum(axis=1)
    disc = np.sqrt(np.maximum((r00 - r11) ** 2 + 4.0 * np.abs(r01) ** 2, 0.0))
    tr = r00 + r11
    lams = np.stack([0.5 * (tr - disc), 0.5 * (tr + disc)])
    mask = lams > entanglement.EIG_CUTOFF
    out = -np.sum(np.where(mask, lams * np.log(np.where(mask, lams, 1.0)), 0.0), axis=0)
    return np.maximum(out, 0.0)


def _entropies(psi, h, offsets):
    return np.array(
        [entanglement.state_entropy(col) for col in core.evolve_times(psi, h, offsets).T]
    )


def richardson_speed(psi, h, fd_step=FD_STEP):
    """Central difference of the entropy at +-fd_step and +-fd_step/2, with
    one Richardson halving."""
    half = 0.5 * fd_step
    s = _entropies(psi, h, [fd_step, -fd_step, half, -half])
    d_full = float(s[0] - s[1]) / (2.0 * fd_step)
    d_half = float(s[2] - s[3]) / (2.0 * half)
    return (4.0 * d_half - d_full) / 3.0


def stencil_acceleration(psi, h, delta=entanglement.DEFAULT_ACCEL_STEP):
    """Second difference of the entropy: one-sided at a product state,
    symmetric elsewhere."""
    eps0 = entanglement.state_entropy(psi)
    if eps0 < entanglement.PRODUCT_ENTROPY:
        e1, e2 = _entropies(psi, h, [delta, 2.0 * delta])
        return float(e2 - 2.0 * e1) / delta**2
    e_plus, e_minus = _entropies(psi, h, [delta, -delta])
    return float(e_plus - 2.0 * eps0 + e_minus) / delta**2


def richardson_acceleration(psi, h, delta=entanglement.DEFAULT_ACCEL_STEP):
    """The symmetric second difference at delta and delta / 2, with one
    Richardson halving."""
    eps0 = entanglement.state_entropy(psi)
    s = _entropies(psi, h, [delta, -delta, delta / 2, -delta / 2])
    full = float(s[0] - 2.0 * eps0 + s[1]) / delta**2
    half = float(s[2] - 2.0 * eps0 + s[3]) / (delta / 2) ** 2
    return (4.0 * half - full) / 3.0


def sample_per_call(initial, h, dt, steps, accel_delta, model_tag, on_sample=None):
    """``entanglement._sample`` by one evolution and two stencils per sample.

    Each sample's state is the last one evolved by ``dt`` on a fresh
    propagator, its speed is :func:`richardson_speed` and its acceleration
    :func:`stencil_acceleration`.
    """
    times = np.arange(steps + 1) * dt
    eps, eps_dot, eps_ddot = (np.empty(steps + 1) for _ in range(3))
    state = initial
    for k in range(steps + 1):
        if k > 0:
            state = core.evolve(state, h, dt)
        eps[k] = entanglement.state_entropy(state)
        eps_dot[k] = richardson_speed(state, h)
        eps_ddot[k] = stencil_acceleration(state, h, accel_delta)
        if on_sample is not None:
            state = on_sample(float(times[k]), state, eps_dot[k])
    return entanglement.EntanglementTrace(
        times, eps, eps_dot, eps_ddot, model_tag, initial.n_env
    )
