"""Sampling and trajectory routes kept as oracles for
``entanglement._sample`` and ``collapse.HistoryTree``.

* ``inner``, ``entropy_rates``, ``acceleration`` and ``moment_window``: the
  per-sample route of the sampling loop.  ``moment_window`` yielded each
  sample of a window with its state built, renormalized and drift-guarded
  by a BLAS norm; ``entropy_rates`` took one sample's Gram entries by
  ``inner``'s row sums and its rates in ``math``; ``acceleration`` took a
  product state's one-sided stencil by its own query on the window's
  propagator, whose columns it takes unnormalized, as
  ``entanglement._stencils`` does (the entropy is scale-free).
  ``entanglement._sample`` replaced them with one pass per chunk: the
  Gram entries of every sample by one chunked kernel
  (``entanglement._gram``), the norm guard from the Gram diagonal, one
  stencil query per chunk, and a state built only where it is handed out;
* ``sample_with_hook``: the windowed sampling loop on that route, with a
  state-substituting hook, ``on_sample(t, state, epsilon_dot)``, run once
  after each sample and returning the state to continue from; a new state
  ended the window.  ``entanglement._sample`` replaced the hook with a
  start index and a stop predicate.  Its windows keep the per-chunk
  restart rule on every path: a fresh propagator at the last sample's
  renormalized state every ``floor(4 / (coefficient_scale() * dt))``
  samples (``moment_window``).  ``entanglement._sample`` keeps one window
  for a whole segment on the dense and diagonal paths, and one Lanczos
  window for as many chunks as its basis converges for, so the two agree
  to roundoff, and exactly wherever a segment ends within its first
  chunk;
* ``hook_trajectory``: ``collapse.run_trajectory`` as one run of that loop,
  whose hook found the basis, decomposed, audited the energies and drew
  the outcome at every crossing (any sampler with the same signature, for
  instance ``propagation_oracles.sample_per_call``, can stand in for the
  loop);
* ``replay_final_state``: the state at the revival time, by replaying a
  trajectory's collapses on fresh evolutions and evolving the tail, which
  ``HistoryTree.final_state`` replaced with the leaf's collapsed state
  evolved once.
"""

import math

import numpy as np

from qcollapse import collapse, core, energy, entanglement


def inner(x, y):
    """``out[i, j] = <x[i], y[j]>``, each a sum along a contiguous row."""
    xc = x.conj()
    return np.array([(row * xc).sum(axis=-1) for row in y]).T


def entropy_rates(moments):
    """S, S' and S'' of the system qubit from psi, H psi and H^2 psi, the
    rows of one sample's contiguous (3, dim) array, by :func:`inner` and the
    closed forms of ``entanglement._rates``.  Gram entries whose trace lies
    outside ``entanglement._GRAM_RANGE`` are divided by the trace's power
    of two first."""
    rows = moments.reshape(6, -1)  # m0, m1, (H psi)0, 1, (H^2 psi)0, 1
    g, hh = inner(rows[:2], rows).T, inner(rows[2:4], rows[2:4]).T  # g[i][j] = <m_j, row_i>
    trace = g[0, 0].real + g[1, 1].real
    low, high = entanglement._GRAM_RANGE
    if not low <= trace <= high:
        e = math.frexp(trace)[1]
        g, hh = (np.ldexp(np.ascontiguousarray(x).view(np.float64), -e).view(complex)
                 for x in (g, hh))
    g, hh = g.tolist(), hh.tolist()
    rho = (g[0][0].real, g[1][1].real, g[0][1])
    rho1 = (2.0 * g[2][0].imag, 2.0 * g[3][1].imag, 1j * (g[3][0].conjugate() - g[2][1]))
    rho2 = (
        2.0 * (hh[0][0] - g[4][0]).real,
        2.0 * (hh[1][1] - g[5][1]).real,
        2.0 * hh[0][1] - g[4][1] - g[5][0].conjugate(),
    )
    pair, det = entanglement._pair, entanglement._det
    d = det(rho)
    if not d > 0.0:
        return 0.0, 0.0, math.inf
    norm2 = (rho[0] + rho[1]) ** 2
    d1 = pair(rho, rho1) / norm2
    d2 = (pair(rho, rho2) + pair(rho1, rho1)) / norm2
    s = math.sqrt(max(1.0 - 4.0 * d, 0.0))
    if s < 0.05:
        s2 = s * s
        weight = 2.0 * sum(s2**k / (2 * k + 1) for k in range(8))
        curvature = -4.0 * sum(2 * k / (2 * k + 1) * s2 ** (k - 1) for k in range(1, 9))
    else:
        weight = (2.0 * math.log1p(s) - math.log(4.0 * d)) / s
        curvature = (2.0 * weight - 1.0 / d) / (s * s)
    return entanglement._entropy_of_det(d), d1 * weight, d2 * weight + d1 * d1 * curvature


def state_entropy(amps):
    """The system qubit's entropy of one amplitude vector, by :func:`inner`."""
    m = np.asarray(amps).reshape(2, -1)
    g = inner(m, m).tolist()
    return entanglement._entropy_of_det(entanglement._det((g[0][0].real, g[1][1].real, g[1][0])))


def acceleration(rates, window, t, delta):
    """S'' from ``rates`` at offset ``t`` of the ``window`` propagator, or at
    a product state the one-sided stencil over ``delta``, by one query of
    its own on unnormalized columns."""
    entropy, _, curvature = rates
    if entropy >= entanglement.PRODUCT_ENTROPY:
        return curvature
    e1, e2 = (state_entropy(col) for col in window.propagate([t + delta, t + 2.0 * delta]).T)
    return (e2 - 2.0 * e1) / delta**2


def moment_window(psi, h, dt, first, last):
    """Yields ``(j, state, moments, window)`` for the offsets ``j * dt``,
    ``j = first ..``, from one ``moments`` query on ``window``, the
    propagator at ``psi``, with every sample's state built, renormalized and
    drift-guarded; the window stops at ``last`` or at the fixed reach
    ``coefficient_scale() * j * dt <= 4``, whatever the basis could reach."""
    reach = h.coefficient_scale() * dt
    if reach > 0.0:
        last = min(last, max(1, math.floor(core._KRYLOV_MAX_REACH / reach)))
    offsets = np.arange(first, last + 1)
    window = core.Propagator(psi, h)
    block = window.moments(offsets * dt)
    for j, moments in zip(offsets.tolist(), block):
        yield j, core.StateVector(core._unit_columns(moments[0])), moments, window


def sample_with_hook(initial, h, dt, steps, accel_delta, model_tag, on_sample=None):
    """The windowed sampling loop on the per-sample route, one
    :func:`moment_window` per window, with the per-sample hook."""
    entanglement._check_accel_step(accel_delta)
    times = np.arange(steps + 1) * dt
    eps = np.empty(steps + 1)
    eps_dot = np.empty(steps + 1)
    eps_ddot = np.empty(steps + 1)
    state, start, k = initial, 0, 0  # the window's state is at times[start]; k is the next sample
    while k <= steps:
        for j, psi, moments, window in moment_window(state, h, dt, k - start, steps - start):
            k = start + j
            rates = entropy_rates(moments)
            eps[k], eps_dot[k] = rates[:2]
            eps_ddot[k] = acceleration(rates, window, j * dt, accel_delta)
            state = psi
            if on_sample is not None:
                state = on_sample(float(times[k]), psi, eps_dot[k])
                if state is not psi:
                    break
        del moments, window
        start, k = k, k + 1
    return entanglement.EntanglementTrace(times, eps, eps_dot, eps_ddot, model_tag, initial.n_env)


def hook_trajectory(
    initial,
    h,
    policy,
    t_max,
    seed,
    basis_method="auto",
    scan_settings=None,
    accel_delta=entanglement.DEFAULT_ACCEL_STEP,
    model_tag="custom",
    sample=sample_with_hook,
):
    """One trajectory by one run of ``sample`` with a collapsing hook:
    ``(trace, events)``."""
    scan_settings = scan_settings or collapse.ScanSettings()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    events = []

    def collapse_on_crossing(t, state, epsilon_dot):
        if not collapse.check_threshold(epsilon_dot, policy):
            return state
        basis, _, _ = collapse.determine_basis(state, h, basis_method, scan_settings)
        if basis is None:
            return state
        decomp = collapse.decompose(state, basis)
        e_before = energy.energy_before(state, h)
        e_after = energy.energy_after_ensemble(decomp, h)
        drawn = collapse.sample_outcome(decomp, rng)
        events.append(
            collapse.CollapseEvent(
                t_c=t,
                basis=basis,
                born_weights=tuple(float(p) for p in decomp.born_probabilities()),
                outcome_index=drawn.outcome_index,
                e_before=e_before,
                e_after_ensemble=e_after,
                e_after_actual=energy.energy_before(drawn.state, h),
                rng_draw=drawn.rng_draw,
            )
        )
        return drawn.state

    dt = policy.check_interval
    steps = int(math.ceil(t_max / dt - 1e-12))
    trace = sample(initial, h, dt, steps, accel_delta, model_tag, collapse_on_crossing)
    return trace, events


def replay_final_state(initial, h, events, t_rev):
    """Final state at t_rev: replay the collapses, then evolve the tail."""
    state = initial
    t = 0.0
    for event in events:
        state = core.evolve(state, h, event.t_c - t)
        decomp = collapse.decompose(state, event.basis)
        state = core.StateVector(decomp.branch_state(event.outcome_index), normalize=True)
        t = event.t_c
    return core.evolve(state, h, t_rev - t)
