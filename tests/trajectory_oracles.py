"""Trajectory routes kept as oracles for ``collapse.HistoryTree``.

* ``sample_with_hook``: the windowed sampling loop with a state-substituting
  hook, ``on_sample(t, state, epsilon_dot)``, run once after each sample
  and returning the state to continue from; a new state ended the window.
  ``entanglement._sample`` replaced the hook with a start index and a
  stop predicate;
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


def sample_with_hook(initial, h, dt, steps, accel_delta, model_tag, on_sample=None):
    """The windowed sampling loop, one :func:`core.moment_window` per window,
    with the per-sample hook."""
    entanglement._check_accel_step(accel_delta)
    times = np.arange(steps + 1) * dt
    eps = np.empty(steps + 1)
    eps_dot = np.empty(steps + 1)
    eps_ddot = np.empty(steps + 1)
    state, start, k = initial, 0, 0  # the window's state is at times[start]; k is the next sample
    while k <= steps:
        for j, psi, moments, window in core.moment_window(state, h, dt, k - start,
                                                          steps - start):
            k = start + j
            rates = entanglement._entropy_rates(moments)
            eps[k], eps_dot[k] = rates[:2]
            eps_ddot[k] = entanglement._acceleration(rates, window, j * dt, accel_delta)
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
