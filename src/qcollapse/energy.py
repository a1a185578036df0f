"""Energy bookkeeping across collapse events and the environment-size sweep.

Collapse replaces a state with one of its product branches, so the total
energy expectation generally jumps.  The cross-term sum quantifies that
jump directly and must equal the before/after subtraction identically; the
sweep tracks how the relative jump shrinks as the environment grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import collapse, core, entanglement

# relative deviations divide by |E_before|; below this floor the quotient
# blows up and the audit reports the absolute deviation instead
E_BEFORE_FLOOR = 1e-9


def energy_before(psi: core.StateVector, h: core.PauliTermSum) -> float:
    """Total-energy expectation of the pre-collapse state."""
    return core.expectation(h, psi)


def energy_after_ensemble(decomp: collapse.RelativeDecomposition, h: core.PauliTermSum) -> float:
    """Born-weighted energy over the post-collapse product branches."""
    probs = decomp.born_probabilities()
    total = 0.0
    for i in range(probs.size):
        if decomp.zero_weight[i]:
            continue
        total += probs[i] * core.expectation(h, decomp.branch_state(i))
    return float(total)


def energy_delta(decomp: collapse.RelativeDecomposition, h: core.PauliTermSum) -> float:
    """Cross-branch energy sum; identical to before minus ensemble-after.

    Computed directly as sum_{i != j} conj(c_j) c_i <B_j|H|B_i> rather than
    by subtraction, so tests can check the identity between the two routes.
    """
    branches = [decomp.branch_state(i) for i in range(2)]
    applied = [core.apply_operator(h, b) for b in branches]
    w = decomp.weights
    total = 0.0j
    for i in range(2):
        for j in range(2):
            if i == j:
                continue
            total += np.conj(w[j]) * w[i] * np.vdot(branches[j], applied[i])
    return float(total.real)


@dataclass(frozen=True)
class EnergyAudit:
    """Before/after energies of one collapse and their relative deviation."""

    e_before: float
    e_after_ensemble: float
    delta_e: float
    relative_deviation: float
    n_env: int
    floored: bool = False

    def __post_init__(self):
        if abs(self.delta_e - (self.e_before - self.e_after_ensemble)) > 1e-9:
            raise ValueError("cross-term delta disagrees with the energy subtraction")


def audit_collapse(
    psi: core.StateVector,
    h: core.PauliTermSum,
    basis: collapse.CandidateBasis,
) -> EnergyAudit:
    decomp = collapse.decompose(psi, basis)
    e_b = energy_before(psi, h)
    e_a = energy_after_ensemble(decomp, h)
    d_e = energy_delta(decomp, h)
    denom = abs(e_b)
    floored = denom < E_BEFORE_FLOOR
    rel = abs(d_e) if floored else abs(d_e) / denom
    return EnergyAudit(e_b, e_a, d_e, rel, psi.n_env, floored)


@dataclass(frozen=True)
class SweepPoint:
    n_env: int
    t_c: float
    e_before: float
    e_after_ensemble: float
    delta_e: float
    relative_deviation: float
    floored: bool
    basis_theta: float
    basis_phi: float
    basis_method_used: str
    degenerate_fallback: bool


def deviation_sweep(
    n_values,
    hamiltonian_factory,
    initial_factory,
    t_max: float,
    dt: float,
    basis_method: str = "scan",
    scan_settings: collapse.ScanSettings | None = None,
    model_tag: str = "custom",
) -> list[SweepPoint]:
    """Energy-deviation audit at the first speed peak for each register size.

    For every environment size the state is evolved unitarily, the collapse
    time is taken as the first interior maximum of the entangling speed,
    the basis is determined by :func:`collapse.determine_basis` with
    ``basis_method``, and the audit is recorded.  A flat basis landscape
    raises ``ValueError``: the sweep has no collapse to audit.
    """
    # before the first trace: an unknown method fails fast, not after a run
    collapse._check_basis_method(basis_method)
    scan_settings = scan_settings or collapse.ScanSettings()
    points = []
    for n in n_values:
        h = hamiltonian_factory(n)
        initial = initial_factory(n)
        trace = entanglement.compute_trace(
            initial, h, t_max=t_max, dt=dt, model_tag=model_tag
        )
        _, t_c, _ = entanglement.first_speed_peak(trace)
        state = core.evolve(initial, h, t_c)
        basis, used, fell_back = collapse.determine_basis(state, h, basis_method, scan_settings)
        if basis is None:
            raise ValueError("flat basis landscape; no collapse basis exists")
        audit = audit_collapse(state, h, basis)
        points.append(
            SweepPoint(
                n_env=n,
                t_c=t_c,
                e_before=audit.e_before,
                e_after_ensemble=audit.e_after_ensemble,
                delta_e=audit.delta_e,
                relative_deviation=audit.relative_deviation,
                floored=audit.floored,
                basis_theta=basis.theta,
                basis_phi=basis.phi,
                basis_method_used=used,
                degenerate_fallback=fell_back,
            )
        )
    return points
