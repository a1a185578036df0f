"""Numerical laboratory for threshold-triggered collapse dynamics of a qubit
coupled to a spin environment, plus the macroscopic flying-body packet."""

from .core import (
    BipartiteSplit,
    DensityMatrix,
    IntegrationError,
    PauliTermSum,
    StateVector,
    apply_operator,
    build_hamiltonian,
    degenerate_ising,
    evolve,
    expectation,
    partial_trace_system,
    spin_state,
    transverse_coupled,
)
from .entanglement import (
    EntanglementTrace,
    compute_trace,
    entangling_acceleration,
    entangling_speed,
    entropy,
    first_speed_peak,
)
from .collapse import (
    CandidateBasis,
    CollapseEvent,
    CompletenessError,
    HistoryTree,
    RelativeDecomposition,
    ScanSettings,
    ThresholdPolicy,
    basis_axis_distance,
    check_threshold,
    collapse_operator,
    decompose,
    derive_measurement_operators,
    detector_unitary,
    mean_entangling_acceleration,
    run_trajectory,
    sample_outcome,
    scan_collapse_basis,
)
from .energy import EnergyAudit, audit_collapse, energy_after_ensemble, energy_before, energy_delta
from .experiment import (
    RevivalReport,
    analytic_state,
    revival_protocol,
    revival_time,
    revival_tree,
)
from .bullet import (
    BulletParams,
    GridSpec,
    UncertaintyReport,
    WavePacket,
    airy_ai,
    bullet_report,
    collapse_operator_vee,
    dominance_ratio,
    ground_state,
    uncertainties,
    vee_ground_level,
)

__version__ = "0.1.0"
