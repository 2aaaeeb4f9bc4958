"""pstlab: noisy spin-chain state-transfer laboratory.

Dense density-matrix simulation of Trotterized XY-chain transfer under a
layered noise model, with rescaling-based mitigation and coupling-strength
optimization (grid search plus Gaussian-process search).
"""

__version__ = "0.1.0"

from .chains import (
    CouplingProfile,
    NoisyCircuit,
    TrotterPlan,
    build_trotter_circuit,
    exact_sp_oracle,
    exact_transfer_amplitude,
    gate_matrix,
    pst_couplings,
)
from .experiments import (
    ExperimentConfig,
    NoPeakError,
    SPTimeSeries,
    TomographyRecord,
    detect_first_peak,
    run_arbitrary_transfer,
    run_site_resolved,
    run_sp_series,
    tomography_reconstruct,
)
from .mitigation import (
    RescaleParams,
    apply_rescaling,
    fit_rescaling,
    forward_decay,
)
from .noise import (
    ChannelAttachment,
    NoiseParams,
    attach_channels,
    attach_comprehensive,
    depolarizing_channel,
    pauli_channel,
    thermal_relaxation_channel,
    two_qubit_tensor_channel,
    zz_dephasing_channel,
)
from .optimizer import (
    Candidate,
    EvalRecord,
    bayes_optimize,
    grid_search_j0,
    objective,
    sensitivity_and_delta,
)
from .sim_core import (
    CPTPReport,
    DensityMatrix,
    KrausChannel,
    PureState,
    Superoperator,
    UnitaryGate,
    apply_channel,
    apply_superoperator,
    apply_unitary,
    choi_matrix,
    fused_superoperator,
    partial_trace_to_qubit,
    qubit_p1,
    qubit_state_fidelity,
    validate_cptp,
)
