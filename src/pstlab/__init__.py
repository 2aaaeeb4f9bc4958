"""pstlab: noisy spin-chain state-transfer laboratory.

Simulation of Trotterized XY-chain transfer on the 4^n real Pauli
coefficients of the density matrix, under a layered noise model, with
rescaling-based mitigation and coupling-strength optimization (grid search
plus Gaussian-process search).
"""

__version__ = "0.1.0"

from .chains import (
    CouplingProfile,
    NoisyCircuit,
    TrotterPlan,
    build_trotter_circuit,
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
)
from .noise import (
    NoiseParams,
    attach_comprehensive,
    depolarizing_channel,
    pauli_channel,
    thermal_relaxation_channel,
    two_qubit_tensor_channel,
    zz_dephasing_channel,
)
from .optimizer import (
    EvalRecord,
    bayes_optimize,
    grid_search_j0,
    objective,
    sensitivity_and_delta,
)
from .sim_core import (
    DensityMatrix,
    KrausChannel,
    Superoperator,
    UnitaryGate,
    apply_channel,
    apply_unitary,
    fused_superoperators,
)
