"""Information cloning of oscillator coherent states.

Parameter-level network algebra (``phase_space``), an independent
truncated number-basis verifier (``fock_oracle``), Monte Carlo
measurement-fidelity experiments (``measurement``), and the optimal
Gaussian copier's reference statistics (``gaussian_cloner``).
"""

from .phase_space import (
    CloneNetworkConfig,
    CoherentParams,
    DegenerateCouplingError,
    apply_transfer,
    build_tilde_transfer,
    build_transfer,
    check_invariants,
    info_overlap_fidelity,
    information_clone,
    remove_phases,
    symmetric_clone_config,
    unitarity_deviation,
)
from .fock_oracle import (
    DimensionBudgetError,
    FockVector,
    TruncationError,
    coherent_state_vector,
    coupling_unitary,
    displacement_matrix,
    ladder_matrices,
    overlap,
    product_coherent_state,
    verify_disentanglement,
)
from .measurement import (
    FidelityRun,
    FidelitySamples,
    DistributionSummary,
    estimate_alpha,
    info_mean_fidelity,
    info_pdf,
    measurement_fidelity,
    run_info_trials,
    sample_quadrature,
    summarize,
)
from .gaussian_cloner import (
    amplification_A,
    comparison_table,
    gauss_mean_fidelity,
    gauss_pdf,
    gauss_quadrature_sampler,
    overlap_fidelity_gaussian,
    run_gauss_trials,
)

__version__ = "0.1.0"
