"""Information cloning of oscillator coherent states.

Parameter-level network algebra (``phase_space``), an independent
truncated number-basis verifier (``fock_oracle``), the measurement-fidelity
law F**c and its Monte Carlo for both schemes (``measurement``), and the
optimal Gaussian copier's closed forms (``gaussian_cloner``).  The package
needs numpy alone; scipy is a reference for the tests only.
"""

from .phase_space import (
    CloneNetworkConfig,
    CoherentParams,
    DegenerateCouplingError,
    apply_transfer,
    build_transfer,
    check_invariants,
    info_overlap_fidelity,
    information_clone,
    symmetric_clone_config,
    unitarity_deviation,
)
from .measurement import (
    FidelityRun,
    FidelitySamples,
    DistributionSummary,
    comparison_table,
    fidelity_cdf,
    fidelity_exponent,
    fidelity_pdf,
    mean_fidelity,
    measurement_fidelity,
    run_trials,
    summarize,
    trial_blocks,
)
from .gaussian_cloner import (
    amplification_fraction,
    gauss_exponent_fraction,
    overlap_fidelity_gaussian,
)
from .fock_oracle import (
    DimensionBudgetError,
    FockVector,
    TruncationError,
    coherent_state_vector,
    disentanglement_infidelity,
    overlap,
    product_coherent_state,
    verify_disentanglement,
)

__version__ = "0.1.0"
