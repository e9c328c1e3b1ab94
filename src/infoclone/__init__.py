"""Information cloning of oscillator coherent states.

Parameter-level network algebra (``phase_space``), an independent
truncated number-basis verifier (``fock_oracle``), Monte Carlo
measurement-fidelity experiments (``measurement``), and the optimal
Gaussian copier's reference statistics (``gaussian_cloner``).

Only ``fock_oracle`` needs scipy.  It is registered here as a lazy module:
``infoclone.fock_oracle`` and the names re-exported from it below resolve
as usual, but the module's code, and scipy with it, runs on the first
attribute access.  Everything else starts on numpy alone.
"""

import importlib.util
import sys

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
    overlap_fidelity_gaussian,
    run_gauss_trials,
)

__version__ = "0.1.0"


def _lazy_submodule(name: str):
    """Put submodule ``name`` in ``sys.modules`` without running it yet."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


fock_oracle = _lazy_submodule("fock_oracle")

_FOCK_ORACLE_EXPORTS = frozenset({
    "DimensionBudgetError",
    "FockVector",
    "TruncationError",
    "coherent_state_vector",
    "disentanglement_infidelity",
    "displacement_matrix",
    "ladder_matrices",
    "overlap",
    "product_coherent_state",
    "verify_disentanglement",
})


def __getattr__(name: str):
    if name in _FOCK_ORACLE_EXPORTS:
        return getattr(fock_oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
