"""Brute-force verification in a truncated multimode number basis.

States are complex amplitude vectors over occupation levels 0..d-1 per mode,
flattened row-major with the source mode slowest.  The coupling generator is
built from ladder matrices, and its exponential is applied to a state
sparsely (``expm_multiply``), never formed as a dense unitary.  Nothing here
assumes the parameter-level algebra of ``phase_space``, which is exactly what
makes :func:`verify_disentanglement` an independent end-to-end oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.special import pdtrc

from .phase_space import CloneNetworkConfig, CoherentParams, apply_transfer, build_transfer

__all__ = [
    "DEFAULT_DIM_BUDGET",
    "TruncationError",
    "DimensionBudgetError",
    "FockVector",
    "ladder_matrices",
    "poisson_tail",
    "required_levels",
    "check_truncation",
    "coherent_state_vector",
    "displacement_matrix",
    "product_coherent_state",
    "overlap",
    "evolve_product_state",
    "disentanglement_infidelity",
    "verify_disentanglement",
    "mode_occupations",
    "interior_mask",
    "total_number_diagonal",
]

DEFAULT_DIM_BUDGET = 20000
# Largest per-mode truncation tail that check_truncation leaves for the gate
# to judge: 100 times the CLI's default gate, and above the 1.0e-5 tail of
# alpha=1 at 8 levels, which the CLI reports as an unreachable gate (exit 3).
TRUNCATION_TAIL_LIMIT = 1e-4
NORM_SLACK = 1e-9


class TruncationError(ValueError):
    """Requested truncation cannot meet the tail bound."""

    def __init__(self, message, required: int):
        super().__init__(message)
        self.required_levels = required


class DimensionBudgetError(ValueError):
    """Total Hilbert-space dimension exceeds the configured budget."""


@dataclass(frozen=True)
class FockVector:
    """Amplitudes over the truncated number basis of ``mode_count`` modes.

    Truncation can only lose weight, so the norm never exceeds 1 (up to
    rounding slack).
    """

    mode_count: int
    levels: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.mode_count < 1 or self.levels < 2:
            raise ValueError("need at least one mode and two levels")
        amps = np.asarray(self.amplitudes, dtype=complex).copy()
        if amps.shape != (self.levels**self.mode_count,):
            raise ValueError("amplitude count must equal levels**mode_count")
        norm = np.linalg.norm(amps)
        if norm > 1.0 + NORM_SLACK:
            raise ValueError(f"norm {norm} exceeds 1; truncation can only lose weight")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def ladder_matrices(levels: int):
    """Lowering and raising matrices on a single truncated mode.

    lower|n> = sqrt(n)|n-1>, raise|n> = sqrt(n+1)|n+1> with the top
    transition dropped.  Their commutator is the identity except the last
    diagonal entry, which is 1 - levels (truncation artifact).
    """
    if levels < 2:
        raise ValueError("need at least two levels")
    lower = np.diag(np.sqrt(np.arange(1.0, levels)), k=1)
    return lower, np.ascontiguousarray(lower.T)


def poisson_tail(mean_occupation: float, levels: int) -> float:
    """Probability weight a coherent state carries above the top retained level."""
    if mean_occupation == 0:
        return 0.0
    if levels < 1:
        return 1.0
    return float(pdtrc(levels - 1, mean_occupation))


def required_levels(mean_occupation: float, tail_bound: float) -> int:
    """Smallest level count whose Poisson tail is within ``tail_bound``."""
    levels = 2
    while poisson_tail(mean_occupation, levels) > tail_bound:
        levels += 1
    return levels


def check_truncation(entries, levels: int, gate: float,
                     dim_budget: int = DEFAULT_DIM_BUDGET) -> None:
    """Check that ``levels`` per mode can hold coherent states with these
    parameters, typically the input and the predicted output of a network.

    Truncation alone costs an infidelity of about the sum of the modes'
    Poisson tails.  When the largest tail exceeds
    ``max(gate, TRUNCATION_TAIL_LIMIT)``, an infidelity measures the
    truncation, not the network, so this raises :class:`TruncationError`
    naming the level count at which every tail is within
    ``gate / len(entries)``, enough for the truncation to keep below
    ``gate``.  A tail between ``gate`` and the limit passes: the gate is then
    out of reach at this truncation, and the infidelity says by how much.
    A mean occupation of ``dim_budget`` or more raises
    :class:`DimensionBudgetError`, since such a mode alone needs more levels
    than the budget allows.
    """
    if not gate > 0:
        raise ValueError(f"gate must be positive, got {gate}")
    largest = max(abs(complex(z)) for z in entries)
    mean = largest * largest
    if not mean < dim_budget:
        raise DimensionBudgetError(
            f"a mode with mean occupation {mean:.3g} needs more levels than the "
            f"dimension budget {dim_budget} allows"
        )
    tail = poisson_tail(mean, levels)
    if tail > max(gate, TRUNCATION_TAIL_LIMIT):
        needed = required_levels(mean, gate / len(entries))
        raise TruncationError(
            f"{levels} levels drop {tail:.3e} of a mode's weight, above "
            f"max(gate, {TRUNCATION_TAIL_LIMIT:g}); need at least {needed} levels "
            f"for gate {gate:g}",
            required=needed,
        )


def coherent_state_vector(alpha: complex, levels: int) -> FockVector:
    """Truncated coherent state with amplitudes e^{-|a|^2/2} a^n / sqrt(n!).

    The squared norm equals 1 minus the Poisson tail beyond the top level
    (see :func:`check_truncation`).  Raises ``ValueError`` when the mean
    occupation |alpha|^2 is not finite.
    """
    alpha = complex(alpha)
    try:
        mean = abs(alpha) ** 2
    except OverflowError:  # |alpha| or its square is beyond the float range
        mean = math.inf
    if not math.isfinite(mean):
        raise ValueError(f"mean occupation |alpha|^2 of alpha={alpha} is not finite")
    amps = np.empty(levels, dtype=complex)
    amps[0] = math.exp(-0.5 * mean)
    for n in range(1, levels):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return FockVector(1, levels, amps)


def displacement_matrix(alpha: complex, levels: int) -> np.ndarray:
    """Matrix exponential of alpha*raise - conj(alpha)*lower on one mode.

    Applied to the vacuum it reproduces :func:`coherent_state_vector` up to
    truncation effects.
    """
    alpha = complex(alpha)
    lower, lift = ladder_matrices(levels)
    return expm(alpha * lift - np.conj(alpha) * lower)


def _mode_operator(op: sparse.spmatrix, mode: int, mode_count: int) -> sparse.spmatrix:
    """Kronecker-embed a single-mode operator; mode 0 (the source) is slowest."""
    eye = sparse.identity(op.shape[0], format="csr", dtype=complex)
    result = None
    for m in range(mode_count):
        factor = op if m == mode else eye
        result = factor if result is None else sparse.kron(result, factor, format="csr")
    return result


def _coupling_generator(config: CloneNetworkConfig, levels: int) -> sparse.spmatrix:
    """Sparse anti-Hermitian generator of the coupling network.

    The configured phase enters as coupling kappa_j = r_j * exp(-1j*delta_j),
    the convention under which ``build_transfer`` is the exact parameter map
    of the exponentiated generator.
    """
    modes = config.n_targets + 1
    lower, lift = ladder_matrices(levels)
    lower = sparse.csr_matrix(lower.astype(complex))
    lift = sparse.csr_matrix(lift.astype(complex))
    source_up = _mode_operator(lift, 0, modes)
    source_down = _mode_operator(lower, 0, modes)
    kappa = config.magnitudes * np.exp(-1j * config.phases)
    dim = levels**modes
    generator = sparse.csr_matrix((dim, dim), dtype=complex)
    for j, coupling in enumerate(kappa):
        target_down = _mode_operator(lower, j + 1, modes)
        target_up = _mode_operator(lift, j + 1, modes)
        generator = generator + coupling * (source_up @ target_down) \
            - np.conj(coupling) * (source_down @ target_up)
    return config.time * generator


def _check_budget(config: CloneNetworkConfig, levels: int, dim_budget: int) -> int:
    dim = levels ** (config.n_targets + 1)
    if dim > dim_budget:
        raise DimensionBudgetError(
            f"total dimension {dim} exceeds the budget {dim_budget}"
        )
    return dim


def product_coherent_state(params: CoherentParams, levels: int) -> FockVector:
    """Tensor product of truncated coherent states, source mode slowest."""
    amps = None
    for entry in params.entries:
        mode = coherent_state_vector(entry, levels)
        amps = mode.amplitudes if amps is None else np.kron(amps, mode.amplitudes)
    return FockVector(len(params), levels, amps)


def overlap(x: FockVector, y: FockVector) -> complex:
    """Inner product <x|y> of two vectors on the same truncated space."""
    if (x.mode_count, x.levels) != (y.mode_count, y.levels):
        raise ValueError("vectors live on different truncated spaces")
    return complex(np.vdot(x.amplitudes, y.amplitudes))


def evolve_product_state(params: CoherentParams, config: CloneNetworkConfig, levels: int,
                         dim_budget: int = DEFAULT_DIM_BUDGET) -> FockVector:
    """Evolve a product coherent state by the coupling network.

    Uses the sparse action of the generator's exponential on the state.
    """
    if len(params) != config.n_targets + 1:
        raise ValueError("parameter count must match the network size")
    _check_budget(config, levels, dim_budget)
    initial = product_coherent_state(params, levels)
    if config.time == 0:
        return initial
    evolved = expm_multiply(_coupling_generator(config, levels), initial.amplitudes)
    return FockVector(len(params), levels, evolved)


def disentanglement_infidelity(predicted: CoherentParams, evolved: FockVector) -> float:
    """1 - |<expected|evolved>|^2, where ``expected`` is the product coherent
    state with the ``predicted`` parameters on the truncation of ``evolved``."""
    expected = product_coherent_state(predicted, evolved.levels)
    return float(1.0 - abs(overlap(expected, evolved)) ** 2)


def verify_disentanglement(params: CoherentParams, config: CloneNetworkConfig, levels: int,
                           dim_budget: int = DEFAULT_DIM_BUDGET) -> float:
    """Infidelity between brute-force evolution and the parameter-map prediction.

    The input product state is evolved numerically and scored by
    :func:`disentanglement_infidelity` against the parameters predicted by
    ``apply_transfer(build_transfer(config))``.  This is the end-to-end check
    that the network output stays a disentangled set of coherent states with
    exactly the predicted parameters.
    """
    evolved = evolve_product_state(params, config, levels, dim_budget)
    predicted = apply_transfer(build_transfer(config), params)
    return disentanglement_infidelity(predicted, evolved)


def mode_occupations(mode_count: int, levels: int) -> np.ndarray:
    """Occupation numbers of every flattened basis index, shape (dim, modes)."""
    grids = np.indices((levels,) * mode_count)
    return grids.reshape(mode_count, -1).T


def interior_mask(mode_count: int, levels: int) -> np.ndarray:
    """Basis states whose occupations all stay below the truncation edge.

    Unitarity and commutator identities necessarily break on the boundary
    states, so checks restrict to this interior.
    """
    return np.all(mode_occupations(mode_count, levels) <= levels - 2, axis=1)


def total_number_diagonal(mode_count: int, levels: int) -> np.ndarray:
    """Diagonal of the total occupation-number operator."""
    return mode_occupations(mode_count, levels).sum(axis=1).astype(float)
