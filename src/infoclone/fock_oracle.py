"""Brute-force verification in a truncated multimode number basis.

The coupling generator sum_j kappa_j a_0^dag a_j - h.c. conserves the total
excitation number, so states live on the total-excitation simplex: every
occupation tuple (n_0, ..., n_k) with n_0 + ... + n_k <= d - 1, in row-major
order with the source mode slowest (the d**(k+1) box restricted to the
simplex).  That basis holds C(d+k, k+1) states.  Each total-number sector
evolves exactly there, so the only truncation loss is the Poisson tail T of
the input's total excitation above d - 1: a product coherent state is scored
at infidelity 2T - T**2 (see :func:`check_truncation`).

The generator is built entry by entry from the occupations, and its
exponential is applied to a state sparsely (``expm_multiply``), never formed
as a dense unitary.  Nothing here assumes the parameter-level algebra of
``phase_space``, which is exactly what makes :func:`verify_disentanglement`
an independent end-to-end oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.special import pdtrc

from .phase_space import (
    CloneNetworkConfig,
    CoherentParams,
    apply_transfer,
    build_transfer,
    mean_occupation,
)

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
    "total_number_diagonal",
]

DEFAULT_DIM_BUDGET = 20000
# Largest total-excitation tail that check_truncation leaves for the gate to
# judge: 100 times the CLI's default gate, and above the 1.0e-5 tail of
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
    """Amplitudes over the total-excitation simplex of ``mode_count`` modes
    (one amplitude per row of :func:`mode_occupations`).

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
        if amps.shape != (_simplex_dimension(self.mode_count, self.levels),):
            raise ValueError("amplitude count must equal comb(levels-1+mode_count, mode_count)")
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
    """Check that the simplex of ``levels`` can hold the product coherent
    state with these input parameters.

    The network conserves the total excitation, whose mean is
    sum |entry|^2, so the input alone decides the loss: with T the Poisson
    tail of that total above ``levels - 1``, the scored infidelity is exactly
    2T - T**2.  When T exceeds ``max(gate, TRUNCATION_TAIL_LIMIT)``, an
    infidelity measures the truncation, not the network, so this raises
    :class:`TruncationError` naming the level count at which T is within
    ``gate / 2``, enough for the truncation to keep below ``gate``.  A tail
    between ``gate`` and the limit passes: the gate is then out of reach at
    this truncation, and the infidelity says by how much.  A total mean
    occupation of ``dim_budget`` or more raises :class:`DimensionBudgetError`,
    since it alone needs more levels than the budget allows.
    """
    if not gate > 0:
        raise ValueError(f"gate must be positive, got {gate}")
    moduli = [abs(complex(z)) for z in entries]
    total = math.fsum(m * m for m in moduli)  # inf, not OverflowError, past the float range
    if not total < dim_budget:
        raise DimensionBudgetError(
            f"a total mean occupation of {total:.3g} needs more levels than the "
            f"dimension budget {dim_budget} allows"
        )
    tail = poisson_tail(total, levels)
    if tail > max(gate, TRUNCATION_TAIL_LIMIT):
        needed = required_levels(total, gate / 2)
        raise TruncationError(
            f"{levels} levels drop {tail:.3e} of the total excitation's weight, "
            f"above max(gate, {TRUNCATION_TAIL_LIMIT:g}); need at least {needed} "
            f"levels for gate {gate:g}",
            required=needed,
        )


def coherent_state_vector(alpha: complex, levels: int) -> FockVector:
    """Truncated coherent state with amplitudes e^{-|a|^2/2} a^n / sqrt(n!).

    The squared norm equals 1 minus the Poisson tail beyond the top level
    (see :func:`check_truncation`).  Raises ``ValueError`` when the mean
    occupation |alpha|^2 is not finite.
    """
    alpha = complex(alpha)
    mean = mean_occupation(alpha)
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


def _coupling_generator(config: CloneNetworkConfig, levels: int) -> sparse.spmatrix:
    """Sparse anti-Hermitian generator of the coupling network on the simplex.

    The configured phase enters as coupling kappa_j = r_j * exp(-1j*delta_j),
    the convention under which ``build_transfer`` is the exact parameter map
    of the exponentiated generator.  The term kappa_j a_0^dag a_j moves one
    excitation from target j to the source with amplitude
    sqrt((n_0+1) n_j); it keeps the total, so its image lies in the simplex.
    The Hermitian-conjugate term is the negated conjugate transpose.
    """
    modes = config.n_targets + 1
    occupations = mode_occupations(modes, levels)
    kappa = config.time * config.magnitudes * np.exp(-1j * config.phases)
    rows, cols, values = [], [], []
    for j, coupling in enumerate(kappa, start=1):
        (source,) = np.nonzero(occupations[:, j])
        moved = occupations[source].copy()
        moved[:, 0] += 1
        moved[:, j] -= 1
        rows.append(_simplex_index(moved, levels))
        cols.append(source)
        values.append(coupling * np.sqrt(moved[:, 0] * occupations[source, j]))
    rows, cols, values = (np.concatenate(part) for part in (rows, cols, values))
    dim = occupations.shape[0]
    return sparse.csr_matrix(
        (np.concatenate([values, -values.conj()]),
         (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(dim, dim),
    )


def _check_budget(config: CloneNetworkConfig, levels: int, dim_budget: int) -> int:
    dim = _simplex_dimension(config.n_targets + 1, levels)
    if dim > dim_budget:
        raise DimensionBudgetError(
            f"total dimension {dim} exceeds the budget {dim_budget}"
        )
    return dim


def product_coherent_state(params: CoherentParams, levels: int) -> FockVector:
    """Product of truncated coherent states on the simplex, source mode slowest.

    The amplitude of occupation row (n_0, ..., n_k) is the product of the
    modes' amplitudes c_0[n_0] * ... * c_k[n_k], taken left to right.
    """
    occupations = mode_occupations(len(params), levels)
    amps = np.ones(occupations.shape[0], dtype=complex)
    for mode, entry in enumerate(params.entries):
        amps *= coherent_state_vector(entry, levels).amplitudes[occupations[:, mode]]
    return FockVector(len(params), levels, amps)


def overlap(x: FockVector, y: FockVector) -> complex:
    """Inner product <x|y> of two vectors on the same truncated space."""
    if (x.mode_count, x.levels) != (y.mode_count, y.levels):
        raise ValueError("vectors live on different truncated spaces")
    return complex(np.vdot(x.amplitudes, y.amplitudes))


def evolve_product_state(params: CoherentParams, config: CloneNetworkConfig, levels: int,
                         dim_budget: int = DEFAULT_DIM_BUDGET) -> FockVector:
    """Evolve a product coherent state by the coupling network.

    Uses the sparse action of the generator's exponential on the state; the
    generator maps each total-number sector of the simplex into itself, so
    every retained sector evolves exactly.
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


def _simplex_dimension(mode_count: int, levels: int) -> int:
    """Number of occupation tuples of ``mode_count`` modes with total <= levels - 1."""
    return math.comb(levels - 1 + mode_count, mode_count)


def mode_occupations(mode_count: int, levels: int) -> np.ndarray:
    """Occupation numbers of every basis index, shape (dim, modes).

    The rows are the tuples with n_0 + ... + n_k <= levels - 1 in row-major
    order, source mode slowest.  They are built from the last mode forward:
    each step puts every occupation n of one more mode in front of the rows
    that leave room for it.
    """
    rows = np.arange(levels)[:, None]
    for _ in range(mode_count - 1):
        room = levels - 1 - rows.sum(axis=1)
        rows = np.concatenate([
            np.column_stack([np.full(np.count_nonzero(room >= n), n), rows[room >= n]])
            for n in range(levels)
        ])
    return rows


def _simplex_index(occupations: np.ndarray, levels: int) -> np.ndarray:
    """Row of each occupation tuple in :func:`mode_occupations`.

    A tuple is preceded by those that agree with it before mode i and put
    v < n_i at mode i.  With room b left before mode i and r = modes - i,
    there are C(b + r, r) - C(b - n_i + r, r) of them (hockey-stick sum over
    v of the simplices of the remaining modes).
    """
    modes = occupations.shape[1]
    room = np.full(occupations.shape[0], levels - 1)
    index = np.zeros(occupations.shape[0], dtype=np.int64)
    for i in range(modes):
        r = modes - i
        count = np.array([math.comb(b + r, r) for b in range(levels)], dtype=np.int64)
        index += count[room] - count[room - occupations[:, i]]
        room -= occupations[:, i]
    return index


def total_number_diagonal(mode_count: int, levels: int) -> np.ndarray:
    """Diagonal of the total occupation-number operator."""
    return mode_occupations(mode_count, levels).sum(axis=1).astype(float)
