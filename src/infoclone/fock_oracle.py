"""Brute-force verification in a truncated multimode number basis.

The coupling generator sum_j kappa_j a_0^dag a_j - h.c. conserves the total
excitation number, so states live on the total-excitation simplex: every
occupation tuple (n_0, ..., n_k) with n_0 + ... + n_k <= d - 1, in row-major
order with the source mode slowest (the d**(k+1) box restricted to the
simplex).  That basis holds C(d+k, k+1) states.  Each total-number sector
evolves exactly there, so the only truncation loss is the Poisson tail T of
the input's total excitation above d - 1: a product coherent state is scored
at infidelity 2T - T**2 (see :func:`check_truncation`).

The generator is a table of gather slots built once from the occupations, and
its exponential is applied to a state by the Chebyshev-Bessel series (numpy
only, no random step, so bit-reproducible), never formed as a dense unitary.
Nothing here assumes the parameter-level algebra of ``phase_space``, which
is exactly what makes :func:`verify_disentanglement` an independent
end-to-end oracle for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

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
    "poisson_tail",
    "required_levels",
    "check_truncation",
    "coherent_state_vector",
    "product_coherent_state",
    "overlap",
    "evolve_product_state",
    "disentanglement_infidelity",
    "verify_disentanglement",
    "mode_occupations",
]

DEFAULT_DIM_BUDGET = 20000
# Largest total-excitation tail that check_truncation leaves for the gate to
# judge: 100 times the CLI's default gate, and above the 1.0e-5 tail of
# alpha=1 at 8 levels, which the CLI reports as an unreachable gate (exit 3).
TRUNCATION_TAIL_LIMIT = 1e-4
NORM_SLACK = 1e-9
# Largest series radius (levels - 1) * rotation angle, about the number of
# generator products, and of Bessel coefficients, an evolution takes.
SERIES_RADIUS_LIMIT = 1e6


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


def poisson_tail(mean_occupation: float, levels: int) -> float:
    """Probability weight a coherent state carries above the top retained level.

    P(n >= levels) sums the side that does not cancel: 1 - P(n < levels)
    when ``levels <= mean``, else the tail itself, from the term nearest the
    mean (built in log space) outward while the terms shrink.
    """
    if mean_occupation == 0:
        return 0.0
    if levels < 1:
        return 1.0
    head = levels <= mean_occupation
    n = levels - 1 if head else levels
    terms = [math.exp(n * math.log(mean_occupation) - mean_occupation - math.lgamma(n + 1))]
    while terms[-1] > terms[0] * 2.0**-60 and (n > 0 or not head):
        n += -1 if head else 1
        terms.append(terms[-1] * ((n + 1) / mean_occupation if head else mean_occupation / n))
    total = math.fsum(terms)
    return 1.0 - total if head else total


def required_levels(mean_occupation: float, tail_bound: float) -> int:
    """Smallest level count (at least 2) whose Poisson tail is within
    ``tail_bound``.

    The tail shrinks as levels grow, so the count is bracketed by doubling
    and then found by bisection: about 2*log2(levels) tail evaluations.
    """
    above, levels = 1, 2  # the tail at `above` exceeds the bound, or it is below 2
    while poisson_tail(mean_occupation, levels) > tail_bound:
        above, levels = levels, 2 * levels
    while levels - above > 1:
        middle = (above + levels) // 2
        if poisson_tail(mean_occupation, middle) > tail_bound:
            above = middle
        else:
            levels = middle
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
    since it alone needs more levels than the budget allows.  Fewer than two
    levels, or a budget below one state, raise ``ValueError`` naming the
    ``fock-verify`` flag.
    """
    if levels < 2:
        raise ValueError(f"--truncation must be at least 2 levels, got {levels}")
    if dim_budget < 1:
        raise ValueError(f"--budget must be at least 1, got {dim_budget}")
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


def _coupling_generator(config: CloneNetworkConfig, levels: int) -> tuple:
    """Anti-Hermitian generator G on the simplex as 2k gather slots (index,
    weight), both (2k, dim): (G v)[i] = sum_s weight[s, i] * v[index[s, i]].

    The configured phase enters as coupling kappa_j = r_j * exp(-1j*delta_j),
    the convention under which ``build_transfer`` is the exact parameter map
    of the exponentiated generator.  Slot 2j-2 holds kappa_j a_0^dag a_j: it
    moves one excitation from target j to the source, one to one within the
    simplex, G[rows, cols] = values = kappa_j sqrt((n_0+1) n_j).  Slot 2j-1
    holds the adjoint G[cols, rows] = -conj(values).  Unreached rows weigh 0.
    """
    occupations = mode_occupations(config.n_targets + 1, levels)
    kappa = config.time * config.magnitudes * np.exp(-1j * config.phases)
    unit = np.eye(kappa.size + 1, dtype=np.int64)
    index = np.zeros((2 * kappa.size, occupations.shape[0]), dtype=np.int64)
    weight = np.zeros(index.shape, dtype=complex)
    for j, coupling in enumerate(kappa, start=1):
        (cols,) = np.nonzero(occupations[:, j])
        moved = occupations[cols] + unit[0] - unit[j]
        values = coupling * np.sqrt(moved[:, 0] * occupations[cols, j])
        rows = _simplex_index(moved, levels)
        index[2 * j - 2, rows], weight[2 * j - 2, rows] = cols, values
        index[2 * j - 1, cols], weight[2 * j - 1, cols] = rows, -values.conj()
    return index, weight


def _apply_generator(slots: tuple, vector: np.ndarray) -> np.ndarray:
    """G @ vector by gathers alone.  Each row adds its products in slot order,
    the order of the per-term scatter out[rows] += values * v[cols], out[cols]
    -= conj(values) * v[rows], so its sum rounds alike; weight 0 adds zeros."""
    index, weight = slots
    out = weight[0] * vector[index[0]]
    for s in range(1, index.shape[0]):
        out += weight[s] * vector[index[s]]
    return out


def _bessel_coefficients(radius: float) -> np.ndarray:
    """J_0, ..., J_{K-1} at ``radius >= 1``, K the first order above it with
    |J_K| < 2**-53, by Miller's backward recurrence from an order where J is
    below about 1e-40, normalised by J_0 + 2 (J_2 + J_4 + ...) = 1.  Twice
    the dropped |J_k| bound the series' error, which must stay below the
    rounding of K steps, K * 2**-53.
    """
    start = int(radius + 20.0 * radius ** (1.0 / 3.0) + 30.0)
    values = [0.0] * (start + 2)
    values[start] = 1.0
    for k in range(start, 0, -1):
        values[k - 1] = 2.0 * k / radius * values[k] - values[k + 1]
    values = np.array(values[: start + 1])
    values /= values[0] + 2.0 * values[2::2].sum()
    negligible = (np.arange(values.size) > radius) & (np.abs(values) < 2.0**-53)
    stop = int(np.argmax(negligible))  # 0 when no order qualifies
    if stop == 0 or 2.0 * np.abs(values[stop:]).sum() > stop * 2.0**-53:
        raise ArithmeticError(f"the Bessel series at radius {radius} did not converge")
    return values[:stop]


def _propagate(slots: tuple, radius: float, vector: np.ndarray) -> np.ndarray:
    """exp(G) @ vector for ``radius >= max(1, ||G||_2)``, by the Chebyshev-Bessel
    series of Tal-Ezer and Kosloff (J. Chem. Phys. 81, 3967 (1984)):
    exp(G) = J_0 + 2 sum_k i^k J_k(radius) T_k(-iG/radius).  The vectors
    Q_k = i^k T_k(-iG/radius) vector, of norm at most ``|vector|``, obey
    Q_1 = G Q_0 / radius and Q_{k+1} = (2/radius) G Q_k + Q_{k-1}.
    """
    coefficients = _bessel_coefficients(radius)
    doubled = (slots[0], (2.0 / radius) * slots[1])
    previous, current = vector, 0.5 * _apply_generator(doubled, vector)
    result = coefficients[0] * previous + (2.0 * coefficients[1]) * current
    for coefficient in 2.0 * coefficients[2:]:
        previous, current = current, _apply_generator(doubled, current) + previous
        result += coefficient * current
    return result


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

    The generator maps each total-number sector of the simplex into itself,
    so every retained sector evolves exactly.  One excitation sees
    eigenvalues 0 and +-i*theta, theta = time * sqrt(sum r_j**2), and n
    excitations sums of n of them, so the series radius is exactly
    rho = (levels - 1) * |theta|; above ``SERIES_RADIUS_LIMIT`` it is refused.
    Those eigenvalues are integer multiples of i*theta, so the evolution is
    2*pi-periodic in theta: an angle beyond +-pi runs the series at
    ``math.remainder(theta, 2*pi)``, a radius of at most (levels - 1) * pi.
    """
    if len(params) != config.n_targets + 1:
        raise ValueError("parameter count must match the network size")
    dim = _simplex_dimension(config.n_targets + 1, levels)
    if dim > dim_budget:
        raise DimensionBudgetError(f"total dimension {dim} exceeds the budget {dim_budget}")
    rho = (levels - 1) * abs(config.time) * math.hypot(*config.magnitudes)
    if not rho <= SERIES_RADIUS_LIMIT:
        raise ValueError(f"(levels - 1) * rotation angle = {rho:.3g} exceeds "
                         f"{SERIES_RADIUS_LIMIT:g}; the network is 2*pi-periodic in the angle")
    initial = product_coherent_state(params, levels)
    if config.time == 0:
        return initial
    theta = config.time * math.hypot(*config.magnitudes)
    if abs(theta) > math.pi:
        config = replace(config, time=config.time * (math.remainder(theta, 2.0 * math.pi) / theta))
        rho = (levels - 1) * abs(config.time) * math.hypot(*config.magnitudes)
    evolved = _propagate(_coupling_generator(config, levels), max(rho, 1.0), initial.amplitudes)
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


@functools.lru_cache(maxsize=4)
def mode_occupations(mode_count: int, levels: int) -> np.ndarray:
    """Occupation numbers of every basis index, shape (dim, modes), read-only.

    The rows are the tuples with n_0 + ... + n_k <= levels - 1 in row-major
    order, source mode slowest.  They are built from the last mode forward:
    each step puts every occupation n of one more mode in front of the rows
    that leave room for it.  Memoised: one ``fock-verify`` builds it once.
    """
    rows = np.arange(levels)[:, None]
    for _ in range(mode_count - 1):
        room = levels - 1 - rows.sum(axis=1)
        rows = np.concatenate([
            np.column_stack([np.full(np.count_nonzero(room >= n), n), rows[room >= n]])
            for n in range(levels)
        ])
    rows.flags.writeable = False
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
