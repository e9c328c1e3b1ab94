"""Brute-force verification in a truncated multimode number basis.

The coupling generator sum_j kappa_j a_0^dag a_j - h.c. conserves the total
excitation number, so states live on the total-excitation simplex: every
occupation tuple (n_0, ..., n_k) with n_0 + ... + n_k <= d - 1, in row-major
order with the source mode slowest (the d**(k+1) box restricted to the
simplex).  That basis holds C(d+k, k+1) states.  Each total-number sector
evolves exactly there, so the only truncation loss is the Poisson tail T of
the input's total excitation above d - 1: a product coherent state is scored
at infidelity 2T - T**2 (see :func:`check_truncation`).

The generator is a table of gather slots built once from the occupations:
a term a_0^dag a_j pairs the rows with n_j >= 1 with those with n_0 >= 1 in
row order, since adding e_0 - e_j to every tuple keeps their order.  Its
exponential is applied to a state by the Chebyshev-Bessel series (numpy
only, no random step, so bit-reproducible), never formed as a dense unitary.
Nothing here assumes the parameter-level algebra of ``phase_space``, which
is exactly what makes :func:`verify_disentanglement` an independent
end-to-end oracle for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from .phase_space import CloneNetworkConfig, build_transfer, mean_occupation

__all__ = [
    "poisson_tail",
    "required_levels",
    "check_truncation",
    "coherent_state_vector",
    "product_coherent_state",
    "evolve_product_state",
    "disentanglement_infidelity",
    "verify_disentanglement",
    "mode_occupations",
]

# Largest total-excitation tail that check_truncation leaves for the gate to
# judge: 100 times the CLI's default gate, and above the 1.0e-5 tail of
# alpha=1 at 8 levels, which the CLI reports as an unreachable gate (exit 3).
TRUNCATION_TAIL_LIMIT = 1e-4
NORM_SLACK = 1e-9
# Total mean occupation from which check_truncation refuses without a level
# search: past about 2,730 levels even a two-mode simplex exceeds the byte limit.
OCCUPATION_LIMIT = 20000


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


def check_truncation(entries, levels: int, gate: float) -> None:
    """Check that the simplex of ``levels`` can hold the product coherent
    state with these input parameters.

    The network conserves the total excitation, whose mean is
    sum |entry|^2, so the input alone decides the loss: with T the Poisson
    tail of that total above ``levels - 1``, the scored infidelity is exactly
    2T - T**2.  When T exceeds ``max(gate, TRUNCATION_TAIL_LIMIT)``, an
    infidelity measures the truncation, not the network, so this raises
    ``ValueError`` naming the level count at which T is within ``gate / 2``,
    enough for the truncation to keep below ``gate``.  A tail between
    ``gate`` and the limit passes: the gate is then out of reach at this
    truncation, and the infidelity says by how much.  Fewer than two levels,
    or a gate that is not positive and finite, raise ``ValueError`` naming
    the ``fock-verify`` flag, and so does a total mean occupation of
    ``OCCUPATION_LIMIT`` or more, before any search.  An entry whose own
    mean occupation is not finite raises ``mean_occupation``'s ``ValueError``.
    """
    if levels < 2:
        raise ValueError(f"--truncation must be at least 2 levels, got {levels}")
    if not 0 < gate < math.inf:
        raise ValueError(f"--gate must be positive and finite, got {gate}")
    try:
        total = math.fsum(map(mean_occupation, entries))
    except OverflowError:  # finite means whose sum is past the float range
        total = math.inf
    if not total < OCCUPATION_LIMIT:
        raise ValueError(f"a total mean occupation of {total:.3g} is not below {OCCUPATION_LIMIT}, "
                         f"more than any simplex within the byte limit holds")
    tail = poisson_tail(total, levels)
    if tail > max(gate, TRUNCATION_TAIL_LIMIT):
        needed = required_levels(total, gate / 2)
        raise ValueError(f"{levels} levels drop {tail:.3e} of the total excitation's weight, "
                         f"above max(gate, {TRUNCATION_TAIL_LIMIT:g}); need at least {needed} "
                         f"levels for gate {gate:g}")


def coherent_state_vector(alpha: complex, levels: int) -> np.ndarray:
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
    return amps


def _coupling_generator(config: CloneNetworkConfig, levels: int) -> tuple:
    """Anti-Hermitian generator G on the simplex as 2k gather slots (index,
    weight), both (2k, dim): (G v)[i] = sum_s weight[s, i] * v[index[s, i]].

    The configured phase enters as coupling kappa_j = r_j * exp(-1j*delta_j),
    the convention under which ``build_transfer`` is the exact parameter map
    of the exponentiated generator.  Slot 2j-2 holds kappa_j a_0^dag a_j: it
    moves one excitation from target j to the source, one to one within the
    simplex, G[rows, cols] = values = kappa_j sqrt((n_0+1) n_j), n the
    column's occupations and n_0 + 1 the row's.  Slot 2j-1 holds the adjoint
    G[cols, rows] = -conj(values).  Unreached rows weigh 0.

    The rows need no rank: adding the fixed vector e_0 - e_j keeps
    lexicographic order, so the move maps the rows with n_j >= 1 onto the
    rows with n_0 >= 1 in the same order, the i-th of one to the i-th of the
    other.  The same pairing holds for any a_i^dag a_j.
    """
    occupations = mode_occupations(config.n_targets + 1, levels)
    kappa = config.time * config.magnitudes * np.exp(-1j * config.phases)
    index = np.zeros((2 * kappa.size, occupations.shape[0]), dtype=np.int64)
    weight = np.zeros(index.shape, dtype=complex)
    (rows,) = np.nonzero(occupations[:, 0])
    for j, coupling in enumerate(kappa, start=1):
        (cols,) = np.nonzero(occupations[:, j])
        values = coupling * np.sqrt(occupations[rows, 0] * occupations[cols, j])
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


def product_coherent_state(entries, levels: int) -> np.ndarray:
    """Product of truncated coherent states on the simplex, source mode slowest,
    one amplitude per row of ``mode_occupations(len(entries), levels)``.

    The amplitude of occupation row (n_0, ..., n_k) is the product of the
    modes' amplitudes c_0[n_0] * ... * c_k[n_k], taken left to right.
    """
    occupations = mode_occupations(len(entries), levels)
    amps = np.ones(occupations.shape[0], dtype=complex)
    for mode, entry in enumerate(entries):
        amps *= coherent_state_vector(entry, levels)[occupations[:, mode]]
    return amps


def evolve_product_state(entries, config: CloneNetworkConfig, levels: int) -> np.ndarray:
    """Evolve the product coherent state with parameters ``entries`` (source
    first) by the coupling network; the amplitudes are indexed like
    :func:`product_coherent_state`'s.

    The generator maps each total-number sector of the simplex into itself,
    so every retained sector evolves exactly.  One excitation sees
    eigenvalues 0 and +-i*theta, theta = ``config.rotation_angle``, and n
    excitations sums of n of them, so the series radius is exactly
    rho = (levels - 1) * |theta|.  Those eigenvalues are integer multiples
    of i*theta, so the evolution is 2*pi-periodic in theta: an angle beyond
    +-pi runs the series at atan2(sin theta, cos theta), a radius of at most
    (levels - 1) * pi.  That reduces ``config.rotation_angle`` by the sine
    and cosine that ``build_transfer`` turns by, exact at any size, and the
    radius is taken from the reduced config's angle, so at any coupling
    scale it stays within that bound.  Truncation can only lose weight, so
    an evolved norm above 1 + ``NORM_SLACK`` raises ``ValueError``.
    """
    if len(entries) != config.n_targets + 1:
        raise ValueError("parameter count must match the network size")
    initial = product_coherent_state(entries, levels)
    if config.time == 0:
        return initial
    angle = config.rotation_angle
    if abs(angle) > math.pi:
        reduced = math.atan2(math.sin(angle), math.cos(angle))
        config = replace(config, time=config.time * (reduced / angle))
    rho = (levels - 1) * abs(config.rotation_angle)
    evolved = _propagate(_coupling_generator(config, levels), max(rho, 1.0), initial)
    norm = np.linalg.norm(evolved)
    if norm > 1.0 + NORM_SLACK:
        raise ValueError(f"norm {norm} exceeds 1; truncation can only lose weight")
    return evolved


def disentanglement_infidelity(predicted, evolved: np.ndarray, levels: int) -> float:
    """1 - |<expected|evolved>|^2, where ``expected`` is the product coherent
    state with the ``predicted`` parameters at ``levels``, the truncation of
    ``evolved``."""
    expected = product_coherent_state(predicted, levels)
    return float(1.0 - abs(np.vdot(expected, evolved)) ** 2)


def verify_disentanglement(entries, config: CloneNetworkConfig, levels: int
                           ) -> tuple[np.ndarray, np.ndarray, float]:
    """``(predicted, evolved, infidelity)``: the input product state evolved
    once by brute force, scored by :func:`disentanglement_infidelity` against
    the parameters ``predicted = build_transfer(config) @ entries``.  This is
    the end-to-end check, the one ``fock-verify`` runs, that the network
    output stays a disentangled set of coherent states with exactly the
    predicted parameters.
    """
    evolved = evolve_product_state(entries, config, levels)
    predicted = build_transfer(config) @ entries
    return predicted, evolved, disentanglement_infidelity(predicted, evolved, levels)


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

