"""Coherency-parameter transport through a source-target coupling network.

A single source mode is coupled to ``n`` target modes.  Coherent inputs stay
coherent under the coupling, so the whole evolution is an (n+1) x (n+1)
unitary acting on the vector of coherency parameters, a complex array with
the source first: ``build_transfer(config) @ entries``.  This module builds
that matrix, checks the quadratic invariants it must preserve, and
provides the symmetric configuration that empties the source into ``n``
equal copies carrying ``alpha / sqrt(n)``.

Phase convention: a coupling with magnitude ``r`` and phase ``delta``
contributes ``r * exp(-1j*delta)`` to the source-raising/target-lowering
term of the interaction, which makes the matrices below the exact parameter
maps of the exponentiated coupling (``fock_oracle`` checks this directly).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UNITARITY_TOL",
    "CloneNetworkConfig",
    "build_transfer",
    "unitarity_deviation",
    "check_invariants",
    "symmetric_clone_config",
    "information_clone",
    "mean_occupation",
    "info_overlap_fidelity",
]

UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class CloneNetworkConfig:
    """Coupling magnitudes/phases and the interaction time of the network.

    The network depends only on the ratios r_j / r and the angle r * t, r
    the norm ``math.hypot(*magnitudes)``, so any scale of the magnitudes is
    accepted whose norm is a normal double.  A norm that is zero or
    subnormal raises ``ValueError``: there r_j / r loses its digits and the
    transfer matrix stops being unitary.  An infinite norm, like any angle
    that is not finite, raises ``ValueError`` too.
    """

    magnitudes: np.ndarray
    phases: np.ndarray
    time: float

    def __post_init__(self):
        mags = np.array(self.magnitudes, dtype=float, ndmin=1)
        phases = np.array(self.phases, dtype=float, ndmin=1)
        if mags.ndim != 1 or mags.size == 0:
            raise ValueError("need at least one coupling")
        if phases.shape != mags.shape:
            raise ValueError("phases and magnitudes must have matching length")
        if not np.isfinite(mags).all() or (mags < 0).any():
            raise ValueError("coupling magnitudes must be finite and nonnegative")
        if not np.isfinite(phases).all():
            raise ValueError("coupling phases must be finite")
        if not math.isfinite(self.time):
            raise ValueError(f"interaction time must be finite, got {self.time}")
        mags.flags.writeable = False
        phases.flags.writeable = False
        object.__setattr__(self, "magnitudes", mags)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "time", float(self.time))
        total = self.total_coupling
        if total < sys.float_info.min:
            raise ValueError(
                f"the coupling magnitudes are zero or too small: their norm {total:.3g} is "
                f"below the smallest normal double {sys.float_info.min:.3g}; the network "
                "depends only on r_j / r and r * t, so scale --r up and --time down by the "
                "same factor"
            )
        if not math.isfinite(total * self.time):
            raise ValueError(f"the total coupling hypot(r_j) = {total:.3g} (--r) times the "
                             f"time {self.time:.3g} is not finite")

    @property
    def n_targets(self) -> int:
        return self.magnitudes.size

    @property
    def total_coupling(self) -> float:
        """Norm of the coupling magnitudes, ``math.hypot(*magnitudes)``."""
        return math.hypot(*self.magnitudes)

    @property
    def rotation_angle(self) -> float:
        """Total coupling times interaction time; the network is 2*pi periodic in it."""
        return self.total_coupling * self.time


def build_transfer(config: CloneNetworkConfig) -> np.ndarray:
    """Complex transfer matrix for arbitrary coupling phases.

    The first row carries e^{-i delta_j} (r_j/r) sin rt off the diagonal, the
    first column -e^{+i delta_j} (r_j/r) sin rt, and the target block is
    delta_jk - e^{i(delta_j - delta_k)} (r_j r_k / r^2)(1 - cos rt).  With
    every phase zero it is real, its imaginary parts exactly 0, and orthogonal.
    """
    total = config.total_coupling
    angle = config.rotation_angle
    s, c = math.sin(angle), math.cos(angle)
    weights = config.magnitudes / total
    phase = np.exp(1j * config.phases)
    n = config.n_targets
    matrix = np.empty((n + 1, n + 1), dtype=complex)
    matrix[0, 0] = c
    matrix[0, 1:] = weights * s / phase
    matrix[1:, 0] = -weights * s * phase
    matrix[1:, 1:] = np.eye(n) - (phase[:, None] / phase[None, :]) * np.outer(weights, weights) * (1.0 - c)
    return matrix


def unitarity_deviation(matrix: np.ndarray) -> float:
    """Largest entrywise deviation of M^dagger M from the identity."""
    matrix = np.asarray(matrix)
    gram = matrix.conj().T @ matrix
    return float(np.abs(gram - np.eye(matrix.shape[0])).max())


def check_invariants(before, after, second_pair=None, phases=None) -> float:
    """Largest violation among the quadratic forms the network preserves.

    Always checks the modulus-square sum and the phase-weighted plain-square
    sum (targets weighted by e^{-2i delta_k}; pass ``phases=None`` for a
    phase-free network).  When ``second_pair`` holds another (before, after)
    parameter pair transported by the same network, also checks the weighted
    bilinear and the plain sesquilinear pairings.

    Args:
        before: complex parameter array at the input, source first.
        after: complex parameter array at the output.
        second_pair: optional (before2, after2) tuple for the two-vector forms.
        phases: coupling phases delta_k, one per target mode.

    Returns:
        Maximum absolute deviation over all checked forms.
    """
    if len(before) != len(after):
        raise ValueError("before/after parameter counts differ")
    weights = np.ones(len(before), dtype=complex)
    if phases is not None:
        phases = np.asarray(phases, dtype=float)
        if phases.shape != (len(before) - 1,):
            raise ValueError("need one coupling phase per target mode")
        weights[1:] = np.exp(-2j * phases)

    deviations = [
        abs(np.sum(np.abs(after) ** 2) - np.sum(np.abs(before) ** 2)),
        abs(np.sum(weights * after**2) - np.sum(weights * before**2)),
    ]
    if second_pair is not None:
        before2, after2 = second_pair
        if len(before2) != len(before) or len(after2) != len(before):
            raise ValueError("second parameter pair has mismatched length")
        deviations.append(
            abs(np.sum(weights * after * after2) - np.sum(weights * before * before2))
        )
        deviations.append(
            abs(np.sum(np.conj(after) * after2) - np.sum(np.conj(before) * before2))
        )
    return float(max(deviations))


def symmetric_clone_config(n_copies: int) -> CloneNetworkConfig:
    """Equal unit couplings driven to rotation angle 3*pi/2.

    There sin rt = -1 and cos rt = 0, so the source empties completely and
    every target picks up the same 1/sqrt(n) share of the source parameter.
    """
    if n_copies < 1:
        raise ValueError("need at least one copy")
    n = int(n_copies)
    return CloneNetworkConfig(np.ones(n), np.zeros(n), 1.5 * math.pi / math.sqrt(n))


def information_clone(alpha: complex, n_copies: int) -> np.ndarray:
    """Split a source parameter into ``n`` equal information-carrying copies,
    returned as the complex parameter array, source first.

    Exact algebraic evaluation of the symmetric network at rotation angle
    3*pi/2 (sin rt = -1, cos rt = 0): the source entry is exactly 0 and every
    target is exactly ``alpha / sqrt(n)``.  ``n_copies == 1`` degenerates to
    a swap, returning (0, alpha).
    """
    if n_copies < 1:
        raise ValueError("need at least one copy")
    entries = np.full(int(n_copies) + 1, complex(alpha) / math.sqrt(n_copies), dtype=complex)
    entries[0] = 0.0
    return entries


def mean_occupation(alpha: complex) -> float:
    """Mean occupation |alpha|^2 of the coherent state |alpha>, the square
    of ``math.hypot(alpha.real, alpha.imag)``.

    Raises ``ValueError`` naming alpha when it is not finite.
    """
    alpha = complex(alpha)
    m = math.hypot(alpha.real, alpha.imag)
    mean = m * m
    if not math.isfinite(mean):
        raise ValueError(f"mean occupation |alpha|^2 of alpha={alpha} is not finite")
    return mean


def info_overlap_fidelity(alpha: complex, n_copies: int) -> float:
    """Squared overlap between the source state and one 1/sqrt(n) copy:
    exp(-|alpha|^2 (1 - 1/sqrt(n))^2).

    Raises ``ValueError`` when |alpha|^2 is not finite.
    """
    if n_copies < 1:
        raise ValueError("need at least one copy")
    return math.exp(-mean_occupation(alpha) * (1.0 - 1.0 / math.sqrt(n_copies)) ** 2)
