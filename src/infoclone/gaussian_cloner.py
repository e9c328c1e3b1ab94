"""Reference statistics of the optimal Gaussian copier, for comparison runs.

Copies carry the full source parameter alpha_0 plus Gaussian noise controlled
by the amplification parameter A = M*N/(N-1) (M sources copied to M*N
outputs).  Closed forms for the overlap fidelity and the measurement-fidelity
law F**c, c = M^2 N^2 / (2(MN + 2N - 2)), live here next to the Monte Carlo
driver that reproduces them.

There is one noise model: every quadrature measurement of a copy has
variance (A+2)/A.  That is twice the single-copy marginal (A+2)/(2A) of the
optimal cloner (Cerf, Ipe and Rottenberg, quant-ph/9909037), and it is the
level at which the trial law is the paper's F**c; the marginal itself gives
F**(2c).  :func:`run_gauss_trials` states the derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .measurement import (
    GAUSS_SCHEME,
    FidelityRun,
    FidelitySamples,
    _positive_int,
    _run_trials,
    info_mean_fraction,
)

__all__ = [
    "amplification_A",
    "amplification_fraction",
    "overlap_fidelity_gaussian",
    "run_gauss_trials",
    "gauss_exponent",
    "gauss_exponent_fraction",
    "gauss_pdf",
    "gauss_cdf",
    "gauss_mean_fraction",
    "gauss_mean_fidelity",
    "ComparisonRow",
    "comparison_table",
]


def _validate_case(sources, copies):
    m = _positive_int(sources, "sources")
    n = _positive_int(copies, "copies")
    if n < 2:
        raise ValueError("copies must be at least 2; the amplification diverges for a perfect copy")
    return m, n


def amplification_fraction(sources: int, copies: int) -> Fraction:
    """Exact amplification parameter A = M*N/(N-1)."""
    m, n = _validate_case(sources, copies)
    return Fraction(m * n, n - 1)


def amplification_A(sources: int, copies: int) -> float:
    """Noise-amplification parameter A = M*N/(N-1) of the optimal copier."""
    return float(amplification_fraction(sources, copies))


def overlap_fidelity_gaussian(n_in: int, m_out: int) -> float:
    """Optimal Gaussian overlap fidelity for n_in -> m_out copying.

    Equals m*n / (m*n + m - n); 1 when no extra copies are made, and exactly
    A/(A+1) for the M -> M*N chain.
    """
    n = _positive_int(n_in, "n_in")
    m = _positive_int(m_out, "m_out")
    if m < n:
        raise ValueError("cannot produce fewer copies than inputs")
    return m * n / (m * n + m - n)


def gauss_exponent_fraction(sources: int, copies: int) -> Fraction:
    """Exact exponent c = MNA/(2(A+2)) = M^2 N^2 / (2(MN + 2N - 2)) of the
    fidelity law F**c."""
    m, n = _validate_case(sources, copies)
    return Fraction(m * m * n * n, 2 * (m * n + 2 * n - 2))


def gauss_exponent(sources: int, copies: int) -> float:
    return float(gauss_exponent_fraction(sources, copies))


def run_gauss_trials(run: FidelityRun) -> FidelitySamples:
    """Monte Carlo fidelity samples for the Gaussian-copier scheme.

    Copies carry the full source parameter, so the estimate is
    (y + iz)/sqrt(2) with no rescaling, where y and z are means of
    k = M*N/2 quadrature measurements of variance s^2 each; each mean is
    drawn directly as one normal of variance s^2/k.  Each estimate
    component then has variance s^2/(2k), so |alpha - est|^2 is exponential
    with mean s^2/k and F = exp(-|alpha - est|^2) has CDF F**(k/s^2), that
    is F**(MN/(2 s^2)).

    - The optimal cloner's single-copy marginal s^2 = (A+2)/(2A) gives the
      exponent MNA/(A+2) = 2c, not the paper's law.
    - The per-measurement variance used here, s^2 = (A+2)/A, gives
      c = MNA/(2(A+2)) = gauss_exponent, consistent with :func:`gauss_pdf`
      and :func:`gauss_mean_fidelity`.
    """
    if run.scheme != GAUSS_SCHEME:
        raise ValueError(f"run scheme is {run.scheme!r}; expected {GAUSS_SCHEME!r}")
    amp = amplification_A(run.sources, run.copies)
    return _run_trials(run, 1.0, math.sqrt((amp + 2.0) / amp))


def gauss_pdf(sources: int, copies: int):
    """Density c * F**(c-1) of the copier's measurement-fidelity law."""
    c = gauss_exponent(sources, copies)

    def density(f):
        return c * np.asarray(f, dtype=float) ** (c - 1.0)

    return density


def gauss_cdf(sources: int, copies: int):
    """CDF F**c of the copier's measurement-fidelity law."""
    c = gauss_exponent(sources, copies)

    def cdf(f):
        return np.asarray(f, dtype=float) ** c

    return cdf


def gauss_mean_fraction(sources: int, copies: int) -> Fraction:
    """Exact mean fidelity M^2 N^2 / (M^2 N^2 + 2MN + 4N - 4), i.e. c/(c+1)."""
    m, n = _validate_case(sources, copies)
    mn2 = m * m * n * n
    return Fraction(mn2, mn2 + 2 * m * n + 4 * n - 4)


def gauss_mean_fidelity(sources: int, copies: int) -> float:
    return float(gauss_mean_fraction(sources, copies))


@dataclass(frozen=True)
class ComparisonRow:
    """Mean measurement fidelities of both schemes for one (sources, copies) case."""

    sources: int
    copies: int
    gauss_mean: Fraction
    info_mean: Fraction


def comparison_table(cases) -> list[ComparisonRow]:
    """Gaussian-copier vs information-cloning mean fidelities, exact rationals.

    The information column depends on the source count only.
    """
    rows = []
    for sources, copies in cases:
        rows.append(
            ComparisonRow(
                sources=int(sources),
                copies=int(copies),
                gauss_mean=gauss_mean_fraction(sources, copies),
                info_mean=info_mean_fraction(sources),
            )
        )
    return rows
