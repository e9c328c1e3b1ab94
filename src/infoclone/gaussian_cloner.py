"""Closed forms of the optimal Gaussian copier, for comparison runs.

Copies carry the full source parameter alpha_0 plus Gaussian noise controlled
by the amplification parameter A = M*N/(N-1) (M sources copied to M*N
outputs).  This module holds the copier's overlap fidelity, the exponent c =
M^2 N^2 / (2(MN + 2N - 2)) of its measurement-fidelity law F**c, and the
standard deviation of one quadrature measurement.  The law itself, and the
Monte Carlo that reproduces it, live in ``measurement``.

There is one noise model: every quadrature measurement of a copy has
variance (A+2)/A.  That is twice the single-copy marginal (A+2)/(2A) of the
optimal cloner (Cerf, Ipe and Rottenberg, quant-ph/9909037), and it is the
level at which the trial law is the paper's F**c; the marginal itself gives
F**(2c).  :func:`gauss_quadrature_sd` states the derivation.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "amplification_fraction",
    "overlap_fidelity_gaussian",
    "gauss_exponent_fraction",
    "gauss_quadrature_sd",
]


def _positive_int(value, name) -> int:
    number = int(value)
    if number < 1 or number != value:
        raise ValueError(f"{name} must be a positive integer")
    return number


def _validate_case(sources, copies):
    m = _positive_int(sources, "sources")
    n = _positive_int(copies, "copies")
    if n < 2:
        raise ValueError("copies must be at least 2; the amplification diverges for a perfect copy")
    return m, n


def amplification_fraction(sources: int, copies: int) -> Fraction:
    """Exact amplification parameter A = M*N/(N-1) of the optimal copier."""
    m, n = _validate_case(sources, copies)
    return Fraction(m * n, n - 1)


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


def gauss_quadrature_sd(sources: int, copies: int) -> float:
    """Standard deviation s = sqrt((A+2)/A) of one quadrature measurement.

    Copies carry the full source parameter, so the estimate is
    (y + iz)/sqrt(2) with no rescaling, where y and z are means of
    k = M*N/2 quadrature measurements of variance s^2 each.  Each estimate
    component then has variance s^2/(2k), so |alpha - est|^2 is exponential
    with mean s^2/k and F = exp(-|alpha - est|^2) has CDF F**(k/s^2), that
    is F**(MN/(2 s^2)).

    - The optimal cloner's single-copy marginal s^2 = (A+2)/(2A) gives the
      exponent MNA/(A+2) = 2c, not the paper's law.
    - The per-measurement variance used here, s^2 = (A+2)/A, gives
      c = MNA/(2(A+2)) = :func:`gauss_exponent_fraction`.

    The value is computed from float(A), which fixes the Monte Carlo stream:
    sqrt(float((A+2)/A)) differs in the last bit for some cases.
    """
    amp = float(amplification_fraction(sources, copies))
    return math.sqrt((amp + 2.0) / amp)
