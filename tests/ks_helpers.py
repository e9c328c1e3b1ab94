"""Kolmogorov-Smirnov helpers shared by the tests (scipy reference).

A fixed-seed KS assert at the 5% level fails on 5% of streams, so any change
of the stream can trip it without any change of the law.  Asserts on runs
whose stream may change use the 1e-6 level instead, with four times the
trials that a 5% assert would use: the threshold 2.6934/sqrt(4n) is then
tighter than 1.3581/sqrt(n), while a false alarm is 50,000 times rarer.
"""

import math

from scipy.stats import ks_2samp, kstest

from infoclone.measurement import KS_5PCT

# Asymptotic 1e-6 point of the Kolmogorov distribution: the first term of its
# survival series, 2*exp(-2x^2) = 1e-6 (the next term is below 1e-24).
KS_1E6 = math.sqrt(math.log(2e6) / 2)


def ks_one_sample(values, cdf) -> float:
    """One-sample KS distance of ``values`` against a CDF callable, scipy's,
    so that no draw of the library is graded by the library's own scan."""
    return float(kstest(values, cdf).statistic)


def ks_two_sample(first, second) -> float:
    """Two-sample KS distance between two arrays of fidelities."""
    return float(ks_2samp(first, second).statistic)


def ks_critical_two_sample(n_first: int, n_second: int) -> float:
    """Asymptotic two-sample KS critical value at the 5% level."""
    return KS_5PCT * math.sqrt((n_first + n_second) / (n_first * n_second))


def ks_critical_1e6(count: int) -> float:
    """Asymptotic one-sample KS critical value at the 1e-6 level."""
    return KS_1E6 / math.sqrt(count)


def ks_critical_two_sample_1e6(n_first: int, n_second: int) -> float:
    """Asymptotic two-sample KS critical value at the 1e-6 level."""
    return KS_1E6 * math.sqrt((n_first + n_second) / (n_first * n_second))
