"""Two-sample Kolmogorov-Smirnov helpers shared by the tests (scipy reference)."""

import math

from scipy.stats import ks_2samp

from infoclone.measurement import KS_5PCT, fidelity_values


def ks_two_sample(first, second) -> float:
    """Two-sample KS distance between fidelity sample sets."""
    return float(ks_2samp(fidelity_values(first), fidelity_values(second)).statistic)


def ks_critical_two_sample(n_first: int, n_second: int) -> float:
    """Asymptotic two-sample KS critical value at the 5% level."""
    return KS_5PCT * math.sqrt((n_first + n_second) / (n_first * n_second))
