"""Measurement-fidelity law and Monte Carlo for both cloning schemes.

Each trial measures half of the available copies in position and half in
momentum, averages, reconstructs the source parameter, and scores the
reconstruction by the squared coherent-state overlap exp(-|true - est|^2).
For Gaussian quadrature statistics the sample means are exactly Gaussian, so
the closed-form fidelity laws hold without any asymptotic caveat, and a run
draws each trial's two quadrature means directly instead of the individual
samples: one normal per quadrature per trial, at any number of copies.

Both schemes share one law, the CDF F**c on [0, 1], with density
c * F**(c-1) and mean c/(c+1).  The scheme decides only the exponent c
(:func:`fidelity_exponent`): c = M for information cloning of M sources,
whatever the number of copies, and the copier's
c = M^2 N^2 / (2(MN + 2N - 2)) from ``gaussian_cloner`` for the Gaussian
scheme.  :func:`run_trials` runs either scheme.

A run returns its results as columns (:class:`FidelitySamples`): a complex
array of estimates and a float array of fidelities, the latter computed by
one array call to :func:`measurement_fidelity`.

Determinism contract (stream version 3): trials are partitioned into fixed
batches of ``TRIAL_BATCH`` with independent counter-based streams keyed by
(seed, batch index); within a batch the position means are drawn before the
momentum means.  Results are bit-identical for a given seed, and the first
T results of a run are those of a T-trial run whenever T is a multiple of
``TRIAL_BATCH``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gaussian_cloner import _positive_int, gauss_exponent_fraction, gauss_quadrature_sd

__all__ = [
    "INFO_SCHEME",
    "GAUSS_SCHEME",
    "TRIAL_BATCH",
    "QUADRATURE_SD",
    "KS_5PCT",
    "ALPHA_ULP_FRACTION",
    "FidelityRun",
    "FidelitySamples",
    "DistributionSummary",
    "trial_rng",
    "measurement_fidelity",
    "run_trials",
    "fidelity_exponent",
    "fidelity_pdf",
    "fidelity_cdf",
    "mean_fidelity",
    "summarize",
    "ks_statistic",
    "ks_critical",
    "ComparisonRow",
    "comparison_table",
]

INFO_SCHEME = "info_cloning"
GAUSS_SCHEME = "gaussian"
TRIAL_BATCH = 4096
QUADRATURE_SD = math.sqrt(0.5)
_SQRT2 = math.sqrt(2.0)
# Asymptotic 5% point of the Kolmogorov distribution, scipy.special.kolmogi(0.05);
# equal, bit for bit, to scipy.stats.kstwobign.isf(0.05).
KS_5PCT = 1.3580986393225507
ALPHA_ULP_FRACTION = 2.0**-20


@dataclass(frozen=True)
class FidelityRun:
    """Configuration of one Monte Carlo fidelity experiment.

    ``sources * copies`` clones are available per trial; half are measured in
    position and half in momentum, so the product must be even (and >= 2).
    A run needs at least two trials for its summary, and its scheme must
    have a fidelity law at this case (the Gaussian copier needs copies >= 2).

    ``|alpha_true|`` is bounded so that rounding cannot shape the fidelity
    law.  Each estimate component scatters around alpha_true with a
    standard deviation of at least ``1/sqrt(2*sources*copies)`` in both
    schemes (1/sqrt(2*sources) for information cloning,
    sqrt((A+2)/A)/sqrt(sources*copies) for the Gaussian copier), while the
    estimate error can resolve no step finer than about one ulp of the
    quadrature mean ``sqrt(2)*|alpha_true|``.  The run is rejected when

        ulp(sqrt(2)*|alpha_true|) > ALPHA_ULP_FRACTION / sqrt(2*sources*copies)

    with ``ALPHA_ULP_FRACTION = 2**-20``: below the bound the error still
    takes about a million distinct values per standard deviation, which
    moves the fidelity CDF by about 1e-6, far under the KS resolution of any
    feasible run.  For sources*copies = 2 the bound is |alpha_true| <
    2**31.5, about 3.04e9.
    """

    alpha_true: complex
    sources: int
    copies: int
    trials: int
    seed: int
    scheme: str = INFO_SCHEME

    def __post_init__(self):
        if self.sources < 1 or self.copies < 1:
            raise ValueError("sources and copies must be positive")
        total = self.sources * self.copies
        if total < 2 or total % 2:
            raise ValueError(
                "sources*copies must be even and at least 2 for the "
                "position/momentum split"
            )
        if self.trials < 2:
            raise ValueError(f"trials must be at least 2, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit nonnegative integer")
        alpha = complex(self.alpha_true)
        if not cmath.isfinite(alpha):
            raise ValueError(f"alpha_true must be finite, got {alpha!r}")
        noise = 1.0 / math.sqrt(2.0 * total)
        if math.ulp(_SQRT2 * abs(alpha)) > ALPHA_ULP_FRACTION * noise:
            raise ValueError(
                f"|alpha_true| = {abs(alpha):.6g} is too large for {total} measured "
                f"copies: one ulp of the quadrature mean sqrt(2)*|alpha_true| exceeds "
                f"2**-20 of the per-trial estimate noise floor {noise:.3g}"
            )
        object.__setattr__(self, "alpha_true", alpha)
        fidelity_exponent(self.scheme, self.sources, self.copies)

    @property
    def measurements_per_quadrature(self) -> int:
        return self.sources * self.copies // 2


@dataclass(frozen=True)
class FidelitySamples:
    """Columns of a run: trial i reconstructed ``estimates[i]`` and scored
    ``fidelity[i] == measurement_fidelity(alpha_true, estimates[i])``."""

    estimates: np.ndarray
    fidelity: np.ndarray


@dataclass(frozen=True)
class DistributionSummary:
    """Mean, variance, histogram, and KS distance of a fidelity sample set."""

    count: int
    mean: float
    variance: float
    bin_edges: np.ndarray
    counts: np.ndarray
    ks_statistic: float


def trial_rng(seed: int, batch_index: int) -> np.random.Generator:
    """Independent counter-based stream for one batch of trials."""
    key = np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,))
    return np.random.Generator(np.random.Philox(key))


def measurement_fidelity(alpha_true: complex, alpha_est):
    """Squared coherent overlap exp(-|true - est|^2) of the reconstruction.

    Elementwise for an array of estimates.  A single estimate goes through
    the same ufunc loops as an array element (``np.square``, not the scalar
    ``**``), so a run's fidelity column equals this function applied to each
    of its estimates, bit for bit.
    """
    fidelity = np.exp(-np.square(np.abs(alpha_true - alpha_est)))
    return float(fidelity) if np.ndim(fidelity) == 0 else fidelity


def _run_trials(run: FidelityRun, clone_scale: float, sd: float) -> FidelitySamples:
    """Monte Carlo trial loop shared by both schemes.

    Each measured copy carries alpha_true / clone_scale, so its quadrature
    samples have mean sqrt(2) * that component and standard deviation ``sd``.
    A trial averages k = ``measurements_per_quadrature`` such samples per
    quadrature.  The mean of k i.i.d. N(mu, sd^2) draws is exactly
    N(mu, sd^2/k), so each trial's quadrature means are drawn directly, one
    normal each, and the cost does not grow with k.  Batch b draws from
    ``trial_rng(seed, b)``: ``stop - start`` position means, then as many
    momentum means.  The estimate clone_scale * (y + iz) / sqrt(2) undoes
    the scale.
    """
    clone = run.alpha_true / clone_scale
    mean_y, mean_z = _SQRT2 * clone.real, _SQRT2 * clone.imag
    mean_sd = sd / math.sqrt(run.measurements_per_quadrature)
    y = np.empty(run.trials)
    z = np.empty(run.trials)
    for index, start in enumerate(range(0, run.trials, TRIAL_BATCH)):
        stop = min(start + TRIAL_BATCH, run.trials)
        rng = trial_rng(run.seed, index)
        y[start:stop] = rng.normal(mean_y, mean_sd, stop - start)
        z[start:stop] = rng.normal(mean_z, mean_sd, stop - start)
    factor = clone_scale / _SQRT2
    estimates = factor * y + 1j * (factor * z)
    return FidelitySamples(estimates, measurement_fidelity(run.alpha_true, estimates))


def run_trials(run: FidelityRun) -> FidelitySamples:
    """Monte Carlo fidelity samples of ``run`` under its scheme.

    Information clones carry alpha/sqrt(copies) and every quadrature
    measurement has variance 1/2; the estimate sqrt(copies) * (y + iz) /
    sqrt(2) undoes the scale.  Gaussian copies carry the full source
    parameter, measured with the standard deviation of
    :func:`~infoclone.gaussian_cloner.gauss_quadrature_sd`.
    """
    if run.scheme == INFO_SCHEME:
        return _run_trials(run, math.sqrt(run.copies), QUADRATURE_SD)
    return _run_trials(run, 1.0, gauss_quadrature_sd(run.sources, run.copies))


def fidelity_exponent(scheme: str, sources: int, copies: int | None) -> Fraction:
    """Exact exponent c of the scheme's measurement-fidelity law F**c.

    Information cloning gives c = M whatever the copy count, which may be
    None but otherwise must be positive; the Gaussian copier gives
    c = M^2 N^2 / (2(MN + 2N - 2)) and needs copies >= 2.
    """
    if scheme == INFO_SCHEME:
        if copies is not None:
            _positive_int(copies, "copies")
        return Fraction(_positive_int(sources, "sources"))
    if scheme != GAUSS_SCHEME:
        raise ValueError(f"unknown scheme {scheme!r}")
    if copies is None:
        raise ValueError("--copies is required for the gaussian scheme")
    return gauss_exponent_fraction(sources, copies)


def fidelity_pdf(exponent: Fraction):
    """Density c * F**(c-1) of the law F**c on [0, 1]."""
    c = float(exponent)

    def density(f):
        return c * np.asarray(f, dtype=float) ** (c - 1.0)

    return density


def fidelity_cdf(exponent: Fraction):
    """CDF F**c of the measurement-fidelity law."""
    c = float(exponent)

    def cdf(f):
        return np.asarray(f, dtype=float) ** c

    return cdf


def mean_fidelity(exponent: Fraction) -> Fraction:
    """Exact mean c/(c+1) of the law F**c, as one fraction p/(p+q) of c = p/q."""
    return Fraction(exponent.numerator, exponent.numerator + exponent.denominator)


def ks_statistic(values, reference_cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance of ``values`` against a CDF callable."""
    values = np.sort(values)
    n = values.size
    if n < 1:
        raise ValueError("need at least one sample")
    reference = np.asarray(reference_cdf(values), dtype=float)
    steps = np.arange(n + 1) / n
    return float(max(np.max(steps[1:] - reference), np.max(reference - steps[:-1])))


def ks_critical(count: int) -> float:
    """Asymptotic one-sample KS critical value at the 5% level."""
    return KS_5PCT / math.sqrt(count)


def summarize(values, reference_cdf, bins: int = 50) -> DistributionSummary:
    """Mean/variance/histogram of fidelity values plus the KS distance.

    The histogram uses uniform bins on [0, 1]; counts always sum to the
    sample count since fidelities live in (0, 1].
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least two samples")
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    return DistributionSummary(
        count=int(values.size),
        mean=float(values.mean()),
        variance=float(values.var()),
        bin_edges=edges,
        counts=counts,
        ks_statistic=ks_statistic(values, reference_cdf),
    )


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
    return [
        ComparisonRow(
            sources=int(sources),
            copies=int(copies),
            gauss_mean=mean_fidelity(fidelity_exponent(GAUSS_SCHEME, sources, copies)),
            info_mean=mean_fidelity(fidelity_exponent(INFO_SCHEME, sources, copies)),
        )
        for sources, copies in cases
    ]
