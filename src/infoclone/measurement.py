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
scheme.

One driver, :func:`trial_blocks`, runs either scheme, ``BLOCK_TRIALS``
trials at a time.  It scores each block of estimates into the caller's
fidelity column and yields the block, so a caller that writes the estimates
as they come (the CLI's samples CSV) never holds them all.
:func:`run_trials` collects its blocks into columns
(:class:`FidelitySamples`): a complex array of estimates and a float array
of fidelities, 24 bytes per trial.  One function, :func:`_summarize_sorting`,
summarizes a column: it takes the mean and variance in the drawn order, then
sorts the column in place for the histogram and the exact KS distance.  The
CLI hands it the fidelity column, which it needs no longer;
:func:`summarize` hands it a copy.  The variance (:func:`_variance`) replays
numpy's pairwise summation one leaf at a time in a scratch of
``BLOCK_TRIALS`` values, so it equals ``np.var`` bit for bit without
``np.var``'s temporary of the column's size.  So a CLI run
and its summary peak at ``BYTES_PER_TRIAL`` = 8 bytes per trial: the column
alone.  The rest of their scratch does not grow with the trial count.

Determinism contract (stream version 3): trials are partitioned into fixed
batches of ``TRIAL_BATCH`` with independent counter-based streams keyed by
(seed, batch index); within a batch the position means are drawn before the
momentum means.  A block of ``BLOCK_TRIALS`` trials holds whole batches,
so the blocks do not change the stream.  Results are bit-identical for a
given seed, and the first T results of a run are those of a T-trial run
whenever T is a multiple of ``TRIAL_BATCH``.
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
    "BLOCK_TRIALS",
    "BYTES_PER_TRIAL",
    "HISTOGRAM_BINS",
    "QUADRATURE_SD",
    "KS_5PCT",
    "ALPHA_ULP_FRACTION",
    "FidelityRun",
    "FidelitySamples",
    "DistributionSummary",
    "trial_rng",
    "measurement_fidelity",
    "trial_blocks",
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
# Trials per block of trial_blocks, whole batches: the CSV writer's chunk, so
# the CLI writes each block's rows at once.  Yielding each batch instead made
# a million-trial samples CSV about 15% slower.
BLOCK_TRIALS = 4 * TRIAL_BATCH
# Peak memory per trial of the CLI's trial_blocks followed by
# _summarize_sorting: the 8-byte fidelity column.  The variance's scratch is
# one block and the sort is in place.
BYTES_PER_TRIAL = 8
HISTOGRAM_BINS = 50  # uniform bins on [0, 1]; the summary JSON schema fixes 50
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
        fidelity_exponent(self.scheme, self.sources, self.copies)
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
        modulus = math.hypot(alpha.real, alpha.imag)  # inf, not OverflowError, past the float range
        if math.ulp(_SQRT2 * modulus) > ALPHA_ULP_FRACTION * noise:
            raise ValueError(
                f"|alpha_true| = {modulus:.6g} is too large for {total} measured "
                f"copies: one ulp of the quadrature mean sqrt(2)*|alpha_true| exceeds "
                f"2**-20 of the per-trial estimate noise floor {noise:.3g}"
            )
        object.__setattr__(self, "alpha_true", alpha)

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


def trial_blocks(run: FidelityRun, fidelity: np.ndarray):
    """Draw the trials of ``run`` ``BLOCK_TRIALS`` at a time, scoring them into
    ``fidelity``, a float64 array of ``run.trials`` values.

    Yields ``(start, estimates, scores)`` per block: the block's complex
    estimates and ``scores``, the view ``fidelity[start:start +
    estimates.size]``, which holds ``measurement_fidelity(alpha_true,
    estimates)``.  ``estimates`` is one buffer that the next block
    overwrites, so a caller that keeps it copies it.

    Information clones carry alpha/sqrt(copies) and every quadrature
    measurement has variance 1/2.  Gaussian copies carry the full source
    parameter, measured with the standard deviation of
    :func:`~infoclone.gaussian_cloner.gauss_quadrature_sd`.  Each measured
    copy's quadrature samples have mean sqrt(2) times its component, and a
    trial averages k = ``measurements_per_quadrature`` of them per
    quadrature.  The mean of k i.i.d. N(mu, sd^2) draws is exactly
    N(mu, sd^2/k), so each trial's quadrature means are drawn directly, one
    normal each, and the cost does not grow with k.  Batch b of
    ``TRIAL_BATCH`` trials draws from ``trial_rng(seed, b)``: its position
    means, then as many momentum means, straight into the real and imaginary
    parts of its slice of the block.  The estimate clone_scale * (y + iz) /
    sqrt(2) undoes the scale.
    """
    if run.scheme == INFO_SCHEME:
        clone_scale, sd = math.sqrt(run.copies), QUADRATURE_SD
    else:
        clone_scale, sd = 1.0, gauss_quadrature_sd(run.sources, run.copies)
    clone = run.alpha_true / clone_scale
    mean_y, mean_z = _SQRT2 * clone.real, _SQRT2 * clone.imag
    mean_sd = sd / math.sqrt(run.measurements_per_quadrature)
    factor = clone_scale / _SQRT2
    buffer = np.empty(min(BLOCK_TRIALS, run.trials), dtype=complex)
    for start in range(0, run.trials, BLOCK_TRIALS):
        stop = min(start + BLOCK_TRIALS, run.trials)
        block = buffer[: stop - start]
        for offset in range(0, block.size, TRIAL_BATCH):
            batch = block[offset : offset + TRIAL_BATCH]
            rng = trial_rng(run.seed, (start + offset) // TRIAL_BATCH)
            batch.real = rng.normal(mean_y, mean_sd, batch.size)
            batch.imag = rng.normal(mean_z, mean_sd, batch.size)
        block.real *= factor
        block.imag *= factor
        fidelity[start:stop] = measurement_fidelity(run.alpha_true, block)
        yield start, block, fidelity[start:stop]


def run_trials(run: FidelityRun) -> FidelitySamples:
    """Monte Carlo fidelity samples of ``run`` under its scheme, collected
    from :func:`trial_blocks`."""
    estimates = np.empty(run.trials, dtype=complex)
    fidelity = np.empty(run.trials)
    for start, block, _ in trial_blocks(run, fidelity):
        estimates[start : start + block.size] = block
    return FidelitySamples(estimates, fidelity)


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
    """One-sample Kolmogorov-Smirnov distance of ``values`` against a CDF callable.

    Scans a sorted copy of ``values`` and leaves them as they are.
    """
    return _ks_sorted(np.sort(values), reference_cdf)


def _ks_sorted(values: np.ndarray, reference_cdf) -> float:
    """KS distance of sorted ``values``: the largest gap between the
    empirical steps k/n and ``reference_cdf``, scanned ``TRIAL_BATCH``
    values at a time.  Each gap is the same elementwise expression as over
    the whole array, so the maximum is exactly that of the one-shot scan."""
    n = values.size
    if n < 1:
        raise ValueError("need at least one sample")
    distance = -math.inf
    for start in range(0, n, TRIAL_BATCH):
        stop = min(start + TRIAL_BATCH, n)
        reference = np.asarray(reference_cdf(values[start:stop]), dtype=float)
        steps = np.arange(start, stop + 1) / n
        distance = max(distance, np.max(steps[1:] - reference), np.max(reference - steps[:-1]))
    return float(distance)


def ks_critical(count: int) -> float:
    """Asymptotic one-sample KS critical value at the 5% level."""
    return KS_5PCT / math.sqrt(count)


def summarize(values, reference_cdf) -> DistributionSummary:
    """Mean/variance/histogram of fidelity values plus the KS distance.

    The histogram uses uniform bins on [0, 1]; counts always sum to the
    sample count since fidelities live in (0, 1].  The values are left as
    they are: the summary sorts a copy, the only scratch of 8 bytes per
    value.
    """
    return _summarize_sorting(np.array(values, dtype=float), reference_cdf)


def _summarize_sorting(fidelity: np.ndarray, reference_cdf) -> DistributionSummary:
    """:func:`summarize` of a float64 column that the caller gives up.

    The mean and the variance (:func:`_variance`, whose scratch is one
    block) are taken in the column's given order; then the column is sorted
    in place, so no sorted copy is made.  The counts are ``np.histogram``'s
    with the edges as bins, which sorts the values block by block and
    counts with ``searchsorted``: left-closed bins, the last one closed on
    both sides.
    """
    if fidelity.size < 2:
        raise ValueError("need at least two samples")
    mean, variance = float(fidelity.mean()), _variance(fidelity)
    fidelity.sort()
    edges = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
    below = np.concatenate((fidelity.searchsorted(edges[:-1], "left"),
                            fidelity.searchsorted(edges[-1:], "right")))
    return DistributionSummary(mean, variance, edges, np.diff(below),
                               _ks_sorted(fidelity, reference_cdf))


def _variance(values: np.ndarray) -> float:
    """``values.var()`` bit for bit, without its temporary (x - mean)**2 of
    the size of ``values``."""
    mean = np.add.reduce(values, keepdims=True) / values.size
    scratch = np.empty(min(values.size, BLOCK_TRIALS))
    return float(_squares_sum(values, mean, scratch) / values.size)


def _squares_sum(values: np.ndarray, mean: np.ndarray, scratch: np.ndarray):
    """numpy's pairwise sum of (values - mean)**2, squared a leaf at a time.

    numpy sums a contiguous float64 array pairwise, on a split tree that
    depends only on the length: a node of n > 8 values splits at n2 = n // 2
    rounded down to a multiple of 8.  This walks the same tree from the root
    and squares each node of at most ``BLOCK_TRIALS`` values into
    ``scratch``, whose sum is numpy's sum of that subtree.  ``initial=0.0``
    pins each leaf's sum to start from zero, as ``np.var``'s does.
    """
    if values.size <= BLOCK_TRIALS:
        leaf = scratch[: values.size]
        np.subtract(values, mean, out=leaf)
        np.multiply(leaf, leaf, out=leaf)
        return np.add.reduce(leaf, initial=0.0)
    half = values.size // 2
    half -= half % 8
    return _squares_sum(values[:half], mean, scratch) + _squares_sum(values[half:], mean, scratch)


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
