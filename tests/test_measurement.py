import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import kolmogi
from scipy.stats import kstwobign

from infoclone import measurement
from infoclone.fock_oracle import coherent_state_vector
from infoclone.measurement import (
    BLOCK_TRIALS,
    GAUSS_SCHEME,
    HISTOGRAM_BINS,
    INFO_SCHEME,
    KS_5PCT,
    QUADRATURE_SD,
    TRIAL_BATCH,
    FidelityRun,
    FidelitySamples,
    fidelity_cdf,
    fidelity_exponent,
    fidelity_pdf,
    ks_critical,
    ks_statistic,
    mean_fidelity,
    measurement_fidelity,
    run_trials,
    summarize,
    trial_rng,
)
from ks_helpers import (
    KS_1E6,
    ks_critical_1e6,
    ks_critical_two_sample,
    ks_critical_two_sample_1e6,
    ks_two_sample,
)

_SQRT2 = math.sqrt(2.0)


def law_cdf(scheme, sources, copies=2):
    """CDF of the scheme's fidelity law F**c."""
    return fidelity_cdf(fidelity_exponent(scheme, sources, copies))


def info_pdf(sources):
    return fidelity_pdf(fidelity_exponent(INFO_SCHEME, sources, None))


def info_mean(sources) -> Fraction:
    return mean_fidelity(fidelity_exponent(INFO_SCHEME, sources, None))


# Per-copy reference sampler.  The driver draws each trial's quadrature means
# directly; this draws every measured copy's sample and averages, which is
# the physics the driver stands for (and the stream of contract version 2).


def sample_quadrature(clone_component: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Quadrature samples for a clone whose parameter component is given.

    i.i.d. normal with mean sqrt(2)*component and variance 1/2 (for a clone
    carrying alpha/sqrt(n) the position mean is sqrt(2/n)*Re alpha).
    """
    if count < 1:
        raise ValueError("count must be positive")
    return rng.normal(_SQRT2 * clone_component, QUADRATURE_SD, count)


def estimate_alpha(y_mean, z_mean, copies: int):
    """Source-parameter estimate sqrt(copies) * (y + iz) / sqrt(2) from the
    quadrature means of 1/sqrt(copies) clones; elementwise for arrays."""
    factor = math.sqrt(copies) / _SQRT2
    return factor * y_mean + 1j * (factor * z_mean)


def per_copy_info_trials(run: FidelityRun) -> FidelitySamples:
    """Information-scheme run built from single copies: batch b draws, from
    ``trial_rng(seed, b)``, the k position samples of each of its trials in
    turn, then the momentum samples, and every trial averages its own k."""
    clone = run.alpha_true / math.sqrt(run.copies)
    k = run.measurements_per_quadrature
    estimates = np.empty(run.trials, dtype=complex)
    for index, start in enumerate(range(0, run.trials, TRIAL_BATCH)):
        count = min(TRIAL_BATCH, run.trials - start)
        rng = trial_rng(run.seed, index)
        y = sample_quadrature(clone.real, count * k, rng).reshape(count, k).mean(axis=1)
        z = sample_quadrature(clone.imag, count * k, rng).reshape(count, k).mean(axis=1)
        estimates[start:start + count] = estimate_alpha(y, z, run.copies)
    return FidelitySamples(estimates, measurement_fidelity(run.alpha_true, estimates))


def one_shot_ks(values, reference_cdf) -> float:
    """KS distance from one pass over the whole sorted array: the reference
    for the chunked scan in ``ks_statistic``."""
    values = np.sort(values)
    n = values.size
    reference = np.asarray(reference_cdf(values), dtype=float)
    steps = np.arange(n + 1) / n
    return float(max(np.max(steps[1:] - reference), np.max(reference - steps[:-1])))


class _CountingGenerator:
    """Generator proxy that records the shape of each ``normal`` draw.  It has
    no other method, so a draw by any other route fails."""

    def __init__(self, rng, shapes):
        self._rng, self._shapes = rng, shapes

    def normal(self, *args, **kwargs):
        values = self._rng.normal(*args, **kwargs)
        self._shapes.append(np.shape(values))
        return values


def rejection_bound(runs: int, level: Fraction, false_alarm: Fraction) -> int:
    """Least b with P(Binomial(runs, level) > b) <= false_alarm, in exact
    rational arithmetic."""
    pmf = [math.comb(runs, j) * level**j * (1 - level) ** (runs - j) for j in range(runs + 1)]
    bound = 0
    while sum(pmf[bound + 1:]) > false_alarm:
        bound += 1
    return bound


class TestRunConfig:
    def test_rejects_odd_split(self):
        with pytest.raises(ValueError):
            FidelityRun(1.0, sources=1, copies=3, trials=10, seed=0)

    def test_rejects_single_copy_total(self):
        with pytest.raises(ValueError):
            FidelityRun(1.0, sources=1, copies=1, trials=10, seed=0)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            FidelityRun(1.0, sources=1, copies=2, trials=10, seed=0, scheme="other")

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            FidelityRun(1.0, sources=1, copies=2, trials=10, seed=-1)

    @pytest.mark.parametrize("alpha", [complex(math.nan, 0.0), complex(0.0, math.inf), -math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            FidelityRun(alpha, sources=1, copies=2, trials=10, seed=0)

    @pytest.mark.parametrize("trials", [1, 0, -3])
    def test_rejects_fewer_than_two_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            FidelityRun(1.0, sources=1, copies=2, trials=trials, seed=0)

    @pytest.mark.parametrize("alpha", [1e17, 1e300, complex(1e308, 1e308), 3.04e9j])
    def test_rejects_alpha_beyond_rounding_bound(self, alpha):
        with pytest.raises(ValueError, match="too large"):
            FidelityRun(alpha, sources=1, copies=2, trials=10, seed=0)

    def test_alpha_bound_follows_ulp_against_noise(self):
        # sources*copies = 2: noise floor 1/2, so sqrt(2)|alpha| < 2**32
        limit = 2.0**32 / math.sqrt(2.0)
        FidelityRun(math.nextafter(limit, 0.0), sources=1, copies=2, trials=10, seed=0)
        with pytest.raises(ValueError, match="too large"):
            FidelityRun(2.0**32, sources=1, copies=2, trials=10, seed=0)
        # more measured copies lower the noise floor and with it the bound
        FidelityRun(3.0e9, sources=1, copies=2, trials=10, seed=0)
        with pytest.raises(ValueError, match="too large"):
            FidelityRun(3.0e9, sources=8, copies=32, trials=10, seed=0)

    @pytest.mark.parametrize("scheme", [INFO_SCHEME, GAUSS_SCHEME])
    def test_law_holds_just_below_alpha_bound(self, scheme):
        run = FidelityRun(complex(2.1e9, -2.1e9), sources=1, copies=2, trials=50_000,
                          seed=3, scheme=scheme)
        samples = run_trials(run)
        reference = law_cdf(scheme, 1, 2)
        assert ks_statistic(samples.fidelity, reference) < ks_critical(run.trials)

    def test_measurement_split(self):
        run = FidelityRun(1.0, sources=3, copies=4, trials=10, seed=0)
        assert run.measurements_per_quadrature == 6


class TestSampler:
    def test_centered_for_zero_component(self):
        rng = trial_rng(0, 0)
        samples = sample_quadrature(0.0, 1_000_000, rng)
        assert abs(samples.mean()) < 5.0 / math.sqrt(2.0 * samples.size)

    def test_mean_for_quarter_component(self):
        # clone parameter alpha/sqrt(N) with alpha_R = 1, N = 4: mean sqrt(1/2)
        rng = trial_rng(1, 0)
        samples = sample_quadrature(1.0 / math.sqrt(4), 1_000_000, rng)
        tolerance = 5.0 * QUADRATURE_SD / math.sqrt(samples.size)
        assert abs(samples.mean() - math.sqrt(0.5)) < tolerance

    def test_variance_is_half(self):
        rng = trial_rng(2, 0)
        samples = sample_quadrature(0.3, 1_000_000, rng)
        tolerance = 5.0 * 0.5 * math.sqrt(2.0 / samples.size)
        assert abs(samples.var() - 0.5) < tolerance

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            sample_quadrature(0.0, 0, trial_rng(0, 0))


class TestEstimator:
    def test_zero_means(self):
        assert estimate_alpha(0.0, 0.0, 4) == 0.0

    def test_noise_free_consistency(self):
        alpha = 1.3 - 0.4j
        for copies in (1, 2, 4, 9):
            y = math.sqrt(2.0 / copies) * alpha.real
            z = math.sqrt(2.0 / copies) * alpha.imag
            assert estimate_alpha(y, z, copies) == pytest.approx(alpha, abs=1e-15)

    def test_frozen_value(self):
        # independent evaluation: sqrt(4) * (0.5 - 0.25j) / sqrt(2) = sqrt(2) * (0.5 - 0.25j)
        expected = math.sqrt(2.0) * complex(0.5, -0.25)
        assert estimate_alpha(0.5, -0.25, 4) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.7071067811865476 - 0.3535533905932738j, abs=1e-12)


class TestFidelity:
    def test_perfect_estimate(self):
        assert measurement_fidelity(0.4 + 0.2j, 0.4 + 0.2j) == 1.0

    def test_unit_error(self):
        assert measurement_fidelity(1.0, 0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_matches_fock_overlap(self):
        # dual route: squared overlap of the two truncated coherent vectors
        alpha, estimate = 0.7 + 0.2j, 0.4 - 0.1j
        x = coherent_state_vector(alpha, 30)
        y = coherent_state_vector(estimate, 30)
        assert measurement_fidelity(alpha, estimate) == pytest.approx(
            abs(np.vdot(x, y)) ** 2, abs=1e-8
        )


class TestInfoTrials:
    def test_uniform_law_for_single_source(self):
        run = FidelityRun(0.9 + 0.5j, sources=1, copies=8, trials=400_000, seed=7)
        samples = run_trials(run)
        summary = summarize(samples.fidelity, law_cdf(INFO_SCHEME, 1))
        assert abs(summary.mean - 0.5) < 0.005
        assert summary.ks_statistic < ks_critical_1e6(run.trials)

    def test_three_sources_mean(self):
        run = FidelityRun(1.0, sources=3, copies=2, trials=100_000, seed=11)
        samples = run_trials(run)
        mean = samples.fidelity.mean()
        assert abs(mean - 0.75) < 0.005

    def test_estimator_unbiased(self):
        run = FidelityRun(0.8 - 0.3j, sources=2, copies=4, trials=100_000, seed=13)
        estimates = run_trials(run).estimates
        standard_error = math.sqrt(1.0 / (2.0 * run.sources)) / math.sqrt(run.trials)
        assert abs(estimates.real.mean() - 0.8) < 5.0 * standard_error
        assert abs(estimates.imag.mean() + 0.3) < 5.0 * standard_error

    def test_estimator_variance_is_half_per_source(self):
        # Var(Re est) = Var(Im est) = 1/(2M), independent of copies
        for copies, seed in ((2, 17), (8, 19)):
            run = FidelityRun(0.5, sources=2, copies=copies, trials=100_000, seed=seed)
            estimates = run_trials(run).estimates
            target = 1.0 / (2.0 * run.sources)
            tolerance = 5.0 * target * math.sqrt(2.0 / run.trials)
            assert abs(estimates.real.var() - target) < tolerance
            assert abs(estimates.imag.var() - target) < tolerance

    def test_fidelity_definition_holds_per_sample(self):
        # the column comes from one array call; every scalar call must agree
        # to the last bit (a scalar ** 2 instead of np.square breaks this on
        # about 0.1% of rows)
        run = FidelityRun(0.4 + 0.1j, sources=1, copies=2, trials=50_000, seed=23)
        samples = run_trials(run)
        assert samples.fidelity.shape == samples.estimates.shape == (run.trials,)
        for i in range(run.trials):
            assert samples.fidelity[i] == measurement_fidelity(run.alpha_true, samples.estimates[i])

    def test_log_law_is_chi_squared(self):
        # -2M ln F has CDF 1 - exp(-x/2)
        run = FidelityRun(1.0, sources=4, copies=2, trials=200_000, seed=29)
        values = run_trials(run).fidelity
        transformed = -2.0 * run.sources * np.log(values)
        statistic = ks_statistic(transformed, lambda x: 1.0 - np.exp(-x / 2.0))
        assert statistic < ks_critical_1e6(run.trials)

    def test_deterministic_for_seed(self):
        run = FidelityRun(0.6, sources=1, copies=4, trials=10_000, seed=31)
        first = run_trials(run).fidelity
        second = run_trials(run).fidelity
        assert np.array_equal(first, second)

    @settings(max_examples=15, deadline=None)
    @given(
        batches=st.integers(1, 3),
        extra=st.integers(1, 2 * TRIAL_BATCH),
        seed=st.integers(0, 2**64 - 1),
        scheme=st.sampled_from([INFO_SCHEME, GAUSS_SCHEME]),
    )
    def test_batch_aligned_prefix_is_the_shorter_run(self, batches, extra, seed, scheme):
        trials = batches * TRIAL_BATCH
        runs = [FidelityRun(0.3 - 1.1j, sources=2, copies=2, trials=count, seed=seed,
                            scheme=scheme) for count in (trials, trials + extra)]
        short, longer = (run_trials(run) for run in runs)
        assert np.array_equal(short.estimates, longer.estimates[:trials])
        assert np.array_equal(short.fidelity, longer.fidelity[:trials])

    def test_copies_do_not_change_fidelity_law(self):
        trials = 200_000
        narrow = run_trials(FidelityRun(1.0, sources=2, copies=2, trials=trials, seed=37))
        wide = run_trials(FidelityRun(1.0, sources=2, copies=8, trials=trials, seed=41))
        distance = ks_two_sample(narrow.fidelity, wide.fidelity)
        assert distance < ks_critical_two_sample_1e6(trials, trials)

    def test_single_pair_draw_is_the_per_copy_stream(self):
        # k = 1: a trial's mean is its one sample, so the driver consumes the
        # stream exactly like the per-copy reference, bit for bit: one stream
        # per batch, position block first, then momentum
        run = FidelityRun(0.7 + 0.2j, sources=1, copies=2, trials=2 * TRIAL_BATCH + 50, seed=43)
        samples = run_trials(run)
        reference = per_copy_info_trials(run)
        assert np.array_equal(samples.estimates, reference.estimates)
        assert np.array_equal(samples.fidelity, reference.fidelity)

    @pytest.mark.parametrize("sources,copies,seed", [(1, 4, 47), (2, 8, 53), (8, 32, 59)])
    def test_mean_draw_has_the_per_copy_law(self, sources, copies, seed):
        # k = 2, 8 and 128: one normal of variance s^2/k per quadrature has the
        # law of the mean of k per-copy samples; the streams differ, so the
        # two are compared by two-sample KS at the 1e-6 level
        trials = 50_000
        driver = run_trials(FidelityRun(0.7 + 0.2j, sources, copies, trials, seed=seed))
        reference = per_copy_info_trials(
            FidelityRun(0.7 + 0.2j, sources, copies, trials, seed=seed + 1)
        )
        assert ks_two_sample(driver.fidelity, reference.fidelity) < ks_critical_two_sample_1e6(
            trials, trials)

    @pytest.mark.parametrize("scheme", [INFO_SCHEME, GAUSS_SCHEME])
    @pytest.mark.parametrize("trials", [2, TRIAL_BATCH, TRIAL_BATCH + 1, 10_000])
    def test_one_stream_and_two_normals_per_batch(self, monkeypatch, scheme, trials):
        # the traced benchmark counts trial_rng calls against the batch count;
        # each batch draws its position means, then its momentum means
        batches = []

        def counting_trial_rng(seed, batch_index):
            shapes = []
            batches.append((batch_index, shapes))
            return _CountingGenerator(trial_rng(seed, batch_index), shapes)

        monkeypatch.setattr(measurement, "trial_rng", counting_trial_rng)
        run = FidelityRun(0.3 - 1.1j, sources=4, copies=8, trials=trials, seed=5, scheme=scheme)
        run_trials(run)
        assert [index for index, _ in batches] == list(range(-(-trials // TRIAL_BATCH)))
        for index, shapes in batches:
            length = min(TRIAL_BATCH, trials - index * TRIAL_BATCH)
            assert shapes == [(length,), (length,)]


class TestClosedForms:
    def test_uniform_density_for_single_source(self):
        density = info_pdf(1)
        grid = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(density(grid), np.ones(11))

    def test_two_source_density_value(self):
        assert info_pdf(2)(0.5) == 1.0

    @pytest.mark.parametrize("sources", [1, 2, 3, 5, 10])
    def test_density_normalizes(self, sources):
        mass, _ = quad(info_pdf(sources), 0.0, 1.0)
        assert abs(mass - 1.0) < 1e-10

    @pytest.mark.parametrize("sources", [1, 2, 3, 5, 10])
    def test_mean_matches_quadrature(self, sources):
        density = info_pdf(sources)
        mean, _ = quad(lambda f: f * density(f), 0.0, 1.0)
        assert abs(mean - float(info_mean(sources))) < 1e-10

    def test_mean_values(self):
        assert float(info_mean(1)) == 0.5
        assert info_mean(2) == pytest.approx(2.0 / 3.0)
        assert str(info_mean(2)) == "2/3"

    def test_cdf_is_power(self):
        cdf = law_cdf(INFO_SCHEME, 3)
        assert cdf(0.5) == 0.125

    def test_rejects_nonpositive_sources(self):
        with pytest.raises(ValueError):
            info_pdf(0)

    @pytest.mark.parametrize("sources", range(1, 40))
    def test_integer_exponent_matches_the_integer_power_bitwise(self, sources):
        # the law takes float(c); for c = M it must equal the integer power
        # bit for bit, so the density CSV and the KS statistic do not move
        grid = np.concatenate([np.geomspace(1e-12, 1.0, 3000), trial_rng(sources, 0).random(3000)])
        c = fidelity_exponent(INFO_SCHEME, sources, None)
        assert np.array_equal(fidelity_cdf(c)(grid), grid**sources)
        assert np.array_equal(fidelity_pdf(c)(grid), sources * grid ** (sources - 1))


class TestSummaries:
    def test_constant_samples_have_zero_variance(self):
        summary = summarize([0.5] * 100, law_cdf(INFO_SCHEME, 1))
        assert summary.variance == 0.0
        assert summary.mean == 0.5

    def test_histogram_counts_sum_to_sample_count(self):
        rng = trial_rng(5, 0)
        values = rng.uniform(0.0, 1.0, 12345)
        summary = summarize(values, law_cdf(INFO_SCHEME, 1))
        assert summary.counts.sum() == 12345
        assert summary.bin_edges.size == 51

    def test_accepts_fidelity_samples(self):
        samples = FidelitySamples(np.array([0.1 + 0j, 0.2 + 0j]), np.array([0.25, 0.75]))
        summary = summarize(samples.fidelity, law_cdf(INFO_SCHEME, 1))
        assert summary.mean == 0.5

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            summarize([0.5], law_cdf(INFO_SCHEME, 1))

    def test_leaves_values_as_given(self):
        values = trial_rng(6, 0).random(3 * TRIAL_BATCH + 5)
        values.flags.writeable = False
        before = values.copy()
        reference = law_cdf(INFO_SCHEME, 2)
        summarize(values, reference)
        ks_statistic(values, reference)
        assert np.array_equal(values, before)

    @pytest.mark.parametrize("n", [2, 3, TRIAL_BATCH - 1, TRIAL_BATCH + 1, BLOCK_TRIALS + 6,
                                   3 * BLOCK_TRIALS + 17])
    def test_sorting_summary_is_the_summary(self, n):
        # the CLI's summary of a column it gives up, and summarize of a copy:
        # numpy's mean, variance and histogram and the one-shot KS scan, bit
        # for bit, with the column sorted in place
        values = trial_rng(7, n).random(n)
        reference = law_cdf(INFO_SCHEME, 2)
        column = values.copy()
        for got in (summarize(values, reference),
                    measurement._summarize_sorting(column, reference)):
            assert (got.mean, got.variance, got.ks_statistic) == (
                float(values.mean()), values.var(), one_shot_ks(values, reference))
            expected, edges = np.histogram(values, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
            assert np.array_equal(got.counts, expected)
            assert np.array_equal(got.bin_edges, edges)
        assert np.array_equal(column, np.sort(values))

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 5 * TRIAL_BATCH),
        seed=st.integers(0, 2**64 - 1),
        exponent=st.sampled_from([Fraction(1), Fraction(3), Fraction(16, 7), Fraction(2, 5)]),
    )
    @example(n=1, seed=0, exponent=Fraction(1))
    @example(n=2, seed=1, exponent=Fraction(3))
    @example(n=TRIAL_BATCH - 1, seed=2, exponent=Fraction(16, 7))
    @example(n=TRIAL_BATCH, seed=3, exponent=Fraction(1))
    @example(n=TRIAL_BATCH + 1, seed=4, exponent=Fraction(2, 5))
    @example(n=3 * TRIAL_BATCH + 5, seed=5, exponent=Fraction(3))
    def test_chunked_ks_is_the_one_shot_scan(self, n, seed, exponent):
        values = trial_rng(seed, 0).random(n)
        reference = fidelity_cdf(exponent)
        assert ks_statistic(values, reference) == one_shot_ks(values, reference)
        if n >= 2:
            assert summarize(values, reference).ks_statistic == one_shot_ks(values, reference)

    def test_summarize_scratch_is_its_sorted_copy(self):
        # 8 bytes per value for the sorted copy; the variance, the histogram
        # and the KS scan use scratch that does not grow with the count
        counts, peaks = (200_000, 800_000), []
        reference = law_cdf(INFO_SCHEME, 2)
        for n in counts:
            values = trial_rng(11, 0).random(n)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                summarize(values, reference)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        # 64 bytes in total, not per value, for what else differs between the runs
        slope = (peaks[1] - peaks[0]) / (counts[1] - counts[0])
        assert 4 < slope <= 8 + 64 / (counts[1] - counts[0])

    def test_ks_calibration(self):
        # samples drawn from the reference pass the 5% gate ~95% of the time
        rng = trial_rng(9, 0)
        n, meta_trials = 2000, 300
        critical = ks_critical(n)
        passes = sum(
            ks_statistic(rng.uniform(0.0, 1.0, n), lambda f: f) < critical
            for _ in range(meta_trials)
        )
        assert passes >= 0.94 * meta_trials

    def test_ks_statistic_detects_wrong_reference(self):
        rng = trial_rng(10, 0)
        values = rng.uniform(0.0, 1.0, 5000)
        assert ks_statistic(values, law_cdf(INFO_SCHEME, 3)) > 10 * ks_critical(5000)

    def test_critical_value_constant(self):
        # asymptotic 5% constant is 1.358 / sqrt(n)
        assert ks_critical(10_000) == pytest.approx(1.3581 / 100.0, abs=1e-4)

    def test_kolmogorov_constant_is_scipy_quantile_bitwise(self):
        assert KS_5PCT == kolmogi(0.05) == kstwobign.isf(0.05)

    def test_strict_kolmogorov_constant_is_scipy_quantile(self):
        assert KS_1E6 == pytest.approx(kstwobign.isf(1e-6), rel=1e-15, abs=0.0)
        assert ks_critical_1e6(40_000) == KS_1E6 / 200.0
        assert ks_critical_two_sample_1e6(100, 100) == KS_1E6 * math.sqrt(0.02)

    @pytest.mark.parametrize("count", [2, 100, 3000, 10_000, 1_000_000, 12_345_679])
    def test_critical_values_match_scipy_bitwise(self, count):
        quantile = kstwobign.isf(0.05)
        assert ks_critical(count) == float(quantile / math.sqrt(count))
        assert ks_critical_two_sample(count, 7) == float(
            quantile * math.sqrt((count + 7) / (count * 7))
        )


def _sample(kind: str, n: int, seed: int) -> np.ndarray:
    rng = trial_rng(seed, 0)
    if kind == "uniform":
        return rng.random(n)
    if kind == "law":  # F**c with c = 3: the CDF's inverse of uniforms
        return rng.random(n) ** (1.0 / 3.0)
    if kind == "constant":
        return np.full(n, rng.random())
    return np.exp(rng.normal(0.0, 40.0, n))  # spread over about 230 binades


# sizes on both sides of the leaf of BLOCK_TRIALS values, and sizes whose
# n // 2 is not a multiple of 8, where numpy's split of a node moves down
_SPLIT_SIZES = [BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1, 2 * BLOCK_TRIALS + 6,
                2 * BLOCK_TRIALS + 17, 4 * BLOCK_TRIALS + 2, 100_003, 299_999]


class TestVariance:
    """``_variance`` replays numpy's pairwise summation; if a numpy release
    changes that tree, these tests fail rather than the pinned bytes."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(st.integers(2, 300_000), st.integers(2, 3 * BLOCK_TRIALS),
                    st.sampled_from(_SPLIT_SIZES)),
        kind=st.sampled_from(["uniform", "law", "constant", "binades"]),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(n=2, kind="uniform", seed=0)
    @example(n=2 * BLOCK_TRIALS + 6, kind="uniform", seed=0)
    @example(n=100_003, kind="binades", seed=1)
    @example(n=299_999, kind="law", seed=2)
    def test_variance_is_np_var_bitwise(self, n, kind, seed):
        values = _sample(kind, n, seed)
        assert measurement._variance(values) == values.var()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.one_of(st.integers(2, 3 * BLOCK_TRIALS), st.sampled_from(_SPLIT_SIZES)),
        kind=st.sampled_from(["uniform", "law", "constant"]),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(n=5, kind="constant", seed=0)
    @example(n=7000, kind="uniform", seed=50)
    def test_sorted_counts_are_np_histogram(self, n, kind, seed):
        values = _sample(kind, n, seed)
        # a seventh of the values sit on one bin edge, 1.0 when seed % 51 is
        # 50: the bins are closed on the left, and the last on both sides
        values[: n // 7] = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)[seed % 51]
        summary = summarize(values, law_cdf(INFO_SCHEME, 3))
        expected, edges = np.histogram(values, bins=summary.bin_edges)
        assert np.array_equal(summary.counts, expected)
        assert summary.counts.dtype == expected.dtype
        assert np.array_equal(summary.bin_edges, edges)


class TestGateCalibration:
    """The CLI's 5% one-sample KS gate over many seeds.

    Each case counts the seeds whose run the gate rejects.  The count is
    Binomial(200, 0.05) when the gate holds its level; it exceeds 27 with
    probability at most 1e-6.  The two cases take disjoint seeds: the stream
    at a seed gives the same standard normals in every case, so the
    information-scheme statistic there barely depends on (M, N), and in
    both schemes F**exponent is the same function of those normals.
    """

    RUNS = 200
    TRIALS = 100_000

    def test_rejection_bound(self):
        assert rejection_bound(self.RUNS, Fraction(1, 20), Fraction(1, 10**6)) == 27

    @pytest.mark.parametrize(
        "scheme,sources,copies,first_seed",
        [(INFO_SCHEME, 8, 32, 1000), (GAUSS_SCHEME, 2, 4, 2000)],
    )
    def test_gate_rejects_at_its_level(self, scheme, sources, copies, first_seed):
        reference = law_cdf(scheme, sources, copies)
        critical = ks_critical(self.TRIALS)
        rejections = 0
        for seed in range(first_seed, first_seed + self.RUNS):
            run = FidelityRun(1.0, sources, copies, self.TRIALS, seed=seed, scheme=scheme)
            rejections += not ks_statistic(run_trials(run).fidelity, reference) < critical
        assert rejections <= rejection_bound(self.RUNS, Fraction(1, 20), Fraction(1, 10**6))
