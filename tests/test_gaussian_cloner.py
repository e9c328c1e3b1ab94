import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from infoclone.gaussian_cloner import (
    amplification_fraction,
    gauss_exponent_fraction,
    gauss_quadrature_sd,
    overlap_fidelity_gaussian,
)
from infoclone import measurement
from infoclone.measurement import (
    GAUSS_SCHEME,
    INFO_SCHEME,
    ComparisonRow,
    FidelityRun,
    comparison_table,
    fidelity_cdf,
    fidelity_exponent,
    fidelity_pdf,
    ks_critical,
    mean_fidelity,
)
from ks_helpers import ks_critical_1e6, ks_one_sample
from mc_helpers import draw


def gauss_mean(sources, copies) -> Fraction:
    return mean_fidelity(gauss_exponent_fraction(sources, copies))


def info_mean(sources) -> Fraction:
    return mean_fidelity(fidelity_exponent(INFO_SCHEME, sources, None))


class TestAmplification:
    def test_values(self):
        assert float(amplification_fraction(1, 2)) == 2.0
        assert float(amplification_fraction(2, 2)) == 4.0
        assert amplification_fraction(3, 4) == Fraction(4)

    def test_single_copy_rejected(self):
        with pytest.raises(ValueError):
            amplification_fraction(1, 1)

    def test_overlap_identity_on_grid(self):
        # A/(A+1) equals the closed-form overlap fidelity of M -> M*N copying
        for sources in range(1, 11):
            for copies in range(2, 11):
                amp = amplification_fraction(sources, copies)
                via_amp = amp / (amp + 1)
                direct = overlap_fidelity_gaussian(sources, sources * copies)
                assert abs(float(via_amp) - direct) < 1e-15


class TestOverlapFidelity:
    def test_one_to_two(self):
        assert overlap_fidelity_gaussian(1, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_no_cloning_is_perfect(self):
        for n in (1, 3, 7):
            assert overlap_fidelity_gaussian(n, n) == 1.0

    def test_chain_closed_form(self):
        # M -> M*N reduces to MN / (MN + N - 1)
        for sources, copies in [(1, 2), (2, 3), (3, 5)]:
            mn = sources * copies
            assert overlap_fidelity_gaussian(sources, sources * copies) == pytest.approx(
                mn / (mn + copies - 1), abs=1e-15
            )

    def test_rejects_fewer_outputs(self):
        with pytest.raises(ValueError):
            overlap_fidelity_gaussian(3, 2)


class TestExponent:
    def test_exact_fraction_chain(self):
        # c = MNA/(2(A+2)) reduced through A = MN/(N-1), checked rationally
        for sources in range(1, 21):
            for copies in range(2, 21):
                amp = amplification_fraction(sources, copies)
                chain = sources * copies * amp / (2 * (amp + 2))
                assert chain == gauss_exponent_fraction(sources, copies)
                assert chain / (chain + 1) == gauss_mean(sources, copies)

    def test_values(self):
        assert gauss_exponent_fraction(1, 2) == Fraction(1, 2)
        assert float(gauss_exponent_fraction(2, 2)) == pytest.approx(4.0 / 3.0, abs=1e-15)


class TestClosedForms:
    @pytest.mark.parametrize("sources,copies", [(1, 2), (1, 4), (2, 2), (3, 5)])
    def test_density_normalizes(self, sources, copies):
        mass, _ = quad(fidelity_pdf(gauss_exponent_fraction(sources, copies)), 0.0, 1.0,
                       points=[0.0])
        assert abs(mass - 1.0) < 1e-10

    @pytest.mark.parametrize("sources,copies", [(1, 2), (1, 4), (2, 2), (3, 5)])
    def test_mean_matches_quadrature(self, sources, copies):
        density = fidelity_pdf(gauss_exponent_fraction(sources, copies))
        mean, _ = quad(lambda f: f * density(f), 0.0, 1.0)
        assert abs(mean - float(gauss_mean(sources, copies))) < 1e-10

    def test_mean_values(self):
        assert gauss_mean(1, 2) == Fraction(1, 3)
        assert gauss_mean(1, 4) == Fraction(4, 9)
        assert gauss_mean(2, 2) == Fraction(4, 7)
        assert gauss_mean(2, 4) == Fraction(16, 23)

    def test_cdf_is_power(self):
        cdf = fidelity_cdf(gauss_exponent_fraction(1, 2))
        assert cdf(0.25) == pytest.approx(0.5, abs=1e-15)

    def test_mean_approaches_one(self):
        assert float(gauss_mean(1000, 2)) > 0.999
        assert gauss_mean(1, 2) < gauss_mean(10, 2)


class TestGaussTrials:
    def test_one_source_two_copies_mean(self):
        run = FidelityRun(0.8 + 0.1j, 1, 2, 100_000, seed=61, scheme=GAUSS_SCHEME)
        values = draw(run)[1]
        reference = fidelity_cdf(gauss_exponent_fraction(1, 2))
        assert abs(values.mean() - 1.0 / 3.0) < 0.005
        assert ks_one_sample(values, reference) < ks_critical(run.trials)

    def test_two_sources_four_copies_mean(self):
        run = FidelityRun(1.0, 2, 4, 100_000, seed=67, scheme=GAUSS_SCHEME)
        mean = draw(run)[1].mean()
        assert abs(mean - 16.0 / 23.0) < 0.005

    def test_law_is_power_of_uniform(self):
        # F**c should be uniform
        run = FidelityRun(0.5, 2, 2, 200_000, seed=71, scheme=GAUSS_SCHEME)
        values = draw(run)[1]
        exponent = float(gauss_exponent_fraction(2, 2))
        statistic = ks_one_sample(values**exponent, lambda f: f)
        assert statistic < ks_critical_1e6(run.trials)

    def test_noise_model_sets_the_exponent(self, monkeypatch):
        # the single-copy marginal (A+2)/(2A) gives F**(2c); the driver's
        # per-measurement variance (A+2)/A gives the paper's F**c
        run = FidelityRun(0.5, 1, 2, 50_000, seed=79, scheme=GAUSS_SCHEME)
        amp = float(amplification_fraction(1, 2))
        c = float(gauss_exponent_fraction(1, 2))
        critical = ks_critical(run.trials)
        with monkeypatch.context() as patch:
            patch.setattr(measurement, "gauss_quadrature_sd",
                          lambda sources, copies: math.sqrt((amp + 2.0) / (2.0 * amp)))
            marginal = draw(run)[1]
        assert ks_one_sample(marginal, lambda f: f ** (2.0 * c)) < critical
        assert ks_one_sample(marginal, fidelity_cdf(gauss_exponent_fraction(1, 2))) > critical
        driver = draw(run)[1]
        assert ks_one_sample(driver, fidelity_cdf(gauss_exponent_fraction(1, 2))) < critical
        assert gauss_quadrature_sd(1, 2) == math.sqrt((amp + 2.0) / amp)

    def test_deterministic(self):
        run = FidelityRun(0.5, 1, 2, 5_000, seed=73, scheme=GAUSS_SCHEME)
        assert np.array_equal(draw(run)[1], draw(run)[1])

    def test_single_copy_rejected(self):
        # the Gaussian law needs copies >= 2; the run is refused when built
        with pytest.raises(ValueError, match="copies must be at least 2"):
            FidelityRun(0.5, 2, 1, 10, seed=0, scheme=GAUSS_SCHEME)


class TestComparison:
    def test_reference_cases(self):
        rows = comparison_table([(1, 2), (1, 4), (2, 2), (2, 4)])
        assert rows[0] == ComparisonRow(1, 2, Fraction(1, 3), Fraction(1, 2))
        assert rows[1] == ComparisonRow(1, 4, Fraction(4, 9), Fraction(1, 2))
        assert rows[2] == ComparisonRow(2, 2, Fraction(4, 7), Fraction(2, 3))
        assert rows[3] == ComparisonRow(2, 4, Fraction(16, 23), Fraction(2, 3))

    def test_info_column_independent_of_copies(self):
        rows = comparison_table([(3, n) for n in range(2, 9)])
        assert len({row.info_mean for row in rows}) == 1

    def test_info_beats_gauss_on_small_reference_cases(self):
        for sources, copies in [(1, 2), (1, 4), (2, 2)]:
            assert info_mean(sources) > gauss_mean(sources, copies)

    def test_info_beats_gauss_for_two_copies(self):
        # for N = 2 the gap M/(M+1) - M^2/(M^2+M+1) is always positive
        for sources in range(1, 11):
            assert info_mean(sources) > gauss_mean(sources, 2)

    def test_crossover_cases(self):
        # the schemes cross once enough copies amplify the measurement budget:
        # already at (2,4) the Gaussian mean 16/23 exceeds 2/3, and at (3,3)
        # 81/107 exceeds 3/4
        assert gauss_mean(2, 4) > info_mean(2)
        assert gauss_mean(3, 3) == Fraction(81, 107)
        assert gauss_mean(3, 3) > info_mean(3)

    def test_rejects_single_copy_rows(self):
        with pytest.raises(ValueError):
            comparison_table([(1, 1)])
