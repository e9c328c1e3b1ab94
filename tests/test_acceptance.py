"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Statistical gates use fixed seeds; tolerances are pinned in-line.
Monte Carlo KS asserts hold at the 1e-6 level (see ``ks_helpers``), so that
a change of the random stream does not trip them by a 5% false alarm.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from infoclone.fock_oracle import (
    coherent_state_vector,
    verify_disentanglement,
)
from infoclone.gaussian_cloner import (
    amplification_fraction,
    gauss_exponent_fraction,
    overlap_fidelity_gaussian,
)
from infoclone.measurement import (
    GAUSS_SCHEME,
    INFO_SCHEME,
    FidelityRun,
    fidelity_cdf,
    fidelity_exponent,
    mean_fidelity,
)
from infoclone.phase_space import (
    CloneNetworkConfig,
    build_transfer,
    check_invariants,
    info_overlap_fidelity,
    information_clone,
    unitarity_deviation,
)
from ks_helpers import ks_critical_1e6, ks_critical_two_sample_1e6, ks_one_sample, ks_two_sample
from mc_helpers import draw

# four times the 100k trials of a 5% gate: the 1e-6 threshold 2.6934/sqrt(4n)
# is still tighter than 1.3581/sqrt(n)
MC_TRIALS = 400_000
MC_MEAN_TOL = 0.005


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def _random_sweep(rng, count=1000, max_targets=16):
    for _ in range(count):
        n_targets = int(rng.integers(1, max_targets + 1))
        yield CloneNetworkConfig(
            rng.uniform(0.05, 2.0, n_targets),
            rng.uniform(-np.pi, np.pi, n_targets),
            rng.uniform(0.0, 2.0 * np.pi),
        )


def test_criterion_1_transfer_unitarity():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for config in _random_sweep(rng):
        worst = max(worst, unitarity_deviation(build_transfer(config)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 5.0
    _report(1, f"1000 random configs, max |U^t U - I| = {worst:.2e} in {elapsed:.2f}s")


def test_criterion_2_quadratic_invariants():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for config in _random_sweep(rng):
        matrix = build_transfer(config)
        size = config.n_targets + 1
        first = rng.normal(size=size) + 1j * rng.normal(size=size)
        second = rng.normal(size=size) + 1j * rng.normal(size=size)
        deviation = check_invariants(
            first,
            matrix @ first,
            second_pair=(second, matrix @ second),
            phases=config.phases,
        )
        worst = max(worst, deviation)
    assert worst < 1e-12
    _report(2, f"modulus/square/bilinear forms preserved, max deviation {worst:.2e}")


def test_criterion_3_information_cloning_exact():
    grid = [complex(re, im) for re in (-2.0, -1.0, 0.0, 1.0, 2.0)
            for im in (-2.0, -1.0, 0.0, 1.0, 2.0) if abs(complex(re, im)) <= 2.0]
    checked = 0
    for alpha in grid:
        for n_copies in range(1, 17):
            out = information_clone(alpha, n_copies)
            assert out[0] == 0.0
            target = alpha / math.sqrt(n_copies)
            assert np.all(out[1:] == target)
            checked += 1
    _report(3, f"{checked} (alpha, N) cases give source 0 and targets alpha/sqrt(N) exactly")


def test_criterion_4_fock_disentanglement_oracle():
    rng = np.random.default_rng(2026)
    cases = []
    for n_targets in (1, 2):
        for _ in range(3):
            config = CloneNetworkConfig(
                rng.uniform(0.2, 1.5, n_targets),
                rng.uniform(-np.pi, np.pi, n_targets),
                rng.uniform(0.2, 2.0),
            )
            entries = rng.uniform(0.2, 1.0, n_targets + 1) * np.exp(
                1j * rng.uniform(-np.pi, np.pi, n_targets + 1)
            )
            cases.append((entries, config))
    worst_infidelity, worst_time = 0.0, 0.0
    for params, config in cases:
        start = time.perf_counter()
        _, _, infidelity = verify_disentanglement(params, config, 16)
        elapsed = time.perf_counter() - start
        assert infidelity < 1e-6
        assert elapsed < 60.0
        worst_infidelity = max(worst_infidelity, infidelity)
        worst_time = max(worst_time, elapsed)
    _report(4, f"{len(cases)} cases at d=16 (simplex dim <= C(18, 3) = 816): max infidelity "
               f"{worst_infidelity:.2e}, max time {worst_time:.2f}s")


def test_criterion_5_overlap_fidelity_vs_fock():
    worst = 0.0
    alphas = [complex(re, im) for re in (-1.0, -0.5, 0.0, 0.5, 1.0)
              for im in (-0.5, 0.0, 0.5) if abs(complex(re, im)) <= 1.0]
    for alpha in alphas:
        for n_copies in (1, 2, 3, 4, 9, 16):
            closed_form = info_overlap_fidelity(alpha, n_copies)
            original = coherent_state_vector(alpha, 25)
            copy = coherent_state_vector(alpha / math.sqrt(n_copies), 25)
            fock_value = abs(np.vdot(original, copy)) ** 2
            worst = max(worst, abs(closed_form - fock_value))
    assert worst < 1e-8
    _report(5, f"closed form vs truncated-basis overlap, max |diff| = {worst:.2e}")


def test_criterion_6_uniform_fidelity_law():
    # information clones are heterodyned, so odd copy counts run too
    runs = {}
    for copies, seed in ((1, 3), (2, 7), (3, 11), (8, 17)):
        run = FidelityRun(1.0 + 0.5j, sources=1, copies=copies, trials=MC_TRIALS, seed=seed)
        values = draw(run)[1]
        mean = values.mean()
        statistic = ks_one_sample(values, fidelity_cdf(fidelity_exponent(INFO_SCHEME, 1, copies)))
        assert abs(mean - 0.5) < MC_MEAN_TOL
        assert statistic < ks_critical_1e6(MC_TRIALS)
        runs[copies] = values
    distance = ks_two_sample(runs[2], runs[8])
    critical = ks_critical_two_sample_1e6(MC_TRIALS, MC_TRIALS)
    assert distance < critical
    _report(6, f"M=1, N=1,2,3,8 means within {MC_MEAN_TOL} of 1/2, one-sample KS passed, "
               f"N=2 vs N=8 two-sample KS {distance:.4f} < {critical:.4f}")


@pytest.mark.parametrize("sources,copies,seed", [(2, 2, 23), (3, 1, 19), (3, 2, 29), (5, 4, 31)])
def test_criterion_7_source_count_law(sources, copies, seed):
    run = FidelityRun(0.7 - 0.4j, sources=sources, copies=copies, trials=MC_TRIALS, seed=seed)
    values = draw(run)[1]
    target = sources / (sources + 1.0)
    mean = values.mean()
    statistic = ks_one_sample(values, fidelity_cdf(fidelity_exponent(INFO_SCHEME, sources, copies)))
    assert abs(mean - target) < MC_MEAN_TOL
    assert statistic < ks_critical_1e6(MC_TRIALS)
    _report(7, f"(M,N)=({sources},{copies}): mean {mean:.4f} ~ {target:.4f}, "
               f"KS {statistic:.4f} < {ks_critical_1e6(MC_TRIALS):.4f}")


def test_criterion_8_gaussian_cloner_means():
    expected = {
        (1, 2): Fraction(1, 3),
        (1, 4): Fraction(4, 9),
        (2, 2): Fraction(4, 7),
        (2, 4): Fraction(16, 23),
    }
    seeds = {(1, 2): 38, (1, 4): 38, (2, 2): 38, (2, 4): 37}
    for (sources, copies), target in expected.items():
        exponent = fidelity_exponent(GAUSS_SCHEME, sources, copies)
        assert mean_fidelity(exponent) == target
        run = FidelityRun(1.0, sources=sources, copies=copies, trials=MC_TRIALS,
                          seed=seeds[(sources, copies)], scheme=GAUSS_SCHEME)
        values = draw(run)[1]
        assert abs(values.mean() - float(target)) < MC_MEAN_TOL
        assert ks_one_sample(values, fidelity_cdf(exponent)) < ks_critical_1e6(MC_TRIALS)
    _report(8, "Monte Carlo means match 1/3, 4/9, 4/7, 16/23 within 0.005; "
               "closed forms reproduce them exactly as rationals")


def test_criterion_9_rational_consistency_audit():
    for sources in range(1, 21):
        for copies in range(2, 21):
            amplification = amplification_fraction(sources, copies)
            exponent = sources * copies * amplification / (2 * (amplification + 2))
            assert exponent == gauss_exponent_fraction(sources, copies)
            mn2 = sources * sources * copies * copies
            printed_mean = Fraction(mn2, mn2 + 2 * sources * copies + 4 * copies - 4)
            assert exponent / (exponent + 1) == printed_mean
            overlap_value = overlap_fidelity_gaussian(sources, sources * copies)
            assert abs(overlap_value - float(amplification / (amplification + 1))) < 1e-15
    _report(9, "c/(c+1) identity and overlap = A/(A+1) hold exactly for M<=20, 2<=N<=20")


def test_criterion_10_scope_note():
    # overlap-fidelity optimality enters only as closed-form reference values;
    # acceptance for those is formula-level (criteria 8 and 9), so this suite
    # asserts the reference values, not any optimality derivation
    assert overlap_fidelity_gaussian(1, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    _report(10, "overlap-fidelity claims covered at formula level only (by design)")
