import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoclone.phase_space import (
    UNITARITY_TOL,
    CloneNetworkConfig,
    build_transfer,
    check_invariants,
    info_overlap_fidelity,
    information_clone,
    mean_occupation,
    symmetric_clone_config,
    unitarity_deviation,
)

TOL = 1e-12


def random_config(rng, n_targets, complex_phases=True):
    magnitudes = rng.uniform(0.05, 2.0, n_targets)
    phases = rng.uniform(-np.pi, np.pi, n_targets) if complex_phases else np.zeros(n_targets)
    return CloneNetworkConfig(magnitudes, phases, rng.uniform(0.0, 2.0 * np.pi))


def random_params(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


class TestTypes:
    def test_config_rejects_all_zero_couplings(self):
        with pytest.raises(ValueError, match="zero"):
            CloneNetworkConfig([0.0, 0.0], [0.0, 0.0], 1.0)

    def test_config_rejects_norm_below_smallest_normal(self):
        # a subnormal norm: r_j / r would lose digits
        with pytest.raises(ValueError, match="zero"):
            CloneNetworkConfig([1e-320], [0.0], 1.0)

    def test_config_accepts_norm_at_smallest_normal(self):
        config = CloneNetworkConfig([sys.float_info.min, 0.0], [0.0, 0.0],
                                    1.0 / sys.float_info.min)
        assert unitarity_deviation(build_transfer(config)) < TOL

    @pytest.mark.parametrize("magnitudes", [[3.0, 4.0], [1e-160, 1e-160], [1e154, 1e154],
                                            [0.3, 1.1, 0.7, 2.9]])
    def test_total_coupling_is_hypot(self, magnitudes):
        config = CloneNetworkConfig(magnitudes, np.zeros(len(magnitudes)), 1.0)
        assert config.total_coupling == math.hypot(*magnitudes)

    def test_config_rejects_negative_magnitude(self):
        with pytest.raises(ValueError):
            CloneNetworkConfig([1.0, -0.5], [0.0, 0.0], 1.0)

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_config_rejects_non_finite_time(self, time):
        with pytest.raises(ValueError, match="time must be finite"):
            CloneNetworkConfig([1.0, 1.0], [0.0, 0.0], time)

    def test_config_total_coupling(self):
        config = CloneNetworkConfig([3.0, 4.0], [0.0, 0.0], 0.5)
        assert config.total_coupling == pytest.approx(5.0, abs=1e-15)
        assert config.rotation_angle == pytest.approx(2.5, abs=1e-15)


class TestZeroPhaseTransfer:
    """The real, phase-free form: build_transfer at zero phases."""

    def test_zero_time_gives_identity(self):
        config = CloneNetworkConfig([1.0, 0.7, 0.2], [0, 0, 0], 0.0)
        matrix = build_transfer(config)
        assert np.all(matrix.imag == 0)
        assert np.array_equal(matrix, np.eye(4))

    def test_quarter_period_swap(self):
        # single target, unit coupling, rt = pi/2: pure swap with a sign
        config = CloneNetworkConfig([1.0], [0.0], math.pi / 2)
        matrix = build_transfer(config)
        assert np.all(matrix.imag == 0)
        np.testing.assert_allclose(matrix, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_orthogonality_by_column_products(self):
        # oracle: explicit column inner products, independent of matmul identities
        rng = np.random.default_rng(11)
        config = random_config(rng, 3, complex_phases=False)
        matrix = build_transfer(config)
        assert np.all(matrix.imag == 0)
        for b in range(4):
            for c in range(4):
                product = sum(matrix[a, b] * matrix[a, c] for a in range(4))
                assert abs(product - (1.0 if b == c else 0.0)) < TOL

    def test_row_structure(self):
        rng = np.random.default_rng(5)
        config = random_config(rng, 4, complex_phases=False)
        matrix = build_transfer(config)
        assert np.all(matrix.imag == 0)
        r = config.magnitudes
        total = config.total_coupling
        angle = config.rotation_angle
        np.testing.assert_allclose(matrix[0, 0], math.cos(angle), rtol=0, atol=0)
        np.testing.assert_allclose(matrix[0, 1:], r / total * math.sin(angle), atol=1e-15)
        for j in range(4):
            for k in range(4):
                expected = (1.0 if j == k else 0.0) - r[j] * r[k] / total**2 * (
                    1.0 - math.cos(angle)
                )
                assert abs(matrix[j + 1, k + 1] - expected) < 1e-14


class TestComplexTransfer:
    def test_zero_phases_are_exactly_real(self):
        # every imaginary part is +0.0, not merely below a tolerance
        rng = np.random.default_rng(2)
        for n_targets in (1, 2, 3, 16):
            for _ in range(50):
                config = CloneNetworkConfig(rng.uniform(0.05, 2.0, n_targets),
                                            np.zeros(n_targets), rng.uniform(-20.0, 20.0))
                imag = build_transfer(config).imag
                assert np.all(imag == 0) and not np.any(np.signbit(imag))

    def test_single_target_phase_structure(self):
        # sin rt = 1, cos rt ~ 0: off-diagonals e^{-i delta} and -e^{+i delta}
        delta = 0.6
        config = CloneNetworkConfig([1.0], [delta], math.pi / 2)
        matrix = build_transfer(config)
        np.testing.assert_allclose(matrix[0, 1], np.exp(-1j * delta), atol=1e-15)
        np.testing.assert_allclose(matrix[1, 0], -np.exp(1j * delta), atol=1e-15)
        np.testing.assert_allclose(matrix[0, 0], 0.0, atol=1e-15)
        np.testing.assert_allclose(matrix[1, 1], 0.0, atol=1e-15)

    def test_unitarity_two_targets(self):
        rng = np.random.default_rng(7)
        config = CloneNetworkConfig(
            rng.uniform(0.1, 2.0, 2), [0.3, -1.1], rng.uniform(0.1, 3.0)
        )
        assert unitarity_deviation(build_transfer(config)) < TOL

    @pytest.mark.parametrize("n_targets", [1, 2, 5, 16, 64])
    def test_unitarity_random_sweep(self, n_targets):
        rng = np.random.default_rng(100 + n_targets)
        for _ in range(50):
            config = random_config(rng, n_targets)
            assert unitarity_deviation(build_transfer(config)) < TOL

    def test_periodic_in_rotation_angle(self):
        rng = np.random.default_rng(13)
        config = random_config(rng, 3)
        period = 2.0 * math.pi / config.total_coupling
        shifted = CloneNetworkConfig(config.magnitudes, config.phases, config.time + period)
        np.testing.assert_allclose(
            build_transfer(config), build_transfer(shifted), atol=TOL
        )

    def test_semigroup_in_time(self):
        rng = np.random.default_rng(17)
        magnitudes = rng.uniform(0.1, 1.5, 3)
        phases = rng.uniform(-np.pi, np.pi, 3)
        t1, t2 = 0.7, 1.9
        product = build_transfer(CloneNetworkConfig(magnitudes, phases, t1)) @ build_transfer(
            CloneNetworkConfig(magnitudes, phases, t2)
        )
        combined = build_transfer(CloneNetworkConfig(magnitudes, phases, t1 + t2))
        assert np.abs(product - combined).max() < TOL


class TestApplyTransfer:
    def test_identity_leaves_params_unchanged(self):
        params = np.array([0.3 + 1j, -0.2, 0.7j])
        out = np.eye(3) @ params
        assert np.array_equal(out, params)

    def test_swap_on_source(self):
        # sin rt = 1 swap: (alpha, 0) -> (0, -e^{i delta} alpha)
        delta = 1.2
        config = CloneNetworkConfig([1.0], [delta], math.pi / 2)
        out = build_transfer(config) @ np.asarray([0.8 - 0.1j, 0.0], dtype=complex)
        np.testing.assert_allclose(out[0], 0.0, atol=1e-15)
        np.testing.assert_allclose(out[1], -np.exp(1j * delta) * (0.8 - 0.1j), atol=1e-15)

    def test_preserves_total_weight(self):
        # oracle: direct modulus-square sums before and after
        rng = np.random.default_rng(23)
        for _ in range(20):
            config = random_config(rng, 4)
            params = random_params(rng, 5)
            out = build_transfer(config) @ params
            before = sum(abs(z) ** 2 for z in params)
            after = sum(abs(z) ** 2 for z in out)
            assert abs(after - before) < TOL


class TestInvariants:
    def test_identity_transfer_deviation_zero(self):
        params = np.asarray([0.4 + 0.2j, -1.0, 0.3j], dtype=complex)
        assert check_invariants(params, params) == 0.0

    def test_real_network_invariants(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            config = random_config(rng, 3, complex_phases=False)
            matrix = build_transfer(config)
            first = random_params(rng, 4)
            second = random_params(rng, 4)
            deviation = check_invariants(
                first,
                matrix @ first,
                second_pair=(second, matrix @ second),
            )
            assert deviation < TOL

    def test_phase_weighted_invariants(self):
        # e^{-2i delta_k} weights for a complex-coupling network
        rng = np.random.default_rng(37)
        config = CloneNetworkConfig([1.1, 0.6], [0.7, 2.0], 1.4)
        matrix = build_transfer(config)
        first = random_params(rng, 3)
        second = random_params(rng, 3)
        deviation = check_invariants(
            first,
            matrix @ first,
            second_pair=(second, matrix @ second),
            phases=config.phases,
        )
        assert deviation < TOL

    def test_unweighted_square_sum_breaks_without_phases(self):
        # the plain-square form needs the phase weights for complex couplings
        rng = np.random.default_rng(41)
        config = CloneNetworkConfig([1.0, 0.8], [0.9, -0.4], 1.1)
        matrix = build_transfer(config)
        params = random_params(rng, 3)
        out = matrix @ params
        assert check_invariants(params, out, phases=config.phases) < TOL
        assert check_invariants(params, out) > 1e-3

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            check_invariants(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    @settings(max_examples=200, deadline=None)
    @given(
        # each r_j exactly 0, or 1 to 10 times 10**e with |e| <= 150, so a
        # nonzero square sum of at most 8 terms is a normal double
        magnitudes=st.lists(
            st.one_of(st.just(0.0), st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent,
                                              st.floats(1.0, 10.0), st.integers(-150, 150))),
            min_size=1, max_size=8,
        ).filter(any),
        angle=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_zero_and_widely_scaled_couplings_at_large_angles(self, magnitudes, angle, seed):
        # the seeded sweeps above draw r_j from [0.05, 2] and angles below 2*pi
        rng = np.random.default_rng(seed)
        n = len(magnitudes)
        total = math.sqrt(math.fsum(r * r for r in magnitudes))
        config = CloneNetworkConfig(magnitudes, rng.uniform(-np.pi, np.pi, n), angle / total)
        matrix = build_transfer(config)
        assert unitarity_deviation(matrix) <= UNITARITY_TOL
        first, second = random_params(rng, n + 1), random_params(rng, n + 1)
        deviation = check_invariants(
            first,
            matrix @ first,
            second_pair=(second, matrix @ second),
            phases=config.phases,
        )
        assert deviation <= TOL


class TestSymmetricClone:
    def test_equal_couplings_and_time(self):
        config = symmetric_clone_config(4)
        assert np.array_equal(config.magnitudes, np.ones(4))
        assert np.array_equal(config.phases, np.zeros(4))
        assert config.time == 3.0 * math.pi / 4.0
        assert math.sin(config.rotation_angle) == -1.0

    def test_rejects_zero_copies(self):
        with pytest.raises(ValueError):
            symmetric_clone_config(0)

    def test_single_copy_is_swap(self):
        config = symmetric_clone_config(1)
        out = build_transfer(config) @ np.asarray([0.5 + 0.5j, 0.0], dtype=complex)
        np.testing.assert_allclose(out, [0.0, 0.5 + 0.5j], atol=1e-15)

    def test_nine_copies_give_alpha_over_three(self):
        # oracle: apply the built matrix to (alpha, 0, ..., 0)
        alpha = 1.5 - 0.75j
        config = symmetric_clone_config(9)
        entries = np.zeros(10, dtype=complex)
        entries[0] = alpha
        out = build_transfer(config) @ entries
        np.testing.assert_allclose(out[1:], np.full(9, alpha / 3.0), atol=1e-15)
        np.testing.assert_allclose(out[0], 0.0, atol=1e-15)


class TestInformationClone:
    def test_vacuum_clones_to_vacuum(self):
        out = information_clone(0.0, 5)
        assert np.array_equal(out, np.zeros(6, dtype=complex))

    def test_exact_values(self):
        out = information_clone(2 + 1j, 4)
        assert out[0] == 0.0
        assert np.all(out[1:] == (2 + 1j) / math.sqrt(4))

    def test_single_copy_returns_swap(self):
        out = information_clone(0.3 - 0.9j, 1)
        assert np.array_equal(out, np.array([0.0, 0.3 - 0.9j]))

    @pytest.mark.parametrize("n_copies", [1, 2, 3, 7, 16])
    def test_total_weight_conserved(self, n_copies):
        # oracle: modulus-square sum equals |alpha|^2
        alpha = 1.1 + 0.4j
        out = information_clone(alpha, n_copies)
        total = sum(abs(z) ** 2 for z in out)
        assert abs(total - abs(alpha) ** 2) < TOL

    @pytest.mark.parametrize("n_copies", [1, 2, 3, 5, 8, 13])
    def test_matches_matrix_composition(self, n_copies):
        alpha = -0.7 + 1.3j
        entries = np.zeros(n_copies + 1, dtype=complex)
        entries[0] = alpha
        config = symmetric_clone_config(n_copies)
        via_matrix = build_transfer(config) @ entries
        np.testing.assert_allclose(information_clone(alpha, n_copies), via_matrix, atol=1e-14)

    def test_rejects_zero_copies(self):
        with pytest.raises(ValueError):
            information_clone(1.0, 0)


class TestOverlapFidelity:
    def test_single_copy_is_one(self):
        assert info_overlap_fidelity(1.7 - 0.2j, 1) == 1.0

    def test_vacuum_is_one(self):
        for n in (1, 2, 10):
            assert info_overlap_fidelity(0.0, n) == 1.0

    def test_unit_alpha_four_copies(self):
        assert info_overlap_fidelity(1.0, 4) == pytest.approx(math.exp(-0.25), abs=1e-15)

    def test_decreases_with_alpha(self):
        assert info_overlap_fidelity(2.0, 4) < info_overlap_fidelity(1.0, 4)

    @pytest.mark.parametrize("alpha", [1e200, complex(1e308, 1e308), math.inf, math.nan])
    def test_non_finite_mean_occupation_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha=.*not finite"):
            info_overlap_fidelity(alpha, 2)

    def test_mean_occupation_squares_hypot(self):
        rng = np.random.default_rng(31)
        for z in [3 + 4j, 1e-170 - 2e-170j, 1e150 + 1e150j, *rng.normal(size=(200, 2)) @ [1, 1j]]:
            m = math.hypot(z.real, z.imag)
            assert mean_occupation(z) == m * m
