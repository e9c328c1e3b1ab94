import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import jv
from scipy.stats import poisson

from infoclone.fock_oracle import (
    OCCUPATION_LIMIT,
    TRUNCATION_TAIL_LIMIT,
    _apply_generator,
    _bessel_coefficients,
    _coupling_generator,
    _propagate,
    check_truncation,
    coherent_state_vector,
    disentanglement_infidelity,
    evolve_product_state,
    mode_occupations,
    poisson_tail,
    product_coherent_state,
    required_levels,
    verify_disentanglement,
)
from infoclone.phase_space import (
    CloneNetworkConfig,
    build_transfer,
    symmetric_clone_config,
)


def exact_poisson_tail(mean, levels):
    """Series oracle: 1 - sum_{n<levels} e^-mean mean^n / n!."""
    head = sum(math.exp(-mean) * mean**n / math.factorial(n) for n in range(levels))
    return 1.0 - head


def ladder_matrices(levels):
    """Reference lowering and raising matrices on a single truncated mode.

    lower|n> = sqrt(n)|n-1>, raise|n> = sqrt(n+1)|n+1> with the top
    transition dropped.  Their commutator is the identity except the last
    diagonal entry, which is 1 - levels (truncation artifact).
    """
    if levels < 2:
        raise ValueError("need at least two levels")
    lower = np.diag(np.sqrt(np.arange(1.0, levels)), k=1)
    return lower, np.ascontiguousarray(lower.T)


def dense_generator(config, levels):
    """G as a dense matrix read off the gather slots: G[i, index[s, i]] += weight[s, i]."""
    index, weight = _coupling_generator(config, levels)
    dim = index.shape[1]
    assert dim == math.comb(levels + config.n_targets, config.n_targets + 1)
    generator = np.zeros((dim, dim), dtype=complex)
    np.add.at(generator, (np.broadcast_to(np.arange(dim), index.shape), index), weight)
    return generator


def reference_terms(config, levels):
    """G as one ``(rows, cols, values)`` triple per coupling: the term
    kappa_j a_0^dag a_j is G[rows, cols] = values, its adjoint
    G[cols, rows] = -conj(values).  Each moved tuple's row is looked up in a
    dict of the enumeration, independent of the library's row pairing."""
    occupations = mode_occupations(config.n_targets + 1, levels)
    rank = {tuple(row): i for i, row in enumerate(occupations.tolist())}
    kappa = config.time * config.magnitudes * np.exp(-1j * config.phases)
    terms = []
    for j, coupling in enumerate(kappa, start=1):
        (source,) = np.nonzero(occupations[:, j])
        moved = occupations[source].copy()
        moved[:, 0] += 1
        moved[:, j] -= 1
        values = coupling * np.sqrt(moved[:, 0] * occupations[source, j])
        rows = np.array([rank[tuple(row)] for row in moved.tolist()], dtype=np.int64)
        terms.append((rows, source, values))
    return terms


def reference_apply(terms, vector):
    """G @ vector by a per-term scatter; no term repeats an index, so fancy
    indexing is exact."""
    out = np.zeros_like(vector)
    for rows, cols, values in terms:
        out[rows] += values * vector[cols]
        out[cols] -= values.conj() * vector[rows]
    return out


def reference_propagate(terms, radius, vector):
    """The Chebyshev-Bessel recurrence of ``_propagate`` over the scatter product."""
    coefficients = _bessel_coefficients(radius)
    doubled = [(rows, cols, (2.0 / radius) * values) for rows, cols, values in terms]
    previous, current = vector, 0.5 * reference_apply(doubled, vector)
    result = coefficients[0] * previous + (2.0 * coefficients[1]) * current
    for coefficient in 2.0 * coefficients[2:]:
        previous, current = current, reference_apply(doubled, current) + previous
        result += coefficient * current
    return result


class TestLadders:
    """The reference ladder matrices that the coherent-vector tests use."""

    def test_two_levels(self):
        lower, lift = ladder_matrices(2)
        assert np.array_equal(lower, [[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(lift, [[0.0, 0.0], [1.0, 0.0]])

    def test_commutator_five_levels(self):
        # oracle: explicit matrix product; diagonal (1, 1, 1, 1, -4)
        lower, lift = ladder_matrices(5)
        commutator = lower @ lift - lift @ lower
        np.testing.assert_allclose(commutator, np.diag([1.0, 1.0, 1.0, 1.0, -4.0]), atol=5e-15)
        assert commutator[4, 4] == -4.0  # corner entry is the pure truncation artifact

    def test_annihilates_vacuum(self):
        lower, _ = ladder_matrices(6)
        vacuum = np.zeros(6)
        vacuum[0] = 1.0
        assert np.array_equal(lower @ vacuum, np.zeros(6))

    def test_raising_action(self):
        _, lift = ladder_matrices(5)
        state = np.zeros(5)
        state[2] = 1.0
        out = lift @ state
        assert out[3] == math.sqrt(3.0)

    def test_rejects_single_level(self):
        with pytest.raises(ValueError):
            ladder_matrices(1)


class TestCoherentVector:
    def test_vacuum(self):
        vec = coherent_state_vector(0.0, 8)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        assert np.array_equal(vec, expected)

    def test_norm_matches_poisson_tail(self):
        # oracle: explicit factorial series for the discarded weight
        vec = coherent_state_vector(1.0, 25)
        tail = exact_poisson_tail(1.0, 25)
        assert abs(np.linalg.norm(vec) ** 2 - (1.0 - tail)) < 1e-14
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_poisson_tail_helper_matches_series(self):
        for mean, levels in [(1.0, 10), (2.5, 14), (0.3, 5)]:
            assert poisson_tail(mean, levels) == pytest.approx(
                exact_poisson_tail(mean, levels), rel=1e-10
            )

    def test_lowering_expectation_returns_alpha(self):
        # oracle: expectation via the ladder matrices
        alpha = 0.8 + 0.4j
        vec = coherent_state_vector(alpha, 30)
        lower, _ = ladder_matrices(30)
        expectation = np.vdot(vec, lower @ vec)
        assert abs(expectation - alpha) < 1e-12

    @pytest.mark.parametrize("alpha", [1e200, complex(1e308, 1e308), math.inf, math.nan])
    def test_non_finite_mean_occupation_rejected(self, alpha):
        with pytest.raises(ValueError, match="not finite"):
            coherent_state_vector(alpha, 8)

    def test_truncation_error_carries_required_levels(self):
        # a single coherent mode |alpha=2> does not fit in 6 levels at gate
        # 1e-10; the named count is the least whose tail is within gate / 2
        needed = required_levels(4.0, 1e-10 / 2)
        with pytest.raises(ValueError, match=f"need at least {needed} levels"):
            check_truncation([2.0], 6, 1e-10)
        assert poisson_tail(4.0, needed) <= 1e-10 / 2
        assert poisson_tail(4.0, needed - 1) > 1e-10 / 2

    def test_required_levels_monotone(self):
        assert required_levels(1.0, 1e-10) < required_levels(4.0, 1e-10)

    def test_required_levels_is_the_linear_search(self):
        def linear(mean, bound):
            levels = 2
            while poisson_tail(mean, levels) > bound:
                levels += 1
            return levels

        for mean in (0.0, 1e-6, 0.01, 0.3, 1.0, 2.5, 4.0, 9.0, 17.3, 40.0, 81.0, 150.0, 400.0):
            for bound in (0.5, 1e-2, 1e-4, 5e-7, 1e-8, 1e-10, 1e-13, 1e-16, 1e-300):
                assert required_levels(mean, bound) == linear(mean, bound), (mean, bound)

    def test_required_levels_for_a_large_excitation_is_fast(self):
        # |alpha| = 141: a total mean occupation of 19,881; the one-level
        # search took about a second to name the count
        start = time.perf_counter()
        with pytest.raises(ValueError, match="need at least 20576 levels for gate 1e-06"):
            check_truncation([141.0, 0.0], 8, 1e-6)
        assert time.perf_counter() - start < 0.05
        assert poisson_tail(141.0**2, 20576) <= 1e-6 / 2 < poisson_tail(141.0**2, 20575)

    def test_poisson_tail_matches_scipy_survival_function(self):
        # the lgamma start term carries a few ulp of its log, about 1.4e-13
        # relative at the largest terms of this grid
        rng = np.random.default_rng(5)
        means = np.concatenate([[1e-6, 0.5, 1.0, 9.0, 81.0, 149.9], rng.uniform(0.0, 150.0, 60)])
        for mean in means:
            for levels in (1, 2, 3, 8, 16, 40, 81, 120, 160, 200):
                assert poisson_tail(mean, levels) == pytest.approx(
                    poisson.sf(levels - 1, mean), rel=1e-12, abs=0.0
                )

    def test_poisson_tail_edges(self):
        assert poisson_tail(0.0, 0) == 0.0
        assert poisson_tail(2.0, 0) == 1.0


class TestDisplacement:
    @pytest.mark.parametrize("alpha", [1.0, -0.5 + 0.5j, 2.0, 1.2 - 1.6j])
    def test_displaced_vacuum_matches_series(self, alpha):
        # the coherent vector is the displaced vacuum exp(alpha a^dag - h.c.)|0>,
        # up to the truncated ladder's edge at the top level
        levels = 40
        lower, lift = ladder_matrices(levels)
        displacement = expm(alpha * lift - np.conj(alpha) * lower)
        series = coherent_state_vector(alpha, levels)
        np.testing.assert_allclose(displacement[:, 0], series, atol=1e-9)


class TestCouplingUnitary:
    """The exponentiated coupling, applied to states by evolve_product_state."""

    def test_zero_time_is_identity(self):
        config = CloneNetworkConfig([1.0], [0.0], 0.0)
        params = np.asarray([0.5, -0.2j], dtype=complex)
        evolved = evolve_product_state(params, config, 6)
        assert np.array_equal(evolved, product_coherent_state(params, 6))

    def test_generator_is_antihermitian(self):
        config = CloneNetworkConfig([0.8, 0.5], [0.4, -1.0], 1.2)
        generator = dense_generator(config, 6)
        assert np.abs(generator + generator.conj().T).max() == 0.0

    def test_generator_matches_ladder_action(self):
        # oracle: a_0^dag a_1 applied to each basis tuple by hand
        config = CloneNetworkConfig([1.0], [0.0], 1.0)
        generator = dense_generator(config, 4)
        occupations = [tuple(row) for row in mode_occupations(2, 4)]
        expected = np.zeros_like(generator)
        for col, (n0, n1) in enumerate(occupations):
            if n1 > 0:
                row = occupations.index((n0 + 1, n1 - 1))
                expected[row, col] = math.sqrt((n0 + 1) * n1)
                expected[col, row] = -math.sqrt((n0 + 1) * n1)
        assert np.array_equal(generator, expected)

    def test_swap_sends_source_to_negative_target(self):
        # unit coupling at rt = pi/2 maps |alpha>|0> to |0>|-alpha>
        alpha = 0.8
        config = CloneNetworkConfig([1.0], [0.0], math.pi / 2)
        evolved = evolve_product_state(np.asarray([alpha, 0.0], dtype=complex), config, 20)
        expected = product_coherent_state(np.asarray([0.0, -alpha], dtype=complex), 20)
        assert abs(np.vdot(expected, evolved)) ** 2 >= 1.0 - 1e-6

    def test_vacuum_is_fixed(self):
        config = CloneNetworkConfig([1.0, 1.0], [0.0, 0.0], 1.3)
        evolved = evolve_product_state(np.asarray([0.0, 0.0, 0.0], dtype=complex), config, 6)
        vacuum = np.zeros(56, dtype=complex)  # C(8, 3) simplex states
        vacuum[0] = 1.0
        np.testing.assert_allclose(evolved, vacuum, atol=1e-12)

    def test_rejects_super_unit_norm(self, monkeypatch):
        # truncation can only lose weight, so an evolved norm above 1 is a fault
        monkeypatch.setattr("infoclone.fock_oracle._propagate",
                            lambda slots, radius, vector: 1.1 * vector)
        config = CloneNetworkConfig([1.0], [0.0], 1.0)
        with pytest.raises(ValueError, match=r"norm 1\.1\d* exceeds 1"):
            evolve_product_state(np.asarray([0.0, 0.0], dtype=complex), config, 4)

    def test_generator_conserves_total_excitation(self):
        # every entry joins two basis states of the same total number, so
        # each sector of the simplex maps into itself
        config = CloneNetworkConfig([0.8, 0.5, 1.3], [0.4, -1.0, 2.2], 0.7)
        rows, cols = np.nonzero(dense_generator(config, 7))
        total = mode_occupations(4, 7).sum(axis=1)
        assert rows.size > 0
        assert np.array_equal(total[rows], total[cols])


class TestChebyshevPropagator:
    def test_bessel_coefficients_match_scipy(self):
        # scipy's jv is itself off by up to 1.5e-14 near radius 486 against a
        # 40-digit reference, where the backward recurrence stays within 4e-16
        rng = np.random.default_rng(17)
        for radius in np.concatenate([np.geomspace(1.0, 500.0, 50), rng.uniform(1.0, 500.0, 50)]):
            coefficients = _bessel_coefficients(radius)
            assert coefficients.size > radius
            np.testing.assert_allclose(
                coefficients, jv(np.arange(coefficients.size), radius), rtol=0, atol=2e-14
            )

    @pytest.mark.parametrize("targets,levels,time", [
        (1, 30, 0.01), (1, 30, 7.0), (2, 12, 2.5), (2, 12, 25.0), (3, 7, -4.0), (4, 5, 1.1),
    ])
    def test_matches_dense_expm(self, targets, levels, time):
        rng = np.random.default_rng(100 * targets + levels)
        config = CloneNetworkConfig(
            rng.uniform(0.5, 1.5, targets), rng.uniform(-np.pi, np.pi, targets), time
        )
        generator = dense_generator(config, levels)
        dim = generator.shape[0]
        assert dim <= 500
        # the norm the series relies on: (levels - 1) times the rotation angle
        rho = (levels - 1) * abs(config.rotation_angle)
        assert np.linalg.norm(generator, 2) == pytest.approx(rho, rel=1e-12)
        unitary = expm(generator)
        vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vector /= np.linalg.norm(vector)
        propagated = _propagate(_coupling_generator(config, levels), max(rho, 1.0), vector)
        np.testing.assert_allclose(propagated, unitary @ vector, rtol=0, atol=1e-13)
        params = 0.5 * np.exp(1j * rng.uniform(-np.pi, np.pi, targets + 1))
        evolved = evolve_product_state(params, config, levels)
        initial = product_coherent_state(params, levels)
        np.testing.assert_allclose(evolved, unitary @ initial, rtol=0, atol=1e-13)

    def test_gather_product_is_the_scatter_product(self):
        config = CloneNetworkConfig([0.8, 0.5, 1.3], [0.4, -1.0, 2.2], 0.7)
        dim = math.comb(7 + 3, 4)
        rng = np.random.default_rng(8)
        vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        gathered = _apply_generator(_coupling_generator(config, 7), vector)
        scattered = reference_apply(reference_terms(config, 7), vector)
        # the vacuum row, which no slot reaches, sums zeros and may differ in
        # the sign of a zero (the scatter starts from +0); every other row
        # adds the same products in the same order
        assert np.array_equal(gathered, scattered)
        assert gathered[1:].tobytes() == scattered[1:].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        targets=st.integers(1, 4),
        levels=st.integers(2, 7),
        seed=st.integers(0, 2**32 - 1),
        product=st.booleans(),
    )
    def test_matches_the_scatter_reference_bit_for_bit(self, targets, levels, seed, product):
        # the gather slots add each row's products in the scatter's order, so
        # every amplitude rounds alike, signed zeros included (the vacuum
        # row's zero product meets a nonzero amplitude); product inputs with
        # vacuum targets start with exact zeros
        rng = np.random.default_rng(seed)
        config = CloneNetworkConfig(
            rng.uniform(0.2, 1.5, targets), rng.uniform(-np.pi, np.pi, targets),
            rng.uniform(-3.0, 3.0),
        )
        dim = math.comb(levels + targets, targets + 1)
        if product:
            entries = np.zeros(targets + 1, dtype=complex)
            entries[0] = complex(*rng.normal(size=2))
            vector = product_coherent_state(entries, levels)
        else:
            vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        radius = max((levels - 1) * abs(config.rotation_angle), 1.0)
        propagated = _propagate(_coupling_generator(config, levels), radius, vector)
        expected = reference_propagate(reference_terms(config, levels), radius, vector)
        assert propagated.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("turns", [0, 1, -1])
    def test_angle_is_reduced_modulo_two_pi(self, turns):
        # the spectrum is i * theta times integers, so exp(G) is 2*pi-periodic
        # in theta; the series runs at the reduced angle for |theta| > pi
        rng = np.random.default_rng(43)
        magnitudes, phases = rng.uniform(0.5, 1.5, 2), rng.uniform(-np.pi, np.pi, 2)
        coupling = math.hypot(*magnitudes)
        base = CloneNetworkConfig(magnitudes, phases, 2.0 / coupling)
        config = CloneNetworkConfig(magnitudes, phases, (2.0 + 2.0 * math.pi * turns) / coupling)
        levels = 10
        unitary = expm(dense_generator(config, levels))
        np.testing.assert_allclose(unitary, expm(dense_generator(base, levels)),
                                   rtol=0, atol=1e-13)
        vector = rng.normal(size=unitary.shape[0]) + 1j * rng.normal(size=unitary.shape[0])
        vector /= np.linalg.norm(vector)
        rho = (levels - 1) * abs(config.rotation_angle)
        propagated = _propagate(_coupling_generator(config, levels), rho, vector)
        np.testing.assert_allclose(propagated, unitary @ vector, rtol=0, atol=1e-13)
        params = np.asarray([0.6 - 0.1j, 0.2j, -0.3], dtype=complex)
        evolved = evolve_product_state(params, config, levels)
        initial = product_coherent_state(params, levels)
        np.testing.assert_allclose(evolved, unitary @ initial, rtol=0, atol=1e-13)

    def test_angle_within_pi_is_not_reduced(self):
        config = CloneNetworkConfig([1.0, 0.5], [0.2, -0.4], -3.0 / math.hypot(1.0, 0.5))
        assert abs(config.rotation_angle) <= math.pi
        params, levels = np.asarray([0.5, 0.1, -0.2j], dtype=complex), 12
        rho = (levels - 1) * abs(config.time) * math.hypot(1.0, 0.5)
        expected = _propagate(_coupling_generator(config, levels), rho,
                              product_coherent_state(params, levels))
        evolved = evolve_product_state(params, config, levels)
        assert np.array_equal(evolved, expected)

    @pytest.mark.parametrize("angle", [1e2, 1e8, 1e12, 1e16, 1e100, 1e300])
    def test_huge_angle_matches_the_transfer_matrix(self, angle):
        # the series turns by atan2 of the sine and cosine build_transfer
        # takes of the same rotation_angle, so the prediction and the
        # evolution agree at any angle.  Reducing time * hypot(r) instead
        # fails from about 1e12: that norm can differ from rotation_angle's
        # in its last bit, and one ulp of a 1e16 angle is 2 radians
        rng = np.random.default_rng(5)
        for _ in range(40):
            targets = int(rng.integers(1, 4))
            magnitudes = rng.uniform(0.2, 1.5, targets)
            time = rng.choice([-1.0, 1.0]) * angle / math.sqrt(np.sum(magnitudes**2))
            config = CloneNetworkConfig(magnitudes, rng.uniform(-np.pi, np.pi, targets), time)
            params = (rng.uniform(0.0, 0.3, targets + 1)
                      * np.exp(1j * rng.uniform(-np.pi, np.pi, targets + 1)))
            _, _, infidelity = verify_disentanglement(params, config, 12)
            assert infidelity < 1e-12


class TestProductState:
    def test_all_vacuum(self):
        state = product_coherent_state(np.asarray([0.0, 0.0, 0.0], dtype=complex), 5)
        expected = np.zeros(35, dtype=complex)  # C(7, 3) simplex states
        expected[0] = 1.0
        assert np.array_equal(state, expected)

    def test_norm_is_product_of_mode_norms(self):
        # oracle: the product of Poisson laws is the Poisson law of the total,
        # so the simplex keeps 1 - T of the weight, T the total's tail
        params = np.asarray([1.0, 0.5j, -0.8], dtype=complex)
        state = product_coherent_state(params, 12)
        total = sum(abs(entry) ** 2 for entry in params)
        assert abs(np.linalg.norm(state) ** 2 - (1.0 - exact_poisson_tail(total, 12))) < 1e-13

    def test_source_mode_is_slowest(self):
        state = product_coherent_state(np.asarray([0.6, 0.2j], dtype=complex), 7)
        mode0 = coherent_state_vector(0.6, 7)
        mode1 = coherent_state_vector(0.2j, 7)
        n0, n1 = mode_occupations(2, 7).T
        # the 7 x 7 grid, row-major, restricted to n0 + n1 <= 6
        keep = np.add.outer(np.arange(7), np.arange(7)) <= 6
        assert np.array_equal(np.flatnonzero(keep), 7 * n0 + n1)
        np.testing.assert_allclose(state, np.outer(mode0, mode1)[keep], atol=0)

    def test_two_mode_number_expectation(self):
        # oracle: ladder-operator expectation of the total occupation
        alpha, beta = 0.7, 0.4j
        state = product_coherent_state(np.asarray([alpha, beta], dtype=complex), 18)
        number = mode_occupations(2, 18).sum(axis=1)
        expectation = np.sum(number * np.abs(state) ** 2)
        assert abs(expectation - (abs(alpha) ** 2 + abs(beta) ** 2)) < 1e-10


class TestOverlap:
    def test_self_overlap_is_norm_squared(self):
        vec = coherent_state_vector(0.5 + 0.1j, 10)
        value = np.vdot(vec, vec)
        assert value.imag == 0.0
        assert value.real == pytest.approx(np.linalg.norm(vec) ** 2, abs=1e-15)

    def test_orthogonal_basis_states(self):
        a = np.zeros(9, dtype=complex)
        b = np.zeros(9, dtype=complex)
        a[2] = 1.0
        b[5] = 1.0
        assert np.vdot(a, b) == 0.0

    def test_coherent_overlap_identity(self):
        # oracle: |<a|b>|^2 = exp(-|a-b|^2) for coherent states
        for alpha, beta in [(0.3, -0.5), (0.8j, 0.4), (0.6 + 0.2j, -0.1 + 0.7j)]:
            x = coherent_state_vector(alpha, 30)
            y = coherent_state_vector(beta, 30)
            assert abs(np.vdot(x, y)) ** 2 == pytest.approx(
                math.exp(-abs(alpha - beta) ** 2), abs=1e-8
            )


class TestDisentanglement:
    def test_zero_time_infidelity_vanishes(self):
        config = CloneNetworkConfig([1.0, 0.5], [0.0, 0.0], 0.0)
        params = np.asarray([0.5, 0.2j, -0.1], dtype=complex)
        _, _, infidelity = verify_disentanglement(params, config, 12)
        assert infidelity < 1e-12

    def test_single_target_random_complex_config(self):
        rng = np.random.default_rng(101)
        params = np.asarray([0.8, 0.3j], dtype=complex)
        for _ in range(3):
            config = CloneNetworkConfig(
                rng.uniform(0.2, 1.5, 1), rng.uniform(-np.pi, np.pi, 1), rng.uniform(0.2, 2.5)
            )
            _, _, infidelity = verify_disentanglement(params, config, 20)
            assert infidelity < 1e-6

    def test_symmetric_split_two_targets(self):
        alpha = 0.6
        config = symmetric_clone_config(2)
        params = np.asarray([alpha, 0.0, 0.0], dtype=complex)
        predicted = build_transfer(config) @ params
        np.testing.assert_allclose(predicted[1:], np.full(2, alpha / math.sqrt(2)), atol=1e-15)
        returned, evolved, infidelity = verify_disentanglement(params, config, 16)
        np.testing.assert_array_equal(returned, predicted)
        assert infidelity == disentanglement_infidelity(predicted, evolved, 16)
        assert infidelity < 1e-6

    def test_number_conservation(self):
        # operator-level weight conservation behind the transfer unitarity:
        # the weight of every total-number sector is kept
        config = CloneNetworkConfig([0.7, 1.1], [0.5, -0.9], 1.7)
        params = np.asarray([0.6, -0.3j, 0.4], dtype=complex)
        before = product_coherent_state(params, 14)
        after = evolve_product_state(params, config, 14)
        number = mode_occupations(3, 14).sum(axis=1)
        n_before = np.sum(number * np.abs(before) ** 2)
        n_after = np.sum(number * np.abs(after) ** 2)
        assert abs(n_after - n_before) < 1e-12
        np.testing.assert_allclose(
            np.bincount(number, np.abs(after) ** 2),
            np.bincount(number, np.abs(before) ** 2),
            rtol=0, atol=1e-14,
        )

    def test_scores_against_the_predicted_parameters(self):
        config = CloneNetworkConfig([0.9, 0.4], [0.2, 1.1], 0.8)
        params = np.asarray([0.5, 0.1j, -0.2], dtype=complex)
        evolved = evolve_product_state(params, config, 12)
        predicted = build_transfer(config) @ params
        infidelity = disentanglement_infidelity(predicted, evolved, 12)
        assert infidelity < 1e-6
        assert disentanglement_infidelity(params, evolved, 12) > 1e-2

    def test_huge_amplitude_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            verify_disentanglement(np.asarray([1e200, 0, 0], dtype=complex),
                                   symmetric_clone_config(2), 8)

    @pytest.mark.parametrize("entries", [
        [math.inf, 0.0, 0.0],
        [0.5, math.nan, 0.0],
        [0.5, 0.0, complex(0.0, -math.inf)],
    ], ids=["source-inf", "target-nan", "target-imag-inf"])
    def test_non_finite_entry_rejected(self, entries):
        # a non-finite entry anywhere in the array, source or target, is
        # refused by mean_occupation before any state is built
        entries = np.asarray(entries, dtype=complex)
        with pytest.raises(ValueError, match="not finite"):
            check_truncation(entries, 8, 1e-6)
        with pytest.raises(ValueError, match="not finite"):
            verify_disentanglement(entries, symmetric_clone_config(2), 8)

    def test_parameter_count_must_match(self):
        config = CloneNetworkConfig([1.0], [0.0], 1.0)
        with pytest.raises(ValueError):
            verify_disentanglement(np.asarray([0.1, 0.0, 0.0], dtype=complex), config, 8)

    @settings(max_examples=60, deadline=None)
    @given(
        targets=st.integers(1, 3),
        levels=st.integers(3, 10),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.0, 1.5),
    )
    def test_infidelity_is_the_total_excitation_tail(self, targets, levels, seed, scale):
        # each sector evolves exactly, so only the input's total-excitation
        # tail T is lost: 1 - |<expected|evolved>|^2 = 1 - (1 - T)^2
        rng = np.random.default_rng(seed)
        config = CloneNetworkConfig(
            rng.uniform(0.0, 1.5, targets) + 1e-3,
            rng.uniform(-np.pi, np.pi, targets),
            rng.uniform(-3.0, 3.0),
        )
        entries = scale * rng.uniform(0.0, 1.0, targets + 1) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, targets + 1)
        )
        tail = poisson_tail(float(np.sum(np.abs(entries) ** 2)), levels)
        _, _, infidelity = verify_disentanglement(entries, config, levels)
        assert abs(infidelity - (2.0 * tail - tail * tail)) < 1e-12

    def test_five_mode_symmetric_clone_within_budget(self):
        # 4 targets at 16 levels: C(20, 5) = 15504 simplex states, where the
        # per-mode box would need 16**5 = 1048576
        assert math.comb(20, 5) == 15504 < 16**5
        params = np.asarray([1.0, 0.0, 0.0, 0.0, 0.0], dtype=complex)
        start = time.perf_counter()
        _, _, infidelity = verify_disentanglement(params, symmetric_clone_config(4), 16)
        assert time.perf_counter() - start < 60.0
        assert infidelity < 1e-6


class TestTruncationCheck:
    def test_oracle_benchmark_truncations_pass(self):
        # truncations whose total-excitation tail is at most 1e-8 (the
        # benchmark's oracle commands) pass at the default gate
        for levels in range(4, 60):
            lo, hi = 0.0, float(levels)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if poisson_tail(mid, levels) <= 1e-8 else (lo, mid)
            check_truncation([math.sqrt(lo), 0.0, 0.0], levels, 1e-6)

    def test_state_outside_truncation_names_levels_for_gate(self):
        # a total excitation of 5.4**2 + 7.2**2 = 81 spread over two input modes
        entries = [9.0 * 0.6, 9.0 * 0.8, 0.0]
        needed = required_levels(81.0, 1e-6 / 2)
        with pytest.raises(ValueError, match=f"need at least {needed} levels"):
            check_truncation(entries, 8, 1e-6)
        assert poisson_tail(81.0, needed) <= 1e-6 / 2
        assert poisson_tail(81.0, needed - 1) > 1e-6 / 2

    def test_tail_between_gate_and_limit_passes(self):
        # an unreachable gate is left to the infidelity (exit 3 in the CLI)
        tail = poisson_tail(1.0, 8)
        assert 1e-12 < tail < TRUNCATION_TAIL_LIMIT
        check_truncation([1.0, 0.0], 8, 1e-12)

    def test_loose_gate_loosens_limit(self):
        tail = poisson_tail(4.0, 8)
        assert TRUNCATION_TAIL_LIMIT < tail < 0.1
        check_truncation([2.0, 0.0], 8, 0.1)
        needed = required_levels(4.0, 1e-6 / 2)
        with pytest.raises(ValueError, match=f"need at least {needed} levels"):
            check_truncation([2.0, 0.0], 8, 1e-6)

    @pytest.mark.parametrize("amplitude,message", [
        (200.0, f"not below {OCCUPATION_LIMIT}"),
        (1e17, f"not below {OCCUPATION_LIMIT}"),
        (1e200, "is not finite"),  # |entry|^2 alone overflows
    ], ids=["200.0", "1e+17", "1e+200"])
    def test_mean_beyond_budget(self, amplitude, message):
        with pytest.raises(ValueError, match=message) as info:
            check_truncation([amplitude, 0.0], 8, 1e-6)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("gate", [0.0, -1e-6, math.nan, math.inf, -math.inf])
    def test_gate_must_be_positive(self, gate):
        with pytest.raises(ValueError, match="--gate must be positive and finite"):
            check_truncation([0.5, 0.0], 8, gate)

    def test_predicted_outputs_count(self):
        # the reversed symmetric network gathers both targets into the
        # source: 16 levels would hold each input mode alone (|beta|^2 = 4.5)
        # but not their total, which is the output (|alpha|^2 = 9); the input
        # total alone is judged, and the infidelity is exactly its loss
        forward = symmetric_clone_config(2)
        config = CloneNetworkConfig(forward.magnitudes, forward.phases, -forward.time)
        params = np.asarray([0.0, 3.0 / math.sqrt(2.0), 3.0 / math.sqrt(2.0)], dtype=complex)
        predicted = build_transfer(config) @ params
        assert abs(predicted[0]) == pytest.approx(3.0, abs=1e-12)
        assert poisson_tail(4.5, 16) < TRUNCATION_TAIL_LIMIT < poisson_tail(9.0, 16)
        needed = required_levels(9.0, 1e-6 / 2)
        with pytest.raises(ValueError, match=f"need at least {needed} levels"):
            check_truncation(params, 16, 1e-6)
        tail = poisson_tail(9.0, 16)
        _, _, infidelity = verify_disentanglement(params, config, 16)
        assert infidelity > 1e-3
        assert abs(infidelity - (2.0 * tail - tail * tail)) < 1e-12


class TestIndexing:
    def test_mode_occupations_are_read_only(self):
        occupations = mode_occupations(3, 5)
        with pytest.raises(ValueError):
            occupations[0, 0] = 1

    def test_mode_occupations_rowmajor(self):
        occupations = mode_occupations(2, 3)
        assert occupations.shape == (6, 2)
        assert np.array_equal(occupations[0], [0, 0])
        assert np.array_equal(occupations[1], [0, 1])  # target mode fastest
        assert np.array_equal(occupations[3], [1, 0])
        assert np.array_equal(occupations, [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [2, 0]])

    @pytest.mark.parametrize("modes", [1, 2, 3, 5])
    def test_mode_occupations_are_the_box_restricted_to_the_simplex(self, modes):
        # oracle: the box in itertools order (row-major), filtered by total
        levels = 5
        box = [t for t in itertools.product(range(levels), repeat=modes) if sum(t) < levels]
        occupations = mode_occupations(modes, levels)
        assert occupations.tolist() == [list(t) for t in box]
        assert len(box) == math.comb(levels - 1 + modes, modes)

    @pytest.mark.parametrize("modes, levels", [(2, 9), (3, 7), (5, 4), (7, 3)])
    def test_moving_an_excitation_to_the_source_keeps_row_order(self, modes, levels):
        # the pairing _coupling_generator relies on: a_0^dag a_j maps the
        # rows with n_j >= 1, in order, onto the rows with n_0 >= 1
        occupations = mode_occupations(modes, levels)
        (rows,) = np.nonzero(occupations[:, 0])
        for j in range(1, modes):
            (cols,) = np.nonzero(occupations[:, j])
            shift = np.zeros(modes, dtype=occupations.dtype)
            shift[0], shift[j] = 1, -1
            assert np.array_equal(occupations[rows], occupations[cols] + shift)
