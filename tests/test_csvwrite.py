import functools
import io
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoclone import _csvwrite, cli, fock_oracle, measurement
from infoclone.cli import EXIT_OK, main
from infoclone.phase_space import CloneNetworkConfig


def rendered(columns) -> list[list[str]]:
    """The fields of every row ``write_csv`` writes for one block of ``columns``."""
    buffer = io.StringIO()
    _csvwrite.write_csv(buffer, "h", [columns])
    text = buffer.getvalue()
    assert text.startswith("h\n") and text.endswith("\n")
    return [line.split(",") for line in text[2:-1].split("\n")] if text != "h\n" else []


def assert_floats_render_as_percent_g(values):
    values = np.asarray(values, dtype=np.float64)
    got = [row[0] for row in rendered([values])]
    assert got == ["%.17g" % v for v in values.tolist()]


SMALLEST_NORMAL = 2.2250738585072014e-308


def floor_sum(count: int, modulus: int, step: int, start: int) -> int:
    """The sum of (step * i + start) // modulus over i < count, by the
    Euclid-like recursion of the AtCoder Library's floor_sum."""
    total = 0
    while True:
        if step >= modulus:
            total += count * (count - 1) // 2 * (step // modulus)
            step %= modulus
        if start >= modulus:
            total += count * (start // modulus)
            start %= modulus
        top = step * count + start
        if top < modulus:
            return total
        count, start = divmod(top, modulus)
        modulus, step = step, modulus


def mantissa_range(biased: int) -> tuple[int, int]:
    return (1, 2**52 - 1) if biased == 0 else (2**52, 2**53 - 1)


def binary_exponent(biased: int) -> int:
    """e of |x| = m * 2**e; subnormals (biased 0) share biased 1's."""
    return max(biased, 1) - 1075


class Pair(NamedTuple):
    biased: int
    decade: int  # X
    shift: int  # s of D = m * 5**k / 2**s
    lowest: int  # the mantissas m with floor(m * 5**k / 2**s) in [1e16, 1e17]
    highest: int


@functools.cache
def truncated_pairs() -> list[Pair]:
    """Every pair of a binade and a decade X that doubles reach where the
    table of 5**k truncates (k = 16 - X >= 55), in ascending m per binade."""
    pairs = []
    for biased in range(2047):
        lowest, highest = mantissa_range(biased)
        binary = binary_exponent(biased)
        # floored log10 of the binade's ends, give or take one
        bottom, top = (math.floor(math.log10(m) + binary * math.log10(2))
                       for m in (lowest, highest))
        for decade in range(max(bottom - 1, _csvwrite._MIN_X), min(top + 2, -38)):
            k, shift = 16 - decade, decade - binary - 16
            first = max(lowest, -(-(10**16 << shift) // 5**k))
            last = min(highest, (((10**17 + 1) << shift) - 1) // 5**k)
            if first <= last:
                pairs.append(Pair(biased, decade, shift, first, last))
    return pairs


def edge_values() -> list[float]:
    values = []
    for p in range(-20, 21):
        v = 10.0**p
        values += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
    # past k = 27, below 1e-11: every power of ten from 1e-323 to 1e-12, 1 and
    # 2 ulp either side of it, and the normal/subnormal boundary
    for p in range(-323, -11):
        v = float(f"1e{p}")
        below, above = np.nextafter(v, 0.0), np.nextafter(v, np.inf)
        values += [np.nextafter(below, 0.0), below, v, above, np.nextafter(above, np.inf)]
    for edge in (SMALLEST_NORMAL, 5e-324, 1e-323, 4.9406564584124654e-322):
        values += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)]
    values += [SMALLEST_NORMAL * k for k in (0.5, 0.999, 1.001, 2.0)]
    # dyadic values, exact in 17 digits or ties at the 18th
    values += [k * 2.0**-n for n in range(80) for k in (1, 3, 5, 7, 9, 11, 13, 15, 99, 12345)]
    # 1e-11, where 5**k outgrows one word (k = 27 to 28), 1e17 and their neighbours
    for edge in (1e-11, 1e17, 99999999999999984.0, 9.9999999999999995e-12, 1e-4, 1e-5):
        values += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
    for edge in (1e-11, 1e17):
        for ulps in (2, 3):
            values += [edge + ulps * np.spacing(edge), edge - ulps * np.spacing(edge)]
    # where the table of 5**k turns from exact to truncated, k = 54 to 55
    for edge in (1e-38, 1e-39):
        values += [edge + ulps * np.spacing(edge) for ulps in range(-3, 4)]
    values += [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.5, 1.5, 2.5]
    values += [9.9999999999999999e-5, 0.099999999999999992, 999999999999999.88, 1234.5, 1000.0]
    return values + [-v for v in values] + [math.inf, -math.inf, math.nan]


class TestFloatDigits:
    def test_edge_values(self):
        assert_floats_render_as_percent_g(edge_values())

    @pytest.mark.parametrize("decade", [79, 174, 176, 243, 305])
    def test_rounding_carries_to_the_next_decade(self, decade):
        # the double nearest 10**-decade lies below it, so floor(log10) is one
        # less, yet its 17 digits round up to 1e17
        value = float(f"1e-{decade}")
        assert Fraction(value) < Fraction(1, 10**decade)
        assert rendered([np.array([value, -value])]) == [[f"1e-{decade}"], [f"-1e-{decade}"]]

    def test_two_and_three_exponent_digits(self):
        values = [1e-99, 1e-100, 9.87654321e-100, 2.5e-12, 1.5e-10, 1e-5]
        assert [row[0] for row in rendered([np.array(values)])] == [
            "1e-99", "1e-100", "9.8765432100000005e-100", "2.4999999999999998e-12",
            "1.5e-10", "1.0000000000000001e-05"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, int(np.float64(1e-11).view(np.uint64))),
                              st.booleans()), min_size=1, max_size=40))
    @example([(1, False), (int(np.float64(SMALLEST_NORMAL).view(np.uint64)) - 1, True)])
    def test_bit_patterns_below_the_window(self, patterns):
        bits = np.array([b for b, _ in patterns], dtype=np.uint64)
        values = bits.view(np.float64) * np.where([n for _, n in patterns], -1.0, 1.0)
        assert_floats_render_as_percent_g(values)

    def test_tie_rounds_half_to_even(self):
        # 2**-25 = 2.98023223876953125e-08 has 18 significant digits
        (row,) = rendered([np.array([2.0**-25])])
        assert row == ["2.9802322387695312e-08"]

    def test_every_layout(self):
        # fixed form with 0 to 16 integer digits and below 1, scientific
        # form, with and without trailing zeros and a point
        rng = np.random.default_rng(3)
        mantissas = np.concatenate([rng.uniform(1.0, 10.0, 200), np.arange(1.0, 10.0, 0.25)])
        values = np.concatenate([mantissas * 10.0**p for p in range(-13, 19)])
        assert_floats_render_as_percent_g(np.concatenate([values, -values]))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**63, 20000, dtype=np.int64).view(np.float64)
        normals = rng.normal(size=20000) * 10.0 ** rng.integers(-12, 18, 20000)
        assert_floats_render_as_percent_g(np.concatenate([bits, -bits, normals]))

    @pytest.mark.parametrize("k", [55, 80, 200, 340])
    def test_scaled_is_exact_at_truncated_shifts(self, k):
        # Past k = 54 the table truncates 5**k.  At the shift of every binade
        # that reaches X = 16 - k, mantissas from the pair's range get the
        # exact quotient and rounding.
        rng = np.random.default_rng(k)
        pairs = [pair for pair in truncated_pairs() if pair.decade == 16 - k]
        for pair in pairs:
            mantissas = rng.integers(pair.lowest, pair.highest + 1, 200_000 // len(pairs),
                                     dtype=np.uint64)
            low, high = mantissas & np.uint64(2**32 - 1), mantissas >> np.uint64(32)
            quotient, up = _csvwrite._scaled(low, high, np.full(mantissas.size, pair.shift),
                                             np.full(mantissas.size, pair.decade))
            products = [m * 5**k for m in mantissas.tolist()]
            exact = [p >> pair.shift for p in products]
            half = 1 << (pair.shift - 1)
            rests = [p & (2 * half - 1) for p in products]
            exact_up = [r > half or (r == half and q & 1 == 1) for q, r in zip(exact, rests)]
            assert quotient.tolist() == exact
            assert up.tolist() == exact_up

    def test_truncated_powers_never_move_a_quotient_or_its_half_bit(self):
        # The table holds T = a * 2**63 + b with 5**k = T * 2**drop + e, where
        # 0 <= e < 2**drop, so m * 5**k is m * T * 2**drop plus less than
        # m * 2**drop.  The bits of m * T from the half bit W up, which give
        # the quotient and the half bit, can only move where the bits below
        # W are at least 2**W - m.  Counting those m in every pair of a
        # binade and a decade that doubles reach finds none.
        pairs = truncated_pairs()
        high_words, low_words, drops = _csvwrite._pow5_words()
        candidates = 0
        for pair in pairs:
            k = 16 - pair.decade
            words, drop = int(high_words[k]) << 63 | int(low_words[k]), int(drops[k])
            assert drop > 0 and 0 <= 5**k - (words << drop) < 2**drop
            modulus = 1 << (pair.shift - drop - 1)
            step, count = words % modulus, pair.highest - pair.lowest + 1
            start = pair.lowest * words % modulus
            candidates += (floor_sum(count, modulus, step, start + pair.highest)
                           - floor_sum(count, modulus, step, start))
        assert candidates == 0
        # every double below 1e-38 (k >= 55) lies in some pair
        assert {pair.decade for pair in pairs} == set(range(_csvwrite._MIN_X, -38))
        covered = {}
        for pair in pairs:
            assert pair.lowest <= covered.get(pair.biased, mantissa_range(pair.biased)[0])
            covered[pair.biased] = pair.highest + 1
        for biased in range(2047):
            lowest, highest = mantissa_range(biased)
            below = math.ceil(Fraction(1, 10**38) / Fraction(2) ** binary_exponent(biased))
            if below > lowest:
                assert covered[biased] >= min(below, highest + 1)

    def test_floor_sum_counts_like_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            count, modulus = (int(v) for v in rng.integers(1, 60, 2))
            step, start = (int(v) for v in rng.integers(0, 200, 2))
            assert floor_sum(count, modulus, step, start) == sum(
                (step * i + start) // modulus for i in range(count))

    def test_only_zero_non_finite_and_huge_fall_back(self):
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2**63, 1_000_000, dtype=np.int64)
        special = [0.0, 5e-324, 1e-38, 99999999999999984.0, 1e17, math.inf, math.nan]
        values = np.concatenate([bits.view(np.float64), special])
        values = np.concatenate([values, -values])
        _, _, fallback = _csvwrite._significands(values)
        magnitude = np.abs(values)
        expected = (magnitude == 0.0) | ~np.isfinite(values) | (magnitude >= 1e17)
        assert np.array_equal(fallback, np.flatnonzero(expected))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40))
    @example([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072009e-308])
    def test_matches_percent_g(self, values):
        assert_floats_render_as_percent_g(values)


class TestIntegers:
    @pytest.mark.parametrize("values", [
        [0, 1, 9, 10, 99, 100, 12345678, 99999999],
        [100000000, 0, 7, 1234567890123456, 9999999999999999],
        [10**16, 0, 2**62, 2**63 - 1],
    ])
    def test_match_percent_d(self, values):
        rows = rendered([np.array(values, dtype=np.int64)])
        assert [row[0] for row in rows] == ["%d" % v for v in values]

    def test_range_column(self):
        rows = rendered([range(5, 9), np.arange(4.0)])
        assert rows == [["5", "0"], ["6", "1"], ["7", "2"], ["8", "3"]]

    def test_no_rows(self):
        assert rendered([np.zeros(0, dtype=np.int64), np.zeros(0)]) == []


def reference_samples_csv(samples) -> str:
    rows = ["trial,re_est,im_est,F\n"]
    for trial, (estimate, fidelity) in enumerate(
        zip(samples.estimates.tolist(), samples.fidelity.tolist())
    ):
        rows.append(f"{trial},{estimate.real:.17g},{estimate.imag:.17g},{fidelity:.17g}\n")
    return "".join(rows)


def reference_density_csv(grid, values) -> str:
    return "F,p\n" + "".join(f"{f:.17g},{p:.17g}\n" for f, p in zip(grid, values))


def reference_dump_csv(amplitudes, modes: int, levels: int) -> str:
    occupations = fock_oracle.mode_occupations(modes, levels)
    header = ",".join(f"n_{m}" for m in range(modes))
    rows = [f"index,{header},re,im\n"]
    for index, amp in enumerate(amplitudes):
        occ = ",".join(str(n) for n in occupations[index])
        rows.append(f"{index},{occ},{amp.real:.17g},{amp.imag:.17g}\n")
    return "".join(rows)


class TestCliFilesAreTheReferenceBytes:
    @pytest.mark.parametrize("command,scheme,sources", [
        ("mc-info", measurement.INFO_SCHEME, 1),
        ("mc-gauss", measurement.GAUSS_SCHEME, 2),
    ])
    def test_samples_csv(self, capsys, tmp_path, command, scheme, sources):
        # two full writer chunks and a partial one
        trials = 2 * _csvwrite.CHUNK_ROWS + 1234
        path = tmp_path / "samples.csv"
        code = main([command, f"--sources={sources}", "--copies=2", f"--trials={trials}",
                     "--seed=8", "--alpha=0.3,-1.1", f"--output={path}"])
        capsys.readouterr()
        assert code in (EXIT_OK, cli.EXIT_GATE)
        run = measurement.FidelityRun(complex(0.3, -1.1), sources, 2, trials, seed=8,
                                      scheme=scheme)
        assert path.read_text() == reference_samples_csv(measurement.run_trials(run))

    @pytest.mark.parametrize("grid", [2, 3, 10000])
    # gauss 3,8 reaches p = 8.6e-79 and info 4 p = 4e-36
    @pytest.mark.parametrize("scheme,sources,copies", [
        ("info", 2, 3), ("gauss", 2, 3), ("gauss", 3, 8), ("info", 4, 3),
    ], ids=["info", "gauss", "gauss-3-8", "info-4"])
    def test_density_csv(self, capsys, scheme, sources, copies, grid):
        code = main(["pdf", f"--scheme={scheme}", f"--sources={sources}", f"--copies={copies}",
                     f"--grid={grid}"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        exponent = measurement.fidelity_exponent(cli.PDF_SCHEMES[scheme], sources, copies)
        density = measurement.fidelity_pdf(exponent)
        points = np.geomspace(cli.PDF_GRID_FLOOR, 1.0, grid)
        assert out == reference_density_csv(points, np.asarray(density(points), dtype=float))

    def test_dump_csv(self):
        config = CloneNetworkConfig([1.0, 0.6], [0.3, -1.0], 1.1)
        params = np.asarray([0.7 - 0.2j, 0.1j, -0.3], dtype=complex)
        state = fock_oracle.evolve_product_state(params, config, 12)
        out = io.StringIO()
        cli._write_amplitude_dump(out, state, 3, 12)
        assert out.getvalue() == reference_dump_csv(state, 3, 12)


# the pdf argument sets of the benchmark's short-cmds mix
SHORT_CMDS_PDFS = ([["--scheme=info", f"--sources={m}"] for m in range(1, 5)]
                   + [["--scheme=gauss", f"--sources={m}", f"--copies={n}"]
                      for m in range(1, 4) for n in range(2, 9)])


def record_fallback(monkeypatch) -> list:
    """The values of every ``_fill_fallback`` call from now on."""
    calls = []
    fill = _csvwrite._fill_fallback

    def recording(field, values, index, separator):
        calls.append(values[index].tolist())
        fill(field, values, index, separator)

    monkeypatch.setattr(_csvwrite, "_fill_fallback", recording)
    return calls


# densities down to 1e-84, in the truncated part of the table of 5**k
DEEP_TAIL_PDFS = [["--scheme=info", f"--sources={m}"] for m in range(5, 9)]


class TestFastPath:
    @pytest.mark.parametrize("args", SHORT_CMDS_PDFS + DEEP_TAIL_PDFS,
                             ids=lambda a: " ".join(a))
    def test_density_never_falls_back(self, capsys, monkeypatch, args):
        # every density and grid value is a nonzero double below 1e17
        calls = record_fallback(monkeypatch)
        assert main(["pdf", *args]) == EXIT_OK
        assert capsys.readouterr().out.startswith("F,p\n")
        assert calls and all(values == [] for values in calls)

    def test_zero_and_non_finite_still_fall_back(self, monkeypatch):
        calls = record_fallback(monkeypatch)
        # log10 rounds the doubles just below 1e17 to 17
        values = [0.0, 5e-324, 1e-300, 1e-11, 99999999999999984.0, 1e17, 1.5e17, 9e17,
                  math.inf, -1e300]
        assert_floats_render_as_percent_g(values)
        assert calls == [[0.0, 1e17, 1.5e17, 9e17, math.inf, -1e300]]
