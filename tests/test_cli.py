import contextlib
import gc
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoclone import _csvwrite, cli, fock_oracle, measurement, phase_space
from infoclone.cli import EXIT_GATE, EXIT_OK, EXIT_USAGE, SCHEMA_VERSION, main
from infoclone.measurement import (
    BLOCK_TRIALS,
    GAUSS_SCHEME,
    INFO_SCHEME,
    TRIAL_BATCH,
    FidelityRun,
    fidelity_cdf,
    fidelity_exponent,
    summarize,
)
from infoclone.phase_space import info_overlap_fidelity
from mc_helpers import draw


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTransfer:
    def test_symmetric_two_copies(self, capsys):
        code, out, _ = run_cli(capsys, "transfer", "--copies", "2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["dim"] == 3
        assert payload["unitarity_deviation"] < 1e-12
        matrix = np.array([[complex(re, im) for re, im in row] for row in payload["entries"]])
        np.testing.assert_allclose(
            matrix[0], [0.0, -1.0 / math.sqrt(2), -1.0 / math.sqrt(2)], atol=1e-15
        )

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_copies_with_time_is_unit_couplings(self, capsys, fmt):
        copies = run_cli(capsys, "transfer", "--copies", "3", "--time", "0.7", "--format", fmt)
        couplings = run_cli(capsys, "transfer", "--r", "1,1,1", "--time", "0.7", "--format", fmt)
        assert copies[0] == EXIT_OK
        assert copies == couplings

    def test_zero_time_is_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "transfer", "--time", "0", "--r", "1,1", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        matrix = np.array([[complex(re, im) for re, im in row] for row in payload["entries"]])
        assert np.array_equal(matrix, np.eye(3))

    def test_degenerate_couplings_exit_usage(self, capsys):
        code, _, err = run_cli(capsys, "transfer", "--r", "0,0", "--time", "1")
        assert code == EXIT_USAGE
        assert "zero" in err

    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "transfer", "--copies", "3")
        assert code == EXIT_OK
        assert "max unitarity deviation" in out

    def test_delta_without_r_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "transfer", "--copies", "2", "--delta", "0.5,0.5")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--delta" in err


class TestClone:
    def test_four_copies(self, capsys):
        code, out, _ = run_cli(
            capsys, "clone", "--alpha", "2,1", "--copies", "4", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["source"] == [0.0, 0.0]
        assert payload["targets"] == [[1.0, 0.5]] * 4
        assert payload["overlap_fidelity"] == info_overlap_fidelity(2 + 1j, 4)

    def test_vacuum_source(self, capsys):
        code, out, _ = run_cli(
            capsys, "clone", "--alpha", "0,0", "--copies", "7", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["source"] == [0.0, 0.0]
        assert payload["targets"] == [[0.0, 0.0]] * 7

    def test_text_fidelity_line(self, capsys):
        code, out, _ = run_cli(capsys, "clone", "--alpha", "1,0", "--copies", "4")
        assert code == EXIT_OK
        assert "overlap fidelity" in out
        reported = float(out.strip().rsplit(" ", 1)[-1])
        assert reported == pytest.approx(info_overlap_fidelity(1.0, 4), rel=1e-11)


def reference_transfer(matrix: np.ndarray, fmt: str) -> str:
    """transfer's JSON or CSV, formatted one numpy scalar at a time."""
    if fmt == "json":
        payload = {"schema_version": SCHEMA_VERSION, "dim": matrix.shape[0],
                   "entries": [[[z.real, z.imag] for z in row] for row in matrix],
                   "unitarity_deviation": phase_space.unitarity_deviation(matrix)}
        return json.dumps(payload, allow_nan=False) + "\n"
    rows = ["row,col,re,im\n"]
    for i, row in enumerate(matrix):
        for j, z in enumerate(row):
            rows.append(f"{i},{j},{z.real:.17g},{z.imag:.17g}\n")
    return "".join(rows)


def reference_clone(alpha: complex, copies: int, fmt: str) -> str:
    """clone's JSON or CSV, formatted one numpy scalar at a time."""
    params = phase_space.information_clone(alpha, copies)
    if fmt == "json":
        payload = {"schema_version": SCHEMA_VERSION, "alpha": [alpha.real, alpha.imag],
                   "copies": copies, "source": [params[0].real, params[0].imag],
                   "targets": [[z.real, z.imag] for z in params[1:]],
                   "overlap_fidelity": info_overlap_fidelity(alpha, copies)}
        return json.dumps(payload, allow_nan=False) + "\n"
    rows = ["mode,re,im\n"]
    for index, z in enumerate(params):
        rows.append(f"{index},{z.real:.17g},{z.imag:.17g}\n")
    return "".join(rows)


def _num(value: float) -> str:
    return f"{value:.17g}"


class TestTransferCloneBytes:
    """transfer and clone write exactly the bytes of per-scalar formatting."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_transfer_copies(self, capsys, fmt):
        for copies in range(1, 18):
            code, out, _ = run_cli(capsys, "transfer", f"--copies={copies}", f"--format={fmt}")
            assert code == EXIT_OK
            config = phase_space.symmetric_clone_config(copies)
            assert out == reference_transfer(phase_space.build_transfer(config), fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_transfer_random_networks(self, capsys, fmt):
        rng = np.random.default_rng(18)
        for targets in range(1, 18):
            r, delta = rng.uniform(0.1, 2.0, targets), rng.uniform(-math.pi, math.pi, targets)
            duration = rng.uniform(0.0, 2.0 * math.pi)
            code, out, _ = run_cli(capsys, "transfer", "--r=" + ",".join(map(_num, r)),
                                   "--delta=" + ",".join(map(_num, delta)),
                                   f"--time={_num(duration)}", f"--format={fmt}")
            assert code == EXIT_OK
            config = phase_space.CloneNetworkConfig(r, delta, duration)
            assert out == reference_transfer(phase_space.build_transfer(config), fmt)

    def test_source_entry_at_three_half_pi(self, capsys):
        # cos(3*pi/2) is not exactly 0, and the imaginary parts are exact zeros
        _, out, _ = run_cli(capsys, "transfer", "--copies=2", "--format=csv")
        assert out.splitlines()[1:3] == ["0,0,-1.8369701987210297e-16,0",
                                         "0,1,-0.70710678118654746,0"]
        _, out, _ = run_cli(capsys, "transfer", "--copies=2", "--format=json")
        assert json.loads(out)["entries"][0][:2] == [[-1.8369701987210297e-16, 0.0],
                                                   [-0.7071067811865475, 0.0]]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_clone(self, capsys, fmt):
        rng = np.random.default_rng(19)
        for copies in range(1, 18):
            alpha = complex(*rng.normal(size=2)) if copies > 1 else 0j
            code, out, _ = run_cli(capsys, "clone", f"--alpha={alpha.real!r},{alpha.imag!r}",
                                   f"--copies={copies}", f"--format={fmt}")
            assert code == EXIT_OK
            assert out == reference_clone(alpha, copies, fmt)


class TestFockVerify:
    def test_symmetric_two_copies_passes_gate(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fock-verify",
            "--copies", "2",
            "--alpha", "0.6,0",
            "--truncation", "16",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["infidelity"] < 1e-6
        assert payload["dim"] == 816  # C(18, 3) simplex states

    def test_oversized_simplex_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            "fock-verify",
            "--copies", "3",
            "--alpha", "0.5,0",
            "--truncation", "300",
        )
        # C(303, 4) * 4 = 1.4e9 states times modes, 144 bytes each
        assert code == EXIT_USAGE
        assert out == ""
        assert "--copies with 3 targets at --truncation 300 needs more than" in err
        assert f"limit of {cli.BYTE_LIMIT} bytes" in err

    def test_unreachable_gate_exits_three(self, capsys):
        # truncation loss at alpha=1, d=8 is 2T - T^2 ~ 2e-5, well above the
        # gate; the total-excitation tail T (1.0e-5) is under the 1e-4 limit,
        # so the run still reports
        code, out, _ = run_cli(
            capsys,
            "fock-verify",
            "--copies", "1",
            "--alpha", "1,0",
            "--truncation", "8",
            "--gate", "1e-12",
            "--format", "json",
        )
        assert code == EXIT_GATE
        assert json.loads(out)["infidelity"] >= 1e-12

    def test_state_outside_truncation_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "fock-verify", "--alpha", "9,0", "--copies", "2", "--truncation", "8"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "need at least 130 levels" in err

    @pytest.mark.parametrize("gate", ["0", "-1e-6", "nan", "inf"])
    def test_non_positive_gate_is_usage_error(self, capsys, monkeypatch, gate):
        # refused before the state is evolved
        calls = []
        monkeypatch.setattr(fock_oracle, "_propagate", lambda *args: calls.append(args))
        code, out, err = run_cli(
            capsys, "fock-verify", "--alpha", "0.6,0", "--copies", "2", f"--gate={gate}"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--gate must be positive and finite" in err
        assert calls == []

    def test_zero_time_reports_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fock-verify",
            "--copies", "2",
            "--time", "0",
            "--alpha", "0.6,0",
            "--truncation", "16",
            "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["infidelity"] < 1e-12

    def test_amplitude_dump(self, capsys, tmp_path):
        dump = tmp_path / "amplitudes.csv"
        code, _, _ = run_cli(
            capsys,
            "fock-verify",
            "--r", "1.0",
            "--time", str(math.pi / 2),
            "--alpha", "0.5,0",
            "--truncation", "6",
            "--dump", str(dump),
        )
        assert code == EXIT_OK
        lines = dump.read_text().splitlines()
        assert lines[0] == "index,n_0,n_1,re,im"
        assert len(lines) == 22  # header and C(7, 2) simplex rows
        occupations = [tuple(int(n) for n in line.split(",")[1:3]) for line in lines[1:]]
        assert occupations == sorted(occupations)  # row-major, source slowest
        assert max(n0 + n1 for n0, n1 in occupations) == 5

    def test_dump_is_the_scored_vector_from_one_evolution(self, capsys, tmp_path, monkeypatch):
        calls = []
        original = fock_oracle._propagate

        def counting(*args, **kwargs):
            calls.append(args[2].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(fock_oracle, "_propagate", counting)
        dump = tmp_path / "amplitudes.csv"
        code, out, _ = run_cli(
            capsys,
            "fock-verify",
            "--copies", "2",
            "--alpha", "0.6,0.2",
            "--beta", "0.1,-0.3",
            "--truncation", "9",
            "--format", "json",
            "--dump", str(dump),
        )
        assert code == EXIT_OK
        assert len(calls) == 1
        payload = json.loads(out)
        rows = np.loadtxt(dump, delimiter=",", skiprows=1)
        assert rows.shape[0] == payload["dim"] == 165  # C(11, 3); the box has 9**3
        evolved = rows[:, -2] + 1j * rows[:, -1]
        predicted = np.asarray([complex(re, im) for re, im in payload["predicted"]], dtype=complex)
        assert (fock_oracle.disentanglement_infidelity(predicted, evolved, 9)
                == payload["infidelity"])

    def test_stdout_and_dump_are_byte_identical_across_runs(self, capsys, tmp_path):
        # the evolution draws nothing from numpy's global generator; an
        # evolution that estimates norms with it gave these two seeds
        # different bytes here (5,050 states, series radius about 450)
        outputs = []
        for seed in (0, 5):
            np.random.seed(seed)
            dump = tmp_path / f"amplitudes{seed}.csv"
            code, out, _ = run_cli(
                capsys,
                "fock-verify",
                "--alpha=1.76,-2.95",
                "--beta=-3.25,5.54",
                "--r=0.66",
                "--delta=0.68",
                "--time=6.92",
                "--truncation=100",
                "--dump", str(dump),
            )
            assert code == EXIT_OK
            outputs.append((out, dump.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_mode_occupations_built_once_per_command(self, capsys, tmp_path):
        # input state, generator, expected state and dump share one build
        fock_oracle.mode_occupations.cache_clear()
        code, _, _ = run_cli(
            capsys,
            "fock-verify",
            "--copies", "3",
            "--alpha", "0.6,0.2",
            "--truncation", "9",
            "--dump", str(tmp_path / "amplitudes.csv"),
        )
        assert code == EXIT_OK
        info = fock_oracle.mode_occupations.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_long_time_runs_at_the_reduced_angle(self, capsys):
        # rotation angle 100 * sqrt(2): a series radius of 5515 unreduced,
        # at most 39 * pi once reduced modulo 2*pi
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "fock-verify", "--r", "1,1", "--time", "100", "--alpha", "0.6,0",
            "--truncation", "40", "--format", "json",
        )
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK
        assert json.loads(out)["infidelity"] < 1e-12
        assert elapsed < 1.0

    def test_any_time_transfer_accepts_runs(self, capsys):
        # a rotation angle of 1.4e300 is reduced by transfer's own sine and cosine
        network = ("--r", "1,1", "--time", "1e300")
        assert run_cli(capsys, "transfer", *network)[0] == EXIT_OK
        code, out, _ = run_cli(capsys, "fock-verify", *network, "--alpha", "0.6,0.2",
                               "--truncation", "12", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["infidelity"] < 1e-12

    def test_delta_without_r_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "fock-verify", "--alpha", "0.3,0", "--copies", "2", "--delta", "0.5,0.5"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--delta" in err

    @pytest.mark.parametrize("truncation", ["0", "1", "-3"])
    def test_truncation_below_two_is_usage_error(self, capsys, truncation):
        code, out, err = run_cli(
            capsys, "fock-verify", "--alpha", "0,0", "--copies", "2",
            f"--truncation={truncation}",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--truncation" in err

    def test_non_finite_time_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "fock-verify", "--copies", "2", "--alpha=0.5,0", "--time", "inf"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "time must be finite" in err


class TestStrictInput:
    """Inputs without a meaningful answer exit 2; JSON output is strict."""

    @pytest.mark.parametrize("argv", [
        ("clone", "--copies", "2", "--alpha=1e200,0"),
        ("clone", "--copies", "2", "--alpha=nan,0"),
        ("clone", "--copies", "2", "--alpha=0,inf"),
        ("fock-verify", "--copies=2", "--alpha=inf,0"),
        ("fock-verify", "--copies=2", "--alpha=0.5,0", "--beta=nan,0"),
    ], ids=["clone-huge", "clone-nan", "clone-inf", "fock-verify-alpha-inf",
            "fock-verify-beta-nan"])
    def test_huge_clone_alpha_is_usage_error(self, capsys, argv):
        # |alpha|^2 that overflows or is not a number: mean_occupation refuses
        # it, and a --beta value is refused by that flag's name
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        name = "--beta" if any(arg.startswith("--beta") for arg in argv) else "alpha"
        assert name in err and "not finite" in err

    @pytest.mark.parametrize("time", [1.0, 1.7])
    @pytest.mark.parametrize("k", [-1000, -600, -530, 0, 520, 600, 1000])
    def test_power_of_two_coupling_scale_prints_the_unit_bytes(self, capsys, k, time):
        # the network depends only on r_j / r and r * t, and math.hypot takes
        # the norm r without squaring, so --r times 2**k and --time times
        # 2**-k change no byte, whether or not sum r_j**2 is a double
        def output(scale, command):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(
                    capsys, *command, f"--r={scale!r},{scale / 2!r}", "--delta=0.4,-1.0",
                    f"--time={time / scale!r}", "--format=json")
            assert (code, err) == (EXIT_OK, "")
            return out

        for command in [("transfer",), ("fock-verify", "--alpha=0.5,0.1", "--truncation=12")]:
            assert output(2.0**k, command) == output(1.0, command)

    @pytest.mark.parametrize("command", [("transfer",), ("fock-verify", "--alpha=0.1,0")])
    def test_infinite_total_coupling_is_usage_error(self, capsys, command):
        # every r is finite, but their norm overflows to infinity
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *command, "--r=1.7e308,1.7e308", "--time=1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "total coupling" in err and "not finite" in err

    @pytest.mark.parametrize("argv", [
        ("transfer", "--r=1e-320", "--time=1"),
        ("fock-verify", "--r=1e-320", "--time=1", "--alpha=0.5,0"),
    ])
    def test_tiny_couplings_are_usage_error(self, capsys, argv):
        # the norm of r is subnormal, below the smallest normal double: exit 2
        # before a NaN matrix or a wrong unitarity report, with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "zero" in err and "--r" in err and "--time" in err

    @pytest.mark.parametrize("argv,allocator", [
        (("pdf", "--scheme=info", "--sources=1", "--grid=1000"), (np, "geomspace")),
        (("clone", "--alpha=1,0", "--copies=1000"), (phase_space, "information_clone")),
        (("mc-info", "--sources=1", "--copies=2", "--trials=1000"),
         (measurement, "trial_blocks")),
    ], ids=["pdf", "clone", "mc-info"])
    def test_allocation_failure_is_usage_error(self, capsys, monkeypatch, tmp_path, argv,
                                               allocator):
        # a size the byte guard admits, whose allocation fails all the same:
        # main reports it, and the output file the command created is removed
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.81 KiB for an array")

        monkeypatch.setattr(*allocator, fail)
        path = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 7.81 KiB for an array\n"
        assert not path.exists()

    @pytest.mark.parametrize("argv,allocator", [
        # each array would need 7 PiB or more
        (("pdf", "--scheme=info", "--sources=1", f"--grid={10**15}"), (np, "geomspace")),
        (("clone", "--alpha=1,0", f"--copies={10**15}"), (phase_space, "information_clone")),
    ], ids=["pdf", "clone"])
    def test_oversized_clone_and_pdf_are_refused_before_allocating(self, capsys, monkeypatch,
                                                                   argv, allocator):
        def fail(*args, **kwargs):
            raise AssertionError("allocated past the byte limit")

        monkeypatch.setattr(*allocator, fail)
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        flag, count = argv[-1].split("=")
        assert f"{flag} {count} needs " in err and f"limit of {cli.BYTE_LIMIT}" in err

    @pytest.mark.parametrize("flag", ["--copies=20000", "--r=" + ",".join(["1"] * 20000)],
                             ids=["copies", "r"])
    def test_oversized_transfer_is_refused_before_allocating(self, capsys, monkeypatch, flag):
        # a 20001x20001 matrix needs 6.4 GB, its JSON more: refused before the build
        def fail(*args, **kwargs):
            raise AssertionError("build_transfer called")

        monkeypatch.setattr(phase_space, "build_transfer", fail)
        code, out, err = run_cli(capsys, "transfer", flag, "--time=1", "--format=json")
        assert code == EXIT_USAGE
        assert out == ""
        assert flag.split("=")[0] in err and "20000 targets" in err and "bytes" in err

    def test_oversized_fock_verify_is_refused_before_allocating(self, capsys, monkeypatch):
        # a million targets would take about 80 MB to build and check; the
        # count from the flags refuses them before the network is built
        def fail(*args, **kwargs):
            raise AssertionError("the network was built past the byte limit")

        monkeypatch.setattr(phase_space, "symmetric_clone_config", fail)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "fock-verify", "--alpha=0.1,0", "--copies=1000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: --copies with 1000000 targets at --truncation 16 needs ")
        assert peak < 2**20

    @pytest.mark.parametrize("argv", [
        ("clone", "--alpha=1,0", "--copies=" + "9" * 4300),
        ("transfer", "--copies=" + "9" * 2200),
        ("mc-info", "--sources=1", "--copies=2", "--trials=" + "9" * 4300),
        ("fock-verify", "--alpha=0.1,0", "--copies=" + "9" * 4300),
        ("fock-verify", "--alpha=0.1,0", "--copies=2", "--truncation=" + "9" * 4300),
    ], ids=["clone", "transfer", "mc-info", "fock-verify-copies", "fock-verify-truncation"])
    def test_byte_guard_names_the_flag_at_any_count(self, capsys, argv):
        # argparse admits integers of up to 4300 digits, and their byte counts
        # have more digits than Python will convert to a string
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        flag = argv[-1].split("=")[0]
        assert f" {flag} " in err and f"needs more than the limit of {cli.BYTE_LIMIT} bytes" in err

    def test_overflowing_rotation_angle_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "transfer", "--copies", "4", "--time", "1.7e308")
        assert code == EXIT_USAGE
        assert out == ""
        assert "not finite" in err and "time" in err

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
    def test_non_finite_transfer_time_is_usage_error(self, capsys, time):
        code, out, err = run_cli(
            capsys, "transfer", "--copies", "2", f"--time={time}", "--format", "json"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "time must be finite" in err

    @pytest.mark.parametrize("command", [
        ("transfer", "--copies", "2", "--format", "json"),
        ("clone", "--copies", "2", "--alpha", "1,0", "--format", "json"),
        ("fock-verify", "--copies", "2", "--alpha", "0.5,0", "--format", "json"),
    ])
    def test_json_refuses_nan_before_writing(self, capsys, monkeypatch, command):
        def nan(*args, **kwargs):
            return math.nan

        monkeypatch.setattr(phase_space, "unitarity_deviation", nan)
        monkeypatch.setattr(phase_space, "info_overlap_fidelity", nan)
        monkeypatch.setattr(fock_oracle, "disentanglement_infidelity", nan)
        code, out, err = run_cli(capsys, *command)
        assert code == EXIT_USAGE
        assert out == ""
        assert "JSON" in err


class TestMonteCarlo:
    def test_info_summary_and_gate(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mc-info",
            "--sources", "1",
            "--copies", "8",
            "--trials", "100000",
            "--seed", "7",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert 0.495 <= payload["mean"] <= 0.505
        assert payload["ks_pass"] is True
        assert sum(payload["histogram"]["counts"]) == 100000

    @pytest.mark.parametrize("sources,copies", [(1, 1), (1, 3), (3, 1)])
    def test_info_runs_at_odd_total(self, capsys, sources, copies):
        # information clones are heterodyned, so an odd sources*copies runs
        # and follows F**M.  The KS gate is the 1e-6 level of ks_helpers,
        # sqrt(log(2e6)/2)/sqrt(n), written out here since that module needs scipy
        trials = 100_000
        code, out, err = run_cli(capsys, "mc-info", f"--sources={sources}",
                                 f"--copies={copies}", f"--trials={trials}", "--seed=7")
        assert (code, err) == (EXIT_OK, "")
        payload = json.loads(out)
        assert payload["reference_cdf_exponent"] == sources
        assert abs(payload["mean"] - sources / (sources + 1)) < 0.005
        assert payload["ks_statistic"] < math.sqrt(math.log(2e6) / 2 / trials)

    def test_gauss_two_sources(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mc-gauss",
            "--sources", "2",
            "--copies", "2",
            "--trials", "100000",
            "--seed", "5",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["mean"] - 4.0 / 7.0) < 0.005

    def test_same_seed_gives_identical_csv(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                capsys,
                "mc-info",
                "--sources", "1",
                "--copies", "2",
                "--trials", "2000",
                "--seed", "99",
                "--output", str(path),
            )
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()
        header = paths[0].read_text().splitlines()[0]
        assert header == "trial,re_est,im_est,F"

    def test_samples_csv_parses_back_bitwise(self, capsys, tmp_path):
        # 5000 trials span two Monte Carlo batches of TRIAL_BATCH trials
        path = tmp_path / "samples.csv"
        code, _, _ = run_cli(
            capsys,
            "mc-gauss",
            "--sources", "2",
            "--copies", "2",
            "--trials", "5000",
            "--seed", "12",
            "--alpha=-0.4,1.3",
            "--output", str(path),
        )
        assert code in (EXIT_OK, EXIT_GATE)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,re_est,im_est,F"
        table = np.array([line.split(",") for line in lines[1:]], dtype=float)
        estimates, fidelity = draw(
            FidelityRun(complex(-0.4, 1.3), 2, 2, 5000, seed=12, scheme=GAUSS_SCHEME)
        )
        assert np.array_equal(table[:, 0], np.arange(5000))
        assert np.array_equal(table[:, 1], estimates.real)
        assert np.array_equal(table[:, 2], estimates.imag)
        assert np.array_equal(table[:, 3], fidelity)

    def test_summary_schema_has_no_workers(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc-info", "--sources", "1", "--copies", "2", "--trials", "100"
        )
        assert code in (EXIT_OK, EXIT_GATE)
        payload = json.loads(out)
        assert payload["schema_version"] == SCHEMA_VERSION == 3
        assert "workers" not in payload
        code, _, _ = run_cli(
            capsys, "mc-info", "--sources", "1", "--copies", "2", "--workers", "2"
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("alpha", ["nan,0", "0,inf", "-inf,1"])
    def test_non_finite_alpha_is_usage_error(self, capsys, alpha):
        code, out, err = run_cli(
            capsys, "mc-info", "--sources", "1", "--copies", "2", "--trials", "100",
            f"--alpha={alpha}",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite" in err

    def test_single_trial_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "mc-info", "--sources", "1", "--copies", "2", "--trials", "1"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "trials" in err

    @pytest.mark.parametrize("alpha", ["1e17,0", "1e300,0", "1e308,1e308"])
    @pytest.mark.parametrize("command", ["mc-info", "mc-gauss"])
    def test_huge_alpha_is_usage_error(self, capsys, command, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, command, "--sources", "1", "--copies", "2", "--trials", "2000",
                f"--alpha={alpha}",
            )
        assert code == EXIT_USAGE
        assert out == ""
        assert "too large" in err

    @pytest.mark.parametrize("argv", [
        ("fock-verify", "--copies=2", "--alpha=1.7e308,1.7e308"),
        ("fock-verify", "--copies=2", "--alpha=0.6,0", "--beta=1.7e308,1.7e308"),
        ("mc-info", "--sources=1", "--copies=2", "--trials=10", "--alpha=1.7e308,1.7e308"),
        ("mc-gauss", "--sources=2", "--copies=2", "--trials=10", "--alpha=1.7e308,1.7e308"),
    ])
    def test_overflowing_modulus_is_usage_error(self, capsys, argv):
        # both parts are finite, but |alpha| or |beta| overflows the float range
        message = "is not finite" if argv[0] == "fock-verify" else "|alpha_true| = inf"
        if any(arg.startswith("--beta") for arg in argv):
            message = "--beta value 1, (1.7e+308+1.7e+308j): |beta|^2 is not finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err

    def test_overflowing_total_excitation_is_usage_error(self, capsys):
        # each |param|^2 is finite, but their sum is past the float range
        code, out, err = run_cli(capsys, "fock-verify", "--copies=1", "--alpha=1.3e154,0",
                                 "--beta=1.3e154,0")
        assert code == EXIT_USAGE
        assert out == ""
        assert "a total mean occupation of inf is not below" in err

    def test_alpha_just_below_bound_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc-info", "--sources", "1", "--copies", "2", "--trials", "2000",
            "--alpha=3.03e9,0",
        )
        assert code == EXIT_OK
        assert json.loads(out)["ks_pass"]

    def test_gauss_single_copy_leaves_no_csv(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        code, out, err = run_cli(
            capsys, "mc-gauss", "--sources", "2", "--copies", "1", "--trials", "100",
            "--output", str(path),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "copies must be at least 2" in err
        assert not path.exists()

    def test_oversized_trials_is_usage_error_and_leaves_no_csv(self, capsys, tmp_path):
        # the columns of 2**58 trials need 2**62 bytes, more than any address
        # space holds, so the allocation fails at once under every overcommit
        # policy (10**11 trials fail the same way on a machine without
        # 1.6 TB to spare)
        path = tmp_path / "f.csv"
        trials = 2**58
        code, out, err = run_cli(
            capsys, "mc-info", "--sources", "1", "--copies", "2", f"--trials={trials}",
            "--output", str(path),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--trials {trials} needs more than the limit of {cli.BYTE_LIMIT} bytes" in err
        assert "Traceback" not in err
        assert not path.exists()

    def test_oversized_trials_is_refused_before_any_allocation(self, capsys, monkeypatch):
        # one trial past the limit is refused from the count alone: no trial
        # is drawn and no column is allocated
        def no_trials(run, fidelity):
            raise AssertionError("trials were drawn past the byte limit")

        def no_column(*args, **kwargs):
            raise AssertionError("the fidelity column was allocated past the byte limit")

        monkeypatch.setattr(measurement, "trial_blocks", no_trials)
        monkeypatch.setattr(cli.np, "empty", no_column)
        trials = cli.BYTE_LIMIT // measurement.BYTES_PER_TRIAL + 1
        code, out, err = run_cli(
            capsys, "mc-gauss", "--sources", "2", "--copies", "2", f"--trials={trials}")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (f"error: --trials {trials} needs more than the limit of {cli.BYTE_LIMIT} "
                       f"bytes ({measurement.BYTES_PER_TRIAL} per trial)\n")

    def test_trials_at_the_byte_limit_run(self, capsys, monkeypatch):
        # the limit is inclusive: at a limit of 1000 trials, 1000 run and 1001 do not
        monkeypatch.setattr(cli, "BYTE_LIMIT", 1000 * measurement.BYTES_PER_TRIAL)
        argv = ["mc-info", "--sources", "1", "--copies", "2", "--seed", "4"]
        code, out, _ = run_cli(capsys, *argv, "--trials", "1000")
        assert code in (EXIT_OK, EXIT_GATE)
        assert json.loads(out)["trials"] == 1000
        code, out, err = run_cli(capsys, *argv, "--trials", "1001")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--trials 1001" in err

    @pytest.mark.parametrize("kind", ["file", "symlink", "fifo"])
    def test_failed_run_leaves_an_existing_output_path(self, capsys, tmp_path, kind):
        # only a file the command created is removed when it fails; a path
        # that was there before (a device such as /dev/null, say) stays
        path, target = tmp_path / "out", tmp_path / "target.csv"
        reader = None
        if kind == "file":
            path.write_text("kept\n")
        elif kind == "symlink":
            target.write_text("kept\n")
            path.symlink_to(target)
        else:
            if not hasattr(os, "mkfifo"):
                pytest.skip("no FIFOs on this platform")
            os.mkfifo(path)
            # a reader lets the command open the FIFO for writing at once
            reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, out, err = run_cli(
                capsys, "mc-info", "--sources", "1", "--copies", "2", f"--trials={2**58}",
                "--output", str(path),
            )
        finally:
            if reader is not None:
                os.close(reader)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--trials" in err
        assert os.path.lexists(path)
        if kind == "symlink":
            assert path.is_symlink() and target.exists()
        if kind == "fifo":
            assert stat.S_ISFIFO(os.lstat(path).st_mode)

    def test_odd_split_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "mc-gauss", "--sources", "1", "--copies", "3", "--trials", "100"
        )
        assert code == EXIT_USAGE
        assert "even" in err

    def test_relative_output_is_taken_from_working_directory(self, capsys, tmp_path,
                                                            monkeypatch):
        env_dir, work_dir = tmp_path / "env", tmp_path / "work"
        env_dir.mkdir()
        work_dir.mkdir()
        # no environment variable moves a relative path
        monkeypatch.setenv("INFOCLONE_OUTPUT_DIR", str(env_dir))
        monkeypatch.chdir(work_dir)
        code, _, _ = run_cli(
            capsys,
            "mc-info",
            "--sources", "1",
            "--copies", "2",
            "--trials", "100",
            "--seed", "1",
            "--output", "samples.csv",
        )
        assert code == EXIT_OK
        assert (work_dir / "samples.csv").exists()
        assert os.listdir(env_dir) == []


class TestPinnedStream:
    """Literal ``%.17g`` estimates of the first and last trial, and the
    reported exponent, for fixed seeds: any change to the draw, the
    quadrature standard deviation or the rescaling shows here.  (2, 4) is a
    Gaussian case whose standard deviation differs in its last bit when it
    is computed as sqrt(float((A+2)/A)) instead of from float(A).  The F
    column is left out: it goes through numpy's vectorised ``exp``."""

    @pytest.mark.parametrize("command,sources,copies,seed,first,last,exponent", [
        ("mc-info", 1, 2, 11, ("1.111648806928023", "-1.6360953499161879"),
         ("1.1573310472207023", "-1.3497546618750209"), "1"),
        ("mc-info", 4, 16, 12, ("1.0013809605049007", "-0.89531552916469292"),
         ("0.51620489227612198", "-1.2493531270572653"), "4"),
        ("mc-info", 1, 3, 15, ("0.28266391565346494", "-1.2432026430437273"),
         ("1.1798090060472208", "-0.90781055853888337"), "1"),
        ("mc-gauss", 2, 2, 13, ("0.072388019476313931", "-1.8388784620881486"),
         ("0.78189895335103798", "-1.6072708440695906"), "1.3333333333333333"),
        ("mc-gauss", 2, 4, 14, ("0.62032418582742643", "-0.44258519782091643"),
         ("0.01133456565590984", "-1.0854083202620233"), "2.2857142857142856"),
    ], ids=["info-1-2", "info-4-16", "info-1-3", "gauss-2-2", "gauss-2-4"])
    def test_first_and_last_estimates(self, capsys, tmp_path, command, sources, copies,
                                      seed, first, last, exponent):
        path = tmp_path / "samples.csv"
        code, out, _ = run_cli(
            capsys, command, f"--sources={sources}", f"--copies={copies}", "--trials=5000",
            f"--seed={seed}", "--alpha=0.3,-1.1", f"--output={path}",
        )
        assert code == EXIT_OK
        rows = path.read_text().splitlines()
        assert len(rows) == 5001
        assert tuple(rows[1].split(",")[1:3]) == first
        assert tuple(rows[-1].split(",")[1:3]) == last
        assert "%.17g" % json.loads(out)["reference_cdf_exponent"] == exponent


class TestPinnedRun:
    """Literal summary stdout and the sha256 of the whole samples CSV of one
    run per scheme.  3*TRIAL_BATCH + 5 trials cover several full batches and
    a partial last one, so a change to how the driver fills its columns, or
    to how the summary sorts, bins and scans the fidelities, shows here in
    every byte, the F column included."""

    @pytest.mark.parametrize("argv,stdout,digest", [
        (["mc-info", "--sources=1", "--copies=2", "--seed=2024", "--alpha=0.7,-0.4"],
         '{"schema_version": 3, "scheme": "info_cloning", "alpha_true": [0.7, -0.4], '
         '"sources": 1, "copies": 2, "trials": 12293, "seed": 2024, '
         '"reference_cdf_exponent": 1.0, "mean": 0.5003184790612104, "variance": '
         '0.08438703568534416, "ks_statistic": 0.006396613890401109, "ks_critical_5pct": '
         '0.012249049037407506, "ks_pass": true, "histogram": {"bin_edges": [0.0, 0.02, '
         '0.04, 0.06, 0.08, 0.1, 0.12, 0.14, 0.16, 0.18, 0.2, 0.22, 0.24, 0.26, 0.28, 0.3, '
         '0.32, 0.34, 0.36, 0.38, 0.4, 0.42, 0.44, 0.46, 0.48, 0.5, 0.52, 0.54, 0.56, 0.58, '
         '0.6, 0.62, 0.64, 0.66, 0.68, 0.7000000000000001, 0.72, 0.74, 0.76, 0.78, 0.8, '
         '0.8200000000000001, 0.84, 0.86, 0.88, 0.9, 0.92, 0.9400000000000001, 0.96, 0.98, '
         '1.0], "counts": [256, 224, 253, 269, 257, 255, 264, 250, 230, 266, 221, 242, 229, '
         '228, 252, 237, 263, 227, 240, 247, 211, 281, 244, 237, 276, 259, 228, 249, 249, '
         '245, 229, 259, 247, 227, 241, 217, 230, 236, 264, 250, 258, 233, 275, 219, 236, '
         '257, 258, 254, 257, 257]}}\n',
         "7b19cc6fa4834b12eeaf33c141698e0c0c1f8701a033dfe5214225f201ffff67"),
        (["mc-gauss", "--sources=2", "--copies=4", "--seed=2025", "--alpha=-1.2,0.3"],
         '{"schema_version": 3, "scheme": "gaussian", "alpha_true": [-1.2, 0.3], "sources": '
         '2, "copies": 4, "trials": 12293, "seed": 2025, "reference_cdf_exponent": '
         '2.2857142857142856, "mean": 0.6969164190910108, "variance": 0.05039129402333876, '
         '"ks_statistic": 0.01178027886947497, "ks_critical_5pct": 0.012249049037407506, '
         '"ks_pass": true, "histogram": {"bin_edges": [0.0, 0.02, 0.04, 0.06, 0.08, 0.1, '
         '0.12, 0.14, 0.16, 0.18, 0.2, 0.22, 0.24, 0.26, 0.28, 0.3, 0.32, 0.34, 0.36, 0.38, '
         '0.4, 0.42, 0.44, 0.46, 0.48, 0.5, 0.52, 0.54, 0.56, 0.58, 0.6, 0.62, 0.64, 0.66, '
         '0.68, 0.7000000000000001, 0.72, 0.74, 0.76, 0.78, 0.8, 0.8200000000000001, 0.84, '
         '0.86, 0.88, 0.9, 0.92, 0.9400000000000001, 0.96, 0.98, 1.0], "counts": [2, 11, '
         '12, 18, 24, 31, 41, 36, 57, 87, 72, 96, 104, 106, 110, 116, 158, 140, 158, 167, '
         '167, 188, 204, 228, 235, 231, 240, 233, 268, 281, 282, 294, 359, 332, 316, 359, '
         '326, 364, 420, 376, 475, 452, 441, 485, 503, 484, 495, 562, 546, 601]}}\n',
         "cb51601c60ae5797aded3e6b707d48e29cf110ac972e2feb888f4e840ec86ddc"),
    ], ids=["info-1-2", "gauss-2-4"])
    def test_stdout_and_samples_digest(self, capsys, tmp_path, argv, stdout, digest):
        assert 3 * measurement.TRIAL_BATCH + 5 == 12293
        path = tmp_path / "samples.csv"
        code, out, _ = run_cli(capsys, *argv, "--trials=12293", f"--output={path}")
        assert code == EXIT_OK
        assert out == stdout
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestStreamedRun:
    """The Monte Carlo commands draw a run one block of ``BLOCK_TRIALS``
    trials at a time and write each block's rows before the next is drawn.
    Their samples CSV and summary must be, bit for bit, those of the whole
    run's columns."""

    @settings(max_examples=12, deadline=None)
    @given(
        trials=st.integers(2, 5 * BLOCK_TRIALS + 7),
        seed=st.integers(0, 2**64 - 1),
        command=st.sampled_from(["mc-info", "mc-gauss"]),
    )
    @example(trials=2, seed=0, command="mc-info")
    @example(trials=BLOCK_TRIALS, seed=1, command="mc-gauss")
    @example(trials=BLOCK_TRIALS + 1, seed=2, command="mc-info")
    @example(trials=2 * BLOCK_TRIALS + TRIAL_BATCH + 3, seed=3, command="mc-gauss")
    @example(trials=5 * BLOCK_TRIALS + 7, seed=4, command="mc-info")
    def test_csv_and_summary_are_those_of_the_whole_run(self, trials, seed, command):
        scheme = INFO_SCHEME if command == "mc-info" else GAUSS_SCHEME
        stdout = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "samples.csv"
            with contextlib.redirect_stdout(stdout):
                code = main([command, "--sources=2", "--copies=2", f"--trials={trials}",
                             f"--seed={seed}", "--alpha=0.3,-1.1", f"--output={path}"])
            written = path.read_bytes()
        assert code in (EXIT_OK, EXIT_GATE)

        run = FidelityRun(0.3 - 1.1j, 2, 2, trials, seed=seed, scheme=scheme)
        estimates, fidelity = draw(run)
        expected = io.StringIO()
        _csvwrite.write_csv(expected, "trial,re_est,im_est,F", [[
            range(trials), estimates.real, estimates.imag, fidelity]])
        assert written == expected.getvalue().encode()
        summary = summarize(fidelity.copy(), fidelity_cdf(fidelity_exponent(scheme, 2, 2)))
        payload = json.loads(stdout.getvalue())
        assert (payload["mean"], payload["variance"], payload["ks_statistic"]) == (
            summary.mean, summary.variance, summary.ks_statistic)
        assert payload["histogram"]["counts"] == summary.counts.tolist()

        # the first whole batches of a run are the shorter run
        batches = trials - trials % TRIAL_BATCH
        if batches:
            short = draw(FidelityRun(0.3 - 1.1j, 2, 2, batches, seed=seed, scheme=scheme))
            assert np.array_equal(short[0], estimates[:batches])
            assert np.array_equal(short[1], fidelity[:batches])


class TestMemory:
    FIXED_BYTES = 16_384

    @pytest.mark.parametrize("command,output", [
        ("mc-info", []), ("mc-gauss", []), ("mc-gauss", ["--output", os.devnull]),
    ], ids=["info", "gauss", "gauss-samples-csv"])
    def test_peak_grows_by_bytes_per_trial(self, capsys, command, output):
        # the fidelity column, 8 bytes per trial; the estimate block, the
        # variance's, the summary's and the renderer's scratch do not grow
        # with the trial count, so between two counts where the column
        # dominates the traced peak grows by BYTES_PER_TRIAL per trial.  The
        # two peaks also differ by bytes that do not scale with the count:
        # the samples CSV's varied by up to 4.4 KB between repeats of the
        # same two runs.  FIXED_BYTES allows that once in total, not per trial
        assert measurement.BYTES_PER_TRIAL == 8
        argv = [command, "--sources=2", "--copies=2", "--seed=3", *output]
        main([*argv, "--trials=1000"])  # the parser and the renderer's tables
        counts = (400_000, 1_600_000)
        runs = [[*argv, f"--trials={trials}"] for trials in counts]
        peaks = []
        for run in runs:
            capsys.readouterr()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert main(run) in (EXIT_OK, EXIT_GATE)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        slope = (peaks[1] - peaks[0]) / (counts[1] - counts[0])
        fixed = self.FIXED_BYTES / (counts[1] - counts[0])
        assert measurement.BYTES_PER_TRIAL / 2 < slope <= measurement.BYTES_PER_TRIAL + fixed

    def test_column_is_freed_on_return(self, capsys):
        # by reference counting: a column held in a reference cycle would stay
        # until the collector ran, and add to the next command's peak
        argv = ["mc-info", "--sources=2", "--copies=2", "--seed=3"]
        main([*argv, "--trials=1000"])
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main([*argv, "--trials=400000"]) in (EXIT_OK, EXIT_GATE)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            gc.enable()
        assert kept < 400_000 * measurement.BYTES_PER_TRIAL / 8

    @pytest.mark.parametrize("argv,sizes,unit_bytes", [
        (("pdf", "--scheme=gauss", "--sources=1", "--copies=2", "--grid={}"),
         (100_000, 400_000), "PDF_BYTES_PER_POINT"),
        *((("clone", "--alpha=1.3,-0.7", "--copies={}", f"--format={fmt}"),
           (20_000, 80_000), "CLONE_BYTES_PER_COPY") for fmt in ("json", "csv", "text")),
        *((("fock-verify", "--alpha=0.3,0.1", "--copies=2", "--truncation={}", *dump),
           (30, 48), "FOCK_BYTES_PER_STATE_MODE") for dump in ([], ["--dump", os.devnull])),
        (("fock-verify", "--alpha=0.3,0.1", "--copies=1", "--truncation={}", "--dump", os.devnull),
         (60, 181), "FOCK_BYTES_PER_STATE_MODE"),
    ], ids=["pdf", "clone-json", "clone-csv", "clone-text", "fock-verify", "fock-verify-dump",
            "fock-verify-2-modes-dump"])
    def test_byte_guard_bounds_the_peak(self, capsys, argv, sizes, unit_bytes):
        # the bytes the guard counts are an upper bound on the traced peak;
        # fock-verify counts its simplex states times the modes, and builds
        # its occupation table as a fresh process does, not from the cache
        main([a.format(sizes[0]) for a in argv])  # the parser and the renderer's tables
        modes = 1 + int(argv[2].removeprefix("--copies=")) if argv[0] == "fock-verify" else 0
        for size in sizes:
            capsys.readouterr()
            fock_oracle.mode_occupations.cache_clear()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert main([a.format(size) for a in argv]) == EXIT_OK
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            count = math.comb(size - 1 + modes, modes) * modes if modes else size
            assert peak <= count * getattr(cli, unit_bytes)
            if modes:  # and within 2x, which clone text is not
                assert count * getattr(cli, unit_bytes) <= 2 * peak


class TestPinnedOracle:
    """Literal ``fock-verify`` JSON for one, two and three targets, and the
    sha256 of one amplitude dump: any change to the generator, the order in
    which the propagator adds its products, the angle reduction or the norm
    of the couplings shows here.  The two-target network turns by 3*pi/2 and
    the three-target one by 3*hypot(0.9, 1.2, 0.7), about 4.97, both beyond
    pi, so they run at the angle reduced by atan2 of its sine and cosine;
    the one-target network turns by 0.88 and runs unreduced.  The series
    radius is (levels - 1) times the reduced config's |rotation_angle|; for
    the three-target network that differs in the last bit from
    (levels - 1) * |time| * r, and its infidelity and dump show which one
    was taken."""

    NETWORKS = {
        "one-target": ["--r=0.8", "--delta=0.3", "--time=1.1", "--alpha=0.5,-0.3",
                       "--beta=0.2,0.1", "--truncation=14"],
        "two-targets": ["--copies=2", "--alpha=0.6,0.2", "--truncation=16"],
        "three-targets": ["--r=0.9,1.2,0.7", "--delta=0.4,-1.0,2.0", "--time=3.0",
                          "--alpha=0.4,0.1", "--beta=0,0.1;-0.1,0", "--truncation=10"],
    }

    @pytest.mark.parametrize("network,stdout", [
        ("one-target", '{"schema_version": 3, "truncation": 14, "dim": 105, '
         '"infidelity": 8.881784197001252e-16, "gate": 1e-06, "predicted": '
         '[[0.4886154582966947, -0.16306762835440983], '
         '[-0.3090579322925032, 0.1707251504127658]]}\n'),
        ("two-targets", '{"schema_version": 3, "truncation": 16, "dim": 816, '
         '"infidelity": 2.220446049250313e-16, "gate": 1e-06, "predicted": '
         '[[-1.1021821192326178e-16, -3.6739403974420595e-17], '
         '[0.42426406871192845, 0.1414213562373095], '
         '[0.42426406871192845, 0.1414213562373095]]}\n'),
        ("three-targets", '{"schema_version": 3, "truncation": 10, "dim": 715, '
         '"infidelity": 2.842170943040401e-14, "gate": 1e-06, "predicted": '
         '[[0.11773622211428879, 0.03565290897618696], '
         '[0.17843715689673673, 0.23741726588949863], '
         '[0.12099501508205224, -0.2033125706871958], '
         '[-0.11088696214358267, 0.13560443035675737]]}\n'),
    ], ids=["one-target", "two-targets", "three-targets"])
    def test_json_stdout(self, capsys, network, stdout):
        code, out, _ = run_cli(capsys, "fock-verify", *self.NETWORKS[network], "--format=json")
        assert code == EXIT_OK
        assert out == stdout

    @pytest.mark.parametrize("network", NETWORKS)
    def test_json_is_the_verify_disentanglement_tuple(self, capsys, monkeypatch, network):
        calls = {}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.setdefault(name, []).append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
            return original

        verify = counting(fock_oracle, "verify_disentanglement")
        for name in ("check_truncation", "evolve_product_state", "disentanglement_infidelity"):
            counting(fock_oracle, name)
        # fock_oracle holds its own name for it, so only direct calls count
        counting(phase_space, "build_transfer")
        code, out, _ = run_cli(capsys, "fock-verify", *self.NETWORKS[network], "--format=json")
        assert code == EXIT_OK
        assert {name: len(args) for name, args in calls.items()} == {
            "check_truncation": 1, "verify_disentanglement": 1,
            "evolve_product_state": 1, "disentanglement_infidelity": 1,
        }
        predicted, evolved, infidelity = verify(*calls["verify_disentanglement"][0])
        payload = json.loads(out)
        assert payload["infidelity"] == infidelity
        assert payload["dim"] == evolved.size
        assert payload["predicted"] == [[z.real, z.imag] for z in predicted]

    def test_dump_digest(self, capsys, tmp_path):
        path = tmp_path / "amplitudes.csv"
        code, _, _ = run_cli(capsys, "fock-verify", *self.NETWORKS["three-targets"],
                             f"--dump={path}")
        assert code == EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2535804e8a9077ae3de1973ee8b3203786258150d6b6dd0c517a4093c49bab6f"
        )


class TestPdf:
    @pytest.mark.parametrize("grid", ["0", "1", "-5"])
    def test_grid_below_two_is_usage_error(self, capsys, grid):
        code, out, err = run_cli(
            capsys, "pdf", "--scheme", "info", "--sources", "1", f"--grid={grid}"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--grid" in err

    @pytest.mark.parametrize("copies", ["0", "-4"])
    def test_non_positive_copies_is_usage_error(self, capsys, copies):
        # the info law ignores the copy count, but a given one must be valid,
        # as for mc-info
        code, out, err = run_cli(
            capsys, "pdf", "--scheme=info", "--sources=2", f"--copies={copies}", "--grid=5"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "copies must be a positive integer" in err

    def test_info_single_source_is_flat(self, capsys):
        code, out, _ = run_cli(capsys, "pdf", "--scheme", "info", "--sources", "1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "F,p"
        densities = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert np.array_equal(densities, np.ones(densities.size))

    def test_gauss_half_exponent_curve(self, capsys):
        code, out, _ = run_cli(
            capsys, "pdf", "--scheme", "gauss", "--sources", "1", "--copies", "2"
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        grid = np.array([float(row[0]) for row in rows])
        densities = np.array([float(row[1]) for row in rows])
        np.testing.assert_allclose(densities, 0.5 * grid**-0.5, rtol=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--scheme", "info", "--sources", "1"),
            ("--scheme", "info", "--sources", "4"),
            ("--scheme", "gauss", "--sources", "1", "--copies", "2"),
            ("--scheme", "gauss", "--sources", "2", "--copies", "4"),
        ],
    )
    def test_curve_integrates_to_one(self, capsys, argv):
        code, out, _ = run_cli(capsys, "pdf", *argv)
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 10000
        grid = np.array([float(row[0]) for row in rows])
        densities = np.array([float(row[1]) for row in rows])
        assert abs(np.trapezoid(densities, grid) - 1.0) < 1e-4

    def test_gauss_requires_copies(self, capsys):
        code, _, err = run_cli(capsys, "pdf", "--scheme", "gauss", "--sources", "1")
        assert code == EXIT_USAGE
        assert "copies" in err


class TestTable:
    def test_default_cases_exact(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "json")
        assert code == EXIT_OK
        assert out == (
            '{"schema_version": 3, "rows": [{"sources": 1, "copies": 2, '
            '"gaussian_mean": 0.3333333333333333, "gaussian_mean_fraction": "1/3", '
            '"info_mean": 0.5, "info_mean_fraction": "1/2"}, {"sources": 1, "copies": 4, '
            '"gaussian_mean": 0.4444444444444444, "gaussian_mean_fraction": "4/9", '
            '"info_mean": 0.5, "info_mean_fraction": "1/2"}, {"sources": 2, "copies": 2, '
            '"gaussian_mean": 0.5714285714285714, "gaussian_mean_fraction": "4/7", '
            '"info_mean": 0.6666666666666666, "info_mean_fraction": "2/3"}, '
            '{"sources": 2, "copies": 4, "gaussian_mean": 0.6956521739130435, '
            '"gaussian_mean_fraction": "16/23", "info_mean": 0.6666666666666666, '
            '"info_mean_fraction": "2/3"}]}\n'
        )
        rows = json.loads(out)["rows"]
        expected = [
            (1, 2, "1/3", "1/2"),
            (1, 4, "4/9", "1/2"),
            (2, 2, "4/7", "2/3"),
            (2, 4, "16/23", "2/3"),
        ]
        for row, (m, n, gauss, info) in zip(rows, expected):
            assert (row["sources"], row["copies"]) == (m, n)
            assert row["gaussian_mean_fraction"] == gauss
            assert row["info_mean_fraction"] == info

    def test_text_mode_renders_fractions(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == EXIT_OK
        assert "1/3" in out and "16/23" in out and "2/3" in out

    def test_single_copy_rows_rejected(self, capsys):
        code, _, err = run_cli(capsys, "table", "--cases", "1,1")
        assert code == EXIT_USAGE
        assert "amplification" in err

    def test_info_column_constant_in_copies(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--cases", "2,2;2,4;2,8", "--format", "json"
        )
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert len({row["info_mean"] for row in rows}) == 1

    def test_csv_schemas(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "sources,copies,gaussian_mean,info_mean"
        assert float(lines[1].split(",")[2]) == pytest.approx(1.0 / 3.0, abs=1e-15)

        code, out, _ = run_cli(capsys, "transfer", "--copies", "1", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "row,col,re,im"

        code, out, _ = run_cli(
            capsys, "clone", "--alpha", "1,0", "--copies", "2", "--format", "csv"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "mode,re,im"
        assert len(lines) == 4


class TestUnwritableOutput:
    def test_samples_csv_fails_before_any_trial(self, capsys, tmp_path, monkeypatch):
        def no_trials(run, fidelity):
            raise AssertionError("trials were drawn before the output was opened")

        monkeypatch.setattr(measurement, "trial_blocks", no_trials)
        code, out, err = run_cli(
            capsys, "mc-info", "--sources", "1", "--copies", "2", "--trials", "1000000",
            "--output", str(tmp_path),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert str(tmp_path) in err

    def test_density_csv(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "pdf", "--scheme", "info", "--sources", "1", "--output", str(tmp_path)
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert str(tmp_path) in err

    def test_amplitude_dump(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "fock-verify", "--copies", "2", "--alpha", "0.3,0", "--truncation", "6",
            "--dump", str(tmp_path),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert str(tmp_path) in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ("pdf", "--scheme", "info", "--sources", "1", "--output", "/dev/full"),
        ("mc-info", "--sources", "1", "--copies", "2", "--trials", "100",
         "--output", "/dev/full"),
        ("fock-verify", "--copies", "2", "--alpha", "0.3,0", "--truncation", "6",
         "--dump", "/dev/full"),
        ("transfer", "--copies", "2", "--format", "json", "--output", "/dev/full"),
    ], ids=["pdf", "samples", "dump", "transfer-json"])
    def test_failed_write_is_usage_error(self, capsys, argv):
        # /dev/full opens but every write fails with ENOSPC
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert err == "error: cannot write '/dev/full': No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ("pdf", "--scheme", "info", "--sources", "1"),
        ("table",),
        ("mc-info", "--sources", "1", "--copies", "2", "--trials", "100"),
    ], ids=["pdf", "table", "mc-info"])
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_failed_stdout_write_is_usage_error(self, argv, unbuffered):
        # a process of its own, so that what stdout still buffers meets the
        # flush at interpreter exit, which must not fail again (exit 120); a
        # small table fails only at its flush
        src = Path(cli.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "infoclone.cli", *argv], stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=120,
                                  env={**env, "PYTHONPATH": str(src)})
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: cannot write standard output: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv,to_full", [
        # the report's path sits under a regular file, after the dump is written
        (("fock-verify", "--copies", "2", "--alpha", "0.6,0", "--truncation", "10",
          "--dump", "{tmp}/dump.csv", "--output", "{tmp}/file/x.json"), False),
        # the summary fails on stdout after the samples CSV is written
        (("mc-info", "--sources", "1", "--copies", "2", "--trials", "1000",
          "--output", "{tmp}/samples.csv"), True),
        # the dump's parent directory is missing: no directory is created
        (("fock-verify", "--copies", "2", "--alpha", "0.6,0", "--truncation", "10",
          "--dump", "{tmp}/newdir/sub/d.csv", "--output", "/dev/full"), False),
    ], ids=["dump", "samples", "missing-parent"])
    def test_failed_command_removes_the_files_it_created(self, tmp_path, argv, to_full):
        (tmp_path / "file").write_text("kept\n")
        src = Path(cli.__file__).resolve().parents[1]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "infoclone.cli", *(a.format(tmp=tmp_path) for a in argv)],
                stdout=full if to_full else subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("error: cannot write")
        assert sorted(os.listdir(tmp_path)) == ["file"]
        assert (tmp_path / "file").read_text() == "kept\n"


class TestParser:
    def test_built_once_per_process(self, capsys):
        cli.build_parser.cache_clear()
        outputs = [run_cli(capsys, "table", "--format", "json") for _ in range(3)]
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert outputs[0][0] == EXIT_OK
        assert outputs[0] == outputs[1] == outputs[2]

    def test_a_valid_command_is_parsed_once(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser parsed a valid command")

        monkeypatch.setattr(cli.build_parser(), "parse_args", refuse)
        code, out, _ = run_cli(capsys, "transfer", "--copies=2", "--format=json")
        assert code == EXIT_OK
        assert json.loads(out)["dim"] == 3

    @pytest.mark.parametrize("argv", [
        (), ("bogus",), ("-x", "transfer"), ("transfer", "extra"),
        ("transfer", "--copies=2", "extra"), ("transfer", "--bogus"), ("transfer", "--copies=x"),
    ], ids=lambda argv: " ".join(argv) or "no argv")
    def test_usage_errors_match_the_top_level_parse(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        expected = capsys.readouterr()
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (exc.value.code, expected.out, expected.err)
        assert code == EXIT_USAGE and "error:" in err


class TestUsage:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["bogus"]) == EXIT_USAGE

    def test_bad_complex_flag_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "clone", "--alpha", "nope", "--copies", "2")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv,message", [
        (("transfer", "--r", "1,x", "--time", "1"), "expected comma-separated numbers, got '1,x'"),
        (("table", "--cases", "1"), "expected 'M,N' pairs, got '1'"),
        (("table", "--cases", ";"), "expected 'M,N' pairs, got ''"),
        (("table", "--cases=1,2;"), "expected 'M,N' pairs, got ''"),
        (("transfer", "--r=1,,2", "--time=1"), "expected comma-separated numbers, got '1,,2'"),
        (("transfer", "--r=1,2,", "--time=1"), "expected comma-separated numbers, got '1,2,'"),
        (("transfer", "--r=", "--time=1"), "expected comma-separated numbers, got ''"),
        (("transfer", "--r=1,2", "--delta=0,", "--time=1"),
         "expected comma-separated numbers, got '0,'"),
        (("fock-verify", "--alpha=0.1,0", "--r=1,1", "--time=1", "--beta=0.1,0;;"),
         "expected 're,im', got ''"),
        (("transfer", "--copies", "2", "--r", "1", "--time", "1"),
         "give either --copies or --r, not both"),
        (("transfer", "--copies", "0"), "need at least one copy"),
        (("transfer", "--copies=-2", "--time=1"), "need at least one copy"),
        (("transfer",), "specify --copies or --r with --time"),
        (("transfer", "--r", "1"), "--time is required with --r"),
        (("clone", "--alpha", "1,0", "--copies", "0"), "need at least one copy"),
        (("fock-verify", "--alpha", "0.1,0", "--copies", "1", "--beta", "0,0;0,0"),
         "more --beta values than target modes"),
        (("mc-info", "--sources", "0", "--copies", "2", "--trials", "10"),
         "sources must be a positive integer"),
    ], ids=lambda value: " ".join(value) if isinstance(value, tuple) else None)
    def test_usage_error_names_the_problem(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err
