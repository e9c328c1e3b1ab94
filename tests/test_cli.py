import hashlib
import json
import math
import time
import warnings

import numpy as np
import pytest

from infoclone import cli, fock_oracle, measurement, phase_space
from infoclone.cli import EXIT_GATE, EXIT_OK, EXIT_USAGE, SCHEMA_VERSION, main
from infoclone.measurement import GAUSS_SCHEME, FidelityRun, run_trials
from infoclone.phase_space import CoherentParams, info_overlap_fidelity


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

    def test_budget_exceeded_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "fock-verify",
            "--copies", "3",
            "--alpha", "0.5,0",
            "--truncation", "30",
        )
        assert code == EXIT_USAGE  # C(33, 4) = 40920 > 20000
        assert "budget" in err

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

    @pytest.mark.parametrize("gate", ["0", "-1e-6", "nan"])
    def test_non_positive_gate_is_usage_error(self, capsys, gate):
        code, out, err = run_cli(
            capsys, "fock-verify", "--alpha", "0.6,0", "--copies", "2", f"--gate={gate}"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "gate" in err

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
        evolved = fock_oracle.FockVector(3, 9, rows[:, -2] + 1j * rows[:, -1])
        predicted = CoherentParams([complex(re, im) for re, im in payload["predicted"]])
        assert fock_oracle.disentanglement_infidelity(predicted, evolved) == payload["infidelity"]

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

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_usage_error(self, capsys, budget):
        code, out, err = run_cli(
            capsys, "fock-verify", "--alpha", "0.1,0", "--copies", "2", f"--budget={budget}"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--budget" in err

    def test_non_finite_time_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "fock-verify", "--copies", "2", "--alpha=0.5,0", "--time", "inf"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "time must be finite" in err


class TestStrictInput:
    """Inputs without a meaningful answer exit 2; JSON output is strict."""

    def test_huge_clone_alpha_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "clone", "--copies", "2", "--alpha=1e200,0")
        assert code == EXIT_USAGE
        assert out == ""
        assert "alpha" in err and "not finite" in err

    @pytest.mark.parametrize("command", [("transfer",), ("fock-verify", "--alpha=0.1,0")])
    def test_overflowing_total_coupling_is_usage_error(self, capsys, command):
        # sqrt(sum r**2) overflows: exit 2 naming --r, with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *command, "--r", "1e200", "--time", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--r" in err

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
        samples = run_trials(
            FidelityRun(complex(-0.4, 1.3), 2, 2, 5000, seed=12, scheme=GAUSS_SCHEME)
        )
        assert np.array_equal(table[:, 0], np.arange(5000))
        assert np.array_equal(table[:, 1], samples.estimates.real)
        assert np.array_equal(table[:, 2], samples.estimates.imag)
        assert np.array_equal(table[:, 3], samples.fidelity)

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

    def test_odd_split_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "mc-info", "--sources", "1", "--copies", "3", "--trials", "100"
        )
        assert code == EXIT_USAGE
        assert "even" in err

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("INFOCLONE_OUTPUT_DIR", str(tmp_path))
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
        assert (tmp_path / "samples.csv").exists()


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
        ("mc-gauss", 2, 2, 13, ("0.072388019476313931", "-1.8388784620881486"),
         ("0.78189895335103798", "-1.6072708440695906"), "1.3333333333333333"),
        ("mc-gauss", 2, 4, 14, ("0.62032418582742643", "-0.44258519782091643"),
         ("0.01133456565590984", "-1.0854083202620233"), "2.2857142857142856"),
    ], ids=["info-1-2", "info-4-16", "gauss-2-2", "gauss-2-4"])
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


class TestPinnedOracle:
    """Literal ``fock-verify`` JSON for one, two and three targets, and the
    sha256 of one amplitude dump: any change to the generator, the order in
    which the propagator adds its products, or the angle reduction shows
    here.  The three-target network turns by 3*sqrt(2.74), about 4.97 > pi,
    so it runs at the reduced angle."""

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
         '"infidelity": 8.881784197001252e-16, "gate": 1e-06, "predicted": '
         '[[-1.1021821192326178e-16, -3.6739403974420595e-17], '
         '[0.42426406871192845, 0.1414213562373095], '
         '[0.42426406871192845, 0.1414213562373095]]}\n'),
        ("three-targets", '{"schema_version": 3, "truncation": 10, "dim": 715, '
         '"infidelity": 2.842170943040401e-14, "gate": 1e-06, "predicted": '
         '[[0.11773622211428879, 0.03565290897618696], '
         '[0.17843715689673673, 0.23741726588949863], '
         '[0.12099501508205224, -0.2033125706871958], '
         '[-0.11088696214358267, 0.13560443035675737]]}\n'),
    ])
    def test_json_stdout(self, capsys, network, stdout):
        code, out, _ = run_cli(capsys, "fock-verify", *self.NETWORKS[network], "--format=json")
        assert code == EXIT_OK
        assert out == stdout

    def test_dump_digest(self, capsys, tmp_path):
        path = tmp_path / "amplitudes.csv"
        code, _, _ = run_cli(capsys, "fock-verify", *self.NETWORKS["three-targets"],
                             f"--dump={path}")
        assert code == EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9dae285c2897ddb25251a271dc851d4a45147d5db053281d26561af6f66598f7"
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
        def no_trials(run):
            raise AssertionError("trials were drawn before the output was opened")

        monkeypatch.setattr(measurement, "run_trials", no_trials)
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


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        original, builds = cli.build_parser, []

        def counting():
            builds.append(1)
            return original()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting)
        try:
            outputs = [run_cli(capsys, "table", "--format", "json") for _ in range(3)]
        finally:
            cli._parser.cache_clear()
        assert builds == [1]
        assert outputs[0][0] == EXIT_OK
        assert outputs[0] == outputs[1] == outputs[2]


class TestUsage:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["bogus"]) == EXIT_USAGE

    def test_bad_complex_flag_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "clone", "--alpha", "nope", "--copies", "2")
        assert code == EXIT_USAGE
