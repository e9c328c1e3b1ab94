"""Command-line front end.

Subcommands build transfer matrices, report clone parameters, run the
truncated-basis verifier, drive Monte Carlo fidelity experiments, emit the
closed-form fidelity densities, and print the scheme-comparison table.
``mc-info`` and ``mc-gauss`` run the same code and differ only by the scheme
their parser sets; ``pdf --scheme`` picks the law F**c the same way.

Exit codes: 0 when every internal gate passes, 2 for invalid configuration,
3 when a numeric or statistical gate fails.  All output is deterministic for
a fixed seed, and every JSON output is strict (no NaN or infinity).

``fock-verify --truncation d`` keeps every occupation tuple whose total
excitation is at most d - 1 (the simplex), which the network maps into
itself.  ``mc-info`` and ``mc-gauss`` write each block of samples-CSV rows as
soon as it is drawn and keep only the fidelity column for the summary.  The
parser is built once per process, on first use.

Inputs that cannot give a meaningful answer, a command whose bytes counted
from its arguments exceed ``BYTE_LIMIT``, and a failed write exit 2: the
README's "Inputs that cannot give a meaningful answer" lists them all.  A
command that fails removes every output file it created, never a path that
existed before.  The README's "File schemas (version 3)" describes every
file and JSON object the commands write.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from contextlib import contextmanager, nullcontext, suppress

import numpy as np

from . import _csvwrite, fock_oracle, measurement, phase_space

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GATE = 3
SCHEMA_VERSION = 3
PDF_GRID_FLOOR = 1e-12
DEFAULT_TABLE_CASES = "1,2;1,4;2,2;2,4"
PDF_SCHEMES = {"info": measurement.INFO_SCHEME, "gauss": measurement.GAUSS_SCHEME}
# Bytes per entry of the (n+1)x(n+1) transfer matrix, its output included: above
# the tracemalloc peaks at n = 100 and 300 (JSON 204-345, CSV 168-171, text
# 58-77).
TRANSFER_BYTES_PER_ENTRY = 400
# Bytes per clone copy, its output included: above the tracemalloc peaks at
# 20,000 and 80,000 copies (JSON 240-340, CSV 207-208, text 122-123).
CLONE_BYTES_PER_COPY = 400
# Bytes per density grid point, its CSV included: above the tracemalloc peaks
# at 100,000 and 400,000 points (61-78).
PDF_BYTES_PER_POINT = 100
# Bytes per simplex state and mode of fock-verify, its dump included: above the
# tracemalloc peaks of a fresh process at 2 to 9 modes (90-133, the most at 2
# modes with --dump).
FOCK_BYTES_PER_STATE_MODE = 144
# The most bytes a command may ask for, counted from its arguments before it
# allocates: up to n = 1,637 transfer targets, 2,684,354 clone copies,
# 10,737,418 density points, 134,217,728 Monte Carlo trials (8 bytes each) or
# 7,456,540 fock-verify simplex states times modes.
BYTE_LIMIT = 2**30


def _parse_complex(text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        return complex(float(re_part), float(im_part))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}") from None


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_complex_list(text: str) -> list[complex]:
    return [_parse_complex(part) for part in text.split(";")]


def _parse_cases(text: str) -> list[tuple[int, int]]:
    cases = []
    for part in text.split(";"):
        try:
            m_text, n_text = part.split(",")
            cases.append((int(m_text), int(n_text)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected 'M,N' pairs, got {part!r}") from None
    return cases


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _fmt_complex(value: complex) -> str:
    return f"{value.real:.12g}{value.imag:+.12g}j"


def _write_json(out, payload: dict):
    """One strict-JSON line, ``schema_version`` first; NaN or infinity raises before any write."""
    out.write(json.dumps({"schema_version": SCHEMA_VERSION, **payload}, allow_nan=False) + "\n")


def _check_bytes(subject: str, count: int, unit: str, unit_bytes: int):
    """Refuse (exit 2) ``count`` units of ``unit_bytes`` each past ``BYTE_LIMIT``,
    before anything is allocated; the message formats no integer past the limit."""
    if count > BYTE_LIMIT // unit_bytes:
        raise ValueError(f"{subject} needs more than the limit of {BYTE_LIMIT} bytes "
                         f"({unit_bytes} per {unit})")


def _discard_stdout():
    """Point file descriptor 1 at the null device, so that the bytes a failed
    write left in stdout's buffer meet a flush at interpreter exit that
    succeeds; otherwise that flush fails again and the exit status is 120."""
    with suppress(OSError):  # io.UnsupportedOperation: a stdout with no descriptor
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, sys.stdout.fileno())
        finally:
            os.close(null)


@contextmanager
def _open_output(path: str | None):
    """The file at ``path`` for writing, or stdout for None; a path that
    cannot be opened or written raises ``ValueError`` (exit 2) naming it, and
    so does a failed write to stdout, which is flushed before the block
    ends.  A file that this call created is removed if its writer raises, so
    a failed command leaves no partial output; a path that already existed
    (a file, a symlink, a device, a FIFO) is never removed."""
    if path is None:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError as exc:
            _discard_stdout()
            raise ValueError(f"cannot write standard output: {exc.strerror or exc}") from None
        return
    try:
        try:
            handle, created = open(path, "x", encoding="utf-8", newline=""), True
        except FileExistsError:
            handle, created = open(path, "w", encoding="utf-8", newline=""), False
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc.strerror or exc}") from None
    try:
        with handle:
            yield handle
    except BaseException as exc:
        if created:
            with suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError):
            raise ValueError(f"cannot write {path!r}: {exc.strerror or exc}") from None
        raise


def _network_from_args(args) -> phase_space.CloneNetworkConfig:
    """Build the coupling network from --copies or --r/--delta/--time flags."""
    if args.copies is not None and args.r is not None:
        raise ValueError("give either --copies or --r, not both")
    if args.delta is not None and args.r is None:
        raise ValueError("--delta sets the phases of the --r couplings; give --r with it")
    if args.copies is not None:
        config = phase_space.symmetric_clone_config(args.copies)
        return config if args.time is None else dataclasses.replace(config, time=args.time)
    if args.r is None:
        raise ValueError("specify --copies or --r with --time")
    if args.time is None:
        raise ValueError("--time is required with --r")
    magnitudes = np.asarray(args.r, dtype=float)
    if args.delta is not None:
        phases = np.asarray(args.delta, dtype=float)
    else:
        phases = np.zeros(magnitudes.size)
    return phase_space.CloneNetworkConfig(magnitudes, phases, args.time)


def _target_count(args) -> tuple[str, int]:
    if args.copies is not None:
        return "--copies", max(args.copies, 0)
    return "--r", len(args.r or ())


def cmd_transfer(args) -> int:
    flag, targets = _target_count(args)
    _check_bytes(f"{flag} with {targets} targets", (targets + 1) ** 2, "matrix entry",
                 TRANSFER_BYTES_PER_ENTRY)
    config = _network_from_args(args)
    matrix = phase_space.build_transfer(config)
    deviation = phase_space.unitarity_deviation(matrix)
    with _open_output(args.output) as out:
        if args.format == "json":
            payload = {
                "dim": matrix.shape[0],
                "entries": np.stack((matrix.real, matrix.imag), -1).tolist(),
                "unitarity_deviation": deviation,
            }
            _write_json(out, payload)
        elif args.format == "csv":
            dim = matrix.shape[1]
            entries = zip(matrix.real.ravel().tolist(), matrix.imag.ravel().tolist())
            out.write("row,col,re,im\n" + "".join(
                f"{index // dim},{index % dim},{re:.17g},{im:.17g}\n"
                for index, (re, im) in enumerate(entries)))
        else:
            for row in matrix:
                out.write("  ".join(_fmt_complex(z) for z in row) + "\n")
            out.write(f"max unitarity deviation: {_fmt(deviation)}\n")
    return EXIT_OK if deviation <= phase_space.UNITARITY_TOL else EXIT_GATE


def cmd_clone(args) -> int:
    _check_bytes(f"--copies {args.copies}", args.copies, "copy", CLONE_BYTES_PER_COPY)
    entries = phase_space.information_clone(args.alpha, args.copies)
    source, targets = complex(entries[0]), entries[1:]
    fidelity = phase_space.info_overlap_fidelity(args.alpha, args.copies)
    with _open_output(args.output) as out:
        if args.format == "json":
            payload = {
                "alpha": [args.alpha.real, args.alpha.imag],
                "copies": args.copies,
                "source": [source.real, source.imag],
                "targets": np.stack((targets.real, targets.imag), -1).tolist(),
                "overlap_fidelity": fidelity,
            }
            _write_json(out, payload)
        elif args.format == "csv":
            pairs = zip(entries.real.tolist(), entries.imag.tolist())
            out.write("mode,re,im\n" + "".join(
                f"{index},{re:.17g},{im:.17g}\n" for index, (re, im) in enumerate(pairs)))
        else:
            out.write(f"source: {_fmt_complex(source)}\n")
            for index, z in enumerate(targets, start=1):
                out.write(f"target {index}: {_fmt_complex(z)}\n")
            out.write(f"overlap fidelity: {_fmt(fidelity)}\n")
    return EXIT_OK


def _write_amplitude_dump(out, amplitudes: np.ndarray, modes: int, levels: int):
    occupations = fock_oracle.mode_occupations(modes, levels)
    header = ",".join(["index"] + [f"n_{m}" for m in range(modes)] + ["re", "im"])
    _csvwrite.write_csv(out, header, [[range(amplitudes.size), *occupations.T,
                                       amplitudes.real, amplitudes.imag]])


def _simplex_state_modes(modes: int, levels: int) -> int:
    """C(levels - 1 + modes, modes) simplex states times ``modes``, built one factor
    at a time over the smaller side and left once past ``BYTE_LIMIT``'s count."""
    small, large = sorted((modes, levels - 1))
    states = 1
    for k in range(1, small + 1):
        states = states * (large + k) // k
        if states * modes > BYTE_LIMIT // FOCK_BYTES_PER_STATE_MODE:
            break
    return states * modes


def cmd_fock_verify(args) -> int:
    flag, targets = _target_count(args)
    _check_bytes(f"{flag} with {targets} targets at --truncation {args.truncation}",
                 _simplex_state_modes(targets + 1, args.truncation),
                 "simplex state and mode", FOCK_BYTES_PER_STATE_MODE)
    config = _network_from_args(args)
    betas = args.beta or []
    if len(betas) > config.n_targets:
        raise ValueError("more --beta values than target modes")
    entries = np.zeros(config.n_targets + 1, dtype=complex)
    entries[0] = args.alpha
    entries[1 : 1 + len(betas)] = betas

    fock_oracle.check_truncation(entries, args.truncation, args.gate)
    predicted, evolved, infidelity = fock_oracle.verify_disentanglement(
        entries, config, args.truncation)
    dim = evolved.size
    with _open_output(args.dump) if args.dump else nullcontext() as dump:
        if dump is not None:
            _write_amplitude_dump(dump, evolved, entries.size, args.truncation)
            dump.flush()  # a failed dump exits 2 before the report is written
        # inside the dump's block, so a failed report removes a dump it created
        with _open_output(args.output) as out:
            if args.format == "json":
                payload = {
                    "truncation": args.truncation,
                    "dim": dim,
                    "infidelity": infidelity,
                    "gate": args.gate,
                    "predicted": np.stack((predicted.real, predicted.imag), -1).tolist(),
                }
                _write_json(out, payload)
            else:
                out.write(f"truncation: {args.truncation} levels, dimension {dim}\n")
                out.write(
                    "predicted parameters: "
                    + "  ".join(_fmt_complex(z) for z in predicted)
                    + "\n"
                )
                out.write(f"infidelity: {_fmt(infidelity)}\n")
    return EXIT_OK if infidelity < args.gate else EXIT_GATE


def _run_mc(args) -> int:
    run = measurement.FidelityRun(
        alpha_true=args.alpha,
        sources=args.sources,
        copies=args.copies,
        trials=args.trials,
        seed=args.seed,
        scheme=args.scheme,
    )
    exponent = measurement.fidelity_exponent(run.scheme, run.sources, run.copies)
    # before anything is opened or allocated
    _check_bytes(f"--trials {run.trials}", run.trials, "trial", measurement.BYTES_PER_TRIAL)
    # the CSV opens first, so an unwritable path fails before any trial is drawn
    with _open_output(args.output) if args.output else nullcontext() as csv_out:
        fidelity = np.empty(run.trials)
        blocks = measurement.trial_blocks(run, fidelity)
        if csv_out is None:
            for _ in blocks:
                pass
        else:
            # one row per trial, each block rendered as soon as it is drawn
            _csvwrite.write_csv(csv_out, "trial,re_est,im_est,F", (
                [range(start, start + scores.size), estimates.real, estimates.imag, scores]
                for start, estimates, scores in blocks))
            csv_out.flush()  # a failed CSV exits 2 before the summary is written
        # the column is not needed after the summary, which sorts it in place
        summary = measurement._summarize_sorting(fidelity, measurement.fidelity_cdf(exponent))
        critical = measurement.ks_critical(run.trials)
        ks_pass = summary.ks_statistic < critical
        payload = {
            "scheme": run.scheme,
            "alpha_true": [run.alpha_true.real, run.alpha_true.imag],
            "sources": run.sources,
            "copies": run.copies,
            "trials": run.trials,
            "seed": run.seed,
            "reference_cdf_exponent": float(exponent),
            "mean": summary.mean,
            "variance": summary.variance,
            "ks_statistic": summary.ks_statistic,
            "ks_critical_5pct": critical,
            "ks_pass": ks_pass,
            "histogram": {
                "bin_edges": summary.bin_edges.tolist(),
                "counts": summary.counts.tolist(),
            },
        }
        # inside the CSV's block, so a failed summary removes a CSV it created
        with _open_output(None) as out:
            _write_json(out, payload)
    return EXIT_OK if ks_pass else EXIT_GATE


def cmd_pdf(args) -> int:
    exponent = measurement.fidelity_exponent(PDF_SCHEMES[args.scheme], args.sources, args.copies)
    if args.grid < 2:
        raise ValueError(f"--grid must be at least 2 points, got {args.grid}")
    _check_bytes(f"--grid {args.grid}", args.grid, "point", PDF_BYTES_PER_POINT)
    # log-spaced grid keeps trapezoidal mass accurate for the singular c<1 laws
    grid = np.geomspace(PDF_GRID_FLOOR, 1.0, args.grid)
    values = np.asarray(measurement.fidelity_pdf(exponent)(grid), dtype=float)
    with _open_output(args.output) as out:
        _csvwrite.write_csv(out, "F,p", [[grid, values]])
    return EXIT_OK


def cmd_table(args) -> int:
    rows = measurement.comparison_table(args.cases)
    with _open_output(args.output) as out:
        if args.format == "json":
            payload = {
                "rows": [
                    {
                        "sources": row.sources,
                        "copies": row.copies,
                        "gaussian_mean": float(row.gauss_mean),
                        "gaussian_mean_fraction": str(row.gauss_mean),
                        "info_mean": float(row.info_mean),
                        "info_mean_fraction": str(row.info_mean),
                    }
                    for row in rows
                ],
            }
            _write_json(out, payload)
        elif args.format == "csv":
            out.write("sources,copies,gaussian_mean,info_mean\n")
            for row in rows:
                out.write(
                    f"{row.sources},{row.copies},"
                    f"{float(row.gauss_mean):.17g},{float(row.info_mean):.17g}\n"
                )
        else:
            out.write(f"{'M':>3} {'N':>3}  {'gaussian':<28} {'info':<28}\n")
            for row in rows:
                gauss = f"{row.gauss_mean} ({_fmt(float(row.gauss_mean))})"
                info = f"{row.info_mean} ({_fmt(float(row.info_mean))})"
                out.write(f"{row.sources:>3} {row.copies:>3}  {gauss:<28} {info:<28}\n")
    return EXIT_OK


def _add_network_flags(parser):
    parser.add_argument("--copies", type=int, default=None,
                        help="symmetric network with this many equal unit couplings")
    parser.add_argument("--r", type=_parse_floats, default=None,
                        help="coupling magnitudes, comma separated")
    parser.add_argument("--delta", type=_parse_floats, default=None,
                        help="coupling phases in radians, comma separated")
    parser.add_argument("--time", type=float, default=None, help="interaction time")


def _add_output_flags(parser, formats=("text", "csv", "json")):
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--output", default=None, help="output path")


def _add_mc_flags(parser):
    parser.add_argument("--alpha", type=_parse_complex, default=complex(1.0, 0.0),
                        help="true source parameter as 're,im'")
    parser.add_argument("--sources", type=int, required=True, help="number of source copies M")
    parser.add_argument("--copies", type=int, required=True, help="clones per source N")
    parser.add_argument("--trials", type=int, default=100000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=None, help="write per-trial samples CSV here")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the life of the process."""
    parser = argparse.ArgumentParser(
        prog="infoclone",
        description="Coherent-state information cloning: transfer matrices, "
        "truncated-basis verification, and measurement-fidelity Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    transfer = sub.add_parser("transfer", help="build a transfer matrix and report unitarity")
    _add_network_flags(transfer)
    _add_output_flags(transfer)
    transfer.set_defaults(func=cmd_transfer)

    clone = sub.add_parser("clone", help="information-clone a source parameter")
    clone.add_argument("--alpha", type=_parse_complex, required=True,
                       help="source parameter as 're,im'")
    clone.add_argument("--copies", type=int, required=True)
    _add_output_flags(clone)
    clone.set_defaults(func=cmd_clone)

    verify = sub.add_parser("fock-verify",
                            help="verify the parameter map by truncated-basis evolution")
    verify.add_argument("--alpha", type=_parse_complex, required=True,
                        help="source parameter as 're,im'")
    verify.add_argument("--beta", type=_parse_complex_list, default=None,
                        help="initial target parameters as 're,im;re,im;...'")
    _add_network_flags(verify)
    verify.add_argument("--truncation", type=int, default=16,
                        help="levels d: keep every occupation with total excitation <= d-1")
    verify.add_argument("--gate", type=float, default=1e-6, help="infidelity pass threshold")
    verify.add_argument("--dump", default=None, help="write evolved amplitudes CSV here")
    _add_output_flags(verify, formats=("text", "json"))
    verify.set_defaults(func=cmd_fock_verify)

    mc_info = sub.add_parser("mc-info", help="Monte Carlo fidelities, information cloning")
    _add_mc_flags(mc_info)
    mc_info.set_defaults(func=_run_mc, scheme=measurement.INFO_SCHEME)

    mc_gauss = sub.add_parser("mc-gauss", help="Monte Carlo fidelities, Gaussian copier")
    _add_mc_flags(mc_gauss)
    mc_gauss.set_defaults(func=_run_mc, scheme=measurement.GAUSS_SCHEME)

    pdf = sub.add_parser("pdf", help="emit the closed-form fidelity density as CSV")
    pdf.add_argument("--scheme", choices=PDF_SCHEMES, required=True)
    pdf.add_argument("--sources", type=int, required=True)
    pdf.add_argument("--copies", type=int, default=None)
    pdf.add_argument("--grid", type=int, default=10000, help="number of grid points, at least 2")
    pdf.add_argument("--output", default=None)
    pdf.set_defaults(func=cmd_pdf)

    table = sub.add_parser("table", help="scheme-comparison table of mean fidelities")
    # a string default is parsed afresh on every call, so no list is shared
    table.add_argument("--cases", type=_parse_cases, default=DEFAULT_TABLE_CASES,
                       help="semicolon-separated 'M,N' pairs")
    _add_output_flags(table)
    table.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
