"""Output checks for every benchmark command.

A check returns a list of problems; an empty list means the output is
correct.  The checks rely only on documented output formats and on closed
forms recomputed here, never on stored digests, so a deliberate change to a
number's last digits does not make them fail.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from fractions import Fraction

import numpy as np

EXIT_OK = 0
EXIT_GATE = 3
# Standard errors by which a Monte Carlo mean may miss its closed form.
MEAN_Z_LIMIT = 6.0
ORACLE_GATE = 1e-6
PDF_MASS_TOL = 1e-4
SAMPLES_HEADER = b"trial,re_est,im_est,F\n"


def info_mean(sources: int) -> Fraction:
    return Fraction(sources, sources + 1)


def gauss_mean(sources: int, copies: int) -> Fraction:
    mn2 = sources * sources * copies * copies
    return Fraction(mn2, mn2 + 2 * sources * copies + 4 * copies - 4)


def check_samples_csv(path: str, trials: int, digest) -> tuple[list[str], float]:
    """Stream the samples CSV: header, one parsable row per trial, F in (0, 1].

    Feeds every byte to ``digest`` and returns the problems and the F mean.
    """
    problems = []
    rows = 0
    total = 0.0
    if not os.path.isfile(path):
        return [f"no samples CSV at {path}"], 0.0
    with open(path, "rb") as handle:
        header = handle.readline()
        digest.update(header)
        if header != SAMPLES_HEADER:
            problems.append(f"samples CSV header {header!r}")
        for line in handle:
            digest.update(line)
            parts = line.split(b",")
            try:
                index = int(parts[0])
                float(parts[1])
                float(parts[2])
                fid = float(parts[3])
            except (ValueError, IndexError):
                problems.append(f"samples CSV row {rows} does not parse: {line[:80]!r}")
                break
            if len(parts) != 4 or index != rows or not 0.0 < fid <= 1.0:
                problems.append(f"samples CSV row {rows} is malformed: {line[:80]!r}")
                break
            rows += 1
            total += fid
    if not problems and rows != trials:
        problems.append(f"samples CSV has {rows} rows, expected {trials}")
    return problems, total / max(rows, 1)


def check_mc(expect: dict, code: int, stdout: str) -> tuple[list[str], bool]:
    """Summary JSON of mc-info/mc-gauss; returns problems and whether the
    5% KS gate rejected (exit 3), which is expected on about 5% of seeds."""
    if code not in (EXIT_OK, EXIT_GATE):
        return [f"exit code {code}"], False
    try:
        payload = json.loads(stdout)
    except ValueError:
        return [f"summary is not JSON: {stdout[:80]!r}"], False
    problems = []
    trials = expect["trials"]
    for key in ("sources", "copies", "trials"):
        if payload.get(key) != expect[key]:
            problems.append(f"summary {key} {payload.get(key)!r} != {expect[key]!r}")
    if expect["scheme"] == "info":
        exact = info_mean(expect["sources"])
    else:
        exact = gauss_mean(expect["sources"], expect["copies"])
    mean, variance = payload.get("mean"), payload.get("variance")
    if not isinstance(mean, float) or not isinstance(variance, float) or variance <= 0:
        return problems + ["summary lacks a mean and a positive variance"], False
    z = (mean - float(exact)) / math.sqrt(variance / trials)
    if abs(z) > MEAN_Z_LIMIT:
        problems.append(f"mean {mean} is {z:+.1f} standard errors from {exact}")
    if sum(payload.get("histogram", {}).get("counts", [])) != trials:
        problems.append("histogram counts do not sum to the trial count")
    rejected = code == EXIT_GATE
    if payload.get("ks_pass") is rejected:
        problems.append(f"ks_pass {payload.get('ks_pass')} disagrees with exit code {code}")
    return problems, rejected


def check_fock_verify(expect: dict, code: int, stdout: str) -> list[str]:
    if code != EXIT_OK:
        return [f"exit code {code}"]
    try:
        payload = json.loads(stdout)
        infidelity = float(payload["infidelity"])
        predicted = np.array([complex(re, im) for re, im in payload["predicted"]])
    except (ValueError, KeyError, TypeError):
        return [f"unexpected fock-verify output: {stdout[:80]!r}"]
    problems = []
    if not infidelity < ORACLE_GATE:
        problems.append(f"infidelity {infidelity} is not below {ORACLE_GATE}")
    if payload.get("truncation") != expect["truncation"]:
        problems.append(f"truncation {payload.get('truncation')} != {expect['truncation']}")
    if predicted.size != expect["modes"]:
        problems.append(f"{predicted.size} predicted parameters, expected {expect['modes']}")
    # a passive network conserves the total excitation sum(|param|^2)
    elif abs(float(np.sum(np.abs(predicted) ** 2)) - expect["norm2"]) > 1e-9 * (1 + expect["norm2"]):
        problems.append("predicted parameters do not conserve the total excitation")
    return problems


def _matrix_from_output(fmt: str, stdout: str) -> np.ndarray:
    if fmt == "json":
        payload = json.loads(stdout)
        matrix = np.array([[complex(re, im) for re, im in row] for row in payload["entries"]])
        if payload["unitarity_deviation"] > 1e-12:
            raise ValueError(f"reported deviation {payload['unitarity_deviation']}")
        return matrix
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] != ["row", "col", "re", "im"]:
        raise ValueError(f"transfer CSV header {rows[0]}")
    dim = math.isqrt(len(rows) - 1)
    matrix = np.zeros((dim, dim), dtype=complex)
    for i, j, re, im in rows[1:]:
        matrix[int(i), int(j)] = complex(float(re), float(im))
    return matrix


def check_transfer(expect: dict, code: int, stdout: str) -> list[str]:
    if code != EXIT_OK:
        return [f"exit code {code}"]
    try:
        matrix = _matrix_from_output(expect["format"], stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unexpected transfer output: {exc}"]
    dim = expect["dim"]
    if matrix.shape != (dim, dim):
        return [f"transfer matrix shape {matrix.shape}, expected {(dim, dim)}"]
    problems = []
    if np.abs(matrix.conj().T @ matrix - np.eye(dim)).max() > 1e-10:
        problems.append("transfer matrix is not unitary")
    if abs(matrix[0, 0] - expect["cos"]) > 1e-10:
        problems.append(f"M[0,0] {matrix[0, 0]} != cos(rotation angle) {expect['cos']}")
    return problems


def check_clone(expect: dict, code: int, stdout: str) -> list[str]:
    if code != EXIT_OK:
        return [f"exit code {code}"]
    try:
        if expect["format"] == "json":
            payload = json.loads(stdout)
            entries = [complex(*payload["source"])] + [complex(*z) for z in payload["targets"]]
        else:
            rows = list(csv.reader(io.StringIO(stdout)))[1:]
            entries = [complex(float(re), float(im)) for _, re, im in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unexpected clone output: {exc}"]
    alpha, copies = expect["alpha"], expect["copies"]
    target = alpha / math.sqrt(copies)
    tol = 1e-12 * (1.0 + abs(alpha))
    if len(entries) != copies + 1:
        return [f"{len(entries)} clone parameters, expected {copies + 1}"]
    if abs(entries[0]) > tol or any(abs(z - target) > tol for z in entries[1:]):
        return [f"clone parameters {entries} are not (0, alpha/sqrt(N), ...)"]
    return []


def check_table(expect: dict, code: int, stdout: str) -> list[str]:
    if code != EXIT_OK:
        return [f"exit code {code}"]
    exact = [(m, n, gauss_mean(m, n), info_mean(m)) for m, n in expect["cases"]]
    try:
        if expect["format"] == "json":
            got = [(row["sources"], row["copies"], Fraction(row["gaussian_mean_fraction"]),
                    Fraction(row["info_mean_fraction"]))
                   for row in json.loads(stdout)["rows"]]
        else:
            got = [(int(m), int(n), float(g), float(i))
                   for m, n, g, i in list(csv.reader(io.StringIO(stdout)))[1:]]
            exact = [(m, n, float(g), float(i)) for m, n, g, i in exact]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unexpected table output: {exc}"]
    return [] if got == exact else [f"table rows {got} != exact {exact}"]


def check_pdf(expect: dict, code: int, stdout: str) -> list[str]:
    if code != EXIT_OK:
        return [f"exit code {code}"]
    lines = stdout.splitlines()
    if not lines or lines[0] != "F,p":
        return ["density CSV lacks its header"]
    try:
        grid, density = np.array([line.split(",") for line in lines[1:]], dtype=float).T
    except ValueError as exc:
        return [f"density CSV does not parse: {exc}"]
    if grid.size != expect["grid"]:
        return [f"density CSV has {grid.size} points, expected {expect['grid']}"]
    mass = float(np.sum(0.5 * (density[1:] + density[:-1]) * np.diff(grid)))
    return [] if abs(mass - 1.0) <= PDF_MASS_TOL else [f"density mass {mass} is not 1"]


TEXT_CHECKS = {
    "fock-verify": check_fock_verify,
    "transfer": check_transfer,
    "clone": check_clone,
    "table": check_table,
    "pdf": check_pdf,
}
