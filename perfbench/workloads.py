"""Command lists of the benchmark workloads, generated from a seed.

Each workload is a fixed list of ``infoclone`` argument vectors.  A round
runs the whole list once; the timed loop repeats the same list, so every
round does the same work.  Random choices are stratified where the cost of a
command depends on them, so the total work of a list barely depends on the
seed.

Values are passed as ``--flag=value`` so that negative numbers are never
mistaken for options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("mc-csv", "mc-draws", "oracle", "short-cmds")

# Poisson tail of the total excitation number allowed above the truncation.
# The network conserves that number, so no mode exceeds the total and the
# oracle's infidelity stays of the order of this tail, well below its 1e-6 gate.
ORACLE_TAIL = 1e-8

# (targets, levels per mode): Hilbert dimensions from about 1e3 to 2e4.
ORACLE_SLOTS = ((1, 32), (1, 64), (1, 100), (2, 10), (2, 14), (2, 20), (2, 27),
                (3, 6), (3, 8), (3, 10), (3, 11))
ORACLE_SLOTS_SMALL = ((1, 8), (2, 5), (3, 4))
# Rotation-angle bands; every slot gets one angle from each.  The cost of
# expm_multiply grows with the angle, so narrow bands keep each command's cost,
# and the list's median, nearly independent of the seed.
ORACLE_ANGLE_BANDS = ((0.45 * math.pi, 0.55 * math.pi), (1.45 * math.pi, 1.55 * math.pi))
PDF_DEFAULT_GRID = 10000


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output checks need to know."""

    kind: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    csv_path: str | None = None
    # False where the program does not reproduce its output bytes: fock-verify's
    # expm_multiply estimates norms with numpy's unseeded global generator,
    # which can change the last digits of the infidelity between runs.
    repeatable: bool = True


def _num(value: float) -> str:
    return f"{float(value):.17g}"


def _cplx(value: complex) -> str:
    return f"{_num(value.real)},{_num(value.imag)}"


def _alpha(rng) -> complex:
    return complex(rng.uniform(0.0, 2.0) * np.exp(1j * rng.uniform(-math.pi, math.pi)))


def _mc(rng, scheme: str, sources: int, copies: int, trials: int,
        csv_path: str | None = None) -> Command:
    alpha = _alpha(rng)
    argv = [f"mc-{scheme}", f"--sources={sources}", f"--copies={copies}",
            f"--trials={trials}", f"--alpha={_cplx(alpha)}",
            f"--seed={int(rng.integers(0, 2**63))}"]
    if csv_path is not None:
        argv.append(f"--output={csv_path}")
    expect = {"scheme": scheme, "sources": sources, "copies": copies, "trials": trials}
    return Command(f"mc-{scheme}", tuple(argv), expect, csv_path)


def mc_csv(rng, tmpdir: str, small: bool) -> list[Command]:
    """Low M*N with a samples CSV: per-trial objects and CSV formatting."""
    trials = 20_000 if small else 1_000_000
    return [
        _mc(rng, "info", 1, 2, trials, f"{tmpdir}/cmd0.csv"),
        _mc(rng, "gauss", 2, 2, trials, f"{tmpdir}/cmd1.csv"),
    ]


def mc_draws(rng, tmpdir: str, small: bool) -> list[Command]:
    """High M*N, no CSV: Philox draws and the mean reduction."""
    trials = 5_000 if small else 200_000
    return [
        _mc(rng, "info", 4, 16, trials),
        _mc(rng, "info", 8, 32, trials),
        _mc(rng, "gauss", 4, 32, trials),
        _mc(rng, "gauss", 8, 16, trials),
    ]


def _max_occupation(levels: int) -> float:
    """Largest total mean excitation whose Poisson tail above ``levels`` is
    within ORACLE_TAIL, by bisection."""
    from infoclone import fock_oracle

    lo, hi = 0.0, float(levels)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if fock_oracle.poisson_tail(mid, levels) <= ORACLE_TAIL:
            lo = mid
        else:
            hi = mid
    return lo


def oracle(rng, tmpdir: str, small: bool) -> list[Command]:
    """Random networks in the truncated number basis, one command per
    (slot, angle band); the truncation comes from ``required_levels``."""
    from infoclone import fock_oracle

    commands = []
    for targets, levels in ORACLE_SLOTS_SMALL if small else ORACLE_SLOTS:
        low, high = _max_occupation(levels - 1), _max_occupation(levels)
        for angle_low, angle_high in ORACLE_ANGLE_BANDS:
            # strictly inside (low, high], so required_levels gives `levels`
            total = low + (high - low) * rng.uniform(0.05, 1.0)
            truncation = fock_oracle.required_levels(total, ORACLE_TAIL)
            shares = rng.dirichlet(np.ones(targets + 1))
            phases = rng.uniform(-math.pi, math.pi, targets + 1)
            amps = np.sqrt(shares * total) * np.exp(1j * phases)
            magnitudes = rng.uniform(0.5, 1.5, targets)
            deltas = rng.uniform(-math.pi, math.pi, targets)
            angle = rng.uniform(angle_low, angle_high)
            time = angle / math.sqrt(float(np.sum(magnitudes**2)))
            argv = (
                "fock-verify",
                f"--alpha={_cplx(amps[0])}",
                "--beta=" + ";".join(_cplx(a) for a in amps[1:]),
                "--r=" + ",".join(_num(m) for m in magnitudes),
                "--delta=" + ",".join(_num(d) for d in deltas),
                f"--time={_num(time)}",
                f"--truncation={truncation}",
                "--format=json",
            )
            expect = {"truncation": truncation, "modes": targets + 1,
                      "norm2": float(np.sum(np.abs(amps) ** 2))}
            commands.append(Command("fock-verify", argv, expect, repeatable=False))
    return commands


def _transfer(rng) -> Command:
    targets = int(rng.integers(1, 17))
    fmt = str(rng.choice(["json", "csv"]))
    if rng.uniform() < 0.5:
        argv = ("transfer", f"--copies={targets}", f"--format={fmt}")
        angle = 1.5 * math.pi
    else:
        magnitudes = rng.uniform(0.1, 2.0, targets)
        time = rng.uniform(0.0, 2.0 * math.pi)
        argv = ("transfer",
                "--r=" + ",".join(_num(m) for m in magnitudes),
                "--delta=" + ",".join(_num(d) for d in rng.uniform(-math.pi, math.pi, targets)),
                f"--time={_num(time)}", f"--format={fmt}")
        angle = math.sqrt(float(np.sum(magnitudes**2))) * time
    return Command("transfer", argv, {"dim": targets + 1, "format": fmt, "cos": math.cos(angle)})


def _clone(rng) -> Command:
    alpha = _alpha(rng)
    copies = int(rng.integers(1, 17))
    fmt = str(rng.choice(["json", "csv"]))
    argv = ("clone", f"--alpha={_cplx(alpha)}", f"--copies={copies}", f"--format={fmt}")
    return Command("clone", argv, {"alpha": alpha, "copies": copies, "format": fmt})


def _table(rng) -> Command:
    cases = [(int(rng.integers(1, 5)), int(rng.integers(2, 9)))
             for _ in range(int(rng.integers(1, 5)))]
    fmt = str(rng.choice(["json", "csv"]))
    argv = ("table", "--cases=" + ";".join(f"{m},{n}" for m, n in cases), f"--format={fmt}")
    return Command("table", argv, {"cases": cases, "format": fmt})


def _pdf(rng) -> Command:
    # the default grid, on which the documented 1e-4 trapezoid-mass bound holds
    if rng.uniform() < 0.5:
        argv = ("pdf", "--scheme=info", f"--sources={int(rng.integers(1, 5))}")
    else:
        argv = ("pdf", "--scheme=gauss", f"--sources={int(rng.integers(1, 4))}",
                f"--copies={int(rng.integers(2, 9))}")
    return Command("pdf", argv, {"grid": PDF_DEFAULT_GRID})


def short_cmds(rng, tmpdir: str, small: bool) -> list[Command]:
    """Millisecond commands in a fixed mix (8:4:4:1), shuffled by the seed.

    A pdf writes 10000 rows, ten times the work of the other commands, so it
    is rarer and does not dominate the round."""
    per_kind = 1 if small else 10
    makers = [_transfer] * 8 + [_clone] * 4 + [_table] * 4 + [_pdf]
    order = [maker for maker in makers for _ in range(per_kind)]
    return [order[i](rng) for i in rng.permutation(len(order))]


_BUILDERS = {"mc-csv": mc_csv, "mc-draws": mc_draws, "oracle": oracle, "short-cmds": short_cmds}

# One small untimed command per workload, run during set-up.
WARMUP = {
    "mc-csv": ("mc-info", "--sources=1", "--copies=2", "--trials=4096", "--output={tmp}/warmup.csv"),
    "mc-draws": ("mc-info", "--sources=4", "--copies=16", "--trials=4096"),
    "oracle": ("fock-verify", "--alpha=0.3,0.1", "--copies=2", "--truncation=6", "--format=json"),
    "short-cmds": ("transfer", "--copies=2", "--format=json"),
}


def build(workload: str, seed: int, tmpdir: str, small: bool) -> list[Command]:
    """The workload's command list; the same seed gives the same list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, tmpdir, small)


def warmup_argv(workload: str, tmpdir: str) -> list[str]:
    return [arg.format(tmp=tmpdir) for arg in WARMUP[workload]]
