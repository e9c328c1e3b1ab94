"""Benchmark worker: one workload in one fresh interpreter.

``run.py`` starts this file with ``PYTHONPATH=src``.  It imports the CLI,
runs one untimed warm-up command, and records the moment it is ready (the
end of set-up).  A probe stops there.  Otherwise it builds the workload's
command list from the seed and drives ``infoclone.cli.main(argv)`` from one
closed-loop client, checking every command's output, and writes a JSON
result file.

    python3 perfbench/worker.py --workload W --seed N --tmp DIR --result FILE
        [--seconds S] [--spans FILE] [--probe] [--small]
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time


def _warm_up(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code not in (0, 3):  # 3: a 5% KS rejection, not a fault
        raise RuntimeError(f"warm-up {argv} exited {code}: {err.getvalue().strip()}")


class Runner:
    """Runs commands in process, checks their outputs, and compares the
    bytes of every repeated command with its first execution."""

    def __init__(self, cli, commands, checks):
        self.cli = cli
        self.commands = commands
        self.checks = checks
        self.digests = {}
        self.attempted = 0
        self.unrepeatable = 0
        self.failures = []
        self.tracer = None

    def execute(self, index: int) -> dict:
        command = self.commands[index]
        if self.tracer is not None:
            self.tracer.command = index
        out, err = io.StringIO(), io.StringIO()
        crash = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(command.argv))
        except Exception as exc:  # a crash is a failed command, not a failed run
            code, crash = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        self.attempted += 1
        stdout = out.getvalue()
        rejected = False
        if crash is not None:
            problems = [crash]
        elif command.kind.startswith("mc-"):
            problems, rejected = self.checks.check_mc(command.expect, code, stdout)
        else:
            problems = self.checks.TEXT_CHECKS[command.kind](command.expect, code, stdout)
        digest = hashlib.sha256(stdout.encode())
        written = len(stdout.encode())
        # exit 0 or 3 means this execution wrote the CSV before its summary
        if command.csv_path is not None and code in (0, 3):
            csv_problems, csv_mean = self.checks.check_samples_csv(
                command.csv_path, command.expect["trials"], digest)
            problems += csv_problems
            if not problems and abs(csv_mean - json.loads(stdout)["mean"]) > 1e-9:
                problems.append(f"samples CSV mean {csv_mean} disagrees with the summary")
            written += os.path.getsize(command.csv_path)
        first = self.digests.setdefault(index, digest.hexdigest())
        if first != digest.hexdigest():
            if command.repeatable:
                problems.append("output bytes differ from the first run of this command")
            else:
                self.unrepeatable += 1
        if problems:
            stderr = err.getvalue().strip()
            self.failures.append({"command": index, "argv": list(command.argv),
                                  "problems": problems + ([stderr] if stderr else [])})
        return {"latency": latency, "rejected": rejected, "bytes": written}

    def run_round(self) -> dict:
        gc.collect()  # untimed: the previous round's garbage is not this round's cost
        results = [self.execute(index) for index in range(len(self.commands))]
        latencies = [r["latency"] for r in results]
        return {
            "wall_s": sum(latencies),
            "latencies": latencies,
            "ks_rejects": sum(r["rejected"] for r in results),
            "bytes_written": sum(r["bytes"] for r in results),
        }


def _normals_drawn(commands) -> int:
    """trials * M * N over the Monte Carlo commands (computed, not traced)."""
    return sum(c.expect["trials"] * c.expect["sources"] * c.expect["copies"]
               for c in commands if c.kind.startswith("mc-"))


def _trial_batches(commands, batch) -> int:
    return sum(-(-c.expect["trials"] // batch) for c in commands if c.kind.startswith("mc-"))


def _traced_round(runner, spans_path) -> dict:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        traced = runner.run_round()
    finally:
        runner.tracer = None
        tracer.uninstall()
    tracer.write(spans_path)
    traced["spans"] = tracer.totals()
    traced["counts"] = dict(tracer.counts)
    return traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--spans", default=None, help="write the traced round's spans here")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--small", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    from infoclone import cli

    import workloads  # this file's directory is first on sys.path

    _warm_up(cli, workloads.warmup_argv(args.workload, args.tmp))
    result = {"ready_at": time.monotonic()}
    if not args.probe:
        import numpy
        import scipy

        import checks
        import infoclone
        from infoclone import measurement

        commands = workloads.build(args.workload, args.seed, args.tmp, args.small)
        runner = Runner(cli, commands, checks)
        if args.spans:
            untraced = runner.run_round()
            traced = _traced_round(runner, args.spans)
            rounds = [untraced, traced]
            result["traced"] = traced
            expected = _trial_batches(commands, measurement.TRIAL_BATCH)
            calls = traced["counts"].get("measurement.trial_rng", 0)
            if hasattr(measurement, "trial_rng") and calls != expected:
                runner.failures.append({"command": None, "problems": [
                    f"{calls} trial_rng calls, expected {expected} batches of "
                    f"{measurement.TRIAL_BATCH}"]})
        else:
            start = time.perf_counter()
            rounds = []
            while True:
                began = time.perf_counter()
                rounds.append(runner.run_round())
                took = time.perf_counter() - began
                if time.perf_counter() - start + took > args.seconds:
                    break
            if len(rounds) == 1:
                runner.execute(0)  # untimed repeat for the byte-identity check
        result.update(
            rounds=[{k: r[k] for k in ("wall_s", "latencies", "ks_rejects", "bytes_written")}
                    for r in rounds],
            attempted=runner.attempted,
            unrepeatable=runner.unrepeatable,
            failures=runner.failures,
            normals_drawn=_normals_drawn(commands),
            commands=len(commands),
            versions={"infoclone": infoclone.__version__, "numpy": numpy.__version__,
                      "scipy": scipy.__version__},
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
