"""Benchmark of the infoclone command line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--small]

Run from a source checkout; the package is imported from ``src``.  Every
command goes through ``infoclone.cli.main(argv)`` in a fresh worker
interpreter, driven by one closed-loop client, and every output is checked.

``--trace 0`` measures the end-to-end metrics: set-up time (median over
several fresh interpreters), the wall time of the workload's command list
(median over rounds), command latency, the worker's own peak RSS and the
error rate.  ``--trace 1`` measures the per-layer metrics instead: import
times from ``python -X importtime``, and spans and counters from one traced
round, run after one untraced round whose output bytes it must reproduce.

The next-to-last line of standard output is a report with every metric,
its sample count and the provenance of the run; the last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.  Both also go to
``.perfbench_out/``, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("mc-csv", "mc-draws", "oracle", "short-cmds")
SETUP_SAMPLES = 5  # fresh interpreters timed per run, the worker included
IMPORTTIME_SAMPLES = 3
TIME_LIMIT_S = 170  # the whole run, every child included
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_MODULES = {"setup.import_scipy_stats_s": "scipy.stats",
                  "setup.import_fock_oracle_s": "infoclone.fock_oracle",
                  "setup.import_total_s": "infoclone.cli"}
# per-layer metric -> (span name, "total_s" or "self_s")
SPAN_METRICS = {
    "cli.self_s": ("cli.main", "self_s"),
    "measurement.run_info_trials_s": ("measurement.run_info_trials", "total_s"),
    "gaussian_cloner.run_gauss_trials_s": ("gaussian_cloner.run_gauss_trials", "total_s"),
    "measurement.fidelity_values_s": ("measurement.fidelity_values", "total_s"),
    "measurement.summarize_s": ("measurement.summarize", "self_s"),
    "measurement.ks_statistic_s": ("measurement.ks_statistic", "total_s"),
    "fock_oracle.verify_s": ("fock_oracle.verify_disentanglement", "total_s"),
    "fock_oracle.evolve_s": ("fock_oracle.evolve_product_state", "total_s"),
    "fock_oracle.product_state_s": ("fock_oracle.product_coherent_state", "total_s"),
    "fock_oracle.expm_multiply_s": ("fock_oracle.expm_multiply", "total_s"),
    "phase_space.build_transfer_s": ("phase_space.build_transfer", "total_s"),
    "phase_space.apply_transfer_s": ("phase_space.apply_transfer", "total_s"),
    "phase_space.unitarity_deviation_s": ("phase_space.unitarity_deviation", "total_s"),
}
CLOSED_FORMS = ("gaussian_cloner.gauss_cdf", "gaussian_cloner.gauss_pdf",
                "gaussian_cloner.comparison_table")
# per-layer count metric -> tracer counter
COUNT_METRICS = {
    "measurement.trial_rng_calls": "measurement.trial_rng",
    "measurement.scalar_fidelity_calls": "measurement.measurement_fidelity",
    "fock_oracle.hilbert_dim": "fock_oracle.hilbert_dim",
    "fock_oracle.generator_nnz": "fock_oracle.generator_nnz",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(argv, deadline, **kwargs) -> subprocess.CompletedProcess:
    """Run a child to completion; subprocess.run kills and reaps it on timeout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a child process")
    try:
        return subprocess.run(argv, env=_child_env(), cwd=ROOT, timeout=remaining, **kwargs)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"child exceeded the time limit: {argv[:4]}") from None


def _worker(args, tmp: Path, deadline, *extra) -> dict:
    """Start a worker; returns its result with ``setup_s`` measured from the spawn."""
    result_path = tmp / f"result-{time.monotonic_ns()}.json"
    argv = [sys.executable, str(HERE / "worker.py"), f"--workload={args.workload}",
            f"--seed={args.seed}", f"--tmp={tmp}", f"--result={result_path}", *extra]
    if args.small:
        argv.append("--small")
    spawned = time.monotonic()  # CLOCK_MONOTONIC is shared by every process
    proc = _run_child(argv, deadline, stdout=sys.stderr)
    if proc.returncode != 0 or not result_path.exists():
        raise BenchmarkError(f"worker exited {proc.returncode}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready_at"] - spawned
    return result


def _import_times(deadline) -> dict:
    """Cumulative import times of the named modules, in seconds, from one
    fresh ``python -X importtime`` process."""
    proc = _run_child([sys.executable, "-X", "importtime", "-c", "import infoclone.cli"],
                      deadline, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchmarkError(f"cannot import infoclone.cli: {proc.stderr.strip()[-300:]}")
    cumulative = {}
    for match in re.finditer(r"^import time:\s+\d+ \|\s+(\d+) \| *(\S+)$", proc.stderr, re.M):
        cumulative.setdefault(match.group(2), int(match.group(1)) * 1e-6)
    return {metric: cumulative.get(module, 0.0) for metric, module in IMPORT_MODULES.items()}


def _provenance(worker: dict) -> dict:
    cpu_model = llc = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), None)
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
                  for d in caches.glob("index*")]
        llc = max(levels)[1] if levels else None
    except OSError:
        pass
    return {
        **worker.get("versions", {}),
        "python": platform.python_version(),
        "cpu_model": cpu_model,
        "llc_size": llc,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def _metric(value, unit, samples=None) -> dict:
    entry = {"value": value, "unit": unit}
    if samples is not None:
        entry["samples"] = samples
    return entry


def _end_to_end(setups, worker) -> tuple[dict, dict]:
    """The bounded metrics, and the report-only ones."""
    rounds = worker["rounds"]
    latencies = [lat for r in rounds for lat in r["latencies"]]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s", len(setups)),
        "wall_s": _metric(statistics.median(r["wall_s"] for r in rounds), "s", len(rounds)),
        "op_p50_s": _metric(statistics.median(latencies), "s", len(latencies)),
        "peak_rss_mb": _metric(worker["peak_rss_kb"] / 1024.0, "MiB", 1),
    }
    extra = {"measurement.ks_rejects": _metric(sum(r["ks_rejects"] for r in rounds), "count")}
    # a percentile is reported only with at least ten samples beyond it
    if len(latencies) >= 100:
        extra["op_p90_s"] = _metric(statistics.quantiles(latencies, n=10)[8], "s",
                                    len(latencies))
    return metrics, extra


def _per_layer(imports, worker) -> dict:
    untraced, traced = worker["rounds"]
    spans, counts = worker["traced"]["spans"], worker["traced"]["counts"]
    empty = {"total_s": 0.0, "self_s": 0.0, "calls": 0}
    metrics = {name: _metric(value, "s") for name, value in imports.items()}
    metrics.update({metric: _metric(spans.get(span, empty)[kind], "s")
                    for metric, (span, kind) in SPAN_METRICS.items()})
    metrics["gaussian_cloner.closed_form_s"] = _metric(
        sum(spans.get(span, empty)["total_s"] for span in CLOSED_FORMS), "s")
    metrics.update({metric: _metric(counts.get(counter, 0), "count")
                    for metric, counter in COUNT_METRICS.items()})
    metrics["measurement.fidelity_values_calls"] = _metric(
        spans.get("measurement.fidelity_values", empty)["calls"], "count")
    metrics["measurement.normals_drawn"] = {**_metric(worker["normals_drawn"], "count"),
                                            "computed": True}
    metrics["measurement.ks_rejects"] = _metric(traced["ks_rejects"], "count")
    metrics["cli.bytes_written"] = _metric(traced["bytes_written"], "bytes")
    metrics["trace.overhead_s"] = _metric(traced["wall_s"] - untraced["wall_s"], "s")
    return metrics


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny sizes, for the smoke test")
    return parser.parse_args(argv)


def measure(args) -> tuple[dict, dict]:
    """Run the benchmark; returns the report and the result object."""
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "infoclone" / "cli.py").is_file():
        raise BenchmarkError(f"no infoclone sources under {ROOT / 'src'}")
    # The client is single-threaded.  Pinning it, and every child, to one CPU
    # keeps runs from landing on CPUs that a busy neighbour slows by different
    # amounts, which otherwise makes run times bimodal on shared machines.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    out_dir = ROOT / ".perfbench_out"
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            samples = [_import_times(deadline) for _ in range(IMPORTTIME_SAMPLES)]
            imports = {name: statistics.median(s[name] for s in samples) for name in IMPORT_MODULES}
            worker = _worker(args, tmp, deadline, f"--spans={out_dir / stem}.spans.jsonl")
            metrics, extra = _per_layer(imports, worker), {}
        else:
            setups = [_worker(args, tmp, deadline, "--probe")["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            worker = _worker(args, tmp, deadline, f"--seconds={args.seconds}")
            metrics, extra = _end_to_end(setups + [worker["setup_s"]], worker)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = len(worker["failures"])
    extra["error_rate"] = _metric(failed / worker["attempted"], "ratio", worker["attempted"])
    extra["unrepeatable_outputs"] = _metric(worker["unrepeatable"], "count")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commands_per_round": worker["commands"],
        "metrics": {**metrics, **extra},
        "failures": worker["failures"][:20],
        "provenance": {**_provenance(worker), "nproc": len(cpus), "pinned_cpu": cpus[0]},
    }
    result = {
        "correct": failed == 0,
        "attempted": worker["attempted"],
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps({"report": report, "result": result}, indent=1))
    return report, result


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        report, result = measure(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
