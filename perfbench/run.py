#!/usr/bin/env python3
"""Whole-run benchmark of the NotebookOS reproduction.

Runs one named workload through ``core::run`` in its own worker process,
checks its outputs, and prints the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``) as the last line of stdout:

    python3 perfbench/run.py --workload proto_excerpt --seed 1 \\
        --seconds 40 --trace 0

The first run in a checkout builds the worker (CMake, into
``.bench_build/perfbench``). See perfbench/README.md for the workloads,
the metrics, and how to read a traced run.

Exit codes: 0 a correct run, 1 a failed build or a failed output check
(the result line then says ``"correct": false``), 2 bad arguments.
"""

import argparse
import array
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKER = BUILD_DIR / "perfbench_worker"
TRACE_DIR = ROOT / ".bench_build" / "perfbench-traces"
SAMPLES_ROOT = ROOT / ".bench_build" / "perfbench-samples"
DIGESTS = BENCH_DIR / "digests.json"

WORKLOADS = ("proto_excerpt", "fast_flash_fleet", "stream_autoscale")

# Workloads whose set-up takes milliseconds: before each batch input runs,
# this many more inputs are set up (not run) in a process of their own, so
# setup_s averages over many inputs and over the whole run's box load.
SETUP_SAMPLE = {"proto_excerpt": 60, "stream_autoscale": 60}

# Seconds one worker process may take before it counts as hung.
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "sessions_per_s": "sessions/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "idelay_p50_s": "s",
    "idelay_p98_s": "s",
    "gpu_hours": "GPU-h",
    "gpu_util": "ratio",
    "completed_frac": "ratio",
}

PER_LAYER_UNITS = {
    "workload.gen_s": "s",
    "workload.sessions": "count",
    "workload.cells": "count",
    "core.run_s": "s",
    "core.shard_busy_max_s": "s",
    "core.shard_imbalance": "ratio",
    "core.serial_s": "s",
    "core.sessions_rebalanced": "count",
    "sim.events": "count",
    "sim.dispatch_ns": "ns",
    "sim.est_s": "s",
    "net.sent": "count",
    "net.delivered": "count",
    "net.dropped": "count",
    "net.msg_ns": "ns",
    "net.est_s": "s",
    "raft.commit_us": "us",
    "raft.msgs_per_commit": "msgs/commit",
    "kernel.syncs": "count",
    "kernel.sync_p99_ms": "ms",
    "storage.reads": "count",
    "storage.writes": "count",
    "storage.bytes_written": "B",
    "sched.kernels_created": "count",
    "sched.migrations": "count",
    "sched.migrations_aborted": "count",
    "sched.scale_outs": "count",
    "sched.scale_ins": "count",
    "sched.elections_failed": "count",
    "sched.immediate_commit_ratio": "ratio",
    "sched.executor_reuse_ratio": "ratio",
    "sched.prewarm_hit_ratio": "ratio",
    "sched.placement.pick_us": "us",
    "sched.placement.calls": "count",
    "sched.placement.est_s": "s",
    "sched.placement.fleet_servers": "count",
    "cluster.totals_ns": "ns",
    "cluster.calls": "count",
    "cluster.est_s": "s",
    "metrics.summarize_s": "s",
    "metrics.idelay_samples": "count",
    "metrics.idelay_p99_s": "s",
    "metrics.idelay_p999_s": "s",
    "metrics.cells_aborted": "count",
    "trace.unattributed_s": "s",
    "trace.probes_s": "s",
    "trace.overhead_s": "s",
}

# The paper's measured values printed beside the traced ratios (§5.3).
PAPER_RATIOS = {
    "sched.immediate_commit_ratio": 0.896,
    "sched.executor_reuse_ratio": 0.8945,
}


def note(message):
    """Progress and diagnostics go to stderr; stdout ends with the result."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def non_negative_int(text):
    if not text.isdigit() or not text.isascii():
        raise argparse.ArgumentTypeError(
            f"malformed seed {text!r} (want a non-negative integer)")
    return int(text)


def positive_int(text):
    if not text.isdigit() or not text.isascii() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"malformed seconds {text!r} (want a positive integer)")
    return int(text)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Whole-run benchmark of the NotebookOS reproduction.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=non_negative_int)
    parser.add_argument("--seconds", required=True, type=positive_int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument(
        "--record", action="store_true",
        help="store this run's digest in the table instead of checking it")
    return parser.parse_args(argv)


def build():
    """Configure (once) and build the worker; False when it fails."""
    if not (ROOT / "src").is_dir():
        note(f"program sources not found at {ROOT / 'src'}")
        return False
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs], stdout=sys.stderr)
    return result.returncode == 0 and WORKER.exists()


def samples_path(samples_dir, index):
    return samples_dir / f"input{index}.f64"


def run_worker(workload, seed, index, samples_dir=None, traced=False,
               setup_sample=0):
    """One worker process running input @index of the workload once (or,
    with @setup_sample, setting up that many inputs from @index on).
    Returns the parsed report, or None when the process failed."""
    command = [str(WORKER), "--workload", workload, "--seed", str(seed),
               "--input", str(index)]
    if traced:
        command.append("--trace")
    if samples_dir is not None:
        command += ["--samples", str(samples_path(samples_dir, index))]
    if setup_sample:
        command += ["--setup-sample", str(setup_sample)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        note(f"worker timed out after {WORKER_TIMEOUT_S} s")
        return None
    if result.returncode != 0:
        note(f"worker exited with code {result.returncode}")
        return None
    try:
        return json.loads(result.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        note("worker printed no report")
        return None


def run_batch(workload, seed, samples_dir, setups):
    """Every input of the run, each in its own process; None on failure.
    Appends every set-up time measured on the way to @setups."""
    batch = []
    while not batch or len(batch) < batch[0]["inputs"]:
        count = SETUP_SAMPLE.get(workload, 0)
        if count:
            # Inputs from `count` on are never part of a batch.
            sample = run_worker(workload, seed, (len(batch) + 1) * count,
                                setup_sample=count)
            if sample is None:
                return None
            setups.extend(sample["setup_s"])
        report = run_worker(workload, seed, len(batch), samples_dir)
        if report is None:
            return None
        setups.append(report["setup_s"])
        batch.append(report)
    return batch


def batch_digest(batch):
    joined = ":".join(report["digest"] for report in batch)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def load_digests():
    try:
        with open(DIGESTS, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def check(workload, seed, batches, record):
    """Output checks; returns a list of failures (empty when correct)."""
    failures = []
    digest = batch_digest(batches[0])
    for batch in batches[1:]:
        if batch_digest(batch) != digest:
            failures.append("results differ between runs of the same inputs")
    for report in batches[0]:
        where = f"input {report['input']}"
        if report["tasks"] != report["cells"]:
            failures.append(f"{where}: {report['cells']} cells submitted "
                            f"but {report['tasks']} outcomes")
        if not 0 < report["gpu_hours_committed"] <= report["gpu_hours"]:
            failures.append(f"{where}: committed GPU-hours outside "
                            f"(0, provisioned]")
        if not 0 < report["idelay_p50_s"] <= report["idelay_p98_s"]:
            failures.append(f"{where}: interactivity-delay percentiles out "
                            f"of order")
    table = load_digests()
    recorded = table.get(workload, {}).get(str(seed))
    if record:
        if not failures:
            table.setdefault(workload, {})[str(seed)] = digest
            with open(DIGESTS, "w", encoding="utf-8") as handle:
                json.dump(table, handle, indent=2, sort_keys=True)
                handle.write("\n")
            note(f"recorded digest {digest} for seed {seed}")
    elif recorded is None:
        note(f"no recorded digest for ({workload}, seed {seed}); checked "
             f"cross-run determinism and invariants only")
    elif recorded != digest:
        failures.append(f"digest {digest} != recorded {recorded}")
    return failures


def pooled_delays(samples_dir, batch):
    """Every interactivity-delay sample of the batch, sorted."""
    values = array.array("d")
    for report in batch:
        with open(samples_path(samples_dir, report["input"]), "rb") as handle:
            values.frombytes(handle.read())
    return sorted(values)


def percentile(ordered, p):
    """Linear interpolation between closest ranks, as metrics::Percentiles
    computes it."""
    rank = p / 100 * (len(ordered) - 1)
    lo, hi = math.floor(rank), math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def end_to_end(batches, setups, samples_dir, failed):
    """Host metrics: medians over runs (and inputs), set-up the mean over
    every input set up; model metrics: over the batch of inputs, which
    every run reproduces bit for bit."""
    inputs = [report for batch in batches for report in batch]
    first = batches[0]
    cells = sum(r["cells"] for r in first)
    provisioned = sum(r["gpu_hours"] for r in first)
    delays = pooled_delays(samples_dir, first)
    return {
        "sessions_per_s": statistics.median(
            sum(r["sessions"] for r in batch) / sum(r["run_s"] for r in batch)
            for batch in batches),
        "setup_s": statistics.fmean(setups),
        "cpu_s": statistics.median(
            sum(r["cpu_s"] for r in batch) for batch in batches),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in inputs),
        "idelay_p50_s": percentile(delays, 50),
        "idelay_p98_s": percentile(delays, 98),
        "gpu_hours": provisioned,
        "gpu_util": sum(r["gpu_hours_committed"] for r in first) / provisioned,
        # A failed run counts every cell as failed.
        "completed_frac": 0.0 if failed else
            (cells - sum(r["aborted"] for r in first)) / cells,
    }


def per_layer(traced, batches):
    layers = dict(traced["layers"])
    layers["workload.sessions"] = traced["sessions"]
    layers["workload.cells"] = traced["cells"]
    layers["metrics.cells_aborted"] = traced["aborted"]
    layers["trace.overhead_s"] = traced["run_s"] - statistics.median(
        batch[0]["run_s"] for batch in batches)
    return layers


def write_trace(workload, seed, traced, batches, layers):
    """The traced run's spans, counters and probes, written once."""
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    path = TRACE_DIR / f"{workload}-seed{seed}.json"
    run_id = f"{workload}-seed{seed}-input0-traced"
    document = {
        "workload": workload,
        "seed": seed,
        "spans": [dict(span, run_id=run_id) for span in traced["spans"]],
        "layers": layers,
        "untraced_runs": [
            [{key: r[key] for key in
              ("input", "setup_s", "run_s", "cpu_s", "peak_rss_mb")}
             for r in batch]
            for batch in batches],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    return path


def result_line(correct, attempted, failed, values, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    })


def main(argv):
    args = parse_args(argv)
    if not build():
        note("build failed")
        return 1
    SAMPLES_ROOT.mkdir(parents=True, exist_ok=True)
    samples_dir = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-seed{args.seed}-", dir=SAMPLES_ROOT))
    try:
        return measure(args, samples_dir)
    finally:
        shutil.rmtree(samples_dir, ignore_errors=True)


def measure(args, samples_dir):
    traced_run = args.trace == "1"
    # Measure: whole batches of inputs, back to back, while the next one
    # still fits in the time budget (always at least one).
    batches, setups = [], []
    started = time.monotonic()
    while True:
        batch_started = time.monotonic()
        batch = run_batch(args.workload, args.seed, samples_dir, setups)
        if batch is None:
            break
        batches.append(batch)
        now = time.monotonic()
        if now - started + (now - batch_started) > args.seconds:
            break

    failures = ["worker failed"] if batch is None else check(
        args.workload, args.seed, batches, args.record)
    traced = None
    if traced_run and not failures:
        traced = run_worker(args.workload, args.seed, 0, traced=True)
        if traced is None:
            failures.append("traced worker failed")
        elif traced["digest"] != batches[0][0]["digest"]:
            failures.append("tracing changed the results digest")

    for failure in failures:
        note(f"output check failed: {failure}")
    correct = not failures
    attempted = sum(r["cells"] for r in batches[0]) if batches else 1
    failed = 0 if correct else attempted

    if batches:
        first = batches[0]
        samples = sum(r["idelay_samples"] for r in first)
        note(f"{args.workload} seed {args.seed}: {len(batches)} run(s) of "
             f"{len(first)} inputs, {sum(r['sessions'] for r in first)} "
             f"sessions, {attempted} cells, {samples} interactivity-delay "
             f"samples ({samples // 50} beyond p98), digest "
             f"{batch_digest(first)}")

    if traced_run:
        if traced is None:
            values = {name: 0.0 for name in PER_LAYER_UNITS}
        else:
            values = per_layer(traced, batches)
            path = write_trace(args.workload, args.seed, traced, batches,
                               values)
            note(f"trace written to {path.relative_to(ROOT)}")
            for name, paper in PAPER_RATIOS.items():
                note(f"{name} {values[name]:.4f} (paper: {paper})")
        print(result_line(correct, attempted, failed, values,
                          PER_LAYER_UNITS))
    else:
        values = (end_to_end(batches, setups, samples_dir, failed)
                  if batches else {name: 0.0 for name in END_TO_END_UNITS})
        print(result_line(correct, attempted, failed, values,
                          END_TO_END_UNITS))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
