"""End-to-end benchmark of the federation gateway.

    PYTHONPATH=src python benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--quick] [--results DIR]

Runs one workload (or, without ``--workload``, each workload in its own
fresh interpreter, one after another) for about ``--seconds`` of timed
requests (default: ``run_seconds`` in ``BENCHMARK.json``), checks every
output, prints each metric with its unit and sample count, and ends with
one JSON line::

    {"correct": true, "attempted": 9000, "failed": 0, "metrics": {...}}

Untraced runs report the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that alternates untraced and traced
episodes and reports the per-layer metrics instead.  A failing
correctness gate exits with status 1.  Full results (and, for traced
runs, the spans) are written under ``benchmarks/results/e2e/``.
"""

from __future__ import annotations

import os

# One BLAS thread: a run uses the main thread plus at most one helper
# (the front door's prefit thread or one shard worker) on a 2-core host.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import argparse
import gc
import gzip
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results" / "e2e"

#: Every p99 rests on at least this many samples.
MIN_SAMPLES = 1000
#: setup_s is the median of at least this many set-ups per run.
MIN_SETUPS = 3
WORKLOAD_NAMES = ("ingest-mixed", "submit-hot", "plan-wide", "governed-durable")


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--seconds", type=float,
        help="timed seconds per run (default run_seconds in BENCHMARK.json; 0 with --quick)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: the per-layer traced run instead of the end-to-end one",
    )
    parser.add_argument(
        "--quick", action="store_true", help="tiny episodes, for the tests"
    )
    parser.add_argument("--results", type=Path, default=RESULTS, help="result directory")
    return parser.parse_args(argv)


def host_reference_ms() -> float:
    """Median time of a fixed pure-Python + numpy loop that touches no
    project code: the host-speed reference recorded beside every run
    (recorded only; no metric is scaled by it)."""
    matrix = np.random.default_rng(0).random((96, 96))
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(250_000):
            total += i * i % 7
        product = matrix
        for _ in range(160):
            product = np.tanh(product @ matrix)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e3


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def run_episodes(workload, args, tracer, timed_build):
    """Episodes until about ``args.seconds`` of timed requests: another
    episode starts only if it is expected to end nearer the target than
    stopping now would.  A traced run alternates untraced and traced
    episodes and needs at least one of each.  The host reference is
    sampled before every episode.  Set-ups are ``(scaled, wall)``
    seconds."""
    episodes, traced, setups, refs = [], [], [], []
    while True:
        timed = sum(e.wall_s for e in episodes + traced)
        count = len(episodes) + len(traced)
        samples = sum(len(e.order) for e in episodes)
        enough = count > 0 and timed + timed / count / 2 >= args.seconds
        if args.trace:
            enough = enough and episodes and traced
        elif not args.quick:
            enough = enough and samples >= MIN_SAMPLES
        if enough:
            break
        refs.append(host_reference_ms())
        system, *setup = timed_build(workload)
        setups.append(setup)
        # Start every episode from the same collector state.
        gc.collect()
        # ABBA order (untraced, traced, traced, untraced, ...) so warm-up
        # and host drift fall on both sides of the overhead estimate.
        trace_this = bool(args.trace) and count % 4 in (1, 2)
        try:
            episode = workload.run(system, tracer if trace_this else None)
        finally:
            workload.close(system)
        (traced if trace_this else episodes).append(episode)
    # set-up time is a metric of its own: take several samples even when
    # one episode filled the run.
    while not args.trace and not args.quick and len(setups) < MIN_SETUPS:
        system, *setup = timed_build(workload)
        setups.append(setup)
        workload.close(system)
    return episodes, traced, setups, statistics.median(refs)


def gates(workload, episodes, traced) -> list[str]:
    failures = []
    everything = episodes + traced
    for index, episode in enumerate(everything):
        failures.extend(f"episode {index}: {message}" for message in episode.failures)
        if episode.failed:
            failures.append(f"episode {index}: {episode.failed} failed requests")
        if episode.candidate_counts - {workload.candidates}:
            failures.append(
                f"episode {index}: QEP spaces {sorted(episode.candidate_counts)}, "
                f"expected {workload.candidates}"
            )
    digests = {episode.digest for episode in everything}
    if len(digests) != 1:
        failures.append(f"episodes disagree: {len(digests)} distinct digests")
    failures.extend(workload.check_run(episodes))
    return failures


def end_to_end(episodes, setups) -> dict:
    """Every metric as ``{"value", "unit", "n"}``: the BENCHMARK.json set
    first, then workload-specific extras, then the unscaled wall-clock
    timings (``wall.*``) and the host tick they were scaled by."""
    order = [value for e in episodes for value in e.order]
    wall = [value for e in episodes for value in e.wall]
    rates = [rate for e in episodes for rate in e.rates]
    wall_rates = [rate for e in episodes for rate in e.wall_rates]
    ticks = [tick for e in episodes for tick in e.ticks]
    rows = sum(e.rows for e in episodes)
    metrics = {
        "setup_s": (statistics.median(s for s, _wall in setups), "s", len(setups)),
        "throughput_rps": (statistics.median(rates), "1/s", len(rates)),
        "latency_p50_ms": (percentile(order, 50) * 1e3, "ms", len(order)),
        "latency_p99_ms": (percentile(order, 99) * 1e3, "ms", len(order)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1
        ),
    }
    for kind in ("observe", "submit"):
        values = [v for e in episodes for v in e.latencies.get(kind, ())]
        if values and len(values) < len(order):
            metrics[f"{kind}_p50_ms"] = (percentile(values, 50) * 1e3, "ms", len(values))
            metrics[f"{kind}_p99_ms"] = (percentile(values, 99) * 1e3, "ms", len(values))
    first = [v for e in episodes for v in e.first_report_ms]
    if first:
        metrics["first_report_p50_ms"] = (percentile(first, 50), "ms", len(first))
    recoveries = [e.recover_s for e in episodes if e.recover_s is not None]
    if recoveries:
        metrics["recover_s"] = (statistics.median(recoveries), "s", len(recoveries))
    errors = episodes[0].errors
    if errors:
        metrics["mre"] = (statistics.fmean(errors), "ratio", len(errors))
    failed = sum(e.failed for e in episodes)
    metrics["error_rate"] = (failed / rows, "ratio", rows)
    metrics["latency_drift"] = (
        statistics.fmean(drift(e.order) for e in episodes), "ratio", len(episodes)
    )
    metrics.update(
        {
            "wall.setup_s": (
                statistics.median(w for _s, w in setups), "s", len(setups)
            ),
            "wall.throughput_rps": (statistics.median(wall_rates), "1/s", len(wall_rates)),
            "wall.latency_p50_ms": (percentile(wall, 50) * 1e3, "ms", len(wall)),
            "wall.latency_p99_ms": (percentile(wall, 99) * 1e3, "ms", len(wall)),
            "host.tick_ms": (statistics.median(ticks), "ms", len(ticks)),
        }
    )
    return {
        name: {"value": float(value), "unit": unit, "n": n}
        for name, (value, unit, n) in metrics.items()
    }


def drift(latencies) -> float:
    """Mean latency of the last decile over that of the first decile."""
    tenth = max(1, len(latencies) // 10)
    return statistics.fmean(latencies[-tenth:]) / statistics.fmean(latencies[:tenth])


def per_layer(tracer, episodes, traced, host_ref_ms) -> dict:
    requests = sum(e.rows for e in traced)
    count = len(traced)
    totals = tracer.layer_totals()
    all_self = sum(entry["self_ns"] for entry in totals.values())
    metrics = {}
    for layer in LAYERS:
        entry = totals[layer]
        metrics[f"{layer}.calls_per_req"] = (entry["calls"] / requests, "count")
        metrics[f"{layer}.self_pct"] = (100.0 * entry["self_ns"] / all_self, "%")
    wall_ns = sum(e.wall_s for e in traced) * 1e9
    untraced_rps = statistics.median(rate for e in episodes for rate in e.rates)
    traced_rps = statistics.median(rate for e in traced for rate in e.rates)

    def counter(name):
        return sum(e.counters.get(name, 0) for e in traced)

    fits, hits = counter("serving.fits"), counter("serving.hits")
    flushes = counter("frontdoor.flushes")
    enumerations = totals["enumerator"]["calls"]
    metrics.update(
        {
            "trace.us_per_req": (all_self / requests / 1e3, "us"),
            "trace.coverage_pct": (
                100.0 * tracer.root_ns(threading.get_ident()) / wall_ns, "%"
            ),
            "trace.overhead_pct": (100.0 * (1 - traced_rps / untraced_rps), "%"),
            "host.ref_ms": (host_ref_ms, "ms"),
            "enumerator.candidates_per_call": (
                tracer.measured["enumerator"] / enumerations if enumerations else 0.0,
                "count",
            ),
            "serving.fits_per_req": (fits / requests, "count"),
            "serving.snapshot_hit_ratio": (
                hits / (hits + fits) if hits + fits else 0.0, "ratio"
            ),
            "serving.rpc_per_req": (counter("serving.rpc") / requests, "count"),
            "frontdoor.flushes": (flushes / count, "count"),
            "frontdoor.segments_per_flush": (
                counter("frontdoor.segments") / flushes if flushes else 0.0, "count"
            ),
            "frontdoor.fit_rounds": (counter("frontdoor.fit_rounds") / count, "count"),
            "frontdoor.peak_depth": (
                max(e.counters.get("frontdoor.peak_depth", 0) for e in traced), "count"
            ),
            "wal.bytes_per_row": (tracer.measured["wal"] / requests, "B"),
            "wal.checkpoints": (totals["wal.checkpoint"]["calls"] / count, "count"),
            "audit.records_per_req": (totals["audit"]["calls"] / requests, "count"),
            "history.rows_max": (
                max(e.counters.get("history.rows_max", 0) for e in traced), "count"
            ),
            "gateway.latency_drift": (
                statistics.fmean(drift(e.order) for e in episodes), "ratio"
            ),
        }
    )
    return {
        name: {"value": float(value), "unit": unit, "n": requests}
        for name, (value, unit) in metrics.items()
    }


def run_one(args) -> int:
    import workloads  # imports the gateway, so only once src/ is on the path

    args.results.mkdir(parents=True, exist_ok=True)
    scratch = args.results / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.quick, scratch)
        episodes, traced, setups, host_ref_ms = run_episodes(
            workload, args, tracer, workloads.timed_build
        )
        failures = gates(workload, episodes, traced)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.trace:
        metrics = per_layer(tracer, episodes, traced, host_ref_ms)
    else:
        metrics = end_to_end(episodes, setups)
    attempted = sum(e.rows for e in episodes + traced)
    failed = sum(e.failed for e in episodes + traced)
    mode = "traced" if args.trace else "end-to-end"
    print(f"{args.workload} seed={args.seed} {mode}: {len(episodes)} untraced + "
          f"{len(traced)} traced episodes, {attempted} requests")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']:6s} n={metric['n']}")
    print(f"  digest {episodes[0].digest}")
    print(f"  host.ref_ms {host_ref_ms:.3f}")
    for message in failures:
        print(f"GATE FAILED: {message}")

    stamp = time.strftime("%Y%m%dT%H%M%S")
    stem = f"{args.workload}-s{args.seed}-{'trace' if args.trace else 'e2e'}-{stamp}-{os.getpid()}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "quick": args.quick,
        "seconds": args.seconds,
        "correct": not failures,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "digest": episodes[0].digest,
        "digests": [e.digest for e in episodes + traced],
        "mre": statistics.fmean(episodes[0].errors) if episodes[0].errors else None,
        "episodes": len(episodes),
        "traced_episodes": len(traced),
        "host": {
            "ref_ms": host_ref_ms,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "metrics": metrics,
    }
    (args.results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with gzip.open(
            args.results / f"{stem}.spans.json.gz", "wt", compresslevel=1
        ) as handle:
            json.dump(tracer.export(), handle, separators=(",", ":"))

    section = declared()["per_layer" if args.trace else "end_to_end"]
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
            for m in section
        },
    }
    print(json.dumps(line))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one at a time."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--results", str(args.results),
        ] + (["--quick"] if args.quick else [])
        status = max(status, subprocess.run(command).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no gateway sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(declared()["run_seconds"])
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
