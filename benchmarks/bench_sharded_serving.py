"""Sharded cross-process serving vs the in-process service.

The 16-template drift scenario of ``bench_serving_burst.py``, replayed
through both serving backends:

* **threaded** — :class:`~repro.serving.EstimationService`: each
  burst's stale templates refitted serially as one group in the parent
  process;
* **sharded** — :class:`~repro.serving.ShardedEstimationService`:
  templates hash-partitioned across worker processes, each burst's
  group shipped as one ``fit_many`` RPC per busy shard, fits run in the
  workers (no GIL crosstalk), history rows streamed lazily over the
  pipe RPC, predictions served from parent-side snapshots.

Mid-run, one shard worker is **forcibly crashed** to exercise the
detection/respawn/replay path under load.

Correctness is the hard gate — identical window choices and a max
relative prediction difference <= 1e-9 vs the threaded service on every
burst, crash included (in practice the agreement is bitwise).  The
burst-throughput ratio is reported and persisted; it is asserted only
on multicore hosts, where cross-process fitting can actually win —
on a single core the RPC overhead makes the ratio informational
(printed and recorded, never a failure).

Results are emitted machine-readable to
``benchmarks/results/BENCH_sharded.json`` (a CI artifact, like
``BENCH_moqp.json``).

Run standalone:  PYTHONPATH=src python benchmarks/bench_sharded_serving.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from repro.common.rng import RngStream
from repro.serving import EstimationService, ShardedEstimationService
from repro.serving.worker import dream_strategy

from bench_serving_burst import (
    CALLS_PER_BURST,
    FEATURES,
    MAX_WINDOW,
    METRICS,
    R2_REQUIRED,
    TEMPLATES,
    template_stream,
)

RESULTS_DIR = Path(__file__).parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_sharded.json"

SHARD_WORKERS = max(2, min(4, os.cpu_count() or 2))
#: Burst index at which one shard worker is forcibly killed.
CRASH_AT_BURST = 3


@dataclass(frozen=True)
class ShardedReport:
    templates: int
    bursts: int
    candidates_per_template: int
    shard_workers: int
    threaded_seconds: float
    sharded_seconds: float
    max_relative_difference: float
    windows_identical: bool
    respawns: int
    sharded_fits: int
    threaded_fits: int

    @property
    def throughput_ratio(self) -> float:
        """Threaded vs sharded burst time (>1 means sharding won)."""
        return self.threaded_seconds / self.sharded_seconds


def run_sharded_serving(quick: bool = False) -> ShardedReport:
    warmup = 12 if quick else 24
    bursts = 8 if quick else 20
    candidate_count = 400 if quick else 1000

    keys = [f"template-{i:02d}" for i in range(TEMPLATES)]
    streams = {key: template_stream(key, warmup + bursts) for key in keys}
    matrices = {
        key: RngStream(71, "candidates", key).uniform(
            5.0, 120.0, size=(candidate_count, len(FEATURES))
        )
        for key in keys
    }

    factory = partial(dream_strategy, r2_required=R2_REQUIRED, max_window=MAX_WINDOW)
    threaded = EstimationService(
        strategy=dream_strategy(r2_required=R2_REQUIRED, max_window=MAX_WINDOW)
    )
    sharded = ShardedEstimationService(factory, workers=SHARD_WORKERS)
    for key in keys:
        threaded.register(key, feature_names=FEATURES, metrics=METRICS)
        sharded.register(key, feature_names=FEATURES, metrics=METRICS)

    def feed(key: str, tick: int, features, costs) -> None:
        threaded.record(key, tick, features, costs)
        sharded.record(key, tick, features, costs)

    for key in keys:
        for tick, features, costs in streams[key][:warmup]:
            feed(key, tick, features, costs)

    threaded_seconds = 0.0
    sharded_seconds = 0.0
    max_diff = 0.0
    windows_identical = True
    crash_rng = RngStream(83, "crash")

    try:
        for burst in range(bursts):
            for key in keys:
                tick, features, costs = streams[key][warmup + burst]
                feed(key, tick, features, costs)

            if burst == CRASH_AT_BURST:
                victim = int(crash_rng.integers(0, sharded.workers))
                sharded.inject_worker_crash(victim)

            started = time.perf_counter()
            for _ in range(CALLS_PER_BURST):
                threaded_models = threaded.refresh_batch().models
                threaded_columns = {
                    key: threaded.estimate_batch(key, matrices[key]) for key in keys
                }
            threaded_seconds += time.perf_counter() - started

            started = time.perf_counter()
            for _ in range(CALLS_PER_BURST):
                sharded_models = sharded.refresh_batch().models
                sharded_columns = {
                    key: sharded.estimate_batch(key, matrices[key]) for key in keys
                }
            sharded_seconds += time.perf_counter() - started

            for key in keys:
                windows_identical &= (
                    sharded_models[key].training_size
                    == threaded_models[key].training_size
                )
                for metric in METRICS:
                    reference = threaded_columns[key][metric]
                    scale = np.maximum(np.abs(reference), 1e-9)
                    max_diff = max(
                        max_diff,
                        float(
                            np.max(
                                np.abs(reference - sharded_columns[key][metric])
                                / scale
                            )
                        ),
                    )

        return ShardedReport(
            templates=TEMPLATES,
            bursts=bursts,
            candidates_per_template=candidate_count,
            shard_workers=SHARD_WORKERS,
            threaded_seconds=threaded_seconds,
            sharded_seconds=sharded_seconds,
            max_relative_difference=max_diff,
            windows_identical=windows_identical,
            respawns=sharded.respawns,
            sharded_fits=sharded.stats.fits,
            threaded_fits=threaded.stats.fits,
        )
    finally:
        sharded.close()


def format_report(report: ShardedReport) -> str:
    lines = [
        "Sharded cross-process serving vs in-process service",
        "---------------------------------------------------",
        f"templates x bursts x calls    : {report.templates} x {report.bursts} x {CALLS_PER_BURST}",
        f"candidates per template       : {report.candidates_per_template}",
        f"shard worker processes        : {report.shard_workers}",
        f"threaded (in-process, serial) : {report.threaded_seconds * 1e3:8.1f} ms",
        f"sharded (worker processes)    : {report.sharded_seconds * 1e3:8.1f} ms",
        f"sharded vs threaded           : {report.throughput_ratio:8.2f}x",
        f"forced crashes -> respawns    : 1 -> {report.respawns}",
        f"fits (sharded / threaded)     : {report.sharded_fits} / {report.threaded_fits}",
        f"max relative prediction diff  : {report.max_relative_difference:.2e}",
        f"windows identical             : {report.windows_identical}",
    ]
    return "\n".join(lines)


def write_json(report: ShardedReport) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": "sharded_serving",
        "templates": report.templates,
        "bursts": report.bursts,
        "calls_per_burst": CALLS_PER_BURST,
        "candidates_per_template": report.candidates_per_template,
        "shard_workers": report.shard_workers,
        "host_cpu_count": os.cpu_count(),
        "threaded_ms": round(report.threaded_seconds * 1e3, 3),
        "sharded_ms": round(report.sharded_seconds * 1e3, 3),
        "throughput_ratio": round(report.throughput_ratio, 3),
        "respawns": report.respawns,
        "sharded_fits": report.sharded_fits,
        "threaded_fits": report.threaded_fits,
        "max_relative_difference": report.max_relative_difference,
        "windows_identical": report.windows_identical,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def check_report(report: ShardedReport) -> None:
    assert report.templates == TEMPLATES, report.templates
    assert report.windows_identical
    # The tentpole acceptance bar: oracle equivalence through a forced
    # worker crash and respawn.
    assert report.max_relative_difference <= 1e-9, report.max_relative_difference
    assert report.respawns == 1, report.respawns
    assert report.sharded_fits == report.threaded_fits
    cores = os.cpu_count() or 1
    if cores < 2:
        # Flake guard: on a single core the worker pool cannot overlap
        # fits, so the ratio only measures RPC overhead — report it,
        # never fail on it.
        print(
            f"[informational] single-core host ({cores} cpu): skipping the "
            f"throughput-ratio floor (measured {report.throughput_ratio:.2f}x)"
        )
        return
    # Multicore: sharding must stay within sanity range of the threaded
    # service even at this modest per-fit work size (its win grows with
    # per-shard fit cost; the JSON records the trajectory).
    assert report.throughput_ratio >= 0.2, (
        f"sharded throughput collapsed: {report.throughput_ratio:.2f}x"
    )


def test_sharded_serving_burst(benchmark):
    from conftest import record_result

    report = benchmark.pedantic(run_sharded_serving, rounds=1, iterations=1)
    record_result("sharded_serving", format_report(report))
    write_json(report)
    check_report(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller burst stream for CI smoke runs"
    )
    arguments = parser.parse_args()
    final = run_sharded_serving(quick=arguments.quick)
    print(format_report(final))
    write_json(final)
    check_report(final)
