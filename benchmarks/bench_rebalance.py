"""Elastic rebalancing vs static CRC32 placement on skewed tenant load.

CRC32 hash placement (PR 5) is uniform over *keys*, but federation load
is skewed over *work*: here eight hot hospital templates — deliberately
chosen so CRC32 colocates them all on shard 0 of 2 — go stale and refit
on EVERY burst, while four cold templates on shard 1 receive a row (and
therefore a refit) only every fourth burst.  Two identical sharded
services replay the identical stream:

* **static** — placement stays wherever CRC32 put it; every burst's
  coalesced fit round serialises the eight hot fits on shard 0 while
  shard 1 naps;
* **elastic** — one :class:`~repro.serving.RebalancePolicy` control
  cycle runs between bursts (the gateway's per-flush hook, driven here
  directly), migrating hot templates onto the cold shard until the
  heat hysteresis says balanced.

An un-timed settle phase runs the identical skewed schedule first: a
template's very first fit (full window search) costs an order of
magnitude more than its steady-state incremental refits, and until the
per-fit wall-time EWMAs shake that startup transient off, the heat
metric would chase stale outliers.  The measured phase then compares
converged steady states — which is also the regime a long-lived
federation gateway actually serves in.

Correctness is the hard gate for BOTH placements: identical window
choices and a max relative prediction difference <= 1e-9 against the
in-process oracle on the final models (placement must never change a
number), and identical fit counters.  The burst-throughput ratio
(static seconds / elastic seconds) is asserted above 1.0 only on
multicore hosts — on a single core both placements serialise on the
same CPU and the ratio is informational (printed and recorded, never a
failure).

Results are emitted machine-readable to
``benchmarks/results/BENCH_rebalance.json`` (a CI artifact).

Run standalone:  PYTHONPATH=src python benchmarks/bench_rebalance.py [--quick]
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
from repro.serving import (
    EstimationService,
    RebalanceConfig,
    RebalancePolicy,
    ShardedEstimationService,
    shard_of,
)
from repro.serving.worker import dream_strategy

RESULTS_DIR = Path(__file__).parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_rebalance.json"

FEATURES = ("size", "nodes")
METRICS = ("time", "money")
R2_REQUIRED = 0.8
MAX_WINDOW = 48

#: Two shards keep the skew story exact: CRC32 colocates every hot
#: template on shard 0, so static placement cannot spread them.
SHARD_WORKERS = 2
HOT_TEMPLATES = 8
COLD_TEMPLATES = 4
#: Hot tenants take rows (and refit) every burst; cold tenants only
#: every COLD_PERIOD-th burst — the skew is in fit *frequency*, which is
#: exactly what the policy's fits-delta x fit-EWMA heat metric measures.
HOT_ROWS_PER_BURST = 8
COLD_ROWS_PER_BURST = 1
COLD_PERIOD = 4


def pick_keys() -> tuple[list[str], list[str]]:
    """Hot keys CRC32-homed on shard 0, cold keys on shard 1."""
    hot, cold = [], []
    index = 0
    while len(hot) < HOT_TEMPLATES or len(cold) < COLD_TEMPLATES:
        key = f"tenant-{index:03d}"
        index += 1
        if shard_of(key, SHARD_WORKERS) == 0:
            if len(hot) < HOT_TEMPLATES:
                hot.append(key)
        elif len(cold) < COLD_TEMPLATES:
            cold.append(key)
    return hot, cold


def observation_stream(key: str, ticks: int):
    rng = RngStream(59, "rebalance", key)
    out = []
    for tick in range(ticks):
        size = float(rng.uniform(10, 100))
        nodes = float(rng.integers(2, 9))
        cost_time = (5 + 0.4 * size / nodes) * (1 + float(rng.normal(0, 0.03)))
        money = 0.01 * size + 0.002 * nodes * cost_time
        out.append(
            (tick, {"size": size, "nodes": nodes}, {"time": cost_time, "money": money})
        )
    return out


@dataclass(frozen=True)
class RebalanceReport:
    hot_templates: int
    cold_templates: int
    bursts: int
    shard_workers: int
    static_seconds: float
    elastic_seconds: float
    control_seconds: float
    migrations: int
    final_route_version: int
    max_relative_difference: float
    windows_identical: bool
    static_fits: int
    elastic_fits: int
    threaded_fits: int

    @property
    def throughput_ratio(self) -> float:
        """Static vs elastic burst time (>1 means rebalancing won)."""
        return self.static_seconds / self.elastic_seconds


def run_rebalance(quick: bool = False) -> RebalanceReport:
    bursts = 8 if quick else 16
    settle_bursts = 8 if quick else 12
    hot_warmup = 60 if quick else 120
    cold_warmup = 8

    hot, cold = pick_keys()
    keys = hot + cold
    total_bursts = settle_bursts + bursts

    def rows_for(key: str, burst: int) -> int:
        if key in hot:
            return HOT_ROWS_PER_BURST
        return COLD_ROWS_PER_BURST if burst % COLD_PERIOD == COLD_PERIOD - 1 else 0

    warmup = {key: hot_warmup if key in hot else cold_warmup for key in keys}
    streams = {
        key: observation_stream(
            key,
            warmup[key] + sum(rows_for(key, burst) for burst in range(total_bursts)),
        )
        for key in keys
    }
    probe = RngStream(61, "probe").uniform(5.0, 120.0, size=(64, len(FEATURES)))

    factory = partial(dream_strategy, r2_required=R2_REQUIRED, max_window=MAX_WINDOW)
    threaded = EstimationService(
        strategy=dream_strategy(r2_required=R2_REQUIRED, max_window=MAX_WINDOW)
    )
    static = ShardedEstimationService(factory, workers=SHARD_WORKERS)
    elastic = ShardedEstimationService(factory, workers=SHARD_WORKERS)
    services = (threaded, static, elastic)
    # A tight hysteresis band (vs the conservative defaults) lets the
    # policy walk the colocated hot set to a near-even heat split within
    # the first few cycles instead of stopping at "merely less skewed".
    policy = RebalancePolicy(
        RebalanceConfig(max_moves=4, hot_factor=1.05, cold_factor=0.95)
    )

    cursors = {key: 0 for key in keys}

    def feed(key: str, rows: int) -> None:
        start = cursors[key]
        cursors[key] = start + rows
        for tick, features, costs in streams[key][start : start + rows]:
            for service in services:
                service.record(key, tick, features, costs)

    try:
        for key in keys:
            for service in services:
                service.register(key, feature_names=FEATURES, metrics=METRICS)
            feed(key, warmup[key])
        # Settle phase (un-timed): identical skewed schedule, control
        # loop running, so first-fit EWMA transients wash out and the
        # elastic placement converges before the clock starts.
        for burst in range(settle_bursts):
            for key in keys:
                feed(key, rows_for(key, burst))
            threaded.refresh_batch()
            static.refresh_batch()
            elastic.refresh_batch()
            elastic.rebalance(policy)

        static_seconds = 0.0
        elastic_seconds = 0.0
        control_seconds = 0.0
        for burst in range(settle_bursts, total_bursts):
            for key in keys:
                feed(key, rows_for(key, burst))
            threaded.refresh_batch()

            started = time.perf_counter()
            static.refresh_batch()
            static_seconds += time.perf_counter() - started

            started = time.perf_counter()
            elastic.refresh_batch()
            elastic_seconds += time.perf_counter() - started

            # The control loop runs after the serving burst, exactly
            # like the gateway's per-flush rebalance hook.
            started = time.perf_counter()
            elastic.rebalance(policy)
            control_seconds += time.perf_counter() - started

        # Hard gate: final models agree bitwise-level with the oracle on
        # BOTH placements (the JSON keeps the measured difference).
        max_diff = 0.0
        windows_identical = True
        for key in keys:
            want = threaded.model(key)
            reference = want.predict_batch(probe)
            for contender in (static, elastic):
                got = contender.model(key)
                windows_identical &= got.training_size == want.training_size
                columns = got.predict_batch(probe)
                for metric in METRICS:
                    scale = np.maximum(np.abs(reference[metric]), 1e-9)
                    max_diff = max(
                        max_diff,
                        float(np.max(np.abs(columns[metric] - reference[metric]) / scale)),
                    )
        return RebalanceReport(
            hot_templates=len(hot),
            cold_templates=len(cold),
            bursts=bursts,
            shard_workers=SHARD_WORKERS,
            static_seconds=static_seconds,
            elastic_seconds=elastic_seconds,
            control_seconds=control_seconds,
            migrations=elastic.migrations,
            final_route_version=elastic.route_version,
            max_relative_difference=max_diff,
            windows_identical=windows_identical,
            static_fits=static.stats.fits,
            elastic_fits=elastic.stats.fits,
            threaded_fits=threaded.stats.fits,
        )
    finally:
        static.close()
        elastic.close()


def format_report(report: RebalanceReport) -> str:
    lines = [
        "Elastic rebalancing vs static CRC32 placement (skewed load)",
        "-----------------------------------------------------------",
        f"hot / cold templates          : {report.hot_templates} / {report.cold_templates}"
        f" (hot all CRC32-homed on shard 0 of {report.shard_workers})",
        f"bursts                        : {report.bursts}",
        f"static placement              : {report.static_seconds * 1e3:8.1f} ms",
        f"elastic placement             : {report.elastic_seconds * 1e3:8.1f} ms",
        f"elastic vs static             : {report.throughput_ratio:8.2f}x",
        f"control-loop overhead         : {report.control_seconds * 1e3:8.1f} ms",
        f"migrations (route version)    : {report.migrations} (v{report.final_route_version})",
        f"fits (static/elastic/oracle)  : {report.static_fits} / {report.elastic_fits} / {report.threaded_fits}",
        f"max relative prediction diff  : {report.max_relative_difference:.2e}",
        f"windows identical             : {report.windows_identical}",
    ]
    return "\n".join(lines)


def write_json(report: RebalanceReport) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": "rebalance",
        "hot_templates": report.hot_templates,
        "cold_templates": report.cold_templates,
        "bursts": report.bursts,
        "shard_workers": report.shard_workers,
        "host_cpu_count": os.cpu_count(),
        "static_ms": round(report.static_seconds * 1e3, 3),
        "elastic_ms": round(report.elastic_seconds * 1e3, 3),
        "throughput_ratio": round(report.throughput_ratio, 3),
        "control_ms": round(report.control_seconds * 1e3, 3),
        "migrations": report.migrations,
        "final_route_version": report.final_route_version,
        "max_relative_difference": report.max_relative_difference,
        "windows_identical": report.windows_identical,
        "static_fits": report.static_fits,
        "elastic_fits": report.elastic_fits,
        "threaded_fits": report.threaded_fits,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def check_report(report: RebalanceReport) -> None:
    # Correctness gates: placement never changes a number, on either
    # placement, and the control loop actually moved work.
    assert report.windows_identical
    assert report.max_relative_difference <= 1e-9, report.max_relative_difference
    assert report.static_fits == report.threaded_fits
    assert report.elastic_fits == report.threaded_fits
    assert report.migrations >= 1, "the policy never moved a template"
    cores = os.cpu_count() or 1
    if cores < 2:
        print(
            f"[informational] single-core host ({cores} cpu): skipping the "
            f"elastic-vs-static floor (measured {report.throughput_ratio:.2f}x)"
        )
        return
    # Multicore: spreading the colocated hot templates must beat the
    # one-shard pile-up (the JSON records the trajectory).
    assert report.throughput_ratio > 1.0, (
        f"elastic lost to static on skewed load: {report.throughput_ratio:.2f}x"
    )


def test_rebalance_bench(benchmark):
    from conftest import record_result

    report = benchmark.pedantic(run_rebalance, rounds=1, iterations=1)
    record_result("rebalance", format_report(report))
    write_json(report)
    check_report(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller burst stream for CI smoke runs"
    )
    arguments = parser.parse_args()
    final = run_rebalance(quick=arguments.quick)
    print(format_report(final))
    write_json(final)
    check_report(final)
