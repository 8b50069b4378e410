"""Multi-tenant burst serving vs sequential seed-path fitting.

The MIDAS federation serves many hospitals' query templates at once: a
submission burst leaves *every* template's model stale and each template
must re-cost its own candidate set.  This benchmark replays that burst
loop over N independent drifting histories two ways:

* **seed path** — the repository's original serving behaviour: each
  template is fitted sequentially with the batch :class:`DreamEstimator`
  (full refit per window size, every call) and its candidate set is
  costed row by row in Python;
* **serving path** — :class:`~repro.serving.EstimationService`: the
  stale templates are refitted as one group by ``refresh_batch``
  (serially, with incremental engines from the shared
  :class:`~repro.core.cache.ModelCache`),
  re-planning calls hit the per-version snapshot, and candidate sets
  are costed with one matmul per metric.

Both paths must choose identical windows and agree on every candidate
prediction to 1e-6, and the serving path must clear >= 2x burst
throughput at 16 templates.  The speedup comes from the incremental +
batched estimation machinery.  A refit thread pool used to overlap the
group's fits; on a 2-core host it ran at 0.56-0.75x the serial loop
(each fit is a few small NumPy solves, too short to amortise thread
hand-offs), so it was removed.

Results are written machine-readable to
``benchmarks/results/BENCH_serving_burst.json`` before the assertions
run, so a failing run still leaves its numbers behind.

Run standalone:  PYTHONPATH=src python benchmarks/bench_serving_burst.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.cloud.variability import default_federation_load
from repro.common.rng import RngStream
from repro.core import DreamEstimator, ExecutionHistory
from repro.ires.modelling import DreamStrategy
from repro.serving import EstimationService

TEMPLATES = 16
R2_REQUIRED = 0.8
MAX_WINDOW = 20
FEATURES = ("size", "nodes")
METRICS = ("time", "money")
#: Optimizer costings per burst per template: the first follows a fresh
#: observation (stale -> refit), the second is a re-planning call on an
#: unchanged history (snapshot hit for the service, a full refit for the
#: seed path).
CALLS_PER_BURST = 2

RESULTS_DIR = Path(__file__).parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_serving_burst.json"


@dataclass(frozen=True)
class BurstReport:
    templates: int
    bursts: int
    candidates_per_template: int
    seed_seconds: float
    serving_seconds: float
    max_relative_difference: float
    windows_identical: bool
    snapshot_hits: int
    engine_cache_hits: int
    engine_cache_misses: int

    @property
    def speedup(self) -> float:
        return self.seed_seconds / self.serving_seconds


def template_stream(key: str, ticks: int):
    """One tenant's drifting execution stream (paper drift scenario)."""
    rng = RngStream(61, "burst", key)
    load = default_federation_load(rng.child("load"))
    out = []
    for tick in range(ticks):
        size = float(rng.uniform(10, 100))
        nodes = float(rng.integers(2, 9))
        factor = load.factor(tick)
        duration = factor * (5 + 0.4 * size / nodes) * (1 + float(rng.normal(0, 0.03)))
        money = factor * (0.01 * size + 0.002 * nodes * duration)
        out.append(
            (tick, {"size": size, "nodes": nodes}, {"time": duration, "money": money})
        )
    return out


def run_serving_burst(quick: bool = False) -> BurstReport:
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

    # Seed path state: one replay history per template.
    seed_histories = {key: ExecutionHistory(FEATURES, METRICS) for key in keys}
    batch = DreamEstimator(r2_required=R2_REQUIRED, max_window=MAX_WINDOW)

    # Serving path state.
    service = EstimationService(
        strategy=DreamStrategy(r2_required=R2_REQUIRED, max_window=MAX_WINDOW)
    )
    for key in keys:
        service.register(key, feature_names=FEATURES, metrics=METRICS)

    def feed(key: str, tick: int, features, costs) -> None:
        seed_histories[key].append(tick, features, costs)
        service.record(key, tick, features, costs)

    for key in keys:
        for tick, features, costs in streams[key][:warmup]:
            feed(key, tick, features, costs)

    seed_seconds = 0.0
    serving_seconds = 0.0
    max_diff = 0.0
    windows_identical = True

    for burst in range(bursts):
        for key in keys:
            tick, features, costs = streams[key][warmup + burst]
            feed(key, tick, features, costs)

        # Seed path: sequential batch refits + per-row Python costing.
        started = time.perf_counter()
        seed_predictions: dict[str, list[dict[str, float]]] = {}
        seed_windows: dict[str, int] = {}
        for _ in range(CALLS_PER_BURST):
            for key in keys:
                result = batch.fit(seed_histories[key].datasets())
                seed_windows[key] = result.window_size
                seed_predictions[key] = [result.predict(row) for row in matrices[key]]
        seed_seconds += time.perf_counter() - started

        # Serving path: one group refresh, then batched costings.
        started = time.perf_counter()
        for _ in range(CALLS_PER_BURST):
            models = service.refresh_batch().models
            serving_columns = {
                key: service.estimate_batch(key, matrices[key]) for key in keys
            }
        serving_seconds += time.perf_counter() - started

        for key in keys:
            windows_identical &= models[key].training_size == seed_windows[key]
            for metric in METRICS:
                seed_column = np.array(
                    [row[metric] for row in seed_predictions[key]]
                )
                scale = np.maximum(np.abs(seed_column), 1e-9)
                max_diff = max(
                    max_diff,
                    float(
                        np.max(
                            np.abs(seed_column - serving_columns[key][metric]) / scale
                        )
                    ),
                )

    stats = service.stats
    return BurstReport(
        templates=TEMPLATES,
        bursts=bursts,
        candidates_per_template=candidate_count,
        seed_seconds=seed_seconds,
        serving_seconds=serving_seconds,
        max_relative_difference=max_diff,
        windows_identical=windows_identical,
        snapshot_hits=stats.snapshot_hits,
        engine_cache_hits=0 if stats.engine_cache is None else stats.engine_cache.hits,
        engine_cache_misses=(
            0 if stats.engine_cache is None else stats.engine_cache.misses
        ),
    )


def format_report(report: BurstReport) -> str:
    lines = [
        "Multi-tenant burst serving vs sequential seed-path fitting",
        "----------------------------------------------------------",
        f"templates x bursts x calls    : {report.templates} x {report.bursts} x {CALLS_PER_BURST}",
        f"candidates per template       : {report.candidates_per_template}",
        f"seed path (sequential batch)  : {report.seed_seconds * 1e3:8.1f} ms",
        f"serving (incremental, group)  : {report.serving_seconds * 1e3:8.1f} ms",
        f"burst speedup                 : {report.speedup:8.1f}x",
        f"snapshot hits (re-planning)   : {report.snapshot_hits}",
        f"engine cache hits / misses    : {report.engine_cache_hits} / {report.engine_cache_misses}",
        f"max relative prediction diff  : {report.max_relative_difference:.2e}",
        f"windows identical             : {report.windows_identical}",
    ]
    return "\n".join(lines)


def write_json(report: BurstReport) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": "serving_burst",
        "templates": report.templates,
        "bursts": report.bursts,
        "calls_per_burst": CALLS_PER_BURST,
        "candidates_per_template": report.candidates_per_template,
        "host_cpu_count": os.cpu_count(),
        "seed_ms": round(report.seed_seconds * 1e3, 3),
        "serving_ms": round(report.serving_seconds * 1e3, 3),
        "speedup": round(report.speedup, 3),
        "snapshot_hits": report.snapshot_hits,
        "max_relative_difference": report.max_relative_difference,
        "windows_identical": report.windows_identical,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def check_report(report: BurstReport) -> None:
    assert report.templates == TEMPLATES, report.templates
    assert report.windows_identical
    assert report.max_relative_difference <= 1e-6
    assert report.speedup >= 2.0, f"burst speedup only {report.speedup:.1f}x"


def test_serving_burst_speedup(benchmark):
    from conftest import record_result

    report = benchmark.pedantic(run_serving_burst, rounds=1, iterations=1)
    record_result("serving_burst", format_report(report))
    write_json(report)
    check_report(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller burst stream for CI smoke runs"
    )
    arguments = parser.parse_args()
    final = run_serving_burst(quick=arguments.quick)
    print(format_report(final))
    write_json(final)
    check_report(final)
