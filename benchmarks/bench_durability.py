"""WAL journaling overhead across fsync policies (ISSUE 9).

The durability tentpole's pricing harness: the same mixed request
stream ``bench_gateway_throughput`` pushes through the front door — 100
tenant templates, single observes, eight-row batch envelopes, ~5%
submissions — runs four times on identical fresh gateways:

* **in-memory baseline** — no durability plane at all (the pre-ISSUE 9
  gateway);
* **fsync="off"** — every event journaled, flushed to the OS page
  cache, never fsynced.  The acceptance bar: within ~1.1x of the
  in-memory baseline on this workload shape (journaling is one JSON
  dump + one buffered write per event);
* **fsync="batch"** — one fsync per front-door flush (the durable
  default: a process crash loses nothing, an OS crash at most one
  batch);
* **fsync="always"** — one fsync per journaled event (every completed
  append survives an OS crash; the price ceiling).

Reported and persisted to ``benchmarks/results/BENCH_durability.json``
(a CI artifact, like ``BENCH_gateway.json``): per-mode wall time, QPS,
overhead ratio vs the in-memory baseline, the WAL's physical footprint
(segments + checkpoint bytes), and every checkpoint's wall time and
manifest bytes.  Asserted: the ``off`` ratio (with CI-noise headroom
over the ~1.1x target), and per durable mode that checkpoint cost stays
flat over the run — the manifest never grows by more than its counters'
extra digits, and the median checkpoint of the last decile takes at
most ``CHECKPOINT_FLAT_CEILING`` times the first decile's.  ``batch``
and ``always`` prices are recorded, not gated — they depend on the
host's fsync latency, which CI runners do not control.

Run standalone:  PYTHONPATH=src python benchmarks/bench_durability.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from repro.common.rng import RngStream
from repro.core import wal
from repro.federation import (
    BatchObserveRequest,
    DurabilityConfig,
    FederationConfig,
    SubmitRequest,
)
from repro.federation.durability import DurabilityManager
from repro.midas import MEDICAL_QUERIES, MidasSystem

from bench_gateway_throughput import (
    INGEST_BATCH_MAX,
    PATIENTS,
    TENANTS,
    build_traffic,
)

RESULTS_DIR = Path(__file__).parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_durability.json"

FULL_REQUESTS = 40_000
QUICK_REQUESTS = 2_880

#: Acceptance target for fsync="off" vs in-memory, and the asserted
#: ceiling (headroom over the target for CI-runner noise).
OFF_OVERHEAD_TARGET = 1.10
OFF_OVERHEAD_CEILING = 1.35

MODES = ("off", "batch", "always")

#: Asserted ceiling on the last decile's median checkpoint time over the
#: first decile's: checkpoint cost must not grow with the run.
CHECKPOINT_FLAT_CEILING = 2.0
#: Fewest checkpoints in a "decile" (a quick run cuts about a dozen).
DECILE_MIN = 3
#: Allowed manifest growth over the run: its counters gain digits.
CHECKPOINT_DIGIT_SLACK = 8
#: The same decile ratio measured in two ``--quick`` runs (2 cores) on
#: the code that wrote every history row and audit record into each
#: checkpoint (9-11 -> 38-44 ms under "off", checkpoint 53 kB -> 598 kB).
FULL_SNAPSHOT_DECILE_RATIO = {
    "off": (3.48, 4.76),
    "batch": (3.07, 3.94),
    "always": (3.41, 6.09),
}


@dataclass(frozen=True)
class ModeResult:
    """One traffic replay under one durability policy."""

    mode: str  # "memory" | "off" | "batch" | "always"
    seconds: float
    requests: int
    fits: int
    failed: int
    wal_bytes: int
    wal_segments: int
    #: Wall milliseconds and manifest bytes of every checkpoint, in order.
    checkpoint_ms: tuple[float, ...] = ()
    checkpoint_bytes: tuple[int, ...] = ()

    @property
    def qps(self) -> float:
        return self.requests / self.seconds

    def decile_ms(self) -> tuple[float, float]:
        """Median checkpoint ms of the first and of the last decile (at
        least ``DECILE_MIN`` checkpoints each, so one slow fsync cannot
        decide the ratio)."""
        tenth = max(DECILE_MIN, len(self.checkpoint_ms) // 10)
        return (
            statistics.median(self.checkpoint_ms[:tenth]),
            statistics.median(self.checkpoint_ms[-tenth:]),
        )


@dataclass(frozen=True)
class DurabilityReport:
    tenants: int
    requests: int
    envelopes: int
    memory: ModeResult
    modes: tuple[ModeResult, ...]

    def overhead(self, result: ModeResult) -> float:
        """Wall-time ratio vs the in-memory baseline (1.0 = free)."""
        return result.seconds / self.memory.seconds


def _gateway_config(durability: DurabilityConfig | None) -> FederationConfig:
    return FederationConfig(
        max_window=24,
        ingest_batch_max=INGEST_BATCH_MAX,
        ingest_queue_depth=4 * INGEST_BATCH_MAX,
        durability=durability,
    )


def build_system(durability: DurabilityConfig | None) -> tuple[MidasSystem, list[str]]:
    """The bench_gateway_throughput federation, durability optional."""
    midas = MidasSystem(
        patient_count=PATIENTS, seed=11, config=_gateway_config(durability)
    )
    bases = list(MEDICAL_QUERIES.values())
    keys = []
    for i in range(TENANTS):
        template = replace(bases[i % len(bases)], key=f"tenant-{i:03d}")
        midas.gateway.register_template(template)
        keys.append(template.key)
    return midas, keys


def _wal_footprint(directory: Path | None) -> tuple[int, int]:
    if directory is None or not directory.exists():
        return 0, 0
    files = [path for path in directory.iterdir() if path.is_file()]
    return sum(path.stat().st_size for path in files), sum(
        1 for path in files if path.suffix == ".log"
    )


@contextmanager
def timed_checkpoints():
    """Record the wall time of every checkpoint a durability manager
    cuts, and the manifest bytes it leaves behind."""
    real = DurabilityManager._checkpoint_locked
    times: list[float] = []
    sizes: list[int] = []

    def timed(manager):
        started = time.perf_counter()
        real(manager)
        times.append((time.perf_counter() - started) * 1e3)
        sizes.append((manager._directory / wal.CHECKPOINT_NAME).stat().st_size)

    DurabilityManager._checkpoint_locked = timed
    try:
        yield times, sizes
    finally:
        DurabilityManager._checkpoint_locked = real


def run_mode(mode: str, total: int) -> ModeResult:
    """One full ingest+drain replay; ``mode`` "memory" skips the WAL."""
    wal_dir: Path | None = None
    durability = None
    if mode != "memory":
        wal_dir = Path(tempfile.mkdtemp(prefix=f"bench-wal-{mode}-"))
        durability = DurabilityConfig(dir=wal_dir, fsync=mode)
    try:
        midas, keys = build_system(durability)
        traffic, requests = build_traffic(keys, total, RngStream(5, "bench-ingest"))
        tickets: list = []
        try:
            with timed_checkpoints() as (checkpoint_ms, checkpoint_bytes):
                started = time.perf_counter()
                for request in traffic:
                    admitted = midas.gateway.ingest(request)
                    if isinstance(admitted, list):
                        tickets.extend(admitted)
                    else:
                        tickets.append(admitted)
                midas.gateway.drain()
                seconds = time.perf_counter() - started
            failed = sum(1 for ticket in tickets if ticket.error is not None)
            fits = midas.gateway.serving_stats.fits
        finally:
            midas.gateway.close()
        wal_bytes, wal_segments = _wal_footprint(wal_dir)
        return ModeResult(
            mode=mode,
            seconds=seconds,
            requests=requests,
            fits=fits,
            failed=failed,
            wal_bytes=wal_bytes,
            wal_segments=wal_segments,
            checkpoint_ms=tuple(checkpoint_ms),
            checkpoint_bytes=tuple(checkpoint_bytes),
        )
    finally:
        if wal_dir is not None:
            shutil.rmtree(wal_dir, ignore_errors=True)


def run_durability_bench(quick: bool = False) -> DurabilityReport:
    total = QUICK_REQUESTS if quick else FULL_REQUESTS
    memory = run_mode("memory", total)
    modes = tuple(run_mode(mode, total) for mode in MODES)
    envelopes = memory.requests  # rows; envelope count not re-derived here
    return DurabilityReport(
        tenants=TENANTS,
        requests=memory.requests,
        envelopes=envelopes,
        memory=memory,
        modes=modes,
    )


def format_report(report: DurabilityReport) -> str:
    lines = [
        "WAL journaling overhead (bench_gateway_throughput workload shape)",
        "-----------------------------------------------------------------",
        f"tenant templates : {report.tenants}",
        f"requests (rows)  : {report.requests}",
        f"in-memory        : {report.memory.seconds:8.2f} s "
        f"({report.memory.qps:8.1f} req/s)  <- baseline",
    ]
    for result in report.modes:
        first, last = result.decile_ms()
        lines.append(
            f"fsync={result.mode:<7}: {result.seconds:8.2f} s "
            f"({result.qps:8.1f} req/s)  {report.overhead(result):5.3f}x, "
            f"wal={result.wal_bytes / 1e6:.1f} MB in {result.wal_segments} segment(s), "
            f"{len(result.checkpoint_ms)} checkpoints {first:.2f} -> {last:.2f} ms, "
            f"{min(result.checkpoint_bytes)}-{max(result.checkpoint_bytes)} B"
        )
    lines.append(
        f"fsync=off target : <= {OFF_OVERHEAD_TARGET}x "
        f"(asserted ceiling {OFF_OVERHEAD_CEILING}x for CI noise)"
    )
    return "\n".join(lines)


def _checkpoint_fields(result: ModeResult) -> dict:
    first, last = result.decile_ms()
    return {
        "checkpoints": len(result.checkpoint_ms),
        "checkpoint_ms_first_decile": round(first, 3),
        "checkpoint_ms_last_decile": round(last, 3),
        "checkpoint_decile_ratio": round(last / first, 3),
        "full_snapshot_decile_ratio": FULL_SNAPSHOT_DECILE_RATIO[result.mode],
        "checkpoint_bytes_first": result.checkpoint_bytes[0],
        "checkpoint_bytes_max": max(result.checkpoint_bytes),
    }


def write_json(report: DurabilityReport) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": "durability",
        "workload": "bench_gateway_throughput",
        "tenants": report.tenants,
        "requests": report.requests,
        "ingest_batch_max": INGEST_BATCH_MAX,
        "host_cpu_count": os.cpu_count(),
        "off_overhead_target": OFF_OVERHEAD_TARGET,
        "off_overhead_ceiling": OFF_OVERHEAD_CEILING,
        "checkpoint_flat_ceiling": CHECKPOINT_FLAT_CEILING,
        "memory": {
            "seconds": round(report.memory.seconds, 3),
            "qps": round(report.memory.qps, 1),
            "fits": report.memory.fits,
        },
        "modes": {
            result.mode: {
                "seconds": round(result.seconds, 3),
                "qps": round(result.qps, 1),
                "overhead": round(report.overhead(result), 4),
                "fits": result.fits,
                "wal_bytes": result.wal_bytes,
                "wal_segments": result.wal_segments,
                **_checkpoint_fields(result),
            }
            for result in report.modes
        },
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def check_report(report: DurabilityReport) -> None:
    by_mode = {result.mode: result for result in report.modes}
    assert set(by_mode) == set(MODES)
    # Every replay processed the identical stream, failure-free, and
    # the durable runs journaled real bytes.
    for result in (report.memory, *report.modes):
        assert result.requests == report.requests, result.mode
        assert result.failed == 0, (result.mode, result.failed)
        assert result.fits == report.memory.fits, result.mode
    for mode in MODES:
        result = by_mode[mode]
        assert result.wal_bytes > 0, mode
        # Checkpoint cost flat over the run: a constant-size manifest,
        # and no slower at the end than at the start.
        assert len(result.checkpoint_ms) >= 10, (mode, len(result.checkpoint_ms))
        growth = max(result.checkpoint_bytes) - result.checkpoint_bytes[0]
        assert growth <= CHECKPOINT_DIGIT_SLACK, (mode, result.checkpoint_bytes)
        first, last = result.decile_ms()
        assert last <= CHECKPOINT_FLAT_CEILING * first, (
            f"fsync={mode!r}: last-decile checkpoint {last:.2f} ms is over "
            f"{CHECKPOINT_FLAT_CEILING}x the first decile's {first:.2f} ms"
        )
    # The acceptance gate: journaling without fsync is near-free.
    off_overhead = report.overhead(by_mode["off"])
    assert off_overhead <= OFF_OVERHEAD_CEILING, (
        f"fsync='off' overhead {off_overhead:.3f}x exceeds the "
        f"{OFF_OVERHEAD_CEILING}x ceiling (target {OFF_OVERHEAD_TARGET}x)"
    )


def test_durability_overhead(benchmark):
    from conftest import record_result

    report = benchmark.pedantic(
        run_durability_bench, kwargs={"quick": True}, rounds=1, iterations=1
    )
    record_result("durability", format_report(report))
    write_json(report)
    check_report(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller request stream for CI smoke runs"
    )
    arguments = parser.parse_args()
    final = run_durability_bench(quick=arguments.quick)
    print(format_report(final))
    write_json(final)
    check_report(final)
