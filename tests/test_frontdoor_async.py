"""The asyncio surface of the batched front door.

``await gateway.ingest_async(request)`` / ``drain_async()`` bridge
ticket resolution onto the running event loop: admission happens on the
door's single admission thread (it may block or inline-run a watermark
flush), and each pending result costs one waiter *task* — never one
blocked thread.  These suites pin:

* the canonical create-tasks-then-drain pattern — bitwise-equal to the
  sequential single-call replay on both backends, admissions in task
  creation order;
* standalone awaits — a watermark flush inside ``ingest_async``
  resolves the await without any drain;
* typed error propagation — the item's ``FederationError`` subclass is
  what the ``await`` raises;
* ``BatchObserveRequest`` — one awaited call, a list of row reports;
* lifecycle — ``drain_async`` is a safe no-op on an idle or closed
  door, and N pending tickets share one admission thread.
"""

import asyncio
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.common.rng import RngStream
from repro.federation import (
    BatchObserveRequest,
    FederationConfig,
    InsufficientHistoryError,
    ObservationReport,
    ObserveRequest,
    SubmitRequest,
)
from repro.midas import MEDICAL_QUERIES, MidasSystem

from tests.helpers import (
    assert_gateway_outcomes_equal,
    build_gateway_traffic,
    run_async,
    run_sequential,
)

KEY = "medical-demographics"
KEY2 = "medical-severe-cases"


def make_midas(
    seed: int = 5, runs: int = 10, config: FederationConfig | None = None
) -> MidasSystem:
    midas = MidasSystem(patient_count=300, seed=seed, config=config)
    if runs:
        midas.warm_up(KEY, runs=runs)
    return midas


def observe_request(rng: RngStream, key: str = KEY) -> ObserveRequest:
    return ObserveRequest(key, MEDICAL_QUERIES[key].sample_params(rng))


def submit_request(rng: RngStream, key: str = KEY) -> SubmitRequest:
    return SubmitRequest(key, MEDICAL_QUERIES[key].sample_params(rng))


class TestAsyncEquivalence:
    @pytest.mark.parametrize("backend", ["threaded", "sharded"])
    def test_create_tasks_then_drain_matches_sequential_oracle(self, backend):
        script = [
            (0, "observe"), (1, "observe"), (0, "observe"), (0, "submit"),
            (1, "observe"), (0, "observe"), (1, "submit"), (0, "submit"),
        ]
        traffic = build_gateway_traffic(script, seed=71)
        assert_gateway_outcomes_equal(
            run_sequential(traffic, backend, seed=71),
            run_async(traffic, backend, seed=71),
        )

    def test_admissions_follow_task_creation_order(self):
        midas = make_midas(seed=72)
        gateway = midas.gateway
        rng = RngStream(21, "async-order")
        requests = [observe_request(rng) for _ in range(6)]

        async def drive():
            tasks = [
                asyncio.ensure_future(gateway.ingest_async(r)) for r in requests
            ]
            await gateway.drain_async()
            return await asyncio.gather(*tasks)

        reports = asyncio.run(drive())
        ticks = [report.tick for report in reports]
        assert ticks == sorted(ticks) and len(set(ticks)) == len(ticks)
        gateway.close()


class TestAsyncSurface:
    def test_standalone_await_resolves_via_watermark_flush(self):
        midas = make_midas(
            seed=73, config=FederationConfig(ingest_batch_max=1)
        )
        gateway = midas.gateway
        rng = RngStream(22, "standalone")

        async def drive():
            return await gateway.ingest_async(observe_request(rng))

        report = asyncio.run(drive())
        assert isinstance(report, ObservationReport)
        assert gateway.ingest_stats().size_flushes == 1
        gateway.close()

    def test_typed_error_propagates_through_await(self):
        midas = make_midas(seed=74)
        gateway = midas.gateway
        rng = RngStream(23, "async-error")

        async def drive():
            task = asyncio.ensure_future(
                gateway.ingest_async(submit_request(rng, KEY2))
            )
            await gateway.drain_async()
            with pytest.raises(InsufficientHistoryError):
                await task

        asyncio.run(drive())
        gateway.close()

    def test_batch_observe_awaits_to_row_reports(self):
        midas = make_midas(seed=75)
        gateway = midas.gateway
        rng = RngStream(24, "async-batch")
        rows = tuple(observe_request(rng) for _ in range(3))

        async def drive():
            task = asyncio.ensure_future(
                gateway.ingest_async(BatchObserveRequest(KEY, rows))
            )
            await gateway.drain_async()
            return await task

        reports = asyncio.run(drive())
        assert len(reports) == 3
        assert all(isinstance(r, ObservationReport) for r in reports)
        ticks = [r.tick for r in reports]
        assert ticks == sorted(ticks)
        gateway.close()

    def test_drain_async_on_idle_gateway_is_safe(self):
        midas = make_midas(seed=76)
        gateway = midas.gateway
        batch = asyncio.run(gateway.drain_async())
        assert len(batch) == 0 and batch.trigger == "drain"
        gateway.close()

    def test_drain_async_after_close_falls_back_to_noop(self):
        midas = make_midas(seed=77)
        gateway = midas.gateway
        rng = RngStream(25, "closed")
        gateway.ingest(observe_request(rng))
        gateway.close()
        batch = asyncio.run(gateway.drain_async())
        assert len(batch) == 0 and batch.trigger == "drain"

    def test_pending_tickets_share_one_admission_thread(self):
        midas = make_midas(seed=78)
        gateway = midas.gateway
        rng = RngStream(26, "one-thread")
        requests = [observe_request(rng) for _ in range(16)]

        async def drive():
            tasks = [
                asyncio.ensure_future(gateway.ingest_async(r)) for r in requests
            ]
            await asyncio.sleep(0)  # all 16 admissions are now enqueued
            admit_threads = [
                t.name
                for t in threading.enumerate()
                if t.name.startswith("frontdoor-admit")
            ]
            assert len(admit_threads) == 1
            await gateway.drain_async()
            return await asyncio.gather(*tasks)

        reports = asyncio.run(drive())
        assert len(reports) == 16
        gateway.close()


def test_importing_the_gateway_does_not_import_asyncio():
    """Only the asyncio surface needs asyncio, so it is imported there."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.federation; print('asyncio' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"
