"""The batched front door: admission, backpressure, coalesced flushes.

Four layers of guarantees:

1. Envelopes — ``BatchObserveRequest`` validates its rows eagerly;
   ``IngestBatch``/``IngestStats`` carry the aligned per-item outcome.
2. Backpressure — a full queue raises the typed
   ``IngestOverflowError`` (template + phase + bound) in reject mode,
   blocks without ever deadlocking in block mode (slow-marked stall
   test with a hard timeout), and ``drain()`` stays idempotent after
   ``close()``.
3. Coalescing — flushes fire at the size and staleness watermarks; a
   flush over the sharded backend issues at most one ``fit_many`` RPC
   per shard per fit round (asserted via the RPC counters, never via
   timing), and the wire protocol refuses version-mismatched messages.
4. Oracle equivalence — ``ingest()`` + ``drain()`` produces the same
   reports as the sequential single-call replay (the full property
   suite lives in ``tests/test_sharded_properties.py``; here the
   deterministic mixed-traffic case runs on both backends).
"""

import threading
import time

import pytest

import repro.federation.frontdoor as frontdoor_module
from repro.common.errors import EstimationError
from repro.common.rng import RngStream
from repro.federation import (
    BatchObserveRequest,
    DurabilityConfig,
    EnvelopeError,
    FederationConfig,
    FederationError,
    IngestAbortedError,
    IngestOverflowError,
    IngestStats,
    ObserveRequest,
    SessionStateError,
    SubmitRequest,
    UnknownTemplateError,
)
from repro.midas import MEDICAL_QUERIES, MidasSystem

from tests.helpers import assert_report_pair_equal

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


@pytest.fixture(scope="module")
def midas() -> MidasSystem:
    system = make_midas()
    yield system
    system.gateway.close()


class TestBatchObserveEnvelope:
    def test_valid_batch(self):
        rows = (ObserveRequest(KEY), ObserveRequest(KEY))
        batch = BatchObserveRequest(KEY, rows)
        assert len(batch) == 2

    def test_empty_batch_rejected(self):
        with pytest.raises(EnvelopeError, match="at least one row"):
            BatchObserveRequest(KEY, ())

    def test_mixed_templates_rejected(self):
        with pytest.raises(EnvelopeError, match="contains a row for"):
            BatchObserveRequest(KEY, (ObserveRequest(KEY), ObserveRequest(KEY2)))

    def test_non_observe_rows_rejected(self):
        with pytest.raises(EnvelopeError, match="must be ObserveRequest"):
            BatchObserveRequest(KEY, (SubmitRequest(KEY),))


class TestAdmission:
    def test_ticket_pending_then_resolved(self):
        midas = make_midas(seed=21)
        gateway = midas.gateway
        rng = RngStream(3, "admission")
        ticket = gateway.ingest(observe_request(rng))
        assert not ticket.done
        assert ticket.kind == "observe" and ticket.template == KEY
        with pytest.raises(SessionStateError, match="not flushed"):
            ticket.result()
        batch = gateway.drain()
        assert ticket.done and ticket.batch_seq == batch.seq
        assert ticket.result() is batch.reports[0]
        assert batch.trigger == "drain" and batch.observes == 1
        gateway.close()

    def test_batch_observe_expands_to_row_tickets(self):
        midas = make_midas(seed=22)
        gateway = midas.gateway
        rng = RngStream(4, "batch-observe")
        rows = tuple(observe_request(rng) for _ in range(3))
        tickets = gateway.ingest(BatchObserveRequest(KEY, rows))
        assert [t.kind for t in tickets] == ["observe"] * 3
        batch = gateway.drain()
        assert len(batch) == 3 and batch.failed == 0
        # Row order is admission order is execution order.
        assert [t.tick for t in tickets] == sorted(t.tick for t in tickets)
        gateway.close()

    def test_unknown_template_rejected_at_admission(self, midas):
        with pytest.raises(UnknownTemplateError):
            midas.gateway.ingest(ObserveRequest("no-such-template"))

    def test_non_envelope_rejected(self, midas):
        with pytest.raises(EnvelopeError, match="ingest\\(\\) takes"):
            midas.gateway.ingest({"template": KEY})

    def test_empty_batch_admission_raises_typed_error(self, midas):
        # Defence in depth: construction already rejects zero rows, but
        # a hollow batch smuggled past __post_init__ must still surface
        # as the typed envelope error at admission, never an IndexError.
        hollow = object.__new__(BatchObserveRequest)
        object.__setattr__(hollow, "template", KEY)
        object.__setattr__(hollow, "requests", ())
        with pytest.raises(EnvelopeError, match="empty batch"):
            midas.gateway.ingest(hollow)

    def test_per_item_error_isolation(self):
        # A submission on an empty history fails with the same typed
        # error the sequential path raises — and its batch-mates all
        # still execute.
        midas = make_midas(seed=23, runs=8)
        gateway = midas.gateway
        rng = RngStream(5, "isolation")
        gateway.ingest(observe_request(rng))
        gateway.ingest(submit_request(rng, key=KEY2))  # never warmed up
        gateway.ingest(observe_request(rng))
        batch = gateway.drain()
        assert batch.failed == 1
        assert batch.reports[0] is not None and batch.reports[2] is not None
        error = batch.errors[1]
        assert isinstance(error, FederationError)
        assert error.template == KEY2
        gateway.close()


class TestBackpressure:
    def config(self, **kw):
        base = dict(
            max_window=24, ingest_queue_depth=4, ingest_batch_max=4
        )
        base.update(kw)
        return FederationConfig(**base)

    def test_reject_mode_raises_typed_overflow(self):
        midas = make_midas(seed=31, config=self.config(ingest_batch_max=4))
        gateway = midas.gateway
        rng = RngStream(6, "overflow")
        # batch_max == queue_depth would auto-flush at 4, so stop at 3
        # and shrink the watermark window by filling to the bound with
        # the flush suppressed.
        door = gateway._door()
        door.batch_max = 100  # suppress the size watermark for the test
        for _ in range(4):
            gateway.ingest(observe_request(rng))
        with pytest.raises(IngestOverflowError) as info:
            gateway.ingest(observe_request(rng))
        assert info.value.phase == "ingest"
        assert info.value.template == KEY
        assert info.value.queue_depth == 4
        stats = gateway.ingest_stats()
        assert stats.rejected == 1 and stats.pending == 4
        gateway.close()

    def test_oversized_batch_rejected_in_both_modes(self):
        for mode in ("reject", "block"):
            midas = make_midas(
                seed=32, runs=0, config=self.config(ingest_overflow=mode)
            )
            rows = tuple(ObserveRequest(KEY) for _ in range(5))
            with pytest.raises(IngestOverflowError, match="whole ingest queue"):
                midas.gateway.ingest(BatchObserveRequest(KEY, rows))
            midas.gateway.close()

    def test_block_mode_self_flushes_instead_of_deadlocking(self):
        # A single-threaded blocked admission must make its own room.
        midas = make_midas(
            seed=33, config=self.config(ingest_overflow="block")
        )
        gateway = midas.gateway
        door = gateway._door()
        door.batch_max = 100  # only backpressure may trigger the flush
        rng = RngStream(7, "block")
        for _ in range(6):  # two more than the queue holds
            gateway.ingest(observe_request(rng))
        stats = gateway.ingest_stats()
        assert stats.blocked >= 1
        assert stats.flushes >= 1 and stats.pending < 4
        # Overflow self-help is its own trigger, never conflated with
        # the size watermark (suppressed above, so it must stay zero).
        assert stats.backpressure_flushes >= 1
        assert stats.size_flushes == 0
        gateway.close()

    def test_drain_idempotent_after_close(self):
        midas = make_midas(seed=34, runs=4)
        gateway = midas.gateway
        rng = RngStream(8, "close")
        gateway.ingest(observe_request(rng))
        gateway.close()
        first = gateway.drain()
        second = gateway.drain()
        assert len(first) == 0 and len(second) == 0
        assert first.seq == second.seq  # no phantom flushes
        with pytest.raises(SessionStateError, match="closed"):
            gateway.ingest(observe_request(rng))

    def test_close_flushes_pending_items(self):
        midas = make_midas(seed=35)
        gateway = midas.gateway
        rng = RngStream(9, "close-flush")
        ticket = gateway.ingest(observe_request(rng))
        gateway.close()
        assert ticket.done and ticket.error is None
        assert gateway.ingest_stats().drain_flushes == 1


class TestCloseWhileDraining:
    """ISSUE 7 satellite: ``close()`` during an in-flight ``drain()``
    must wait the flush out (tearing the serving layer down under a
    running flush would kill workers mid-fit), resolve every ticket,
    refuse post-close admissions with the typed session error, and stay
    idempotent — on both serving backends."""

    @pytest.mark.parametrize("backend", ["threaded", "sharded"])
    def test_close_during_inflight_drain_is_ordered_and_idempotent(self, backend):
        config = FederationConfig(
            serving_backend=backend, shard_workers=2, max_window=24
        )
        midas = MidasSystem(patient_count=250, seed=81, config=config)
        gateway = midas.gateway
        rng = RngStream(19, "close-race")
        entered = threading.Event()
        release = threading.Event()
        original = gateway.observe

        def stalling_observe(request, **kwargs):
            entered.set()
            release.wait(timeout=10)
            return original(request, **kwargs)

        gateway.observe = stalling_observe
        tickets = [gateway.ingest(observe_request(rng)) for _ in range(3)]

        drained = {}

        def drain():
            drained["batch"] = gateway.drain()

        drainer = threading.Thread(target=drain, daemon=True)
        drainer.start()
        assert entered.wait(timeout=10), "flush never started"
        # close() lands mid-flush; it must block until the drain's
        # flush finishes, then shut the serving layer down.
        closer = threading.Thread(target=gateway.close, daemon=True)
        closer.start()
        release.set()
        drainer.join(timeout=30)
        closer.join(timeout=30)
        assert not drainer.is_alive(), "drain() deadlocked against close()"
        assert not closer.is_alive(), "close() deadlocked against drain()"
        batch = drained["batch"]
        assert len(batch) == 3 and batch.failed == 0
        assert all(ticket.done and ticket.error is None for ticket in tickets)
        # The door is gone: admission is refused with the typed error...
        with pytest.raises(SessionStateError, match="closed"):
            gateway.ingest(observe_request(rng))
        # ...while repeat close and drain stay safe no-ops.
        gateway.close()
        assert len(gateway.drain()) == 0


@pytest.mark.slow
class TestBlockingStall:
    def test_blocked_ingest_survives_a_slow_worker_stall(self):
        """Block mode never deadlocks while another thread's flush
        stalls inside the serving layer (hard 30s timeout)."""
        midas = make_midas(
            seed=36,
            config=FederationConfig(
                max_window=24,
                ingest_queue_depth=3,
                ingest_batch_max=3,
                ingest_overflow="block",
            ),
        )
        gateway = midas.gateway
        rng = RngStream(10, "stall")
        stall = threading.Event()
        original = gateway.observe

        def slow_observe(request, **kwargs):
            stall.wait(timeout=2.0)  # a worker answering slowly
            return original(request, **kwargs)

        gateway.observe = slow_observe
        requests = [observe_request(rng) for _ in range(7)]

        done = threading.Event()
        failures = []

        def pump():
            try:
                for request in requests:
                    gateway.ingest(request)
                gateway.drain()
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)
            finally:
                done.set()

        thread = threading.Thread(target=pump, daemon=True)
        thread.start()
        # Let admissions hit the watermark and block on the stalled
        # flush, then release the stall.
        assert not done.wait(timeout=0.5)
        stall.set()
        assert done.wait(timeout=30), "blocked ingest deadlocked"
        thread.join(timeout=5)
        assert not failures, failures
        stats = gateway.ingest_stats()
        assert stats.admitted == 7 and stats.items_flushed == 7
        gateway.observe = original
        gateway.close()


class TestNotifyDrivenWakeups:
    def test_drain_waiter_wakes_on_flush_end_not_poll(self, monkeypatch):
        """A waiter parked behind an in-flight flush must wake on the
        ``notify_all`` at ``_finalize``, not on the bounded poll — with
        the poll inflated to 5s, returning promptly proves it."""
        monkeypatch.setattr(frontdoor_module, "_BLOCK_POLL_SECONDS", 5.0)
        midas = make_midas(seed=37)
        gateway = midas.gateway
        rng = RngStream(20, "wake")
        release = threading.Event()
        entered = threading.Event()
        original = gateway.observe

        def stalling_observe(request, **kwargs):
            entered.set()
            release.wait(timeout=10)
            return original(request, **kwargs)

        gateway.observe = stalling_observe
        gateway.ingest(observe_request(rng))
        flusher = threading.Thread(target=gateway.drain, daemon=True)
        flusher.start()
        assert entered.wait(timeout=10)

        woke_at = {}

        def waiter():
            gateway.drain()  # waits out the in-flight flush
            woke_at["t"] = time.perf_counter()

        watcher = threading.Thread(target=waiter, daemon=True)
        watcher.start()
        time.sleep(0.2)  # let the waiter park inside wait_for
        released_at = time.perf_counter()
        release.set()
        watcher.join(timeout=10)
        flusher.join(timeout=10)
        gateway.observe = original
        assert "t" in woke_at, "drain waiter never woke"
        latency = woke_at["t"] - released_at
        # Bounded by the released observe's own execution time — far
        # below the patched 5s poll (and the old 50ms quantum).
        assert latency < 2.0, f"waiter woke by poll, not notify ({latency:.3f}s)"
        gateway.close()


class TestWatermarks:
    def test_size_watermark_auto_flushes(self):
        midas = make_midas(
            seed=41,
            config=FederationConfig(
                max_window=24, ingest_queue_depth=16, ingest_batch_max=3
            ),
        )
        gateway = midas.gateway
        rng = RngStream(11, "size")
        tickets = [gateway.ingest(observe_request(rng)) for _ in range(3)]
        # The third admission tripped the watermark on the caller's
        # thread; no drain needed.
        assert all(ticket.done for ticket in tickets)
        stats = gateway.ingest_stats()
        assert stats.size_flushes == 1 and stats.pending == 0
        assert stats.max_batch == 3
        gateway.close()

    def test_interval_watermark_flushes_stale_queue(self, monkeypatch):
        midas = make_midas(
            seed=42,
            config=FederationConfig(
                max_window=24,
                ingest_queue_depth=16,
                ingest_batch_max=8,
                ingest_flush_ms=50.0,
            ),
        )
        gateway = midas.gateway
        rng = RngStream(12, "interval")
        clock = {"now": 1000.0}
        monkeypatch.setattr(frontdoor_module, "time_fn", lambda: clock["now"])
        first = gateway.ingest(observe_request(rng))
        clock["now"] += 0.2  # 200ms later, past the 50ms staleness bound
        second = gateway.ingest(observe_request(rng))
        assert first.done and second.done
        assert gateway.ingest_stats().interval_flushes == 1
        gateway.close()

    def test_serving_report_carries_ingest_stats(self):
        midas = make_midas(seed=43, runs=4)
        gateway = midas.gateway
        assert gateway.serving_report().ingest is None  # door unused
        rng = RngStream(13, "report")
        gateway.ingest(observe_request(rng))
        gateway.drain()
        report = gateway.serving_report()
        assert isinstance(report.ingest, IngestStats)
        assert report.ingest.admitted == 1
        assert "admitted=1" in report.ingest.describe()
        gateway.close()


class TestShardedBatching:
    def sharded_midas(self, seed: int = 51) -> MidasSystem:
        config = FederationConfig(
            serving_backend="sharded",
            shard_workers=2,
            max_window=24,
        )
        midas = MidasSystem(patient_count=300, seed=seed, config=config)
        for key in (KEY, KEY2):
            midas.warm_up(key, runs=10)
        return midas

    def test_flush_issues_at_most_one_fit_many_per_shard(self):
        midas = self.sharded_midas()
        gateway = midas.gateway
        serving = gateway.engine.serving
        rng = RngStream(14, "rpc")
        for key in (KEY, KEY2):
            gateway.ingest(submit_request(rng, key=key))
        before = serving.rpc_counts()
        batch = gateway.drain()
        after = serving.rpc_counts()
        assert batch.failed == 0 and batch.fit_rounds == 1
        fit_many = after.get("fit_many", 0) - before.get("fit_many", 0)
        busy_shards = len({serving.shard_of(KEY), serving.shard_of(KEY2)})
        # The flush's one fit round refits both stale templates; the
        # submits then run on fresh snapshots, so no other fit RPC.
        assert fit_many == busy_shards
        gateway.close()

    def test_backlog_reported_per_shard(self):
        midas = self.sharded_midas(seed=52)
        gateway = midas.gateway
        serving = gateway.engine.serving
        gateway.refresh()  # sync the replicas
        assert sum(s["backlog"] for s in serving.shard_stats()) == 0
        rng = RngStream(15, "backlog")
        gateway.observe(observe_request(rng))
        stats = serving.shard_stats()
        assert sum(s["backlog"] for s in stats) == 1
        assert stats[serving.shard_of(KEY)]["backlog"] == 1
        gateway.close()

    def test_protocol_version_mismatch_fails_loudly(self):
        from repro.serving.sharded import ShardedServingError

        midas = self.sharded_midas(seed=53)
        serving = midas.gateway.engine.serving
        shard = serving._shards[0]
        with shard.lock:
            with pytest.raises(ShardedServingError, match="protocol mismatch"):
                serving._call_locked(shard, {"op": "ping", "v": 1})
            # The worker survives a refused message and keeps serving.
            assert serving._call_locked(shard, {"op": "ping"}) == "pong"
        midas.gateway.close()


class TestOracleEquivalence:
    """Deterministic mixed-traffic equivalence (the randomized property
    suite extends ``tests/test_sharded_properties.py``)."""

    def traffic(self):
        rng = RngStream(16, "oracle")
        items = []
        for key in (KEY, KEY2):
            for _ in range(8):
                items.append(("observe", observe_request(rng, key=key)))
        items.append(("submit", submit_request(rng)))
        items.append(("submit", submit_request(rng, key=KEY2)))
        items.append(("observe", observe_request(rng)))
        # Back-to-back submits on one template force segment cuts.
        items.append(("submit", submit_request(rng)))
        items.append(("submit", submit_request(rng)))
        return items

    def config(self, backend: str) -> FederationConfig:
        return FederationConfig(
            serving_backend=backend, shard_workers=2, max_window=24
        )

    @pytest.mark.parametrize("backend", ["threaded", "sharded"])
    def test_ingest_drain_matches_sequential_replay(self, backend):
        traffic = self.traffic()

        sequential = MidasSystem(
            patient_count=300, seed=61, config=self.config(backend)
        )
        seq_reports = [
            sequential.gateway.submit(request)
            if kind == "submit"
            else sequential.gateway.observe(request)
            for kind, request in traffic
        ]
        seq_stats = sequential.gateway.serving_stats
        sequential.gateway.close()

        batched = MidasSystem(
            patient_count=300, seed=61, config=self.config(backend)
        )
        for _kind, request in traffic:
            batched.gateway.ingest(request)
        batch = batched.gateway.drain()
        bat_stats = batched.gateway.serving_stats
        batched.gateway.close()

        assert batch.failed == 0
        assert len(seq_reports) == len(batch.reports)
        for position, (left, right) in enumerate(zip(seq_reports, batch.reports)):
            assert_report_pair_equal(left, right, position)
        # Fit counts are part of the oracle contract.
        assert seq_stats.fits == bat_stats.fits
        assert seq_stats.observations == bat_stats.observations
        assert batch.fit_rounds >= 1


class TestInfrastructureFailure:
    def test_flush_abort_resolves_all_tickets(self):
        midas = make_midas(seed=71)
        gateway = midas.gateway
        rng = RngStream(17, "abort")
        tickets = [gateway.ingest(observe_request(rng)) for _ in range(3)]

        def exploding_observe(request, **kwargs):
            raise RuntimeError("engine room on fire")

        original = gateway.observe
        gateway.observe = exploding_observe
        with pytest.raises(RuntimeError, match="on fire"):
            gateway.drain()
        gateway.observe = original
        # No waiter hangs: every ticket resolved with the typed wrapper.
        for ticket in tickets:
            assert ticket.done
            assert isinstance(ticket.error, IngestAbortedError)
            assert ticket.error.phase == "ingest"
            assert isinstance(ticket.error.__cause__, RuntimeError)
        # The door recovered: the next cycle works.
        ticket = gateway.ingest(observe_request(rng))
        batch = gateway.drain()
        assert batch.failed == 0 and ticket.done
        gateway.close()

    def test_aborted_flush_still_syncs_durability(self, tmp_path):
        """Kill-mid-flush chaos: records journaled by the partial flush
        must reach stable storage even though the flush aborted — under
        ``fsync="batch"`` only the flush-boundary sync fsyncs, so the
        abort path has to hit it too."""
        def build_config():
            return FederationConfig(
                max_window=24,
                durability=DurabilityConfig(dir=tmp_path, fsync="batch"),
            )

        midas = MidasSystem(patient_count=300, seed=73, config=build_config())
        gateway = midas.gateway
        rng = RngStream(19, "abort-sync")
        for _ in range(3):
            gateway.ingest(observe_request(rng))
        calls = {"n": 0}
        original = gateway.observe

        def kill_second_observe(request, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("shard pool lost power")
            return original(request, **kwargs)

        gateway.observe = kill_second_observe
        synced = {"n": 0}
        manager = gateway._durability
        manager_sync = manager.sync

        def counting_sync():
            synced["n"] += 1
            return manager_sync()

        manager.sync = counting_sync
        with pytest.raises(RuntimeError, match="lost power"):
            gateway.drain()
        manager.sync = manager_sync
        gateway.observe = original
        assert synced["n"] >= 1, "aborted flush skipped the durability sync"
        # Crash simulation: abandon the gateway without close().  The
        # acknowledged pre-abort row must already be recoverable.
        revived = MidasSystem(patient_count=300, seed=73, config=build_config())
        report = revived.gateway.recover()
        assert report.recovered and report.rows == 1
        assert revived.gateway.engine.history(KEY).size == 1
        revived.gateway.close()
        gateway.close()

    def test_estimation_error_wrapped_into_taxonomy(self):
        midas = make_midas(seed=72)
        gateway = midas.gateway
        rng = RngStream(18, "wrap")
        gateway.ingest(observe_request(rng))

        def raising_observe(request, **kwargs):
            raise EstimationError("backend hiccup")

        original = gateway.observe
        gateway.observe = raising_observe
        batch = gateway.drain()
        gateway.observe = original
        assert batch.failed == 1
        error = batch.errors[0]
        assert isinstance(error, FederationError) and error.phase == "ingest"
        assert isinstance(error.__cause__, EstimationError)
        gateway.close()
