"""Property/stress suite: sharded serving == in-process serving, always.

The acceptance bar for the cross-process backend is *oracle
equivalence*: for ANY tenant count, shard count and interleaving of
observes / fits / batch refreshes, replaying the identical operation sequence
through :class:`~repro.serving.ShardedEstimationService` and through
the in-process :class:`~repro.serving.EstimationService` must produce

* bitwise-identical window choices (``FittedCostModel.training_size``),
* bitwise-identical predictions on a shared probe matrix
  (``np.array_equal``, no tolerance: the worker runs the same NumPy
  kernels on a bitwise-identical history replica), and
* the same fit/skip outcome for too-short histories.

Hypothesis drives the shapes (non-slow: small pools, fork-cheap); the
``slow`` marker extends the PR 2 stress pattern with forced worker
crashes mid-stream — a respawned worker replays the authoritative
history and must land on the exact same models.

The replay/equivalence machinery lives in :mod:`tests.chaos` (the
ISSUE 7 fault-plan driver — this suite is its fault-free and
crash-only client; full placement chaos lives in
``tests/test_chaos_equivalence.py``) and :mod:`tests.helpers`.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import EstimationError
from repro.common.rng import RngStream
from repro.federation import ObserveRequest, SubmitRequest
from repro.midas import MEDICAL_QUERIES, MidasSystem
from repro.serving import EstimationService, ShardedEstimationService
from repro.serving.worker import dream_strategy

from tests.chaos import Fault, replay_script, run_chaos_script
from tests.helpers import (
    FEATURES,
    GATEWAY_KEYS,
    MAX_WINDOW,
    METRICS,
    R2,
    assert_gateway_outcomes_equal,
    assert_models_bitwise_equal,
    build_gateway_traffic,
    gateway_config,
    observation_stream,
    run_async,
    run_batched,
    run_sequential,
    run_streamed,
    sharded_factory,
)

ops = st.sampled_from(["observe", "observe", "observe", "fit", "batch"])
scripts = st.lists(st.tuples(st.integers(min_value=0, max_value=7), ops), max_size=60)

# Variant weighted towards coalesced refresh_batch calls, still with
# enough observes that batches have stale work to do.
batch_ops = st.sampled_from(
    ["observe", "observe", "observe", "fit", "batch", "batch", "batch"]
)
batch_scripts = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), batch_ops), max_size=60
)


class TestShardedEquivalenceProperties:
    @given(
        workers=st.integers(min_value=1, max_value=3),
        n_templates=st.integers(min_value=1, max_value=4),
        script=scripts,
    )
    @settings(max_examples=12)
    def test_any_interleaving_matches_in_process_service(
        self, workers, n_templates, script
    ):
        keys = [f"tenant-{i}" for i in range(n_templates)]
        run_chaos_script(script, (), keys=keys, workers=workers)

    @given(
        workers=st.integers(min_value=1, max_value=3),
        n_templates=st.integers(min_value=1, max_value=4),
        script=batch_scripts,
    )
    @settings(max_examples=10)
    def test_refresh_batch_interleavings_match_in_process_service(
        self, workers, n_templates, script
    ):
        """The coalesced fit path (one fit_many RPC per shard) is
        model-for-model, error-for-error identical to the in-process
        base implementation under any interleaving."""
        keys = [f"tenant-{i}" for i in range(n_templates)]
        threaded = EstimationService(
            strategy=dream_strategy(r2_required=R2, max_window=MAX_WINDOW)
        )
        with ShardedEstimationService(sharded_factory, workers=workers) as sharded:
            for key in keys:
                sharded.register(key, feature_names=FEATURES, metrics=METRICS)
                threaded.register(key, feature_names=FEATURES, metrics=METRICS)
            replay_script(script, keys, sharded, threaded)
            assert sharded.stats.fits == threaded.stats.fits
            assert sharded.stats.batch_refreshes == threaded.stats.batch_refreshes

    def test_counters_match_in_process_service_on_shared_script(self):
        """The sharded service keeps the ServiceStats contract: the same
        deterministic script yields identical parent-side counters."""
        script = [(i % 5, "observe") for i in range(40)] + [
            (0, "fit"),
            (0, "fit"),  # second is a snapshot hit on both services
            (3, "batch"),
        ]
        keys = [f"tenant-{i}" for i in range(5)]
        threaded = EstimationService(
            strategy=dream_strategy(r2_required=R2, max_window=MAX_WINDOW)
        )
        with ShardedEstimationService(sharded_factory, workers=2) as sharded:
            for key in keys:
                sharded.register(key, feature_names=FEATURES, metrics=METRICS)
                threaded.register(key, feature_names=FEATURES, metrics=METRICS)
            replay_script(script, keys, sharded, threaded)
            for attribute in ("templates", "fits", "snapshot_hits", "observations"):
                assert getattr(sharded.stats, attribute) == getattr(
                    threaded.stats, attribute
                ), attribute


gateway_ops = st.sampled_from(["observe", "observe", "observe", "submit"])
gateway_scripts = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1), gateway_ops),
    min_size=1,
    max_size=24,
)


class TestGatewayIngestEquivalenceProperties:
    """ISSUE 6 satellite: ANY interleaving of submits/observes through
    ingest()+drain() is bitwise-identical to the sequential single-call
    replay — reports, error types, ticks, fit and observation counters.

    Submits before any history exercise the failure-parity half of the
    contract: both paths must raise InsufficientHistoryError for the
    same items and still agree on every tick that follows."""

    @given(script=gateway_scripts, seed=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=8)
    def test_threaded_ingest_matches_sequential_replay(self, script, seed):
        traffic = build_gateway_traffic(script, seed)
        assert_gateway_outcomes_equal(
            run_sequential(traffic, "threaded", seed),
            run_batched(traffic, "threaded", seed),
        )

    @given(script=gateway_scripts, seed=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=4)
    def test_sharded_ingest_matches_sequential_replay(self, script, seed):
        traffic = build_gateway_traffic(script, seed)
        assert_gateway_outcomes_equal(
            run_sequential(traffic, "sharded", seed),
            run_batched(traffic, "sharded", seed),
        )


class TestStreamingEquivalenceProperties:
    """ISSUE 10 satellite: the streaming surfaces — per-segment ticket
    resolution (with done-callbacks), the asyncio client, and the
    pipelined flush — are all bitwise-identical to the sequential
    single-call replay: reports, error types, ticks, fit and
    observation counters.  Segment size and pipelining are drawn by
    hypothesis so subdivided and overlapped flushes get the same
    scrutiny as the default cut."""

    @given(
        script=gateway_scripts,
        seed=st.integers(min_value=1, max_value=10_000),
        segment_max=st.integers(min_value=1, max_value=4),
        pipeline=st.booleans(),
    )
    @settings(max_examples=8)
    def test_threaded_streamed_matches_sequential_replay(
        self, script, seed, segment_max, pipeline
    ):
        traffic = build_gateway_traffic(script, seed)
        config = gateway_config(
            "threaded", ingest_segment_max=segment_max, ingest_pipeline=pipeline
        )
        assert_gateway_outcomes_equal(
            run_sequential(traffic, "threaded", seed),
            run_streamed(traffic, "threaded", seed, config=config),
        )

    @given(
        script=gateway_scripts,
        seed=st.integers(min_value=1, max_value=10_000),
        segment_max=st.integers(min_value=1, max_value=4),
        pipeline=st.booleans(),
    )
    @settings(max_examples=4)
    def test_sharded_streamed_matches_sequential_replay(
        self, script, seed, segment_max, pipeline
    ):
        traffic = build_gateway_traffic(script, seed)
        config = gateway_config(
            "sharded", ingest_segment_max=segment_max, ingest_pipeline=pipeline
        )
        assert_gateway_outcomes_equal(
            run_sequential(traffic, "sharded", seed),
            run_streamed(traffic, "sharded", seed, config=config),
        )

    @given(script=gateway_scripts, seed=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=6)
    def test_threaded_async_matches_sequential_replay(self, script, seed):
        traffic = build_gateway_traffic(script, seed)
        assert_gateway_outcomes_equal(
            run_sequential(traffic, "threaded", seed),
            run_async(traffic, "threaded", seed),
        )

    @given(script=gateway_scripts, seed=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=3)
    def test_sharded_async_matches_sequential_replay(self, script, seed):
        traffic = build_gateway_traffic(script, seed)
        assert_gateway_outcomes_equal(
            run_sequential(traffic, "sharded", seed),
            run_async(traffic, "sharded", seed),
        )


@pytest.mark.slow
class TestStreamedCrashEquivalence:
    """ISSUE 10 satellite: a worker crash *mid-segment* — injected while
    the flush is several segments deep — must stay bitwise invisible on
    the streamed and async paths, exactly as it is on the plain drain
    (respawn + authoritative-history replay)."""

    SEED = 83

    def _traffic(self):
        script = []
        for _ in range(14):  # history for both templates, via the flush
            script += [(0, "observe"), (1, "observe")]
        script += [
            (0, "submit"), (1, "submit"), (0, "observe"),
            (0, "submit"), (1, "observe"), (1, "submit"),
        ]
        return build_gateway_traffic(script, self.SEED)

    @staticmethod
    def _crash_mid_flush(gateway):
        """Arm the 10th executed observe to kill GATEWAY_KEYS[0]'s home
        worker — a few segments into the flush, with earlier segments
        already streamed and plenty of traffic (including submits on the
        victim shard) still pending behind the crash."""
        serving = gateway.engine.serving
        victim = serving.shard_of(GATEWAY_KEYS[0])
        original = gateway.observe
        calls = {"n": 0}

        def crashing_observe(request):
            calls["n"] += 1
            if calls["n"] == 10:
                serving.inject_worker_crash(victim)
            return original(request)

        gateway.observe = crashing_observe

    def test_streamed_worker_crash_mid_segment_is_bitwise_invisible(self):
        traffic = self._traffic()
        config = gateway_config(
            "sharded", ingest_segment_max=3, ingest_pipeline=True
        )
        assert_gateway_outcomes_equal(
            run_sequential(traffic, "sharded", self.SEED),
            run_streamed(
                traffic, "sharded", self.SEED,
                config=config, before_drain=self._crash_mid_flush,
            ),
        )

    def test_async_worker_crash_mid_segment_is_bitwise_invisible(self):
        traffic = self._traffic()
        config = gateway_config(
            "sharded", ingest_segment_max=3, ingest_pipeline=True
        )
        assert_gateway_outcomes_equal(
            run_sequential(traffic, "sharded", self.SEED),
            run_async(
                traffic, "sharded", self.SEED,
                config=config, before_drain=self._crash_mid_flush,
            ),
        )


@pytest.mark.slow
class TestShardedCrashStress:
    """Extends the PR 2 stress pattern: crashes mid-stream, then bitwise
    equality — replay-on-respawn must be invisible in the numbers.
    Thin client of the ISSUE 7 chaos driver (crash-only fault plans)."""

    TEMPLATES = 16
    BURSTS = 12
    WARMUP = 14

    def test_crash_and_respawn_is_bitwise_invisible(self):
        rng = RngStream(97, "crash-stress")
        keys = [f"tenant-{i:02d}" for i in range(self.TEMPLATES)]
        script = []
        for _ in range(self.WARMUP):
            script += [(i, "observe") for i in range(self.TEMPLATES)]
        faults = []
        for burst in range(self.BURSTS):
            script += [(i, "observe") for i in range(self.TEMPLATES)]
            if burst in (3, 7):  # deterministic mid-run worker kills
                faults.append(
                    Fault(at=len(script), kind="crash", shard=int(rng.integers(0, 4)))
                )
            script.append((0, "batch"))
        log = run_chaos_script(
            script,
            faults,
            keys=keys,
            workers=4,
            seed=41,
            stream_length=self.WARMUP + self.BURSTS,
        )
        assert log.crashes == 2
        # Every injected crash was detected and healed exactly once
        # (a crashed worker with no subsequent traffic heals on the
        # shard's next RPC, which the per-burst refresh guarantees).
        assert log.respawns == 2

    def test_threaded_interleaving_against_sharded_sequential_replay(self):
        """Concurrent parent threads on the sharded service vs a
        sequential in-process replay (the PR 2 stress invariant, now
        across the process boundary)."""
        keys = [f"tenant-{i:02d}" for i in range(8)]
        streams = {key: observation_stream(key, 30, seed=67) for key in keys}
        with ShardedEstimationService(sharded_factory, workers=3) as sharded:
            for key in keys:
                sharded.register(key, feature_names=FEATURES, metrics=METRICS)
            barrier = threading.Barrier(len(keys))

            def tenant(key: str) -> None:
                barrier.wait()
                for tick, features, costs in streams[key]:
                    sharded.record(key, tick, features, costs)
                    if tick % 5 == 4:
                        try:
                            sharded.model(key)
                        except EstimationError:
                            pass

            threads = [
                threading.Thread(target=tenant, args=(key,)) for key in keys
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            final_sharded = {key: sharded.model(key) for key in keys}
        replayed = EstimationService(
            strategy=dream_strategy(r2_required=R2, max_window=MAX_WINDOW)
        )
        for key in keys:
            replayed.register(key, feature_names=FEATURES, metrics=METRICS)
            for tick, features, costs in streams[key]:
                replayed.record(key, tick, features, costs)
        for key in keys:
            assert_models_bitwise_equal(key, final_sharded[key], replayed.model(key))

    def test_gateway_drain_survives_worker_crash_mid_batch(self):
        """ISSUE 6: a worker killed between admission and drain() must
        be invisible — the respawned worker replays the authoritative
        history and the drained batch stays bitwise-identical to a
        crash-free sequential replay."""
        seed = 89
        warm_runs = 10
        rng = RngStream(29, "crash-mid-batch")
        traffic = []
        for _ in range(6):
            for key in GATEWAY_KEYS:
                params = MEDICAL_QUERIES[key].sample_params(rng)
                traffic.append(("observe", ObserveRequest(key, params)))
        for key in GATEWAY_KEYS:
            params = MEDICAL_QUERIES[key].sample_params(rng)
            traffic.append(("submit", SubmitRequest(key, params)))

        def warmed(config):
            midas = MidasSystem(patient_count=250, seed=seed, config=config)
            for key in GATEWAY_KEYS:
                midas.warm_up(key, runs=warm_runs)
            return midas

        sequential = warmed(gateway_config("sharded"))
        seq_outcomes = []
        try:
            for op, request in traffic:
                call = (
                    sequential.gateway.submit
                    if op == "submit"
                    else sequential.gateway.observe
                )
                seq_outcomes.append(("ok", call(request)))
            seq_fits = sequential.gateway.serving_stats.fits
        finally:
            sequential.gateway.close()

        batched = warmed(gateway_config("sharded"))
        try:
            for _op, request in traffic:
                batched.gateway.ingest(request)
            serving = batched.gateway.engine.serving
            # Kill the worker owning the first template AFTER admission,
            # BEFORE the flush: the fit_many retry path must heal it.
            serving.inject_worker_crash(serving.shard_of(GATEWAY_KEYS[0]))
            batch = batched.gateway.drain()
            assert batch.failed == 0
            bat_outcomes = [("ok", report) for report in batch.reports]
            assert serving.respawns >= 1
            bat_fits = batched.gateway.serving_stats.fits
        finally:
            batched.gateway.close()

        assert_gateway_outcomes_equal(
            (seq_outcomes, seq_fits, 0), (bat_outcomes, bat_fits, 0)
        )
