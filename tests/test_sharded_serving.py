"""ShardedEstimationService: functional semantics + federation wiring.

Covers the serving contract (registration, snapshots, refresh, stats),
the worker lifecycle (crash detection, respawn replay, graceful
shutdown, hung-worker timeout), the serving-backend registry, and the
gateway integration (``FederationConfig(serving_backend="sharded")``
drives the full Figure 1 pipeline to the same decisions as the
in-process service).  Deep randomized equivalence lives in
``tests/test_sharded_properties.py``.
"""

import numpy as np
import pytest

from repro.common.errors import EstimationError, ValidationError
from repro.serving import EstimationService, ShardedEstimationService, shard_of
from repro.serving.sharded import ShardedServingError
from repro.serving.worker import dream_strategy

from tests.helpers import (
    FEATURES,
    MAX_WINDOW,
    METRICS,
    R2,
    observation_stream,
    sharded_factory as factory,
)


def _exploding_strategy():
    """Picklable factory whose worker-side construction always fails."""
    raise RuntimeError("boom: strategy not constructible in the worker")


@pytest.fixture
def sharded():
    service = ShardedEstimationService(factory, workers=2)
    yield service
    service.close()


def feed(service, key: str, ticks: int, seed: int = 17) -> None:
    for tick, features, costs in observation_stream(key, ticks, seed):
        service.record(key, tick, features, costs)


class TestShardedFunctional:
    def test_register_and_duplicate_rejected(self, sharded):
        sharded.register("q1", feature_names=FEATURES, metrics=METRICS)
        with pytest.raises(ValidationError):
            sharded.register("q1", feature_names=FEATURES, metrics=METRICS)
        with pytest.raises(ValidationError):
            sharded.register("q2")  # neither history nor feature_names
        with pytest.raises(EstimationError, match="no template"):
            sharded.model("missing")

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            ShardedEstimationService(factory, workers=0)
        with pytest.raises(ValidationError):
            ShardedEstimationService(factory, workers=2, rpc_timeout=0.0)

    def test_shard_assignment_is_stable_and_total(self, sharded):
        keys = [f"q{i}" for i in range(16)]
        assigned = {key: sharded.shard_of(key) for key in keys}
        assert assigned == {key: shard_of(key, 2) for key in keys}
        assert set(assigned.values()) <= {0, 1}
        # CRC32 spreads 16 keys over both shards (not all on one).
        assert len(set(assigned.values())) == 2

    def test_snapshot_reused_until_history_moves(self, sharded):
        sharded.register("q1", feature_names=FEATURES, metrics=METRICS)
        feed(sharded, "q1", 12)
        first = sharded.model("q1")
        assert sharded.model("q1") is first  # same version -> same snapshot
        tick, features, costs = observation_stream("q1", 13)[-1]
        sharded.record("q1", tick + 1, features, costs)
        assert sharded.is_stale("q1")
        assert sharded.model("q1") is not first
        stats = sharded.stats
        assert stats.fits == 2 and stats.snapshot_hits == 1

    def test_preexisting_history_rows_are_replayed_on_first_fit(self, sharded):
        from repro.core import ExecutionHistory

        history = ExecutionHistory(FEATURES, METRICS)
        for tick, features, costs in observation_stream("pre", 14):
            history.append(tick, features, costs)
        sharded.register("pre", history)
        reference = EstimationService(
            strategy=dream_strategy(r2_required=R2, max_window=MAX_WINDOW)
        )
        reference.register("pre", feature_names=FEATURES, metrics=METRICS)
        feed(reference, "pre", 14)
        assert (
            sharded.model("pre").training_size
            == reference.model("pre").training_size
        )

    def test_estimate_batch_matches_per_row(self, sharded):
        sharded.register("q1", feature_names=FEATURES, metrics=METRICS)
        feed(sharded, "q1", 15)
        matrix = np.array([[30.0, 2.0], [75.0, 8.0], [110.0, 4.0]])
        batched = sharded.estimate_batch("q1", matrix)
        for i, row in enumerate(matrix):
            single = sharded.estimate("q1", row)
            for metric in METRICS:
                assert batched[metric][i] == pytest.approx(single[metric], rel=1e-12)

    def test_refresh_batch_twice_reuses_the_snapshots(self, sharded):
        keys = [f"q{i}" for i in range(5)]
        for key in keys:
            sharded.register(key, feature_names=FEATURES, metrics=METRICS)
            feed(sharded, key, 12, seed=3)
        first = sharded.refresh_batch()
        assert sorted(first.models) == keys and first.fitted == tuple(keys)
        # Everything fresh now: no refits, the same snapshot objects.
        second = sharded.refresh_batch()
        assert second.fitted == ()
        for key in keys:
            assert second.models[key] is first.models[key]
        assert sharded.stats.fits == len(keys)

    def test_failed_fit_keeps_replica_in_sync(self, sharded):
        """Regression (found by hypothesis): a fit on a too-short
        history fails AFTER the delta rows landed on the replica; the
        parent must not re-send them with the next fit."""
        sharded.register("q1", feature_names=FEATURES, metrics=METRICS)
        feed(sharded, "q1", 3)  # below the minimum window (L + 2 = 4)
        with pytest.raises(EstimationError):
            sharded.model("q1")
        tick, features, costs = observation_stream("q1", 4)[-1]
        sharded.record("q1", tick, features, costs)
        fitted = sharded.model("q1")  # must not double-append rows 0..2
        reference = EstimationService(
            strategy=dream_strategy(r2_required=R2, max_window=MAX_WINDOW)
        )
        reference.register("q1", feature_names=FEATURES, metrics=METRICS)
        feed(reference, "q1", 4)
        assert fitted.training_size == reference.model("q1").training_size

    def test_unfittable_template_does_not_poison_the_burst(self, sharded):
        sharded.register("ready", feature_names=FEATURES, metrics=METRICS)
        sharded.register("empty", feature_names=FEATURES, metrics=METRICS)
        feed(sharded, "ready", 12)
        result = sharded.refresh_batch()
        assert set(result.models) == {"ready"}
        assert type(result.errors["empty"]) is EstimationError

    def test_stats_aggregate_engine_caches_across_workers(self, sharded):
        keys = [f"q{i}" for i in range(6)]
        for key in keys:
            sharded.register(key, feature_names=FEATURES, metrics=METRICS)
            feed(sharded, key, 12, seed=5)
        sharded.refresh_batch()
        sharded.refresh_batch()  # all fresh: no new fits
        stats = sharded.stats
        assert stats.templates == 6
        assert stats.fits == 6
        assert stats.observations == 6 * 12
        assert stats.batch_refreshes == 2 and stats.batch_fits == 6
        # One engine miss per template, summed across both workers.
        assert stats.engine_cache is not None
        assert stats.engine_cache.misses == 6
        per_shard = sharded.shard_stats()
        assert sum(s["templates"] for s in per_shard) == 6
        assert sum(s["fits"] for s in per_shard) == 6
        assert len({s["pid"] for s in per_shard}) == 2

    def test_template_lock_excludes_fits(self, sharded):
        sharded.register("q1", feature_names=FEATURES, metrics=METRICS)
        feed(sharded, "q1", 12)
        with sharded.template_lock("q1"):
            # Re-entrant for the owning thread; fits still succeed here.
            assert sharded.model("q1") is not None


class TestWorkerLifecycle:
    def test_crash_is_detected_respawned_and_replayed(self, sharded):
        sharded.register("q1", feature_names=FEATURES, metrics=METRICS)
        feed(sharded, "q1", 14)
        before = sharded.model("q1")
        pids_before = sharded.worker_pids()
        victim = sharded.shard_of("q1")
        sharded.inject_worker_crash(victim)
        # Stale the template so the next model() must hit the worker.
        tick, features, costs = observation_stream("q1", 15)[-1]
        sharded.record("q1", tick + 1, features, costs)
        after = sharded.model("q1")
        assert sharded.respawns == 1
        assert sharded.worker_pids()[victim] != pids_before[victim]
        # The respawned replica refit deterministically from the replay.
        reference = EstimationService(
            strategy=dream_strategy(r2_required=R2, max_window=MAX_WINDOW)
        )
        reference.register("q1", feature_names=FEATURES, metrics=METRICS)
        feed(reference, "q1", 14)
        reference.record("q1", tick + 1, features, costs)
        expected = reference.model("q1")
        assert after.training_size == expected.training_size
        probe = np.array([[40.0, 3.0], [90.0, 6.0]])
        got, want = after.predict_batch(probe), expected.predict_batch(probe)
        for metric in METRICS:
            assert np.array_equal(got[metric], want[metric])
        assert before is not after

    def test_rpc_timeout_counts_as_crash_and_respawns(self):
        # A 10s timeout must never fire on a healthy fit; this asserts
        # the guard is wired, not that it trips.
        service = ShardedEstimationService(factory, workers=1, rpc_timeout=10.0)
        try:
            service.register("q1", feature_names=FEATURES, metrics=METRICS)
            feed(service, "q1", 12)
            assert service.model("q1") is not None
            assert service.respawns == 0
        finally:
            service.close()

    def test_rpc_timeout_configurable_through_the_gateway(self):
        from repro.federation import FederationConfig, create_serving

        config = FederationConfig(
            serving_backend="sharded", shard_workers=1, shard_rpc_timeout=30.0
        )
        service = create_serving(config, modelling=None)
        try:
            assert service.rpc_timeout == 30.0
        finally:
            service.close()

    def test_stats_are_read_only_and_never_heal_a_crash(self, sharded):
        """Introspection must not respawn workers: a monitoring poll on
        a crashed shard reports the placeholder row; healing happens on
        the next serving RPC."""
        sharded.register("q1", feature_names=FEATURES, metrics=METRICS)
        feed(sharded, "q1", 12)
        sharded.model("q1")
        victim = sharded.shard_of("q1")
        sharded.inject_worker_crash(victim)
        per_shard = sharded.shard_stats()
        assert per_shard[victim]["pid"] is None  # placeholder, no respawn
        assert sharded.respawns == 0
        assert sharded.stats.templates == 1  # aggregate stats still work
        tick, features, costs = observation_stream("q1", 13)[-1]
        sharded.record("q1", tick + 1, features, costs)
        assert sharded.model("q1") is not None  # the serving path heals
        assert sharded.respawns == 1

    def test_worker_boot_failure_surfaces_with_root_cause(self):
        """A worker whose strategy factory raises must report WHY at the
        first RPC (an infrastructure ShardedServingError), not die with
        an opaque exit code and a futile crash-respawn loop."""
        service = ShardedEstimationService(_exploding_strategy, workers=1)
        try:
            with pytest.raises(ShardedServingError, match="failed to start"):
                service.register("q1", feature_names=FEATURES, metrics=METRICS)
            assert service.respawns == 0  # a boot failure is not a crash
        finally:
            service.close()

    def test_close_is_graceful_and_idempotent(self):
        service = ShardedEstimationService(factory, workers=2)
        service.register("q1", feature_names=FEATURES, metrics=METRICS)
        processes = [shard.process for shard in service._shards]
        service.close()
        service.close()
        assert all(not process.is_alive() for process in processes)
        # Polite shutdown, not terminate: workers exit with code 0.
        assert all(process.exitcode == 0 for process in processes)
        with pytest.raises(ShardedServingError):
            service.register("q2", feature_names=FEATURES, metrics=METRICS)
        with pytest.raises(EstimationError):
            service.model("q1")

    def test_context_manager_closes(self):
        with ShardedEstimationService(factory, workers=1) as service:
            service.register("q1", feature_names=FEATURES, metrics=METRICS)
            processes = [shard.process for shard in service._shards]
        assert all(not process.is_alive() for process in processes)


class TestServingBackendRegistry:
    def test_builtins_registered(self):
        from repro.federation import available_serving_backends

        names = available_serving_backends()
        assert "threaded" in names and "sharded" in names

    def test_unknown_backend_rejected_eagerly_with_listing(self):
        from repro.federation import FederationConfig, UnknownServingBackendError

        with pytest.raises(UnknownServingBackendError) as excinfo:
            FederationConfig(serving_backend="no-such-backend")
        assert "threaded" in str(excinfo.value)
        assert excinfo.value.phase == "configure"

    def test_custom_backend_selected_by_config(self):
        from repro.federation import (
            FederationConfig,
            create_serving,
            register_serving_backend,
            unregister_serving_backend,
        )
        from repro.ires.modelling import DreamStrategy, Modelling

        seen = {}

        def backend(config, modelling):
            seen["config"] = config
            service = EstimationService(modelling=modelling)
            seen["service"] = service
            return service

        register_serving_backend("test-recording", backend)
        try:
            config = FederationConfig(serving_backend="test-recording")
            modelling = Modelling(DreamStrategy())
            service = create_serving(config, modelling)
            assert service is seen["service"]
            assert seen["config"] is config
        finally:
            unregister_serving_backend("test-recording")

    def test_duplicate_backend_registration_refused(self):
        from repro.federation import GatewayConfigError, register_serving_backend

        with pytest.raises(GatewayConfigError, match="already registered"):
            register_serving_backend("threaded", lambda config, modelling: None)


class TestGatewayIntegration:
    @staticmethod
    def _midas(serving_backend: str):
        from dataclasses import replace

        from repro.midas import MidasSystem
        from repro.midas.system import DEFAULT_CONFIG

        config = replace(
            DEFAULT_CONFIG, serving_backend=serving_backend, shard_workers=2
        )
        return MidasSystem(patient_count=240, seed=11, config=config)

    def test_sharded_gateway_matches_threaded_decisions(self):
        from repro.federation import SubmitRequest
        from repro.ires.policy import UserPolicy

        key = "medical-demographics"
        reports = {}
        for backend in ("threaded", "sharded"):
            midas = self._midas(backend)
            try:
                midas.warm_up(key, runs=8)
                report = midas.gateway.submit(
                    SubmitRequest(key, {"min_age": 40}, UserPolicy(weights=(0.6, 0.4)))
                )
                reports[backend] = report
            finally:
                midas.gateway.close()
        threaded, sharded = reports["threaded"], reports["sharded"]
        assert sharded.chosen.describe() == threaded.chosen.describe()
        assert sharded.predicted_costs == threaded.predicted_costs
        assert sharded.measured_costs == threaded.measured_costs
        assert sharded.cost_model.training_size == threaded.cost_model.training_size

    def test_serving_report_envelope(self):
        midas = self._midas("sharded")
        try:
            report = midas.gateway.serving_report()
            assert report.backend == "sharded"
            assert report.workers == 2
            assert report.respawns == 0
            assert report.stats.templates == len(midas.gateway.templates())
            assert "sharded (2 worker processes)" in report.describe()
        finally:
            midas.gateway.close()

    def test_gateway_close_drains_workers_and_context_manager(self):
        midas = self._midas("sharded")
        serving = midas.gateway.engine.serving
        with midas.gateway as gateway:
            assert gateway.serving_report().workers == 2
        assert all(not shard.process.is_alive() for shard in serving._shards)

    def test_strategy_instance_rejected_with_sharded_backend(self):
        from dataclasses import replace

        from repro.federation import GatewayConfigError
        from repro.ires.modelling import DreamStrategy
        from repro.midas import MidasSystem
        from repro.midas.system import DEFAULT_CONFIG

        config = replace(DEFAULT_CONFIG, serving_backend="sharded")
        with pytest.raises(GatewayConfigError, match="threaded"):
            MidasSystem(patient_count=240, config=config, strategy=DreamStrategy())


class TestLoadAccounting:
    """ISSUE 7 satellite: ``shard_stats()`` backlog and ``rpc_counts()``
    under partial-failure ``fit_many`` rounds — counters, never timing."""

    def test_backlog_and_rpc_counters_through_a_partial_failure_batch(self):
        with ShardedEstimationService(factory, workers=1) as sharded:
            sharded.register("warm", feature_names=FEATURES, metrics=METRICS)
            sharded.register("short", feature_names=FEATURES, metrics=METRICS)
            feed(sharded, "warm", 12)
            # One row: stale, but below the minimum window (L + 2 = 4).
            tick, features, costs = observation_stream("short", 1)[0]
            sharded.record("short", tick, features, costs)
            row = sharded.shard_stats()[0]
            assert row["backlog"] == 13  # 12 + 1 rows not yet shipped
            assert row["routed"] == 2
            assert row["queue_depth"] == 0  # nothing mid-RPC right now
            before = sharded.rpc_counts()
            result = sharded.refresh_batch()
            after = sharded.rpc_counts()
            # One coalesced fit_many for the whole round (one shard),
            # and no other RPC.
            assert {
                op: count - before.get(op, 0)
                for op, count in after.items()
                if count != before.get(op, 0)
            } == {"fit_many": 1}
            assert "warm" in result.models and "short" in result.errors
            # The failed fit still shipped its rows (the replica stays
            # in sync), so the backlog fully drains.
            row = sharded.shard_stats()[0]
            assert row["backlog"] == 0
            assert row["fit_ewma_ms"] is not None and row["fit_ewma_ms"] > 0.0
            # One more observation -> backlog is exactly that one row.
            tick, features, costs = observation_stream("short", 2)[-1]
            sharded.record("short", tick + 1, features, costs)
            assert sharded.shard_stats()[0]["backlog"] == 1

    def test_load_rows_mirror_shard_stats(self, sharded):
        sharded.register("q1", feature_names=FEATURES, metrics=METRICS)
        feed(sharded, "q1", 12)
        sharded.model("q1")
        home = sharded.shard_of("q1")
        loads = sharded.shard_loads()
        assert [load.index for load in loads] == [0, 1]
        assert loads[home].routed == ("q1",)
        assert loads[home].backlog == 0
        (template,) = sharded.template_loads()
        assert template.key == "q1" and template.shard == home
        assert template.fits == 1
        assert template.fit_seconds_ewma is not None


class TestFitRpcContract:
    """Every fit is a ``fit_many``: one RPC per busy shard per group, a
    stale ``model()`` is a one-item group, and the v3 single-template
    ``fit`` op is gone from the worker."""

    @staticmethod
    def spy_fit_many(service):
        """Record every ``fit_many`` request and reply on ``service``."""
        calls = []
        raw = service._call_locked

        def spy(shard, message):
            reply = raw(shard, message)
            if message["op"] == "fit_many":
                calls.append((shard.index, message, reply))
            return reply

        service._call_locked = spy
        return calls

    def test_stale_model_is_one_fit_many_with_one_item(self, sharded):
        sharded.register("q1", feature_names=FEATURES, metrics=METRICS)
        sharded.register("q2", feature_names=FEATURES, metrics=METRICS)
        feed(sharded, "q1", 12)
        feed(sharded, "q2", 12)
        calls = self.spy_fit_many(sharded)
        before = sharded.rpc_counts()
        sharded.model("q1")
        sharded.model("q1")  # fresh: a snapshot hit, no RPC
        after = sharded.rpc_counts()
        assert after.get("fit_many", 0) - before.get("fit_many", 0) == 1
        assert sum(after.values()) - sum(before.values()) == 1
        ((index, message, _reply),) = calls
        assert index == sharded.shard_of("q1")
        assert [item["key"] for item in message["items"]] == ["q1"]
        assert len(message["items"][0]["rows"]) == 12

    @pytest.mark.parametrize("spread", ["one-shard", "both-shards"])
    def test_refresh_batch_issues_one_fit_many_per_busy_shard(self, sharded, spread):
        candidates = [f"q{i}" for i in range(32)]
        if spread == "one-shard":
            keys = [key for key in candidates if shard_of(key, 2) == 0][:4]
        else:
            keys = candidates[:6]
        busy = {shard_of(key, 2) for key in keys}
        assert len(busy) == (1 if spread == "one-shard" else 2)
        for key in keys:
            sharded.register(key, feature_names=FEATURES, metrics=METRICS)
            feed(sharded, key, 12, seed=5)
        calls = self.spy_fit_many(sharded)
        before = sharded.rpc_counts()
        result = sharded.refresh_batch(keys)
        after = sharded.rpc_counts()
        assert sorted(result.models) == sorted(keys)
        assert after.get("fit_many", 0) - before.get("fit_many", 0) == len(busy)
        assert sorted(index for index, _, _ in calls) == sorted(busy)
        shipped = sorted(
            item["key"] for _, message, _ in calls for item in message["items"]
        )
        assert shipped == sorted(keys)

    def test_template_heat_is_the_worker_measured_fit_time(self, sharded):
        """Each reply item carries its own fit seconds; a template's
        first fit seeds its EWMA with exactly that sample, so two
        shard-mates fitted by one RPC keep their own heat rather than a
        shard average."""
        keys = [key for key in (f"q{i}" for i in range(32)) if shard_of(key, 2) == 1]
        keys = keys[:2]
        for key in keys:
            sharded.register(key, feature_names=FEATURES, metrics=METRICS)
            feed(sharded, key, 12 + 6 * keys.index(key), seed=11)
        calls = self.spy_fit_many(sharded)
        sharded.refresh_batch(keys)
        ((_index, _message, replies),) = calls
        seconds = {reply["key"]: reply["seconds"] for reply in replies}
        heat = {load.key: load.fit_seconds_ewma for load in sharded.template_loads()}
        assert heat == seconds
        assert all(value > 0.0 for value in heat.values())

    def test_legacy_fit_op_gets_a_typed_internal_error(self, sharded):
        sharded.register("q1", feature_names=FEATURES, metrics=METRICS)
        shard = sharded._shards[sharded.shard_of("q1")]
        legacy = {"op": "fit", "key": "q1", "rows": [], "expected_size": 0}
        with shard.lock:
            with pytest.raises(ShardedServingError, match="unknown worker op") as info:
                sharded._call_locked(shard, legacy)
        assert type(info.value) is ShardedServingError
        # The worker survives the refusal and keeps serving.
        feed(sharded, "q1", 12)
        assert sharded.model("q1") is not None
        assert sharded.respawns == 0


class TestHistoryReads:
    def test_durable_observe_and_sharded_fit_never_rebuild_the_history_view(
        self, tmp_path, monkeypatch
    ):
        """``ExecutionHistory.observations`` rebuilds an O(size) tuple
        after every append; the per-row paths (journaling the appended
        row, shipping a shard's row delta, folding new rows into the
        DREAM engine) must read only the new rows.  Patched before the
        gateway forks its worker, so the worker side is covered too."""
        from repro.core.history import ExecutionHistory
        from repro.federation import DurabilityConfig, FederationConfig, ObserveRequest
        from repro.midas import MidasSystem

        def rebuilt(_history):
            raise AssertionError("per-row path read ExecutionHistory.observations")

        monkeypatch.setattr(ExecutionHistory, "observations", property(rebuilt))
        config = FederationConfig(
            serving_backend="sharded",
            shard_workers=1,
            max_window=24,
            durability=DurabilityConfig(dir=str(tmp_path)),
        )
        midas = MidasSystem(patient_count=250, seed=43, config=config)
        gateway = midas.gateway
        try:
            key = "medical-demographics"
            for tick in range(8):
                gateway.observe(ObserveRequest(key, {"min_age": 35 + tick}))
            first = gateway.model(key)
            gateway.observe(ObserveRequest(key, {"min_age": 60}))
            second = gateway.model(key)
            assert second is not first
            assert gateway.engine.serving.respawns == 0
        finally:
            gateway.close()


class TestElasticTopology:
    """ISSUE 7 tentpole: routed placement, live migration, pool resize
    and the rebalance control loop (unit level; equivalence-under-chaos
    lives in ``tests/test_chaos_equivalence.py``)."""

    def test_migrate_flips_route_and_is_invisible_to_the_model(self, sharded):
        sharded.register("q1", feature_names=FEATURES, metrics=METRICS)
        feed(sharded, "q1", 14)
        before = sharded.model("q1")
        src = sharded.shard_of("q1")
        dst = 1 - src
        assert sharded.migrate("q1", dst) is True
        assert sharded.shard_of("q1") == dst
        assert sharded.migrations == 1 and sharded.route_version == 1
        # The snapshot survives the move (placement is not staleness)...
        assert sharded.model("q1") is before
        # ...and the next refit on the destination walks the identical
        # window schedule.
        tick, features, costs = observation_stream("q1", 15)[-1]
        sharded.record("q1", tick + 1, features, costs)
        after = sharded.model("q1")
        reference = EstimationService(
            strategy=dream_strategy(r2_required=R2, max_window=MAX_WINDOW)
        )
        reference.register("q1", feature_names=FEATURES, metrics=METRICS)
        feed(reference, "q1", 14)
        reference.record("q1", tick + 1, features, costs)
        expected = reference.model("q1")
        assert after.training_size == expected.training_size
        probe = np.array([[40.0, 3.0], [90.0, 6.0]])
        got, want = after.predict_batch(probe), expected.predict_batch(probe)
        for metric in METRICS:
            assert np.array_equal(got[metric], want[metric])

    def test_migrate_to_home_shard_is_a_noop(self, sharded):
        sharded.register("q1", feature_names=FEATURES, metrics=METRICS)
        assert sharded.migrate("q1", sharded.shard_of("q1")) is False
        assert sharded.migrations == 0 and sharded.route_version == 0

    def test_shard_of_uses_routes_then_falls_back_to_crc32(self, sharded):
        sharded.register("q1", feature_names=FEATURES, metrics=METRICS)
        sharded.migrate("q1", 1 - sharded.shard_of("q1"))
        assert sharded.shard_of("q1") != shard_of("q1", 2)
        # Unregistered keys still resolve to their static placement.
        assert sharded.shard_of("never-registered") == shard_of(
            "never-registered", 2
        )

    def test_resize_grow_keeps_routes_and_adds_cold_shards(self, sharded):
        sharded.register("q1", feature_names=FEATURES, metrics=METRICS)
        feed(sharded, "q1", 12)
        home = sharded.shard_of("q1")
        assert sharded.resize(4) == 4
        assert sharded.workers == 4 and len(sharded.worker_pids()) == 4
        assert sharded.shard_of("q1") == home  # nothing refits on grow
        assert sharded.route_version == 1
        loads = sharded.shard_loads()
        assert [load.routed for load in loads[2:]] == [(), ()]
        assert sharded.model("q1") is not None

    def test_resize_shrink_migrates_doomed_replicas_and_preserves_models(self):
        keys = [f"q{i}" for i in range(6)]
        with ShardedEstimationService(factory, workers=4) as sharded:
            for key in keys:
                sharded.register(key, feature_names=FEATURES, metrics=METRICS)
                feed(sharded, key, 12, seed=7)
            before = sharded.refresh_batch().models
            assert sharded.resize(2) == 2
            assert sharded.workers == 2
            # Every tenant landed on its CRC32 placement in the smaller
            # pool — a later restart at width 2 agrees with the live
            # shrink.
            for key in keys:
                assert sharded.shard_of(key) == shard_of(key, 2)
            # Models survive: nothing was stale, so nothing refits.
            after = sharded.refresh_batch().models
            for key in keys:
                assert after[key] is before[key]

    def test_rebalance_moves_the_hot_template_off_the_hot_shard(self):
        from repro.serving import RebalanceConfig, RebalancePolicy

        with ShardedEstimationService(factory, workers=2) as sharded:
            # Colocate three tenants on one shard by their CRC32 homes.
            colocated = [
                key for key in (f"q{i}" for i in range(64))
                if shard_of(key, 2) == 0
            ][:3]
            for key in colocated:
                sharded.register(key, feature_names=FEATURES, metrics=METRICS)
                feed(sharded, key, 12, seed=9)
                sharded.model(key)  # fits + wall-time EWMAs = heat
            policy = RebalancePolicy(RebalanceConfig(max_moves=2))
            outcome = sharded.rebalance(policy)
            assert outcome.moves, outcome.describe()
            assert all(move.src == 0 and move.dst == 1 for move in outcome.moves)
            assert sharded.migrations == len(outcome.moves)
            moved = {move.key for move in outcome.moves}
            for key in moved:
                assert sharded.shard_of(key) == 1
            # The move is bitwise invisible: fresh models still agree.
            reference = EstimationService(
                strategy=dream_strategy(r2_required=R2, max_window=MAX_WINDOW)
            )
            for key in colocated:
                reference.register(key, feature_names=FEATURES, metrics=METRICS)
                feed(reference, key, 12, seed=9)
                assert (
                    sharded.model(key).training_size
                    == reference.model(key).training_size
                )

    def test_rebalance_grows_the_pool_under_backlog_pressure(self):
        from repro.serving import RebalanceConfig, RebalancePolicy

        with ShardedEstimationService(factory, workers=1) as sharded:
            sharded.register("q1", feature_names=FEATURES, metrics=METRICS)
            feed(sharded, "q1", 12)  # 12 pending rows, never fitted
            policy = RebalancePolicy(
                RebalanceConfig(grow_backlog=8, max_workers=2)
            )
            outcome = sharded.rebalance(policy)
            assert outcome.grew_to == 2
            assert sharded.workers == 2
            assert "backlog" in outcome.reason

    def test_rebalance_shrinks_idle_trailing_shards(self):
        from repro.serving import RebalanceConfig, RebalancePolicy

        with ShardedEstimationService(factory, workers=3) as sharded:
            key = next(
                key for key in (f"q{i}" for i in range(64))
                if shard_of(key, 3) == 0
            )
            sharded.register(key, feature_names=FEATURES, metrics=METRICS)
            feed(sharded, key, 12)
            sharded.model(key)
            policy = RebalancePolicy(RebalanceConfig(min_workers=1))
            outcome = sharded.rebalance(policy)
            assert outcome.shrank_to == 1
            assert sharded.workers == 1
            assert sharded.model(key) is not None


class TestRebalancePolicyUnit:
    """``RebalancePolicy.plan`` is pure — every decision rule is
    checkable on hand-built load snapshots, no processes involved."""

    @staticmethod
    def shard_row(index, routed, backlog=0):
        from repro.serving import ShardLoad

        return ShardLoad(
            index=index,
            routed=tuple(routed),
            backlog=backlog,
            queue_depth=0,
            fit_seconds_ewma=None,
        )

    @staticmethod
    def template_row(key, shard, fits=1, ewma=1e-3, backlog=0):
        from repro.serving import TemplateLoad

        return TemplateLoad(
            key=key, shard=shard, fits=fits, fit_seconds_ewma=ewma, backlog=backlog
        )

    def test_balanced_pool_is_a_noop(self):
        from repro.serving import RebalancePolicy

        policy = RebalancePolicy()
        plan = policy.plan(
            [self.shard_row(0, ["a"]), self.shard_row(1, ["b"])],
            [self.template_row("a", 0), self.template_row("b", 1)],
        )
        assert plan.is_noop and plan.reason == "balanced"

    def test_hot_shard_sheds_its_hottest_template(self):
        from repro.serving import RebalancePolicy

        policy = RebalancePolicy()
        plan = policy.plan(
            [self.shard_row(0, ["a", "b"]), self.shard_row(1, [])],
            [
                self.template_row("a", 0, fits=10, ewma=2e-3),
                self.template_row("b", 0, fits=10, ewma=1e-3),
            ],
        )
        assert [move.describe() for move in plan.moves] == ["a: shard 0 -> 1"]

    def test_a_lone_template_is_never_moved(self):
        from repro.serving import RebalancePolicy

        policy = RebalancePolicy()
        plan = policy.plan(
            [self.shard_row(0, ["a"]), self.shard_row(1, [])],
            [self.template_row("a", 0, fits=100, ewma=5e-2)],
        )
        # Moving the only template just relocates the hotspot, and the
        # empty trailing shard is dropped instead.
        assert not plan.moves
        assert plan.shrink_to == 1

    def test_stateful_heat_cools_templates_that_stop_fitting(self):
        from repro.serving import RebalancePolicy

        policy = RebalancePolicy()
        shards = [self.shard_row(0, ["a", "b"]), self.shard_row(1, ["c"])]
        hot_then_idle = [
            self.template_row("a", 0, fits=50, ewma=1e-2),
            self.template_row("b", 0, fits=1, ewma=1e-3),
            self.template_row("c", 1, fits=1, ewma=1e-3),
        ]
        policy.plan(shards, hot_then_idle)
        # Same snapshot again: zero fit deltas everywhere, heat halves
        # each cycle (smoothing=0.5) until the plan goes quiet.
        for _ in range(8):
            plan = policy.plan(shards, hot_then_idle)
        assert not plan.moves
        assert policy.cycles == 9

    def test_config_validation_is_eager(self):
        from repro.serving import RebalanceConfig

        with pytest.raises(ValidationError, match="hot_factor"):
            RebalanceConfig(hot_factor=0.5)
        with pytest.raises(ValidationError, match="cold_factor"):
            RebalanceConfig(cold_factor=1.5)
        with pytest.raises(ValidationError, match="max_workers"):
            RebalanceConfig(min_workers=3, max_workers=2)
        with pytest.raises(ValidationError, match="smoothing"):
            RebalanceConfig(smoothing=0.0)
        with pytest.raises(ValidationError, match="cadence"):
            RebalanceConfig(cadence_flushes=0)


class TestTopologyReportEnvelope:
    def _midas(self, **overrides):
        from repro.federation import FederationConfig
        from repro.midas import MidasSystem

        base = dict(serving_backend="sharded", shard_workers=2, max_window=24)
        base.update(overrides)
        return MidasSystem(
            patient_count=240, seed=13, config=FederationConfig(**base)
        )

    def test_topology_report_carries_routes_and_loads(self):
        midas = self._midas()
        try:
            report = midas.gateway.topology_report()
            assert report.backend == "sharded" and report.workers == 2
            assert report.route_version == 0 and report.migrations == 0
            assert len(report.shards) == 2
            routed = sum(len(shard.routed) for shard in report.shards)
            assert routed == len(midas.gateway.templates())
            assert "shard 0" in report.describe()
        finally:
            midas.gateway.close()

    def test_threaded_backend_reports_an_empty_topology(self):
        midas = self._midas(serving_backend="threaded", shard_workers=None)
        try:
            report = midas.gateway.topology_report()
            assert report.workers == 0 and report.shards == ()
            assert "in-process" in report.describe()
        finally:
            midas.gateway.close()

    def test_gateway_rebalance_requires_the_sharded_backend(self):
        from repro.federation import GatewayConfigError

        midas = self._midas(serving_backend="threaded", shard_workers=None)
        try:
            with pytest.raises(GatewayConfigError, match="sharded"):
                midas.gateway.rebalance()
        finally:
            midas.gateway.close()

    def test_rebalance_config_rejected_without_sharded_backend(self):
        from repro.federation import FederationConfig, GatewayConfigError
        from repro.serving import RebalanceConfig

        with pytest.raises(GatewayConfigError, match="sharded"):
            FederationConfig(rebalance=RebalanceConfig())
        with pytest.raises(GatewayConfigError, match="RebalanceConfig"):
            FederationConfig(serving_backend="sharded", rebalance={"max_moves": 1})

    def test_auto_rebalance_runs_on_the_flush_cadence(self):
        from repro.common.rng import RngStream
        from repro.federation import ObserveRequest
        from repro.midas import MEDICAL_QUERIES
        from repro.serving import RebalanceConfig

        midas = self._midas(rebalance=RebalanceConfig(cadence_flushes=2))
        gateway = midas.gateway
        try:
            rng = RngStream(27, "cadence")
            key = "medical-demographics"

            def observe():
                gateway.ingest(
                    ObserveRequest(key, MEDICAL_QUERIES[key].sample_params(rng))
                )
                gateway.drain()

            observe()  # flush 1 of 2: below the cadence, no cycle yet
            assert gateway.topology_report().last_cycle is None
            observe()  # flush 2 of 2: one control cycle runs
            report = gateway.topology_report()
            assert report.last_cycle is not None
            assert report.last_cycle.route_version == report.route_version
        finally:
            gateway.close()
