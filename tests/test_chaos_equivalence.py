"""ISSUE 7 chaos-equivalence suite: placement chaos is bitwise invisible.

Scripted plans pin down each fault kind (forced migrations mid-burst,
pool grow/shrink mid-stream, a wedged worker healed by the rpc_timeout
guard, a stale-route RPC refused loudly, concurrent migrations under
live traffic); hypothesis then draws whole fault plans — crash /
migrate / resize at arbitrary script points — and replays them through
:func:`tests.chaos.run_chaos_script`, which owns every equivalence
assertion against the single-process oracle.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import EstimationError, ValidationError
from repro.serving import (
    EstimationService,
    ShardedEstimationService,
    StaleRouteError,
    shard_of,
)
from repro.serving.worker import dream_strategy

from tests.chaos import Fault, run_chaos_script, run_gateway_chaos
from tests.helpers import (
    FEATURES,
    GATEWAY_KEYS,
    MAX_WINDOW,
    METRICS,
    R2,
    assert_models_bitwise_equal,
    observation_stream,
    sharded_factory,
)


def _warm_script(keys, rounds, bursts):
    """``rounds`` observe rounds across all keys, then ``bursts`` cycles
    of one observe round + one ``refresh_batch``; returns (script, the step
    index of each collective-fit step)."""
    script = []
    for _ in range(rounds):
        script += [(i, "observe") for i in range(len(keys))]
    fit_steps = []
    for _ in range(bursts):
        script += [(i, "observe") for i in range(len(keys))]
        fit_steps.append(len(script))
        script.append((0, "batch"))
    return script, fit_steps


class TestScriptedChaos:
    def test_forced_migrations_mid_burst_are_bitwise_invisible(self):
        keys = [f"tenant-{i}" for i in range(4)]
        script, fit_steps = _warm_script(keys, rounds=8, bursts=4)
        # Away from the CRC32 home shard and back: every move applies.
        homes = {i: shard_of(keys[i], 2) for i in range(len(keys))}
        faults = [
            # Bounce tenants between shards right before collective fits.
            Fault(at=fit_steps[0], kind="migrate", key_index=0, dst=1 - homes[0]),
            Fault(at=fit_steps[1], kind="migrate", key_index=1, dst=1 - homes[1]),
            Fault(at=fit_steps[2], kind="migrate", key_index=0, dst=homes[0]),
            # And once after the whole script, before the final sweep.
            Fault(at=len(script), kind="migrate", key_index=2, dst=1 - homes[2]),
        ]
        log = run_chaos_script(script, faults, keys=keys, workers=2)
        assert log.migrations == 4
        assert log.route_version >= log.migrations
        assert log.crashes == 0 and log.respawns == 0

    def test_pool_resize_grow_and_shrink_mid_stream(self):
        keys = [f"tenant-{i}" for i in range(5)]
        script, fit_steps = _warm_script(keys, rounds=8, bursts=4)
        faults = [
            Fault(at=fit_steps[0], kind="resize", workers=4),
            Fault(at=fit_steps[2], kind="resize", workers=1),
        ]
        log = run_chaos_script(script, faults, keys=keys, workers=2)
        assert log.resizes == 2
        assert log.workers == 1
        # The shrink migrated every tenant off the three doomed shards.
        assert log.route_version >= 2

    def test_hung_worker_is_detected_terminated_and_replayed(self):
        keys = ["tenant-0", "tenant-1"]
        script, fit_steps = _warm_script(keys, rounds=10, bursts=2)
        # Wedge tenant-0's home shard right before a collective fit: the
        # burst waits out rpc_timeout, terminates the zombie, respawns
        # and replays.
        faults = [Fault(at=fit_steps[0], kind="hang", shard=shard_of(keys[0], 2))]
        log = run_chaos_script(script, faults, keys=keys, workers=2)
        assert log.hangs == 1
        assert log.respawns == 1

    def test_stale_route_rpc_is_refused_loudly(self):
        """An RPC that reaches the old shard after a route flip must be
        a loud, typed infrastructure error — never a silent skip served
        from a dropped replica."""
        with ShardedEstimationService(sharded_factory, workers=2) as sharded:
            sharded.register("tenant-0", feature_names=FEATURES, metrics=METRICS)
            for tick, features, costs in observation_stream("tenant-0", 12):
                sharded.record("tenant-0", tick, features, costs)
            sharded.model("tenant-0")
            src = sharded.shard_of("tenant-0")
            dst = (src + 1) % 2
            assert sharded.migrate("tenant-0", dst)
            assert sharded.shard_of("tenant-0") == dst
            # Hand-deliver a straggler to the old shard (the serving
            # paths themselves resolve routes under the template lock,
            # so only a raced external caller can end up here).
            stale = sharded._shards[src]
            with stale.lock:
                with pytest.raises(StaleRouteError, match="route version"):
                    sharded._call_locked(
                        stale, {"op": "extend", "key": "tenant-0", "rows": []}
                    )
                # The worker survives the refusal and keeps serving.
                assert sharded._call_locked(stale, {"op": "ping"}) == "pong"
            # A migration back re-registers cleanly (tombstone cleared).
            assert sharded.migrate("tenant-0", src)
            assert sharded.model("tenant-0") is not None

    def test_migrate_refused_after_close(self):
        from repro.serving import ShardedServingError

        service = ShardedEstimationService(sharded_factory, workers=2)
        service.register("tenant-0", feature_names=FEATURES, metrics=METRICS)
        service.close()
        with pytest.raises(ShardedServingError, match="closed"):
            service.migrate("tenant-0", 1)
        with pytest.raises(ShardedServingError, match="closed"):
            service.resize(3)

    def test_concurrent_migrations_under_live_traffic(self):
        """Tenant threads record and fit while group refreshes fan out
        across every shard and the control plane bounces replicas
        between shards; the end state must equal a clean sequential
        in-process replay, and no fit may be lost from the counters."""
        keys = [f"tenant-{i}" for i in range(6)]
        streams = {key: observation_stream(key, 24, seed=71) for key in keys}
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            final = self._live_traffic(keys, streams)
        finally:
            sys.setswitchinterval(switch_interval)
        replayed = EstimationService(
            strategy=dream_strategy(r2_required=R2, max_window=MAX_WINDOW)
        )
        for key in keys:
            replayed.register(key, feature_names=FEATURES, metrics=METRICS)
            for tick, features, costs in streams[key]:
                replayed.record(key, tick, features, costs)
        for key in keys:
            assert_models_bitwise_equal(key, final[key], replayed.model(key))

    @staticmethod
    def _live_traffic(keys, streams):
        with ShardedEstimationService(sharded_factory, workers=3) as sharded:
            for key in keys:
                sharded.register(key, feature_names=FEATURES, metrics=METRICS)
            barrier = threading.Barrier(len(keys) + 3)

            def tenant(key: str) -> None:
                barrier.wait()
                for tick, features, costs in streams[key]:
                    sharded.record(key, tick, features, costs)
                    if tick % 6 == 5:
                        try:
                            sharded.model(key)
                        except EstimationError:
                            pass

            def control_plane() -> None:
                barrier.wait()
                for round_index in range(12):
                    key = keys[round_index % len(keys)]
                    sharded.migrate(key, (round_index + 1) % sharded.workers)

            def group_refresher(subset) -> None:
                barrier.wait()
                for _ in range(8):
                    sharded.refresh_batch(subset)

            threads = [threading.Thread(target=tenant, args=(key,)) for key in keys]
            threads.append(threading.Thread(target=control_plane))
            # Two overlapping groups: their template locks interleave.
            threads.append(threading.Thread(target=group_refresher, args=(keys,)))
            threads.append(
                threading.Thread(target=group_refresher, args=(keys[::-1][:4],))
            )
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "deadlock under live traffic"
            assert sharded.migrations >= 1
            final = {key: sharded.model(key) for key in keys}
            stats = sharded.stats
            loads = sharded.template_loads()
            assert sum(load.fits for load in loads) == stats.fits
            assert sum(shard["fits"] for shard in sharded.shard_stats()) == stats.fits
        return final


class TestGatewayChaos:
    def test_migration_and_crash_between_admission_and_drain(self):
        """Faults between ingest() and drain() must leave the drained
        batch identical to the fault-free sequential replay."""
        script = [(i % 2, "observe") for i in range(12)]
        script += [(0, "submit"), (1, "submit")]
        homes = {i: shard_of(GATEWAY_KEYS[i], 2) for i in range(2)}
        faults = [
            Fault(at=6, kind="migrate", key_index=0, dst=1 - homes[0]),
            Fault(at=12, kind="crash", shard=1),
            Fault(at=len(script), kind="migrate", key_index=1, dst=1 - homes[1]),
        ]
        log = run_gateway_chaos(script, faults, seed=131)
        assert log.crashes == 1
        assert log.migrations == 2


chaos_ops = st.sampled_from(
    ["observe", "observe", "observe", "fit", "batch", "batch"]
)
chaos_scripts = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), chaos_ops), max_size=50
)
# Hang is excluded from drawn plans: every hang costs a full rpc_timeout
# wait, which would dominate the suite (its detection path has its own
# scripted test above).
chaos_faults = st.lists(
    st.builds(
        Fault,
        at=st.integers(min_value=0, max_value=55),
        kind=st.sampled_from(["crash", "migrate", "migrate", "resize"]),
        shard=st.integers(min_value=0, max_value=3),
        key_index=st.integers(min_value=0, max_value=7),
        dst=st.integers(min_value=0, max_value=3),
        workers=st.integers(min_value=1, max_value=4),
    ),
    max_size=4,
)


class TestChaosProperties:
    @given(
        workers=st.integers(min_value=1, max_value=3),
        n_templates=st.integers(min_value=1, max_value=4),
        script=chaos_scripts,
        faults=chaos_faults,
    )
    @settings(max_examples=8)
    def test_any_fault_plan_is_bitwise_invisible(
        self, workers, n_templates, script, faults
    ):
        keys = [f"tenant-{i}" for i in range(n_templates)]
        log = run_chaos_script(script, faults, keys=keys, workers=workers)
        # Every crash that traffic touched afterwards healed exactly once.
        assert log.respawns <= log.crashes
        assert log.route_version >= log.migrations

    def test_fault_validation(self):
        with pytest.raises(ValueError, match="kind"):
            Fault(at=0, kind="meteor")
        with pytest.raises(ValueError, match="step index"):
            Fault(at=-1, kind="crash")
        # Normalisation bounds are validated at the service boundary.
        with ShardedEstimationService(sharded_factory, workers=1) as sharded:
            sharded.register("tenant-0", feature_names=FEATURES, metrics=METRICS)
            with pytest.raises(ValidationError, match="dst_shard"):
                sharded.migrate("tenant-0", 5)
            with pytest.raises(ValidationError, match="workers"):
                sharded.resize(0)
