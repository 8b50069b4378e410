"""EstimationService: multi-tenant serving semantics.

Three layers of guarantees:

1. Functional — registration, per-template histories, version-keyed
   snapshot reuse, stale detection, group refresh (a group fit and
   one-template fits produce the same models), stats counters.
2. Equivalence — the service's models match the batch DREAM oracle fit
   on the same histories (window choice and predictions).
3. Concurrency stress (``slow`` marker) — many threads interleaving
   register/tick/estimate must produce results identical to a
   sequential replay: no torn windows, no cross-template leakage.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.common.errors import EstimationError, ValidationError
from repro.common.rng import RngStream
from repro.core import ExecutionHistory, ModelCache
from repro.ires.modelling import DreamStrategy
from repro.serving import EstimationService

from tests.helpers import FEATURES, METRICS, observation_stream


def make_service(**kwargs) -> EstimationService:
    strategy = kwargs.pop(
        "strategy", DreamStrategy(r2_required=0.8, max_window=20)
    )
    return EstimationService(strategy=strategy, **kwargs)


def feed(service: EstimationService, key: str, ticks: int, seed: int = 17) -> None:
    for tick, features, costs in observation_stream(key, ticks, seed):
        service.record(key, tick, features, costs)


class TestServiceFunctional:
    def test_register_and_duplicate_rejected(self):
        service = make_service()
        service.register("q1", feature_names=FEATURES, metrics=METRICS)
        with pytest.raises(ValidationError):
            service.register("q1", feature_names=FEATURES, metrics=METRICS)
        with pytest.raises(ValidationError):
            service.register("q2")  # neither history nor feature_names
        with pytest.raises(EstimationError, match="no template"):
            service.model("missing")

    def test_snapshot_reused_until_history_moves(self):
        service = make_service()
        service.register("q1", feature_names=FEATURES, metrics=METRICS)
        feed(service, "q1", 12)
        first = service.model("q1")
        assert service.model("q1") is first  # same version -> same snapshot
        tick, features, costs = observation_stream("q1", 13)[-1]
        service.record("q1", tick + 1, features, costs)
        assert service.is_stale("q1")
        second = service.model("q1")
        assert second is not first
        stats = service.stats
        assert stats.fits == 2 and stats.snapshot_hits == 1
        assert stats.observations == 13

    def test_refresh_fits_only_stale_templates(self):
        service = make_service()
        for i in range(4):
            service.register(f"q{i}", feature_names=FEATURES, metrics=METRICS)
            feed(service, f"q{i}", 10, seed=i)
        service.model("q0")  # q0 fresh, q1..q3 stale
        assert service.stale_keys() == ["q1", "q2", "q3"]
        result = service.refresh_batch()
        assert set(result.models) == {"q0", "q1", "q2", "q3"}
        assert result.fitted == ("q1", "q2", "q3")
        assert service.stale_keys() == []
        stats = service.stats
        assert stats.batch_refreshes == 1 and stats.batch_fits == 3
        assert stats.fits == 4  # q0 once + three group fits
        assert stats.snapshot_hits == 1  # q0, fresh inside the group

    def test_group_and_single_template_fits_agree(self):
        streams = {f"q{i}": 14 + i for i in range(6)}
        results = {}
        for grouped in (False, True):
            service = make_service()
            for key, ticks in streams.items():
                service.register(key, feature_names=FEATURES, metrics=METRICS)
                feed(service, key, ticks, seed=len(key))
            if grouped:
                models = service.refresh_batch().models
            else:
                models = {key: service.model(key) for key in streams}
            probe = np.array([55.0, 4.0])
            results[grouped] = {
                key: (model.training_size, model.predict(probe))
                for key, model in models.items()
            }
        assert results[False] == results[True]

    def test_unfittable_template_does_not_poison_the_burst(self):
        """A tenant with too little history comes back as a typed error
        from refresh_batch(); healthy tenants still get their models."""
        service = make_service()
        service.register("healthy", feature_names=FEATURES, metrics=METRICS)
        service.register("empty", feature_names=FEATURES, metrics=METRICS)
        service.register("short", feature_names=FEATURES, metrics=METRICS)
        feed(service, "healthy", 12)
        feed(service, "short", 2)  # below the minimum window L + 2
        for _ in range(2):
            result = service.refresh_batch()
            assert set(result.models) == {"healthy"}
            assert set(result.errors) == {"empty", "short"}
            assert all(
                type(error) is EstimationError for error in result.errors.values()
            )
        # The unfittable tenants still raise loudly when asked directly.
        with pytest.raises(EstimationError):
            service.model("empty")

    def test_estimate_batch_matches_per_row(self):
        service = make_service()
        service.register("q1", feature_names=FEATURES, metrics=METRICS)
        feed(service, "q1", 20)
        matrix = RngStream(3, "probe").uniform(5.0, 120.0, size=(16, 2))
        batched = service.estimate_batch("q1", matrix)
        for i, row in enumerate(matrix):
            per_row = service.estimate("q1", row)
            for metric, value in per_row.items():
                assert batched[metric][i] == pytest.approx(value, rel=1e-12)

    def test_engine_cache_stats_surface_through_service(self):
        service = make_service()
        service.register("q1", feature_names=FEATURES, metrics=METRICS)
        feed(service, "q1", 10)
        service.model("q1")
        stats = service.stats
        assert stats.engine_cache is not None
        assert stats.engine_cache.misses == 1


class TestServiceOracleEquivalence:
    def test_service_models_match_batch_oracle(self):
        """Acceptance: the serving path (incremental engines, snapshot
        cache, group refresh) chooses the same windows and predicts within
        1e-6 of the batch DREAM oracle on the paper drift scenario."""
        from repro.core import DreamEstimator

        service = make_service()
        oracle = DreamEstimator(r2_required=0.8, max_window=20)
        keys = [f"q{i}" for i in range(5)]
        for i, key in enumerate(keys):
            service.register(key, feature_names=FEATURES, metrics=METRICS)
            feed(service, key, 30 + i, seed=100 + i)
        models = service.refresh_batch().models
        probe = np.array([55.0, 4.0])
        for key in keys:
            reference = oracle.fit(service.history(key).datasets())
            assert models[key].training_size == reference.window_size
            expected = reference.predict(probe)
            actual = models[key].predict(probe)
            for metric in expected:
                assert actual[metric] == pytest.approx(
                    expected[metric], rel=1e-6, abs=1e-9
                )


@pytest.mark.slow
class TestServiceConcurrencyStress:
    """Hammer the service from many threads; compare to sequential replay."""

    TEMPLATES = 8
    TICKS = 40
    ESTIMATE_EVERY = 3  # estimate after every 3rd tick
    WARMUP = 6  # minimum window before the first estimate

    def _script(self, key: str):
        """The deterministic op sequence one tenant thread executes."""
        stream = observation_stream(key, self.TICKS, seed=31)
        probe_rng = RngStream(41, "probe", key)
        ops = []
        for i, (tick, features, costs) in enumerate(stream):
            ops.append(("tick", (tick, features, costs)))
            if i >= self.WARMUP and i % self.ESTIMATE_EVERY == 0:
                probe = probe_rng.uniform(10.0, 100.0, size=2)
                ops.append(("estimate", probe))
        return ops

    def _run_script(self, service, key, ops, barrier=None):
        if barrier is not None:
            barrier.wait()
        outputs = []
        for op, payload in ops:
            if op == "tick":
                tick, features, costs = payload
                service.record(key, tick, features, costs)
            else:
                outputs.append(service.estimate(key, payload))
        return outputs

    def _sequential_reference(self, keys):
        reference = {}
        for key in keys:
            service = make_service()
            service.register(key, feature_names=FEATURES, metrics=METRICS)
            reference[key] = self._run_script(service, key, self._script(key))
        return reference

    def test_interleaved_tenants_match_sequential_replay(self):
        """One thread per tenant, all interleaving on one shared service
        (shared strategy, shared engine cache): every tenant's estimate
        trace must be bitwise-identical to replaying that tenant alone
        on a private service — any cross-template state leakage or torn
        window would perturb some trace."""
        keys = [f"q{i}" for i in range(self.TEMPLATES)]
        reference = self._sequential_reference(keys)

        for round_index in range(3):  # repeat: interleavings vary
            service = make_service()
            barrier = threading.Barrier(len(keys))
            with ThreadPoolExecutor(max_workers=len(keys)) as pool:
                futures = {}
                for key in keys:
                    service.register(key, feature_names=FEATURES, metrics=METRICS)
                    futures[key] = pool.submit(
                        self._run_script, service, key, self._script(key), barrier
                    )
                outputs = {key: future.result() for key, future in futures.items()}
            for key in keys:
                assert len(outputs[key]) == len(reference[key])
                for got, want in zip(outputs[key], reference[key]):
                    assert got == want, f"{key} diverged in round {round_index}"

    def test_concurrent_registration_and_bursts(self):
        """register/tick/refresh interleaved from many threads: exactly
        one registration per key wins, bursts never crash, and the final
        models equal a sequential replay of the surviving histories."""
        service = make_service(
            strategy=DreamStrategy(
                r2_required=0.8, max_window=20, engine_cache=ModelCache(capacity=4)
            )
        )
        keys = [f"q{i}" for i in range(self.TEMPLATES)]
        registered_twice = []

        def tenant(key):
            try:
                service.register(key, feature_names=FEATURES, metrics=METRICS)
            except ValidationError:
                registered_twice.append(key)
            for index, (_, features, costs) in enumerate(
                observation_stream(key, self.TICKS, seed=7)
            ):
                # Both racing tenants log at tick 0 (equal ticks are
                # legal): a per-thread increasing tick would violate the
                # history's monotonic-tick invariant once the threads
                # interleave, which is not what this test is probing.
                service.record(key, 0, features, costs)
                if index % 5 == 0 and index >= self.WARMUP:
                    service.model(key)

        def refresher():
            for _ in range(10):
                service.refresh_batch()

        threads = [
            threading.Thread(target=tenant, args=(key,))
            for key in keys
            for _ in range(2)  # two racing registrations per key
        ] + [threading.Thread(target=refresher) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert sorted(registered_twice) == sorted(keys)  # one loser per key
        assert service.keys() == sorted(keys)
        probe = np.array([55.0, 4.0])
        final = service.refresh_batch().models
        for key in keys:
            history = service.history(key)
            # Both racing tenants appended the same deterministic stream,
            # so the history holds it twice, interleaved; a sequential
            # replay of the *same observations* must give the same model.
            replay = ExecutionHistory(FEATURES, METRICS)
            for obs in history.observations:
                replay.append(obs.tick, obs.features, obs.costs)
            solo = make_service()
            solo.register(key, history=replay)
            expected = solo.estimate(key, probe)
            actual = final[key].predict(probe)
            for metric in expected:
                assert actual[metric] == pytest.approx(expected[metric], rel=1e-12)

    def test_estimates_never_observe_torn_windows(self):
        """Readers hammer estimate() while a writer ticks the same
        template: every returned prediction must be finite and every
        internal fit must see a consistent window (no exceptions)."""
        service = make_service()
        service.register("hot", feature_names=FEATURES, metrics=METRICS)
        feed(service, "hot", self.WARMUP + 1)
        stop = threading.Event()
        failures = []

        def reader():
            probe_rng = RngStream(53, "hot-probe")
            while not stop.is_set():
                try:
                    values = service.estimate(
                        "hot", probe_rng.uniform(10.0, 100.0, size=2)
                    )
                    if not all(np.isfinite(v) for v in values.values()):
                        failures.append(values)
                except Exception as error:  # pragma: no cover - failure path
                    failures.append(error)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for tick, features, costs in observation_stream("hot", 200, seed=67):
                service.record("hot", tick + self.WARMUP + 1, features, costs)
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert not failures
