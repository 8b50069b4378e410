"""ModelCache unit tests + DreamStrategy eviction equivalence.

The guarantee: LRU capacity forces a re-fit whose chosen window and
predictions match the never-evicted engine, and the hit/miss/eviction
counters are exact.
"""

import numpy as np
import pytest

from repro.cloud.variability import default_federation_load
from repro.common.errors import ValidationError
from repro.common.rng import RngStream
from repro.core import ExecutionHistory, ModelCache
from repro.ires.modelling import DreamStrategy


def drift_history(ticks: int, seed: int = 5) -> ExecutionHistory:
    rng = RngStream(seed, "cache-drift")
    load = default_federation_load(rng.child("load"))
    history = ExecutionHistory(("size", "nodes"), ("time", "money"))
    for tick in range(ticks):
        size = float(rng.uniform(10, 100))
        nodes = float(rng.integers(2, 9))
        factor = load.factor(tick)
        time = factor * (5 + 0.4 * size / nodes) * (1 + float(rng.normal(0, 0.03)))
        money = factor * (0.01 * size + 0.002 * nodes * time)
        history.append(tick, {"size": size, "nodes": nodes}, {"time": time, "money": money})
    return history


class TestModelCacheUnit:
    def test_lru_capacity_evicts_least_recent(self):
        cache = ModelCache(capacity=2)
        cache.get_or_create("a", lambda: "A")
        cache.get_or_create("b", lambda: "B")
        cache.get_or_create("a", lambda: "A2")  # touch a -> b is now LRU
        cache.get_or_create("c", lambda: "C")  # evicts b
        assert "b" not in cache
        assert cache.peek("a") == "A"
        assert cache.peek("c") == "C"
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (1, 3, 1)
        assert stats.size == 2 and len(cache) == 2

    def test_anchor_mismatch_is_a_replacing_miss(self):
        cache = ModelCache(capacity=4)
        first_anchor, second_anchor = object(), object()
        cache.get_or_create(1, lambda: "first", anchor=first_anchor)
        value = cache.get_or_create(1, lambda: "second", anchor=second_anchor)
        assert value == "second"
        stats = cache.stats
        # The stale entry's removal is an eviction, the lookup a miss.
        assert (stats.hits, stats.misses, stats.evictions) == (0, 2, 1)

    def test_clear_counts_as_evictions(self):
        cache = ModelCache(capacity=4)
        cache.get_or_create("a", lambda: 1)
        cache.get_or_create("b", lambda: 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.evictions == 2

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            ModelCache(capacity=0)


class TestDreamStrategyEviction:
    """Evicted engines must refit to the *identical* model."""

    @staticmethod
    def _probe_predictions(strategy, history):
        fitted = strategy.fit(history)
        probe = np.array([55.0, 4.0])
        return fitted.training_size, fitted.predict(probe)

    def test_lru_eviction_refits_identical_window_and_predictions(self):
        histories = [drift_history(40, seed=s) for s in range(3)]
        never_evicted = DreamStrategy(r2_required=0.8, max_window=20)
        reference = [self._probe_predictions(never_evicted, h) for h in histories]

        # Capacity 1: every alternation between histories evicts.
        tight = DreamStrategy(
            r2_required=0.8, max_window=20, engine_cache=ModelCache(capacity=1)
        )
        for _ in range(2):  # two rounds so evicted engines are re-created
            for history, (window, predictions) in zip(histories, reference):
                size, repredicted = self._probe_predictions(tight, history)
                assert size == window
                for metric, value in predictions.items():
                    assert repredicted[metric] == pytest.approx(value, rel=1e-12)

        stats = tight.engine_cache.stats
        # 6 fits over 3 histories with capacity 1: every lookup misses
        # and all but the final engine were evicted.
        assert (stats.hits, stats.misses, stats.evictions) == (0, 6, 5)
        assert stats.size == 1

    def test_hot_engine_is_reused_between_fits(self):
        history = drift_history(40, seed=2)
        strategy = DreamStrategy(r2_required=0.8, max_window=20)
        strategy.fit(history)
        strategy.fit(history)
        stats = strategy.engine_cache.stats
        assert (stats.hits, stats.misses) == (1, 1)
