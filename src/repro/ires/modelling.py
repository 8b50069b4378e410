"""IReS Modelling module with DREAM plugged in (Figure 1 / Figure 2).

Stock IReS trains several learners on the full (or windowed) history and
keeps the best — the :class:`BmlStrategy`.  The paper replaces this with
:class:`DreamStrategy`: per-metric MLR over a dynamically grown recent
window (Figure 2: training set -> DREAM (R^2) -> new training set ->
Modelling).

Both strategies produce a :class:`FittedCostModel` so the optimizer does
not care which estimator is active.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import EstimationError
from repro.core.cache import ModelCache
from repro.core.cost_model import MultiCostModel
from repro.core.dream import DreamEstimator, DreamResult, OnlineDreamEstimator
from repro.core.history import ExecutionHistory
from repro.ml.base import Regressor
from repro.ml.selection import BestModelSelector, ObservationWindow


@dataclass(frozen=True)
class FittedCostModel:
    """A cost model plus provenance of how it was fitted."""

    model: MultiCostModel
    strategy: str
    #: Observations actually used for training (per the strategy).
    training_size: int
    #: DREAM only: achieved per-metric R^2.
    r_squared: dict[str, float] = field(default_factory=dict)
    #: BML only: winning algorithm per metric.
    winners: dict[str, str] = field(default_factory=dict)

    def predict(self, features) -> dict[str, float]:
        return self.model.predict(features)

    def predict_batch(self, features_matrix) -> dict[str, np.ndarray]:
        """Cost a whole candidate set in one vectorised call per metric."""
        return self.model.predict_batch(features_matrix)


class EstimationStrategy(ABC):
    """How the Modelling module turns history into a cost model."""

    name: str = "abstract"

    @abstractmethod
    def fit(self, history: ExecutionHistory) -> FittedCostModel:
        """Fit on (a window of) ``history``."""


class _ClampedDreamModel(Regressor):
    """Adapter: route predictions through DreamResult's guard band."""

    def __init__(self, result: DreamResult, metric: str):
        super().__init__()
        self.name = f"dream-mlr[{metric}]"
        self._result = result
        self._metric = metric
        self._fitted = True
        self._dimension = len(result.feature_names)

    def _fit(self, features, targets):  # pragma: no cover - never retrained
        raise EstimationError("clamped DREAM models are fitted by DreamEstimator")

    def _predict(self, features: np.ndarray) -> np.ndarray:
        # One design-matrix multiplication + vectorised clamp for ALL
        # rows (the old implementation looped Python-side per row).
        return self._result.predict_metric_batch(self._metric, features)


#: Default bound on live per-history DREAM engines.  An evicted engine
#: is rebuilt from the history on its next fit, so this trades one
#: incremental-speedup miss for bounded memory in long-running
#: multi-tenant deployments.
DEFAULT_ENGINE_CAPACITY = 256


class DreamStrategy(EstimationStrategy):
    """DREAM: dynamic-window MLR per metric (Algorithm 1).

    ``incremental=True`` (default) keeps one
    :class:`~repro.core.dream.OnlineDreamEstimator` per registered
    history, so repeated fits between executions are cache hits and each
    searched window is factorised once for every metric.
    ``incremental=False`` falls back to the batch reference estimator on
    every call.

    Engines live in a bounded :class:`~repro.core.cache.ModelCache`
    (LRU + optional idle TTL) instead of a process-lifetime map: a
    long-running federation can register far more templates than are
    hot, and an evicted engine simply refits from its history — same
    window, same predictions — on the next call.  Pass a shared
    ``engine_cache`` to pool the budget across strategies, or rely on
    the per-strategy default (capacity ``DEFAULT_ENGINE_CAPACITY``, no
    TTL).
    """

    name = "dream"

    def __init__(
        self,
        r2_required: float = 0.8,
        max_window: int | None = None,
        incremental: bool = True,
        engine_cache: ModelCache | None = None,
    ):
        self._estimator = DreamEstimator(r2_required, max_window)
        self.incremental = incremental
        self.r2_required = r2_required
        self.max_window = max_window
        self.engine_cache = (
            engine_cache
            if engine_cache is not None
            else ModelCache(capacity=DEFAULT_ENGINE_CAPACITY)
        )

    def _engine_for(self, history: ExecutionHistory) -> OnlineDreamEstimator:
        # Keyed by id() with the history as the anchor: the cache keeps
        # the history alive while the entry lives, and a recycled id can
        # never alias another history's engine.
        return self.engine_cache.get_or_create(
            id(history),
            lambda: OnlineDreamEstimator(self.r2_required, self.max_window),
            anchor=history,
        )

    def fit(self, history: ExecutionHistory) -> FittedCostModel:
        if self.incremental:
            result = self._engine_for(history).fit(history)
        else:
            result = self._estimator.fit(history.datasets())
        models = {
            metric: _ClampedDreamModel(result, metric) for metric in result.models
        }
        model = MultiCostModel(models, history.feature_names)
        return FittedCostModel(
            model=model,
            strategy=self.name,
            training_size=result.window_size,
            r_squared=dict(result.r_squared),
        )


class BmlStrategy(EstimationStrategy):
    """Stock IReS: best-of-pool per metric over an observation window."""

    def __init__(self, window: ObservationWindow | None = None):
        self.window = window if window is not None else ObservationWindow(None)
        self.name = self.window.label()

    def fit(self, history: ExecutionHistory) -> FittedCostModel:
        models = {}
        winners = {}
        training_size = 0
        for metric in history.metric_names:
            data = self.window.apply(history.dataset(metric))
            if data.size == 0:
                raise EstimationError(f"empty training window for metric {metric!r}")
            selector = BestModelSelector()
            best = selector.fit(data)
            models[metric] = best
            winners[metric] = selector.best_name
            training_size = data.size
        return FittedCostModel(
            model=MultiCostModel(models, history.feature_names),
            strategy=self.name,
            training_size=training_size,
            winners=winners,
        )


class Modelling:
    """The Modelling box of Figure 1: strategy + per-query histories."""

    def __init__(self, strategy: EstimationStrategy):
        self.strategy = strategy
        self._histories: dict[str, ExecutionHistory] = {}

    def register(self, query_key: str, history: ExecutionHistory) -> None:
        self._histories[query_key] = history

    def deregister(self, query_key: str) -> None:
        """Drop a query's history if present (shard migration moves the
        replica elsewhere; unknown keys are a no-op by design)."""
        self._histories.pop(query_key, None)

    def __contains__(self, query_key: str) -> bool:
        return query_key in self._histories

    def __len__(self) -> int:
        return len(self._histories)

    def history(self, query_key: str) -> ExecutionHistory:
        try:
            return self._histories[query_key]
        except KeyError:
            known = ", ".join(sorted(self._histories)) or "<none>"
            raise EstimationError(
                f"no history registered for query {query_key!r}; have: {known}"
            ) from None

    def fit(self, query_key: str) -> FittedCostModel:
        return self.strategy.fit(self.history(query_key))
