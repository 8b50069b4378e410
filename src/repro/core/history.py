"""Execution history: the time-ordered observation store.

Every query execution logged by IReS becomes an :class:`Observation`:
a feature vector (the x of the paper's Eq. 5 — data sizes, node counts)
plus one measured value per cost metric.  DREAM and the BML baselines
draw their training windows from here; order is the append order, which
is time order, so "the last m observations" are the freshest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import EstimationError
from repro.ml.dataset import Dataset


@dataclass(frozen=True, slots=True)
class Observation:
    """One logged execution."""

    tick: int
    features: dict[str, float]
    costs: dict[str, float]


class ExecutionHistory:
    """Append-only, time-ordered log of executions for one workload unit.

    The paper keeps per-query-template histories (Tables 3-4 report one
    model per TPC-H query); instantiate one history per template.
    """

    def __init__(self, feature_names: tuple[str, ...], metric_names: tuple[str, ...]):
        if not feature_names:
            raise EstimationError("history needs at least one feature")
        if not metric_names:
            raise EstimationError("history needs at least one metric")
        self.feature_names = tuple(feature_names)
        self.metric_names = tuple(metric_names)
        self._observations: list[Observation] = []
        #: Monotonically increasing change counter, bumped on every
        #: append.  Incremental estimators key their per-metric state on
        #: this, so an unchanged history means a cache hit.
        self._version = 0
        self._observations_view: tuple[Observation, ...] | None = None
        self._matrix_cache: np.ndarray | None = None

    # Mutation ------------------------------------------------------------

    def append(self, tick: int, features: dict[str, float], costs: dict[str, float]) -> None:
        missing_features = set(self.feature_names) - set(features)
        if missing_features:
            raise EstimationError(f"observation missing features {sorted(missing_features)}")
        missing_metrics = set(self.metric_names) - set(costs)
        if missing_metrics:
            raise EstimationError(f"observation missing metrics {sorted(missing_metrics)}")
        if self._observations and tick < self._observations[-1].tick:
            raise EstimationError(
                f"ticks must be non-decreasing: {tick} after {self._observations[-1].tick}"
            )
        self._observations.append(
            Observation(
                tick,
                {name: float(features[name]) for name in self.feature_names},
                {name: float(costs[name]) for name in self.metric_names},
            )
        )
        self._version += 1
        self._observations_view = None
        self._matrix_cache = None

    # Introspection ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._observations)

    @property
    def version(self) -> int:
        """Bumped on every append; equal versions mean identical content."""
        return self._version

    @property
    def observations(self) -> tuple[Observation, ...]:
        """Read-only view, cached until the next append (no per-access copy)."""
        if self._observations_view is None:
            self._observations_view = tuple(self._observations)
        return self._observations_view

    def last_tick(self) -> int:
        if not self._observations:
            raise EstimationError("history is empty")
        return self._observations[-1].tick

    def export_rows(self) -> list[list]:
        """Every observation as a ``[tick, features, costs]`` triple of
        plain JSON-serialisable values.  Feeding the rows back through
        :meth:`append` rebuilds a bitwise-identical history (floats
        survive a JSON round trip exactly), which is what the WAL
        checkpoint in :mod:`repro.federation.durability` relies on."""
        return [
            [obs.tick, dict(obs.features), dict(obs.costs)]
            for obs in self._observations
        ]

    # Dataset views -----------------------------------------------------------

    def feature_matrix(self) -> np.ndarray:
        """The (M, L) feature matrix, cached until the next append.

        The returned array is marked read-only: every per-metric Dataset
        shares it, so mutating it would corrupt all of them.
        """
        if self._matrix_cache is None:
            matrix = np.array(
                [
                    [obs.features[name] for name in self.feature_names]
                    for obs in self._observations
                ],
                dtype=float,
            ).reshape(len(self._observations), len(self.feature_names))
            matrix.flags.writeable = False
            self._matrix_cache = matrix
        return self._matrix_cache

    def targets(self, metric: str) -> np.ndarray:
        """The (M,) target vector of one metric."""
        if metric not in self.metric_names:
            raise EstimationError(
                f"unknown metric {metric!r}; history tracks {self.metric_names}"
            )
        return np.array(
            [obs.costs[metric] for obs in self._observations], dtype=float
        )

    def dataset(self, metric: str) -> Dataset:
        """The full history as a Dataset targeting one metric."""
        return Dataset(self.feature_matrix(), self.targets(metric), self.feature_names)

    def datasets(self) -> dict[str, Dataset]:
        """One Dataset per tracked metric, sharing ONE feature matrix.

        The matrix is materialised once (and cached); each per-metric
        Dataset holds a reference to the same array object.
        """
        features = self.feature_matrix()
        return {
            metric: Dataset(features, self.targets(metric), self.feature_names)
            for metric in self.metric_names
        }

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ExecutionHistory(size={self.size}, features={self.feature_names}, "
            f"metrics={self.metric_names})"
        )
