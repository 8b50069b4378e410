"""DREAM — Dynamic REgression AlgorithM (paper §3, Algorithm 1).

The estimation problem: predict the cost vector ``c_hat_N(p)`` of a query
plan from system features (data sizes, node counts) using Multiple Linear
Regression, choosing *how much* history to train on dynamically.

Algorithm 1, verbatim mapping::

    function EstimateCostValue(R2_require, X, Mmax):
        for n in 1..N: R2_n <- 0                 # one per cost metric
        m = L + 2                                # minimum training size
        while (any R2_n < R2_require_n) and m < Mmax:
            for each cost function c_n:
                fit c_hat_n on the last m observations   # Eq. 6/12
                R2_n = 1 - SSE/SST                        # Eq. 14
            m = m + 1
        return c_hat_N(p)

Because the window grows *backwards from the most recent observation*,
DREAM stops as soon as a small, fresh window already explains the data —
under drift that is typically near ``N = L + 2``, which is both the
accuracy mechanism (stale points never enter) and the speed mechanism
(each of the thousands of equivalent QEPs in Example 3.1 is estimated
from a tiny design matrix).

Two estimators implement the algorithm; both fit a window the same way:

* :class:`DreamEstimator` — the batch reference: every window size of
  every metric is factorised from scratch.  Kept as the oracle the
  incremental engine is verified against.
* :class:`OnlineDreamEstimator` — the production hot path.  It binds to
  one :class:`~repro.core.history.ExecutionHistory` and keys its state
  on ``history.version``: consecutive optimizer calls between executions
  reuse the cached fit outright, and a version bump folds only the *new*
  observations into flat row buffers before the window search.

Every window of the online search is scored exactly as the batch oracle
scores it.  The design-only part of the fit
(:class:`~repro.ml.linear.WindowFactorisation`) is computed once per
window and shared by every metric still pending at that window; each
window is a row slice of one intercept-augmented design built per search
for the widest window.  The search keeps per-column min/max as the
window widens (as it keeps target min/max), so it knows, without a pass
over the window, whether some column is constant.  A constant column is
a multiple of the intercept; such a window is singular and its
factorisation is one SVD with numpy's pinv tail inline, ``pinv(A)``:
the minimum-norm coefficients are ``pinv(A) @ c`` and the leverages are
the diagonal of ``A pinv(A)``.  When the optimizer keeps choosing one
plan, its node and engine columns repeat on every recent row, so this
is the common case.

A window is scored without a model: each pending metric's PRESS R^2
comes from the factorisation through the very operations of the model
fit, and a :class:`~repro.ml.linear.MultipleLinearRegression` is built
only on the window where a metric converges and, for the stragglers, on
the final window — in both estimators, so there is one fit path.
Windows, models and scores are bitwise those of the batch oracle.

Both estimators freeze a metric's model at its first convergence (its
R^2 met the requirement at window ``m``); later widening steps — forced
by slower metrics — neither refit it nor allow its reported R^2 to drop
back below the threshold.

Batched prediction: :meth:`DreamResult.predict_batch` costs an entire
QEP candidate set (Example 3.1: thousands of equivalent plans) with one
design-matrix multiplication and one vectorised guard-band clamp per
metric, replacing per-plan Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import EstimationError
from repro.common.validation import require, require_in_range
from repro.core.history import ExecutionHistory
from repro.ml.dataset import Dataset
from repro.ml.linear import (
    MultipleLinearRegression,
    WindowFactorisation,
    minimum_observations,
)


@dataclass(frozen=True)
class DreamResult:
    """The outcome of one DREAM fit."""

    models: dict[str, MultipleLinearRegression]
    window_size: int
    r_squared: dict[str, float]
    converged: bool
    feature_names: tuple[str, ...]
    #: Per metric: (min, max) of the training window's targets.  Linear
    #: models extrapolate without bound outside the window's feature
    #: hull; predictions are clamped to a guard band around the observed
    #: cost range (costs are physical quantities — they cannot be
    #: negative, nor orders of magnitude outside recent observations).
    target_ranges: dict[str, tuple[float, float]] = None
    #: Allowed extrapolation beyond the observed range (factor).
    guard_factor: float = 2.0
    #: Per-metric training window (a metric freezes at its first
    #: convergence, so windows differ when some metrics converge late).
    #: ``window_size`` is the largest of these.
    window_sizes: dict[str, int] | None = None

    def predict(self, features) -> dict[str, float]:
        """Predicted cost vector ``c_hat_N(p)`` for one feature vector."""
        x = np.asarray(features, dtype=float).reshape(-1)
        return {metric: self._clamped(metric, x) for metric in self.models}

    def predict_metric(self, metric: str, features) -> float:
        if metric not in self.models:
            raise EstimationError(
                f"unknown metric {metric!r}; fitted: {sorted(self.models)}"
            )
        return self._clamped(metric, np.asarray(features, dtype=float).reshape(-1))

    def _band(self, metric: str) -> tuple[float, float] | None:
        if not self.target_ranges or metric not in self.target_ranges:
            return None
        low, high = self.target_ranges[metric]
        lower = low / self.guard_factor if low > 0 else low * self.guard_factor
        upper = high * self.guard_factor if high > 0 else high / self.guard_factor
        return lower, upper

    def _clamped(self, metric: str, x: np.ndarray) -> float:
        raw = self.models[metric].predict_one(x)
        band = self._band(metric)
        if band is None:
            return raw
        lower, upper = band
        return float(min(max(raw, lower), upper))

    def _design_of(self, features_matrix) -> np.ndarray:
        matrix = np.asarray(features_matrix, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.feature_names):
            raise EstimationError(
                f"expected (n, {len(self.feature_names)}) features, "
                f"got shape {matrix.shape}"
            )
        return np.hstack([np.ones((matrix.shape[0], 1)), matrix])

    def _predict_column(self, metric: str, design: np.ndarray) -> np.ndarray:
        raw = design @ self.models[metric].coefficients_
        band = self._band(metric)
        if band is not None:
            np.clip(raw, band[0], band[1], out=raw)
        return raw

    def predict_metric_batch(self, metric: str, features_matrix) -> np.ndarray:
        """One metric's predictions for all rows: one matmul + one clamp."""
        if metric not in self.models:
            raise EstimationError(
                f"unknown metric {metric!r}; fitted: {sorted(self.models)}"
            )
        return self._predict_column(metric, self._design_of(features_matrix))

    def predict_batch(self, features_matrix) -> dict[str, np.ndarray]:
        """Cost all rows at once: one matmul + one clamp per metric.

        ``features_matrix`` is (n, L); the result maps each metric to an
        (n,) prediction vector, identical (to float precision) to calling
        :meth:`predict` row by row — this is the whole-QEP-set hot path.
        """
        design = self._design_of(features_matrix)
        return {
            metric: self._predict_column(metric, design) for metric in self.models
        }


class DreamEstimator:
    """Implements Algorithm 1 over per-metric datasets (batch oracle).

    Parameters
    ----------
    r2_required:
        The quality threshold ``R^2_require``; either one float for every
        metric or a per-metric mapping.  The paper recommends 0.8 (§3).
    max_window:
        ``Mmax``.  ``None`` allows growth up to the full history.

    A window's score is the leave-one-out (PRESS) form of Eq. 14, which
    does not saturate at m = L + 2 where OLS interpolates (see
    :class:`~repro.ml.linear.MultipleLinearRegression`).
    """

    def __init__(
        self,
        r2_required: float | dict[str, float] = 0.8,
        max_window: int | None = None,
    ):
        if isinstance(r2_required, dict):
            for metric, value in r2_required.items():
                require_in_range(value, 0.0, 1.0, f"r2_required[{metric}]")
        else:
            require_in_range(r2_required, 0.0, 1.0, "r2_required")
        self.r2_required = r2_required
        if max_window is not None:
            require(max_window >= 3, f"max_window must be >= 3, got {max_window}")
        self.max_window = max_window

    def _required(self, metric: str) -> float:
        if isinstance(self.r2_required, dict):
            try:
                return self.r2_required[metric]
            except KeyError:
                raise EstimationError(
                    f"no R^2 requirement for metric {metric!r}"
                ) from None
        return self.r2_required

    def _window_bounds(self, dimension: int, total: int) -> tuple[int, int]:
        """Shared Algorithm 1 preamble: (m = L + 2, Mmax), validated.

        ``max_window`` below the statistical minimum is a contract
        violation, not a silent widening: the first window would already
        exceed the user's Mmax.
        """
        m = minimum_observations(dimension)  # m = L + 2
        if total < m:
            raise EstimationError(
                f"DREAM needs at least {m} observations (L + 2), history has {total}"
            )
        if self.max_window is not None and self.max_window < m:
            raise EstimationError(
                f"max_window={self.max_window} is smaller than the minimum "
                f"window L + 2 = {m}; Mmax cannot be honoured"
            )
        m_max = total if self.max_window is None else min(self.max_window, total)
        return m, m_max

    def fit(self, datasets: dict[str, Dataset]) -> DreamResult:
        """Run Algorithm 1 on time-ordered per-metric datasets.

        All datasets must share the feature matrix shape (they come from
        one :class:`~repro.core.history.ExecutionHistory`).
        """
        if not datasets:
            raise EstimationError("DREAM needs at least one cost metric")
        sizes = {data.size for data in datasets.values()}
        dims = {data.dimension for data in datasets.values()}
        names = {data.feature_names for data in datasets.values()}
        if len(sizes) != 1 or len(dims) != 1 or len(names) != 1:
            raise EstimationError("per-metric datasets must share their feature matrix")
        total = sizes.pop()
        dimension = dims.pop()
        m, m_max = self._window_bounds(dimension, total)

        models: dict[str, MultipleLinearRegression] = {}
        r2: dict[str, float] = {metric: 0.0 for metric in datasets}
        window_sizes: dict[str, int] = {}
        ranges: dict[str, tuple[float, float]] = {}
        # A dict, not a set: stragglers are inserted into the result's
        # dicts in metric order, whatever PYTHONHASHSEED is.
        pending = dict.fromkeys(datasets)

        while True:
            windows: dict[str, tuple[WindowFactorisation, Dataset]] = {}
            for metric, data in datasets.items():
                if metric not in pending:
                    continue  # frozen at its first convergence
                window = data.last_window(m)
                shared = WindowFactorisation(
                    np.hstack([np.ones((m, 1)), window.features])
                )
                windows[metric] = shared, window
                r2[metric] = shared.press_r_squared(window.targets)
                if r2[metric] >= self._required(metric):
                    del pending[metric]
                    models[metric] = MultipleLinearRegression.fit_window(
                        shared, window.targets
                    )
                    window_sizes[metric] = m
                    ranges[metric] = (
                        float(window.targets.min()),
                        float(window.targets.max()),
                    )
            converged = not pending
            if converged or m >= m_max:
                for metric in pending:  # stragglers stop at the final m
                    shared, window = windows[metric]
                    models[metric] = MultipleLinearRegression.fit_window(
                        shared, window.targets
                    )
                    window_sizes[metric] = m
                    ranges[metric] = (
                        float(window.targets.min()),
                        float(window.targets.max()),
                    )
                return DreamResult(
                    models={metric: models[metric] for metric in datasets},
                    window_size=m,
                    r_squared=dict(r2),
                    converged=converged,
                    feature_names=next(iter(datasets.values())).feature_names,
                    target_ranges=ranges,
                    window_sizes=window_sizes,
                )
            m += 1

    def estimate_cost_values(
        self, datasets: dict[str, Dataset], features
    ) -> dict[str, float]:
        """Fit-and-predict in one call (the Algorithm 1 signature)."""
        return self.fit(datasets).predict(features)


def _reserve(buffer: np.ndarray, used: int, needed: int) -> np.ndarray:
    """``buffer`` if it holds ``needed`` rows, else a new buffer of at
    least twice its rows holding a copy of its first ``used`` rows."""
    capacity = buffer.shape[0]
    if needed <= capacity:
        return buffer
    grown = np.empty((max(needed, 2 * capacity),) + buffer.shape[1:])
    grown[:used] = buffer[:used]
    return grown


class OnlineDreamEstimator(DreamEstimator):
    """Incremental Algorithm 1 bound to one execution history.

    Bitwise identical to :class:`DreamEstimator` (same windows, same
    models, same scores: every window runs the batch fit), but
    engineered for the optimizer hot path:

    * **Version cache** — ``fit`` is keyed by ``history.version``; any
      number of optimizer calls between executions return the cached
      :class:`DreamResult` without touching the data.
    * **Incremental ingest** — a version bump folds only the
      observations appended since the last call into flat numpy buffers
      (the history is append-only, so earlier rows never change).
    * **One factorisation per window** — each window's design-only fit
      (:class:`~repro.ml.linear.WindowFactorisation`) scores every metric
      still pending at that window, and the window's target and column
      ranges widen by one row per step.

    An estimator instance holds state for exactly one history; passing a
    different history object resets it.
    """

    def __init__(
        self,
        r2_required: float | dict[str, float] = 0.8,
        max_window: int | None = None,
    ):
        super().__init__(r2_required, max_window)
        self.reset()

    def reset(self) -> None:
        self._history: ExecutionHistory | None = None
        self._seen = 0
        #: Row buffers with spare capacity (amortised doubling); the
        #: folded rows are ``_features`` and ``_metric_targets``, views
        #: of their first ``_seen`` rows.
        self._feature_buffer = np.zeros((0, 0))
        self._target_buffers: dict[str, np.ndarray] = {}
        self._features = self._feature_buffer
        self._metric_targets: dict[str, np.ndarray] = {}
        self._cached: tuple[int, DreamResult] | None = None

    # Ingest ---------------------------------------------------------------

    def _fold_new(self, history: ExecutionHistory) -> None:
        """Append only the observations newer than the last fold.

        The new rows are written into the spare capacity of the row
        buffers; a buffer is copied only when it is full, into one of
        twice the size, so a fold costs O(new rows) amortised instead of
        a copy of the whole history.
        """
        start = self._seen
        fresh = history.rows_since(start)
        if not fresh:
            return
        used = start + len(fresh)
        names = history.feature_names
        rows = np.array(
            [[obs.features[name] for name in names] for obs in fresh], dtype=float
        ).reshape(len(fresh), len(names))
        if start == 0:
            self._feature_buffer = np.zeros((0, len(names)))
        self._feature_buffer = _reserve(self._feature_buffer, start, used)
        self._feature_buffer[start:used] = rows
        self._features = self._feature_buffer[:used]
        for metric in history.metric_names:
            buffer = self._target_buffers.get(metric, np.zeros(0))
            buffer = _reserve(buffer, start, used)
            buffer[start:used] = [obs.costs[metric] for obs in fresh]
            self._target_buffers[metric] = buffer
            self._metric_targets[metric] = buffer[:used]
        self._seen = used

    # Fit ------------------------------------------------------------------

    def fit(self, history: ExecutionHistory) -> DreamResult:  # type: ignore[override]
        """Algorithm 1, reusing all state valid for ``history.version``."""
        if self._history is not None and self._history is not history:
            self.reset()
        self._history = history
        version = history.version
        if self._cached is not None and self._cached[0] == version:
            return self._cached[1]
        self._fold_new(history)
        result = self._search(history)
        self._cached = (version, result)
        return result

    def _search(self, history: ExecutionHistory) -> DreamResult:
        metrics = history.metric_names
        total = self._seen
        dimension = len(history.feature_names)
        m, m_max = self._window_bounds(dimension, total)

        X = self._features
        # Per-column range of the window: a column with min == max is
        # constant, so the window is rank-deficient.
        col_min = X[total - m : total].min(axis=0)
        col_max = X[total - m : total].max(axis=0)
        # The intercept-augmented design of the widest window; each
        # window is its last ``m`` rows, a view.
        design = np.empty((m_max, dimension + 1))
        design[:, 0] = 1.0
        design[:, 1:] = X[total - m_max : total]
        mins: dict[str, float] = {}
        maxs: dict[str, float] = {}
        for metric in metrics:
            window = self._metric_targets[metric][total - m : total]
            mins[metric] = float(window.min())
            maxs[metric] = float(window.max())

        models: dict[str, MultipleLinearRegression] = {}
        r2: dict[str, float] = {metric: 0.0 for metric in metrics}
        window_sizes: dict[str, int] = {}
        ranges: dict[str, tuple[float, float]] = {}
        pending = dict.fromkeys(metrics)  # metric order, as in fit()

        while True:
            shared = WindowFactorisation(
                design[m_max - m :], bool((col_min == col_max).any())
            )
            for metric in metrics:
                if metric not in pending:
                    continue
                window_y = self._metric_targets[metric][total - m : total]
                r2[metric] = shared.press_r_squared(window_y)
                if r2[metric] >= self._required(metric):
                    del pending[metric]
                    models[metric] = MultipleLinearRegression.fit_window(
                        shared, window_y
                    )
                    window_sizes[metric] = m
                    ranges[metric] = (mins[metric], maxs[metric])
            converged = not pending
            if converged or m >= m_max:
                for metric in pending:
                    models[metric] = MultipleLinearRegression.fit_window(
                        shared, self._metric_targets[metric][total - m : total]
                    )
                    window_sizes[metric] = m
                    ranges[metric] = (mins[metric], maxs[metric])
                return DreamResult(
                    models={metric: models[metric] for metric in metrics},
                    window_size=m,
                    r_squared=dict(r2),
                    converged=converged,
                    feature_names=history.feature_names,
                    target_ranges=ranges,
                    window_sizes=window_sizes,
                )
            m += 1
            oldest = total - m  # the one older row the wider window adds
            np.minimum(col_min, X[oldest], out=col_min)
            np.maximum(col_max, X[oldest], out=col_max)
            for metric in pending:
                y = float(self._metric_targets[metric][oldest])
                mins[metric] = min(mins[metric], y)
                maxs[metric] = max(maxs[metric], y)

    def estimate_cost_values(  # type: ignore[override]
        self, history: ExecutionHistory, features
    ) -> dict[str, float]:
        """Fit-and-predict in one call (the Algorithm 1 signature)."""
        return self.fit(history).predict(features)
