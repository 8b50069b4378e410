"""Evaluation metrics.

``mean_relative_error`` is the paper's Equation (15) — the headline metric
of Tables 3 and 4.  ``r_squared`` is the coefficient of determination of
Equation (14), the quantity DREAM's stopping rule watches.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import EstimationError


def _as_arrays(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape:
        raise EstimationError(
            f"shape mismatch: actual {actual.shape} vs predicted {predicted.shape}"
        )
    if actual.size == 0:
        raise EstimationError("metrics need at least one observation")
    return actual, predicted


def sum_squared_errors(actual, predicted) -> float:
    """SSE = sum (c_m - c_hat_m)^2 (paper Eq. 11)."""
    actual, predicted = _as_arrays(actual, predicted)
    return float(np.sum((actual - predicted) ** 2))


def total_sum_of_squares(actual) -> float:
    """SST = sum (c_m - mean(c))^2.

    Written on ``np.add.reduce`` and ``x * x``: bitwise the
    ``np.sum``/``mean``/``** 2`` form, without the wrapper dispatch (this
    runs once per fitted window).
    """
    actual = np.asarray(actual, dtype=float)
    if actual.size == 0:
        raise EstimationError("SST needs at least one observation")
    deviations = actual - np.add.reduce(actual, axis=None) / actual.size
    return float(np.add.reduce(deviations * deviations, axis=None))


def r_squared(actual, predicted) -> float:
    """Coefficient of determination R^2 = 1 - SSE/SST (paper Eq. 14).

    A constant target (SST = 0) yields 1.0 when predictions are exact and
    0.0 otherwise, matching the usual convention.
    """
    actual, predicted = _as_arrays(actual, predicted)
    return r_squared_from(
        sum_squared_errors(actual, predicted), total_sum_of_squares(actual)
    )


def r_squared_from(sse: float, sst: float) -> float:
    """R^2 from SSE and SST already in hand (same SST = 0 convention)."""
    if sst == 0.0:
        return 1.0 if sse == 0.0 else 0.0
    return 1.0 - sse / sst


def mean_relative_error(actual, predicted) -> float:
    """MRE = (1/M) * sum |c_hat - c| / c (paper Eq. 15).

    Requires strictly positive actual values, as execution times are.
    """
    actual, predicted = _as_arrays(actual, predicted)
    if np.any(actual <= 0):
        raise EstimationError("MRE requires strictly positive actual values")
    return float(np.mean(np.abs(predicted - actual) / actual))


def mean_absolute_error(actual, predicted) -> float:
    actual, predicted = _as_arrays(actual, predicted)
    return float(np.mean(np.abs(predicted - actual)))


def root_mean_squared_error(actual, predicted) -> float:
    actual, predicted = _as_arrays(actual, predicted)
    return float(np.sqrt(np.mean((predicted - actual) ** 2)))
