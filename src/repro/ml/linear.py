"""Multiple Linear Regression, the foundation of DREAM (paper §2.5).

Solves ``B = (A^T A)^-1 A^T C`` (paper Eq. 12) for the design matrix with
an intercept column (Eq. 8).  A pseudo-inverse is used when the normal
matrix is singular, which returns the minimum-norm solution instead of
failing.  A window with a constant feature column (a multiple of the
intercept) is always singular, so it goes straight to one SVD,
``pinv(A)``: the normal equations are never formed there.  ``solve``
would not reliably raise on them — for a constant that is not a small
integer it returns coefficients of order 1e16 that cancel only inside
the window — and the minimum-norm fit is the one Eq. 12 promises.

:class:`MultipleLinearRegression` is the batch fit/predict regressor used
by the BML pool and by DREAM.  Its fit runs on a
:class:`WindowFactorisation`, the design-only half of the solve (normal
matrix and solve-or-pinv on a window without a constant column, one
``pinv(A)`` on a window with one, and the leverages), which DREAM's
window search shares across every metric fitted on one window.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import EstimationError
from repro.ml.base import Regressor
from repro.ml.metrics import r_squared_from, total_sum_of_squares


def press_r_squared_from(
    residuals: np.ndarray,
    leverages: np.ndarray,
    targets: np.ndarray,
    sst: float | None = None,
) -> float:
    """Leave-one-out R^2 = 1 - PRESS/SST from per-row components.

    The PRESS tail of every least-squares fit (``e_loo = e/(1-h)``,
    leverage clip, SST zero convention, clamp at -1).  ``sst`` is the
    targets' :func:`~repro.ml.metrics.total_sum_of_squares`, for a
    caller that already computed it.

    Leverage ~1 means the point is interpolated: its LOO residual
    diverges, which correctly reads as "no predictive evidence".
    """
    loo = residuals / np.maximum(1.0 - leverages, 1e-6)
    press = float(np.add.reduce(loo * loo, axis=None))
    if sst is None:
        sst = total_sum_of_squares(targets)
    if sst == 0.0:
        return 1.0 if press == 0.0 else -1.0
    return max(-1.0, 1.0 - press / sst)


def minimum_observations(dimension: int) -> int:
    """The smallest usable training set: M = L + 2 (paper §3, [27]).

    One more than the L+1 unknown coefficients, so at least one residual
    degree of freedom exists.
    """
    return dimension + 2


class WindowFactorisation:
    """The design-only half of an OLS fit, shared by every target on it.

    For one design matrix (intercept column first) this holds what the
    fit needs besides the targets.  On a window without a constant
    feature column that is the normal matrix ``A^T A``, whether
    ``numpy.linalg.solve`` raises on it (which depends on the matrix
    alone), ``pinv(A)`` once it has, and the hat-matrix diagonal from
    ``pinv(A^T A)``, each computed on first use.  On a window with a
    constant column it is one ``pinv(A)``: the minimum-norm coefficients
    are ``pinv(A) @ c`` and the leverages are the diagonal of
    ``A pinv(A)``, so neither the normal matrix, nor a ``solve``, nor a
    second SVD is run.  Fitting any number of targets on one
    factorisation gives, per target, bitwise the coefficients and scores
    of a separate fit, with one factorisation per window.

    ``constant_column`` says whether some feature column is constant
    (min == max over the window); ``None`` computes it from ``design``.
    """

    def __init__(self, design: np.ndarray, constant_column: bool | None = None):
        self.design = design
        self.normal: np.ndarray | None = None
        self._pinv_design: np.ndarray | None = None
        self._leverages: np.ndarray | None = None
        if constant_column is None:
            features = design[:, 1:]
            constant_column = bool(np.any(features.min(axis=0) == features.max(axis=0)))
        if constant_column:
            self._pinv_design = np.linalg.pinv(design)
            self._leverages = np.einsum("ij,ji->i", design, self._pinv_design)
        else:
            self.normal = design.T @ design

    def coefficients(self, targets: np.ndarray) -> np.ndarray:
        """Eq. 12's solution for ``targets`` (minimum-norm if singular)."""
        if self._pinv_design is None:
            try:
                return np.linalg.solve(self.normal, self.design.T @ targets)
            except np.linalg.LinAlgError:
                self._pinv_design = np.linalg.pinv(self.design)
        return self._pinv_design @ targets

    @property
    def leverages(self) -> np.ndarray:
        """Hat-matrix diagonal ``h_ii`` of every design row."""
        if self._leverages is None:
            self._leverages = np.einsum(
                "ij,jk,ik->i", self.design, np.linalg.pinv(self.normal), self.design
            )
        return self._leverages


class MultipleLinearRegression(Regressor):
    """Ordinary least squares with intercept.

    Besides the training-set ``r_squared_`` (paper Eq. 14), the fit also
    computes ``press_r_squared_``: the *predictive* coefficient of
    determination from leave-one-out residuals, obtained in closed form
    via the hat matrix (``e_loo,i = e_i / (1 - h_ii)``).  Near the
    minimum window ``m = L + 2`` OLS nearly interpolates and the training
    R^2 saturates at 1 regardless of data quality; the PRESS form stays
    honest there, which is what DREAM's stopping rule needs.
    """

    name = "least-squares"

    def __init__(self):
        super().__init__()
        self.coefficients_: np.ndarray | None = None  # (L+1,) incl. intercept
        self.r_squared_: float | None = None
        self.press_r_squared_: float | None = None

    def _design(self, features: np.ndarray) -> np.ndarray:
        return np.hstack([np.ones((features.shape[0], 1)), features])

    def _fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        self._fit_on(WindowFactorisation(self._design(features)), targets)

    def _fit_on(self, window: "WindowFactorisation", targets: np.ndarray) -> None:
        self.coefficients_ = window.coefficients(targets)
        residuals = targets - window.design @ self.coefficients_
        # One SST for both scores: training R^2 (Eq. 14) and PRESS R^2.
        sst = total_sum_of_squares(targets)
        sse = float(np.add.reduce(residuals * residuals))
        self.r_squared_ = r_squared_from(sse, sst)
        self.press_r_squared_ = press_r_squared_from(
            residuals, window.leverages, targets, sst=sst
        )

    @classmethod
    def fit_window(
        cls, window: "WindowFactorisation", targets: np.ndarray
    ) -> "MultipleLinearRegression":
        """A model fitted on ``window``'s design: bitwise what
        ``fit(features, targets)`` returns for the same window rows."""
        model = cls()
        model._dimension = window.design.shape[1] - 1
        model._fit_on(window, np.asarray(targets, dtype=float))
        model._fitted = True
        return model

    def _predict(self, features: np.ndarray) -> np.ndarray:
        return self._design(features) @ self.coefficients_

    @property
    def intercept_(self) -> float:
        if self.coefficients_ is None:
            raise EstimationError("model not fitted")
        return float(self.coefficients_[0])

    @property
    def slopes_(self) -> np.ndarray:
        if self.coefficients_ is None:
            raise EstimationError("model not fitted")
        return self.coefficients_[1:]

    def summary(self, feature_names: tuple[str, ...] | None = None) -> str:
        """Human-readable fitted equation (paper Eq. 6 shape)."""
        if self.coefficients_ is None:
            raise EstimationError("model not fitted")
        terms = [f"{self.intercept_:.4g}"]
        for i, slope in enumerate(self.slopes_):
            name = feature_names[i] if feature_names else f"x{i + 1}"
            terms.append(f"{slope:+.4g}*{name}")
        return "c_hat = " + " ".join(terms) + f"   (R^2 = {self.r_squared_:.4f})"

