"""Multiple Linear Regression, the foundation of DREAM (paper §2.5).

Solves ``B = (A^T A)^-1 A^T C`` (paper Eq. 12) for the design matrix with
an intercept column (Eq. 8).  A pseudo-inverse is used when the normal
matrix is singular, which returns the minimum-norm solution instead of
failing.  A window with a constant feature column (a multiple of the
intercept) is always singular, so it goes straight to one SVD and
``pinv(A)``: the normal equations are never formed there.  ``solve``
would not reliably raise on them — for a constant that is not a small
integer it returns coefficients of order 1e16 that cancel only inside
the window — and the minimum-norm fit is the one Eq. 12 promises.

:class:`MultipleLinearRegression` is the batch fit/predict regressor used
by the BML pool and by DREAM.  Its fit runs on a
:class:`WindowFactorisation`, the design-only half of the solve (normal
matrix and solve-or-pinv on a window without a constant column; on a
window with one, ``pinv(A)`` from one ``numpy.linalg.svd`` with numpy's
own pinv tail applied inline, bitwise ``numpy.linalg.pinv``; and the
leverages with their PRESS clip), which DREAM's window search shares
across every metric scored on one window.  A window is scored without
building a model (:meth:`WindowFactorisation.press_r_squared`, the very
operations of the model's fit); DREAM builds a model only on the window
where a metric stops.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import EstimationError
from repro.ml.base import Regressor
from repro.ml.metrics import r_squared_from, total_sum_of_squares


def _loo_denominators(leverages: np.ndarray) -> np.ndarray:
    """``1 - h_ii`` clipped at 1e-6: the leave-one-out residual scale."""
    return np.maximum(1.0 - leverages, 1e-6)


def _press_score(residuals: np.ndarray, denominators: np.ndarray, sst: float) -> float:
    """Leave-one-out R^2 = 1 - PRESS/SST: the PRESS tail of every
    least-squares fit (``e_loo = e / max(1 - h, 1e-6)``, SST zero
    convention, clamp at -1).

    Leverage ~1 means the point is interpolated: its LOO residual
    diverges, which correctly reads as "no predictive evidence".
    """
    loo = residuals / denominators
    press = float(np.add.reduce(loo * loo, axis=None))
    if sst == 0.0:
        return 1.0 if press == 0.0 else -1.0
    return max(-1.0, 1.0 - press / sst)


def minimum_observations(dimension: int) -> int:
    """The smallest usable training set: M = L + 2 (paper §3, [27]).

    One more than the L+1 unknown coefficients, so at least one residual
    degree of freedom exists.
    """
    return dimension + 2


def _pinv(design: np.ndarray) -> np.ndarray:
    """``numpy.linalg.pinv(design)``, bitwise, from one ``numpy.linalg.svd``.

    numpy's own tail at its default ``rcond=1e-15``: singular values at
    or below ``1e-15`` times the largest (``s[0]``; LAPACK returns them
    in descending order) get a zero reciprocal, then ``V diag(1/s) U^T``
    is formed as ``vt.T @ (inv[:, None] * u.T)``.  What is skipped is the
    wrapper around it (rcond/rtol dispatch, empty-matrix and conjugate
    handling of a real matrix).
    """
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    inverse = np.divide(1.0, s, where=s > 1e-15 * s[0], out=np.zeros(len(s)))
    return vt.T @ (inverse[:, None] * u.T)


class WindowFactorisation:
    """The design-only half of an OLS fit, shared by every target on it.

    For one design matrix (intercept column first) this holds what the
    fit needs besides the targets.  On a window without a constant
    feature column that is the normal matrix ``A^T A``, whether
    ``numpy.linalg.solve`` raises on it (which depends on the matrix
    alone), ``pinv(A)`` once it has, and the hat-matrix diagonal from
    ``pinv(A^T A)``, each computed on first use.  On a window with a
    constant column it is one SVD giving ``pinv(A)`` (:func:`_pinv`,
    bitwise ``numpy.linalg.pinv``): the minimum-norm coefficients are
    ``pinv(A) @ c`` and the leverages are the diagonal of ``A pinv(A)``,
    so neither the normal matrix, nor a ``solve``, nor a second SVD is
    run.  The leverages' PRESS clip ``max(1 - h, 1e-6)`` is computed once
    per window.  Fitting or scoring any number of targets on one
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
        self._denominators: np.ndarray | None = None
        if constant_column is None:
            features = design[:, 1:]
            constant_column = bool(np.any(features.min(axis=0) == features.max(axis=0)))
        if constant_column:
            self._pinv_design = _pinv(design)
            self._leverages = np.einsum("ij,ji->i", design, self._pinv_design)
            self._denominators = _loo_denominators(self._leverages)
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

    @property
    def denominators(self) -> np.ndarray:
        """``max(1 - h_ii, 1e-6)``: each row's leave-one-out residual scale."""
        if self._denominators is None:
            self._denominators = _loo_denominators(self.leverages)
        return self._denominators

    def _solution(self, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eq. 12's coefficients for ``targets`` and the window's residuals."""
        coefficients = self.coefficients(targets)
        return coefficients, targets - self.design @ coefficients

    def press_r_squared(self, targets: np.ndarray) -> float:
        """The PRESS R^2 of ``targets`` on this window, without a model:
        bitwise ``MultipleLinearRegression.fit_window(self, targets)
        .press_r_squared_`` (the same operations, minus the SSE, the
        training R^2 and the model object)."""
        _, residuals = self._solution(targets)
        return _press_score(residuals, self.denominators, total_sum_of_squares(targets))


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
        self.coefficients_, residuals = window._solution(targets)
        # One SST for both scores: training R^2 (Eq. 14) and PRESS R^2.
        sst = total_sum_of_squares(targets)
        sse = float(np.add.reduce(residuals * residuals))
        self.r_squared_ = r_squared_from(sse, sst)
        self.press_r_squared_ = _press_score(residuals, window.denominators, sst)

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

