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

Two implementations share the algebra:

* :class:`MultipleLinearRegression` — the batch fit/predict regressor
  used by the BML pool and kept as DREAM's reference oracle.  Its fit
  runs on a :class:`WindowFactorisation`, the design-only half of the
  solve (normal matrix and solve-or-pinv on a window without a constant
  column, one ``pinv(A)`` on a window with one, and the leverages),
  which DREAM shares across every metric fitted on one window.
* :class:`RecursiveLeastSquares` — an incremental core for Algorithm 1's
  ``m += 1`` loop: the normal matrix ``A^T A`` and moment vector
  ``A^T c`` grow by rank-one updates and the inverse is maintained with
  the Sherman-Morrison identity, so widening the window by one
  observation costs O(L^2) instead of a full O(m L^2) refit.

With ``track_press=True`` the recursive form also maintains the
leave-one-out PRESS statistic incrementally: the per-row leverages and
residuals are carried along through the same rank-one identities, so a
widening step updates PRESS in O(L^2 + m) instead of recomputing the
O(m L^2) hat-matrix pass (see :meth:`RecursiveLeastSquares.update`).
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

    The single source of truth for the PRESS tail (``e_loo = e/(1-h)``,
    leverage clip, SST zero convention, clamp at -1): the batch fit, the
    recursive window form, and the incremental carry all feed their
    residuals/leverages through here, so the 1e-9 batch-equivalence
    contract cannot drift between implementations.  ``sst`` is the
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


class RecursiveLeastSquares:
    """Incremental OLS: rank-one window growth in O(L^2) per observation.

    Maintains the sufficient statistics of the normal equations —
    ``A^T A``, ``A^T c``, ``sum c``, ``sum c^2`` — plus the inverse
    ``(A^T A)^-1`` updated with Sherman-Morrison.  Folding an observation
    in (or out, via :meth:`downdate`) is order-independent, which is what
    DREAM's backwards-growing window needs: the window ``m -> m + 1``
    step adds one *older* observation to the same sufficient statistics.

    The training R^2 comes straight from the maintained scalars (O(L^2));
    the leave-one-out PRESS R^2 needs the window rows themselves (one
    vectorised pass, see :meth:`press_r_squared`).  Both agree with the
    batch :class:`MultipleLinearRegression` to ~1e-10 on well-conditioned
    data; when the normal matrix is singular the inverse falls back to
    the same pseudo-inverse the batch fit uses.
    """

    #: Windows whose normal matrix exceeds this condition number abandon
    #: the rank-one PRESS carry and recompute on the batch oracle's exact
    #: path: the Sherman-Morrison carry loses ~cond * eps digits per
    #: step, and the tracked statistic must match the batch fit to 1e-9.
    PRESS_MAX_CONDITION = 1e6

    def __init__(self, dimension: int, track_press: bool = False):
        if dimension < 1:
            raise EstimationError(f"dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        k = self.dimension + 1  # intercept column
        self._xtx = np.zeros((k, k))
        self._xty = np.zeros(k)
        self._sum_y = 0.0
        self._sum_y2 = 0.0
        self._count = 0
        #: Maintained (A^T A)^-1 (or pseudo-inverse); None means stale.
        self._inverse: np.ndarray | None = None
        self._singular = False
        #: PRESS tracking (opt-in): the window's design rows and targets
        #: in amortised growing buffers, plus per-row leverages/residuals
        #: carried in place by rank-one updates.  ``_press_valid`` False
        #: means the carry is stale — the next query recomputes exactly.
        self._track_press = bool(track_press)
        self._window_used = 0
        self._press_valid = False
        if track_press:
            self._design_buf: np.ndarray | None = np.empty((16, k))
            self._target_buf: np.ndarray | None = np.empty(16)
            self._lev_buf: np.ndarray | None = np.empty(16)
            self._resid_buf: np.ndarray | None = np.empty(16)
        else:
            self._design_buf = None
            self._target_buf = None
            self._lev_buf = None
            self._resid_buf = None

    # State ---------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    def copy(self) -> "RecursiveLeastSquares":
        clone = RecursiveLeastSquares(self.dimension, track_press=self._track_press)
        clone._xtx = self._xtx.copy()
        clone._xty = self._xty.copy()
        clone._sum_y = self._sum_y
        clone._sum_y2 = self._sum_y2
        clone._count = self._count
        clone._inverse = None if self._inverse is None else self._inverse.copy()
        clone._singular = self._singular
        clone._window_used = self._window_used
        clone._press_valid = self._press_valid
        if self._track_press:
            clone._design_buf = self._design_buf.copy()
            clone._target_buf = self._target_buf.copy()
            clone._lev_buf = self._lev_buf.copy()
            clone._resid_buf = self._resid_buf.copy()
        return clone

    def _row(self, features) -> np.ndarray:
        z = np.asarray(features, dtype=float).reshape(-1)
        if z.shape[0] != self.dimension:
            raise EstimationError(
                f"expected {self.dimension} features, got {z.shape[0]}"
            )
        return np.concatenate(([1.0], z))

    # Rank-one updates -----------------------------------------------------

    def update(self, features, target: float) -> None:
        """Fold one observation in: O(L^2) (plus O(m) PRESS carry)."""
        z = self._row(features)
        y = float(target)
        if self._track_press:
            self._window_reserve()
            self._press_fold_in(z, y)
            self._design_buf[self._window_used] = z
            self._target_buf[self._window_used] = y
            self._window_used += 1
        self._xtx += np.outer(z, z)
        self._xty += z * y
        self._sum_y += y
        self._sum_y2 += y * y
        self._count += 1
        if self._inverse is not None and not self._singular:
            pz = self._inverse @ z
            denominator = 1.0 + float(z @ pz)
            if denominator <= 1e-12:  # inverse no longer trustworthy
                self._inverse = None
            else:
                self._inverse -= np.outer(pz, pz) / denominator
                self._inverse = 0.5 * (self._inverse + self._inverse.T)
        else:
            self._inverse = None

    def downdate(self, features, target: float) -> None:
        """Fold one observation out (sliding the window): O(L^2)."""
        if self._count <= 0:
            raise EstimationError("cannot downdate an empty window")
        z = self._row(features)
        y = float(target)
        if self._track_press:
            self._press_fold_out(z, y)
        self._xtx -= np.outer(z, z)
        self._xty -= z * y
        self._sum_y -= y
        self._sum_y2 -= y * y
        self._count -= 1
        if self._inverse is not None and not self._singular:
            pz = self._inverse @ z
            denominator = 1.0 - float(z @ pz)
            if denominator <= 1e-12:  # removal makes the matrix singular
                self._inverse = None
            else:
                self._inverse += np.outer(pz, pz) / denominator
                self._inverse = 0.5 * (self._inverse + self._inverse.T)
        else:
            self._inverse = None

    # Incremental PRESS ----------------------------------------------------

    def _window_reserve(self) -> None:
        """Grow the window buffers (amortised doubling) for one more row."""
        capacity = self._design_buf.shape[0]
        if self._window_used < capacity:
            return
        grown = 2 * capacity
        for name in ("_design_buf", "_target_buf", "_lev_buf", "_resid_buf"):
            old = getattr(self, name)
            new = np.empty((grown,) + old.shape[1:])
            new[:capacity] = old
            setattr(self, name, new)

    def _press_fold_in(self, z: np.ndarray, y: float) -> None:
        """Carry leverages/residuals through the rank-one growth.

        With ``P = (A^T A)^-1`` *before* the new row ``z`` and
        ``s = z P z``, Sherman-Morrison gives for every existing row i::

            h_i' = h_i - (z_i P z)^2 / (1 + s)
            e_i' = e_i - (z_i P z) * (y - z beta) / (1 + s)

        and the new row's own ``h = s - s^2/(1+s)``, ``e = innov/(1+s)``
        (its LOO residual is exactly the prediction innovation).  One
        O(m L) matvec replaces the O(m L^2) hat-matrix pass.  Writes the
        new row's slot ``_window_used`` directly; the caller appends the
        row itself right after.
        """
        if not self._press_valid:
            return  # stale; the next query recomputes
        if not self._press_carry_trustworthy():
            # Never carry through an ill-conditioned step: the error it
            # would bake in (~cond * eps) survives even if conditioning
            # later recovers, and the query-time guard only inspects the
            # *current* window.  Recompute exactly on the next query.
            self._press_valid = False
            return
        pz = self._inverse @ z
        s = float(z @ pz)
        denominator = 1.0 + s
        if denominator <= 1e-12:
            self._press_valid = False
            return
        beta = self._inverse @ self._xty
        innovation = y - float(z @ beta)
        m = self._window_used
        if m:
            g = self._design_buf[:m] @ pz
            self._lev_buf[:m] -= g * g / denominator
            self._resid_buf[:m] -= g * (innovation / denominator)
        self._lev_buf[m] = s - s * s / denominator
        self._resid_buf[m] = innovation / denominator

    def _press_fold_out(self, z: np.ndarray, y: float) -> None:
        """Drop the tracked row matching (z, y); the carry goes stale.

        Sliding windows are not on DREAM's widening hot path, so the
        downdate simply invalidates the carried vectors — the next PRESS
        query recomputes them exactly.
        """
        m = self._window_used
        for i in range(m):
            if self._target_buf[i] == y and np.array_equal(self._design_buf[i], z):
                self._design_buf[i : m - 1] = self._design_buf[i + 1 : m]
                self._target_buf[i : m - 1] = self._target_buf[i + 1 : m]
                self._window_used = m - 1
                self._press_valid = False
                return
        raise EstimationError(
            "downdate observation was never folded into the tracked window"
        )

    def _press_recompute(self) -> None:
        """Exact leverages/residuals on the batch oracle's code path.

        Runs the batch fit's own :class:`WindowFactorisation` on the
        tracked rows, so the tracked statistic matches the batch fit
        bitwise whenever the rank-one carry is unavailable — including
        rank-deficient windows.
        """
        m = self._window_used
        window = WindowFactorisation(self._design_buf[:m])
        targets = self._target_buf[:m]
        self._resid_buf[:m] = targets - window.design @ window.coefficients(targets)
        self._lev_buf[:m] = window.leverages
        self._press_valid = True

    def _press_carry_trustworthy(self) -> bool:
        """Cheap conditioning guard for the carried vectors.

        Uses the Frobenius estimate ``||A||_F * ||A^-1||_F``, an upper
        bound on the 2-norm condition number, so a pass guarantees the
        window really is well-conditioned; the estimate costs O(L^2)
        instead of the O(L^3) SVD of ``numpy.linalg.cond``.
        """
        self._refresh_inverse()
        if self._singular:
            return False
        estimate = np.linalg.norm(self._xtx) * np.linalg.norm(self._inverse)
        return bool(np.isfinite(estimate) and estimate <= self.PRESS_MAX_CONDITION)

    def press_r_squared_tracked(self) -> float:
        """Leave-one-out R^2 of the tracked window (incremental).

        Requires ``track_press=True``.  Uses the carried leverages and
        residuals when the window is well-conditioned enough for them to
        hold 1e-9 agreement with the batch fit; otherwise recomputes them
        on the oracle's exact path (and the carry resumes from there).
        """
        if not self._track_press:
            raise EstimationError("construct with track_press=True to track PRESS")
        if self._count == 0:
            raise EstimationError("no observations folded in yet")
        if not self._press_valid or not self._press_carry_trustworthy():
            self._press_recompute()
        m = self._window_used
        return press_r_squared_from(
            self._resid_buf[:m], self._lev_buf[:m], self._target_buf[:m]
        )

    # Derived quantities ---------------------------------------------------

    def well_conditioned(self, max_condition: float = 1e8) -> bool:
        """Whether the normal matrix supports the fast inverse path.

        Rank-deficient windows (duplicated rows, constant features) lose
        ~cond^2 significant digits through the normal equations, so the
        incremental solution can diverge from the batch oracle there —
        callers should refit that window with the batch path instead.  A
        False result also marks the maintained inverse stale, forcing a
        fresh factorisation once the window is well-conditioned again.

        A window with a constant feature column always reads False: that
        column is a multiple of the intercept, so the normal matrix is
        singular up to rounding and its condition number is at least
        about ``1 / (count * (dimension + 1) * eps)``, above the default
        ``max_condition`` for any window of fewer than ~10^6 rows.  DREAM
        relies on this to skip the SVD on such windows.
        """
        if self._count == 0:
            return False
        condition = np.linalg.cond(self._xtx)
        if not np.isfinite(condition) or condition > max_condition:
            self._inverse = None
            return False
        return True

    def _refresh_inverse(self) -> np.ndarray:
        if self._inverse is None or self._singular:
            try:
                self._inverse = np.linalg.inv(self._xtx)
                self._singular = False
            except np.linalg.LinAlgError:
                self._inverse = np.linalg.pinv(self._xtx)
                self._singular = True
            self._inverse = 0.5 * (self._inverse + self._inverse.T)
        return self._inverse

    @property
    def coefficients(self) -> np.ndarray:
        """OLS coefficients (intercept first), Eq. 12 on the window."""
        if self._count == 0:
            raise EstimationError("no observations folded in yet")
        return self._refresh_inverse() @ self._xty

    @property
    def r_squared(self) -> float:
        """Training R^2 (Eq. 14) from the maintained scalars alone."""
        beta = self.coefficients
        sse = self._sum_y2 - 2.0 * float(beta @ self._xty) + float(
            beta @ self._xtx @ beta
        )
        sse = max(sse, 0.0)
        sst = max(self._sum_y2 - self._sum_y**2 / self._count, 0.0)
        if sst <= 1e-12 * max(1.0, self._sum_y2):
            return 1.0 if sse <= 1e-12 * max(1.0, self._sum_y2) else 0.0
        return 1.0 - sse / sst

    def leverages(self, features: np.ndarray) -> np.ndarray:
        """Hat-matrix diagonal of the given window rows under this fit."""
        design = np.hstack(
            [np.ones((features.shape[0], 1)), np.asarray(features, dtype=float)]
        )
        inverse = self._refresh_inverse()
        return np.einsum("ij,jk,ik->i", design, inverse, design)

    def press_r_squared(self, features: np.ndarray, targets: np.ndarray) -> float:
        """Leave-one-out R^2 over the window rows (one vectorised pass).

        Same closed form as the batch fit (``e_loo = e / (1 - h_ii)``)
        but using the maintained inverse, so no new factorisation.
        """
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        design = np.hstack([np.ones((features.shape[0], 1)), features])
        fitted = design @ self.coefficients
        residuals = targets - fitted
        inverse = self._refresh_inverse()
        leverages = np.einsum("ij,jk,ik->i", design, inverse, design)
        return press_r_squared_from(residuals, leverages, targets)

    def as_model(self, press_r_squared: float | None = None) -> MultipleLinearRegression:
        """Snapshot the current window fit as a fitted batch model."""
        model = MultipleLinearRegression()
        model.coefficients_ = self.coefficients.copy()
        model.r_squared_ = self.r_squared
        model.press_r_squared_ = press_r_squared
        model._dimension = self.dimension
        model._fitted = True
        return model
