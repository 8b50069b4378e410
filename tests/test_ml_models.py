"""Tests for the from-scratch learners: OLS, trees, bagging, MLP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import EstimationError
from repro.common.rng import RngStream
from repro.ml import (
    BaggingRegressor,
    Dataset,
    MLPRegressor,
    MultipleLinearRegression,
    RegressionTree,
    minimum_observations,
    total_sum_of_squares,
)
from repro.ml.linear import _loo_denominators, _press_score

#: The paper's Table 2 dataset, digitised verbatim (cost, x1, x2).
PAPER_TABLE2_DATA = [
    (20.640, 0.4916, 0.2977),
    (15.557, 0.6313, 0.0482),
    (20.971, 0.9481, 0.8232),
    (24.878, 0.4855, 2.7056),
    (23.274, 0.0125, 2.7268),
    (30.216, 0.9029, 2.6456),
    (29.978, 0.7233, 3.0640),
    (31.702, 0.8749, 4.2847),
    (20.860, 0.3354, 2.1082),
    (32.836, 0.8521, 4.8217),
]
PAPER_TABLE2_R2 = {4: 0.7571, 5: 0.7705, 6: 0.8371, 7: 0.8788, 8: 0.8876, 9: 0.8751, 10: 0.8945}


def linear_data(n=40, noise=0.0, seed=3):
    rng = RngStream(seed, "lineardata")
    X = rng.uniform(0, 10, size=(n, 2))
    y = 3.0 + 2.0 * X[:, 0] - 1.5 * X[:, 1]
    if noise:
        y = y + rng.normal(0, noise, size=n)
    return X, y


class TestMinimumObservations:
    def test_is_l_plus_2(self):
        assert minimum_observations(4) == 6
        assert minimum_observations(2) == 4


class TestOLS:
    def test_recovers_exact_coefficients(self):
        X, y = linear_data(noise=0.0)
        model = MultipleLinearRegression().fit(X, y)
        assert model.intercept_ == pytest.approx(3.0, abs=1e-8)
        assert model.slopes_[0] == pytest.approx(2.0, abs=1e-8)
        assert model.slopes_[1] == pytest.approx(-1.5, abs=1e-8)
        assert model.r_squared_ == pytest.approx(1.0)

    def test_reproduces_paper_table2_r2_column(self):
        """The R^2 column of the paper's Table 2, to 3 decimal places."""
        X = np.array([[r[1], r[2]] for r in PAPER_TABLE2_DATA])
        y = np.array([r[0] for r in PAPER_TABLE2_DATA])
        for m, expected in PAPER_TABLE2_R2.items():
            model = MultipleLinearRegression().fit(X[:m], y[:m])
            assert model.r_squared_ == pytest.approx(expected, abs=2e-4), m

    def test_residuals_orthogonal_to_design(self):
        """OLS normal equations: X^T (y - y_hat) = 0."""
        X, y = linear_data(noise=2.0)
        model = MultipleLinearRegression().fit(X, y)
        residuals = y - model.predict(X)
        design = np.hstack([np.ones((X.shape[0], 1)), X])
        assert np.allclose(design.T @ residuals, 0.0, atol=1e-6)

    def test_singular_design_uses_pinv(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        model = MultipleLinearRegression().fit(X, y)  # must not raise
        assert np.isfinite(model.predict(np.array([1.0, 2.0])))

    def test_predict_before_fit(self):
        with pytest.raises(EstimationError):
            MultipleLinearRegression().predict([1.0, 2.0])

    def test_wrong_dimension_rejected(self):
        X, y = linear_data()
        model = MultipleLinearRegression().fit(X, y)
        with pytest.raises(EstimationError):
            model.predict([1.0, 2.0, 3.0])

    def test_summary_contains_r2(self):
        X, y = linear_data()
        model = MultipleLinearRegression().fit(X, y)
        assert "R^2" in model.summary(("size_a", "size_b"))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_training_r2_in_unit_interval(self, seed):
        rng = RngStream(seed, "prop")
        X = rng.uniform(0, 1, size=(8, 2))
        y = rng.uniform(0, 1, size=8)
        model = MultipleLinearRegression().fit(X, y)
        assert -1e-9 <= model.r_squared_ <= 1.0 + 1e-9

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_more_features_never_lower_training_r2(self, seed):
        """Adding a column cannot reduce the OLS training fit."""
        rng = RngStream(seed, "prop2")
        X = rng.uniform(0, 1, size=(12, 3))
        y = rng.uniform(0, 1, size=12)
        small = MultipleLinearRegression().fit(X[:, :2], y)
        large = MultipleLinearRegression().fit(X, y)
        assert large.r_squared_ >= small.r_squared_ - 1e-9


#: Constant feature values: non-integers (0.024993896484375 MiB is the
#: size column of ``repro demo --quick``) and one integer.
MIN_NORM_CONSTANTS = (0.1, 1.0 / 3.0, 3.7, 0.024993896484375, 4.0)


class TestMinimumNormFit:
    """A constant column is a multiple of the intercept, so the normal
    matrix is singular and Eq. 12's pseudo-inverse gives the one
    minimum-norm fit.  ``solve`` does not reliably raise there: for a
    non-integer constant it can return coefficients of order 1e16 that
    cancel only at the window's own feature values."""

    @pytest.mark.parametrize("constant", MIN_NORM_CONSTANTS)
    @pytest.mark.parametrize("seed", range(12))
    def test_constant_column_fit_is_the_pinv_fit(self, constant, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(6, 30))
        X = rng.uniform(1.0, 9.0, size=(m, 3))
        X[:, int(rng.integers(0, 3))] = constant
        y = 2.0 + X @ rng.uniform(-2.0, 2.0, size=3) + rng.normal(0.0, 0.5, size=m)
        design = np.hstack([np.ones((m, 1)), X])
        expected = np.linalg.pinv(design) @ y
        model = MultipleLinearRegression().fit(X, y)
        assert np.allclose(model.coefficients_, expected, rtol=1e-9, atol=1e-9)
        # In-window rows, and rows whose constant column takes other values.
        off_window = rng.uniform(-20.0, 20.0, size=(8, 3))
        for probe in (X, off_window):
            reference = np.hstack([np.ones((len(probe), 1)), probe]) @ expected
            assert np.allclose(model.predict(probe), reference, rtol=1e-9, atol=1e-9)


SPECIAL_FLOATS = (0.0, -0.0, np.nan, np.inf, -np.inf, 1e-200, -1e-200, 1e200, -1e200)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL_FLOATS)
)


def bits(value: float) -> bytes:
    return np.float64(value).tobytes()


class TestPlainReductions:
    """SST and PRESS run on ``np.add.reduce``, ``x * x`` and
    ``np.maximum``; they stay byte for byte the ``np.sum``/``mean``/
    ``** 2``/``np.clip`` forms they replaced."""

    @given(st.lists(floats, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_sst_equals_the_wrapper_form(self, values):
        actual = np.array(values, dtype=float)
        with np.errstate(all="ignore"):
            expected = float(np.sum((actual - actual.mean()) ** 2))
            assert bits(total_sum_of_squares(actual)) == bits(expected)

    @given(
        st.lists(st.tuples(floats, floats, floats), min_size=1, max_size=40),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_press_equals_the_wrapper_form(self, rows, pass_sst):
        residuals, leverages, targets = (np.array(c, dtype=float) for c in zip(*rows))
        with np.errstate(all="ignore"):
            denominator = np.clip(1.0 - leverages, 1e-6, None)
            press = float(np.sum((residuals / denominator) ** 2))
            sst = float(np.sum((targets - targets.mean()) ** 2))
            if sst == 0.0:
                expected = 1.0 if press == 0.0 else -1.0
            else:
                expected = max(-1.0, 1.0 - press / sst)
            actual = _press_score(
                residuals,
                _loo_denominators(leverages),
                sst if pass_sst else total_sum_of_squares(targets),
            )
        assert bits(actual) == bits(expected)


class TestRegressionTree:
    def test_fits_step_function(self):
        X = np.array([[i] for i in range(20)], dtype=float)
        y = np.array([0.0] * 10 + [10.0] * 10)
        tree = RegressionTree(max_depth=2).fit(X, y)
        assert tree.predict(np.array([3.0])) == pytest.approx(0.0)
        assert tree.predict(np.array([15.0])) == pytest.approx(10.0)

    def test_depth_zero_is_mean(self):
        X, y = linear_data(n=10)
        tree = RegressionTree(max_depth=0).fit(X, y)
        assert tree.predict(X[0]) == pytest.approx(y.mean())

    def test_respects_max_depth(self):
        X, y = linear_data(n=60, noise=1.0)
        tree = RegressionTree(max_depth=3, min_samples_leaf=1).fit(X, y)
        assert tree.depth() <= 3

    def test_constant_target_single_leaf(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        tree = RegressionTree().fit(X, np.ones(10))
        assert tree.depth() == 0

    def test_deterministic(self):
        X, y = linear_data(n=30, noise=1.0)
        a = RegressionTree().fit(X, y).predict(X)
        b = RegressionTree().fit(X, y).predict(X)
        assert np.array_equal(a, b)


class TestBagging:
    def test_reduces_tree_variance_on_noise(self):
        X, y = linear_data(n=60, noise=4.0, seed=5)
        X_test, y_test = linear_data(n=60, noise=0.0, seed=6)
        tree_error = np.mean(
            (RegressionTree(max_depth=6, min_samples_leaf=1).fit(X, y).predict(X_test) - y_test) ** 2
        )
        bag_error = np.mean(
            (BaggingRegressor(n_estimators=25).fit(X, y).predict(X_test) - y_test) ** 2
        )
        assert bag_error < tree_error

    def test_deterministic_under_seed(self):
        X, y = linear_data(n=30, noise=2.0)
        a = BaggingRegressor(seed=9).fit(X, y).predict(X)
        b = BaggingRegressor(seed=9).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_member_count(self):
        X, y = linear_data(n=20)
        bag = BaggingRegressor(n_estimators=7).fit(X, y)
        assert len(bag.members_) == 7


class TestMLP:
    def test_learns_linear_function(self):
        X, y = linear_data(n=80, noise=0.0)
        model = MLPRegressor(hidden=(16,), epochs=400, seed=1).fit(X, y)
        predictions = model.predict(X)
        relative = np.abs(predictions - y) / (np.abs(y) + 1.0)
        assert float(np.mean(relative)) < 0.1

    def test_deterministic_under_seed(self):
        X, y = linear_data(n=30, noise=1.0)
        a = MLPRegressor(epochs=50, seed=2).fit(X, y).predict(X)
        b = MLPRegressor(epochs=50, seed=2).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_handles_constant_feature(self):
        X = np.hstack([np.ones((20, 1)), np.arange(20, dtype=float).reshape(-1, 1)])
        y = X[:, 1] * 2
        model = MLPRegressor(epochs=100).fit(X, y)  # std=0 column must not crash
        assert np.all(np.isfinite(model.predict(X)))

    def test_two_hidden_layers(self):
        X, y = linear_data(n=40)
        model = MLPRegressor(hidden=(8, 8), epochs=100).fit(X, y)
        assert np.all(np.isfinite(model.predict(X)))


class TestDataset:
    def test_window_takes_most_recent(self):
        data = Dataset(np.arange(10, dtype=float).reshape(-1, 1), np.arange(10, dtype=float), ("x",))
        window = data.last_window(3)
        assert list(window.targets) == [7.0, 8.0, 9.0]

    def test_window_larger_than_data(self):
        data = Dataset(np.ones((2, 1)), np.ones(2), ("x",))
        assert data.last_window(10).size == 2

    def test_split_at(self):
        data = Dataset(np.arange(6, dtype=float).reshape(-1, 1), np.arange(6, dtype=float), ("x",))
        past, future = data.split_at(4)
        assert past.size == 4 and future.size == 2
        assert list(future.targets) == [4.0, 5.0]

    def test_append_preserves_order(self):
        data = Dataset(np.ones((1, 2)), np.array([1.0]), ("a", "b"))
        grown = data.append(np.array([2.0, 2.0]), 5.0)
        assert grown.size == 2
        assert grown.targets[-1] == 5.0

    def test_shape_validation(self):
        with pytest.raises(EstimationError):
            Dataset(np.ones((3, 2)), np.ones(2), ("a", "b"))
        with pytest.raises(EstimationError):
            Dataset(np.ones((3, 2)), np.ones(3), ("a",))

    def test_from_rows(self):
        data = Dataset.from_rows([((1.0, 2.0), 3.0), ((4.0, 5.0), 6.0)], ("a", "b"))
        assert data.size == 2 and data.dimension == 2
