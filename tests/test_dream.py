"""Tests for DREAM (Algorithm 1), the BML baseline and the history store."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import EstimationError
from repro.common.rng import RngStream
from repro.core import DreamEstimator, ExecutionHistory, MultiCostModel
from repro.ml import (
    BestModelSelector,
    Dataset,
    MultipleLinearRegression,
    ObservationWindow,
    minimum_observations,
)
from repro.ml.selection import PAPER_WINDOWS


def drifting_history(
    n=80, dimension=2, drift_at=60, slope_shift=4.0, noise=0.05, seed=11
) -> Dataset:
    """Linear data whose coefficients change at ``drift_at`` (regime shift)."""
    rng = RngStream(seed, "drift")
    X = rng.uniform(1, 10, size=(n, dimension))
    y = np.empty(n)
    for i in range(n):
        slope = 2.0 if i < drift_at else 2.0 + slope_shift
        y[i] = 5.0 + slope * X[i].sum() + float(rng.normal(0, noise))
    names = tuple(f"x{j}" for j in range(dimension))
    return Dataset(X, y, names)


class TestHistory:
    def make(self) -> ExecutionHistory:
        return ExecutionHistory(("size_a", "size_b"), ("time", "money"))

    def test_append_and_dataset(self):
        history = self.make()
        history.append(0, {"size_a": 1.0, "size_b": 2.0}, {"time": 10.0, "money": 0.1})
        history.append(1, {"size_a": 2.0, "size_b": 3.0}, {"time": 20.0, "money": 0.2})
        data = history.dataset("time")
        assert data.size == 2
        assert list(data.targets) == [10.0, 20.0]
        assert data.feature_names == ("size_a", "size_b")

    def test_missing_feature_rejected(self):
        history = self.make()
        with pytest.raises(EstimationError, match="missing features"):
            history.append(0, {"size_a": 1.0}, {"time": 1.0, "money": 1.0})

    def test_missing_metric_rejected(self):
        history = self.make()
        with pytest.raises(EstimationError, match="missing metrics"):
            history.append(0, {"size_a": 1.0, "size_b": 1.0}, {"time": 1.0})

    def test_ticks_must_not_decrease(self):
        history = self.make()
        history.append(5, {"size_a": 1.0, "size_b": 1.0}, {"time": 1.0, "money": 1.0})
        with pytest.raises(EstimationError, match="non-decreasing"):
            history.append(4, {"size_a": 1.0, "size_b": 1.0}, {"time": 1.0, "money": 1.0})

    def test_unknown_metric_dataset(self):
        with pytest.raises(EstimationError, match="unknown metric"):
            self.make().dataset("energy")

    def test_datasets_share_features(self):
        history = self.make()
        for t in range(3):
            history.append(t, {"size_a": t, "size_b": t}, {"time": t, "money": t})
        views = history.datasets()
        assert np.array_equal(views["time"].features, views["money"].features)

    def test_datasets_share_one_matrix_object(self):
        """Regression: the matrix is materialised once, not per metric."""
        history = self.make()
        for t in range(4):
            history.append(t, {"size_a": t, "size_b": t}, {"time": t, "money": t})
        views = history.datasets()
        assert views["time"].features is views["money"].features
        assert views["time"].features is history.feature_matrix()
        assert not history.feature_matrix().flags.writeable

    def test_feature_matrix_cache_invalidated_on_append(self):
        history = self.make()
        history.append(0, {"size_a": 1.0, "size_b": 2.0}, {"time": 1.0, "money": 1.0})
        before = history.feature_matrix()
        history.append(1, {"size_a": 3.0, "size_b": 4.0}, {"time": 2.0, "money": 2.0})
        after = history.feature_matrix()
        assert after.shape == (2, 2)
        assert before.shape == (1, 2)

    def test_version_increments_on_append(self):
        history = self.make()
        assert history.version == 0
        history.append(0, {"size_a": 1.0, "size_b": 2.0}, {"time": 1.0, "money": 1.0})
        assert history.version == 1
        observations = history.observations
        assert observations is history.observations  # cached view, no copy
        history.append(1, {"size_a": 1.0, "size_b": 2.0}, {"time": 1.0, "money": 1.0})
        assert history.version == 2
        assert len(history.observations) == 2


class TestDream:
    def test_stops_at_minimum_when_fresh_window_fits(self):
        """Clean linear data: R^2 = 1 at m = L + 2 already."""
        data = drifting_history(n=50, drift_at=50, noise=0.0)  # no drift, no noise
        result = DreamEstimator(r2_required=0.8).fit({"time": data})
        assert result.window_size == minimum_observations(2)
        assert result.converged
        assert result.r_squared["time"] >= 0.99

    def test_grows_until_mmax_on_pure_noise(self):
        rng = RngStream(3, "purenoise")
        data = Dataset(
            rng.uniform(0, 1, size=(30, 2)), rng.uniform(0, 1, size=30), ("a", "b")
        )
        result = DreamEstimator(r2_required=0.999, max_window=12).fit({"time": data})
        assert result.window_size == 12
        assert not result.converged

    def test_window_never_exceeds_history(self):
        data = drifting_history(n=10, noise=5.0)
        result = DreamEstimator(r2_required=0.9999).fit({"time": data})
        assert result.window_size <= 10

    def test_multi_metric_uses_worst_r2(self):
        """The window grows until EVERY metric clears the bar.

        The second metric is unfittable by construction: feature rows are
        duplicated with wildly different targets, so no linear model of
        any window size can explain it.
        """
        clean = drifting_history(n=40, drift_at=40, noise=0.0, seed=1)
        features = np.repeat(clean.features[:20], 2, axis=0)
        conflicting = np.tile([0.0, 100.0], 20)
        unfittable = Dataset(features, conflicting, clean.feature_names)
        clean_features_shared = Dataset(features, features.sum(axis=1), clean.feature_names)
        alone = DreamEstimator(r2_required=0.8, max_window=20).fit(
            {"time": clean_features_shared}
        )
        paired = DreamEstimator(r2_required=0.8, max_window=20).fit(
            {"time": clean_features_shared, "money": unfittable}
        )
        assert alone.converged
        assert paired.window_size >= alone.window_size
        assert not paired.converged
        assert paired.window_size == 20  # grew all the way to Mmax

    def test_per_metric_thresholds(self):
        data = drifting_history(n=40, drift_at=40, noise=0.0)
        estimator = DreamEstimator(r2_required={"time": 0.8})
        assert estimator.fit({"time": data}).converged
        with pytest.raises(EstimationError, match="no R\\^2 requirement"):
            DreamEstimator(r2_required={"money": 0.8}).fit({"time": data})

    def test_requires_l_plus_2_observations(self):
        data = drifting_history(n=3)
        with pytest.raises(EstimationError, match="L \\+ 2"):
            DreamEstimator().fit({"time": data})

    def test_max_window_below_minimum_raises(self):
        """Regression: Mmax below L + 2 used to silently fit a first
        window LARGER than max_window and report it converged."""
        data = drifting_history(n=20, dimension=2)  # minimum window = 4
        estimator = DreamEstimator(r2_required=0.8, max_window=3)
        with pytest.raises(EstimationError, match="max_window=3.*L \\+ 2 = 4"):
            estimator.fit({"time": data})

    def test_converged_metric_is_frozen(self):
        """Regression: a metric that hit its R^2 target must keep that
        model while slower metrics force the window to keep growing."""
        rng = RngStream(17, "freeze")
        n = 12
        # Duplicated feature values so a conflicting metric is unfittable.
        features = np.repeat(np.arange(1.0, n / 2 + 1.0), 2).reshape(n, 1)
        # "fast": garbage before the last 3 rows, exactly linear after.
        fast = np.array(rng.uniform(0, 50, size=n))
        fast[-3:] = 2.0 * features[-3:, 0] + 1.0
        # "slow": conflicting targets on duplicated features — no linear
        # model of any window size fits, so m is dragged up to Mmax.
        slow = np.tile([0.0, 100.0], n // 2)
        datasets = {
            "fast": Dataset(features, fast, ("x",)),
            "slow": Dataset(features, slow, ("x",)),
        }
        result = DreamEstimator(r2_required=0.8, max_window=8).fit(datasets)
        assert result.window_sizes["fast"] == 3  # froze at first convergence
        assert result.window_sizes["slow"] == 8
        assert result.window_size == 8
        assert result.r_squared["fast"] >= 0.8  # did not flip back down
        # The frozen coefficients are the minimum-window fit, not a refit
        # over the final window (which crosses the regime boundary).
        minimum_fit = MultipleLinearRegression().fit(features[-3:], fast[-3:])
        assert np.allclose(
            result.models["fast"].coefficients_, minimum_fit.coefficients_
        )
        # Sanity: refitting "fast" on the final window would NOT clear
        # the bar — without freezing, the converged R^2 would be lost.
        refit = MultipleLinearRegression().fit(features[-8:], fast[-8:])
        assert refit.press_r_squared_ < 0.8

    def test_mismatched_datasets_rejected(self):
        a = drifting_history(n=20)
        b = drifting_history(n=10)
        with pytest.raises(EstimationError, match="share"):
            DreamEstimator().fit({"time": a, "money": b})

    def test_threshold_validation(self):
        from repro.common.errors import ValidationError

        with pytest.raises(ValidationError):
            DreamEstimator(r2_required=1.5)
        with pytest.raises(ValidationError):
            DreamEstimator(r2_required={"time": -0.1})

    def test_predict_returns_all_metrics(self):
        data = drifting_history(n=30, drift_at=30, noise=0.0)
        result = DreamEstimator().fit({"time": data, "money": data})
        prediction = result.predict(np.array([5.0, 5.0]))
        assert set(prediction) == {"time", "money"}

    def test_estimate_cost_values_one_shot(self):
        data = drifting_history(n=30, drift_at=30, noise=0.0)
        values = DreamEstimator().estimate_cost_values({"time": data}, np.array([2.0, 2.0]))
        # True function: 5 + 2 * (x1 + x2) = 13.  x = (2, 2) sits below
        # the training window's feature range, so allow a wider band.
        assert values["time"] == pytest.approx(13.0, rel=0.10)

    def test_adapts_after_regime_shift(self):
        """Post-drift, DREAM's fresh window beats the full-history model."""
        data = drifting_history(n=100, drift_at=70, slope_shift=5.0, noise=0.1)
        x_new = np.array([5.0, 5.0])
        true_value = 5.0 + 7.0 * x_new.sum()  # post-drift slope = 2 + 5
        dream = DreamEstimator(r2_required=0.8).fit({"time": data})
        full = MultipleLinearRegression().fit(data.features, data.targets)
        dream_error = abs(dream.predict(x_new)["time"] - true_value)
        full_error = abs(full.predict_one(x_new) - true_value)
        assert dream_error < full_error

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_window_bounds_invariant(self, seed):
        data = drifting_history(n=30, noise=1.0, seed=seed)
        result = DreamEstimator(r2_required=0.9).fit({"time": data})
        assert minimum_observations(2) <= result.window_size <= 30
        assert all(r <= 1.0 + 1e-9 for r in result.r_squared.values())


class TestBestModelSelector:
    def test_picks_linear_on_linear_data(self):
        data = drifting_history(n=40, drift_at=40, noise=0.0)
        selector = BestModelSelector()
        best = selector.fit(data)
        assert best.name == "least-squares"
        assert selector.best_name == "least-squares"

    def test_training_errors_recorded_for_all(self):
        data = drifting_history(n=30)
        selector = BestModelSelector()
        selector.fit(data)
        assert set(selector.training_errors_) == {
            "least-squares",
            "bagging",
            "multilayer-perceptron",
        }

    def test_windows_label(self):
        labels = [w.label() for w in PAPER_WINDOWS]
        assert labels == ["BML_N", "BML_2N", "BML_3N", "BML"]

    def test_window_sizes(self):
        assert ObservationWindow(1).size(4) == 6
        assert ObservationWindow(3).size(4) == 18
        assert ObservationWindow(None).size(4) is None

    def test_window_apply(self):
        data = drifting_history(n=50)
        assert ObservationWindow(1).apply(data).size == minimum_observations(2)
        assert ObservationWindow(None).apply(data).size == 50

    def test_empty_pool_rejected(self):
        with pytest.raises(EstimationError):
            BestModelSelector(pool=[])

    def test_empty_dataset_rejected(self):
        empty = Dataset(np.zeros((0, 2)), np.zeros(0), ("a", "b"))
        with pytest.raises(EstimationError):
            BestModelSelector().fit(empty)


class TestMultiCostModel:
    def make(self) -> MultiCostModel:
        data = drifting_history(n=30, drift_at=30, noise=0.0)
        model = MultipleLinearRegression().fit(data.features, data.targets)
        return MultiCostModel({"time": model}, data.feature_names)

    def test_predict_vector_order(self):
        data = drifting_history(n=30, drift_at=30, noise=0.0)
        time_model = MultipleLinearRegression().fit(data.features, data.targets)
        money_model = MultipleLinearRegression().fit(data.features, data.targets * 0.1)
        multi = MultiCostModel(
            {"time": time_model, "money": money_model}, data.feature_names
        )
        vector = multi.predict_vector(np.array([5.0, 5.0]), ("money", "time"))
        assert vector[1] == pytest.approx(10 * vector[0], rel=1e-6)

    def test_unfitted_model_rejected(self):
        with pytest.raises(EstimationError, match="not fitted"):
            MultiCostModel({"time": MultipleLinearRegression()}, ("a",))

    def test_wrong_feature_count(self):
        multi = self.make()
        with pytest.raises(EstimationError, match="expected 2 features"):
            multi.predict(np.array([1.0]))

    def test_features_dict_to_vector(self):
        multi = self.make()
        vector = multi.features_dict_to_vector({"x0": 1.0, "x1": 2.0})
        assert list(vector) == [1.0, 2.0]
        with pytest.raises(EstimationError, match="missing feature"):
            multi.features_dict_to_vector({"x0": 1.0})


#: Batch and online DREAM over four pure-noise metrics that never reach
#: R^2 = 1, so all four stop at the widest window as stragglers; prints
#: both pickled results, in a fresh interpreter.
STRAGGLER_PICKLES = """
import pickle
from repro.common.rng import RngStream
from repro.core import DreamEstimator, ExecutionHistory, OnlineDreamEstimator

metrics = ("time", "money", "energy", "intermediate")
rng = RngStream(3, "stragglers")
history = ExecutionHistory(("size", "nodes"), metrics)
for tick in range(30):
    history.append(
        tick,
        {"size": float(rng.uniform(1, 10)), "nodes": float(rng.integers(1, 9))},
        {metric: float(rng.normal(0, 1)) for metric in metrics},
    )
batch = DreamEstimator(r2_required=1.0, max_window=12).fit(history.datasets())
online = OnlineDreamEstimator(r2_required=1.0, max_window=12).fit(history)
assert not batch.converged and not online.converged
print(pickle.dumps(batch).hex())
print(pickle.dumps(online).hex())
"""


class TestStragglersOverHashSeeds:
    def test_pickled_results_do_not_depend_on_the_hash_seed(self):
        """Metrics that never converge enter ``window_sizes`` and
        ``target_ranges`` in metric order whatever ``PYTHONHASHSEED`` is:
        inserted in set order, the pickles differed between these seeds."""
        source = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("1", "7"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source)
            run = subprocess.run(
                [sys.executable, "-c", STRAGGLER_PICKLES],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
