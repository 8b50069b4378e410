"""Tests for the incremental DREAM engine.

Three layers of guarantees:

1. :class:`RecursiveLeastSquares` reproduces batch OLS — coefficients,
   training R^2 and PRESS R^2 — to 1e-8 across random windows, through
   both updates and downdates (property test).
2. :class:`OnlineDreamEstimator` chooses the *same window* as the batch
   :class:`DreamEstimator` and predicts within 1e-6 on the
   ``default_federation_load`` drift scenario (equivalence test).
3. The batched prediction path (``DreamResult.predict_batch``,
   ``MultiCostModel.predict_batch``) matches the per-row path exactly.
4. Rank-deficient windows: a constant column never passes the
   conditioning check (so skipping it is safe), the per-window shared
   factorisation is bitwise the batch fit (the minimum-norm fit from one
   ``pinv(A)`` on a constant-column window), and an RLS folded late is
   bitwise one folded eagerly.
5. Ingest: the row buffers grow by doubling and hold bitwise the rows
   a whole-matrix concatenation would.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.variability import default_federation_load
from repro.common.errors import EstimationError
from repro.common.rng import RngStream
from repro.core import DreamEstimator, ExecutionHistory, OnlineDreamEstimator
from repro.ires.modelling import DreamStrategy
from repro.ml import MultipleLinearRegression, RecursiveLeastSquares, r_squared
from repro.ml.linear import WindowFactorisation, press_r_squared_from


def random_regression(seed: int, n: int, dimension: int):
    rng = np.random.default_rng(seed)
    features = rng.uniform(-5.0, 5.0, size=(n, dimension))
    slopes = rng.uniform(-2.0, 2.0, size=dimension)
    targets = 1.5 + features @ slopes + rng.normal(0.0, 0.5, size=n)
    return features, targets


def drift_history(
    ticks: int, seed: int = 5, metrics: tuple[str, ...] = ("time", "money")
) -> ExecutionHistory:
    """A federation-shaped stream under the paper's drift scenario."""
    rng = RngStream(seed, "equivalence")
    load = default_federation_load(rng.child("load"))
    history = ExecutionHistory(("size", "nodes"), metrics)
    for tick in range(ticks):
        size = float(rng.uniform(10, 100))
        nodes = float(rng.integers(2, 9))
        factor = load.factor(tick)
        time = factor * (5 + 0.4 * size / nodes) * (1 + float(rng.normal(0, 0.03)))
        money = factor * (0.01 * size + 0.002 * nodes * time)
        history.append(tick, {"size": size, "nodes": nodes}, {"time": time, "money": money})
    return history


class TestRecursiveLeastSquares:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        dimension=st.integers(min_value=1, max_value=4),
        extra=st.integers(min_value=1, max_value=25),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_batch_across_growing_windows(self, seed, dimension, extra):
        n = dimension + 2 + extra
        features, targets = random_regression(seed, n, dimension)
        rls = RecursiveLeastSquares(dimension)
        for i in range(n):
            rls.update(features[i], targets[i])
            if i + 1 < dimension + 2:
                continue
            window_x, window_y = features[: i + 1], targets[: i + 1]
            batch = MultipleLinearRegression().fit(window_x, window_y)
            assert np.allclose(
                rls.coefficients, batch.coefficients_, rtol=1e-8, atol=1e-8
            )
            assert rls.r_squared == pytest.approx(batch.r_squared_, abs=1e-8)
            assert rls.press_r_squared(window_x, window_y) == pytest.approx(
                batch.press_r_squared_, abs=1e-8
            )

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        dimension=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_downdate_slides_the_window(self, seed, dimension):
        n = dimension + 12
        drop = 4
        features, targets = random_regression(seed, n, dimension)
        rls = RecursiveLeastSquares(dimension)
        for i in range(n):
            rls.update(features[i], targets[i])
        for i in range(drop):
            rls.downdate(features[i], targets[i])
        batch = MultipleLinearRegression().fit(features[drop:], targets[drop:])
        assert rls.count == n - drop
        assert np.allclose(rls.coefficients, batch.coefficients_, rtol=1e-7, atol=1e-7)
        assert rls.r_squared == pytest.approx(batch.r_squared_, abs=1e-7)

    def test_copy_is_independent(self):
        features, targets = random_regression(1, 8, 2)
        rls = RecursiveLeastSquares(2)
        for i in range(6):
            rls.update(features[i], targets[i])
        clone = rls.copy()
        clone.update(features[6], targets[6])
        assert clone.count == rls.count + 1
        assert not np.allclose(clone.coefficients, rls.coefficients)

    def test_dimension_and_empty_guards(self):
        with pytest.raises(EstimationError):
            RecursiveLeastSquares(0)
        rls = RecursiveLeastSquares(2)
        with pytest.raises(EstimationError):
            rls.update([1.0], 2.0)
        with pytest.raises(EstimationError):
            rls.downdate([1.0, 2.0], 3.0)
        with pytest.raises(EstimationError):
            _ = rls.coefficients

    def test_singular_window_matches_batch_pinv(self):
        """A constant feature keeps the normal matrix singular; both
        implementations fall back to the same pseudo-inverse solution."""
        features = np.column_stack([np.ones(6), np.arange(6, dtype=float)])
        targets = 2.0 * np.arange(6, dtype=float) + 1.0
        rls = RecursiveLeastSquares(2)
        for i in range(6):
            rls.update(features[i], targets[i])
        batch = MultipleLinearRegression().fit(features, targets)
        assert np.allclose(
            rls.coefficients @ [1.0, 1.0, 3.0],
            batch.coefficients_ @ [1.0, 1.0, 3.0],
            rtol=1e-8,
        )


class TestOnlineDreamEquivalence:
    def test_same_windows_and_predictions_under_drift(self):
        """Batch and incremental Algorithm 1 agree on every tick of the
        default_federation_load scenario (windows exactly, predictions
        to 1e-6)."""
        history = drift_history(90)
        full = history.observations
        replay = ExecutionHistory(history.feature_names, history.metric_names)
        batch = DreamEstimator(r2_required=0.8, max_window=30)
        online = OnlineDreamEstimator(r2_required=0.8, max_window=30)
        probe = np.array([55.0, 4.0])
        checked = 0
        for obs in full:
            replay.append(obs.tick, obs.features, obs.costs)
            if replay.size < 6:
                continue
            reference = batch.fit(replay.datasets())
            incremental = online.fit(replay)
            assert incremental.window_size == reference.window_size
            assert incremental.window_sizes == reference.window_sizes
            assert incremental.converged == reference.converged
            for metric in reference.models:
                expected = reference.predict_metric(metric, probe)
                actual = incremental.predict_metric(metric, probe)
                assert actual == pytest.approx(expected, rel=1e-6, abs=1e-9)
            checked += 1
        assert checked > 50

    def test_rank_deficient_windows_match_batch(self):
        """Regression: near-constant indicator features make early
        windows rank-deficient; the incremental engine must fall back to
        the oracle's exact path there rather than diverge (this bit the
        MIDAS medical workload: money R^2 read -1.0 instead of 0.99)."""
        rng = RngStream(11, "rankdef")
        metrics = ("time", "money")
        history = ExecutionHistory(("size", "nodes", "indicator"), metrics)
        for tick in range(40):
            size = float(rng.uniform(10, 100))
            nodes = float(rng.integers(1, 4))
            indicator = 1.0 if rng.random() < 0.1 else 0.0  # mostly constant
            time = 3.0 + 0.5 * size / nodes + 10.0 * indicator
            money = 0.01 * size + 0.001 * nodes  # exactly linear
            history.append(
                tick,
                {"size": size, "nodes": nodes, "indicator": indicator},
                {"time": time, "money": money},
            )
        replay = ExecutionHistory(history.feature_names, metrics)
        batch = DreamEstimator(r2_required=0.8, max_window=20)
        online = OnlineDreamEstimator(r2_required=0.8, max_window=20)
        probe = np.array([50.0, 2.0, 0.0])
        for obs in history.observations:
            replay.append(obs.tick, obs.features, obs.costs)
            if replay.size < 5:
                continue
            reference = batch.fit(replay.datasets())
            incremental = online.fit(replay)
            assert incremental.window_size == reference.window_size
            assert incremental.window_sizes == reference.window_sizes
            for metric in metrics:
                assert incremental.predict_metric(metric, probe) == pytest.approx(
                    reference.predict_metric(metric, probe), rel=1e-6, abs=1e-9
                )

    def test_version_cache_and_incremental_fold(self):
        history = drift_history(30)
        online = OnlineDreamEstimator(r2_required=0.8)
        first = online.fit(history)
        assert online.fit(history) is first  # version unchanged -> cache hit
        last = history.observations[-1]
        history.append(last.tick + 1, last.features, last.costs)
        second = online.fit(history)
        assert second is not first

    def test_rebinding_to_another_history_resets(self):
        online = OnlineDreamEstimator(r2_required=0.8)
        online.fit(drift_history(20, seed=1))
        other = drift_history(25, seed=2)
        result = online.fit(other)
        reference = DreamEstimator(r2_required=0.8).fit(other.datasets())
        assert result.window_size == reference.window_size

    def test_estimate_cost_values_signature(self):
        history = drift_history(20)
        values = OnlineDreamEstimator().estimate_cost_values(history, [50.0, 4.0])
        assert set(values) == {"time", "money"}


class TestBatchedPrediction:
    def test_predict_batch_matches_per_row(self):
        history = drift_history(40)
        result = DreamEstimator(r2_required=0.8).fit(history.datasets())
        rng = np.random.default_rng(9)
        matrix = rng.uniform(0.0, 200.0, size=(64, 2))  # beyond the hull: clamps
        batched = result.predict_batch(matrix)
        assert set(batched) == set(result.models)
        for metric, vector in batched.items():
            assert vector.shape == (64,)
            expected = [result.predict_metric(metric, row) for row in matrix]
            assert np.allclose(vector, expected, rtol=1e-12, atol=1e-12)

    def test_predict_batch_validates_shape(self):
        history = drift_history(20)
        result = DreamEstimator().fit(history.datasets())
        with pytest.raises(EstimationError, match="expected"):
            result.predict_batch(np.zeros((4, 5)))

    def test_fitted_cost_model_batch_matches_per_row(self):
        history = drift_history(40)
        fitted = DreamStrategy(r2_required=0.8).fit(history)
        rng = np.random.default_rng(3)
        matrix = rng.uniform(5.0, 120.0, size=(32, 2))
        batched = fitted.predict_batch(matrix)
        for i, row in enumerate(matrix):
            per_row = fitted.predict(row)
            for metric, value in per_row.items():
                assert batched[metric][i] == pytest.approx(value, rel=1e-12)

    def test_strategy_incremental_matches_batch_reference(self):
        history = drift_history(50)
        incremental = DreamStrategy(r2_required=0.8, incremental=True).fit(history)
        reference = DreamStrategy(r2_required=0.8, incremental=False).fit(history)
        assert incremental.training_size == reference.training_size
        x = np.array([60.0, 3.0])
        a, b = incremental.predict(x), reference.predict(x)
        for metric in b:
            assert a[metric] == pytest.approx(b[metric], rel=1e-6)


# ---------------------------------------------------------------------------
# Rank-deficient windows: constant columns, the shared factorisation and
# the deferred RLS fold.

CONSTANTS = (0.0, 1e-300, -1e-300, 1e-8, -1e-8, 1.0, -1.0, 1e8, -1e8, 1e200, -1e200)


def historical_fit(features, targets):
    """The batch fit as it ran before fits shared a factorisation: one
    solve-or-pinv and one pinv leverage pass per target."""
    design = np.hstack([np.ones((features.shape[0], 1)), features])
    normal = design.T @ design
    try:
        coefficients = np.linalg.solve(normal, design.T @ targets)
    except np.linalg.LinAlgError:
        coefficients = np.linalg.pinv(design) @ targets
    fitted = design @ coefficients
    residuals = targets - fitted
    pinv_normal = np.linalg.pinv(design.T @ design)
    leverages = np.einsum("ij,jk,ik->i", design, pinv_normal, design)
    return (
        coefficients,
        r_squared(targets, fitted),
        press_r_squared_from(residuals, leverages, targets),
    )


def min_norm_fit(features, targets):
    """The documented fit on a constant-column window: coefficients
    ``pinv(A) @ c`` and leverages ``diag(A pinv(A))`` from one SVD."""
    design = np.hstack([np.ones((features.shape[0], 1)), features])
    pinv = np.linalg.pinv(design)
    coefficients = pinv @ targets
    fitted = design @ coefficients
    leverages = np.einsum("ij,ji->i", design, pinv)
    return (
        coefficients,
        r_squared(targets, fitted),
        press_r_squared_from(targets - fitted, leverages, targets),
    )


def assert_same_fit(model, coefficients, r2, press):
    assert np.array_equal(model.coefficients_, coefficients)
    assert repr(model.r_squared_) == repr(r2)
    assert repr(model.press_r_squared_) == repr(press)


def rls_state(rls):
    """Everything a later query of the RLS can read."""
    used = rls._window_used
    return (
        rls._xtx.tobytes(),
        rls._xty.tobytes(),
        repr(rls._sum_y),
        repr(rls._sum_y2),
        rls._count,
        None if rls._inverse is None else rls._inverse.tobytes(),
        rls._singular,
        rls._press_valid,
        rls._design_buf[:used].tobytes(),
        rls._target_buf[:used].tobytes(),
    )


class TestConstantColumnWindows:
    @given(
        dimension=st.integers(min_value=1, max_value=6),
        extra=st.integers(min_value=0, max_value=38),
        constant=st.sampled_from(CONSTANTS),
        column=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_constant_column_is_never_well_conditioned(
        self, dimension, extra, constant, column, seed
    ):
        """The skip DREAM takes is safe: any window with a constant
        column fails the conditioning check it no longer runs."""
        m = min(dimension + 2 + extra, 40)
        rng = np.random.default_rng(seed)
        features = rng.uniform(-1e3, 1e3, size=(m, dimension))
        features[:, column % dimension] = constant
        targets = rng.normal(0.0, 10.0, size=m)
        rls = RecursiveLeastSquares(dimension, track_press=True)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for i in range(m):
                rls.update(features[i], targets[i])
            assert rls.well_conditioned() is False

    @pytest.mark.parametrize("metric_count", [1, 2, 3])
    @pytest.mark.parametrize("singular", [True, False])
    def test_shared_factorisation_is_bitwise_the_batch_fit(self, metric_count, singular):
        """Full-rank windows keep the historical solve and leverages; a
        constant-column window is the minimum-norm fit, bitwise."""
        reference = min_norm_fit if singular else historical_fit
        rng = np.random.default_rng(17 + metric_count)
        features = rng.uniform(1.0, 9.0, size=(12, 3))
        if singular:
            features[:, 1] = 4.0  # a multiple of the intercept
            features[:, 2] = 2.0 * features[:, 0]  # and a collinear pair
        window = WindowFactorisation(
            np.hstack([np.ones((features.shape[0], 1)), features])
        )
        for k in range(metric_count):
            targets = features @ rng.uniform(-2, 2, size=3) + rng.normal(0, 0.1, 12)
            shared = MultipleLinearRegression.fit_window(window, targets)
            alone = MultipleLinearRegression().fit(features, targets)
            assert_same_fit(
                shared, alone.coefficients_, alone.r_squared_, alone.press_r_squared_
            )
            assert_same_fit(shared, *reference(features, targets))
            assert np.array_equal(shared.predict(features), alone.predict(features))
        assert (window._pinv_design is not None) is singular
        assert (window.normal is None) is singular

    def test_constant_window_runs_one_pinv_and_no_solve(self, monkeypatch):
        """Per constant-column window: one ``pinv`` of the design, shared
        by every pending metric; no ``solve`` and no ``pinv(A^T A)``."""
        calls = {"solve": 0, "pinv": []}
        original_solve, original_pinv = np.linalg.solve, np.linalg.pinv

        def counting_solve(*args, **kwargs):
            calls["solve"] += 1
            return original_solve(*args, **kwargs)

        def counting_pinv(matrix, *args, **kwargs):
            calls["pinv"].append(np.shape(matrix))
            return original_pinv(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
        rng = np.random.default_rng(8)
        metrics = ("time", "money", "energy")
        history = ExecutionHistory(("size", "nodes", "engine"), metrics)
        for tick in range(40):
            features = {"size": float(rng.uniform(1, 9)), "nodes": 0.1, "engine": 1.0}
            costs = {metric: float(rng.normal(5, 2)) for metric in metrics}
            history.append(tick, features, costs)
        result = OnlineDreamEstimator(r2_required=0.999, max_window=30).fit(history)
        assert not result.converged and result.window_size == 30
        windows = range(5, 31)  # m = L + 2 .. Mmax
        assert calls["solve"] == 0
        assert calls["pinv"] == [(m, 4) for m in windows]

    def test_late_fold_equals_eager_updates(self):
        """The search's deferred fold, run at the first non-constant
        window and on past it, leaves the RLS bitwise where eager
        updates (with a failed conditioning check at every constant
        window) leave it."""
        rng = np.random.default_rng(5)
        n, recent = 24, 15
        history = ExecutionHistory(("a", "b", "engine"), ("time",))
        for tick in range(n):
            a, b = (float(v) for v in rng.uniform(1.0, 9.0, size=2))
            engine = 1.0 if tick >= n - recent else float(rng.integers(0, 2))
            time = 0.5 * a - b + 2.0 * engine + float(rng.normal(0, 0.2))
            history.append(tick, {"a": a, "b": b, "engine": engine}, {"time": time})
        online = OnlineDreamEstimator()
        online._fold_new(history)
        features, targets = online._features, online._metric_targets["time"]
        first = 5  # L + 2
        order = list(range(n - first, n)) + list(range(n - first - 1, -1, -1))
        eager = RecursiveLeastSquares(3, track_press=True)
        late = RecursiveLeastSquares(3, track_press=True)
        compared = 0
        for step, i in enumerate(order):
            eager.update(features[i], targets[i])
            m = step + 1
            if m < first:
                continue
            window = features[n - m :]
            if np.any(window.min(axis=0) == window.max(axis=0)):
                assert eager.well_conditioned() is False
                continue
            online._fold_to(late, "time", n, first, m)
            assert rls_state(late) == rls_state(eager)
            assert eager.well_conditioned() and late.well_conditioned()
            assert repr(late.press_r_squared_tracked()) == repr(
                eager.press_r_squared_tracked()
            )
            assert np.array_equal(late.coefficients, eager.coefficients)
            compared += 1
        assert late.count == n > recent + 1 and compared >= 3

    def test_constant_recent_rows_varying_older_rows(self):
        """The chosen plan's node column is constant over recent rows and
        varies further back; one metric converges inside the constant
        zone, the other only past it.  Windows match the batch oracle,
        and a model fitted on a constant-column window is bitwise the
        oracle's (both ran the batch fit)."""
        rng = np.random.default_rng(29)
        metrics = ("time", "money")
        history = ExecutionHistory(("size", "nodes"), metrics)
        n, recent = 60, 12
        for tick in range(n):
            size = float(rng.uniform(10, 100))
            nodes = 4.0 if tick >= n - recent else float(rng.integers(2, 9))
            time = 3.0 + 0.5 * size / nodes + float(rng.normal(0, 1.5))
            money = 0.01 * size + 0.002 * nodes
            history.append(tick, {"size": size, "nodes": nodes}, {"time": time, "money": money})
        online = OnlineDreamEstimator(r2_required={"time": 0.95, "money": 0.8})
        batch = DreamEstimator(r2_required={"time": 0.95, "money": 0.8})
        incremental = online.fit(history)
        reference = batch.fit(history.datasets())
        assert incremental.window_sizes == reference.window_sizes
        assert incremental.window_size == reference.window_size
        assert incremental.window_sizes["money"] <= recent
        assert incremental.window_sizes["time"] > recent
        money = incremental.models["money"]
        assert np.array_equal(
            money.coefficients_, reference.models["money"].coefficients_
        )
        assert repr(incremental.r_squared["money"]) == repr(
            reference.r_squared["money"]
        )
        probe = np.array([55.0, 3.0])
        assert incremental.predict_metric("time", probe) == pytest.approx(
            reference.predict_metric("time", probe), rel=1e-6
        )

    def test_constant_windows_skip_the_svd_and_the_rls(self, monkeypatch):
        """While every window has a constant column, the search neither
        runs the conditioning check nor folds a row into any RLS."""
        calls = {"well_conditioned": 0, "update": 0}
        original_check = RecursiveLeastSquares.well_conditioned
        original_update = RecursiveLeastSquares.update

        def counting_check(self, *args, **kwargs):
            calls["well_conditioned"] += 1
            return original_check(self, *args, **kwargs)

        def counting_update(self, *args, **kwargs):
            calls["update"] += 1
            return original_update(self, *args, **kwargs)

        monkeypatch.setattr(RecursiveLeastSquares, "well_conditioned", counting_check)
        monkeypatch.setattr(RecursiveLeastSquares, "update", counting_update)

        def fit(engine_of_tick):
            rng = np.random.default_rng(3)
            history = ExecutionHistory(("size", "engine"), ("time",))
            for tick in range(30):
                features = {"size": float(rng.uniform(10, 100)), "engine": engine_of_tick(tick)}
                history.append(tick, features, {"time": float(rng.normal(5, 2))})
            return OnlineDreamEstimator(r2_required=0.99, max_window=25).fit(history)

        result = fit(lambda tick: 1.0)
        assert result.window_size == 25 and not result.converged
        assert calls == {"well_conditioned": 0, "update": 0}
        # The engine column varies in rows older than the 10 most recent:
        # from window 11 on, every window runs the check on a folded RLS.
        fit(lambda tick: 1.0 if tick >= 20 else float((tick + 1) % 2))
        assert calls == {"well_conditioned": 25 - 10, "update": 25}


# ---------------------------------------------------------------------------
# Ingest: amortised-doubling row buffers.


class ConcatenatingDream(OnlineDreamEstimator):
    """The whole-matrix ``vstack``/``concatenate`` fold the row buffers
    replaced, kept as the reference."""

    def _fold_new(self, history):
        fresh = history.rows_since(self._seen)
        if not fresh:
            return
        names = history.feature_names
        rows = np.array(
            [[obs.features[name] for name in names] for obs in fresh], dtype=float
        ).reshape(len(fresh), len(names))
        self._features = rows if self._seen == 0 else np.vstack([self._features, rows])
        for metric in history.metric_names:
            new = np.array([obs.costs[metric] for obs in fresh], dtype=float)
            old = self._metric_targets.get(metric)
            self._metric_targets[metric] = (
                new if old is None else np.concatenate([old, new])
            )
        self._seen = history.size


class TestRowBuffers:
    def test_windows_and_models_are_bitwise_the_concatenating_fold(self):
        source = drift_history(120, seed=9)
        replay = ExecutionHistory(source.feature_names, source.metric_names)
        online = OnlineDreamEstimator(r2_required=0.9, max_window=40)
        reference = ConcatenatingDream(r2_required=0.9, max_window=40)
        rng = np.random.default_rng(4)
        observations = iter(source.observations)
        fits = 0
        while replay.size < 115:
            # Folds of 1 to 7 rows, so some land exactly on a full buffer.
            for _ in range(int(rng.integers(1, 8))):
                obs = next(observations)
                replay.append(obs.tick, obs.features, obs.costs)
            if replay.size < 4:
                continue
            actual, expected = online.fit(replay), reference.fit(replay)
            assert online._features.tobytes() == reference._features.tobytes()
            for metric in source.metric_names:
                assert (
                    online._metric_targets[metric].tobytes()
                    == reference._metric_targets[metric].tobytes()
                )
                assert np.array_equal(
                    actual.models[metric].coefficients_,
                    expected.models[metric].coefficients_,
                )
                assert repr(actual.r_squared[metric]) == repr(
                    expected.r_squared[metric]
                )
            assert actual.window_sizes == expected.window_sizes
            assert actual.target_ranges == expected.target_ranges
            fits += 1
        assert fits > 20

    def test_a_fold_copies_only_new_rows_until_the_buffer_is_full(self):
        source = drift_history(70, seed=3)
        history = ExecutionHistory(source.feature_names, source.metric_names)
        online = OnlineDreamEstimator()
        for obs in source.observations[:10]:
            history.append(obs.tick, obs.features, obs.costs)
        online._fold_new(history)
        capacities = [online._feature_buffer.shape[0]]
        assert capacities == [10]
        for obs in source.observations[10:]:
            buffers = online._feature_buffer, dict(online._target_buffers)
            before = online._features.copy()
            history.append(obs.tick, obs.features, obs.costs)
            online._fold_new(history)
            capacity = online._feature_buffer.shape[0]
            if history.size <= capacities[-1]:
                # Room left: the new row is written in place, no copy.
                assert online._feature_buffer is buffers[0]
                for metric, buffer in buffers[1].items():
                    assert online._target_buffers[metric] is buffer
            else:
                assert capacity == 2 * capacities[-1]
                capacities.append(capacity)
            assert np.shares_memory(online._features, online._feature_buffer)
            assert online._features.shape == (history.size, 2)
            assert np.array_equal(online._features[:-1], before)
            for metric in source.metric_names:
                assert online._target_buffers[metric].shape[0] == capacity
                assert np.shares_memory(
                    online._metric_targets[metric], online._target_buffers[metric]
                )
        assert capacities == [10, 20, 40, 80]
