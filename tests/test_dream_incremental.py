"""Tests for the incremental DREAM engine.

Four layers of guarantees:

1. :class:`OnlineDreamEstimator` is bitwise the batch
   :class:`DreamEstimator` — windows, coefficients and R^2 — on every
   history a property draws (full-rank, near-collinear, drifting,
   indicator and constant-recent columns, one to three metrics, refits
   across version bumps) and on named scenarios.
2. The batched prediction path (``DreamResult.predict_batch``,
   ``MultiCostModel.predict_batch``) matches the per-row path exactly.
3. The window search runs at most one shared factorisation per searched
   window: it is bitwise the batch fit (the minimum-norm fit from one SVD
   and numpy's pinv tail on a constant-column window), every pending
   metric is scored on it without a model, and a model is built only
   where a metric stops.
4. Ingest: the row buffers grow by doubling and hold bitwise the rows
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
from repro.core import dream as dream_module
from repro.ires.modelling import DreamStrategy
from repro.ml import MultipleLinearRegression, r_squared
from repro.ml.linear import WindowFactorisation


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


def assert_bitwise(actual, expected):
    """Online and batch results agree bit for bit: windows, target
    ranges, coefficients and both R^2 scores (compared by ``repr``)."""
    assert actual.window_size == expected.window_size
    assert actual.window_sizes == expected.window_sizes
    assert actual.converged == expected.converged
    assert actual.target_ranges == expected.target_ranges
    assert set(actual.models) == set(expected.models)
    for metric, model in expected.models.items():
        assert np.array_equal(actual.models[metric].coefficients_, model.coefficients_)
        assert repr(actual.models[metric].r_squared_) == repr(model.r_squared_)
        assert repr(actual.r_squared[metric]) == repr(expected.r_squared[metric])


HISTORY_KINDS = ("full-rank", "near-collinear", "drift", "indicator", "constant-recent")


def drawn_history(kind, seed, n, dimension, metric_count):
    """A history of one of ``HISTORY_KINDS``.  ``near-collinear``: the
    second column nearly repeats the first.  ``indicator``: the last
    column is a rare 0/1 flag.  ``constant-recent``: the last column is
    one node count over a recent stretch and varies before it.
    ``drift``: every cost is scaled by the federation load."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(1.0, 100.0, size=(n, dimension))
    if kind == "near-collinear" and dimension >= 2:
        X[:, 1] = 3.0 * X[:, 0] + rng.normal(0.0, 1e-6, size=n)
    elif kind == "indicator":
        X[:, -1] = (rng.random(n) < 0.1).astype(float)
    elif kind == "constant-recent":
        X[:, -1] = rng.integers(2, 9, size=n).astype(float)
        X[n - int(rng.integers(1, n)) :, -1] = 4.0
    factors = np.ones(n)
    if kind == "drift":
        load = default_federation_load(RngStream(seed, "drift").child("load"))
        factors = np.array([load.factor(tick) for tick in range(n)])
    metrics = ("time", "money", "energy")[:metric_count]
    names = tuple(f"x{i}" for i in range(dimension))
    slopes = rng.uniform(-2.0, 2.0, size=(metric_count, dimension))
    noise = rng.normal(0.0, rng.uniform(0.0, 20.0), size=(n, metric_count))
    costs = factors[:, None] * (50.0 + X @ slopes.T + noise)
    history = ExecutionHistory(names, metrics)
    for tick in range(n):
        history.append(
            tick,
            dict(zip(names, map(float, X[tick]))),
            dict(zip(metrics, map(float, costs[tick]))),
        )
    return history


class TestOnlineEqualsBatchBitwise:
    @given(
        kind=st.sampled_from(HISTORY_KINDS),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        dimension=st.integers(min_value=1, max_value=4),
        metric_count=st.integers(min_value=1, max_value=3),
        extra=st.integers(min_value=0, max_value=30),
        window_extra=st.one_of(st.none(), st.integers(min_value=0, max_value=25)),
        required=st.sampled_from((0.5, 0.8, 0.95, 0.999)),
        chunks=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_refit_is_the_batch_fit(
        self, kind, seed, dimension, metric_count, extra, window_extra, required, chunks
    ):
        """Replayed in drawn chunks, each version's online fit is bitwise
        the batch oracle's, a second fit at one version is the cached
        result, and the incremental and batch ``DreamStrategy`` agree."""
        first = dimension + 2
        source = drawn_history(kind, seed, first + extra, dimension, metric_count)
        max_window = None if window_extra is None else first + window_extra
        online = OnlineDreamEstimator(required, max_window)
        batch = DreamEstimator(required, max_window)
        replay = ExecutionHistory(source.feature_names, source.metric_names)
        rows = iter(source.observations)
        for size in [first] + chunks:
            for _, obs in zip(range(size), rows):
                replay.append(obs.tick, obs.features, obs.costs)
            result = online.fit(replay)
            assert_bitwise(result, batch.fit(replay.datasets()))
            assert online.fit(replay) is result
        incremental = DreamStrategy(required, max_window, incremental=True).fit(replay)
        reference = DreamStrategy(required, max_window, incremental=False).fit(replay)
        assert incremental.training_size == reference.training_size
        assert repr(incremental.r_squared) == repr(reference.r_squared)
        probe = 1.5 * replay.feature_matrix()
        expected = reference.predict_batch(probe)
        for metric, values in incremental.predict_batch(probe).items():
            assert np.array_equal(values, expected[metric])


class TestOnlineDreamEquivalence:
    def test_same_windows_and_predictions_under_drift(self):
        """Batch and incremental Algorithm 1 agree bitwise on every tick
        of the default_federation_load scenario: windows, models, scores
        and predictions."""
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
            assert_bitwise(incremental, reference)
            assert repr(incremental.predict(probe)) == repr(reference.predict(probe))
            checked += 1
        assert checked > 50

    def test_rank_deficient_windows_match_batch(self):
        """Regression: near-constant indicator features make early
        windows rank-deficient; the incremental engine must fit them as
        the oracle does rather than diverge (this bit the MIDAS medical
        workload: money R^2 read -1.0 instead of 0.99)."""
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
            assert_bitwise(incremental, reference)
            assert repr(incremental.predict(probe)) == repr(reference.predict(probe))

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
        assert_bitwise(result, reference)

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
        assert repr(incremental.r_squared) == repr(reference.r_squared)
        x = np.array([60.0, 3.0])
        assert repr(incremental.predict(x)) == repr(reference.predict(x))


# ---------------------------------------------------------------------------
# The shared window factorisation: constant columns and every pending
# metric fitted on one factorisation per window.

def reference_press(residuals, leverages, targets):
    """PRESS R^2 in its ``np.clip``/``np.sum``/``** 2`` form (bitwise the
    production tail: ``test_ml_models.TestPlainReductions``)."""
    press = float(np.sum((residuals / np.clip(1.0 - leverages, 1e-6, None)) ** 2))
    sst = float(np.sum((targets - targets.mean()) ** 2))
    if sst == 0.0:
        return 1.0 if press == 0.0 else -1.0
    return max(-1.0, 1.0 - press / sst)


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
        reference_press(residuals, leverages, targets),
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
        reference_press(targets - fitted, leverages, targets),
    )


def assert_same_fit(model, coefficients, r2, press):
    assert np.array_equal(model.coefficients_, coefficients)
    assert repr(model.r_squared_) == repr(r2)
    assert repr(model.press_r_squared_) == repr(press)


class TestConstantColumnWindows:
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
            assert repr(window.press_r_squared(targets)) == repr(alone.press_r_squared_)
        assert (window._pinv_design is not None) is singular
        assert (window.normal is None) is singular

    def test_constant_window_runs_one_pinv_and_no_solve(self, monkeypatch):
        """Per computed constant-column window: one ``numpy.linalg.svd`` of
        the design (its pinv, numpy's tail applied inline), shared by
        every pending metric; no ``pinv`` call, no ``solve`` and no
        ``pinv(A^T A)``."""
        calls = {"solve": 0, "pinv": 0, "svd": []}
        original_solve, original_pinv = np.linalg.solve, np.linalg.pinv
        original_svd = np.linalg.svd

        def counting_solve(*args, **kwargs):
            calls["solve"] += 1
            return original_solve(*args, **kwargs)

        def counting_pinv(*args, **kwargs):
            calls["pinv"] += 1
            return original_pinv(*args, **kwargs)

        def counting_svd(matrix, *args, **kwargs):
            calls["svd"].append(np.shape(matrix))
            return original_svd(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
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
        assert calls["svd"] == [(m, 4) for m in windows]
        assert calls["solve"] == 0 and calls["pinv"] == 0

    def test_constant_recent_rows_varying_older_rows(self):
        """The chosen plan's node column is constant over recent rows and
        varies further back; one metric converges inside the constant
        zone, the other only past it.  Both are bitwise the batch
        oracle's."""
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
        assert_bitwise(incremental, reference)
        assert incremental.window_sizes["money"] <= recent
        assert incremental.window_sizes["time"] > recent

    @pytest.mark.parametrize("engine", ["constant", "varying"])
    def test_one_factorisation_per_window_shared_by_pending_metrics(
        self, monkeypatch, engine
    ):
        """Each searched window, with or without a constant column, has
        one factorisation of its own rows, and every metric still
        pending at that window is scored on it; converged metrics are not
        rescored, and each metric gets one model, on its own window."""
        built: list[WindowFactorisation] = []
        scored: list[tuple[int, int]] = []  # (factorisation index, rows)
        modelled: list[tuple[int, int]] = []

        class Counting(WindowFactorisation):
            def __init__(self, design, constant_column=None):
                super().__init__(design, constant_column)
                built.append(self)

            def press_r_squared(self, targets):
                scored.append((built.index(self), len(targets)))
                return super().press_r_squared(targets)

        original = MultipleLinearRegression.fit_window.__func__

        def counting_fit_window(cls, window, targets):
            modelled.append((built.index(window), len(targets)))
            return original(cls, window, targets)

        monkeypatch.setattr(dream_module, "WindowFactorisation", Counting)
        monkeypatch.setattr(
            MultipleLinearRegression, "fit_window", classmethod(counting_fit_window)
        )
        rng = np.random.default_rng(3)
        metrics = ("time", "money", "energy")
        history = ExecutionHistory(("size", "engine"), metrics)

        def append(tick):
            size = float(rng.uniform(10, 100))
            flag = 1.0 if engine == "constant" else float(tick % 2)
            costs = {
                "time": 2.0 + 0.3 * size + float(rng.normal(0, 0.5)),
                "money": 0.01 * size + 0.5 * flag,
                "energy": float(rng.normal(5, 2)),
            }
            history.append(tick, {"size": size, "engine": flag}, costs)

        for tick in range(40):
            append(tick)
        online = OnlineDreamEstimator(r2_required=0.9, max_window=30)
        result = online.fit(history)
        windows = range(4, result.window_size + 1)  # m = L + 2 .. last window
        assert [len(window.design) for window in built] == list(windows)
        assert all((window.normal is None) is (engine == "constant") for window in built)
        expected = [
            (index, m)
            for index, m in enumerate(windows)
            for metric in metrics
            if result.window_sizes[metric] >= m
        ]
        assert scored == expected
        assert sorted(modelled) == sorted(
            (result.window_sizes[metric] - 4, result.window_sizes[metric])
            for metric in metrics
        )
        assert result.window_sizes["money"] < result.window_sizes["energy"] == 30

        # A refit builds one factorisation per window it searches.
        del built[:]
        append(40)
        again = online.fit(history)
        assert [len(window.design) for window in built] == list(range(4, again.window_size + 1))

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        runs=st.lists(
            st.tuples(st.integers(0, 2), st.integers(1, 15)), min_size=1, max_size=8
        ),
        required=st.sampled_from((0.5, 0.8, 0.999)),
        max_window=st.one_of(st.none(), st.integers(min_value=5, max_value=20)),
        chunks=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=12),
    )
    @settings(max_examples=40)
    def test_runs_of_one_chosen_plan_stay_bitwise_the_batch_fit(
        self, seed, runs, required, max_window, chunks
    ):
        """Histories made of runs of repeated plans (the optimizer choosing
        one of three plans for a while), refitted after chunks of appends:
        every refit is bitwise the batch oracle's."""
        rng = np.random.default_rng(seed)
        plans = rng.uniform(1.0, 9.0, size=(3, 2))
        plans[:, 1] = np.round(plans[:, 1])
        names, metrics = ("size", "nodes"), ("time", "money")
        source = ExecutionHistory(names, metrics)
        rows = [plans[plan] for plan, length in runs for _ in range(length)]
        rows = [plans[0]] * 4 + rows + [plans[runs[-1][0]]] * sum(chunks)
        for tick, row in enumerate(rows):
            costs = {
                "time": float(3.0 + row @ (1.5, -0.5) + rng.normal(0, 0.3)),
                "money": float(rng.normal(5, 2)),
            }
            source.append(tick, dict(zip(names, map(float, row))), costs)
        online = OnlineDreamEstimator(required, max_window)
        batch = DreamEstimator(required, max_window)
        replay = ExecutionHistory(names, metrics)
        observations = iter(source.observations)
        for size in [len(rows) - sum(chunks)] + chunks:
            for _, obs in zip(range(size), observations):
                replay.append(obs.tick, obs.features, obs.costs)
            assert_bitwise(online.fit(replay), batch.fit(replay.datasets()))


KERNEL_CONSTANTS = (0.0, 1e-300, -1e-300, 1e8, 0.024993896484375)


class TestWindowKernel:
    """The lean window kernel against numpy and the model fit.

    A constant-column window's ``pinv(A)`` comes from one SVD with
    numpy's pinv tail inline; a window is scored without a model.  Both
    must be byte for byte what ``numpy.linalg.pinv`` and
    ``MultipleLinearRegression`` give."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        constant=st.sampled_from(KERNEL_CONSTANTS),
        dimension=st.integers(min_value=1, max_value=4),
        rows=st.integers(min_value=0, max_value=37),
        identical_rows=st.booleans(),
        offset=st.integers(min_value=0, max_value=3),
        spread=st.sampled_from((None, 1e-16, 2e-15, 5e-15, 1e-13)),
        target_kinds=st.lists(
            st.sampled_from(("noisy", "linear", "constant")), min_size=1, max_size=3
        ),
    )
    @settings(max_examples=150)
    def test_constant_column_kernel_is_bitwise_numpy_and_the_model_fit(
        self, seed, constant, dimension, rows, identical_rows, offset, spread, target_kinds
    ):
        """``spread``: one other column varies only by that relative
        amount, which puts a singular value near pinv's ``1e-15`` cutoff."""
        rng = np.random.default_rng(seed)
        m = min(dimension + 2 + rows, 40)
        features = rng.uniform(1.0, 100.0, size=(m, dimension))
        held = int(rng.integers(0, dimension))
        features[:, held] = constant
        if spread is not None and dimension > 1:
            other = (held + 1) % dimension
            features[:, other] = features[0, other] * (1.0 + spread * rng.normal(size=m))
        if identical_rows:  # a rank-1 design: the chosen plan repeated
            features[:] = features[0]
        # The search's windows are row slices of a wider design.
        wide = np.vstack([rng.uniform(1.0, 100.0, size=(offset, dimension + 1)),
                          np.hstack([np.ones((m, 1)), features])])
        design = wide[offset:]
        window = WindowFactorisation(design)
        pinv = np.linalg.pinv(design)
        assert window.normal is None
        assert window._pinv_design.tobytes() == pinv.tobytes()
        leverages = np.einsum("ij,ji->i", design, pinv)
        assert window.leverages.tobytes() == leverages.tobytes()

        for kind in target_kinds:
            if kind == "constant":
                targets = np.full(m, rng.choice([constant, 5.0, 0.1]))
            else:
                targets = 3.0 + features @ rng.uniform(-2.0, 2.0, size=dimension)
                if kind == "noisy":
                    targets = targets + rng.normal(0.0, 1.0, size=m)
            alone = MultipleLinearRegression().fit(features, targets)
            assert repr(window.press_r_squared(targets)) == repr(alone.press_r_squared_)
            shared = MultipleLinearRegression.fit_window(window, targets)
            assert shared.coefficients_.tobytes() == alone.coefficients_.tobytes()
            assert repr(shared.r_squared_) == repr(alone.r_squared_)
            assert repr(shared.press_r_squared_) == repr(alone.press_r_squared_)
            assert_same_fit(shared, *min_norm_fit(features, targets))

        # The models DREAM returns are fit_window's on their own windows.
        metrics = ("time", "money", "energy")[: len(target_kinds)]
        history = ExecutionHistory(tuple(f"x{i}" for i in range(dimension)), metrics)
        costs = rng.normal(5.0, 2.0, size=(m, len(metrics)))
        costs[:, 0] = 2.0 + features[:, 0]
        for tick in range(m):
            history.append(
                tick,
                {f"x{i}": float(features[tick, i]) for i in range(dimension)},
                {metric: float(costs[tick, k]) for k, metric in enumerate(metrics)},
            )
        result = OnlineDreamEstimator(r2_required=0.8).fit(history)
        assert_bitwise(result, DreamEstimator(r2_required=0.8).fit(history.datasets()))
        for k, metric in enumerate(metrics):
            size = result.window_sizes[metric]
            expected = MultipleLinearRegression.fit_window(
                WindowFactorisation(np.hstack([np.ones((size, 1)), features[m - size :]])),
                costs[m - size :, k],
            )
            model = result.models[metric]
            assert model.coefficients_.tobytes() == expected.coefficients_.tobytes()
            assert repr(model.r_squared_) == repr(expected.r_squared_)
            assert repr(model.press_r_squared_) == repr(expected.press_r_squared_)


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
