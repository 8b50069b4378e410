"""Incremental DREAM vs the seed batch path at Example 3.1 scale.

The hot loop of the paper's optimizer: every query submission must cost
*every* equivalent QEP (Example 3.1: thousands of configurations for one
plan) from a freshly chosen training window, under a drifting load
(``cloud/variability.py``).  This benchmark replays that loop over a
TPC-H federation history two ways:

* **seed path** — batch :class:`DreamEstimator` refits every window size
  from scratch on each call and predictions walk the candidate set in a
  per-row Python loop (the repository's original behaviour);
* **incremental path** — :class:`OnlineDreamEstimator` reuses state
  across ticks (version cache, rows folded once) and fits each searched
  window once for every pending metric on one shared factorisation, and
  ``DreamResult.predict_batch`` costs the whole candidate set with one
  matmul + vectorised clamp per metric.

Both paths must choose identical windows and agree on every prediction
to 1e-6; the incremental path must be at least 5x faster end to end.

A second row replays a **constant-column history**: after random
exploration, every tick executes the same plan (the optimizer's repeated
choice), so its node and engine columns are constant over the recent
rows and the chosen windows are rank-deficient.  There each window's
shared factorisation is one ``pinv(A)``; the incremental engine is timed
against the batch :class:`DreamEstimator` refit alone, and must again
choose identical windows and agree to 1e-6.

A third row replays the same history with a **non-integer constant
column**: the lineitem size feature held at 0.024993896484375 MiB on
every row (the size ``repro demo --quick`` holds constant).  There
``numpy.linalg.solve`` on the normal matrix can succeed with coefficients
of order 1e16, so both paths must pick identical windows *and* every
model must stay within 1e-6 of the minimum-norm ``pinv(A) @ c`` fit on
its window, at the window's feature values and at sizes off the window.

A fourth row times **per-refit search cost on one estimator over a
growing constant-column history**: after exploration the optimizer keeps
choosing one of two plans in runs, on tables whose sizes do not change
(as MIDAS's do not), so recent rows repeat and most windows have a
constant column.  It reports microseconds per refit, online and batch;
every refit must be bitwise the batch oracle's (windows, ranges,
coefficients, both R^2 by ``repr``).  It has no speed gate.

Run standalone:  PYTHONPATH=src python benchmarks/bench_dream_incremental.py [--quick]
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.common.rng import RngStream
from repro.core import DreamEstimator, ExecutionHistory, OnlineDreamEstimator
from repro.federation import ObserveRequest
from repro.tpch.queries import TPCH_QUERIES
from repro.workloads.tpch_runner import TpchFederationConfig, TpchFederationWorkload

R2_REQUIRED = 0.8
MAX_WINDOW = 40
#: Optimizer calls per executed query (plan costing happens more often
#: than execution — e.g. re-planning under different user policies).
CALLS_PER_TICK = 2
#: The held size of the non-integer constant-column row (MiB).
HELD_SIZE_MIB = 0.024993896484375
HELD_FEATURE = "size_lineitem_mib"


@dataclass(frozen=True)
class IncrementalReport:
    candidate_count: int
    ticks: int
    seed_seconds: float
    incremental_seconds: float
    max_relative_difference: float
    windows_identical: bool
    mean_window: float

    @property
    def speedup(self) -> float:
        return self.seed_seconds / self.incremental_seconds


@dataclass(frozen=True)
class ConstantColumnReport:
    ticks: int
    batch_seconds: float
    online_seconds: float
    max_relative_difference: float
    windows_identical: bool
    mean_window: float
    #: Share of the online fits' chosen windows with a constant column.
    constant_share: float
    #: Largest relative distance of any online or batch model from the
    #: ``pinv`` fit on its window (None: not checked).
    max_pinv_difference: float | None = None

    @property
    def speedup(self) -> float:
        return self.batch_seconds / self.online_seconds


def _qep_space_workload(quick: bool) -> TpchFederationWorkload:
    """A q12 federation whose QEP space tops 1000 candidates."""
    return TpchFederationWorkload(
        TpchFederationConfig(
            scale_mib=100.0,
            queries=("q12",),
            drift="paper",  # default_federation_load drift
            fixed_execution=None,  # both engines -> indicator feature
            node_options={
                "cloud-a": list(range(2, 22)),  # 20 options
                "cloud-b": list(range(2, 28)),  # 26 options
            },
        )
    )


def run_dream_incremental(quick: bool = False) -> IncrementalReport:
    warmup_runs = 20 if quick else 40
    ticks = 10 if quick else 30

    workload = _qep_space_workload(quick)
    template = TPCH_QUERIES["q12"]
    source = workload.build_history("q12", warmup_runs + ticks)

    params = template.sample_params(RngStream(23, "bench-params"))
    candidates = workload.candidates("q12", params)
    feature_names = source.feature_names
    matrix = np.array(
        [[c.features[name] for name in feature_names] for c in candidates],
        dtype=float,
    )

    # Replay the stream: warm up, then per tick append one execution and
    # run CALLS_PER_TICK optimizer costings of the full candidate set.
    replay = ExecutionHistory(feature_names, source.metric_names)
    observations = source.observations
    for obs in observations[:warmup_runs]:
        replay.append(obs.tick, obs.features, obs.costs)

    batch = DreamEstimator(r2_required=R2_REQUIRED, max_window=MAX_WINDOW)
    online = OnlineDreamEstimator(r2_required=R2_REQUIRED, max_window=MAX_WINDOW)
    metrics = source.metric_names

    seed_seconds = 0.0
    incremental_seconds = 0.0
    max_diff = 0.0
    windows_identical = True
    windows: list[int] = []

    for obs in observations[warmup_runs:]:
        replay.append(obs.tick, obs.features, obs.costs)

        started = time.perf_counter()
        for _ in range(CALLS_PER_TICK):
            seed_result = batch.fit(replay.datasets())
            seed_rows = [seed_result.predict(row) for row in matrix]
        seed_seconds += time.perf_counter() - started

        started = time.perf_counter()
        for _ in range(CALLS_PER_TICK):
            fast_result = online.fit(replay)
            fast_columns = fast_result.predict_batch(matrix)
        incremental_seconds += time.perf_counter() - started

        windows_identical &= seed_result.window_size == fast_result.window_size
        windows_identical &= seed_result.window_sizes == fast_result.window_sizes
        windows.append(fast_result.window_size)
        for j, metric in enumerate(metrics):
            seed_column = np.array([row[metric] for row in seed_rows])
            scale = np.maximum(np.abs(seed_column), 1e-9)
            max_diff = max(
                max_diff,
                float(np.max(np.abs(seed_column - fast_columns[metric]) / scale)),
            )

    return IncrementalReport(
        candidate_count=len(candidates),
        ticks=ticks,
        seed_seconds=seed_seconds,
        incremental_seconds=incremental_seconds,
        max_relative_difference=max_diff,
        windows_identical=windows_identical,
        mean_window=float(np.mean(windows)),
    )


def _chosen_plan_history(
    workload: TpchFederationWorkload, explore: int, exploit: int
) -> ExecutionHistory:
    """q12 runs: ``explore`` random QEPs, then ``exploit`` more runs of
    the last one, whose node and engine features repeat on every row."""
    template = TPCH_QUERIES["q12"]
    rng = RngStream(31, "bench-constant-column")
    gateway = workload.gateway(queries=("q12",))
    for tick in range(explore + exploit):
        params = template.sample_params(rng)
        fraction = float(rng.uniform(0.05, 0.5))
        stats = {
            name: table_stats.sampled(fraction)
            for name, table_stats in workload.dataset.logical_stats.items()
        }
        candidates = gateway.candidates("q12", params, stats=stats)
        if tick < explore:
            index = int(rng.integers(0, len(candidates)))
        gateway.observe(
            ObserveRequest("q12", params, tick=tick), candidate=candidates[index], stats=stats
        )
    history = gateway.history("q12")
    gateway.close()
    return history


def _relative_difference(expected: np.ndarray, actual: np.ndarray) -> float:
    scale = np.maximum(np.abs(expected), 1e-9)
    return float(np.max(np.abs(expected - actual) / scale))


def _pinv_difference(result, replay: ExecutionHistory, probe: np.ndarray) -> float:
    """Largest relative distance of ``result``'s raw models from the
    minimum-norm fit on each metric's window, over the ``probe`` rows."""
    names = replay.feature_names
    rows = replay.observations
    probe_design = np.hstack([np.ones((len(probe), 1)), probe])
    worst = 0.0
    for metric, model in result.models.items():
        window = rows[replay.size - result.window_sizes[metric] :]
        features = np.array([[obs.features[name] for name in names] for obs in window])
        targets = np.array([obs.costs[metric] for obs in window])
        design = np.hstack([np.ones((len(window), 1)), features])
        expected = probe_design @ (np.linalg.pinv(design) @ targets)
        worst = max(worst, _relative_difference(expected, model.predict(probe)))
    return worst


def run_constant_column(
    quick: bool = False, held_size: float | None = None
) -> ConstantColumnReport:
    """The constant-column row; with ``held_size``, the lineitem size
    feature is held at that value on every row and every model is also
    checked against the ``pinv`` fit on its window."""
    explore = 20 if quick else 40
    ticks = 2 * MAX_WINDOW if quick else 4 * MAX_WINDOW
    source = _chosen_plan_history(_qep_space_workload(quick), explore, ticks)
    replay = ExecutionHistory(source.feature_names, source.metric_names)
    observations = source.observations
    probe = np.array(
        [[obs.features[name] for name in source.feature_names] for obs in observations]
    )
    if held_size is not None:
        # Probe at the held size and at the sizes actually sampled, which
        # lie off every window.
        held = probe.copy()
        held[:, source.feature_names.index(HELD_FEATURE)] = held_size
        probe = np.vstack([held, probe])
        observations = [
            replace(obs, features={**obs.features, HELD_FEATURE: held_size})
            for obs in observations
        ]
    for obs in observations[:explore]:
        replay.append(obs.tick, obs.features, obs.costs)

    batch = DreamEstimator(r2_required=R2_REQUIRED, max_window=MAX_WINDOW)
    online = OnlineDreamEstimator(r2_required=R2_REQUIRED, max_window=MAX_WINDOW)
    batch_seconds = online_seconds = max_diff = pinv_diff = 0.0
    windows_identical = True
    windows: list[int] = []
    constant = 0
    for obs in observations[explore:]:
        replay.append(obs.tick, obs.features, obs.costs)
        started = time.perf_counter()
        reference = batch.fit(replay.datasets())
        batch_seconds += time.perf_counter() - started
        started = time.perf_counter()
        result = online.fit(replay)
        online_seconds += time.perf_counter() - started

        windows_identical &= reference.window_sizes == result.window_sizes
        windows_identical &= reference.window_size == result.window_size
        windows.append(result.window_size)
        window = probe[replay.size - result.window_size : replay.size]
        constant += bool(np.any(window.min(axis=0) == window.max(axis=0)))
        expected, actual = reference.predict_batch(probe), result.predict_batch(probe)
        for metric, column in expected.items():
            max_diff = max(max_diff, _relative_difference(column, actual[metric]))
        if held_size is not None:
            pinv_diff = max(
                pinv_diff,
                _pinv_difference(reference, replay, probe),
                _pinv_difference(result, replay, probe),
            )

    return ConstantColumnReport(
        ticks=ticks,
        batch_seconds=batch_seconds,
        online_seconds=online_seconds,
        max_relative_difference=max_diff,
        windows_identical=windows_identical,
        mean_window=float(np.mean(windows)),
        constant_share=constant / ticks,
        max_pinv_difference=None if held_size is None else pinv_diff,
    )


@dataclass(frozen=True)
class GrowingHistoryReport:
    refits: int
    batch_seconds: float
    online_seconds: float
    bitwise: bool


def _bitwise(actual, expected) -> bool:
    """Windows, ranges, coefficients and both R^2 (by ``repr``) equal."""
    return (
        actual.window_sizes == expected.window_sizes
        and actual.target_ranges == expected.target_ranges
        and repr(actual.r_squared) == repr(expected.r_squared)
        and all(
            np.array_equal(model.coefficients_, expected.models[metric].coefficients_)
            and repr(model.r_squared_) == repr(expected.models[metric].r_squared_)
            for metric, model in actual.models.items()
        )
    )


def run_growing_history(quick: bool = False) -> GrowingHistoryReport:
    """One estimator refitted after every append to a history whose
    rows repeat one of two chosen plans, run by run."""
    explore = 20 if quick else 40
    refits = 2 * MAX_WINDOW if quick else 6 * MAX_WINDOW
    source = _chosen_plan_history(_qep_space_workload(quick), explore, refits)
    observations = source.observations
    plans = [observations[explore - 2].features, observations[explore - 1].features]
    rng = np.random.default_rng(43)
    replay = ExecutionHistory(source.feature_names, source.metric_names)
    for obs in observations[:explore]:
        replay.append(obs.tick, obs.features, obs.costs)
    batch = DreamEstimator(r2_required=R2_REQUIRED, max_window=MAX_WINDOW)
    online = OnlineDreamEstimator(r2_required=R2_REQUIRED, max_window=MAX_WINDOW)
    online.fit(replay)
    batch_seconds = online_seconds = 0.0
    bitwise = True
    plan, run_left = 0, 0
    for obs in observations[explore:]:
        if run_left == 0:
            plan, run_left = 1 - plan, int(rng.integers(10, 41))
        run_left -= 1
        replay.append(obs.tick, plans[plan], obs.costs)
        started = time.perf_counter()
        result = online.fit(replay)
        online_seconds += time.perf_counter() - started
        started = time.perf_counter()
        reference = batch.fit(replay.datasets())
        batch_seconds += time.perf_counter() - started
        bitwise &= _bitwise(result, reference)
    return GrowingHistoryReport(
        refits=refits,
        batch_seconds=batch_seconds,
        online_seconds=online_seconds,
        bitwise=bitwise,
    )


def format_report(report: IncrementalReport) -> str:
    lines = [
        "Incremental DREAM vs seed batch path (Example 3.1-scale QEP space)",
        "------------------------------------------------------------------",
        f"QEP candidates per costing    : {report.candidate_count}",
        f"ticks x optimizer calls       : {report.ticks} x {CALLS_PER_TICK}",
        f"mean DREAM window             : {report.mean_window:.1f}",
        f"seed path (refit + row loop)  : {report.seed_seconds * 1e3:8.1f} ms",
        f"incremental (one fit path)    : {report.incremental_seconds * 1e3:8.1f} ms",
        f"speedup                       : {report.speedup:8.1f}x",
        f"max relative prediction diff  : {report.max_relative_difference:.2e}",
        f"windows identical             : {report.windows_identical}",
    ]
    return "\n".join(lines)


def format_constant_column(report: ConstantColumnReport) -> str:
    title = (
        "Constant-column history (one plan chosen every tick): online vs batch"
        if report.max_pinv_difference is None
        else f"Same history, {HELD_FEATURE} held at {HELD_SIZE_MIB} MiB: vs pinv"
    )
    lines = [
        "",
        title,
        "-" * len(title),
        f"ticks                         : {report.ticks}",
        f"chosen windows with a constant column : {report.constant_share:.0%}",
        f"mean DREAM window             : {report.mean_window:.1f}",
        f"batch DreamEstimator          : {report.batch_seconds * 1e3:8.1f} ms",
        f"online (shared factorisation) : {report.online_seconds * 1e3:8.1f} ms",
        f"speedup                       : {report.speedup:8.1f}x",
        f"max relative prediction diff  : {report.max_relative_difference:.2e}",
        f"windows identical             : {report.windows_identical}",
    ]
    if report.max_pinv_difference is not None:
        lines.append(
            f"max relative diff from pinv   : {report.max_pinv_difference:.2e}"
        )
    return "\n".join(lines)


def format_growing_history(report: GrowingHistoryReport) -> str:
    title = "Growing history, one of two plans chosen in runs: per-refit search cost"
    lines = [
        "",
        title,
        "-" * len(title),
        f"refits on one estimator       : {report.refits}",
        f"batch DreamEstimator          : {report.batch_seconds / report.refits * 1e6:8.1f} us/refit",
        f"online OnlineDreamEstimator   : {report.online_seconds / report.refits * 1e6:8.1f} us/refit",
        f"every refit bitwise the batch : {report.bitwise}",
    ]
    return "\n".join(lines)


def check_report(report: IncrementalReport) -> None:
    assert report.candidate_count >= 1000, report.candidate_count
    assert report.windows_identical
    assert report.max_relative_difference <= 1e-6
    assert report.speedup >= 5.0, f"speedup only {report.speedup:.1f}x"


def check_constant_column(report: ConstantColumnReport) -> None:
    assert report.constant_share >= 0.5, report.constant_share
    assert report.windows_identical
    assert report.max_relative_difference <= 1e-6
    if report.max_pinv_difference is not None:
        assert report.max_pinv_difference <= 1e-6, report.max_pinv_difference


def check_growing_history(report: GrowingHistoryReport) -> None:
    assert report.bitwise


def test_dream_incremental_speedup(benchmark):
    from conftest import record_result

    report = benchmark.pedantic(run_dream_incremental, rounds=1, iterations=1)
    constant = run_constant_column()
    held = run_constant_column(held_size=HELD_SIZE_MIB)
    growing = run_growing_history()
    record_result(
        "dream_incremental",
        format_report(report)
        + format_constant_column(constant)
        + format_constant_column(held)
        + format_growing_history(growing),
    )
    check_report(report)
    check_constant_column(constant)
    check_constant_column(held)
    check_growing_history(growing)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller stream for CI smoke runs"
    )
    arguments = parser.parse_args()
    final = run_dream_incremental(quick=arguments.quick)
    constant_column = run_constant_column(quick=arguments.quick)
    held_column = run_constant_column(quick=arguments.quick, held_size=HELD_SIZE_MIB)
    growing_history = run_growing_history(quick=arguments.quick)
    print(format_report(final))
    print(format_constant_column(constant_column))
    print(format_constant_column(held_column))
    print(format_growing_history(growing_history))
    check_report(final)
    check_constant_column(constant_column)
    check_constant_column(held_column)
    check_growing_history(growing_history)
