"""The federation gateway: config, registry, envelopes, sessions.

Four layers of guarantees:

1. Configuration — ``FederationConfig`` rejects garbage eagerly with the
   structured error taxonomy; the backend registry resolves strategies
   by name and accepts third-party factories.
2. Functional — typed envelopes in, typed reports out; auto-ticking,
   rotation-based exploration, template/phase-tagged errors.
3. Oracle equivalence (acceptance) — a scripted drift scenario driven
   through ``FederationGateway.submit`` / ``session.submit_many``
   chooses identical DREAM windows and plans (prediction diff < 1e-9)
   as the same scenario composed straight from the engine room's stage
   functions (the old ``IReSPlatform.submit`` path, now the test-side
   oracle in ``tests/helpers.py``).
4. Concurrency stress (``slow`` marker) — a pinned session snapshot
   stays bitwise-stable while concurrent ``observe()``s advance the
   history version; unpinning picks up the newer model.
"""

import threading

import numpy as np
import pytest

from repro.common.errors import EstimationError, ValidationError
from repro.common.rng import RngStream
from repro.federation import (
    BatchReport,
    DuplicateTemplateError,
    EnvelopeError,
    FederationConfig,
    FederationError,
    GatewayConfigError,
    InsufficientHistoryError,
    ObserveRequest,
    SessionStateError,
    SubmitRequest,
    UnknownStrategyError,
    UnknownTemplateError,
    available_strategies,
    create_strategy,
    register_strategy,
    unregister_strategy,
)
from repro.federation import GovernanceConfig, RebalanceConfig
from repro.ires.modelling import BmlStrategy, DreamStrategy
from repro.ires.policy import UserPolicy
from repro.midas import MEDICAL_QUERIES, MidasSystem
from tests.helpers import engine_candidates, engine_observe, engine_submit

KEY = "medical-demographics"


def _rejection_id(field, value):
    # RebalanceConfig()'s repr spans every knob; keep parametrize ids short.
    text = repr(value)
    return f"{field}={text[:32] + '...' if len(text) > 32 else text}"


def make_midas(
    seed: int = 5, runs: int = 12, config: FederationConfig | None = None
) -> MidasSystem:
    midas = MidasSystem(patient_count=300, seed=seed, config=config)
    if runs:
        midas.warm_up(KEY, runs=runs)
    return midas


@pytest.fixture(scope="module")
def midas() -> MidasSystem:
    return make_midas()


class TestFederationConfig:
    def test_defaults_are_valid(self):
        config = FederationConfig()
        assert config.strategy == "dream-incremental"
        assert config.cache_capacity >= 1
        assert config.serving_backend == "threaded"
        assert config.shard_workers is None

    def test_sharded_backend_accepted(self):
        config = FederationConfig(serving_backend="sharded", shard_workers=3)
        assert config.shard_workers == 3

    #: One row per rejection path (field, bad value, message pattern):
    #: the serving fields introduced with the sharded backend plus the
    #: pre-existing cache/worker validators.
    REJECTED_FIELDS = [
        ("cache_capacity", 0, "cache_capacity"),
        ("cache_capacity", -1, "cache_capacity"),
        ("shard_workers", 0, "shard_workers"),
        ("shard_workers", -2, "shard_workers"),
        ("shard_rpc_timeout", 0, "shard_rpc_timeout"),
        ("shard_rpc_timeout", -1.5, "shard_rpc_timeout"),
        ("serving_backend", "", "serving_backend"),
        ("serving_backend", None, "serving_backend"),
        ("serving_backend", "no-such-backend", "unknown serving backend"),
        ("ingest_queue_depth", 0, "ingest_queue_depth"),
        ("ingest_queue_depth", -8, "ingest_queue_depth"),
        ("ingest_batch_max", 0, "ingest_batch_max"),
        ("ingest_batch_max", -1, "ingest_batch_max"),
        ("ingest_flush_ms", 0, "ingest_flush_ms"),
        ("ingest_flush_ms", -25.0, "ingest_flush_ms"),
        ("ingest_overflow", "drop", "ingest_overflow"),
        ("ingest_overflow", "", "ingest_overflow"),
        ("ingest_segment_max", 0, "ingest_segment_max"),
        ("ingest_segment_max", -3, "ingest_segment_max"),
        ("ingest_pipeline", "yes", "ingest_pipeline"),
        ("ingest_pipeline", 1, "ingest_pipeline"),
        ("rebalance", RebalanceConfig(), "rebalance requires"),
        ("rebalance", "every-tick", "rebalance must be"),
        ("governance", "audit-everything", "governance must be"),
        ("governance", 7, "governance must be"),
    ]

    @pytest.mark.parametrize(
        "field,value,pattern",
        REJECTED_FIELDS,
        ids=[_rejection_id(f, v) for f, v, _ in REJECTED_FIELDS],
    )
    def test_rejection_paths(self, field, value, pattern):
        with pytest.raises(GatewayConfigError, match=pattern):
            FederationConfig(**{field: value})

    def test_unknown_serving_backend_lists_available(self):
        from repro.federation import UnknownServingBackendError

        with pytest.raises(UnknownServingBackendError) as info:
            FederationConfig(serving_backend="fleet-of-zeppelins")
        assert info.value.name == "fleet-of-zeppelins"
        assert "threaded" in info.value.available
        assert "sharded" in info.value.available

    def test_rebalance_on_threaded_names_field_and_backends(self):
        # Satellite guarantee: the rejection tells the user *which*
        # field clashed and what serving backends exist, in the same
        # style as UnknownServingBackendError.
        with pytest.raises(GatewayConfigError) as info:
            FederationConfig(rebalance=RebalanceConfig())
        message = str(info.value)
        assert "serving_backend='sharded'" in message
        assert "serving_backend='threaded'" in message
        assert "threaded" in message and "sharded" in message
        assert info.value.phase == "configure"

    def test_governance_field_accepts_config_and_none(self):
        assert FederationConfig().governance is None
        config = FederationConfig(governance=GovernanceConfig())
        assert config.governance.permissive

    def test_bad_thresholds_rejected(self):
        with pytest.raises(GatewayConfigError, match="r2_required"):
            FederationConfig(r2_required=1.5)
        with pytest.raises(GatewayConfigError, match="max_window"):
            FederationConfig(max_window=2)
        with pytest.raises(GatewayConfigError, match="optimizer_algorithm"):
            FederationConfig(optimizer_algorithm="tabu")
        with pytest.raises(GatewayConfigError, match="exact_limit"):
            FederationConfig(exact_limit=0)
        with pytest.raises(GatewayConfigError, match="metrics"):
            FederationConfig(metrics=())
        # Cross-field: a size watermark above the queue bound could
        # never fire, so it is refused eagerly.
        with pytest.raises(GatewayConfigError, match="could never fire"):
            FederationConfig(ingest_queue_depth=8, ingest_batch_max=9)

    def test_config_errors_are_structured_and_compatible(self):
        with pytest.raises(FederationError) as info:
            FederationConfig(cache_capacity=0)
        error = info.value
        assert error.phase == "configure"
        assert error.template is None
        assert "phase=configure" in str(error)
        # Old-style handlers keep working.
        assert isinstance(error, ValidationError)


class TestStrategyRegistry:
    def test_builtins_registered(self):
        names = available_strategies()
        assert {"dream-incremental", "dream-batch", "bml"} <= set(names)

    def test_dream_incremental_honours_cache_config(self):
        config = FederationConfig(cache_capacity=7, r2_required=0.9, max_window=10)
        strategy = create_strategy(config)
        assert isinstance(strategy, DreamStrategy)
        assert strategy.incremental
        assert strategy.r2_required == 0.9
        assert strategy.max_window == 10
        assert strategy.engine_cache.capacity == 7

    def test_dream_batch_backend(self):
        strategy = create_strategy(FederationConfig(strategy="dream-batch"))
        assert isinstance(strategy, DreamStrategy)
        assert not strategy.incremental

    def test_bml_backend_with_window(self):
        strategy = create_strategy(
            FederationConfig(strategy="bml", strategy_options={"window_multiple": 2})
        )
        assert isinstance(strategy, BmlStrategy)
        assert strategy.name == "BML_2N"
        with pytest.raises(GatewayConfigError, match="window_multiple"):
            create_strategy(
                FederationConfig(
                    strategy="bml", strategy_options={"window_multiple": 0}
                )
            )

    def test_unknown_strategy_lists_available(self):
        with pytest.raises(UnknownStrategyError) as info:
            create_strategy(FederationConfig(strategy="oracle-ml"))
        assert info.value.name == "oracle-ml"
        assert "dream-incremental" in str(info.value)
        assert isinstance(info.value, ValidationError)

    def test_duplicate_registration_refused(self):
        with pytest.raises(GatewayConfigError, match="already registered"):
            register_strategy("dream-incremental", lambda config: None)

    def test_custom_backend_selected_by_config(self):
        marker = {}

        def factory(config):
            marker["options"] = dict(config.strategy_options)
            return DreamStrategy(r2_required=config.r2_required, max_window=10)

        register_strategy("custom-test-backend", factory)
        try:
            midas = MidasSystem(
                patient_count=300,
                seed=5,
                config=FederationConfig(
                    strategy="custom-test-backend", strategy_options={"tag": 1}
                ),
            )
            assert isinstance(midas.gateway.strategy, DreamStrategy)
            assert midas.gateway.strategy.max_window == 10
            assert marker["options"] == {"tag": 1}
        finally:
            unregister_strategy("custom-test-backend")


class TestEnvelopes:
    def test_submit_request_validation(self):
        with pytest.raises(EnvelopeError):
            SubmitRequest("")
        with pytest.raises(EnvelopeError):
            SubmitRequest(KEY, tick=-1)

    def test_observe_request_validation(self):
        with pytest.raises(EnvelopeError):
            ObserveRequest(KEY, candidate_index=-2)
        with pytest.raises(EnvelopeError) as info:
            ObserveRequest("", {})
        assert isinstance(info.value, ValidationError)


class TestErrorTaxonomy:
    def test_unknown_template(self, midas):
        with pytest.raises(UnknownTemplateError) as info:
            midas.gateway.submit(SubmitRequest("no-such-template"))
        assert info.value.template == "no-such-template"
        assert info.value.phase == "validate"
        assert isinstance(info.value, ValidationError)

    def test_duplicate_template(self, midas):
        with pytest.raises(DuplicateTemplateError) as info:
            midas.gateway.register_template(MEDICAL_QUERIES[KEY])
        assert info.value.template == KEY
        assert info.value.phase == "register"

    def test_insufficient_history(self):
        fresh = make_midas(runs=0)
        with pytest.raises(InsufficientHistoryError) as info:
            fresh.gateway.submit(SubmitRequest(KEY, {"min_age": 30}))
        assert info.value.template == KEY
        assert info.value.phase == "estimate"
        # Old-style handlers keep working.
        assert isinstance(info.value, EstimationError)
        with pytest.raises(InsufficientHistoryError):
            fresh.gateway.session(KEY)

    def test_too_short_history_is_typed_too(self):
        fresh = make_midas(runs=0)
        fresh.gateway.observe(ObserveRequest(KEY, {"min_age": 10}))
        # Non-empty but below the minimum window: still the typed error,
        # not a bare EstimationError leaking from the fit.
        with pytest.raises(InsufficientHistoryError) as info:
            fresh.gateway.submit(SubmitRequest(KEY, {"min_age": 30}))
        assert info.value.template == KEY


class TestGatewayFunctional:
    def test_submit_returns_typed_report(self, midas):
        policy = UserPolicy(weights=(0.5, 0.5))
        report = midas.gateway.submit(SubmitRequest(KEY, {"min_age": 30}, policy))
        assert report.template == KEY
        assert report.candidate_count == 24
        assert set(report.predicted_costs) == {"time", "money"}
        assert set(report.measured_costs) == {"time", "money"}
        assert set(report.errors) == {"time", "money"}
        assert report.predicted == report.result.chosen.objectives
        assert report.cost_model.strategy == "dream"
        assert not report.pinned
        assert report.executed
        assert KEY in report.describe()

    def test_observe_rotates_through_the_qep_space(self):
        midas = make_midas(runs=0)
        first = midas.gateway.observe(ObserveRequest(KEY, {"min_age": 10}))
        second = midas.gateway.observe(ObserveRequest(KEY, {"min_age": 10}))
        assert first.candidate.describe() != second.candidate.describe()
        assert second.history_size == 2
        assert second.history_version > first.history_version
        assert second.tick == first.tick + 1

    def test_observe_candidate_index_bounds_checked(self, midas):
        with pytest.raises(EnvelopeError, match="out of range"):
            midas.gateway.observe(
                ObserveRequest(KEY, {"min_age": 10}, candidate_index=10_000)
            )

    def test_explicit_ticks_keep_auto_ticks_monotone(self):
        midas = make_midas(runs=0)
        explicit = midas.gateway.observe(
            ObserveRequest(KEY, {"min_age": 10}, tick=500)
        )
        auto = midas.gateway.observe(ObserveRequest(KEY, {"min_age": 10}))
        assert explicit.tick == 500
        assert auto.tick == 501

    def test_refresh_and_model(self, midas):
        models = midas.gateway.refresh([KEY])
        assert KEY in models
        assert midas.gateway.model(KEY).training_size >= 3
        with pytest.raises(UnknownTemplateError):
            midas.gateway.refresh(["nope"])

    def test_templates_listing(self, midas):
        assert midas.gateway.templates() == tuple(sorted(MEDICAL_QUERIES))

    def test_serving_stats_surface(self, midas):
        stats = midas.gateway.serving_stats
        assert stats.templates == len(MEDICAL_QUERIES)
        assert stats.fits >= 1
        # Gateway observes/submissions are counted as observations.
        assert stats.observations >= 12


class TestPredictionErrorSemantics:
    """Satellite: zero measured costs must never drop a requested metric."""

    def _result(self, predicted, measured):
        from repro.engines.metrics import ExecutionMetrics
        from repro.engines.simulate import QueryExecution
        from repro.ires.platform import SubmissionResult
        from repro.moqp.problem import Candidate

        execution = QueryExecution(
            tick=0,
            metrics=ExecutionMetrics(
                execution_time_s=measured[0], intermediate_bytes=measured[1],
                monetary_cost_usd=1.0,
            ),
            profile=None,
            clusters={},
            load_factor=1.0,
        )
        return SubmissionResult(
            request=None,
            cost_model=None,
            candidate_count=1,
            pareto_set=(),
            chosen=Candidate(None, tuple(predicted)),
            execution=execution,
        )

    def test_zero_measured_nonzero_predicted_is_inf(self):
        result = self._result(predicted=(2.0, 5.0), measured=(4.0, 0.0))
        errors = result.prediction_error(("time", "intermediate"))
        assert errors["time"] == pytest.approx(0.5)
        assert errors["intermediate"] == float("inf")

    def test_zero_measured_zero_predicted_is_exact(self):
        result = self._result(predicted=(2.0, 0.0), measured=(4.0, 0.0))
        errors = result.prediction_error(("time", "intermediate"))
        assert errors["intermediate"] == 0.0

    def test_every_requested_metric_reported(self):
        result = self._result(predicted=(2.0, 5.0), measured=(0.0, 0.0))
        errors = result.prediction_error(("time", "intermediate"))
        assert set(errors) == {"time", "intermediate"}

    def test_plan_only_result_raises(self):
        from repro.ires.platform import SubmissionResult
        from repro.moqp.problem import Candidate

        result = SubmissionResult(
            request=None, cost_model=None, candidate_count=1,
            pareto_set=(), chosen=Candidate(None, (1.0,)), execution=None,
        )
        with pytest.raises(EstimationError, match="not executed"):
            result.prediction_error(("time",))


class TestMoqpAlgorithmObservability:
    """The exact -> nsga2 degradation is recorded, not silent."""

    def test_exact_reported_by_default(self, midas):
        report = midas.gateway.submit(SubmitRequest(KEY, {"min_age": 40}))
        assert report.moqp_algorithm == "exact"
        assert report.moqp_exact_fallback is False

    def test_fallback_recorded_on_report(self):
        midas = make_midas(
            seed=11,
            config=FederationConfig(
                strategy="dream-incremental",
                r2_required=0.8,
                max_window=24,
                exact_limit=2,
            ),
        )
        report = midas.gateway.submit(SubmitRequest(KEY, {"min_age": 40}))
        assert report.candidate_count > 2
        assert report.moqp_algorithm == "nsga2"
        assert report.moqp_exact_fallback is True

    def test_default_limit_covers_example31(self):
        from repro.federation import DEFAULT_EXACT_LIMIT
        from repro.ires import vm_configuration_count
        from repro.ires.optimizer import DEFAULT_EXACT_LIMIT as ENGINE_LIMIT

        assert DEFAULT_EXACT_LIMIT >= vm_configuration_count(70, 260)
        # The federation constant restates the engine-room one (so
        # configuring the gateway needs no engine import); they must not
        # drift apart.
        assert DEFAULT_EXACT_LIMIT == ENGINE_LIMIT


class TestSessionApi:
    def test_pin_is_stable_until_repin(self):
        midas = make_midas(seed=7)
        gateway = midas.gateway
        with gateway.session(KEY) as session:
            pinned = session.model
            version = session.pinned_version
            assert not session.stale
            midas.warm_up(KEY, runs=2)  # concurrent-ish history movement
            assert session.model is pinned
            assert session.pinned_version == version
            assert session.stale
            refreshed = session.repin()
            assert refreshed is not pinned
            assert session.pinned_version > version
        assert session.closed

    def test_closed_session_refuses_use(self, midas):
        session = midas.gateway.session(KEY)
        session.close()
        with pytest.raises(SessionStateError) as info:
            session.submit(SubmitRequest(KEY, {"min_age": 30}))
        assert info.value.phase == "session"
        with pytest.raises(SessionStateError):
            session.repin()

    def test_session_rejects_other_templates(self, midas):
        with midas.gateway.session(KEY) as session:
            with pytest.raises(EnvelopeError, match="pinned to"):
                session.submit(
                    SubmitRequest("medical-lab-followup", {"testname": "glucose"})
                )

    def test_submit_many_shares_model_and_enumeration(self, midas):
        weights = ((1.0, 0.0), (0.5, 0.5), (0.0, 1.0))
        with midas.gateway.session(KEY) as session:
            batch = session.submit_many(
                [
                    SubmitRequest(KEY, {"min_age": 30}, UserPolicy(weights=w))
                    for w in weights
                ],
                execute=False,
            )
            assert isinstance(batch, BatchReport)
            assert len(batch) == 3
            assert batch.enumerations == 1  # same params -> one QEP space
            assert batch.cost_model is session.model
            for report in batch:
                assert report.pinned
                assert report.cost_model is batch.cost_model
                assert not report.executed
                assert report.measured_costs is None and report.errors is None

    def test_plan_only_batch_leaves_history_untouched(self, midas):
        before = midas.gateway.history(KEY).version
        with midas.gateway.session(KEY) as session:
            session.submit_many(
                [SubmitRequest(KEY, {"min_age": 30})], execute=False
            )
        assert midas.gateway.history(KEY).version == before

    def test_executed_batch_appends_in_order(self):
        midas = make_midas(seed=9)
        before = midas.gateway.history(KEY).size
        batch = midas.gateway.submit_many(
            [SubmitRequest(KEY, {"min_age": a}) for a in (20, 40)]
        )
        assert midas.gateway.history(KEY).size == before + 2
        assert batch.enumerations == 2  # distinct params -> distinct spaces
        assert batch[1].tick == batch[0].tick + 1

    def test_submit_many_rejects_empty_batch(self, midas):
        with pytest.raises(EnvelopeError, match="at least one"):
            midas.gateway.submit_many([])

    def test_mixed_template_batch_rejected_before_any_execution(self, midas):
        sizes = {
            key: midas.gateway.history(key).size for key in midas.gateway.templates()
        }
        with pytest.raises(EnvelopeError, match="batch contains"):
            midas.gateway.submit_many(
                [
                    SubmitRequest(KEY, {"min_age": 30}),
                    SubmitRequest("medical-lab-followup", {"testname": "glucose"}),
                ]
            )
        for key, size in sizes.items():  # nothing executed partially
            assert midas.gateway.history(key).size == size


class TestOracleEquivalence:
    """Acceptance: the gateway surface adds zero numeric drift over the
    stage functions composed directly (the old ``IReSPlatform.submit``
    path) on a scripted drift scenario."""

    SEED = 13
    POLICIES = (
        UserPolicy(weights=(0.5, 0.5)),
        UserPolicy(weights=(1.0, 0.0)),
        UserPolicy(weights=(0.2, 0.8)),
    )

    def _profile(self, observe, candidates_of, rng, runs: int, tick0: int):
        """The shared exploratory script, expressed over either surface."""
        template = MEDICAL_QUERIES[KEY]
        for run in range(runs):
            params = template.sample_params(rng)
            space = candidates_of(params)
            candidate = space[int(rng.integers(0, len(space)))]
            observe(params, candidate, tick0 + run)

    def test_scripted_scenario_matches_old_platform_path(self):
        # Two identical worlds (same data, same simulator seed, same rng
        # scripts); A is driven through the stage functions directly, B
        # through the gateway envelopes.
        midas_a = MidasSystem(patient_count=300, seed=self.SEED)
        midas_b = MidasSystem(patient_count=300, seed=self.SEED)
        platform = midas_a.gateway.engine  # the stage functions, directly
        gateway = midas_b.gateway

        rng_a = RngStream(99, "oracle")
        rng_b = RngStream(99, "oracle")
        self._profile(
            lambda params, candidate, tick: engine_observe(
                platform, KEY, params, candidate, tick
            ),
            lambda params: engine_candidates(platform, KEY, params),
            rng_a, runs=14, tick0=0,
        )
        self._profile(
            lambda params, candidate, tick: gateway.observe(
                ObserveRequest(KEY, params, tick=tick), candidate=candidate
            ),
            lambda params: gateway.candidates(KEY, params),
            rng_b, runs=14, tick0=0,
        )

        # Interleaved drift + single submissions (the default path).
        template = MEDICAL_QUERIES[KEY]
        for i, policy in enumerate(self.POLICIES):
            tick = 100 + 10 * i
            result = engine_submit(platform, KEY, {"min_age": 25 + i}, policy, tick)
            report = gateway.submit(
                SubmitRequest(KEY, {"min_age": 25 + i}, policy, tick=tick)
            )
            assert (
                report.cost_model.training_size == result.cost_model.training_size
            ), "DREAM window diverged"
            assert report.chosen.describe() == result.chosen_candidate.describe()
            for got, want in zip(report.predicted, result.predicted):
                assert abs(got - want) < 1e-9
            assert report.measured_costs["time"] == pytest.approx(
                result.execution.metrics.execution_time_s, rel=1e-12
            )
            # More drift between submissions.
            self._profile(
                lambda params, candidate, t: engine_observe(
                    platform, KEY, params, candidate, t
                ),
                lambda params: engine_candidates(platform, KEY, params),
                rng_a, runs=3, tick0=tick + 1,
            )
            self._profile(
                lambda params, candidate, t: gateway.observe(
                    ObserveRequest(KEY, params, t),
                    candidate=candidate,
                ),
                lambda params: gateway.candidates(KEY, params),
                rng_b, runs=3, tick0=tick + 1,
            )

        # Pinned batch: session.submit_many vs the direct composition
        # with the platform's own pinned snapshot threaded through.
        pinned = platform.serving.model(KEY)
        batch_requests = [
            SubmitRequest(KEY, {"min_age": 35}, policy, tick=200 + i)
            for i, policy in enumerate(self.POLICIES)
        ] + [SubmitRequest(KEY, {"min_age": 55}, self.POLICIES[0], tick=203)]
        old_results = [
            engine_submit(
                platform,
                request.template,
                request.params,
                request.policy,
                request.tick,
                cost_model=pinned,
            )
            for request in batch_requests
        ]
        with gateway.session(KEY) as session:
            batch = session.submit_many(batch_requests)
        assert batch.enumerations == 2  # two distinct query instances
        for report, result in zip(batch, old_results):
            assert (
                report.cost_model.training_size == result.cost_model.training_size
            )
            assert report.chosen.describe() == result.chosen_candidate.describe()
            for got, want in zip(report.predicted, result.predicted):
                assert abs(got - want) < 1e-9
            assert report.measured_costs["money"] == pytest.approx(
                result.execution.metrics.monetary_cost_usd, rel=1e-12
            )
        # Both worlds logged the same executions throughout.
        history_a = platform.history(KEY)
        history_b = gateway.history(KEY)
        assert history_a.size == history_b.size
        assert np.array_equal(history_a.feature_matrix(), history_b.feature_matrix())
        for metric in history_a.metric_names:
            assert np.array_equal(history_a.targets(metric), history_b.targets(metric))


class TestCliDemo:
    def test_demo_quick_runs(self, capsys):
        from repro.__main__ import main

        assert main(["demo", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Pinned-session policy sweep" in out
        assert "enumerations performed: 1" in out

    def test_demo_ingest_batch_prints_front_door_counters(self, capsys):
        from repro.__main__ import main

        assert main(["demo", "--quick", "--ingest-batch", "16"]) == 0
        out = capsys.readouterr().out
        assert "Front-door ingest burst" in out
        # 32 streamed-burst rows + 8 awaited ingest_async rows.
        assert "Ingest counters: admitted=40" in out
        assert "rejected=0" in out and "flushes=3 (size=2" in out
        assert "streaming    :" in out and "asyncio      : awaited 8" in out


@pytest.mark.slow
class TestSessionPinningConcurrency:
    """Satellite: pinned snapshots under concurrent observes."""

    OBSERVERS = 3
    TICKS_PER_OBSERVER = 10

    def test_pinned_snapshot_bitwise_stable_under_concurrent_observes(self):
        midas = make_midas(seed=21, runs=12)
        gateway = midas.gateway
        probe = RngStream(3, "pin-probe").uniform(
            5.0, 200.0, size=(64, len(gateway.history(KEY).feature_names))
        )

        session = gateway.session(KEY)
        pinned_version = session.pinned_version
        baseline = {
            metric: column.copy()
            for metric, column in session.estimate_batch(probe).items()
        }

        template = MEDICAL_QUERIES[KEY]
        start = threading.Barrier(self.OBSERVERS + 1)
        failures = []

        def observer(worker: int):
            rng = RngStream(77, "pin-observer", str(worker))
            start.wait()
            for _ in range(self.TICKS_PER_OBSERVER):
                params = template.sample_params(rng)
                try:
                    gateway.observe(ObserveRequest(KEY, params))
                except Exception as error:  # pragma: no cover - failure path
                    failures.append(error)

        threads = [
            threading.Thread(target=observer, args=(i,))
            for i in range(self.OBSERVERS)
        ]
        for thread in threads:
            thread.start()
        start.wait()
        # While the observers hammer the history, the pinned snapshot
        # must answer bit-for-bit identically, every time.
        for _ in range(50):
            predictions = session.estimate_batch(probe)
            for metric, column in predictions.items():
                if not np.array_equal(column, baseline[metric]):
                    failures.append(f"pinned prediction drifted for {metric}")
        for thread in threads:
            thread.join()
        assert not failures

        # The history moved past the pin...
        moved = self.OBSERVERS * self.TICKS_PER_OBSERVER
        assert gateway.history(KEY).version == pinned_version + moved
        assert session.stale
        final = session.estimate_batch(probe)
        for metric, column in final.items():
            assert np.array_equal(column, baseline[metric])

        # ...and unpinning picks up the newer model.
        old_model = session.model
        refreshed = session.repin()
        assert refreshed is not old_model
        assert session.pinned_version == pinned_version + moved
        session.close()
        report = gateway.submit(SubmitRequest(KEY, {"min_age": 30}))
        assert report.cost_model is not old_model
        unpinned = gateway.model(KEY)
        assert unpinned.training_size == unpinned.training_size  # sanity
        assert gateway.serving_stats.fits >= 2
