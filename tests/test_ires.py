"""Tests for the IReS platform: interface, modelling, enumerator, pipeline."""

from dataclasses import replace

import pytest

from repro.cloud.federation import paper_federation
from repro.cloud.variability import ConstantLoad
from repro.common.errors import (
    EstimationError,
    PlanError,
    ValidationError,
)
from repro.engines.simulate import MultiEngineSimulator
from repro.federation import SubmitRequest
from repro.ires import (
    BmlStrategy,
    Deployment,
    DreamStrategy,
    Interface,
    IReSPlatform,
    MultiObjectiveOptimizer,
    OptimizerConfig,
    QepEnumerator,
    UserPolicy,
    vm_configuration_count,
)
from repro.ires.enumerator import vm_configuration_space
from repro.ml.selection import ObservationWindow
from repro.plans.physical import EnginePlacement
from repro.tpch import TPCH_QUERIES, TpchDataset
from repro.workloads.tpch_runner import (
    TPCH_DEPLOYMENT,
    TpchFederationConfig,
    TpchFederationWorkload,
)
from tests.helpers import engine_candidates, engine_observe, engine_submit


@pytest.fixture(scope="module")
def workload() -> TpchFederationWorkload:
    return TpchFederationWorkload(
        TpchFederationConfig(
            scale_mib=100,
            physical_scale_factor=0.0005,
            queries=("q12",),
            drift="none",
            fixed_execution=None,  # exercise engine-indicator features
        )
    )


class TestUserPolicy:
    def test_defaults(self):
        policy = UserPolicy()
        assert policy.metrics == ("time", "money")

    def test_weight_arity_checked(self):
        with pytest.raises(ValidationError):
            UserPolicy(metrics=("time",), weights=(0.5, 0.5))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            UserPolicy(weights=(-0.5, 1.5))

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            UserPolicy(weights=(0.0, 0.0))

    def test_constraint_arity(self):
        with pytest.raises(ValidationError):
            UserPolicy(constraints=(1.0,))

    def test_reweighted(self):
        policy = UserPolicy().reweighted((0.9, 0.1))
        assert policy.weights == (0.9, 0.1)


class TestDeployment:
    def make(self) -> Deployment:
        return Deployment(dict(TPCH_DEPLOYMENT))

    def test_site_and_engine_lookup(self):
        deployment = self.make()
        assert deployment.site_of("orders") == "cloud-a"
        assert deployment.engine_of("lineitem") == "postgresql"

    def test_unknown_table(self):
        with pytest.raises(PlanError, match="not deployed"):
            self.make().site_of("nation")

    def test_execution_options_deduplicated(self):
        options = self.make().execution_options(("orders", "part"))
        assert len(options) == 1  # both tables on hive/cloud-a

    def test_execution_options_cross_engine(self):
        options = self.make().execution_options(("orders", "lineitem"))
        engines = {o.engine for o in options}
        assert engines == {"hive", "postgresql"}

    def test_placement_for(self):
        execution = EnginePlacement("hive", "cloud-a")
        placement = self.make().placement_for(execution)
        assert placement.execution == execution
        assert placement.for_table("orders").engine == "hive"


class TestInterface:
    def test_receive_validates_tables(self, workload):
        interface = Interface(workload.dataset.catalog, workload.deployment)
        request = interface.receive(
            TPCH_QUERIES["q12"], {"shipmode1": "MAIL", "shipmode2": "SHIP", "year": 1994}
        )
        assert request.tables == ("lineitem", "orders")

    def test_undeployed_table_rejected(self, workload):
        interface = Interface(workload.dataset.catalog, workload.deployment)
        nation = replace(TPCH_QUERIES["q12"], template="select n_name from nation")
        with pytest.raises(PlanError, match="not deployed"):
            interface.receive(nation, {})


class TestEnumerator:
    def test_candidate_count(self, workload):
        template = TPCH_QUERIES["q12"]
        candidates = engine_candidates(
            workload.gateway().engine,
            "q12",
            {"shipmode1": "MAIL", "shipmode2": "SHIP", "year": 1994},
        )
        # 2 execution engines x 4 node options (cloud-a) x 3 (cloud-b).
        assert len(candidates) == 2 * 4 * 3

    def test_feature_names_include_engine_indicator(self, workload):
        names = workload.enumerator.feature_names(("orders", "lineitem"))
        assert any(name.startswith("exec_") for name in names)
        assert "size_orders_mib" in names
        assert "nodes_cloud-a" in names

    def test_fixed_execution_drops_indicator(self):
        wl = TpchFederationWorkload(
            TpchFederationConfig(queries=("q12",), fixed_execution=("hive", "cloud-a"))
        )
        names = wl.enumerator.feature_names(("orders", "lineitem"))
        assert not any(name.startswith("exec_") for name in names)

    def test_candidates_have_all_features(self, workload):
        candidates = engine_candidates(
            workload.gateway().engine,
            "q12",
            {"shipmode1": "MAIL", "shipmode2": "SHIP", "year": 1994},
        )
        names = set(workload.enumerator.feature_names(("orders", "lineitem")))
        for candidate in candidates[:5]:
            assert set(candidate.features) == names

    def test_sizes_shrink_with_sampling(self, workload):
        template = TPCH_QUERIES["q12"]
        from repro.plans.binder import plan_sql
        from repro.plans.optimizer import optimize

        sql = template.render({"shipmode1": "MAIL", "shipmode2": "SHIP", "year": 1994})
        plan = optimize(plan_sql(sql, workload.dataset.catalog))
        full = workload.enumerator.enumerate(
            "q12", plan, workload.dataset.logical_stats, template.tables
        )
        sampled_stats = {
            name: stats.sampled(0.5)
            for name, stats in workload.dataset.logical_stats.items()
        }
        half = workload.enumerator.enumerate("q12", plan, sampled_stats, template.tables)
        assert half[0].features["size_orders_mib"] < full[0].features["size_orders_mib"]


class TestExample31Numbers:
    def test_paper_configuration_count(self):
        assert vm_configuration_count() == 18_200
        assert vm_configuration_count(70, 260) == 70 * 260

    def test_configuration_space_size(self):
        assert len(vm_configuration_space(5, 4)) == 20

    def test_rejects_empty_pool(self):
        with pytest.raises(ValidationError):
            vm_configuration_count(0, 10)


class TestModellingStrategies:
    def test_dream_strategy_reports_r2(self, workload):
        history = workload.build_history("q12", 40)
        fitted = DreamStrategy(r2_required=0.8).fit(history)
        assert fitted.strategy == "dream"
        assert set(fitted.r_squared) == {"time", "money"}
        assert fitted.training_size >= 6

    def test_bml_strategy_reports_winners(self, workload):
        history = workload.build_history("q12", 40)
        fitted = BmlStrategy(ObservationWindow(2)).fit(history)
        assert fitted.strategy == "BML_2N"
        assert set(fitted.winners) == {"time", "money"}

    def test_predictions_are_finite(self, workload):
        history = workload.build_history("q12", 40)
        fitted = DreamStrategy().fit(history)
        x = fitted.model.features_dict_to_vector(history.observations[-1].features)
        prediction = fitted.predict(x)
        assert all(v == v for v in prediction.values())  # not NaN


class TestPlatformPipeline:
    @pytest.fixture(scope="class")
    def platform(self):
        wl = TpchFederationWorkload(
            TpchFederationConfig(
                scale_mib=100,
                queries=("q12",),
                drift="none",
                fixed_execution=None,
            )
        )
        platform = wl.gateway(strategy=DreamStrategy(r2_required=0.8)).engine
        template = TPCH_QUERIES["q12"]
        from repro.common.rng import RngStream

        rng = RngStream(3, "warmup")
        for tick in range(12):
            params = template.sample_params(rng)
            candidates = engine_candidates(platform, "q12", params)
            candidate = candidates[int(rng.integers(0, len(candidates)))]
            engine_observe(platform, "q12", params, candidate, tick)
        return platform

    def test_submit_full_pipeline(self, platform):
        result = engine_submit(
            platform,
            "q12",
            {"shipmode1": "MAIL", "shipmode2": "SHIP", "year": 1994},
            UserPolicy(weights=(0.5, 0.5)),
            tick=50,
        )
        assert result.candidate_count == 24
        assert len(result.pareto_set) >= 1
        assert result.execution.metrics.execution_time_s > 0
        assert len(result.predicted) == 2

    def test_submit_requires_history(self, workload):
        gateway = workload.gateway()
        with pytest.raises(EstimationError, match="no execution history"):
            gateway.submit(
                SubmitRequest(
                    "q12", {"shipmode1": "MAIL", "shipmode2": "SHIP", "year": 1994}
                )
            )

    def test_chosen_plan_respects_time_weight(self, platform):
        # With all weight on time, the chosen plan's predicted time must
        # be minimal within the Pareto set.
        result = engine_submit(
            platform,
            "q12",
            {"shipmode1": "RAIL", "shipmode2": "AIR", "year": 1995},
            UserPolicy(weights=(1.0, 0.0)),
            tick=60,
        )
        times = [c.objectives[0] for c in result.pareto_set]
        assert result.predicted[0] == pytest.approx(min(times))

    def test_duplicate_template_rejected(self, platform):
        with pytest.raises(ValidationError, match="already registered"):
            platform.register_template(TPCH_QUERIES["q12"])

    def test_unknown_template(self, platform):
        with pytest.raises(ValidationError, match="unknown template"):
            engine_submit(platform, "q99", {}, UserPolicy(), 0)

    def test_history_grows_with_submissions(self, platform):
        before = platform.history("q12").size
        engine_submit(
            platform,
            "q12",
            {"shipmode1": "MAIL", "shipmode2": "FOB", "year": 1996},
            UserPolicy(),
            tick=70,
        )
        assert platform.history("q12").size == before + 1

    def test_prediction_error_computable(self, platform):
        result = engine_submit(
            platform,
            "q12",
            {"shipmode1": "MAIL", "shipmode2": "SHIP", "year": 1997},
            UserPolicy(),
            tick=80,
        )
        errors = result.prediction_error(("time", "money"))
        assert set(errors) <= {"time", "money"}
        assert all(v >= 0 for v in errors.values())


class TestOptimizerConfig:
    def test_bad_algorithm(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(algorithm="tabu")

    def test_exact_fallback_to_nsga(self, workload):
        history = workload.build_history("q12", 30)
        fitted = DreamStrategy().fit(history)
        candidates = engine_candidates(
            workload.gateway().engine,
            "q12",
            {"shipmode1": "MAIL", "shipmode2": "SHIP", "year": 1994},
        )
        optimizer = MultiObjectiveOptimizer(OptimizerConfig(algorithm="exact", exact_limit=4))
        search = optimizer.pareto_search(candidates, fitted, ("time", "money"))
        assert search.pareto_set  # fell back to NSGA-II without error
        assert search.algorithm == "exact"
        assert search.algorithm_used == "nsga2"
        assert search.exact_fallback is True

    def test_exact_within_limit_records_no_fallback(self, workload):
        history = workload.build_history("q12", 30)
        fitted = DreamStrategy().fit(history)
        candidates = engine_candidates(
            workload.gateway().engine,
            "q12",
            {"shipmode1": "MAIL", "shipmode2": "SHIP", "year": 1994},
        )
        search = MultiObjectiveOptimizer().pareto_search(
            candidates, fitted, ("time", "money")
        )
        assert search.algorithm_used == "exact"
        assert search.exact_fallback is False

    def test_default_exact_limit_covers_example31(self):
        from repro.ires.optimizer import DEFAULT_EXACT_LIMIT

        assert OptimizerConfig().exact_limit == DEFAULT_EXACT_LIMIT
        assert DEFAULT_EXACT_LIMIT >= vm_configuration_count(70, 260)

    def test_nsga_g_path(self, workload):
        history = workload.build_history("q12", 30)
        fitted = DreamStrategy().fit(history)
        candidates = engine_candidates(
            workload.gateway().engine,
            "q12",
            {"shipmode1": "MAIL", "shipmode2": "SHIP", "year": 1994},
        )
        optimizer = MultiObjectiveOptimizer(OptimizerConfig(algorithm="nsga-g"))
        front = optimizer.pareto_set(candidates, fitted, ("time", "money"))
        assert front
