"""Tests for the optimizers.

The logical optimizer's rewrites preserve semantics; the IReS
multi-objective optimizer's exact search returns exactly the scalar
oracle's Pareto front over every candidate, and the feature matrix a
``QepSpace`` fills from its parts is bitwise the per-candidate one.
"""

import numpy as np
import pytest

from repro.common.errors import EstimationError
from repro.core.cost_model import MultiCostModel
from repro.ires import DreamStrategy, MultiObjectiveOptimizer, OptimizerConfig
from repro.ires.modelling import FittedCostModel
from repro.plans import Catalog, execute_plan
from repro.plans.binder import plan_sql
from repro.plans.logical import Filter, Join, Project, Scan
from repro.plans.optimizer import conjoin, conjuncts, optimize, referenced_indices
from repro.relational.expressions import BinaryOp, BoundColumn, Literal
from repro.relational.types import DataType

from repro.workloads.tpch_runner import TpchFederationConfig, TpchFederationWorkload
from tests.helpers import engine_candidates, tiny_catalog
from tests.moqp_oracles import pareto_front_indices_py

QUERIES = [
    "select o_orderkey, l_shipmode from orders, lineitem "
    "where o_orderkey = l_orderkey and l_quantity > 5",
    "select o_orderkey from orders, lineitem "
    "where o_orderkey = l_orderkey and o_orderpriority = '1-URGENT' "
    "and l_shipmode in ('MAIL', 'RAIL')",
    "select o_orderkey, l_orderkey from orders "
    "left join lineitem on o_orderkey = l_orderkey where o_custkey = 10",
    "select o_custkey, count(*) as c from orders, lineitem "
    "where o_orderkey = l_orderkey group by o_custkey order by c desc",
    "select l_orderkey, l_quantity from lineitem "
    "where l_quantity > (select avg(l2.l_quantity) from lineitem l2 "
    "where l2.l_orderkey = lineitem.l_orderkey) and l_orderkey > 0",
]


class TestEquivalence:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_optimized_plan_same_result(self, sql):
        catalog = tiny_catalog()
        plan = plan_sql(sql, catalog)
        raw = execute_plan(plan, catalog).sorted_rows()
        optimized = execute_plan(optimize(plan), catalog).sorted_rows()
        assert raw == optimized


class TestRewriteShapes:
    def test_cross_join_becomes_inner(self):
        catalog = tiny_catalog()
        plan = optimize(
            plan_sql(
                "select o_orderkey from orders, lineitem where o_orderkey = l_orderkey",
                catalog,
            )
        )
        joins = [n for n in plan.walk() if isinstance(n, Join)]
        assert joins and joins[0].kind == "inner"
        assert joins[0].condition is not None

    def test_single_side_predicates_pushed_below_join(self):
        catalog = tiny_catalog()
        plan = optimize(
            plan_sql(
                "select o_orderkey from orders, lineitem "
                "where o_orderkey = l_orderkey and l_quantity > 5 "
                "and o_custkey = 10",
                catalog,
            )
        )
        joins = [n for n in plan.walk() if isinstance(n, Join)]
        assert len(joins) == 1
        # Both inputs of the join should now be filtered scans.
        assert isinstance(joins[0].left, Filter)
        assert isinstance(joins[0].right, Filter)

    def test_left_join_right_predicate_not_pushed(self):
        catalog = tiny_catalog()
        plan = optimize(
            plan_sql(
                "select o_orderkey from orders left join lineitem "
                "on o_orderkey = l_orderkey where l_quantity is null",
                catalog,
            )
        )
        joins = [n for n in plan.walk() if isinstance(n, Join)]
        assert isinstance(joins[0].right, Scan)  # predicate stayed above

    def test_filters_merge(self):
        catalog = tiny_catalog()
        inner = plan_sql("select o_orderkey from orders where o_custkey = 10", catalog)
        # Hand-build Filter(Filter(...)) and check it merges.
        project = inner
        assert isinstance(project, Project)
        double = Filter(
            project.child,
            BinaryOp(">", BoundColumn(0, DataType.INTEGER), Literal(0)),
        )
        stacked = Filter(double, BinaryOp("<", BoundColumn(0, DataType.INTEGER), Literal(10)))
        merged = optimize(stacked)
        assert isinstance(merged, Filter)
        assert not isinstance(merged.child, Filter)


class TestHelpers:
    def test_conjuncts_flatten(self):
        a = BinaryOp(">", BoundColumn(0, DataType.INTEGER), Literal(1))
        b = BinaryOp("<", BoundColumn(1, DataType.INTEGER), Literal(2))
        c = BinaryOp("=", BoundColumn(2, DataType.INTEGER), Literal(3))
        both = BinaryOp("AND", BinaryOp("AND", a, b), c)
        assert conjuncts(both) == [a, b, c]

    def test_conjoin_inverse(self):
        a = BinaryOp(">", BoundColumn(0, DataType.INTEGER), Literal(1))
        b = BinaryOp("<", BoundColumn(1, DataType.INTEGER), Literal(2))
        assert conjuncts(conjoin([a, b])) == [a, b]

    def test_conjoin_empty_is_none(self):
        assert conjoin([]) is None

    def test_referenced_indices(self):
        expr = BinaryOp(
            "AND",
            BinaryOp(">", BoundColumn(3, DataType.INTEGER), Literal(1)),
            BinaryOp("=", BoundColumn(7, DataType.INTEGER), BoundColumn(3, DataType.INTEGER)),
        )
        assert referenced_indices(expr) == {3, 7}


@pytest.fixture(scope="module")
def q12():
    """A fresh-space factory for TPC-H q12 (24 QEPs) and a fitted model."""
    workload = TpchFederationWorkload(
        TpchFederationConfig(
            scale_mib=100,
            physical_scale_factor=0.0005,
            queries=("q12",),
            drift="none",
            fixed_execution=None,
        )
    )
    fitted = DreamStrategy().fit(workload.build_history("q12", 30))
    engine = workload.gateway().engine

    def fresh_space():
        return engine_candidates(
            engine, "q12", {"shipmode1": "MAIL", "shipmode2": "SHIP", "year": 1994}
        )

    return fresh_space, fitted


@pytest.fixture(scope="module")
def costed_space(q12):
    fresh_space, fitted = q12
    return fresh_space(), fitted


class TestExactParetoSearch:
    @pytest.mark.parametrize("precomputed", [False, True])
    @pytest.mark.parametrize("copies", [1, 2])
    def test_front_equals_oracle_over_all_candidates(
        self, costed_space, precomputed, copies
    ):
        # Two copies of the space put a duplicate beside every front point.
        base, fitted = costed_space
        candidates = base if copies == 1 else list(base) * copies
        metrics = ("time", "money")
        features = MultiObjectiveOptimizer.candidate_matrix(candidates, fitted)
        objectives = [
            tuple(map(float, row))
            for row in fitted.model.predict_matrix(features, metrics)
        ]
        expected = pareto_front_indices_py(objectives)

        search = MultiObjectiveOptimizer().pareto_search(
            candidates,
            fitted,
            metrics,
            features_matrix=features if precomputed else None,
        )

        assert search.algorithm_used == "exact"
        assert 1 <= len(expected) < len(candidates)
        got = search.pareto_set
        assert len(got) == len(expected)
        for candidate, index in zip(got, expected):
            assert candidate.payload is candidates[index]
            assert [v.hex() for v in candidate.objectives] == [
                v.hex() for v in objectives[index]
            ]


def reordered(fitted, names):
    """``fitted`` with its feature order replaced by ``names``."""
    model = fitted.model
    return FittedCostModel(
        model=MultiCostModel({m: model.model(m) for m in model.metrics}, names),
        strategy=fitted.strategy,
        training_size=fitted.training_size,
    )


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


class TestCandidateMatrix:
    def models(self, fitted):
        names = fitted.model.feature_names
        return [fitted, reordered(fitted, names[::-1]), reordered(fitted, names[1:] + names[:1])]

    def test_space_matrix_is_the_per_candidate_matrix(self, q12):
        fresh_space, fitted = q12
        for cost_model in self.models(fitted):
            space = fresh_space()
            got = MultiObjectiveOptimizer.candidate_matrix(space, cost_model)
            want = MultiObjectiveOptimizer.candidate_matrix(list(fresh_space()), cost_model)
            assert got.flags.c_contiguous
            assert_bitwise(got, want)
            # Filled from the parts: no candidate was built.
            assert space._built == {}

    def test_the_dict_order_differs_from_a_reordered_model(self, q12):
        fresh_space, fitted = q12
        dict_order = tuple(fresh_space()[0].features)
        assert sorted(dict_order) == sorted(fitted.model.feature_names)
        for cost_model in self.models(fitted)[1:]:
            assert cost_model.model.feature_names != dict_order

    def test_a_mutated_candidate_row_follows_its_dict(self, q12):
        fresh_space, fitted = q12
        for cost_model in self.models(fitted):
            space = fresh_space()
            name = cost_model.model.feature_names[0]
            space[5].features[name] = 123.25
            space[-1].features["injected"] = 1.0  # ignored: not a model feature
            space[7].clusters.clear()  # clusters are not features
            assert [i for i, _ in space.built_features()] == [5, len(space) - 1]
            got = MultiObjectiveOptimizer.candidate_matrix(space, cost_model)
            want = MultiObjectiveOptimizer.candidate_matrix(list(space), cost_model)
            assert got[5, 0] == 123.25
            assert_bitwise(got, want)
            assert got.flags.c_contiguous
            del space[3].features[name]
            with pytest.raises(EstimationError, match="missing feature"):
                MultiObjectiveOptimizer.candidate_matrix(space, cost_model)

    def test_a_feature_missing_from_the_space_is_an_error(self, q12):
        fresh_space, fitted = q12
        names = fitted.model.feature_names + ("nodes_nowhere",)
        with pytest.raises(EstimationError, match="missing feature 'nodes_nowhere'"):
            MultiObjectiveOptimizer.candidate_matrix(fresh_space(), reordered(fitted, names))

    @pytest.mark.parametrize("algorithm", ["exact", "nsga2", "nsga-g"])
    def test_every_search_path_costs_the_same_matrix(self, q12, monkeypatch, algorithm):
        fresh_space, fitted = q12
        metrics = ("time", "money")
        calls = []
        real = MultiObjectiveOptimizer.candidate_matrix

        def counted(candidates, cost_model):
            calls.append(len(candidates))
            return real(candidates, cost_model)

        monkeypatch.setattr(MultiObjectiveOptimizer, "candidate_matrix", staticmethod(counted))
        optimizer = MultiObjectiveOptimizer(OptimizerConfig(algorithm=algorithm))
        space = fresh_space()
        search = optimizer.pareto_search(space, fitted, metrics)
        assert calls == [len(space)]
        # The fallback fills the same matrix a caller would precompute.
        problem = optimizer.build_problem(fresh_space(), fitted, metrics)
        objectives = problem.objectives_matrix(range(problem.size))
        matrix = real(fresh_space(), fitted)
        assert_bitwise(objectives, fitted.model.predict_matrix(matrix, metrics))
        again = optimizer.pareto_search(fresh_space(), fitted, metrics, features_matrix=matrix)
        assert [c.payload.describe() for c in search.pareto_set] == [
            c.payload.describe() for c in again.pareto_set
        ]
        assert [c.objectives for c in search.pareto_set] == [
            c.objectives for c in again.pareto_set
        ]
