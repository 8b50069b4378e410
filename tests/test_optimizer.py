"""Tests for the optimizers.

The logical optimizer's rewrites preserve semantics; the IReS
multi-objective optimizer's exact search returns exactly the scalar
oracle's Pareto front over every candidate.
"""

import pytest

from repro.ires import DreamStrategy, MultiObjectiveOptimizer
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
def costed_space():
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
    candidates = engine_candidates(
        workload.gateway().engine,
        "q12",
        {"shipmode1": "MAIL", "shipmode2": "SHIP", "year": 1994},
    )
    return candidates, fitted


class TestExactParetoSearch:
    @pytest.mark.parametrize("precomputed", [False, True])
    @pytest.mark.parametrize("copies", [1, 2])
    def test_front_equals_oracle_over_all_candidates(
        self, costed_space, precomputed, copies
    ):
        # Two copies of the space put a duplicate beside every front point.
        base, fitted = costed_space
        candidates = base * copies
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
