"""Tests for the engine simulators and multi-engine federation simulator."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cloud import CloudProvider, Cluster, find_instance
from repro.cloud.federation import paper_federation
from repro.cloud.variability import ConstantLoad
from repro.common.errors import ExecutionError
from repro.common.rng import RngStream
from repro.common.units import MIB
from repro.engines import (
    HiveEngine,
    MultiEngineSimulator,
    PostgresEngine,
    SparkEngine,
    default_engines,
    engine_by_name,
    schedule_tasks,
)
from repro.engines.simulation import split_into_tasks
from repro.plans.binder import plan_sql
from repro.plans.optimizer import optimize
from repro.plans.physical import (
    EnginePlacement,
    OperatorProfile,
    Placement,
    profile_plan,
)
from repro.tpch import TpchDataset, TPCH_QUERIES


def make_cluster(nodes=2, instance="a1.xlarge") -> Cluster:
    return Cluster("cloud-a", find_instance(CloudProvider.AMAZON, instance), nodes)


def scan_op(bytes_=100 * MIB, rows=1_000_000, engine="hive", site="cloud-a"):
    return OperatorProfile("scan", engine, site, rows, bytes_, rows, bytes_, "t")


def join_op(in_bytes=50 * MIB, in_rows=500_000, out_rows=100_000, engine="hive", site="cloud-a"):
    return OperatorProfile("join", engine, site, in_rows, in_bytes, out_rows, out_rows * 50.0)


class TestTaskScheduler:
    def test_waves(self):
        timeline = schedule_tasks([1.0] * 10, slots=4)
        assert timeline.makespan_s == pytest.approx(3.0)
        assert timeline.wave_count == 3

    def test_single_slot_serialises(self):
        timeline = schedule_tasks([1.0, 2.0, 3.0], slots=1)
        assert timeline.makespan_s == pytest.approx(6.0)

    def test_more_slots_than_tasks(self):
        timeline = schedule_tasks([5.0, 1.0], slots=8)
        assert timeline.makespan_s == pytest.approx(5.0)

    def test_straggler_dominates(self):
        timeline = schedule_tasks([1.0, 1.0, 1.0, 10.0], slots=4)
        assert timeline.makespan_s == pytest.approx(10.0)

    def test_utilisation_bounds(self):
        timeline = schedule_tasks([1.0] * 8, slots=4)
        assert 0.0 < timeline.slot_utilisation(4) <= 1.0

    def test_empty(self):
        assert schedule_tasks([], slots=2).makespan_s == 0.0

    def test_zero_slots_rejected(self):
        with pytest.raises(ExecutionError):
            schedule_tasks([1.0], slots=0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ExecutionError):
            schedule_tasks([-1.0], slots=1)

    def test_split_into_tasks(self):
        tasks = split_into_tasks(130 * MIB, 64 * MIB)
        assert len(tasks) == 3
        assert sum(tasks) == pytest.approx(130 * MIB)

    def test_split_zero_bytes(self):
        assert split_into_tasks(0, 64 * MIB) == []


class TestEngineModels:
    def test_more_nodes_is_faster_hive(self):
        engine = HiveEngine()
        ops = [scan_op(bytes_=2000 * MIB, rows=20_000_000), join_op()]
        small = engine.base_time(ops, make_cluster(2)).total_s
        large = engine.base_time(ops, make_cluster(8)).total_s
        assert large < small

    def test_more_data_is_slower(self):
        for engine in (HiveEngine(), PostgresEngine(), SparkEngine()):
            small = engine.base_time([scan_op(bytes_=10 * MIB, rows=100_000)], make_cluster()).total_s
            large = engine.base_time([scan_op(bytes_=1000 * MIB, rows=10_000_000)], make_cluster()).total_s
            assert large > small, engine.name

    def test_hive_startup_dominates_small_inputs(self):
        engine = HiveEngine()
        times = engine.base_time([scan_op(bytes_=1 * MIB, rows=1000), join_op(1 * MIB, 1000, 10)], make_cluster())
        assert times.startup_s > times.scan_s + times.cpu_s

    def test_postgres_fastest_on_small_inputs(self):
        ops = [scan_op(bytes_=10 * MIB, rows=100_000), join_op(10 * MIB, 100_000, 1000)]
        cluster = make_cluster(2)
        pg = PostgresEngine().base_time(ops, cluster).total_s
        hive = HiveEngine().base_time(ops, cluster).total_s
        spark = SparkEngine().base_time(ops, cluster).total_s
        assert pg < spark < hive

    def test_hive_scales_better_than_postgres(self):
        """Distributed engines gain more from nodes than single-node PG."""
        ops = [scan_op(bytes_=4000 * MIB, rows=40_000_000)]
        hive_gain = (
            HiveEngine().base_time(ops, make_cluster(1)).total_s
            / HiveEngine().base_time(ops, make_cluster(8)).total_s
        )
        pg_gain = (
            PostgresEngine().base_time(ops, make_cluster(1)).total_s
            / PostgresEngine().base_time(ops, make_cluster(8)).total_s
        )
        assert hive_gain > pg_gain

    def test_postgres_spills_on_memory_pressure(self):
        engine = PostgresEngine()
        small_mem = Cluster("s", find_instance(CloudProvider.MICROSOFT, "B1S"), 1)
        big_mem = Cluster("s", find_instance(CloudProvider.MICROSOFT, "B8MS"), 1)
        ops = [join_op(in_bytes=3000 * MIB, in_rows=10_000_000, out_rows=100_000, engine="postgresql")]
        assert engine.base_time(ops, small_mem).total_s > engine.base_time(ops, big_mem).total_s

    def test_empty_operator_list(self):
        for engine in default_engines().values():
            assert engine.base_time([], make_cluster()).total_s == 0.0

    def test_energy_scales_with_duration_and_cores(self):
        engine = SparkEngine()
        assert engine.energy_joules(10, make_cluster(2)) < engine.energy_joules(10, make_cluster(4))
        assert engine.energy_joules(10, make_cluster(2)) < engine.energy_joules(20, make_cluster(2))

    def test_registry(self):
        assert engine_by_name("hive").name == "hive"
        assert engine_by_name("POSTGRESQL").name == "postgresql"
        with pytest.raises(ExecutionError):
            engine_by_name("oracle")


class TestMultiEngineSimulator:
    @pytest.fixture(scope="class")
    def setup(self):
        ds = TpchDataset(scale_mib=100, physical_scale_factor=0.0005)
        fed = paper_federation()
        placement = Placement(
            tables={
                "orders": EnginePlacement("hive", "cloud-a"),
                "lineitem": EnginePlacement("postgresql", "cloud-b"),
                "customer": EnginePlacement("postgresql", "cloud-b"),
                "part": EnginePlacement("hive", "cloud-a"),
            },
            execution=EnginePlacement("hive", "cloud-a"),
        )
        clusters = {
            "cloud-a": fed.provision("cloud-a", "a1.xlarge", 3),
            "cloud-b": fed.provision("cloud-b", "B2S", 2),
        }
        sql = TPCH_QUERIES["q12"].render({"shipmode1": "MAIL", "shipmode2": "SHIP", "year": 1994})
        plan = optimize(plan_sql(sql, ds.catalog))
        return ds, fed, placement, clusters, plan

    def test_deterministic_under_seed(self, setup):
        ds, fed, placement, clusters, plan = setup
        runs_a = [
            MultiEngineSimulator(fed, load=ConstantLoad(), seed=5)
            .execute(plan, ds.logical_stats, placement, clusters, t)
            .metrics.execution_time_s
            for t in range(3)
        ]
        runs_b = [
            MultiEngineSimulator(fed, load=ConstantLoad(), seed=5)
            .execute(plan, ds.logical_stats, placement, clusters, t)
            .metrics.execution_time_s
            for t in range(3)
        ]
        assert runs_a == runs_b

    def test_noise_varies_between_runs(self, setup):
        ds, fed, placement, clusters, plan = setup
        sim = MultiEngineSimulator(fed, load=ConstantLoad(), seed=5)
        a = sim.execute(plan, ds.logical_stats, placement, clusters, 0).metrics
        b = sim.execute(plan, ds.logical_stats, placement, clusters, 1).metrics
        assert a.execution_time_s != b.execution_time_s

    def test_load_multiplies_time(self, setup):
        ds, fed, placement, clusters, plan = setup
        calm = MultiEngineSimulator(fed, load=ConstantLoad(1.0), noise_sigma=1e-9, seed=5)
        busy = MultiEngineSimulator(fed, load=ConstantLoad(2.0), noise_sigma=1e-9, seed=5)
        t_calm = calm.execute(plan, ds.logical_stats, placement, clusters, 0).metrics
        t_busy = busy.execute(plan, ds.logical_stats, placement, clusters, 0).metrics
        assert t_busy.execution_time_s == pytest.approx(2 * t_calm.execution_time_s, rel=1e-6)

    def test_cross_cloud_transfer_recorded(self, setup):
        ds, fed, placement, clusters, plan = setup
        sim = MultiEngineSimulator(fed, load=ConstantLoad(), seed=5)
        record = sim.execute(plan, ds.logical_stats, placement, clusters, 0)
        assert record.profile.transfers, "lineitem must move cloud-b -> cloud-a"
        assert record.metrics.breakdown["transfer_s"] > 0

    def test_money_includes_egress(self, setup):
        ds, fed, placement, clusters, plan = setup
        sim = MultiEngineSimulator(fed, load=ConstantLoad(), noise_sigma=1e-9, seed=5)
        # Executing at cloud-a moves only the *filtered* lineitem rows
        # (small); executing at cloud-b moves the unfiltered orders table
        # (large).  Egress pricing must therefore favour cloud-a.
        base = sim.base_metrics(
            profile_plan(optimize(plan), ds.logical_stats, placement), clusters
        )
        colocated = Placement(tables=placement.tables, execution=EnginePlacement("postgresql", "cloud-b"))
        base_colocated = sim.base_metrics(
            profile_plan(optimize(plan), ds.logical_stats, colocated), clusters
        )
        moved_a = sum(t.payload_bytes for t in profile_plan(optimize(plan), ds.logical_stats, placement).transfers)
        moved_b = sum(t.payload_bytes for t in profile_plan(optimize(plan), ds.logical_stats, colocated).transfers)
        assert moved_a < moved_b
        assert base.monetary_cost_usd < base_colocated.monetary_cost_usd

    def test_missing_cluster_raises(self, setup):
        ds, fed, placement, _clusters, plan = setup
        sim = MultiEngineSimulator(fed, seed=5)
        with pytest.raises(ExecutionError, match="no cluster"):
            sim.execute(plan, ds.logical_stats, placement, {}, 0)

    def test_metrics_vector(self, setup):
        ds, fed, placement, clusters, plan = setup
        sim = MultiEngineSimulator(fed, seed=5)
        metrics = sim.execute(plan, ds.logical_stats, placement, clusters, 0).metrics
        vector = metrics.as_vector(("time", "money", "intermediate", "energy"))
        assert len(vector) == 4
        assert vector[0] > 0 and vector[1] > 0


#: One simulator run over a three-site profile, in a fresh interpreter:
#: prints the money of 5,000 durations.
THREE_SITE_MONEY = """
from repro.cloud.federation import paper_federation
from repro.engines import MultiEngineSimulator
from repro.plans.binder import plan_sql
from repro.plans.optimizer import optimize
from repro.plans.physical import EnginePlacement, Placement, profile_plan
from repro.tpch import TPCH_QUERIES, TpchDataset

dataset = TpchDataset(scale_mib=100, physical_scale_factor=0.0005)
federation = paper_federation()
placement = Placement(
    tables={
        "orders": EnginePlacement("hive", "cloud-a"),
        "lineitem": EnginePlacement("postgresql", "cloud-b"),
    },
    execution=EnginePlacement("spark", "cloud-c"),
)
clusters = {
    "cloud-a": federation.provision("cloud-a", "a1.xlarge", 3),
    "cloud-b": federation.provision("cloud-b", "B2S", 2),
    "cloud-c": federation.provision("cloud-c", "n1-standard-2", 5),
}
sql = TPCH_QUERIES["q12"].render({"shipmode1": "MAIL", "shipmode2": "SHIP", "year": 1994})
profile = profile_plan(optimize(plan_sql(sql, dataset.catalog)), dataset.logical_stats, placement)
assert sorted(p.site for p in profile.participating()) == sorted(clusters)
simulator = MultiEngineSimulator(federation, seed=5)
print([simulator._money(profile, clusters, 0.37 * k + 0.011) for k in range(5000)])
"""


class TestMoneyOverThreeSites:
    def test_money_does_not_depend_on_the_hash_seed(self):
        """Three sites' compute costs are summed in one order whatever
        ``PYTHONHASHSEED`` is: summed in set order, the money differed
        between these two seeds."""
        source = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("1", "7"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source)
            run = subprocess.run(
                [sys.executable, "-c", THREE_SITE_MONEY],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
