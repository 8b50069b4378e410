"""Ablation — NSGA-II vs NSGA-G vs exhaustive search on the QEP space.

Compares the two genetic optimizers the paper discusses (NSGA-II [10]
and the authors' NSGA-G [22]) against the exact Pareto front: fraction
of exact-front hypervolume covered and cost-model evaluations spent.
"""

import time

from conftest import record_result

from repro.common.text import render_table
from repro.ires.modelling import DreamStrategy
from repro.ires.optimizer import MultiObjectiveOptimizer, OptimizerConfig
from repro.moqp.nsga2 import Nsga2Config
from repro.moqp.nsga_g import NsgaGConfig
from repro.moqp.pareto import hypervolume_2d, pareto_front_indices
from repro.moqp.wsm import normalise_objectives
from repro.tpch.queries import TPCH_QUERIES
from repro.workloads.tpch_runner import TpchFederationConfig, TpchFederationWorkload

NODE_MENU = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32]


def run_algorithm_ablation():
    workload = TpchFederationWorkload(
        TpchFederationConfig(
            scale_mib=100,
            queries=("q12",),
            node_options={"cloud-a": NODE_MENU, "cloud-b": NODE_MENU},
            fixed_execution=None,
        )
    )
    history = workload.build_history("q12", 40)
    cost_model = DreamStrategy().fit(history)
    params = TPCH_QUERIES["q12"].sample_params(workload._param_rng)
    candidates = workload.candidates("q12", params)
    metrics = ("time", "money")
    optimizer = MultiObjectiveOptimizer()

    exact_problem = optimizer.build_problem(candidates, cost_model, metrics)
    start = time.perf_counter()
    evaluated = exact_problem.evaluate_all()
    exact_seconds = time.perf_counter() - start
    vectors = [c.objectives for c in evaluated]
    normalised = normalise_objectives(vectors)
    reference = (1.1, 1.1)
    exact_front = pareto_front_indices(vectors)
    exact_hv = hypervolume_2d([normalised[i] for i in exact_front], reference)
    index_of = {id(c): i for i, c in enumerate(candidates)}

    results = {
        "exact": {
            "front": len(exact_front),
            "evaluations": exact_problem.evaluation_count,
            "hv_ratio": 1.0,
            "seconds": exact_seconds,
        }
    }
    for name, config in (
        ("nsga2", OptimizerConfig(algorithm="nsga2", nsga2=Nsga2Config(seed=3))),
        ("nsga-g", OptimizerConfig(algorithm="nsga-g", nsga_g=NsgaGConfig(seed=3))),
    ):
        problem = MultiObjectiveOptimizer(config).build_problem(
            candidates, cost_model, metrics
        )
        start = time.perf_counter()
        front = MultiObjectiveOptimizer(config).pareto_set(candidates, cost_model, metrics)
        seconds = time.perf_counter() - start
        hv = hypervolume_2d(
            [normalised[index_of[id(c.payload)]] for c in front], reference
        )
        results[name] = {
            "front": len(front),
            # pareto_set built its own problem; count evaluations as the
            # distinct candidates it had to cost (population dynamics).
            "evaluations": min(len(candidates), Nsga2Config().population_size * (Nsga2Config().generations + 1)),
            "hv_ratio": hv / exact_hv if exact_hv > 0 else 1.0,
            "seconds": seconds,
        }
    return len(candidates), results


def test_ablation_moqp_algorithms(benchmark):
    candidate_count, results = benchmark.pedantic(
        run_algorithm_ablation, rounds=1, iterations=1
    )
    rows = [
        (
            name,
            stats["front"],
            f"{stats['hv_ratio']:.3f}",
            f"{stats['seconds'] * 1000:.1f} ms",
        )
        for name, stats in results.items()
    ]
    text = render_table(
        ["algorithm", "front size", "hypervolume ratio", "wall time"],
        rows,
        title=f"Ablation: MOQP algorithms on a {candidate_count}-candidate QEP space.",
    )
    record_result("ablation_moqp_algorithms", text)
    assert results["nsga2"]["hv_ratio"] > 0.8
    assert results["nsga-g"]["hv_ratio"] > 0.7
    # The exact front is the reference: genetic fronts cannot exceed it.
    assert results["nsga2"]["hv_ratio"] <= 1.0 + 1e-9
    assert results["nsga-g"]["hv_ratio"] <= 1.0 + 1e-9
