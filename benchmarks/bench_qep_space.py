"""On-demand QEP space vs the eager reference build (paper Example 3.1).

Step 3a of Figure 1 turns one query into its equivalent QEPs: execution
option x node count per site.  ``QepEnumerator.enumerate`` returns a
``QepSpace`` that shares one node-count grid per query table set and
builds a ``QepCandidate`` (and its ``features``/``clusters`` dicts) only
when a caller touches it; the optimizer fills the feature matrix from
the space's prefixes and grid.

This benchmark times one enumeration plus its feature matrix on

* the ``plan-wide`` space: MIDAS with 16 x 12 node counts over two
  sites and two execution options = 384 QEPs;
* the default MIDAS space: 24 QEPs;

against the eager reference of ``tests/test_prepared.py``
(``reference_space``: every candidate and dict built, and the matrix
read back one candidate dict at a time).  The reference also profiles
every execution option and builds every cluster afresh, so its time is
an upper bound on an eager build with warm caches, not that build; the
end-to-end gain is measured by ``benchmarks/e2e``.  Every space must hold
the same candidates, in the same order with the same feature insertion
order, and the two matrices must be bitwise identical.  Results go to
``benchmarks/results/BENCH_qep_space.json`` (CI uploads it).

Run standalone:  PYTHONPATH=src python benchmarks/bench_qep_space.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.common.rng import RngStream
from repro.core.cost_model import MultiCostModel
from repro.ires.enumerator import QepEnumerator
from repro.ires.interface import Interface
from repro.ires.modelling import FittedCostModel
from repro.ires.optimizer import MultiObjectiveOptimizer
from repro.midas import MEDICAL_QUERIES, MidasSystem
from repro.midas.system import DEFAULT_INSTANCE_TYPES
from repro.ml.linear import MultipleLinearRegression

# The eager reference lives with the tests, one directory up.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.test_prepared import reference_space  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_qep_space.json"

#: The node counts of the ``plan-wide`` e2e workload.
WIDE_NODES = {"cloud-a": list(range(1, 17)), "cloud-b": list(range(1, 13))}
#: Minimum on-demand speedup over the eager reference.
MIN_SPEEDUP = 2.0


def cost_model(names: tuple[str, ...]) -> FittedCostModel:
    """A fitted linear model over ``names``; only its feature order
    matters to the matrix."""
    rng = np.random.default_rng(5)
    regressor = MultipleLinearRegression()
    regressor.fit(rng.random((4 * len(names), len(names))), rng.random(4 * len(names)))
    return FittedCostModel(
        model=MultiCostModel({"time": regressor}, names), strategy="bench", training_size=0
    )


def jobs_of(system: MidasSystem, count: int):
    """``count`` received queries per MIDAS template."""
    interface = Interface(system.catalog, system.deployment)
    jobs = []
    for template in MEDICAL_QUERIES.values():
        rng = RngStream(23, template.key)
        for _ in range(count):
            plan = interface.receive(template, template.sample_params(rng)).plan
            jobs.append((template.key, plan, template.tables))
    return jobs


def per_call_us(build, jobs, rounds: int) -> float:
    """Best-of-``rounds`` mean wall time of one ``build(job)``, in µs."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        for job in jobs:
            build(job)
        best = min(best, (time.perf_counter() - started) / len(jobs))
    return best * 1e6


def run_case(name: str, system: MidasSystem, enumerator: QepEnumerator, quick: bool):
    stats = system.stats
    jobs = jobs_of(system, 2 if quick else 6)
    models = {tables: cost_model(enumerator.feature_names(tables)) for _k, _p, tables in jobs}
    matrix = MultiObjectiveOptimizer.candidate_matrix

    def eager(job):
        key, plan, tables = job
        space = reference_space(enumerator, key, plan, stats, tables)
        return space, matrix(space, models[tables])

    def on_demand(job):
        key, plan, tables = job
        space = enumerator.enumerate(key, plan, stats, tables)
        return space, matrix(space, models[tables])

    identical = True
    sizes = set()
    for job in jobs:
        on_demand(job)  # a stats object is cached from its second sighting
        space, got = on_demand(job)
        reference, want = eager(job)
        sizes.add(len(space))
        identical &= got.flags.c_contiguous and got.tobytes() == want.tobytes()
        identical &= len(space) == len(reference) and all(
            mine.describe() == theirs.describe()
            and mine.placement == theirs.placement
            and mine.clusters == theirs.clusters
            and list(mine.features.items()) == list(theirs.features.items())
            for mine, theirs in zip(space, reference)
        )
    rounds = 3 if quick else 7
    eager_us = per_call_us(eager, jobs, rounds)
    on_demand_us = per_call_us(on_demand, jobs, rounds)
    return {
        "space": name,
        "candidates": sorted(sizes),
        "queries": len(jobs),
        "eager_us": round(eager_us, 2),
        "on_demand_us": round(on_demand_us, 2),
        "speedup": round(eager_us / on_demand_us, 2),
        "identical": bool(identical),
    }


def run_qep_space(quick: bool = False) -> dict:
    system = MidasSystem(patient_count=300, seed=11)
    wide = QepEnumerator(
        system.federation, system.deployment, DEFAULT_INSTANCE_TYPES, WIDE_NODES
    )
    return {
        "benchmark": "qep_space",
        "quick": quick,
        "unit": "us per enumerate + candidate_matrix",
        "cases": [
            run_case("plan-wide", system, wide, quick),
            run_case("midas", system, system.gateway.engine.enumerator, quick),
        ],
    }


def format_report(report: dict) -> str:
    lines = [
        "On-demand QEP space vs eager reference (enumerate + feature matrix)",
        f"{'space':>10} {'QEPs':>6} {'eager':>10} {'on-demand':>10} {'speedup':>8} {'identical':>10}",
    ]
    for case in report["cases"]:
        lines.append(
            f"{case['space']:>10} {'/'.join(map(str, case['candidates'])):>6} "
            f"{case['eager_us']:>8.1f}us {case['on_demand_us']:>8.1f}us "
            f"{case['speedup']:>7.1f}x {str(case['identical']):>10}"
        )
    return "\n".join(lines)


def write_json(report: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")


def check_report(report: dict) -> None:
    wide, midas = report["cases"]
    assert wide["candidates"] == [384], wide["candidates"]
    assert midas["candidates"] == [24], midas["candidates"]
    for case in report["cases"]:
        assert case["identical"], f"{case['space']}: spaces or matrices diverged"
        assert case["speedup"] >= MIN_SPEEDUP, (
            f"{case['space']}: on-demand only {case['speedup']:.1f}x the eager build"
        )


def test_qep_space(benchmark):
    from conftest import record_result

    report = benchmark.pedantic(run_qep_space, args=(True,), rounds=1, iterations=1)
    record_result("qep_space", format_report(report))
    write_json(report)
    check_report(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="fewer queries and rounds")
    arguments = parser.parse_args()
    final = run_qep_space(quick=arguments.quick)
    print(format_report(final))
    write_json(final)
    check_report(final)
