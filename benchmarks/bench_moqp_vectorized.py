"""Vectorized MOQP engine vs the scalar oracle at Example 3.1 scale.

The paper's Example 3.1: one query, 70 vCPU x 260 GB = 18,200 equivalent
QEP configurations.  PR 1-3 made *predicting* that space a ~40 ms batch
operation, which left the Multi-Objective Optimizer as the hot path: the
pure-Python O(n²) `pareto_front_indices_py` pairwise scan cannot chew
through 18,200 points in reasonable time (which is why `exact_limit`
used to silently degrade to NSGA-II), and the genetic optimizers used to
evaluate candidates one Python call at a time.

This benchmark measures, at n ∈ {1,000 / 5,000 / 18,200} points of the
real Example 3.1 configuration space:

* **exact front** — vectorized `pareto_front_indices` (two objectives:
  the sort sweep) vs the scalar oracle (`tests/moqp_oracles.py`):
  identical indices required, speedup reported (≥ 10x asserted at the
  largest n);
* **three-objective front** — one row that adds a deterministic energy
  column to (time, money), so the d ≥ 3 block kernel stays timed and
  oracle-checked at scale (n = 5,000; 1,000 with ``--quick``; the
  scalar scan is too slow for 3-D clouds at 18,200): identical indices
  required;
* **NSGA generation throughput** — NSGA-II and NSGA-G over a
  matrix-backed `EnumeratedProblem` (one batched evaluation per
  generation) vs the same algorithms driven scalar-per-candidate:
  identical seeded fronts required.

Results are printed, persisted as text, and emitted machine-readable to
``benchmarks/results/BENCH_moqp.json`` so the perf trajectory is
diffable from this PR onward (CI uploads it as an artifact).

Run standalone:  PYTHONPATH=src python benchmarks/bench_moqp_vectorized.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.ires.enumerator import vm_configuration_space
from repro.moqp.nsga2 import Nsga2, Nsga2Config
from repro.moqp.nsga_g import NsgaG, NsgaGConfig
from repro.moqp.pareto import pareto_front_indices
from repro.moqp.problem import EnumeratedProblem

# The scalar oracle lives with the tests, one directory up.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.moqp_oracles import pareto_front_indices_py  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_moqp.json"

VCPU_POOL = 70
MEMORY_POOL_GB = 260
NSGA_CONFIG = dict(population_size=64, generations=40, seed=17)


def example31_space(n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The (vcpus, memory) columns of the Example 3.1 configuration space;
    ``n`` subsamples it deterministically."""
    space = np.asarray(
        vm_configuration_space(VCPU_POOL, MEMORY_POOL_GB), dtype=float
    )
    if n is not None and n < space.shape[0]:
        keep = np.linspace(0, space.shape[0] - 1, n).astype(int)
        space = space[keep]
    return space[:, 0], space[:, 1]


def example31_objectives(n: int | None = None) -> np.ndarray:
    """Predicted (time, money) for the Example 3.1 configuration space.

    A deterministic cost surface over the real (vcpus, memory) grid:
    execution time falls with resources (with mild interference ripple so
    the front is not degenerate), money rises with the paper's per-unit
    rates.
    """
    vcpus, memory = example31_space(n)
    ripple = 0.05 * np.sin(vcpus * 1.7) * np.cos(memory * 0.9)
    time_cost = 180.0 / vcpus + 45.0 / memory + 2.0 + ripple
    money_cost = 0.048 * vcpus + 0.0075 * memory
    return np.column_stack([time_cost, money_cost])


def example31_objectives_3d(n: int) -> np.ndarray:
    """(time, money, energy) over the same subsampled space.

    Energy is time x power draw, with a seeded per-vCPU-count wattage
    factor so the third axis is not a monotone function of the other two.
    """
    vcpus, memory = example31_space(n)
    time_money = example31_objectives(n)
    watts = np.random.default_rng(31).uniform(0.8, 1.2, size=VCPU_POOL + 1)
    energy = time_money[:, 0] * (watts[vcpus.astype(int)] * vcpus + 0.05 * memory)
    return np.column_stack([time_money, energy])


def matrix_problem(objectives: np.ndarray) -> EnumeratedProblem:
    """A matrix-backed problem over precomputed objective rows (the shape
    `MultiObjectiveOptimizer.build_problem` produces from a feature
    matrix + `predict_matrix`)."""
    rows = [tuple(map(float, row)) for row in objectives]
    return EnumeratedProblem(
        list(range(len(rows))),
        lambda i: rows[i],
        2,
        evaluate_batch=lambda indices: objectives[list(indices)],
    )


def scalar_problem(objectives: np.ndarray) -> EnumeratedProblem:
    rows = [tuple(map(float, row)) for row in objectives]
    return EnumeratedProblem(list(range(len(rows))), lambda i: rows[i], 2)


@dataclass
class SizeReport:
    n: int
    front_size: int
    exact_vectorized_ms: float
    exact_scalar_ms: float
    indices_identical: bool
    nsga2_generations_per_s: float
    nsga2_ms: float
    nsga_g_generations_per_s: float
    nsga_g_ms: float
    nsga_fronts_identical: bool

    @property
    def exact_speedup(self) -> float:
        return self.exact_scalar_ms / self.exact_vectorized_ms


@dataclass
class ThreeObjectiveReport:
    n: int
    front_size: int
    exact_vectorized_ms: float
    exact_scalar_ms: float
    indices_identical: bool

    @property
    def exact_speedup(self) -> float:
        return self.exact_scalar_ms / self.exact_vectorized_ms


@dataclass
class MoqpReport:
    quick: bool
    sizes: list[SizeReport] = field(default_factory=list)
    three_objective: ThreeObjectiveReport | None = None

    @property
    def largest(self) -> SizeReport:
        return max(self.sizes, key=lambda s: s.n)


def _best_of(callable_, repeats: int) -> tuple[float, object]:
    best = float("inf")
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = callable_()
        best = min(best, time.perf_counter() - started)
    return best, value


def run_moqp_vectorized(quick: bool = False) -> MoqpReport:
    sizes = (1_000, 5_000) if quick else (1_000, 5_000, 18_200)
    report = MoqpReport(quick=quick)
    for n in sizes:
        objectives = example31_objectives(n)
        points = [tuple(map(float, row)) for row in objectives]

        fast_seconds, fast_front = _best_of(
            lambda: pareto_front_indices(points), repeats=3
        )
        slow_seconds, slow_front = _best_of(
            lambda: pareto_front_indices_py(points), repeats=1
        )

        generations = NSGA_CONFIG["generations"]
        nsga2_cfg = Nsga2Config(**NSGA_CONFIG)
        nsga2_seconds, nsga2_front = _best_of(
            lambda: Nsga2(nsga2_cfg).optimise(matrix_problem(objectives)), repeats=3
        )
        nsga2_scalar = Nsga2(nsga2_cfg).optimise(scalar_problem(objectives))

        nsga_g_cfg = NsgaGConfig(**NSGA_CONFIG)
        nsga_g_seconds, nsga_g_front = _best_of(
            lambda: NsgaG(nsga_g_cfg).optimise(matrix_problem(objectives)), repeats=3
        )
        nsga_g_scalar = NsgaG(nsga_g_cfg).optimise(scalar_problem(objectives))

        def key(front):
            return [(c.payload, c.objectives) for c in front]

        report.sizes.append(
            SizeReport(
                n=n,
                front_size=len(fast_front),
                exact_vectorized_ms=fast_seconds * 1e3,
                exact_scalar_ms=slow_seconds * 1e3,
                indices_identical=fast_front == slow_front,
                nsga2_generations_per_s=generations / nsga2_seconds,
                nsga2_ms=nsga2_seconds * 1e3,
                nsga_g_generations_per_s=generations / nsga_g_seconds,
                nsga_g_ms=nsga_g_seconds * 1e3,
                nsga_fronts_identical=(
                    key(nsga2_front) == key(nsga2_scalar)
                    and key(nsga_g_front) == key(nsga_g_scalar)
                ),
            )
        )
    n3 = 1_000 if quick else 5_000
    points = [tuple(map(float, row)) for row in example31_objectives_3d(n3)]
    fast_seconds, fast_front = _best_of(
        lambda: pareto_front_indices(points), repeats=3
    )
    slow_seconds, slow_front = _best_of(
        lambda: pareto_front_indices_py(points), repeats=1
    )
    report.three_objective = ThreeObjectiveReport(
        n=n3,
        front_size=len(fast_front),
        exact_vectorized_ms=fast_seconds * 1e3,
        exact_scalar_ms=slow_seconds * 1e3,
        indices_identical=fast_front == slow_front,
    )
    return report


def format_report(report: MoqpReport) -> str:
    lines = [
        "Vectorized MOQP engine vs scalar oracle (Example 3.1 space)",
        "-----------------------------------------------------------",
        f"{'n':>7} {'front':>6} {'exact-vec':>10} {'exact-py':>10} "
        f"{'speedup':>8} {'nsga2 gen/s':>12} {'nsga-g gen/s':>12} {'identical':>10}",
    ]
    for s in report.sizes:
        lines.append(
            f"{s.n:>7} {s.front_size:>6} {s.exact_vectorized_ms:>8.1f}ms "
            f"{s.exact_scalar_ms:>8.1f}ms {s.exact_speedup:>7.1f}x "
            f"{s.nsga2_generations_per_s:>12.1f} {s.nsga_g_generations_per_s:>12.1f} "
            f"{str(s.indices_identical and s.nsga_fronts_identical):>10}"
        )
    d3 = report.three_objective
    lines.append(
        f"{d3.n:>7} {d3.front_size:>6} {d3.exact_vectorized_ms:>8.1f}ms "
        f"{d3.exact_scalar_ms:>8.1f}ms {d3.exact_speedup:>7.1f}x "
        f"{'3 objectives (block kernel)':>25} {str(d3.indices_identical):>10}"
    )
    largest = report.largest
    lines.append(
        f"largest space: n={largest.n}, exact front in "
        f"{largest.exact_vectorized_ms:.1f} ms ({largest.exact_speedup:.1f}x over "
        f"the scalar scan), fronts identical={largest.indices_identical}"
    )
    return "\n".join(lines)


def write_json(report: MoqpReport) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    d3 = report.three_objective
    payload = {
        "benchmark": "moqp_vectorized",
        "quick": report.quick,
        "space": {"vcpu_pool": VCPU_POOL, "memory_pool_gb": MEMORY_POOL_GB},
        "nsga": NSGA_CONFIG,
        "sizes": [
            {
                "n": s.n,
                "front_size": s.front_size,
                "exact_vectorized_ms": round(s.exact_vectorized_ms, 3),
                "exact_scalar_ms": round(s.exact_scalar_ms, 3),
                "exact_speedup": round(s.exact_speedup, 2),
                "indices_identical": s.indices_identical,
                "nsga2_ms": round(s.nsga2_ms, 3),
                "nsga2_generations_per_s": round(s.nsga2_generations_per_s, 2),
                "nsga_g_ms": round(s.nsga_g_ms, 3),
                "nsga_g_generations_per_s": round(s.nsga_g_generations_per_s, 2),
                "nsga_fronts_identical": s.nsga_fronts_identical,
            }
            for s in report.sizes
        ],
        "three_objective": {
            "n": d3.n,
            "front_size": d3.front_size,
            "exact_vectorized_ms": round(d3.exact_vectorized_ms, 3),
            "exact_scalar_ms": round(d3.exact_scalar_ms, 3),
            "exact_speedup": round(d3.exact_speedup, 2),
            "indices_identical": d3.indices_identical,
        },
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def check_report(report: MoqpReport) -> None:
    for s in report.sizes:
        assert s.indices_identical, f"exact front diverged at n={s.n}"
        assert s.nsga_fronts_identical, f"NSGA fronts diverged at n={s.n}"
    d3 = report.three_objective
    assert d3.indices_identical, f"3-objective exact front diverged at n={d3.n}"
    largest = report.largest
    if not report.quick:
        assert largest.n == 18_200, largest.n
    assert largest.exact_speedup >= 10.0, (
        f"exact-front speedup only {largest.exact_speedup:.1f}x at n={largest.n}"
    )


def test_moqp_vectorized_speedup(benchmark):
    from conftest import record_result

    report = benchmark.pedantic(run_moqp_vectorized, rounds=1, iterations=1)
    record_result("moqp_vectorized", format_report(report))
    write_json(report)
    check_report(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller spaces for CI smoke runs"
    )
    arguments = parser.parse_args()
    final = run_moqp_vectorized(quick=arguments.quick)
    print(format_report(final))
    write_json(final)
    check_report(final)
