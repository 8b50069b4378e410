"""Scalar equivalence oracles for the numpy-native MOQP kernels.

The pre-vectorization originals, kept verbatim: the vectorized
:func:`~repro.moqp.pareto.pareto_front_indices`,
:func:`~repro.moqp.nsga2.fast_non_dominated_sort` and
:func:`~repro.moqp.nsga2.crowding_distance` must return exactly what
these return — same indices, same front order, bitwise-identical
crowding.  Only the property suite and ``benchmarks/bench_moqp_vectorized.py``
use them.
"""

from __future__ import annotations

from typing import Sequence

from repro.moqp.dominance import pareto_dominates


def pareto_front_indices_py(points: Sequence[Sequence[float]]) -> list[int]:
    """Pure-Python O(n²) pairwise scan for the non-dominated points."""
    front: list[int] = []
    for i, candidate in enumerate(points):
        dominated = False
        for j, other in enumerate(points):
            if i != j and pareto_dominates(other, candidate):
                dominated = True
                break
        if not dominated:
            front.append(i)
    return front


def fast_non_dominated_sort_py(
    objectives: list[tuple[float, ...]]
) -> list[list[int]]:
    """Deb's sort, scalar reference."""
    count = len(objectives)
    dominated_by: list[list[int]] = [[] for _ in range(count)]
    domination_count = [0] * count
    fronts: list[list[int]] = [[]]
    for p in range(count):
        for q in range(count):
            if p == q:
                continue
            if pareto_dominates(objectives[p], objectives[q]):
                dominated_by[p].append(q)
            elif pareto_dominates(objectives[q], objectives[p]):
                domination_count[p] += 1
        if domination_count[p] == 0:
            fronts[0].append(p)
    current = 0
    while fronts[current]:
        next_front: list[int] = []
        for p in fronts[current]:
            for q in dominated_by[p]:
                domination_count[q] -= 1
                if domination_count[q] == 0:
                    next_front.append(q)
        current += 1
        fronts.append(next_front)
    fronts.pop()  # trailing empty front
    return fronts


def crowding_distance_py(
    objectives: list[tuple[float, ...]], front: list[int]
) -> dict[int, float]:
    """Crowding distance, scalar reference."""
    distance = {i: 0.0 for i in front}
    if len(front) <= 2:
        return {i: float("inf") for i in front}
    dimension = len(objectives[front[0]])
    for axis in range(dimension):
        ordered = sorted(front, key=lambda i: objectives[i][axis])
        low = objectives[ordered[0]][axis]
        high = objectives[ordered[-1]][axis]
        distance[ordered[0]] = float("inf")
        distance[ordered[-1]] = float("inf")
        if high == low:
            continue
        for position in range(1, len(ordered) - 1):
            gap = (
                objectives[ordered[position + 1]][axis]
                - objectives[ordered[position - 1]][axis]
            )
            distance[ordered[position]] += gap / (high - low)
    return distance
