"""NSGA-II (Deb et al. 2002) over enumerated decision spaces.

Implements the canonical pieces — fast non-dominated sort, crowding
distance, binary tournament on (rank, crowding) — with variation
operators suited to an index-encoded discrete space: candidates are
integers, crossover blends indices, mutation jumps to a random index.
This matches how the paper's Multi-Objective Optimizer explores the
QEP/configuration space of Example 3.1 (where exhaustive evaluation of
18,200 configurations per query is exactly what one wants to avoid).

The sort and the crowding computation are numpy-native: the sort peels
fronts off a dominance-count matrix (one broadcast kernel, no Python
pair loop) and crowding is one stable argsort per axis.  Both reproduce
the original scalar implementations *exactly* — including the order in
which members enter a front and bitwise-identical crowding values — so
seeded runs are unchanged; the property suite checks both against the
scalar originals (``tests/moqp_oracles.py``).  Populations are evaluated
through :meth:`~repro.moqp.problem.EnumeratedProblem.objectives_matrix`,
one batched model prediction per generation, and each population's
(rank, crowding) is computed once and reused by the next tournament and
the final front extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.rng import RngStream
from repro.moqp.dominance import (
    DEFAULT_BLOCK_SIZE,
    objective_matrix,
    pareto_dominance_matrix,
)
from repro.moqp.problem import Candidate, EnumeratedProblem


@dataclass(frozen=True)
class Nsga2Config:
    population_size: int = 40
    generations: int = 30
    crossover_probability: float = 0.9
    mutation_probability: float = 0.15
    seed: int = 17


def _dominance_matrix(
    matrix: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE
) -> np.ndarray:
    """Full (n, n) ``D[i, j] = i pareto-dominates j``, built blockwise."""
    count = matrix.shape[0]
    dominates = np.empty((count, count), dtype=bool)
    for start in range(0, count, block_size):
        stop = min(start + block_size, count)
        dominates[start:stop] = pareto_dominance_matrix(matrix[start:stop], matrix)
    return dominates


def fast_non_dominated_sort(objectives: list[tuple[float, ...]]) -> list[list[int]]:
    """Deb's fast non-dominated sort: list of fronts (indices), best first.

    Vectorized peeling over a dominance-count matrix; within every front
    the member order replicates the scalar algorithm exactly (a point is
    appended when its *last* current-front dominator is processed, ties
    in index order), so downstream consumers that are order-sensitive —
    environmental selection, crowding ties — behave identically.
    Intended for population-scale inputs (it materialises an (n, n)
    matrix); exact fronts of huge spaces use
    :func:`~repro.moqp.pareto.pareto_front_indices` instead.
    """
    matrix = objective_matrix(objectives)
    count = matrix.shape[0]
    if count == 0:
        return []
    dominates = _dominance_matrix(matrix)
    counts = dominates.sum(axis=0).astype(np.int64)
    assigned = np.zeros(count, dtype=bool)
    front = np.flatnonzero(counts == 0)
    fronts: list[list[int]] = []
    while front.size:
        fronts.append([int(i) for i in front])
        assigned[front] = True
        in_front = dominates[front]  # (f, n)
        counts -= in_front.sum(axis=0)
        newly = np.flatnonzero(~assigned & (counts == 0))
        if newly.size:
            # Scalar append order: q enters when the last of its
            # dominators inside the current front is processed; equal
            # positions resolve in index order.
            columns = in_front[:, newly]
            last_dominator = (columns.shape[0] - 1) - np.argmax(
                columns[::-1], axis=0
            )
            newly = newly[np.lexsort((newly, last_dominator))]
        front = newly
    return fronts


def crowding_distance(
    objectives: list[tuple[float, ...]], front: list[int]
) -> dict[int, float]:
    """Crowding distance of each member of one front.

    One stable argsort per axis; arithmetic and tie handling match the
    scalar original operation for operation, so the values
    (and therefore tournament and truncation outcomes) are bitwise
    identical.
    """
    if len(front) <= 2:
        return {i: float("inf") for i in front}
    points = np.array([objectives[i] for i in front], dtype=float)
    size, dimension = points.shape
    distance = np.zeros(size)
    for axis in range(dimension):
        order = np.argsort(points[:, axis], kind="stable")
        low = points[order[0], axis]
        high = points[order[-1], axis]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if high == low:
            continue
        # inf neighbours yield the same inf/nan values the scalar loop
        # produces; only the numpy warning is suppressed.
        with np.errstate(invalid="ignore"):
            gaps = points[order[2:], axis] - points[order[:-2], axis]
            distance[order[1:-1]] += gaps / (high - low)
    return {member: float(distance[k]) for k, member in enumerate(front)}


def rank_and_crowding(
    objectives: list[tuple[float, ...]],
) -> tuple[dict[int, int], dict[int, float]]:
    """(rank, crowding) per position — one sort per population, reused by
    the tournament of the next generation and the final front cut."""
    rank: dict[int, int] = {}
    crowding: dict[int, float] = {}
    for front_rank, front in enumerate(fast_non_dominated_sort(objectives)):
        distances = crowding_distance(objectives, front)
        for member in front:
            rank[member] = front_rank
            crowding[member] = distances[member]
    return rank, crowding


class Nsga2:
    """NSGA-II over an :class:`EnumeratedProblem` (index encoding)."""

    def __init__(self, config: Nsga2Config | None = None):
        self.config = config or Nsga2Config()

    def optimise(self, problem: EnumeratedProblem) -> list[Candidate]:
        """Return the final population's first front (deduplicated)."""
        config = self.config
        rng = RngStream(config.seed, "nsga2")
        population_size = min(config.population_size, problem.size)

        population = list(
            int(i) for i in rng.choice(problem.size, size=population_size, replace=False)
        )
        # One batched evaluation per population/offspring set; the
        # per-population (rank, crowding) is computed once here and
        # reused by the tournament, instead of being recomputed inside
        # _make_offspring every generation.
        problem.objectives_matrix(population)
        rank, crowding = rank_and_crowding(
            [problem.objectives(i) for i in population]
        )
        for _generation in range(config.generations):
            offspring = self._make_offspring(population, rank, crowding, problem, rng)
            problem.objectives_matrix(offspring)  # one batch per generation
            population = self._environmental_selection(
                population + offspring, problem, population_size
            )
            rank, crowding = rank_and_crowding(
                [problem.objectives(i) for i in population]
            )

        first_front = [position for position, r in rank.items() if r == 0]
        unique: dict[int, Candidate] = {}
        for position in sorted(first_front):
            index = population[position]
            unique[index] = problem.evaluated(index)
        return list(unique.values())

    # ------------------------------------------------------------------

    def _make_offspring(
        self,
        population: list[int],
        rank: dict[int, int],
        crowding: dict[int, float],
        problem: EnumeratedProblem,
        rng: RngStream,
    ) -> list[int]:
        config = self.config

        def tournament() -> int:
            a, b = rng.integers(0, len(population), size=2)
            a, b = int(a), int(b)
            if rank[a] != rank[b]:
                return population[a] if rank[a] < rank[b] else population[b]
            return population[a] if crowding[a] >= crowding[b] else population[b]

        offspring: list[int] = []
        while len(offspring) < len(population):
            parent_a = tournament()
            parent_b = tournament()
            if rng.random() < config.crossover_probability:
                child = self._crossover(parent_a, parent_b, rng)
            else:
                child = parent_a
            if rng.random() < config.mutation_probability:
                child = int(rng.integers(0, problem.size))
            offspring.append(child)
        return offspring

    @staticmethod
    def _crossover(parent_a: int, parent_b: int, rng: RngStream) -> int:
        """Blend crossover on the index line (discrete arithmetic mix)."""
        low, high = sorted((parent_a, parent_b))
        return int(rng.integers(low, high + 1))

    @staticmethod
    def _environmental_selection(
        merged: list[int], problem: EnumeratedProblem, population_size: int
    ) -> list[int]:
        # Deduplicate candidate indices to keep diversity in a discrete
        # space.  Every member was already batch-evaluated this
        # generation (population at start/selection, offspring in the
        # loop), so these lookups are pure cache hits.
        merged = list(dict.fromkeys(merged))
        objectives = [problem.objectives(i) for i in merged]
        fronts = fast_non_dominated_sort(objectives)
        selected: list[int] = []
        for front in fronts:
            if len(selected) + len(front) <= population_size:
                selected.extend(front)
                continue
            distances = crowding_distance(objectives, front)
            remaining = sorted(front, key=lambda i: distances[i], reverse=True)
            selected.extend(remaining[: population_size - len(selected)])
            break
        return [merged[i] for i in selected]
