"""Scalar-vs-vectorized equivalence for the numpy-native MOQP engine.

The vectorized kernels (`pareto_front_indices`, `fast_non_dominated_sort`,
`crowding_distance`, `grid_cells`) must reproduce their scalar oracles
(``tests/moqp_oracles.py``, plus ``grid_cell``) *exactly* — same indices, same front order, bitwise-identical
crowding — over point clouds with duplicates, exact per-axis ties,
single-point and all-identical fronts, ``±inf`` objectives (the
``prediction_error`` inf sentinel can reach objective space), ``-0.0``
and NaN.  Two-objective fronts take the sort sweep and three-objective
ones the block kernel; both are checked.  Seeded
NSGA-II / NSGA-G runs must return fronts identical to the pre-PR scalar
implementations, which are embedded here verbatim as oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ValidationError
from repro.common.rng import RngStream
from repro.moqp import (
    Candidate,
    EnumeratedProblem,
    Nsga2,
    Nsga2Config,
    NsgaG,
    NsgaGConfig,
    dominated_by_any,
    pareto_dominance_matrix,
    pareto_front_indices,
)
from repro.moqp.dominance import pareto_dominates
from repro.moqp.nsga2 import crowding_distance, fast_non_dominated_sort
from repro.moqp.nsga_g import grid_cell, grid_cells
from repro.moqp.pareto import hypervolume_2d, spread_2d
from tests.moqp_oracles import (
    crowding_distance_py,
    fast_non_dominated_sort_py,
    pareto_front_indices_py,
)

INF = float("inf")

# Coordinates drawn from a small grid force duplicates and exact
# per-axis ties; the explicit inf alternative injects the PR 3 sentinel.
coordinate = st.one_of(
    st.integers(min_value=0, max_value=4).map(float),
    st.floats(min_value=0, max_value=100, allow_nan=False),
    st.just(INF),
)
clouds = st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.lists(
        st.tuples(*([coordinate] * d)), min_size=1, max_size=40
    )
)
# The full IEEE edge set: NaN (never dominates, never dominated), both
# infinities and a signed zero that must compare equal to 0.0.
NAN = float("nan")
edge_coordinate = st.one_of(
    coordinate, st.sampled_from([NAN, -INF, -0.0, 0.0])
)


def edge_clouds(d: int):
    return st.lists(st.tuples(*([edge_coordinate] * d)), min_size=1, max_size=40)


class TestParetoFrontEquivalence:
    @given(clouds)
    @settings(max_examples=200)
    def test_matches_scalar_oracle(self, points):
        assert pareto_front_indices(points) == pareto_front_indices_py(points)

    @given(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=60))
    def test_blocked_scan_matches_oracle(self, points):
        # A tiny block size exercises the block boundaries hard.
        assert (
            pareto_front_indices(points, block_size=3)
            == pareto_front_indices_py(points)
        )

    @given(st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=1, max_size=60))
    def test_blocked_scan_matches_oracle_3d(self, points):
        # Two objectives take the sort sweep; three keep the block kernel,
        # whose block boundaries a tiny block size exercises hard.
        assert (
            pareto_front_indices(points, block_size=3)
            == pareto_front_indices_py(points)
        )

    @given(st.integers(min_value=2, max_value=3).flatmap(edge_clouds))
    @settings(max_examples=400)
    def test_matches_oracle_with_nan_inf_signed_zero(self, points):
        # d = 2 takes the sort sweep, d = 3 the block kernel.
        assert pareto_front_indices(points) == pareto_front_indices_py(points)

    def test_plus_inf_in_lowest_x_group_kept(self):
        # Seeding the earlier-group minimum with +inf would drop (0, inf):
        # nothing has a smaller x, and nothing in its group a smaller y.
        points = [(0.0, INF), (1.0, 5.0), (1.0, INF)]
        assert pareto_front_indices(points) == pareto_front_indices_py(points) == [0, 1]

    def test_all_nan_cloud_all_kept(self):
        points = [(NAN, NAN), (NAN, 1.0), (2.0, NAN)]
        assert pareto_front_indices(points) == pareto_front_indices_py(points) == [0, 1, 2]

    def test_nan_mixed_with_duplicates_of_front_point(self):
        points = [(1.0, 1.0), (NAN, 0.0), (1.0, 1.0), (2.0, 2.0), (0.0, NAN), (1.0, 1.0)]
        assert (
            pareto_front_indices(points)
            == pareto_front_indices_py(points)
            == [0, 1, 2, 4, 5]
        )

    def test_single_x_group(self):
        points = [(3.0, 4.0), (3.0, 2.0), (3.0, 2.0), (3.0, INF), (-0.0, 2.0)]
        assert pareto_front_indices(points) == pareto_front_indices_py(points)
        assert pareto_front_indices(points[:4]) == pareto_front_indices_py(points[:4]) == [1, 2]

    def test_empty(self):
        assert pareto_front_indices([]) == []

    def test_single_point(self):
        assert pareto_front_indices([(3, 3)]) == [0]

    def test_all_identical_points_all_kept(self):
        points = [(2.0, 2.0)] * 7
        assert pareto_front_indices(points) == list(range(7))
        assert pareto_front_indices_py(points) == list(range(7))

    def test_duplicates_on_front_kept(self):
        points = [(1, 1), (1, 1), (2, 2)]
        assert pareto_front_indices(points) == [0, 1]

    def test_exact_ties_per_axis(self):
        points = [(1, 5), (1, 4), (1, 4), (2, 4), (0, 6)]
        assert pareto_front_indices(points) == pareto_front_indices_py(points)

    def test_inf_objectives(self):
        points = [(INF, 0.0), (0.0, INF), (INF, INF), (1.0, 1.0), (INF, 0.0)]
        assert pareto_front_indices(points) == pareto_front_indices_py(points)

    def test_ragged_rejected(self):
        with pytest.raises(ValidationError):
            pareto_front_indices([(1.0, 2.0), (1.0,), (0.0, 0.0)])

    def test_empty_vectors_rejected(self):
        with pytest.raises(ValidationError):
            pareto_front_indices([(), ()])

    def test_single_empty_vector_matches_oracle(self):
        # The scalar oracle never compares a lone point, so a single
        # zero-length vector passes; with two or more it raises.  The
        # vectorized path mirrors that contract exactly.
        assert pareto_front_indices([()]) == pareto_front_indices_py([()]) == [0]
        with pytest.raises(ValidationError):
            pareto_front_indices_py([(), ()])

    def test_example31_scale_front(self):
        # A deterministic pseudo-cost surface over a big grid: the
        # vectorized scan at thousands of points equals the O(n²) oracle.
        rng = np.random.default_rng(7)
        n = 3000
        vcpus = rng.integers(1, 71, size=n).astype(float)
        memory = rng.integers(1, 261, size=n).astype(float)
        time = 100.0 / vcpus + 2.0 / memory
        money = 0.05 * vcpus + 0.01 * memory
        points = list(zip(time.tolist(), money.tolist()))
        assert pareto_front_indices(points) == pareto_front_indices_py(points)


class TestDominanceKernel:
    @given(clouds)
    @settings(max_examples=100)
    def test_matrix_matches_pairwise(self, points):
        matrix = np.asarray(points, dtype=float).reshape(len(points), -1)
        kernel = pareto_dominance_matrix(matrix, matrix)
        for i, a in enumerate(points):
            for j, b in enumerate(points):
                assert kernel[i, j] == pareto_dominates(a, b)

    def test_dominated_by_any_blockwise(self):
        rng = np.random.default_rng(3)
        points = rng.integers(0, 5, size=(57, 2)).astype(float)
        expected = np.array(
            [
                any(
                    pareto_dominates(tuple(o), tuple(p))
                    for k, o in enumerate(points)
                    if k != j
                )
                for j, p in enumerate(points)
            ]
        )
        # Self-pairs never dominate, so others == points is safe.
        got = dominated_by_any(points, points, block_size=5)
        assert np.array_equal(got, expected)


class TestSortEquivalence:
    @given(clouds)
    @settings(max_examples=200)
    def test_fronts_and_order_match_scalar(self, points):
        assert fast_non_dominated_sort(points) == fast_non_dominated_sort_py(points)

    @given(st.integers(min_value=2, max_value=3).flatmap(edge_clouds))
    @settings(max_examples=150)
    def test_matches_scalar_with_nan_inf_signed_zero(self, points):
        assert fast_non_dominated_sort(points) == fast_non_dominated_sort_py(points)

    def test_empty(self):
        assert fast_non_dominated_sort([]) == []

    def test_known_layers(self):
        objectives = [(1, 1), (2, 2), (1, 2), (2, 1), (3, 3)]
        fronts = fast_non_dominated_sort(objectives)
        assert fronts == fast_non_dominated_sort_py(objectives)
        assert fronts[0] == [0]

    def test_front_order_depends_on_last_dominator(self):
        # Crafted so a later index enters the next front before an
        # earlier one — the scalar append-order quirk the vectorized
        # sort must replicate.
        objectives = [(0.0, 3.0), (3.0, 0.0), (4.0, 1.0), (1.0, 4.0)]
        assert (
            fast_non_dominated_sort(objectives)
            == fast_non_dominated_sort_py(objectives)
        )


class TestCrowdingEquivalence:
    @given(clouds)
    @settings(max_examples=100)
    def test_bitwise_identical_per_front(self, points):
        for front in fast_non_dominated_sort_py(points):
            fast = crowding_distance(points, front)
            slow = crowding_distance_py(points, front)
            assert set(fast) == set(slow)
            for member in fast:
                a, b = fast[member], slow[member]
                assert a == b or (np.isnan(a) and np.isnan(b))

    def test_small_fronts_all_infinite(self):
        points = [(0.0, 1.0), (1.0, 0.0)]
        assert crowding_distance(points, [0, 1]) == {0: INF, 1: INF}

    def test_degenerate_axis_skipped(self):
        points = [(0.0, 5.0), (1.0, 5.0), (2.0, 5.0), (3.0, 5.0)]
        front = [0, 1, 2, 3]
        assert crowding_distance(points, front) == crowding_distance_py(points, front)


class TestGridCells:
    @given(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=30))
    def test_matches_scalar_grid_cell(self, points):
        finite = [p for p in points if all(np.isfinite(v) for v in p)]
        if not finite:
            return
        matrix = np.asarray(finite, dtype=float)
        lows = [min(p[axis] for p in finite) for axis in range(2)]
        highs = [max(p[axis] for p in finite) for axis in range(2)]
        cells = grid_cells(matrix, np.asarray(lows), np.asarray(highs), 8)
        for row, point in zip(map(tuple, cells.tolist()), finite):
            assert row == grid_cell(point, lows, highs, 8)

    def test_inf_objectives_clamped_deterministically(self):
        # The scalar grid_cell raises on float('inf') -> int; the
        # vectorized path clamps instead: +inf lands in the top cell.
        points = np.array([[1.0, 2.0], [INF, 3.0], [2.0, INF], [3.0, 1.0]])
        lows = points.min(axis=0)
        highs = points.max(axis=0)  # inf highs -> inf spans
        cells = grid_cells(points, lows, highs, 8)
        assert cells[1, 0] == 7 and cells[2, 1] == 7
        assert cells[0, 0] == 0 and cells[3, 1] == 0
        assert cells.min() >= 0 and cells.max() <= 7

    def test_inf_objectives_finite_span_clamped(self):
        points = np.array([[1.0, 0.0], [INF, 1.0], [2.0, 2.0]])
        cells = grid_cells(
            points, np.array([1.0, 0.0]), np.array([2.0, 2.0]), 4
        )
        assert cells[1, 0] == 3  # +inf over a finite span -> top cell
        assert cells.min() >= 0 and cells.max() <= 3


# ---------------------------------------------------------------------------
# Pre-PR NSGA implementations, embedded verbatim as seeded-run oracles.
# ---------------------------------------------------------------------------


class _OracleNsga2:
    """The scalar NSGA-II exactly as it was before vectorization."""

    def __init__(self, config):
        self.config = config

    def optimise(self, problem):
        config = self.config
        rng = RngStream(config.seed, "nsga2")
        population_size = min(config.population_size, problem.size)
        population = list(
            int(i)
            for i in rng.choice(problem.size, size=population_size, replace=False)
        )
        for _generation in range(config.generations):
            offspring = self._make_offspring(population, problem, rng)
            population = self._environmental_selection(
                population + offspring, problem, population_size
            )
        objectives = [problem.objectives(i) for i in population]
        first_front = fast_non_dominated_sort_py(objectives)[0]
        unique = {}
        for position in first_front:
            index = population[position]
            unique[index] = problem.evaluated(index)
        return list(unique.values())

    def _make_offspring(self, population, problem, rng):
        config = self.config
        objectives = [problem.objectives(i) for i in population]
        fronts = fast_non_dominated_sort_py(objectives)
        rank = {}
        crowding = {}
        for front_rank, front in enumerate(fronts):
            distances = crowding_distance_py(objectives, front)
            for member in front:
                rank[member] = front_rank
                crowding[member] = distances[member]

        def tournament():
            a, b = rng.integers(0, len(population), size=2)
            a, b = int(a), int(b)
            if rank[a] != rank[b]:
                return population[a] if rank[a] < rank[b] else population[b]
            return population[a] if crowding[a] >= crowding[b] else population[b]

        offspring = []
        while len(offspring) < len(population):
            parent_a = tournament()
            parent_b = tournament()
            if rng.random() < config.crossover_probability:
                low, high = sorted((parent_a, parent_b))
                child = int(rng.integers(low, high + 1))
            else:
                child = parent_a
            if rng.random() < config.mutation_probability:
                child = int(rng.integers(0, problem.size))
            offspring.append(child)
        return offspring

    @staticmethod
    def _environmental_selection(merged, problem, population_size):
        merged = list(dict.fromkeys(merged))
        objectives = [problem.objectives(i) for i in merged]
        fronts = fast_non_dominated_sort_py(objectives)
        selected = []
        for front in fronts:
            if len(selected) + len(front) <= population_size:
                selected.extend(front)
                continue
            distances = crowding_distance_py(objectives, front)
            remaining = sorted(front, key=lambda i: distances[i], reverse=True)
            selected.extend(remaining[: population_size - len(selected)])
            break
        return [merged[i] for i in selected]


class _OracleNsgaG:
    """The scalar NSGA-G exactly as it was before vectorization."""

    def __init__(self, config):
        self.config = config

    def optimise(self, problem):
        config = self.config
        rng = RngStream(config.seed, "nsga-g")
        population_size = min(config.population_size, problem.size)
        population = list(
            int(i)
            for i in rng.choice(problem.size, size=population_size, replace=False)
        )
        for _generation in range(config.generations):
            offspring = self._make_offspring(population, problem, rng)
            population = self._grid_selection(
                population + offspring, problem, population_size, rng
            )
        objectives = [problem.objectives(i) for i in population]
        first = fast_non_dominated_sort_py(objectives)[0]
        unique = {}
        for position in first:
            unique[population[position]] = problem.evaluated(population[position])
        return list(unique.values())

    def _make_offspring(self, population, problem, rng):
        config = self.config
        objectives = [problem.objectives(i) for i in population]
        fronts = fast_non_dominated_sort_py(objectives)
        rank = {}
        for front_rank, front in enumerate(fronts):
            for member in front:
                rank[member] = front_rank

        def tournament():
            a, b = (int(x) for x in rng.integers(0, len(population), size=2))
            return population[a] if rank[a] <= rank[b] else population[b]

        offspring = []
        while len(offspring) < len(population):
            parent_a, parent_b = tournament(), tournament()
            if rng.random() < config.crossover_probability:
                low, high = sorted((parent_a, parent_b))
                child = int(rng.integers(low, high + 1))
            else:
                child = parent_a
            if rng.random() < config.mutation_probability:
                child = int(rng.integers(0, problem.size))
            offspring.append(child)
        return offspring

    def _grid_selection(self, merged, problem, population_size, rng):
        merged = list(dict.fromkeys(merged))
        objectives = [problem.objectives(i) for i in merged]
        fronts = fast_non_dominated_sort_py(objectives)
        selected = []
        for front in fronts:
            if len(selected) + len(front) <= population_size:
                selected.extend(front)
                continue
            needed = population_size - len(selected)
            selected.extend(self._pick_from_grid(front, objectives, needed, rng))
            break
        return [merged[i] for i in selected]

    def _pick_from_grid(self, front, objectives, needed, rng):
        dimension = len(objectives[front[0]])
        lows = [min(objectives[i][axis] for i in front) for axis in range(dimension)]
        highs = [max(objectives[i][axis] for i in front) for axis in range(dimension)]
        cells = {}
        for member in front:
            key = grid_cell(objectives[member], lows, highs, self.config.grid_divisions)
            cells.setdefault(key, []).append(member)
        for members in cells.values():
            rng.shuffle(members)
        picked = []
        ordered_cells = sorted(cells.values(), key=len)
        while len(picked) < needed:
            progressed = False
            for members in ordered_cells:
                if members:
                    picked.append(members.pop())
                    progressed = True
                    if len(picked) == needed:
                        break
            if not progressed:
                break
        return picked


def rugged_problem(size: int = 300) -> EnumeratedProblem:
    """A discrete biobjective problem with duplicates and plateaus."""

    def evaluate(i: int):
        x = i / (size - 1)
        # Quantised second objective: exact ties across many candidates.
        rough = round((1 - x**0.5) ** 2 * 8) / 8 + 0.002 * ((i * 7919) % 13)
        return (round(x * 50) / 50, rough)

    return EnumeratedProblem(list(range(size)), evaluate, 2)


def matrix_backed(size: int = 300) -> EnumeratedProblem:
    """Same surface as :func:`rugged_problem`, via the batch backend."""
    scalar = rugged_problem(size)

    def evaluate_batch(indices):
        return np.array([scalar._evaluate(i) for i in indices], dtype=float)

    return EnumeratedProblem(
        list(range(size)), scalar._evaluate, 2, evaluate_batch=evaluate_batch
    )


class TestSeededNsgaEquivalence:
    @pytest.mark.parametrize("seed", [3, 17, 99])
    def test_nsga2_fronts_identical_to_pre_pr(self, seed):
        config = Nsga2Config(population_size=24, generations=20, seed=seed)
        new = Nsga2(config).optimise(matrix_backed())
        old = _OracleNsga2(config).optimise(rugged_problem())
        assert [(c.payload, c.objectives) for c in new] == [
            (c.payload, c.objectives) for c in old
        ]

    @pytest.mark.parametrize("seed", [9, 23, 51])
    def test_nsga_g_fronts_identical_to_pre_pr(self, seed):
        config = NsgaGConfig(population_size=24, generations=20, seed=seed)
        new = NsgaG(config).optimise(matrix_backed())
        old = _OracleNsgaG(config).optimise(rugged_problem())
        assert [(c.payload, c.objectives) for c in new] == [
            (c.payload, c.objectives) for c in old
        ]

    def test_nsga2_scalar_problem_unchanged(self):
        # Problems without a batch backend still work and still match.
        config = Nsga2Config(population_size=16, generations=12, seed=5)
        new = Nsga2(config).optimise(rugged_problem())
        old = _OracleNsga2(config).optimise(rugged_problem())
        assert [c.payload for c in new] == [c.payload for c in old]


class TestEnumeratedProblemMatrixBackend:
    def test_objectives_matrix_batches_and_caches(self):
        calls = []

        def evaluate_batch(indices):
            calls.append(list(indices))
            return np.array([[float(i), float(-i)] for i in indices])

        problem = EnumeratedProblem(
            list(range(10)), lambda i: (float(i), float(-i)), 2,
            evaluate_batch=evaluate_batch,
        )
        matrix = problem.objectives_matrix([3, 1, 3, 7])
        assert matrix.shape == (4, 2)
        assert calls == [[3, 1, 7]]  # deduplicated, order-preserving
        assert problem.evaluation_count == 3
        # Cache hits: no second batch call, scalar lookups agree.
        problem.objectives_matrix([1, 7])
        assert calls == [[3, 1, 7]]
        assert problem.objectives(3) == (3.0, -3.0)

    def test_single_objective_routes_through_batch(self):
        calls = []

        def evaluate_batch(indices):
            calls.append(list(indices))
            return np.array([[float(i)] for i in indices])

        problem = EnumeratedProblem(
            [0, 1, 2], lambda i: (float(i),), 1, evaluate_batch=evaluate_batch
        )
        assert problem.objectives(2) == (2.0,)
        assert calls == [[2]]
        assert all(isinstance(v, float) for v in problem.objectives(2))

    def test_bad_batch_shape_rejected(self):
        problem = EnumeratedProblem(
            [0, 1], lambda i: (1.0, 2.0), 2,
            evaluate_batch=lambda indices: np.zeros((len(list(indices)), 3)),
        )
        with pytest.raises(ValidationError):
            problem.objectives_matrix([0, 1])

    def test_scalar_fallback_without_backend(self):
        problem = EnumeratedProblem([0, 1, 2], lambda i: (float(i), 1.0), 2)
        matrix = problem.objectives_matrix([2, 0])
        assert matrix.tolist() == [[2.0, 1.0], [0.0, 1.0]]
        assert problem.evaluation_count == 2

    def test_evaluate_all_uses_batch(self):
        calls = []

        def evaluate_batch(indices):
            calls.append(list(indices))
            return np.array([[float(i), 0.0] for i in indices])

        problem = EnumeratedProblem(
            list(range(5)), lambda i: (float(i), 0.0), 2,
            evaluate_batch=evaluate_batch,
        )
        evaluated = problem.evaluate_all()
        assert len(evaluated) == 5
        assert calls == [[0, 1, 2, 3, 4]]
        assert all(isinstance(c, Candidate) for c in evaluated)


class TestDegenerateIndicators:
    def test_hypervolume_single_point_front(self):
        assert hypervolume_2d([(1, 1)], (2, 2)) == pytest.approx(1.0)

    def test_hypervolume_all_identical_front(self):
        assert hypervolume_2d([(1, 1)] * 5, (2, 2)) == pytest.approx(1.0)

    def test_hypervolume_degenerate_vertical_front(self):
        # All x equal: only the lowest-y point contributes area.
        assert hypervolume_2d([(1, 0), (1, 1), (1, 2)], (2, 3)) == pytest.approx(3.0)

    def test_hypervolume_inf_point_contributes_nothing(self):
        assert hypervolume_2d([(INF, 0.0), (0.0, INF)], (1.0, 1.0)) == 0.0

    def test_hypervolume_empty(self):
        assert hypervolume_2d([], (1.0, 1.0)) == 0.0

    def test_spread_degenerate_fronts(self):
        assert spread_2d([]) == 0.0
        assert spread_2d([(3.0, 4.0)]) == 0.0
        assert spread_2d([(1.0, 1.0)] * 4) == 0.0
        assert spread_2d([(0.0, 0.0), (2.0, 3.0)]) == pytest.approx(5.0)

    def test_spread_inf_front_is_inf(self):
        assert spread_2d([(0.0, 0.0), (INF, 1.0)]) == INF
