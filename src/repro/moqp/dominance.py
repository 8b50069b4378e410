"""Plan dominance and Pareto regions (paper §2.3, Eq. 1-4).

Three granularities:

* **vector dominance** — compare two cost vectors (all metrics <=, resp. <);
* **matrix dominance** — the vectorized kernel behind the numpy-native
  NSGA sort and the d ≥ 3 Pareto front (two objectives take a sort
  sweep instead): pairwise dominance of whole point sets in a handful
  of broadcasts, blockwise so memory stays bounded at Example 3.1 scale
  (18,200 points);
* **parametric dominance** — the paper's ``Dom``/``StriDom``/``PaReg``
  operate over a *parameter space* X: plan costs are functions
  ``c_n(p, x)`` and the region where one plan dominates another is a
  subset of X.  We evaluate the regions over a caller-supplied sample of
  parameter vectors, which is exactly how a region would be used
  downstream (measure-theoretic exactness is not needed by the system).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.common.errors import ValidationError

CostFunction = Callable[[object, object], Sequence[float]]
# signature: (plan, parameter_vector) -> cost vector

#: Rows per broadcast block of the vectorized kernels: bounds peak
#: scratch memory at ~block² booleans per objective regardless of n.
DEFAULT_BLOCK_SIZE = 1024


def _check(a: Sequence[float], b: Sequence[float]) -> None:
    if len(a) != len(b):
        raise ValidationError(f"cost vectors differ in length: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValidationError("cost vectors must be non-empty")


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Eq. 1: every component of ``a`` <= the matching component of ``b``."""
    _check(a, b)
    return all(x <= y for x, y in zip(a, b))


def strictly_dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Eq. 3: every component strictly smaller."""
    _check(a, b)
    return all(x < y for x, y in zip(a, b))


def pareto_dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Standard Pareto dominance: <= everywhere and < somewhere."""
    _check(a, b)
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def objective_matrix(points: Sequence[Sequence[float]]) -> np.ndarray:
    """Validate ``points`` into an (n, d) float matrix.

    Mirrors :func:`_check` for whole point sets: ragged rows raise the
    same :class:`ValidationError` a pairwise length mismatch would, and a
    non-empty set of zero-length vectors is rejected.
    """
    try:
        matrix = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"cost vectors are not rectangular: {exc}") from None
    if matrix.size == 0 and matrix.ndim <= 1 and len(points) == 0:
        return matrix.reshape(0, 0)
    if matrix.ndim != 2:
        raise ValidationError(
            f"cost vectors are not rectangular: got array shape {matrix.shape}"
        )
    if matrix.shape[1] == 0 and matrix.shape[0] > 1:
        raise ValidationError("cost vectors must be non-empty")
    return matrix


def pareto_dominance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (n, m) boolean matrix ``D[i, j] = a_i pareto-dominates b_j``.

    ``a`` is (n, d), ``b`` is (m, d); one broadcast per comparison
    operator, no Python-level pair loop.  Semantics match
    :func:`pareto_dominates` exactly, including ``inf`` components
    (``inf <= inf`` holds, ``inf < inf`` does not) and NaN components
    (every comparison false: a NaN row neither dominates nor is
    dominated).
    """
    left = a[:, None, :]
    right = b[None, :, :]
    return (left <= right).all(axis=-1) & (left < right).any(axis=-1)


def dominated_by_any(
    points: np.ndarray,
    others: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Boolean mask: ``points[j]`` is pareto-dominated by some ``others[i]``.

    Blockwise over both operands, so peak scratch memory is
    ``O(block_size² · d)`` however large the point sets get.  A
    standalone dominance query for downstream consumers;
    :func:`~repro.moqp.pareto.pareto_front_indices` does not route
    through it: two objectives take a sort sweep with no broadcast, and
    three or more interleave the same broadcast kernel with a
    lexicographic sweep.
    """
    points = np.asarray(points, dtype=float)
    others = np.asarray(others, dtype=float)
    dominated = np.zeros(points.shape[0], dtype=bool)
    if others.shape[0] == 0 or points.shape[0] == 0:
        return dominated
    for start in range(0, points.shape[0], block_size):
        stop = min(start + block_size, points.shape[0])
        block = points[start:stop]
        hit = np.zeros(stop - start, dtype=bool)
        for other_start in range(0, others.shape[0], block_size):
            other_stop = min(other_start + block_size, others.shape[0])
            alive = ~hit
            if not alive.any():
                break
            hit[alive] |= pareto_dominance_matrix(
                others[other_start:other_stop], block[alive]
            ).any(axis=0)
        dominated[start:stop] = hit
    return dominated


def dominance_region(
    plan_a,
    plan_b,
    parameter_samples: Sequence,
    cost_function: CostFunction,
) -> list:
    """``Dom(p1, p2)`` (Eq. 2): samples of X where p1 dominates p2."""
    return [
        x
        for x in parameter_samples
        if dominates(cost_function(plan_a, x), cost_function(plan_b, x))
    ]


def strict_dominance_region(
    plan_a,
    plan_b,
    parameter_samples: Sequence,
    cost_function: CostFunction,
) -> list:
    """``StriDom(p1, p2)`` (Eq. 3): samples where p1 strictly dominates p2."""
    return [
        x
        for x in parameter_samples
        if strictly_dominates(cost_function(plan_a, x), cost_function(plan_b, x))
    ]


def pareto_region(
    plan,
    alternatives: Sequence,
    parameter_samples: Sequence,
    cost_function: CostFunction,
) -> list:
    """``PaReg(p)`` (Eq. 4): X minus every StriDom(p*, p).

    The samples where *no* alternative plan strictly beats ``plan`` on
    every metric.
    """
    region = []
    for x in parameter_samples:
        own = cost_function(plan, x)
        beaten = any(
            strictly_dominates(cost_function(alternative, x), own)
            for alternative in alternatives
            if alternative is not plan
        )
        if not beaten:
            region.append(x)
    return region
