"""Pareto fronts and quality indicators.

The front computation is numpy-native (see :func:`pareto_front_indices`):
two objectives — every workload's (time, money) — take one lexicographic
sort and a grouped running minimum; three or more take a
sort-assisted sweep over blockwise dominance broadcasts.  The property
suite checks both point for point — duplicates, exact per-axis ties,
``±inf``, ``-0.0`` and NaN objectives included — against the original
pure-Python pairwise scan, which lives with the tests
(``tests/moqp_oracles.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.common.errors import ValidationError
from repro.moqp.dominance import (
    DEFAULT_BLOCK_SIZE,
    objective_matrix,
    pareto_dominance_matrix,
)


def pareto_front_indices(
    points: Sequence[Sequence[float]], block_size: int = DEFAULT_BLOCK_SIZE
) -> list[int]:
    """Indices of the non-dominated points (minimisation, duplicates kept).

    Two objectives resolve in one ``O(n log n)`` sweep
    (:func:`_front_2d`); ``block_size`` does not apply there.  Three or
    more are sort-assisted and memory-bounded: points are processed in
    lexicographic order (a pareto-dominator always precedes its victim
    there), in blocks of ``block_size``.  Each block is screened against
    the survivors found so far, then intra-block dominance is resolved
    with one small broadcast — peak scratch memory is
    ``O(block_size² · d)`` regardless of n.

    Returns ascending original indices, exactly matching the scalar
    pairwise scan.
    """
    matrix = objective_matrix(points)
    count = matrix.shape[0]
    if count == 0:
        return []
    if count == 1:
        return [0]
    if matrix.shape[1] == 2:
        return _front_2d(matrix)
    # Lexicographic order, first objective most significant: if q
    # pareto-dominates p then q precedes p here (componentwise <= with a
    # strict axis sorts strictly earlier), so a single forward sweep
    # sees every potential dominator before its victim.  Transitivity
    # lets the sweep compare against *surviving* points only.
    order = np.lexsort(matrix.T[::-1])
    survivor_rows: list[np.ndarray] = []
    survivor_indices: list[np.ndarray] = []
    for start in range(0, count, block_size):
        block_order = order[start : start + block_size]
        block = matrix[block_order]
        alive = np.ones(block.shape[0], dtype=bool)
        for rows in survivor_rows:
            if not alive.any():
                break
            alive[alive] &= ~pareto_dominance_matrix(rows, block[alive]).any(axis=0)
        kept = block[alive]
        if kept.shape[0]:
            # Intra-block pass: earlier-in-lex-order points are the only
            # possible dominators, but checking all pairs is equivalent
            # (a lex-later point never dominates) and needs no masking.
            internal = pareto_dominance_matrix(kept, kept).any(axis=0)
            kept = kept[~internal]
            survivor_rows.append(kept)
            survivor_indices.append(block_order[alive][~internal])
    merged = np.concatenate(survivor_indices)
    merged.sort()
    return [int(i) for i in merged]


def _front_2d(matrix: np.ndarray) -> list[int]:
    """The d = 2 front: one lexicographic sort, one grouped running minimum.

    A NaN row neither dominates nor is dominated (every comparison with
    NaN is false), so it is set aside and always kept.  The rest sorts
    by (x, y); a row is dominated when an earlier x-group reaches a y no
    greater than its own, or its own x-group a strictly smaller y.
    Groups split on ``!=`` (``inf - inf`` is NaN, so no ``np.diff``),
    and the earlier-group test is masked rather than seeded with
    ``+inf``, which would drop an ``(x, +inf)`` row of the first group.
    """
    x, y = matrix[:, 0], matrix[:, 1]
    nan = np.isnan(x) | np.isnan(y)
    rows = np.flatnonzero(~nan)
    order = rows[np.lexsort((y[rows], x[rows]))]
    xs, ys = x[order], y[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = xs[1:] != xs[:-1]
    group = np.cumsum(starts) - 1
    group_min = ys[starts]  # y ascends within a group
    earlier_min = np.minimum.accumulate(group_min)[group - 1]
    dominated = ((group > 0) & (earlier_min <= ys)) | (group_min[group] < ys)
    kept = np.concatenate([order[~dominated], np.flatnonzero(nan)])
    kept.sort()
    return kept.tolist()


def pareto_front(points: Sequence[Sequence[float]]) -> list[Sequence[float]]:
    """The non-dominated subset of ``points``."""
    return [points[i] for i in pareto_front_indices(points)]


def hypervolume_2d(
    points: Sequence[Sequence[float]], reference: Sequence[float]
) -> float:
    """Exact hypervolume for two objectives (minimisation).

    The area dominated by the front and bounded by ``reference``.  Points
    outside the reference box contribute nothing.
    """
    if len(reference) != 2:
        raise ValidationError("hypervolume_2d needs a 2-D reference point")
    front = [
        p
        for p in pareto_front(points)
        if p[0] < reference[0] and p[1] < reference[1]
    ]
    if not front:
        return 0.0
    ordered = sorted(set((p[0], p[1]) for p in front))
    volume = 0.0
    previous_y = reference[1]
    for x, y in ordered:
        if y < previous_y:
            volume += (reference[0] - x) * (previous_y - y)
            previous_y = y
    return volume


def spread_2d(points: Sequence[Sequence[float]]) -> float:
    """Extent of a 2-D front: the perimeter of its bounding box."""
    if not points:
        return 0.0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))
