"""Multi-Objective Query Processing (MOQP).

Implements the paper's §2.3 formalism (plan dominance, Pareto regions),
the optimizers it discusses — NSGA-II [10], the authors' grid-based
NSGA-G [22], and the Weighted Sum Model [17] — plus ``BestInPareto``
(Algorithm 2), the final plan-selection step.
"""

from repro.moqp.dominance import (
    dominates,
    strictly_dominates,
    dominance_region,
    strict_dominance_region,
    pareto_region,
    pareto_dominance_matrix,
    dominated_by_any,
)
from repro.moqp.pareto import (
    pareto_front_indices,
    pareto_front,
    hypervolume_2d,
    spread_2d,
)
from repro.moqp.problem import Candidate, EnumeratedProblem
from repro.moqp.nsga2 import Nsga2, Nsga2Config
from repro.moqp.nsga_g import NsgaG, NsgaGConfig
from repro.moqp.wsm import WeightedSumModel, normalise_objectives
from repro.moqp.selection import best_in_pareto

__all__ = [
    "dominates",
    "strictly_dominates",
    "dominance_region",
    "strict_dominance_region",
    "pareto_region",
    "pareto_dominance_matrix",
    "dominated_by_any",
    "pareto_front_indices",
    "pareto_front",
    "hypervolume_2d",
    "spread_2d",
    "Candidate",
    "EnumeratedProblem",
    "Nsga2",
    "Nsga2Config",
    "NsgaG",
    "NsgaGConfig",
    "WeightedSumModel",
    "normalise_objectives",
    "best_in_pareto",
]
