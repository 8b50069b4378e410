"""IReS Multi-Objective Optimizer (Figure 1, third box; Figure 3 left).

Predicts the cost vector of every candidate QEP with the Modelling
module's fitted model and computes a Pareto plan set — exhaustively when
the space is small, with NSGA-II (or NSGA-G) when it is large (Example
3.1 scale).  ``choose`` applies Algorithm 2 to pick the final plan under
the user policy.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.common.errors import EstimationError, ValidationError
from repro.ires.enumerator import QepCandidate, QepSpace
from repro.ires.modelling import FittedCostModel
from repro.ires.policy import UserPolicy
from repro.moqp.nsga2 import Nsga2, Nsga2Config
from repro.moqp.nsga_g import NsgaG, NsgaGConfig
from repro.moqp.pareto import pareto_front_indices
from repro.moqp.problem import Candidate, EnumeratedProblem
from repro.moqp.selection import best_in_pareto


#: Default candidate-count ceiling for exhaustive Pareto search.  The
#: vectorized front scan handles the full Example 3.1 space (70 vCPU x
#: 260 GB = 18,200 equivalent QEPs) in milliseconds, so the default
#: comfortably covers it; genetic fallback is for spaces beyond that.
DEFAULT_EXACT_LIMIT = 32_768


@dataclass(frozen=True)
class ParetoSearch:
    """A Pareto plan set plus how it was actually computed.

    The ``exact -> nsga2`` degradation above ``exact_limit`` used to be
    silent; ``algorithm_used`` (and the ``exact_fallback`` flag) make it
    observable all the way up to :class:`SubmissionReport`.  A pinned
    session hands one search to every report on its query instance, so
    the set is a tuple: no report can change another's.
    """

    pareto_set: tuple[Candidate, ...]
    #: Algorithm the configuration asked for.
    algorithm: str
    #: Algorithm that actually ran ("exact", "nsga2" or "nsga-g").
    algorithm_used: str
    candidate_count: int

    @property
    def exact_fallback(self) -> bool:
        return self.algorithm_used != self.algorithm


@dataclass(frozen=True)
class OptimizerConfig:
    #: "exact", "nsga2" or "nsga-g".
    algorithm: str = "exact"
    #: Candidate-count threshold above which "exact" falls back to NSGA-II.
    exact_limit: int = DEFAULT_EXACT_LIMIT
    nsga2: Nsga2Config = Nsga2Config()
    nsga_g: NsgaGConfig = NsgaGConfig()

    def __post_init__(self):
        if self.algorithm not in ("exact", "nsga2", "nsga-g"):
            raise ValidationError(f"unknown algorithm {self.algorithm!r}")


class MultiObjectiveOptimizer:
    """Pareto-set construction + Algorithm 2 selection."""

    def __init__(self, config: OptimizerConfig | None = None):
        self.config = config or OptimizerConfig()

    def build_problem(
        self,
        candidates: Sequence[QepCandidate],
        cost_model: FittedCostModel,
        metrics: tuple[str, ...],
        features_matrix: np.ndarray | None = None,
    ) -> EnumeratedProblem:
        """An :class:`EnumeratedProblem` with a matrix evaluation backend.

        Populations evaluate through one ``predict_matrix`` call over the
        candidates' feature rows (``features_matrix`` optionally supplies
        them precomputed, row-aligned with ``candidates``); the scalar
        per-candidate path is retained as the equivalence oracle and for
        problems built elsewhere.
        """
        model = cost_model.model

        def evaluate(candidate: QepCandidate):
            prediction = cost_model.predict(
                model.features_dict_to_vector(candidate.features)
            )
            return tuple(prediction[metric] for metric in metrics)

        if features_matrix is None:
            features = self.candidate_matrix(candidates, cost_model)
        else:
            features = self._checked_features(candidates, features_matrix)

        def evaluate_batch(indices):
            return model.predict_matrix(features[list(indices)], metrics)

        return EnumeratedProblem(
            candidates, evaluate, len(metrics), evaluate_batch=evaluate_batch
        )

    @staticmethod
    def candidate_matrix(
        candidates: Sequence[QepCandidate], cost_model: FittedCostModel
    ) -> np.ndarray:
        """The (n, L) feature matrix of a candidate set, C-contiguous, in
        the model's feature order.

        A :class:`QepSpace` fills it column by column from its execution
        options' prefixes and its node-count grid, without building a
        candidate; a row whose candidate has already built its
        ``features`` is read from that dict, which its caller may have
        changed.  Any other sequence is read one candidate dict at a
        time.  A serving layer that re-costs the same QEP space every
        burst should build this once and pass it back in through
        ``features_matrix=``.
        """
        if not candidates:  # same contract as EnumeratedProblem
            raise ValidationError("problem needs at least one candidate")
        model = cost_model.model
        if not isinstance(candidates, QepSpace):
            return np.array(
                [model.features_dict_to_vector(c.features) for c in candidates],
                dtype=float,
            ).reshape(len(candidates), -1)
        grid = candidates.grid
        prefixes = [prefix for _placement, prefix in candidates.options]
        matrix = np.empty((len(candidates), len(model.feature_names)))
        for j, name in enumerate(model.feature_names):
            column = grid.columns.get(name)
            if column is not None:
                matrix[:, j] = np.tile(grid.values[:, column], len(prefixes))
                continue
            try:
                values = [prefix[name] for prefix in prefixes]
            except KeyError:
                raise EstimationError(f"missing feature {name!r}") from None
            matrix[:, j] = np.repeat(values, len(grid))
        for i, features in candidates.built_features():
            matrix[i] = model.features_dict_to_vector(features)
        return matrix

    @staticmethod
    def _checked_features(
        candidates: Sequence[QepCandidate], features_matrix: np.ndarray
    ) -> np.ndarray:
        if not candidates:  # same contract as EnumeratedProblem
            raise ValidationError("problem needs at least one candidate")
        features = np.asarray(features_matrix, dtype=float)
        if features.shape[0] != len(candidates):
            raise ValidationError(
                f"features_matrix has {features.shape[0]} rows for "
                f"{len(candidates)} candidates"
            )
        return features

    def pareto_search(
        self,
        candidates: Sequence[QepCandidate],
        cost_model: FittedCostModel,
        metrics: tuple[str, ...],
        features_matrix: np.ndarray | None = None,
    ) -> ParetoSearch:
        """Pareto-set construction with provenance of the algorithm used.

        ``"exact"`` above ``exact_limit`` candidates degrades to NSGA-II;
        the outcome records that (``algorithm_used``/``exact_fallback``)
        instead of hiding it.  The precomputed ``features_matrix`` is
        threaded through every path — the exhaustive scan and the
        genetic problems alike evaluate through one matrix prediction.
        """
        requested = self.config.algorithm
        algorithm = requested
        if algorithm == "exact" and len(candidates) > self.config.exact_limit:
            algorithm = "nsga2"
        if algorithm == "exact":
            if features_matrix is None:
                features = self.candidate_matrix(candidates, cost_model)
            else:
                features = self._checked_features(candidates, features_matrix)
            # One prediction for the whole space; only the front is
            # wrapped as Candidates, the rest stay matrix rows.
            objectives = cost_model.model.predict_matrix(features, metrics)
            pareto = tuple(
                Candidate(candidates[i], tuple(map(float, objectives[i])))
                for i in pareto_front_indices(objectives)
            )
        else:
            problem = self.build_problem(
                candidates, cost_model, metrics, features_matrix=features_matrix
            )
            if algorithm == "nsga2":
                pareto = tuple(Nsga2(self.config.nsga2).optimise(problem))
            else:
                pareto = tuple(NsgaG(self.config.nsga_g).optimise(problem))
        return ParetoSearch(
            pareto_set=pareto,
            algorithm=requested,
            algorithm_used=algorithm,
            candidate_count=len(candidates),
        )

    def pareto_set(
        self,
        candidates: Sequence[QepCandidate],
        cost_model: FittedCostModel,
        metrics: tuple[str, ...],
        features_matrix: np.ndarray | None = None,
    ) -> tuple[Candidate, ...]:
        """The (approximate) Pareto plan set under predicted costs."""
        return self.pareto_search(
            candidates, cost_model, metrics, features_matrix=features_matrix
        ).pareto_set

    @staticmethod
    def choose(pareto_set: Sequence[Candidate], policy: UserPolicy) -> Candidate:
        """Algorithm 2: constraints B, then minimum weighted sum S."""
        return best_in_pareto(pareto_set, policy.weights, policy.constraints)
