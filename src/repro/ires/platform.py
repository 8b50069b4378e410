"""The IReS engine room: the stages of Figure 1, one function each.

1. **Interface** (:meth:`IReSPlatform.receive`) renders the template and
   validates the query and policy;
2. **Modelling** fits the active estimation strategy (DREAM or BML) on
   the query's execution history — through :attr:`IReSPlatform.serving`,
   the multi-tenant snapshot layer;
3. the **enumerator** (:meth:`IReSPlatform.enumerate`) builds the QEP
   space and the **Multi-Objective Optimizer** (:meth:`IReSPlatform.plan`)
   computes a Pareto plan set over predicted cost vectors;
4. **BestInPareto** (Algorithm 2, also in :meth:`IReSPlatform.plan`)
   picks the final QEP under the policy;
5. the **Executor** (:meth:`IReSPlatform.execute`) runs it on the engine
   simulators and appends the measured costs to the history.

The platform only provides the stages; the sequence lives in one place,
:meth:`repro.federation.gateway.FederationGateway._run`, which every
entry point (submit, observe, pinned sessions, the batched front door)
goes through.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.common.errors import EstimationError, ValidationError
from repro.core.history import ExecutionHistory
from repro.engines.simulate import MultiEngineSimulator, QueryExecution
from repro.ires.deployment import Deployment
from repro.ires.enumerator import QepCandidate, QepEnumerator, QepSpace
from repro.ires.executor import Executor
from repro.ires.interface import Interface, QueryRequest
from repro.ires.modelling import EstimationStrategy, FittedCostModel, Modelling
from repro.ires.optimizer import MultiObjectiveOptimizer
from repro.ires.policy import UserPolicy
from repro.moqp.problem import Candidate
from repro.plans.catalog import Catalog
from repro.plans.statistics import TableStats
from repro.tpch.queries import QueryTemplate


@dataclass
class SubmissionResult:
    """Everything the platform decided and observed for one submission."""

    request: QueryRequest
    cost_model: FittedCostModel
    candidate_count: int
    #: Shared by every result planned from one memoised search.
    pareto_set: tuple[Candidate, ...]
    chosen: Candidate
    #: ``None`` for plan-only submissions (``execute=False``).
    execution: QueryExecution | None
    #: MOQP algorithm that actually computed the Pareto set ("exact",
    #: "nsga2" or "nsga-g" — NSGA-II when "exact" overflowed its limit).
    #: "unknown" only for results constructed outside the pipeline.
    moqp_algorithm: str = "unknown"
    #: True when a configured "exact" search silently degraded to NSGA-II
    #: because the QEP space exceeded ``exact_limit``.
    moqp_exact_fallback: bool = False

    @property
    def chosen_candidate(self) -> QepCandidate:
        return self.chosen.payload

    @property
    def predicted(self) -> tuple[float, ...]:
        return self.chosen.objectives

    def prediction_error(self, metrics: tuple[str, ...]) -> dict[str, float]:
        """Relative |predicted - measured| / |measured| per metric.

        Every requested metric is reported: a zero measured cost yields
        0.0 when the prediction was exact and ``inf`` otherwise (the old
        behaviour silently dropped such metrics, hiding the worst
        possible relative error from MRE-style aggregations).
        """
        if self.execution is None:
            raise EstimationError(
                "submission was planned but not executed; no measured costs"
            )
        measured = Executor.costs_of(self.execution.metrics)
        errors = {}
        for i, metric in enumerate(metrics):
            actual = measured[metric]
            predicted = self.predicted[i]
            if actual != 0:
                errors[metric] = abs(predicted - actual) / abs(actual)
            else:
                errors[metric] = 0.0 if predicted == 0 else float("inf")
        return errors


class IReSPlatform:
    """The paper's platform: MIDAS sits on top of this.

    Constructed only by :class:`~repro.federation.gateway.FederationGateway`.
    """

    def __init__(
        self,
        catalog: Catalog,
        stats: dict[str, TableStats],
        deployment: Deployment,
        enumerator: QepEnumerator,
        simulator: MultiEngineSimulator,
        strategy: EstimationStrategy,
        optimizer: MultiObjectiveOptimizer,
        serving_factory,
    ):
        self.catalog = catalog
        self.stats = stats
        self.deployment = deployment
        self.enumerator = enumerator
        self.interface = Interface(catalog, deployment)
        self.modelling = Modelling(strategy)
        #: Multi-tenant front over the same Modelling registry: version-
        #: cached model snapshots, per-template locks, group refresh.
        #: ``serving_factory(modelling)`` builds the config-selected
        #: backend (in-process ``"threaded"`` or cross-process
        #: ``"sharded"``).
        self.serving = serving_factory(self.modelling)
        self.optimizer = optimizer
        self.executor = Executor(simulator)
        self._templates: dict[str, QueryTemplate] = {}

    # Registration ---------------------------------------------------------

    def register_template(
        self, template: QueryTemplate, metrics: tuple[str, ...] = ("time", "money")
    ) -> ExecutionHistory:
        """Register a query template and create its execution history."""
        if template.key in self._templates:
            raise ValidationError(f"template {template.key!r} already registered")
        feature_names = self.enumerator.feature_names(template.tables)
        history = ExecutionHistory(feature_names, metrics)
        self._templates[template.key] = template
        # Registers in Modelling too: platform and service share state.
        self.serving.register(template.key, history)
        return history

    def template(self, key: str) -> QueryTemplate:
        try:
            return self._templates[key]
        except KeyError:
            known = ", ".join(sorted(self._templates)) or "<none>"
            raise ValidationError(f"unknown template {key!r}; registered: {known}") from None

    def history(self, key: str) -> ExecutionHistory:
        return self.modelling.history(key)

    # Stages -----------------------------------------------------------------

    def receive(
        self, key: str, params: dict, policy: UserPolicy | None = None
    ) -> QueryRequest:
        """Step 1: render the template and validate the query."""
        return self.interface.receive(self.template(key), params, policy)

    def enumerate(
        self,
        key: str,
        request: QueryRequest,
        stats: dict[str, TableStats] | None = None,
        constraint=None,
    ) -> QepSpace:
        """Step 3a: the QEP space of one received query.

        ``stats`` overrides the platform's table statistics for this call
        (IReS-style profiling runs enumerate over sampled inputs);
        ``constraint`` is an optional governance
        :class:`~repro.governance.policy.PlanConstraint` the enumerator
        applies while building the space (forbidden execution sites are
        never materialized, let alone costed).
        """
        return self.enumerator.enumerate(
            key,
            request.plan,
            self.stats if stats is None else stats,
            self.template(key).tables,
            constraint=constraint,
        )

    def plan(
        self,
        request: QueryRequest,
        candidates: Sequence[QepCandidate],
        cost_model: FittedCostModel,
        fronts: dict | None = None,
    ) -> SubmissionResult:
        """Steps 3b-4: Pareto search under ``cost_model``, then Algorithm 2.

        ``fronts`` optionally memoises the Pareto search by metrics
        tuple: the set depends only on the candidates, the model and the
        metrics, so a caller that fixes the first two (a pinned session,
        per query instance) runs Algorithm 2 alone on a hit.  The result
        is plan-only: its ``execution`` is ``None`` until :meth:`execute`
        runs the chosen QEP.
        """
        policy = request.policy
        metrics = tuple(policy.metrics)
        search = None if fronts is None else fronts.get(metrics)
        if search is None:
            search = self.optimizer.pareto_search(candidates, cost_model, metrics)
            if fronts is not None:
                fronts[metrics] = search
        return SubmissionResult(
            request=request,
            cost_model=cost_model,
            candidate_count=search.candidate_count,
            pareto_set=search.pareto_set,
            chosen=self.optimizer.choose(search.pareto_set, policy),
            execution=None,
            moqp_algorithm=search.algorithm_used,
            moqp_exact_fallback=search.exact_fallback,
        )

    def execute(
        self,
        key: str,
        candidate: QepCandidate,
        request: QueryRequest,
        tick: int,
        stats: dict[str, TableStats] | None = None,
    ) -> QueryExecution:
        """Step 5: run one QEP and append its measured costs to the history.

        The append runs under the template's lock: a concurrent fit on
        this template can never observe a torn window, and other
        templates are unaffected.
        """
        with self.serving.template_lock(key):
            execution = self.executor.run(
                candidate,
                request.plan,
                self.stats if stats is None else stats,
                tick,
                self.history(key),
            )
        self.serving.record_external()
        return execution
