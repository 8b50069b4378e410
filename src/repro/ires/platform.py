"""The IReS platform facade: Figure 1 wired end to end.

``submit`` is the full pipeline of the paper:

1. **Interface** validates the query and policy;
2. **Modelling** fits the active estimation strategy (DREAM or BML) on
   the query's execution history;
3. the **enumerator** builds the QEP space and the **Multi-Objective
   Optimizer** computes a Pareto plan set over predicted cost vectors;
4. **BestInPareto** (Algorithm 2) picks the final QEP under the policy;
5. the **Executor** runs it on the engine simulators and appends the
   measured costs to the history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import EstimationError, ValidationError
from repro.core.history import ExecutionHistory
from repro.engines.simulate import MultiEngineSimulator, QueryExecution
from repro.ires.deployment import Deployment
from repro.ires.enumerator import QepCandidate, QepEnumerator
from repro.ires.executor import Executor
from repro.ires.interface import Interface, QueryRequest
from repro.ires.modelling import EstimationStrategy, FittedCostModel, Modelling
from repro.ires.optimizer import MultiObjectiveOptimizer, OptimizerConfig
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
    pareto_set: list[Candidate]
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
    """The paper's platform: MIDAS sits on top of this."""

    def __init__(
        self,
        catalog: Catalog,
        stats: dict[str, TableStats],
        deployment: Deployment,
        enumerator: QepEnumerator,
        simulator: MultiEngineSimulator,
        strategy: EstimationStrategy,
        optimizer: MultiObjectiveOptimizer | None = None,
        max_fit_workers: int | None = None,
        serving_factory=None,
    ):
        self.catalog = catalog
        self.stats = stats
        self.deployment = deployment
        self.enumerator = enumerator
        self.interface = Interface(catalog, deployment)
        self.modelling = Modelling(strategy)
        # Deferred import: repro.serving itself imports ires.modelling,
        # so a module-level import here would be circular.
        from repro.serving.service import EstimationService

        #: Multi-tenant front over the same Modelling registry: version-
        #: cached model snapshots, per-template locks, burst refresh.
        #: ``serving_factory(modelling)`` swaps the implementation (the
        #: gateway plugs the config-selected backend in here — e.g. the
        #: cross-process :class:`~repro.serving.sharded
        #: .ShardedEstimationService`); the default is the in-process
        #: thread-scoped service.
        if serving_factory is None:
            self.serving = EstimationService(
                modelling=self.modelling, max_workers=max_fit_workers
            )
        else:
            self.serving = serving_factory(self.modelling)
        self.optimizer = optimizer or MultiObjectiveOptimizer()
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

    def refresh_models(
        self, keys: list[str] | None = None, parallel: bool = True
    ) -> dict[str, FittedCostModel]:
        """Prefit (all) registered templates' models for a burst.

        Delegates to the serving layer: stale templates are fitted
        concurrently, fresh ones are returned from their snapshots.
        """
        return self.serving.refresh(keys, parallel=parallel)

    # Pipeline ---------------------------------------------------------------

    def receive(
        self, key: str, params: dict, policy: UserPolicy | None = None
    ) -> QueryRequest:
        """Step 1: render the template and validate the query."""
        return self.interface.receive(self.template(key).render(params), policy)

    def candidates_for(
        self,
        key: str,
        params: dict,
        stats: dict[str, TableStats] | None = None,
        constraint=None,
    ) -> tuple[QueryRequest, list[QepCandidate]]:
        """Steps 1 + 3a: validate and enumerate (no model needed).

        ``stats`` overrides the platform's table statistics for this call
        (IReS-style profiling runs enumerate over sampled inputs);
        ``constraint`` is an optional governance
        :class:`~repro.governance.policy.PlanConstraint` the enumerator
        applies while building the space (forbidden execution sites are
        never materialized, let alone costed).
        """
        request = self.receive(key, params)
        candidates = self.enumerator.enumerate(
            key,
            request.plan,
            self.stats if stats is None else stats,
            self.template(key).tables,
            constraint=constraint,
        )
        return request, candidates

    def observe(
        self,
        key: str,
        params: dict,
        candidate: QepCandidate,
        tick: int,
        stats: dict[str, TableStats] | None = None,
        *,
        request: QueryRequest | None = None,
    ) -> QueryExecution:
        """Execute a given candidate and log it (history building).

        ``request`` is the already-received query for ``params`` (from
        :meth:`candidates_for`), so the caller's parse is reused.
        """
        if request is None:
            request = self.receive(key, params)
        # The executor appends to the history, so it runs under the
        # template's lock: a concurrent fit on this template can never
        # observe a torn window, and other templates are unaffected.
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

    def submit(
        self,
        key: str,
        params: dict,
        policy: UserPolicy,
        tick: int,
        cost_model: FittedCostModel | None = None,
    ) -> SubmissionResult:
        """The full Figure 1 pipeline for one query submission.

        ``cost_model`` optionally pins the model that costs the QEP space
        (a session snapshot); the default refits through the serving
        layer only when the history moved since the last fit.
        """
        request = self.receive(key, params, policy)
        return self.submit_request(key, request, tick, cost_model=cost_model)

    def submit_request(
        self,
        key: str,
        request: QueryRequest,
        tick: int,
        *,
        cost_model: FittedCostModel | None = None,
        candidates: list[QepCandidate] | None = None,
        features_matrix=None,
        execute: bool = True,
    ) -> SubmissionResult:
        """Steps 2-5 for an already-validated request.

        The gateway's session layer drives this directly so a parameter
        batch can reuse one pinned ``cost_model``, one enumerated
        ``candidates`` space and one precomputed ``features_matrix``;
        ``execute=False`` stops after Algorithm 2 (plan-only costing).
        All paths are numerically identical to :meth:`submit`.
        """
        template = self.template(key)
        history = self.history(key)
        if cost_model is None:
            if history.size == 0:
                raise EstimationError(
                    f"no execution history for {key!r}; run observe() a few times first"
                )
            # Through the serving layer: refits only when the history
            # moved since the last fit (re-planning between executions is
            # a snapshot hit), under the template's lock.
            cost_model = self.serving.model(key)
        if candidates is None:
            candidates = self.enumerator.enumerate(
                key, request.plan, self.stats, template.tables
            )
        policy = request.policy
        search = self.optimizer.pareto_search(
            candidates, cost_model, policy.metrics, features_matrix=features_matrix
        )
        pareto = search.pareto_set
        chosen = self.optimizer.choose(pareto, policy)
        execution = None
        if execute:
            # Under the template's lock: the executor's history append
            # must exclude concurrent fits of this template (torn-window
            # guard).
            with self.serving.template_lock(key):
                execution = self.executor.run(
                    chosen.payload, request.plan, self.stats, tick, history
                )
            self.serving.record_external()
        return SubmissionResult(
            request=request,
            cost_model=cost_model,
            candidate_count=search.candidate_count,
            pareto_set=pareto,
            chosen=chosen,
            execution=execution,
            moqp_algorithm=search.algorithm_used,
            moqp_exact_fallback=search.exact_fallback,
        )
