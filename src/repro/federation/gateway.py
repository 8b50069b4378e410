"""The federation gateway: the one way into the Figure 1 pipeline.

:class:`FederationGateway` is the public façade in front of the engine
room (:class:`~repro.ires.platform.IReSPlatform` and the multi-tenant
:class:`~repro.serving.service.EstimationService`).  It is constructed
from the physical environment (catalog, statistics, deployment,
enumerator, simulator) plus one declarative
:class:`~repro.federation.config.FederationConfig`, takes typed request
envelopes (:class:`~repro.federation.envelopes.SubmitRequest`,
:class:`~repro.federation.envelopes.ObserveRequest`) and returns typed
reports; failures carry template key and pipeline phase through the
:class:`~repro.federation.errors.FederationError` taxonomy.

Everything above the gateway — MIDAS, the examples, the experiments, the
workload runners, the CLI — goes through this surface; nothing outside
``repro.federation`` and ``repro.ires`` constructs the engine room
directly.

The gateway sequences Figure 1 exactly once, in :meth:`_run`:
:meth:`~FederationGateway.submit`, :meth:`~FederationGateway.observe`,
pinned sessions (which contribute a fixed model and a cached enumerate
stage) and the batched front door (which contributes admission-order
ticks and coalesced fits) are all entry points into that one sequence of
engine-room stage functions.  Two planes attach as hooks at fixed
points of it: the :class:`~repro.federation.governance.GovernancePlane`
(policy admission, denials and the audit chain; inert without a
``GovernanceConfig``) and the durability journal (a no-op without a
``DurabilityConfig``).
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import nullcontext
from dataclasses import replace

from repro.engines.simulate import MultiEngineSimulator
from repro.federation.config import FederationConfig
from repro.federation.durability import DurabilityConfig, DurabilityManager
from repro.federation.envelopes import (
    AuditReport,
    BatchObserveRequest,
    BatchReport,
    IngestBatch,
    IngestStats,
    ObservationReport,
    ObserveRequest,
    RecoveryReport,
    ServingReport,
    SubmissionReport,
    SubmitRequest,
    TopologyReport,
)
from repro.federation.errors import (
    DuplicateTemplateError,
    EnvelopeError,
    GatewayConfigError,
    InsufficientHistoryError,
    SessionStateError,
    UnknownTemplateError,
)
from repro.federation.frontdoor import FrontDoor, IngestTicket
from repro.federation.governance import GovernancePlane
from repro.governance.audit import AuditLog
from repro.governance.identity import Principal
from repro.governance.policy import PlanConstraint
from repro.federation.registry import create_serving, create_strategy
from repro.federation.session import GatewaySession
from repro.common.errors import EstimationError
from repro.core.history import ExecutionHistory
from repro.ires.deployment import Deployment
from repro.ires.enumerator import QepCandidate, QepEnumerator, QepSpace
from repro.ires.executor import Executor
from repro.ires.interface import QueryRequest
from repro.ires.modelling import EstimationStrategy, FittedCostModel
from repro.ires.optimizer import MultiObjectiveOptimizer, OptimizerConfig
from repro.ires.platform import IReSPlatform
from repro.plans.catalog import Catalog
from repro.plans.statistics import TableStats
from repro.serving.service import ServiceStats
from repro.serving.sharded import ShardedServingError
from repro.serving.topology import RebalancePolicy
from repro.tpch.queries import QueryTemplate


class FederationGateway:
    """Unified entry surface over a federated multi-engine deployment.

    Parameters
    ----------
    catalog, stats, deployment, enumerator, simulator:
        The physical environment (what exists and where it runs).
    config:
        Declarative behaviour: estimation backend, thresholds, cache
        budget, optimizer algorithm, serving backend.
    strategy:
        Escape hatch for a pre-built
        :class:`~repro.ires.modelling.EstimationStrategy` instance
        (engine-room tests, custom unregistered backends); when given,
        ``config.strategy`` is not consulted.
    """

    def __init__(
        self,
        *,
        catalog: Catalog,
        stats: dict[str, TableStats],
        deployment: Deployment,
        enumerator: QepEnumerator,
        simulator: MultiEngineSimulator,
        config: FederationConfig | None = None,
        strategy: EstimationStrategy | None = None,
    ):
        self.config = config or FederationConfig()
        if strategy is not None and self.config.serving_backend != "threaded":
            # Strategy *instances* cannot travel to shard workers; only
            # registry names can (each worker rebuilds its own copy).
            raise GatewayConfigError(
                "a pre-built strategy instance requires "
                "serving_backend='threaded'; register the strategy under a "
                f"name for the {self.config.serving_backend!r} backend"
            )
        self._strategy = strategy or create_strategy(self.config)
        optimizer = MultiObjectiveOptimizer(
            OptimizerConfig(
                algorithm=self.config.optimizer_algorithm,
                exact_limit=self.config.exact_limit,
            )
        )
        #: The engine room.  Reachable for introspection and white-box
        #: tests; construction happens only here.  The serving layer is
        #: selected by ``config.serving_backend`` through the registry
        #: (in-process ``"threaded"`` or cross-process ``"sharded"``).
        self.engine = IReSPlatform(
            catalog=catalog,
            stats=stats,
            deployment=deployment,
            enumerator=enumerator,
            simulator=simulator,
            strategy=self._strategy,
            optimizer=optimizer,
            serving_factory=lambda modelling: create_serving(
                self.config, modelling
            ),
        )
        self._keys: set[str] = set()
        self._lock = threading.Lock()
        self._tick = 0
        self._rotation: dict[str, int] = {}
        self._front_door: FrontDoor | None = None
        self._closed = False
        self._close_lock = threading.Lock()
        # Elastic-topology control loop: one stateful policy for the
        # gateway's lifetime (heat EWMAs carry across cycles), driven by
        # explicit rebalance() calls and, when config.rebalance is set,
        # after every front-door flush.
        self._rebalancer = (
            None
            if self.config.rebalance is None
            else RebalancePolicy(self.config.rebalance)
        )
        self._last_rebalance = None
        # Policy and the audit chain; inert without a GovernanceConfig.
        self._governance = GovernancePlane(self.config.governance)
        # Durability plane: journal every state-changing event to a WAL
        # and replay it on recover().  A directory with existing state
        # puts the gateway in recovery-pending mode — traffic raises
        # DurabilityError until recover() runs.
        self._durability = (
            None
            if self.config.durability is None
            else DurabilityManager(self, self.config.durability, self._governance)
        )
        self._wire_durability()

    def _wire_durability(self) -> None:
        """Point the serving layer's events at the journal: model fits
        and (sharded only) route flips.  The manager hooks the audit
        chain itself, through the governance plane it is given."""
        manager = self._durability
        if manager is None:
            return
        serving = self.engine.serving
        serving.on_fit = manager.note_fit
        if hasattr(serving, "migrate"):
            serving.on_route_change = manager.note_topology

    # Registration ---------------------------------------------------------

    def register_template(
        self, template: QueryTemplate, metrics: tuple[str, ...] | None = None
    ) -> ExecutionHistory:
        """Register a query template (a tenant) and create its history."""
        with self._lock:
            if template.key in self._keys:
                raise DuplicateTemplateError(
                    f"template {template.key!r} already registered",
                    template=template.key,
                )
            history = self.engine.register_template(
                template, metrics or self.config.metrics
            )
            self._keys.add(template.key)
        if self._durability is not None:
            # Outside the gateway mutex: the journal append can trigger
            # a checkpoint, and checkpoints must never nest inside it.
            self._durability.note_register(
                template.key, history.feature_names, history.metric_names
            )
        return history

    def templates(self) -> tuple[str, ...]:
        """Registered template keys, sorted."""
        with self._lock:
            return tuple(sorted(self._keys))

    def _require_template(self, key: str) -> None:
        with self._lock:
            if key not in self._keys:
                known = ", ".join(sorted(self._keys)) or "<none>"
                raise UnknownTemplateError(
                    f"unknown template {key!r}; registered: {known}", template=key
                )

    def history(self, key: str) -> ExecutionHistory:
        self._require_template(key)
        return self.engine.history(key)

    # Ticks ----------------------------------------------------------------

    def next_tick(self) -> int:
        """The next logical tick (monotone across the whole gateway)."""
        with self._lock:
            tick = self._tick
            self._tick += 1
            return tick

    def _resolve_tick(self, tick: int | None) -> int:
        if tick is None:
            return self.next_tick()
        with self._lock:
            # Keep auto-ticks ahead of explicit ones so mixing the two
            # never violates a history's non-decreasing-tick invariant.
            self._tick = max(self._tick, tick + 1)
        return tick

    def _tick_scope(self, key: str, tick: int | None):
        """Lock scope for one tick's worth of work on a template.

        Auto-assigned ticks hold the template's (re-entrant) lock from
        assignment through the history append, so concurrent auto-ticked
        calls on one template always append in tick order.  Explicit
        ticks are replay scripts — the caller owns the ordering — and
        take no extra lock.
        """
        if tick is not None:
            return nullcontext()
        return self.engine.serving.template_lock(key)

    # Durability -----------------------------------------------------------
    #
    # The journal hooks of the pipeline: each is a no-op on a gateway
    # configured without durability.

    def _journal_ready(self) -> None:
        """Refuse traffic while a WAL directory awaits ``recover()``."""
        if self._durability is not None:
            self._durability.ensure_ready()

    def _journal_row(self, key: str, tick: int, history, rotation: int | None):
        """Journal the history append that just committed: the row, the
        rotation counter it consumed, the gateway tick counter, and the
        simulator's post-draw RNG position (so a recovered gateway
        resumes the same noise sequence)."""
        if self._durability is None:
            return
        (row,) = history.rows_since(history.size - 1)
        simulator = getattr(self.engine.executor, "simulator", None)
        self._durability.note_row(
            key,
            tick,
            dict(row.features),
            dict(row.costs),
            size=history.size,
            rotation=rotation,
            gw=self._tick,
            rng=(
                simulator.rng_state()
                if hasattr(simulator, "rng_state")
                else None
            ),
        )

    def _journal_tick(self) -> None:
        """Journal a tick consumed without a history append (plan-only
        submissions, or a request failing after tick assignment)."""
        if self._durability is not None:
            self._durability.note_tick(self._tick)

    def _durability_sync(self) -> None:
        """Front-door flush boundary: under ``fsync="batch"`` this is
        where journaled records reach stable storage."""
        if self._durability is not None:
            self._durability.sync()

    def recover(self, path=None) -> RecoveryReport:
        """Replay a WAL directory into this (freshly built) gateway.

        With no ``path``, replays the configured durability directory
        (``FederationConfig(durability=DurabilityConfig(dir=...))``).
        An explicit ``path`` re-points the journal there first — also
        usable on a gateway configured without durability, e.g. to
        resurrect state salvaged from another host.  The gateway must
        have the same templates registered (a fresh ``MidasSystem``
        does this at construction) and no traffic served yet; see
        :meth:`~repro.federation.durability.DurabilityManager.recover`
        for exactly what is validated and restored.  Returns a
        :class:`~repro.federation.envelopes.RecoveryReport`; corruption
        (anything beyond a clean torn tail) raises
        :class:`~repro.federation.errors.DurabilityError`.
        """
        if path is not None:
            config = (
                DurabilityConfig(dir=path)
                if self.config.durability is None
                else replace(self.config.durability, dir=path)
            )
            if self._durability is not None:
                self._durability.close()
            self._durability = DurabilityManager(self, config, self._governance)
            self._wire_durability()
        if self._durability is None:
            raise GatewayConfigError(
                "recover() needs FederationConfig(durability=...) or an "
                "explicit path to a WAL directory"
            )
        return self._durability.recover()

    # Governance -----------------------------------------------------------

    def audit_report(self, limit: int | None = None) -> AuditReport:
        """Typed audit-log report; see :meth:`GovernancePlane.report`."""
        return self._governance.report(limit)

    @property
    def audit_log(self) -> AuditLog | None:
        """The live audit log (``None`` when auditing is off)."""
        return self._governance.log

    # The pipeline ---------------------------------------------------------

    def candidates(
        self,
        key: str,
        params: dict,
        stats: dict[str, TableStats] | None = None,
        principal: Principal | None = None,
    ) -> QepSpace:
        """The enumerated QEP space of one query instance.

        The space is a read-only ``Sequence`` of :class:`QepCandidate`
        (index, slice, iterate, ``len``) whose candidates are built on
        first access; use ``list(space)`` for list arithmetic.

        With a governance plane, ``principal`` scopes the active policy
        rules: the returned space contains only plans the caller may
        execute (an inadmissible query raises
        :class:`~repro.federation.errors.PolicyViolationError`).
        """
        self._require_template(key)
        constraint = self._governance.admit(key, principal, self.engine)
        query = self.engine.receive(key, params)
        return self._space(key, query, principal, constraint, stats)

    def observe(
        self,
        request: ObserveRequest,
        *,
        candidate: QepCandidate | None = None,
        stats: dict[str, TableStats] | None = None,
    ) -> ObservationReport:
        """Execute one profiling run and log it into the history.

        The QEP comes from (in priority order) the explicit ``candidate``
        argument, the envelope's ``candidate_index``, or a deterministic
        rotation through the enumerated space (exploration).  ``stats``
        overrides table statistics for sampled-input profiling.
        """
        return self._run(request, candidate=candidate, stats=stats)

    def submit(self, request: SubmitRequest) -> SubmissionReport:
        """The full Figure 1 pipeline for one submission envelope."""
        return self._run(request)

    def _run(
        self,
        request: SubmitRequest | ObserveRequest,
        *,
        candidate: QepCandidate | None = None,
        stats: dict[str, TableStats] | None = None,
        cost_model: FittedCostModel | None = None,
        space_of=None,
        execute: bool = True,
    ) -> SubmissionReport | ObservationReport:
        """The Figure 1 pipeline: the one sequence every entry point runs.

        Each stage is an engine-room function or a gateway hook:

        * admit — known template, journal ready, governance constraint
          (an inadmissible request, or an explicit ``candidate`` at a
          forbidden site, is audited and denied);
        * parse — the Interface (one parse per distinct SQL);
        * enumerate — the policy-filtered QEP space; skipped for an
          explicit ``candidate``, and replaced by a pinned session's
          cached ``(space, fronts)`` through ``space_of``, where
          ``fronts`` maps a metrics tuple to the query instance's Pareto
          search under the pinned model;
        * under the tick scope: choose — fit-or-fetch (or the pinned
          ``cost_model``), Pareto search (or the session's front for
          the policy's metrics) and Algorithm 2 for a submission,
          ``candidate_index`` or rotation for an observation — then
          execute (unless plan-only) and journal;
        * audit, then the typed report.
        """
        key = request.template
        submit = isinstance(request, SubmitRequest)
        principal = request.principal
        engine = self.engine
        self._require_template(key)
        self._journal_ready()
        constraint = self._governance.admit(key, principal, engine, candidate)
        query = engine.receive(key, request.params, request.policy if submit else None)
        space = fronts = None
        if candidate is None and space_of is not None:
            space, fronts = space_of(query, principal, constraint)
        elif candidate is None:
            space = self._space(key, query, principal, constraint, stats)
        pinned = cost_model is not None
        rotation = result = None
        with self._tick_scope(key, request.tick):
            tick = self._resolve_tick(request.tick)
            try:
                if submit:
                    if cost_model is None:
                        cost_model = self._pin(key)[0]
                    result = engine.plan(query, space, cost_model, fronts)
                    candidate = result.chosen_candidate
                elif candidate is None:
                    candidate, rotation = self._explore(key, request, space)
                execution = (
                    engine.execute(key, candidate, query, tick, stats)
                    if execute
                    else None
                )
            except Exception:
                # The tick was already consumed; journal that, or a
                # recovered gateway's counter would drift from the
                # uninterrupted one's.
                self._journal_tick()
                raise
            history = engine.history(key)
            if execution is None:
                self._journal_tick()
            else:
                self._journal_row(key, tick, history, rotation)
            size, version = history.size, history.version
        self._governance.note(
            "submit" if submit else "observe",
            lambda: (
                f"{'chose' if submit else 'ran'} "
                f"{candidate.execution.engine}/{candidate.execution.site}"
                + ("" if execute else " [plan-only]")
            ),
            template=key,
            principal=principal,
            tick=tick,
        )
        costs = None if execution is None else Executor.costs_of(execution.metrics)
        if not submit:
            return ObservationReport(
                template=key,
                tick=tick,
                candidate=candidate,
                measured={metric: costs[metric] for metric in history.metric_names},
                history_size=size,
                history_version=version,
            )
        result.execution = execution
        metrics = request.policy.metrics
        return SubmissionReport(
            template=key,
            tick=tick,
            params=dict(request.params),
            policy=request.policy,
            candidate_count=result.candidate_count,
            chosen=candidate,
            predicted_costs=dict(zip(metrics, result.chosen.objectives)),
            measured_costs=(
                None if costs is None else {metric: costs[metric] for metric in metrics}
            ),
            errors=None if execution is None else result.prediction_error(metrics),
            cost_model=cost_model,
            pinned=pinned,
            result=result,
            moqp_algorithm=result.moqp_algorithm,
            moqp_exact_fallback=result.moqp_exact_fallback,
        )

    def _space(
        self,
        key: str,
        query: QueryRequest,
        principal: Principal | None,
        constraint: PlanConstraint | None,
        stats: dict[str, TableStats] | None = None,
    ) -> QepSpace:
        """The enumerate stage: the QEP space, filtered by ``constraint``;
        an empty filtered space is denied, never returned."""
        space = self.engine.enumerate(key, query, stats=stats, constraint=constraint)
        self._governance.deny_empty(key, principal, constraint, space)
        return space

    def _explore(
        self, key: str, request: ObserveRequest, space: QepSpace
    ) -> tuple[QepCandidate, int | None]:
        """An observation's QEP: the envelope's ``candidate_index``, or the
        next step of the template's deterministic rotation (returned too,
        for the journal)."""
        index = request.candidate_index
        if index is not None:
            if index >= len(space):
                raise EnvelopeError(
                    f"candidate_index {index} out of range "
                    f"for a {len(space)}-candidate QEP space",
                    template=key,
                )
            return space[index], None
        with self._lock:
            index = self._rotation.get(key, 0)
            rotation = self._rotation[key] = index + 1
        return space[index % len(space)], rotation

    def _pin(self, key: str) -> tuple[FittedCostModel, int]:
        """Fit-or-fetch the template's snapshot plus its history version,
        atomically with respect to appends on that template.  A history
        too short to fit raises the typed
        :class:`~repro.federation.errors.InsufficientHistoryError`."""
        self._require_template(key)
        serving = self.engine.serving
        with serving.template_lock(key):
            history = self.engine.history(key)
            if history.size == 0:
                raise InsufficientHistoryError(
                    f"no execution history for {key!r}; run observe() a "
                    "few times first",
                    template=key,
                )
            try:
                model = serving.model(key)
            except ShardedServingError:
                raise  # backend infrastructure broke; not a history problem
            except EstimationError as error:
                raise InsufficientHistoryError(str(error), template=key) from error
            return model, history.version

    # Sessions -------------------------------------------------------------

    def submit_many(
        self, requests, *, execute: bool = True
    ) -> BatchReport:
        """Batch submission through a transient pinned session.

        All requests must target one template; see
        :meth:`GatewaySession.submit_many` for the pinning semantics.
        """
        items = list(requests)
        if not items:
            raise EnvelopeError("submit_many() needs at least one request")
        with self.session(items[0].template) as session:
            return session.submit_many(items, execute=execute)

    def session(self, key: str) -> GatewaySession:
        """Open a pinned-snapshot session for one template."""
        return GatewaySession(self, key)

    # Ingest (batched front door) -------------------------------------------

    def ingest(
        self,
        request: SubmitRequest | ObserveRequest | BatchObserveRequest,
    ) -> IngestTicket | list[IngestTicket]:
        """Admit a request into the batched front door.

        Returns immediately with an :class:`IngestTicket` (a list of
        them for a :class:`BatchObserveRequest`, one per row); the work
        runs when a flush fires — at the configured size/staleness
        watermarks or an explicit :meth:`drain`.  Backpressure at a full
        queue follows ``config.ingest_overflow``: a typed
        :class:`~repro.federation.errors.IngestOverflowError` or a
        blocking wait, never a silent drop.  Drained batches are
        bitwise-identical to the same requests replayed through
        :meth:`submit`/:meth:`observe` (see
        :mod:`repro.federation.frontdoor`).
        """
        return self._door().ingest(request)

    def ingest_iter(self, requests):
        """Admit an iterable of envelopes, yielding reports as they land.

        Reports come back in admission order, but *streamed*: a report
        yields as soon as its flush segment executes — under watermark
        flushes (or ``ingest_segment_max``) early results arrive while
        later requests are still being admitted.  After the last
        admission a :meth:`drain` flushes the tail.  A failed item
        raises its typed error from the generator at its position,
        exactly where the sequential single-call surface would have
        raised it.
        """
        door = self._door()
        pending: deque[IngestTicket] = deque()
        for request in requests:
            admitted = door.ingest(request)
            if isinstance(admitted, list):
                pending.extend(admitted)
            else:
                pending.append(admitted)
            while pending and pending[0].done:
                yield pending.popleft().result()
        if pending:
            door.drain()
        while pending:
            ticket = pending.popleft()
            ticket.wait()
            yield ticket.result()

    async def ingest_async(self, request):
        """Admit one envelope from a coroutine and await its report.

        The awaitable counterpart of :meth:`ingest` + ``ticket.result()``:
        admission runs on the front door's single admission thread (it
        may block on backpressure or inline-run a flush, never on the
        event loop) and resolution is bridged back with a
        ``call_soon_threadsafe`` done-callback — one waiter task, not
        one blocked thread, per pending request.  Returns the report (a
        list for a :class:`BatchObserveRequest`) or raises the item's
        typed error.  Pair ``asyncio.create_task``-ed calls with
        :meth:`drain_async` to flush them (see
        :mod:`repro.federation.frontdoor`).
        """
        return await self._door().ingest_async(request)

    async def drain_async(self) -> IngestBatch:
        """Awaitable :meth:`drain`: flushes everything already admitted
        (including by ``ingest_async`` tasks created just before this
        call) without blocking the event loop."""
        # Yield once before looking for the door: ``create_task``-ed
        # ingest_async calls made just before this call take their
        # first step here — which is what lazily *creates* the door and
        # hands their admissions to the admission thread.  Checking
        # first would see no door, drain nothing, and leave those tasks
        # waiting on a flush that never comes.
        import asyncio  # only the asyncio surface needs it

        await asyncio.sleep(0)
        door = self._front_door
        if door is None:
            return self.drain()
        return await door.drain_async()

    def drain(self) -> IngestBatch:
        """Flush every admitted-but-pending request and return the
        batch.  Idempotent: draining an idle or closed door returns an
        empty batch."""
        door = self._front_door
        if door is None:
            with self._lock:
                door = self._front_door
        if door is None:
            return IngestBatch(
                seq=0, trigger="drain", templates=(), submits=0,
                observes=0, fit_rounds=0, reports=(), errors=(),
            )
        return door.drain()

    def _door(self) -> FrontDoor:
        with self._lock:
            if self._closed:
                # Without this gate, a post-close ingest would lazily
                # build a *fresh* door and silently accept work the dead
                # serving layer can never flush.
                raise SessionStateError(
                    "gateway is closed; no further requests can be admitted",
                    phase="ingest",
                )
            self._journal_ready()
            if self._front_door is None:
                self._front_door = FrontDoor(self)
            return self._front_door

    def _prefit_for_flush(self, keys: list[str]) -> bool:
        """Refit a flush segment's stale submit templates in one
        coalesced ``refresh_batch`` (one ``fit_many`` RPC per shard on
        the sharded backend).  Skips templates the sequential oracle
        would not fit either (empty history, already fresh); returns
        whether a fit round was actually issued.  Per-template "cannot
        fit yet" failures are left for the item's own execution to
        surface as the typed error; infrastructure failures propagate.
        """
        serving = self.engine.serving
        stale = [
            key
            for key in keys
            if self.engine.history(key).size > 0 and serving.is_stale(key)
        ]
        if not stale:
            return False
        serving.refresh_batch(stale)
        return True

    def _flushed(self, batch: IngestBatch) -> None:
        """Front-door hook, once per finished flush (tickets resolved,
        flush flag released): one audit record per non-empty flush, then
        the flush's rebalance cycle (so a cycle's record follows the flush
        that triggered it), then the journal sync — under
        ``fsync="batch"`` a flush's records reach stable storage here,
        once per batch, with the flush-audit and rebalance records."""
        if len(batch):
            self._governance.note(
                "batch_flush",
                lambda: (
                    f"trigger={batch.trigger} items={len(batch)} "
                    f"submits={batch.submits} observes={batch.observes} "
                    f"failed={batch.failed}"
                ),
            )
        self._auto_rebalance()
        self._durability_sync()

    def ingest_stats(self) -> IngestStats | None:
        """Front-door admission counters; ``None`` until first use."""
        door = self._front_door
        return None if door is None else door.stats()

    # Models ---------------------------------------------------------------

    def refresh(self, keys: list[str] | None = None) -> dict[str, FittedCostModel]:
        """Prefit stale templates for a burst: the current model of every
        requested template (default: all) that can be fitted; templates
        that cannot be fitted yet are omitted."""
        if keys is not None:
            for key in keys:
                self._require_template(key)
        return self.engine.serving.refresh_batch(keys).models

    def model(self, key: str) -> FittedCostModel:
        """The template's current fitted model (refit only when stale)."""
        return self._pin(key)[0]

    # Introspection --------------------------------------------------------

    @property
    def strategy(self) -> EstimationStrategy:
        return self._strategy

    @property
    def serving_stats(self) -> ServiceStats:
        """Serving-layer counters (fits, snapshot hits, batch refreshes, ...)."""
        return self.engine.serving.stats

    def serving_report(self) -> ServingReport:
        """Typed serving-layer report: which backend is live, how many
        worker processes it runs (0 for in-process), how many crashed
        workers were respawned, and the aggregate counters."""
        serving = self.engine.serving
        return ServingReport(
            backend=self.config.serving_backend,
            workers=getattr(serving, "workers", 0),
            respawns=getattr(serving, "respawns", 0),
            stats=serving.stats,
            ingest=self.ingest_stats(),
        )

    # Elastic topology -----------------------------------------------------

    def topology_report(self) -> TopologyReport:
        """Typed elastic-topology report: routing-table version, applied
        migrations, per-shard load accounting, last rebalance cycle.
        For the threaded backend the pool fields are zero/empty."""
        serving = self.engine.serving
        if not hasattr(serving, "shard_loads"):
            return TopologyReport(
                backend=self.config.serving_backend,
                workers=0,
                route_version=0,
                migrations=0,
                respawns=0,
            )
        return TopologyReport(
            backend=self.config.serving_backend,
            workers=serving.workers,
            route_version=serving.route_version,
            migrations=serving.migrations,
            respawns=serving.respawns,
            shards=tuple(serving.shard_loads()),
            last_cycle=self._last_rebalance,
        )

    def rebalance(self) -> TopologyReport:
        """Run one rebalance control cycle now and report the topology.

        Uses the configured policy (``FederationConfig(rebalance=...)``)
        or a default-knobbed one on first call; requires the sharded
        backend.  Safe to call concurrently with traffic — migrations
        hold the per-template locks, so a mid-burst move is bitwise
        invisible to predictions.
        """
        serving = self.engine.serving
        if not hasattr(serving, "rebalance"):
            raise GatewayConfigError(
                "rebalance requires serving_backend='sharded': the "
                f"{self.config.serving_backend!r} backend has no shards "
                "to balance"
            )
        with self._lock:
            if self._rebalancer is None:
                self._rebalancer = RebalancePolicy()
            policy = self._rebalancer
        self._rebalance_cycle(policy)
        return self.topology_report()

    def _rebalance_cycle(self, policy: RebalancePolicy) -> None:
        """Apply one policy cycle, keep its outcome and audit it."""
        self._last_rebalance = self.engine.serving.rebalance(policy)
        self._governance.note("rebalance", self._last_rebalance.describe)

    def _auto_rebalance(self) -> None:
        """Front-door hook: one policy cycle after every flush, when the
        gateway was configured with ``rebalance=`` (no-op otherwise — a
        manual :meth:`rebalance` call does not switch it on)."""
        if self.config.rebalance is None:
            return
        with self._lock:
            if self._closed:
                return
        try:
            self._rebalance_cycle(self._rebalancer)
        except ShardedServingError:
            # close() raced the cycle; the final flush already ran, so
            # losing one advisory rebalance is harmless.
            pass

    # Lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release serving-layer resources (shard worker processes for
        the ``"sharded"`` backend; a no-op for the in-process one).

        Idempotent and ordered: the closed flag flips first (under the
        gateway lock, so no concurrent ``ingest`` can lazily build a
        fresh door afterwards — it gets a typed
        :class:`~repro.federation.errors.SessionStateError` instead),
        then the front door closes — which waits out any in-flight
        ``drain`` and flushes admitted-but-pending requests while the
        serving layer is still alive, never dropping them — and only
        then does the serving layer shut down.  Concurrent and repeat
        ``close()`` calls serialise on a dedicated mutex, so a second
        closer can never tear the serving layer down under the first
        one's final flush.  ``drain()`` keeps working after close,
        returning empty batches."""
        with self._close_lock:
            with self._lock:
                self._closed = True
                door = self._front_door
            if door is not None:
                door.close()
            self.engine.serving.close()
            if self._durability is not None:
                # Last: every event the shutdown emitted (final flush
                # audit, rebalance outcome) is already journaled; the
                # close is one final sync.
                self._durability.close()

    def __enter__(self) -> "FederationGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"FederationGateway(strategy={self.config.strategy!r}, "
            f"templates={len(self._keys)})"
        )
