"""Typed request/response envelopes of the gateway API.

Requests (:class:`SubmitRequest`, :class:`ObserveRequest`) are small
validated value objects — the gateway takes an envelope, not a positional
argument soup, so call sites read the same everywhere (examples,
experiments, workloads, CLI) and new fields can be added without breaking
them.

Responses wrap the engine room's raw outcome
(:class:`~repro.ires.platform.SubmissionResult`) in a stable reporting
surface: :class:`SubmissionReport` for one submission,
:class:`BatchReport` for a pinned-session batch,
:class:`ObservationReport` for a profiling execution.  Reports expose the
same accessors the old ``SubmissionResult`` did (``predicted``,
``pareto_set``, ``execution``, ``prediction_error``), so code migrating
to the gateway keeps its reading side unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engines.simulate import QueryExecution
from repro.federation.errors import EnvelopeError, FederationError
from repro.governance.audit import AuditRecord
from repro.governance.identity import Principal
from repro.ires.enumerator import QepCandidate
from repro.ires.modelling import FittedCostModel
from repro.ires.platform import SubmissionResult
from repro.ires.policy import UserPolicy
from repro.moqp.problem import Candidate
from repro.serving.service import ServiceStats
from repro.serving.topology import RebalanceOutcome, ShardLoad


def _checked_template(template: str) -> None:
    if not template or not isinstance(template, str):
        raise EnvelopeError(
            f"template must be a non-empty key string, got {template!r}"
        )


def _checked_principal(principal, template: str) -> None:
    if principal is not None and not isinstance(principal, Principal):
        raise EnvelopeError(
            f"principal must be a Principal or None, got "
            f"{type(principal).__name__}",
            template=template,
        )


@dataclass(frozen=True)
class SubmitRequest:
    """One query submission: template key, parameters, user policy.

    ``tick`` is optional — the gateway assigns the next logical tick when
    it is ``None`` (explicit ticks exist for replay/oracle scripts).
    """

    template: str
    params: dict = field(default_factory=dict)
    policy: UserPolicy = field(default_factory=UserPolicy)
    tick: int | None = None
    #: Tenant identity the submission runs on behalf of; ``None`` is an
    #: anonymous request (denied when the gateway requires identity).
    principal: Principal | None = None

    def __post_init__(self):
        _checked_template(self.template)
        if self.tick is not None and self.tick < 0:
            raise EnvelopeError(
                f"tick must be >= 0, got {self.tick}", template=self.template
            )
        _checked_principal(self.principal, self.template)


@dataclass(frozen=True)
class ObserveRequest:
    """One profiling execution: run a QEP candidate and log the outcome.

    ``candidate_index`` picks from the enumerated QEP space; ``None``
    lets the gateway rotate through the space deterministically (the
    exploration a production IReS performs during profiling runs).
    """

    template: str
    params: dict = field(default_factory=dict)
    candidate_index: int | None = None
    tick: int | None = None
    #: Tenant identity the profiling run is performed on behalf of.
    principal: Principal | None = None

    def __post_init__(self):
        _checked_template(self.template)
        if self.candidate_index is not None and self.candidate_index < 0:
            raise EnvelopeError(
                f"candidate_index must be >= 0, got {self.candidate_index}",
                template=self.template,
            )
        if self.tick is not None and self.tick < 0:
            raise EnvelopeError(
                f"tick must be >= 0, got {self.tick}", template=self.template
            )
        _checked_principal(self.principal, self.template)


@dataclass(frozen=True)
class BatchObserveRequest:
    """A pre-coalesced batch of profiling executions for one template.

    The rows are admitted atomically (all or none) and applied in
    order, one pipeline run each; a repeated query instance is a
    prepared-query hit — the envelope a tenant that already aggregates
    its execution log should send instead of one :class:`ObserveRequest`
    per row.
    """

    template: str
    requests: tuple[ObserveRequest, ...]

    def __post_init__(self):
        _checked_template(self.template)
        object.__setattr__(self, "requests", tuple(self.requests))
        if not self.requests:
            raise EnvelopeError(
                "BatchObserveRequest needs at least one row",
                template=self.template,
            )
        for request in self.requests:
            if not isinstance(request, ObserveRequest):
                raise EnvelopeError(
                    f"batch rows must be ObserveRequest, got {type(request).__name__}",
                    template=self.template,
                )
            if request.template != self.template:
                raise EnvelopeError(
                    f"batch targets {self.template!r} but contains a row for "
                    f"{request.template!r}",
                    template=self.template,
                )

    def __len__(self) -> int:
        return len(self.requests)


@dataclass(frozen=True, slots=True)
class ObservationReport:
    """Outcome of one :class:`ObserveRequest`."""

    template: str
    tick: int
    candidate: QepCandidate
    #: Measured cost vector, keyed by the history's tracked metrics.
    measured: dict[str, float]
    history_size: int
    history_version: int


@dataclass(frozen=True)
class SubmissionReport:
    """Everything the gateway decided and observed for one submission.

    A typed superset of the old ``SubmissionResult`` reading surface; the
    raw engine-room outcome stays available as :attr:`result`.
    """

    template: str
    tick: int
    params: dict
    policy: UserPolicy
    #: Size of the enumerated QEP space.
    candidate_count: int
    #: The chosen equivalent QEP (Algorithm 2's pick).
    chosen: QepCandidate
    #: Predicted cost per policy metric for the chosen QEP.
    predicted_costs: dict[str, float]
    #: Measured costs of the actual run; ``None`` for plan-only calls.
    measured_costs: dict[str, float] | None
    #: Per-metric relative prediction error (inf for a nonzero prediction
    #: of a zero measurement); ``None`` for plan-only calls.
    errors: dict[str, float] | None
    #: The fitted model that costed the QEP space (with provenance).
    cost_model: FittedCostModel
    #: True when the model came from a pinned session snapshot.
    pinned: bool
    #: Raw engine-room outcome (Pareto set, execution record, ...).
    result: SubmissionResult
    #: MOQP algorithm that actually computed the Pareto set ("exact",
    #: "nsga2", "nsga-g").  A configured "exact" search that overflowed
    #: ``exact_limit`` reports the NSGA-II it degraded to — the fallback
    #: used to be silent and unobservable.
    moqp_algorithm: str = "unknown"
    #: True when that degradation happened for this submission.
    moqp_exact_fallback: bool = False

    # Compatibility accessors (the old SubmissionResult reading surface).

    @property
    def predicted(self) -> tuple[float, ...]:
        """Predicted cost vector in policy-metric order."""
        return self.result.chosen.objectives

    @property
    def pareto_set(self) -> tuple[Candidate, ...]:
        return self.result.pareto_set

    @property
    def chosen_candidate(self) -> QepCandidate:
        return self.chosen

    @property
    def execution(self) -> QueryExecution | None:
        return self.result.execution

    @property
    def executed(self) -> bool:
        return self.result.execution is not None

    def prediction_error(self, metrics: tuple[str, ...]) -> dict[str, float]:
        """Relative |predicted - measured| / |measured| per metric."""
        return self.result.prediction_error(metrics)

    def describe(self) -> str:
        costs = ", ".join(
            f"{metric}={value:.4g}" for metric, value in self.predicted_costs.items()
        )
        return f"{self.chosen.describe()} <- {costs}"


@dataclass(frozen=True)
class IngestStats:
    """A consistent snapshot of the front door's admission counters.

    ``admitted`` counts individual items (a
    :class:`BatchObserveRequest` contributes one per row); ``rejected``
    counts items turned away by the overflow policy and ``blocked``
    counts admissions that had to wait (or flush) for queue space.
    Flushes are broken down by what triggered them — the size watermark,
    the staleness watermark, an explicit ``drain()``/``close()``, or a
    blocked admission flushing its own way out of a full queue
    (``backpressure_flushes``).  ``segments`` counts executed flush
    segments and ``streamed_items`` the items whose tickets resolved
    *before* their flush finished (per-segment streaming; items in a
    flush's final segment resolve at flush end and are not counted).
    """

    admitted: int
    submits: int
    observes: int
    rejected: int
    blocked: int
    flushes: int
    size_flushes: int
    interval_flushes: int
    drain_flushes: int
    #: Items carried by all flushes so far, and the largest single flush.
    items_flushed: int
    max_batch: int
    #: Coalesced fit rounds executed (each is one ``refresh_batch``
    #: spanning every template whose next item was a submission).
    fit_rounds: int
    #: High-water mark and current size of the pending queue.
    peak_depth: int
    pending: int
    #: Self-help flushes run by a blocked admission at a full queue.
    backpressure_flushes: int = 0
    #: Executed flush segments, and items streamed out mid-flush.
    segments: int = 0
    streamed_items: int = 0

    def describe(self) -> str:
        return (
            f"admitted={self.admitted} (submits={self.submits}, "
            f"observes={self.observes}), rejected={self.rejected}, "
            f"blocked={self.blocked}, flushes={self.flushes} "
            f"(size={self.size_flushes}, interval={self.interval_flushes}, "
            f"drain={self.drain_flushes}, "
            f"backpressure={self.backpressure_flushes}), "
            f"segments={self.segments}, streamed={self.streamed_items}, "
            f"fit_rounds={self.fit_rounds}, "
            f"max_batch={self.max_batch}, peak_depth={self.peak_depth}, "
            f"pending={self.pending}"
        )


@dataclass(frozen=True)
class IngestBatch:
    """One coalesced flush of admitted front-door traffic.

    ``reports`` and ``errors`` are aligned with the flushed items in
    admission order: exactly one of the two is non-``None`` per slot
    (per-item error isolation — one tenant's failure never voids the
    rest of the batch).  Auto-triggered flushes resolve their tickets
    and discard the batch object; :meth:`FederationGateway.drain`
    returns the final one.
    """

    seq: int
    #: What started the flush: "size", "interval", "drain" or
    #: "backpressure" (a blocked admission flushing a full queue).
    trigger: str
    #: Template keys the batch touched, sorted.
    templates: tuple[str, ...]
    submits: int
    observes: int
    #: Coalesced fit rounds this flush needed (1 for observe-then-submit
    #: traffic; more only when submits interleave with later observes on
    #: the same template).
    fit_rounds: int
    reports: tuple[SubmissionReport | ObservationReport | None, ...]
    errors: tuple[FederationError | None, ...]
    #: Executed segments (each resolved its tickets as it finished —
    #: streaming granularity, bounded by ``ingest_segment_max``).
    segments: int = 0

    def __len__(self) -> int:
        return len(self.reports)

    @property
    def failed(self) -> int:
        return sum(1 for error in self.errors if error is not None)


@dataclass(frozen=True)
class ServingReport:
    """Serving-layer status: live backend, worker pool, counters.

    ``workers`` is 0 for the in-process ``"threaded"`` backend;
    ``respawns`` counts crashed shard workers that were replaced (each
    replay refits from the authoritative history, so a respawn never
    changes predictions — it only costs one warm-up fit).
    """

    backend: str
    workers: int
    respawns: int
    stats: ServiceStats
    #: Front-door admission counters; ``None`` until the gateway's
    #: ``ingest()`` path has been used.
    ingest: IngestStats | None = None

    def describe(self) -> str:
        pool = f"{self.workers} worker processes" if self.workers else "in-process"
        s = self.stats
        return (
            f"{self.backend} ({pool}): templates={s.templates}, "
            f"fits={s.fits}, snapshot_hits={s.snapshot_hits}, "
            f"observations={s.observations}, respawns={self.respawns}"
        )


@dataclass(frozen=True)
class TopologyReport:
    """Elastic shard topology status: routes, load, last control cycle.

    Produced by ``gateway.topology_report()`` (and returned from
    ``gateway.rebalance()``).  ``route_version`` is the monotone counter
    bumped by every route flip; ``shards`` carries the per-shard load
    accounting (routed templates, pending-row backlog).  For the threaded
    backend every pool field is zero/empty — there is no topology to
    report, only the fact that placement is not in play.
    """

    backend: str
    workers: int
    route_version: int
    migrations: int
    respawns: int
    shards: tuple[ShardLoad, ...] = ()
    #: Outcome of the most recent rebalance cycle; ``None`` before one runs.
    last_cycle: RebalanceOutcome | None = None

    def describe(self) -> str:
        if not self.shards:
            return f"{self.backend}: no shard topology (in-process serving)"
        lines = [
            f"{self.backend}: {self.workers} shards, route v{self.route_version}, "
            f"migrations={self.migrations}, respawns={self.respawns}"
        ]
        for shard in self.shards:
            lines.append(
                f"  shard {shard.index}: templates={len(shard.routed)}, "
                f"backlog={shard.backlog}"
            )
        if self.last_cycle is not None:
            lines.append(f"  last cycle: {self.last_cycle.describe()}")
        return "\n".join(lines)


@dataclass(frozen=True)
class AuditReport:
    """Audit-log status: chain head, verification, traffic breakdown.

    Produced by ``gateway.audit_report()``.  ``chain_valid`` is a live
    end-to-end :func:`~repro.governance.audit.verify_chain` run, not a
    cached flag; ``head_hash`` lets an external verifier anchor its own
    copy of the chain.  When auditing is disabled
    (``GovernanceConfig(audit=False)`` or no governance at all) the
    report says so instead of pretending an empty log was verified.
    """

    #: Whether the gateway keeps an audit log at all.
    enabled: bool
    #: Records in the chain.
    length: int
    #: Hash of the newest record (genesis when empty or disabled).
    head_hash: str
    #: Result of verifying the whole chain now.
    chain_valid: bool
    #: Traffic breakdown by record kind.
    submits: int
    observes: int
    flushes: int
    rebalances: int
    denials: int
    #: The newest records (up to the ``limit`` passed to
    #: ``audit_report``), oldest first; empty when auditing is off.
    records: tuple[AuditRecord, ...] = ()

    def describe(self) -> str:
        if not self.enabled:
            return "audit: disabled"
        verdict = "intact" if self.chain_valid else "TAMPERED"
        return (
            f"audit: {self.length} records ({verdict}), "
            f"submits={self.submits}, observes={self.observes}, "
            f"flushes={self.flushes}, rebalances={self.rebalances}, "
            f"denials={self.denials}, head={self.head_hash[:12]}…"
        )


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one ``gateway.recover()`` replay.

    ``recovered`` is False when the durability directory held no prior
    state (a fresh journal — nothing to replay).  ``torn_bytes`` counts
    WAL tail bytes dropped as crash artifacts (a partial final write);
    anything worse than a torn tail raises
    :class:`~repro.federation.errors.DurabilityError` instead of
    appearing here.  ``warmed_fits`` counts templates re-fitted because
    their snapshot was fresh at the crash — replaying them keeps
    post-recovery fit/snapshot-hit behaviour identical to a gateway
    that never crashed.
    """

    recovered: bool
    #: LSN the checkpoint manifest anchored (0 without a checkpoint).
    checkpoint_lsn: int = 0
    #: WAL segments replayed (every one, from segment 1).
    segments: int = 0
    #: WAL records replayed (all types).
    records: int = 0
    #: History rows restored across all templates.
    rows: int = 0
    #: Template registrations validated against the live gateway.
    registrations: int = 0
    #: Audit records restored into the hash chain.
    audit_records: int = 0
    #: Torn-tail bytes truncated as crash artifacts.
    torn_bytes: int = 0
    #: Shard routes restored (0 for the threaded backend).
    routes: int = 0
    #: Snapshots re-fitted because they were fresh at the crash.
    warmed_fits: int = 0
    #: Gateway tick counter after recovery.
    tick: int = 0

    def describe(self) -> str:
        if not self.recovered:
            return "recovery: fresh journal, nothing to replay"
        return (
            f"recovery: {self.rows} rows across {self.registrations} "
            f"templates, {self.audit_records} audit records, "
            f"{self.routes} routes, tick={self.tick}, "
            f"warmed {self.warmed_fits} snapshots, "
            f"truncated {self.torn_bytes} torn bytes"
        )


@dataclass(frozen=True)
class BatchReport:
    """Outcome of a pinned-session :meth:`submit_many` batch.

    The whole batch was planned against one pinned :attr:`cost_model`
    (and the QEP space was enumerated once per distinct query instance —
    :attr:`enumerations` counts the actual builds).
    """

    template: str
    reports: tuple[SubmissionReport, ...]
    #: The pinned snapshot every item was costed with.
    cost_model: FittedCostModel
    #: History version the snapshot was pinned at.
    pinned_version: int
    #: Distinct QEP-space enumerations the batch performed.
    enumerations: int

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    def __getitem__(self, index: int) -> SubmissionReport:
        return self.reports[index]

    @property
    def chosen(self) -> list[QepCandidate]:
        return [report.chosen for report in self.reports]
