"""Declarative gateway configuration.

:class:`FederationConfig` replaces the ad-hoc keyword threading the old
entry surfaces required (``IReSPlatform(...)`` positional wiring,
``DreamStrategy(r2_required=..., max_window=..., engine_cache=...)``,
``ModelCache(capacity=..., ttl_seconds=...)``) with one frozen value
object: strategy selection by registry name, estimation thresholds,
engine-cache budget, optimizer algorithm and serving backend.  There is
no refresh-pool width: the in-process backend refits serially (a thread
pool measured slower) and the sharded backend runs one parent thread
per busy shard.  Every field is
validated eagerly in ``__post_init__`` — a bad capacity or TTL fails at
construction with a :class:`~repro.federation.errors.GatewayConfigError`
instead of deep inside the first fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.federation.errors import GatewayConfigError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.federation.durability import DurabilityConfig
    from repro.governance.policy import GovernanceConfig
    from repro.serving.topology import RebalanceConfig

#: Default bound on live per-template estimation engines (mirrors
#: :data:`repro.ires.modelling.DEFAULT_ENGINE_CAPACITY`, restated here so
#: configuring the gateway does not require importing the engine room).
DEFAULT_CACHE_CAPACITY = 256

#: Default exhaustive-search ceiling (mirrors
#: :data:`repro.ires.optimizer.DEFAULT_EXACT_LIMIT`): large enough that
#: Example 3.1's 18,200-QEP space runs *exact* MOQP.
DEFAULT_EXACT_LIMIT = 32_768

_OPTIMIZER_ALGORITHMS = ("exact", "nsga2", "nsga-g")

#: Default bound on admitted-but-unflushed ingest items at the front door.
DEFAULT_INGEST_QUEUE_DEPTH = 4096

#: Default size watermark: a flush starts once this many items are pending.
DEFAULT_INGEST_BATCH_MAX = 512

_INGEST_OVERFLOW_MODES = ("reject", "block")


@dataclass(frozen=True)
class FederationConfig:
    """Everything a :class:`~repro.federation.gateway.FederationGateway`
    needs beyond the physical environment (catalog, stats, deployment,
    enumerator, simulator).

    Parameters
    ----------
    strategy:
        Registry name of the estimation backend (see
        :func:`repro.federation.registry.available_strategies`).
    metrics:
        Cost metrics newly registered templates track by default.
    r2_required:
        DREAM's ``R^2_require`` threshold (paper §3 recommends 0.8).
    max_window:
        DREAM's ``Mmax``; ``None`` lets the window grow to the full
        history.
    optimizer_algorithm / exact_limit:
        Pareto-set construction: ``"exact"`` enumerates exhaustively up
        to ``exact_limit`` candidates and falls back to NSGA-II above it
        (the fallback is recorded on ``SubmissionReport.moqp_algorithm``).
        The default limit covers the paper's full Example 3.1 space
        (18,200 equivalent QEPs) — the vectorized front scan makes
        exhaustive MOQP at that scale a milliseconds operation.
    cache_capacity / cache_ttl_seconds:
        LRU bound and idle TTL of the shared estimation-engine cache.
    serving_backend / shard_workers / shard_rpc_timeout:
        Which serving layer fronts the estimation strategy (see
        :func:`repro.federation.registry.available_serving_backends`):
        ``"threaded"`` is the in-process multi-tenant service,
        ``"sharded"`` hash-partitions templates across ``shard_workers``
        worker *processes* (shared-nothing; scales fits past the GIL).
        ``shard_workers=None`` uses the pool's core-count default.
        ``shard_rpc_timeout`` (seconds) is the sharded backend's
        hung-worker guard: a worker that takes longer than this to
        answer one fit RPC is terminated and respawned (``None`` = wait
        forever).
    ingest_queue_depth / ingest_batch_max / ingest_flush_ms /
    ingest_overflow:
        The gateway's batched front door (``gateway.ingest()`` /
        ``gateway.drain()``).  ``ingest_queue_depth`` bounds how many
        admitted-but-unflushed requests the door holds;
        ``ingest_batch_max`` is the size watermark that starts a
        coalesced flush (must not exceed the queue depth, or the
        watermark could never fire); ``ingest_flush_ms`` is an optional
        staleness watermark — an admission finding items older than this
        flushes first (``None`` disables it; ``drain()`` remains the
        explicit barrier).  ``ingest_overflow`` picks the backpressure
        discipline at a full queue: ``"reject"`` raises a typed
        :class:`~repro.federation.errors.IngestOverflowError`,
        ``"block"`` makes the admitting caller wait (or flush itself) —
        never a silent drop.
    ingest_segment_max:
        Optional cap on a flush segment's size (``None`` disables it).
        Tickets resolve per segment (streaming), so smaller segments
        mean earlier first reports; the bitwise-equivalence contract is
        unaffected because subdividing a fit-coalesced segment never
        changes what a prefit sees.
    ingest_pipeline:
        When ``True``, a flush prefits the next segment's untouched
        stale templates on a helper thread while the current segment
        executes (``refresh_batch`` overlapped with execution) — the
        fits move off the critical path, executions stay in admission
        order, and the oracle contract holds.  ``False`` (the default)
        keeps every fit synchronous at its segment boundary.
    rebalance:
        Elastic-topology policy knobs
        (:class:`~repro.serving.topology.RebalanceConfig`) for the
        sharded backend: the gateway runs one
        :class:`~repro.serving.topology.RebalancePolicy` control cycle
        after every front-door flush (and on explicit
        ``gateway.rebalance()`` calls), migrating hot templates to cold
        shards.  ``None`` (the default) leaves placement static.  Requires
        ``serving_backend="sharded"`` — the threaded service has no
        shards to balance.
    governance:
        The governance plane
        (:class:`~repro.governance.policy.GovernanceConfig`): declarative
        site-level :class:`~repro.governance.policy.DataPolicy` rules
        enforced inside QEP enumeration, optional identity requirement,
        and the hash-chained audit log behind
        ``gateway.audit_report()``.  ``None`` (the default) runs without
        a governance plane; a *permissive* config (no rules) is
        bitwise-equivalent to ``None`` on the estimation/optimization
        path — it only adds auditing.
    durability:
        The durability plane
        (:class:`~repro.federation.durability.DurabilityConfig`): every
        state-changing event is write-ahead-logged to ``dir`` under the
        chosen ``fsync`` policy with periodic compacting checkpoints,
        and ``gateway.recover()`` replays a crashed gateway's journal
        into a bitwise-equal state.  ``None`` (the default) keeps all
        state in memory, exactly as before.
    strategy_options:
        Backend-specific extras passed to the registry factory (e.g.
        ``{"window_multiple": 2}`` for the windowed BML baseline).
    """

    strategy: str = "dream-incremental"
    metrics: tuple[str, ...] = ("time", "money")
    r2_required: float = 0.8
    max_window: int | None = None
    optimizer_algorithm: str = "exact"
    exact_limit: int = DEFAULT_EXACT_LIMIT
    cache_capacity: int = DEFAULT_CACHE_CAPACITY
    cache_ttl_seconds: float | None = None
    serving_backend: str = "threaded"
    shard_workers: int | None = None
    shard_rpc_timeout: float | None = None
    ingest_queue_depth: int = DEFAULT_INGEST_QUEUE_DEPTH
    ingest_batch_max: int = DEFAULT_INGEST_BATCH_MAX
    ingest_flush_ms: float | None = None
    ingest_overflow: str = "reject"
    ingest_segment_max: int | None = None
    ingest_pipeline: bool = False
    rebalance: RebalanceConfig | None = None
    governance: GovernanceConfig | None = None
    durability: DurabilityConfig | None = None
    strategy_options: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.strategy or not isinstance(self.strategy, str):
            raise GatewayConfigError(
                f"strategy must be a non-empty registry name, got {self.strategy!r}"
            )
        if not self.metrics:
            raise GatewayConfigError("metrics must name at least one cost metric")
        if not 0.0 <= self.r2_required <= 1.0:
            raise GatewayConfigError(
                f"r2_required must be in [0, 1], got {self.r2_required}"
            )
        if self.max_window is not None and self.max_window < 3:
            raise GatewayConfigError(
                f"max_window must be >= 3 (the smallest L + 2), got {self.max_window}"
            )
        if self.optimizer_algorithm not in _OPTIMIZER_ALGORITHMS:
            raise GatewayConfigError(
                f"optimizer_algorithm must be one of {_OPTIMIZER_ALGORITHMS}, "
                f"got {self.optimizer_algorithm!r}"
            )
        if self.exact_limit < 1:
            raise GatewayConfigError(
                f"exact_limit must be >= 1, got {self.exact_limit}"
            )
        if self.cache_capacity < 1:
            raise GatewayConfigError(
                f"cache_capacity must be >= 1, got {self.cache_capacity}"
            )
        if self.cache_ttl_seconds is not None and not self.cache_ttl_seconds > 0:
            raise GatewayConfigError(
                f"cache_ttl_seconds must be > 0 (or None), got {self.cache_ttl_seconds}"
            )
        if not self.serving_backend or not isinstance(self.serving_backend, str):
            raise GatewayConfigError(
                "serving_backend must be a non-empty registry name, "
                f"got {self.serving_backend!r}"
            )
        # Deferred import: the registry only needs this module for type
        # hints, but importing it at module load would still tie the two
        # modules' import order together.
        from repro.federation.registry import available_serving_backends

        if self.serving_backend not in available_serving_backends():
            from repro.federation.errors import UnknownServingBackendError

            raise UnknownServingBackendError(
                self.serving_backend, available_serving_backends()
            )
        if self.shard_workers is not None and self.shard_workers < 1:
            raise GatewayConfigError(
                f"shard_workers must be >= 1 (or None), got {self.shard_workers}"
            )
        if self.shard_rpc_timeout is not None and not self.shard_rpc_timeout > 0:
            raise GatewayConfigError(
                f"shard_rpc_timeout must be > 0 (or None), got {self.shard_rpc_timeout}"
            )
        if self.ingest_queue_depth < 1:
            raise GatewayConfigError(
                f"ingest_queue_depth must be >= 1, got {self.ingest_queue_depth}"
            )
        if self.ingest_batch_max < 1:
            raise GatewayConfigError(
                f"ingest_batch_max must be >= 1, got {self.ingest_batch_max}"
            )
        if self.ingest_batch_max > self.ingest_queue_depth:
            raise GatewayConfigError(
                f"ingest_batch_max ({self.ingest_batch_max}) must not exceed "
                f"ingest_queue_depth ({self.ingest_queue_depth}); the size "
                "watermark could never fire"
            )
        if self.ingest_flush_ms is not None and not self.ingest_flush_ms > 0:
            raise GatewayConfigError(
                f"ingest_flush_ms must be > 0 (or None), got {self.ingest_flush_ms}"
            )
        if self.ingest_overflow not in _INGEST_OVERFLOW_MODES:
            raise GatewayConfigError(
                f"ingest_overflow must be one of {_INGEST_OVERFLOW_MODES}, "
                f"got {self.ingest_overflow!r}"
            )
        if self.ingest_segment_max is not None and self.ingest_segment_max < 1:
            raise GatewayConfigError(
                f"ingest_segment_max must be >= 1 (or None), "
                f"got {self.ingest_segment_max}"
            )
        if not isinstance(self.ingest_pipeline, bool):
            raise GatewayConfigError(
                f"ingest_pipeline must be True or False, "
                f"got {self.ingest_pipeline!r}"
            )
        if self.rebalance is not None:
            # Deferred import, same reason as the registry lookup above.
            from repro.serving.topology import RebalanceConfig

            if not isinstance(self.rebalance, RebalanceConfig):
                raise GatewayConfigError(
                    "rebalance must be a RebalanceConfig (or None), got "
                    f"{type(self.rebalance).__name__}"
                )
            if self.serving_backend != "sharded":
                raise GatewayConfigError(
                    f"rebalance requires serving_backend='sharded', got "
                    f"serving_backend={self.serving_backend!r} (no shards to "
                    "balance); registered serving backends: "
                    f"{', '.join(available_serving_backends())}"
                )
        if self.governance is not None:
            # Deferred import, same reason as the registry lookup above.
            from repro.governance.policy import GovernanceConfig

            if not isinstance(self.governance, GovernanceConfig):
                raise GatewayConfigError(
                    "governance must be a GovernanceConfig (or None), got "
                    f"{type(self.governance).__name__}"
                )
        if self.durability is not None:
            # Deferred import, same reason as the registry lookup above.
            from repro.federation.durability import DurabilityConfig

            if not isinstance(self.durability, DurabilityConfig):
                raise GatewayConfigError(
                    "durability must be a DurabilityConfig (or None), got "
                    f"{type(self.durability).__name__}"
                )
