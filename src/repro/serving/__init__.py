"""Multi-tenant estimation serving (the MIDAS federation front).

The paper evaluates DREAM one query template at a time, but the
federation it targets serves many hospitals' templates simultaneously.
This package adds the serving layer on top of
:class:`~repro.ires.modelling.Modelling`:

**Tenancy model.**  A *tenant* is one registered query template (one
hospital's recurring query shape).  Each tenant owns

* an append-only :class:`~repro.core.history.ExecutionHistory` — never
  shared, so tenants cannot leak observations into each other's models;
* a per-template lock — a tick (history append) and a refit on the same
  template exclude each other, so no fit ever sees a torn window, while
  ticks and estimates on *different* templates never contend;
* an immutable fitted-model snapshot keyed by the history's version
  counter — estimates run lock-free on the snapshot, and a snapshot is
  refit only when its history has actually changed.

**Shared, bounded machinery.**  What tenants *do* share is the
estimation strategy and its engine budget: the incremental DREAM
engines live in one :class:`~repro.core.cache.ModelCache` (LRU +
idle-TTL, exact hit/miss/eviction counters), so a long-running
deployment with thousands of registered templates keeps engines only
for the hot ones.  Eviction is safe — an engine is derived state and
refits from its history to the identical window and predictions.

**Bursts.**  A submission burst touches many templates at once;
:meth:`~repro.serving.service.BaseEstimationService.refresh_batch`
refits the stale ones as one group, then every estimate is served from
the refreshed snapshots.  :meth:`~repro.serving.service.BaseEstimationService.model`
is the same group fit with one template, so there is one refit path.
The in-process service fits a group serially: a thread pool measured
0.56-0.75x the serial loop's speed on a 2-core host (each fit is a few
small NumPy solves, too short to amortise thread hand-offs), so it was
removed.  ``benchmarks/bench_serving_burst.py`` measures the burst
latency against sequential seed-path fitting.

**Cross-process sharding.**  Past the GIL, the
:class:`~repro.serving.sharded.ShardedEstimationService` keeps the same
serving contract but hash-partitions templates across a shared-nothing
pool of worker *processes* (one private strategy + engine cache each),
streaming history rows over a pickle-safe pipe RPC
(:mod:`repro.serving.worker`) with crash detection and deterministic
replay-on-respawn.  A group refit sends one ``fit_many`` RPC per busy
shard, one parent thread per busy shard.
``benchmarks/bench_sharded_serving.py`` measures burst throughput
against the in-process service.
"""

from repro.core.cache import CacheStats, ModelCache
from repro.serving.service import (
    BaseEstimationService,
    BatchRefreshResult,
    EstimationService,
    ServiceStats,
)
from repro.serving.sharded import (
    DEFAULT_SHARD_WORKERS,
    ShardedEstimationService,
    ShardedServingError,
    StaleRouteError,
    shard_of,
)
from repro.serving.topology import (
    Migration,
    RebalanceConfig,
    RebalanceOutcome,
    RebalancePlan,
    RebalancePolicy,
    ShardLoad,
    TemplateLoad,
)
from repro.serving.worker import PROTOCOL_VERSION

__all__ = [
    "BaseEstimationService",
    "BatchRefreshResult",
    "CacheStats",
    "ModelCache",
    "DEFAULT_SHARD_WORKERS",
    "EstimationService",
    "Migration",
    "PROTOCOL_VERSION",
    "RebalanceConfig",
    "RebalanceOutcome",
    "RebalancePlan",
    "RebalancePolicy",
    "ServiceStats",
    "ShardLoad",
    "ShardedEstimationService",
    "ShardedServingError",
    "StaleRouteError",
    "TemplateLoad",
    "shard_of",
]
