"""Elastic shard topology: load accounting types and the rebalance policy.

Static CRC32 placement (PR 5) spreads templates uniformly over the
worker pool, but federation tenants are *skewed* — one hot hospital
template can saturate its shard while siblings idle (ROADMAP open
item 2; Liu et al., arXiv 2112.07980, frame the multi-tenant placement
problem).  Deterministic replay already makes *moving* a template safe:
a fresh replica re-fed the authoritative parent-side history walks the
identical window schedule, so migration is replay plus a route flip.
This module supplies the control-loop side of that story:

* :class:`ShardLoad` / :class:`TemplateLoad` — read-only load accounting
  snapshots published by
  :meth:`~repro.serving.sharded.ShardedEstimationService.shard_loads`
  and ``template_loads`` (fit wall-time EWMA, RPC queue depth,
  pending-row backlog);
* :class:`RebalanceConfig` — the policy knobs (hysteresis factors, move
  budget, pool bounds), validated eagerly;
* :class:`RebalancePolicy` — a *stateful* greedy controller: per cycle
  it turns fit-count deltas x fit-cost EWMAs into template heat, then
  plans hottest-template-to-coldest-shard moves under hysteresis, pool
  growth under backlog pressure, and pool shrink when trailing shards
  go idle;
* :class:`Migration` / :class:`RebalancePlan` / :class:`RebalanceOutcome`
  — the typed decisions and their applied result.

The policy only *plans*; the sharded service applies plans through its
own ``migrate``/``resize`` primitives, which hold the per-template and
shard locks that make a mid-burst move bitwise invisible.  Placement is
a pure performance degree of freedom — ``tests/chaos.py`` proves that
any interleaving of moves, crashes, and resizes leaves every prediction
identical to the single-process oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ValidationError

#: Smoothing factor for the *intra-service* fit wall-time EWMAs (per
#: shard and per template): ``ewma = ALPHA * sample + (1-ALPHA) * ewma``.
LOAD_EWMA_ALPHA = 0.25

#: Heat assigned to a template that has fitted this cycle but has no
#: wall-time sample yet (seconds) — keeps "fitted at least once" strictly
#: hotter than "idle" even before timing data lands.
_MIN_FIT_COST = 1e-6


@dataclass(frozen=True)
class TemplateLoad:
    """One template's load accounting snapshot (parent-side, no RPC)."""

    key: str
    shard: int
    #: Lifetime successful fits for this template.
    fits: int
    #: EWMA of one fit's wall time (seconds; measured by the shard
    #: worker on the sharded backend); ``None`` until the first fit.
    fit_seconds_ewma: float | None
    #: Rows appended but not yet shipped to the shard worker.
    backlog: int


@dataclass(frozen=True)
class ShardLoad:
    """One shard's load accounting snapshot (parent-side, no RPC)."""

    index: int
    #: Templates currently routed to this shard (sorted).
    routed: tuple[str, ...]
    #: Pending rows summed over the routed templates.
    backlog: int
    #: Threads currently waiting for (or holding) this shard's lock on a
    #: fit path — the RPC queue depth.
    queue_depth: int
    #: EWMA of one fit RPC's parent-observed wall time per template
    #: (seconds); ``None`` until the first fit lands on this shard.
    fit_seconds_ewma: float | None


@dataclass(frozen=True)
class Migration:
    """One planned (or applied) template move."""

    key: str
    src: int
    dst: int

    def describe(self) -> str:
        return f"{self.key}: shard {self.src} -> {self.dst}"


@dataclass(frozen=True)
class RebalancePlan:
    """What one policy cycle decided (not yet applied)."""

    moves: tuple[Migration, ...] = ()
    grow_to: int | None = None
    shrink_to: int | None = None
    reason: str = "balanced"

    @property
    def is_noop(self) -> bool:
        return not self.moves and self.grow_to is None and self.shrink_to is None


@dataclass(frozen=True)
class RebalanceOutcome:
    """One applied control cycle, as reported by
    :meth:`~repro.serving.sharded.ShardedEstimationService.rebalance`."""

    moves: tuple[Migration, ...]
    grew_to: int | None
    shrank_to: int | None
    route_version: int
    reason: str
    #: The ``max_migrations_per_cycle`` throttle in force when the cycle
    #: ran (``None`` = unthrottled); planned moves beyond the cap were
    #: deferred to later cycles, not dropped from the policy's heat state.
    migration_cap: int | None = None

    def describe(self) -> str:
        parts = []
        if self.grew_to is not None:
            parts.append(f"grew pool to {self.grew_to}")
        for move in self.moves:
            parts.append(move.describe())
        if self.shrank_to is not None:
            parts.append(f"shrank pool to {self.shrank_to}")
        if not parts:
            parts.append("no-op")
        text = f"[route v{self.route_version}] " + "; ".join(parts)
        if self.migration_cap is not None:
            text += f" [cap {self.migration_cap}]"
        return text + f" ({self.reason})"


@dataclass(frozen=True)
class RebalanceConfig:
    """Knobs for :class:`RebalancePolicy`, validated eagerly.

    Parameters
    ----------
    hot_factor / cold_factor:
        Hysteresis thresholds around the mean shard heat: a shard is a
        move *source* only above ``hot_factor * mean`` and a move
        *destination* only below ``cold_factor * mean``.  The gap keeps
        a near-balanced pool from oscillating templates back and forth.
    max_moves:
        Migration budget per control cycle (each move replays a full
        history over the pipe RPC — bounded churn per cycle).
    min_workers / max_workers:
        Pool-size bounds for autoscaling.  ``max_workers=None`` disables
        growth; shrink never goes below ``min_workers``.
    grow_backlog:
        Pool-growth trigger: grow by one worker when any shard's
        pending-row backlog exceeds this (``None`` disables growth even
        if ``max_workers`` allows it).  Backlog is the one absolute
        pressure signal — heat hysteresis is relative and cannot say
        "every shard is overloaded".
    backlog_weight:
        Seconds of synthetic heat per pending row, folded into template
        heat so persistent backlog attracts moves even between fit
        rounds.  ``0.0`` (default) ranks purely by measured fit cost.
    smoothing:
        Cross-cycle EWMA factor on template heat (``1.0`` = trust only
        the current cycle).
    cadence_flushes:
        For the gateway's automatic control loop: run one policy cycle
        every N front-door flushes.
    cadence_seconds:
        For the gateway's *background* control loop: a daemon ticker
        runs one policy cycle every this many seconds, so an idle
        gateway (no front-door traffic) still rebalances.  ``None``
        (default) disables the ticker; flush-driven cycles still run.
    max_migrations_per_cycle:
        Hard cap on migrations *applied* per control cycle, enforced at
        apply time on top of the planner's ``max_moves`` budget (``0``
        plans but applies nothing; ``None`` = unthrottled).  The cap in
        force is recorded on ``RebalanceOutcome.migration_cap``.
    """

    hot_factor: float = 1.25
    cold_factor: float = 0.75
    max_moves: int = 1
    min_workers: int = 1
    max_workers: int | None = None
    grow_backlog: int | None = None
    backlog_weight: float = 0.0
    smoothing: float = 0.5
    cadence_flushes: int = 1
    cadence_seconds: float | None = None
    max_migrations_per_cycle: int | None = None

    def __post_init__(self):
        if not self.hot_factor >= 1.0:
            raise ValidationError(
                f"hot_factor must be >= 1.0, got {self.hot_factor}"
            )
        if not 0.0 <= self.cold_factor <= 1.0:
            raise ValidationError(
                f"cold_factor must be in [0, 1], got {self.cold_factor}"
            )
        if self.max_moves < 0:
            raise ValidationError(f"max_moves must be >= 0, got {self.max_moves}")
        if self.min_workers < 1:
            raise ValidationError(
                f"min_workers must be >= 1, got {self.min_workers}"
            )
        if self.max_workers is not None and self.max_workers < self.min_workers:
            raise ValidationError(
                f"max_workers ({self.max_workers}) must be >= "
                f"min_workers ({self.min_workers})"
            )
        if self.grow_backlog is not None and self.grow_backlog < 1:
            raise ValidationError(
                f"grow_backlog must be >= 1 (or None), got {self.grow_backlog}"
            )
        if self.backlog_weight < 0.0:
            raise ValidationError(
                f"backlog_weight must be >= 0, got {self.backlog_weight}"
            )
        if not 0.0 < self.smoothing <= 1.0:
            raise ValidationError(
                f"smoothing must be in (0, 1], got {self.smoothing}"
            )
        if self.cadence_flushes < 1:
            raise ValidationError(
                f"cadence_flushes must be >= 1, got {self.cadence_flushes}"
            )
        if self.cadence_seconds is not None and not self.cadence_seconds > 0:
            raise ValidationError(
                f"cadence_seconds must be > 0 (or None), got {self.cadence_seconds}"
            )
        if (
            self.max_migrations_per_cycle is not None
            and self.max_migrations_per_cycle < 0
        ):
            raise ValidationError(
                "max_migrations_per_cycle must be >= 0 (or None), got "
                f"{self.max_migrations_per_cycle}"
            )


class RebalancePolicy:
    """Greedy hottest-template-to-coldest-shard controller.

    Stateful across cycles: template heat is the cross-cycle EWMA of
    *this cycle's* fit work (fit-count delta times the template's fit
    wall-time EWMA, plus optional backlog weight), so a template that
    was hot last week but idle now cools off instead of pinning the
    topology.  ``plan`` is pure (no service access, no clock) — it maps
    load snapshots to a :class:`RebalancePlan`, which makes every policy
    decision unit-testable without processes.
    """

    def __init__(self, config: RebalanceConfig | None = None):
        self.config = config if config is not None else RebalanceConfig()
        self.cycles = 0
        self._last_fits: dict[str, int] = {}
        self._heat: dict[str, float] = {}

    def _observe(self, templates: list[TemplateLoad]) -> dict[str, float]:
        """Fold this cycle's load snapshot into the heat EWMAs."""
        config = self.config
        seen = set()
        for load in templates:
            seen.add(load.key)
            delta = max(0, load.fits - self._last_fits.get(load.key, 0))
            self._last_fits[load.key] = load.fits
            per_fit = load.fit_seconds_ewma
            if per_fit is None or per_fit <= 0.0:
                per_fit = _MIN_FIT_COST
            cycle_heat = delta * per_fit + config.backlog_weight * load.backlog
            previous = self._heat.get(load.key)
            if previous is None:
                self._heat[load.key] = cycle_heat
            else:
                self._heat[load.key] = (
                    config.smoothing * cycle_heat
                    + (1.0 - config.smoothing) * previous
                )
        for key in list(self._heat):
            if key not in seen:
                del self._heat[key]
                self._last_fits.pop(key, None)
        return dict(self._heat)

    def plan(
        self,
        shards: list[ShardLoad],
        templates: list[TemplateLoad],
    ) -> RebalancePlan:
        """Map one load snapshot to a plan (pure; mutates only heat state)."""
        config = self.config
        self.cycles += 1
        heat = self._observe(templates)
        workers = len(shards)
        if workers == 0:
            return RebalancePlan(reason="no shards")

        routed = {shard.index: sorted(shard.routed) for shard in shards}
        load = {
            shard.index: sum(heat.get(key, 0.0) for key in shard.routed)
            for shard in shards
        }
        backlog = {shard.index: shard.backlog for shard in shards}

        grow_to: int | None = None
        if (
            config.grow_backlog is not None
            and config.max_workers is not None
            and workers < config.max_workers
            and max(backlog.values()) > config.grow_backlog
        ):
            grow_to = workers + 1
            # The new shard joins the candidate set cold and empty, so
            # the greedy pass below can immediately move work onto it.
            routed[workers] = []
            load[workers] = 0.0
            workers = grow_to

        moves: list[Migration] = []
        reasons: list[str] = []
        for _ in range(config.max_moves):
            total = sum(load.values())
            mean = total / workers
            if total <= 0.0:
                break
            # Hottest eligible source: above the hot watermark and not
            # down to its last template (moving a lone template to an
            # idle shard just relocates the hotspot).
            sources = [
                index
                for index in load
                if load[index] > config.hot_factor * mean and len(routed[index]) >= 2
            ]
            if not sources:
                break
            src = max(sources, key=lambda index: (load[index], -index))
            # Coldest eligible destination under the cold watermark.
            sinks = [
                index
                for index in load
                if index != src and load[index] < config.cold_factor * mean
            ]
            if not sinks:
                break
            dst = min(sinks, key=lambda index: (load[index], index))
            candidates = [key for key in routed[src] if heat.get(key, 0.0) > 0.0]
            if not candidates:
                break
            key = max(candidates, key=lambda key: (heat[key], key))
            if load[dst] + heat[key] >= load[src]:
                break  # the move would not actually improve the imbalance
            moves.append(Migration(key=key, src=src, dst=dst))
            routed[src].remove(key)
            routed[dst].append(key)
            load[src] -= heat[key]
            load[dst] += heat[key]
            reasons.append(f"heat {heat[key]:.2e}s {key}: {src}->{dst}")

        shrink_to: int | None = None
        if grow_to is None and not moves and workers > config.min_workers:
            # Drop trailing shards that host nothing — the cautious
            # shrink: no migration traffic, just fewer idle processes.
            keep = workers
            while keep > config.min_workers and not routed[keep - 1]:
                keep -= 1
            if keep < workers:
                shrink_to = keep

        if grow_to is not None:
            reasons.insert(0, f"backlog {max(backlog.values())} > {config.grow_backlog}")
        if shrink_to is not None:
            reasons.append(f"trailing shards {shrink_to}..{workers - 1} idle")
        reason = "; ".join(reasons) if reasons else "balanced"
        return RebalancePlan(
            moves=tuple(moves), grow_to=grow_to, shrink_to=shrink_to, reason=reason
        )


__all__ = [
    "LOAD_EWMA_ALPHA",
    "Migration",
    "RebalanceConfig",
    "RebalanceOutcome",
    "RebalancePlan",
    "RebalancePolicy",
    "ShardLoad",
    "TemplateLoad",
]
