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
  and ``template_loads`` (routed templates, pending-row backlog,
  per-template fit counts and fit wall-time EWMAs);
* :class:`RebalanceConfig` — the policy knobs (hysteresis factors and
  the per-cycle move budget), validated eagerly;
* :class:`RebalancePolicy` — a *stateful* greedy controller: per cycle
  it turns fit-count deltas x fit-cost EWMAs into template heat, then
  plans hottest-template-to-coldest-shard moves under hysteresis;
* :class:`Migration` / :class:`RebalancePlan` / :class:`RebalanceOutcome`
  — the typed decisions and their applied result.

The policy only *plans*; the sharded service applies plans through its
own ``migrate``/``resize`` primitives, which hold the per-template and
shard locks that make a mid-burst move bitwise invisible.  Pool width
is an explicit decision (``resize``), never the policy's.  Placement is
a pure performance degree of freedom — ``tests/chaos.py`` proves that
any interleaving of moves, crashes, and resizes leaves every prediction
identical to the single-process oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ValidationError

#: Weight of the newest sample in each template's fit wall-time EWMA:
#: ``ewma = ALPHA * sample + (1-ALPHA) * ewma``.
LOAD_EWMA_ALPHA = 0.25

#: Weight of the current cycle in the policy's cross-cycle heat EWMA
#: (``1.0`` would trust only the current cycle).
HEAT_EWMA_ALPHA = 0.5

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


@dataclass(frozen=True)
class ShardLoad:
    """One shard's load accounting snapshot (parent-side, no RPC)."""

    index: int
    #: Templates currently routed to this shard (sorted).
    routed: tuple[str, ...]
    #: Pending rows summed over the routed templates (reported, not
    #: planned on).
    backlog: int


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
    reason: str = "balanced"

    @property
    def is_noop(self) -> bool:
        return not self.moves


@dataclass(frozen=True)
class RebalanceOutcome:
    """One applied control cycle, as reported by
    :meth:`~repro.serving.sharded.ShardedEstimationService.rebalance`."""

    moves: tuple[Migration, ...]
    route_version: int
    reason: str

    def describe(self) -> str:
        parts = "; ".join(move.describe() for move in self.moves) or "no-op"
        return f"[route v{self.route_version}] {parts} ({self.reason})"


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
    """

    hot_factor: float = 1.25
    cold_factor: float = 0.75
    max_moves: int = 1

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


class RebalancePolicy:
    """Greedy hottest-template-to-coldest-shard controller.

    Stateful across cycles: template heat is the cross-cycle EWMA of
    *this cycle's* fit work (fit-count delta times the template's fit
    wall-time EWMA), so a template that was hot last week but idle now
    cools off instead of pinning the topology.  ``plan`` is pure (no
    service access, no clock) — it maps load snapshots to a
    :class:`RebalancePlan`, which makes every policy decision
    unit-testable without processes.
    """

    def __init__(self, config: RebalanceConfig | None = None):
        self.config = config if config is not None else RebalanceConfig()
        self.cycles = 0
        self._last_fits: dict[str, int] = {}
        self._heat: dict[str, float] = {}

    def _observe(self, templates: list[TemplateLoad]) -> dict[str, float]:
        """Fold this cycle's load snapshot into the heat EWMAs."""
        seen = set()
        for load in templates:
            seen.add(load.key)
            delta = max(0, load.fits - self._last_fits.get(load.key, 0))
            self._last_fits[load.key] = load.fits
            per_fit = load.fit_seconds_ewma
            if per_fit is None or per_fit <= 0.0:
                per_fit = _MIN_FIT_COST
            cycle_heat = delta * per_fit
            previous = self._heat.get(load.key)
            if previous is None:
                self._heat[load.key] = cycle_heat
            else:
                self._heat[load.key] = (
                    HEAT_EWMA_ALPHA * cycle_heat + (1.0 - HEAT_EWMA_ALPHA) * previous
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

        reason = "; ".join(reasons) if reasons else "balanced"
        return RebalancePlan(moves=tuple(moves), reason=reason)


__all__ = [
    "HEAT_EWMA_ALPHA",
    "LOAD_EWMA_ALPHA",
    "Migration",
    "RebalanceConfig",
    "RebalanceOutcome",
    "RebalancePlan",
    "RebalancePolicy",
    "ShardLoad",
    "TemplateLoad",
]
