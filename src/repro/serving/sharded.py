"""Shared-nothing sharded estimation serving (cross-process tenancy).

:class:`~repro.serving.service.EstimationService` scales across threads,
but its fits contend for one GIL and its engines live in one process.
:class:`ShardedEstimationService` keeps the exact same serving contract
— it *is* a :class:`~repro.serving.service.BaseEstimationService`, so
registration, per-template locks, version-keyed snapshots, group
refresh and :class:`~repro.serving.service.ServiceStats` are literally
the shared skeleton — while moving every fit into a pool of shard
worker processes.  Its one transport hook ships each group refit as
one ``fit_many`` RPC per busy shard (a single stale :meth:`model` is a
one-item ``fit_many``), one parent thread per busy shard:

* **Routed partitioning.**  Template keys are *placed* by an explicit
  routing table; a fresh registration seeds its route from a stable
  CRC32 (never the salted built-in ``hash``), so the default placement
  is identical across processes, restarts and replays — but placement
  is a degree of freedom, not an invariant: :meth:`migrate` replays a
  template's authoritative history onto another shard and flips its
  route atomically, and :meth:`resize` grows or shrinks the pool live
  (shrink migrates the doomed shards' templates first).  Every route
  flip bumps a monotone *route version*; a straggler RPC that reaches
  the old shard after the flip is refused with a loud
  :class:`StaleRouteError` naming that version, never served from the
  dropped replica.
* **Shared nothing.**  Each worker owns its own
  :class:`~repro.ires.modelling.Modelling`, estimation strategy,
  incremental DREAM engines and :class:`~repro.core.cache.ModelCache`
  (built from a picklable ``strategy_factory``); shards never share
  mutable state, so N shards fit on N cores with no GIL crosstalk.
* **Lazy row streaming.**  The parent keeps the authoritative
  histories; each fit RPC carries only the rows appended since the
  shard last saw that template.  At every fit point the replica is
  bitwise-identical to the parent history, which makes the workers
  oracle-equivalent to the in-process service.
* **Crash detection + deterministic replay.**  A dead or hung worker
  (``rpc_timeout``) is detected on the next RPC, respawned, and re-fed
  every one of its templates' full histories before the call is
  retried — the refit walks the identical window schedule, so
  predictions are unchanged (property-tested, including a forced
  mid-run crash).  Worker-*infrastructure* failures (a double crash, a
  replica desync, a hung RPC) surface as
  :class:`ShardedServingError` and are never silently swallowed by a
  group refresh, unlike a plain "history still too short" skip.
* **Load accounting + rebalancing.**  Each shard reports its routed
  templates and pending-row backlog; each template's heat comes from
  its own worker-measured fit seconds; :meth:`shard_loads` /
  :meth:`template_loads` publish the snapshots a
  :class:`~repro.serving.topology.RebalancePolicy` turns into
  hottest-template-to-coldest-shard moves, applied through
  :meth:`rebalance`.  Placement never changes predictions — the chaos
  harness (``tests/chaos.py``) proves any interleaving of migrations,
  crashes and resizes bitwise-equivalent to the in-process oracle.
* **Graceful shutdown.**  :meth:`ShardedEstimationService.close` (or
  the context manager) drains the pool: polite ``shutdown`` RPC first,
  ``terminate`` as the backstop.  Workers are daemonic, so a dying
  parent never leaks them.

Predictions still run in the parent, lock-free, on the immutable
:class:`~repro.ires.modelling.FittedCostModel` snapshot each fit RPC
returns — estimation latency is identical to the in-process service;
only the (CPU-heavy) fitting crosses the process boundary.

See :mod:`repro.serving.worker` for the RPC message shapes.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import zlib
from typing import Callable, Iterator

from repro.common.errors import EstimationError, ValidationError
from repro.core.cache import CacheStats
from repro.ires.modelling import EstimationStrategy, Modelling
from repro.serving.service import BaseEstimationService, FitOutcome, _Template
from repro.serving.topology import (
    RebalanceOutcome,
    RebalancePolicy,
    ShardLoad,
    TemplateLoad,
)
from repro.serving.worker import PROTOCOL_VERSION, Row, worker_main

#: Default shard-pool width: one worker per core up to a small ceiling
#: (past the core count, extra processes only add IPC overhead).
DEFAULT_SHARD_WORKERS = max(2, min(8, os.cpu_count() or 2))


class ShardedServingError(EstimationError):
    """A shard worker failed in a way that is not a plain estimation or
    validation error (protocol desync, repeated crash, hung RPC, use
    after close).  Never swallowed by group refreshes."""


class WorkerCrashError(ShardedServingError):
    """Internal signal: the shard's worker died or stopped answering.

    Raised by the low-level RPC layer and normally consumed by the
    respawn-and-retry path; it only escapes when the *respawned* worker
    fails again on the same call.
    """


class StaleRouteError(ShardedServingError):
    """An RPC reached a shard *after* its template was migrated away.

    The worker keeps a tombstone (key -> route version) for every
    replica it was told to ``forget``, and refuses any straggler request
    that still names the key.  Loud by design: a fit silently served
    from a dropped replica would mean the atomic route flip leaked."""


def shard_of(key: str, workers: int) -> int:
    """Stable shard index of a template key (CRC32, not salted hash)."""
    return zlib.crc32(key.encode("utf-8")) % workers


class _Shard:
    """One worker process plus its pipe; ``lock`` serialises the shard's
    RPC traffic (one in-flight request per worker).  A template's
    ``synced`` replica cursor is read and written only under its
    shard's lock."""

    __slots__ = ("index", "process", "conn", "lock", "keys")

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.conn = None
        self.lock = threading.RLock()
        self.keys: set[str] = set()


class ShardedEstimationService(BaseEstimationService):
    """Cross-process drop-in for :class:`EstimationService`.

    Parameters
    ----------
    strategy_factory:
        Picklable zero-argument callable building each worker's private
        :class:`~repro.ires.modelling.EstimationStrategy` (e.g.
        ``functools.partial(worker.strategy_from_config, config)`` or
        ``functools.partial(worker.dream_strategy, max_window=20)``).
        A factory rather than an instance: strategies hold locks and
        caches that must not cross the process boundary.
    workers:
        Shard count (>= 1); default :data:`DEFAULT_SHARD_WORKERS`.
    modelling:
        Optional parent-side registry to mirror registrations into, so
        an :class:`~repro.ires.platform.IReSPlatform` sharing it sees
        the same histories.  The parent never fits through it.
    rpc_timeout:
        Seconds to wait for a single worker reply before declaring the
        worker hung, terminating it, and respawning (``None`` = wait
        forever).  Configurable through
        ``FederationConfig(shard_rpc_timeout=...)``.
    """

    def __init__(
        self,
        strategy_factory: Callable[[], EstimationStrategy],
        workers: int | None = None,
        modelling: Modelling | None = None,
        rpc_timeout: float | None = None,
        mp_context: str | None = None,
    ):
        super().__init__()
        if workers is not None and workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        if rpc_timeout is not None and not rpc_timeout > 0:
            raise ValidationError(f"rpc_timeout must be > 0, got {rpc_timeout}")
        self.workers = workers or DEFAULT_SHARD_WORKERS
        self.rpc_timeout = rpc_timeout
        self._strategy_factory = strategy_factory
        self._modelling = modelling
        methods = multiprocessing.get_all_start_methods()
        start = mp_context or ("fork" if "fork" in methods else "spawn")
        self._ctx = multiprocessing.get_context(start)
        self._respawns = 0
        self._rpc_ops: dict[str, int] = {}
        self._closed = False
        # Explicit routing table: key -> shard index.  Seeded from CRC32
        # at registration, rewritten by migrate()/resize().  Reads are
        # GIL-atomic dict lookups; writes happen under the owning
        # template's lock (plus both shard locks), which is what freezes
        # routes for every fit path — they all hold the template lock
        # before resolving a shard.
        self._routes: dict[str, int] = {}
        self._route_version = 0
        self._migrations = 0
        #: Optional observer ``(routes, workers)`` invoked with a
        #: routing-table copy after every route flip (migrate/resize) —
        #: the durability plane journals placement through it so
        #: recovery replays decisions instead of re-deriving them.
        self.on_route_change = None
        # Serialises control-plane operations (resize, rebalance cycles)
        # against each other; the data plane never takes it.
        self._topology_lock = threading.RLock()
        self._shards = [_Shard(index) for index in range(self.workers)]
        for shard in self._shards:
            self._start_worker(shard)

    # Worker lifecycle -------------------------------------------------------

    def _start_worker(self, shard: _Shard) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self._strategy_factory),
            name=f"estimation-shard-{shard.index}",
            daemon=True,
        )
        process.start()
        # The parent must drop its copy of the child end so a dead
        # worker shows up as EOF on this side of the pipe.
        child_conn.close()
        shard.process = process
        shard.conn = parent_conn

    def _respawn_locked(self, shard: _Shard) -> None:
        """Replace a dead worker and replay its shard deterministically.

        Caller holds ``shard.lock``.  Every template assigned to the
        shard is re-registered and fed its *full* parent-side history,
        so the fresh replica's next fit walks the identical window
        schedule the dead worker would have.
        """
        if shard.conn is not None:
            try:
                shard.conn.close()
            except OSError:
                pass
        if shard.process is not None and shard.process.is_alive():
            shard.process.terminate()
            shard.process.join(timeout=5)
        self._start_worker(shard)
        with self._stats_lock:
            self._respawns += 1
        for key in sorted(shard.keys):
            state = self._templates[key]
            rows = self._encode_rows(state, start=0)
            self._call_locked(
                shard,
                {
                    "op": "register",
                    "key": key,
                    "feature_names": state.history.feature_names,
                    "metrics": state.history.metric_names,
                },
            )
            if rows:
                self._call_locked(shard, {"op": "extend", "key": key, "rows": rows})
            state.synced = len(rows)

    def inject_worker_crash(self, index: int) -> None:
        """Hard-kill one shard's worker (test/bench hook).

        The next serving RPC that touches the shard detects the death,
        respawns the worker and replays its templates; this method only
        delivers the crash and waits for the process to die.
        """
        shard = self._shards[index]
        with shard.lock:
            try:
                shard.conn.send({"op": "crash"})
            except (BrokenPipeError, OSError):
                pass
            shard.process.join(timeout=10)

    def inject_worker_hang(self, index: int) -> None:
        """Wedge one shard's worker without killing it (test hook).

        The process stays alive but stops answering, which is the
        failure mode only the ``rpc_timeout`` guard can detect — so this
        hook refuses to run without one (the next RPC would block
        forever).  The next serving RPC that touches the shard waits out
        the timeout, terminates the wedged process and respawns it.
        """
        if self.rpc_timeout is None:
            raise ValidationError(
                "inject_worker_hang requires rpc_timeout: without the "
                "hung-worker guard the next RPC would wait forever"
            )
        shard = self._shards[index]
        with shard.lock:
            try:
                shard.conn.send({"op": "hang", "v": PROTOCOL_VERSION})
            except (BrokenPipeError, OSError):
                pass

    @staticmethod
    def _shutdown_shard(shard: _Shard, timeout: float) -> None:
        """Drain one shard: polite shutdown RPC, terminate as backstop.
        Caller holds (or exclusively owns) the shard."""
        with shard.lock:
            if shard.conn is not None:
                try:
                    shard.conn.send({"op": "shutdown"})
                except (BrokenPipeError, OSError):
                    pass
            if shard.process is not None:
                shard.process.join(timeout=timeout)
                if shard.process.is_alive():
                    shard.process.terminate()
                    shard.process.join(timeout=timeout)
            if shard.conn is not None:
                try:
                    shard.conn.close()
                except OSError:
                    pass
                shard.conn = None

    def close(self, timeout: float = 5.0) -> None:
        """Drain the pool: polite shutdown RPC, terminate as backstop."""
        with self._registry_lock:
            if self._closed:
                return
            self._closed = True
        for shard in tuple(self._shards):
            self._shutdown_shard(shard, timeout)

    def _ensure_open(self) -> None:
        with self._registry_lock:
            if self._closed:
                raise ShardedServingError("sharded service is closed")

    # RPC --------------------------------------------------------------------

    def _call_locked(self, shard: _Shard, message: dict):
        """One request/reply exchange; caller holds ``shard.lock``.

        Raises :class:`WorkerCrashError` when the worker is dead, the
        pipe broke, or ``rpc_timeout`` elapsed (the hung worker is
        terminated first so the retry starts from a clean respawn).
        """
        if self._closed or shard.conn is None:
            raise ShardedServingError("sharded service is closed")
        message.setdefault("v", PROTOCOL_VERSION)
        with self._stats_lock:
            self._rpc_ops[message["op"]] = self._rpc_ops.get(message["op"], 0) + 1
        try:
            shard.conn.send(message)
        except (BrokenPipeError, OSError, ValueError) as error:
            raise WorkerCrashError(
                f"shard {shard.index} worker is gone: {error}"
            ) from error
        deadline = None if self.rpc_timeout is None else time.monotonic() + self.rpc_timeout
        while True:
            try:
                if shard.conn.poll(0.05):
                    reply = shard.conn.recv()
                    break
            except (EOFError, OSError) as error:
                raise WorkerCrashError(
                    f"shard {shard.index} worker died mid-call"
                ) from error
            if not shard.process.is_alive() and not shard.conn.poll():
                raise WorkerCrashError(
                    f"shard {shard.index} worker exited with code "
                    f"{shard.process.exitcode}"
                )
            if deadline is not None and time.monotonic() > deadline:
                shard.process.terminate()
                shard.process.join(timeout=5)
                raise WorkerCrashError(
                    f"shard {shard.index} worker hung past "
                    f"rpc_timeout={self.rpc_timeout}s on {message['op']!r}"
                )
        if reply["ok"]:
            return reply["value"]
        raise self._reply_error(shard, reply)

    @staticmethod
    def _reply_error(shard: _Shard, reply: dict) -> Exception:
        """The parent-side exception for a failed reply (a whole RPC's
        or one ``fit_many`` item's): the one place the worker's error
        kinds map back onto the exception taxonomy."""
        kind, text = reply["kind"], reply["error"]
        if kind == "validation":
            return ValidationError(text)
        if kind == "estimation":
            return EstimationError(text)
        if kind == "stale_route":
            return StaleRouteError(f"shard {shard.index}: {text}")
        return ShardedServingError(f"shard {shard.index}: {text}")

    @staticmethod
    def _encode_rows(state: _Template, start: int) -> list[Row]:
        return [
            (obs.tick, dict(obs.features), dict(obs.costs))
            for obs in state.history.rows_since(start)
        ]

    # Registration -----------------------------------------------------------

    def shard_of(self, key: str) -> int:
        """The shard index serving ``key``: the routing-table entry for
        a registered key, the stable CRC32 default otherwise (so the
        would-be placement of a not-yet-registered key is still
        answerable, and matches the module-level :func:`shard_of`)."""
        route = self._routes.get(key)
        if route is not None:
            return route
        return shard_of(key, self.workers)

    def _on_register(self, state: _Template) -> None:
        """Wire a fresh template to its shard.

        The key joins ``shard.keys`` *before* the register RPC, inside
        one shard-lock hold: if the worker crashes mid-registration the
        respawn replay already covers this template (the worker-side
        register is idempotent, so replay-then-nothing is fine), and a
        concurrent respawn can never run between the RPC and the
        bookkeeping.  Pre-existing history rows ride to the replica
        with the first fit.
        """
        if self._modelling is not None:
            self._modelling.register(state.key, state.history)
        index = shard_of(state.key, self.workers)
        shard = self._shards[index]
        message = {
            "op": "register",
            "key": state.key,
            "feature_names": state.history.feature_names,
            "metrics": state.history.metric_names,
        }
        with shard.lock:
            self._routes[state.key] = index
            shard.keys.add(state.key)
            try:
                self._call_locked(shard, message)
            except WorkerCrashError:
                # The replay registers (and back-fills) this key too.
                self._respawn_locked(shard)

    # Fitting ------------------------------------------------------------

    def _fit_states(self, states: list[_Template]) -> Iterator[FitOutcome]:
        """One ``fit_many`` RPC per busy shard, one parent thread per
        busy shard: the caller's thread takes the first, a helper thread
        each of the others.

        The caller holds every template lock, which freezes routes
        (:meth:`migrate` needs the template lock), so the group is
        bucketed by the live routing table and a stale-route fit is
        structurally impossible.  Each reply item carries the worker's
        own fit seconds, so per-template heat stays per template.
        """
        by_shard: dict[int, list[_Template]] = {}
        for state in states:
            by_shard.setdefault(self.shard_of(state.key), []).append(state)
        groups = [(index, by_shard[index]) for index in sorted(by_shard)]
        replies: list = [None] * len(groups)

        def fit(slot: int) -> None:
            replies[slot] = self._fit_shard(*groups[slot])

        helpers = [
            threading.Thread(target=fit, args=(slot,), name="shard-fit")
            for slot in range(1, len(groups))
        ]
        for helper in helpers:
            helper.start()
        fit(0)
        for helper in helpers:
            helper.join()
        deferred: Exception | None = None
        for (index, group), shard_replies in zip(groups, replies):
            if isinstance(shard_replies, Exception):
                if deferred is None:
                    deferred = shard_replies
                continue
            shard = self._shards[index]
            for state, reply in zip(group, shard_replies):
                if reply["ok"]:
                    yield state, reply["value"], reply["seconds"]
                    continue
                error = self._reply_error(shard, reply)
                if type(error) is EstimationError:
                    # "Cannot fit yet" — isolated, never poisons the
                    # shard-mates.
                    yield state, error, 0.0
                elif deferred is None:
                    deferred = error
        if deferred is not None:
            raise deferred

    def _fit_shard(
        self, index: int, states: list[_Template]
    ) -> list[dict] | Exception:
        """One shard's ``fit_many`` (retried once through a respawn):
        its reply items, or the infrastructure error that stopped it —
        returned, not raised, so the other shards' fits still land."""
        shard = self._shards[index]
        try:
            with shard.lock:
                try:
                    replies = self._fit_many_locked(shard, states)
                except WorkerCrashError:
                    # The replay resets every sync cursor; the retry
                    # recomputes its deltas against the fresh replica.
                    self._respawn_locked(shard)
                    replies = self._fit_many_locked(shard, states)
                for state, reply in zip(states, replies):
                    # Success or failure alike, the worker reports what
                    # actually landed on the replica.
                    state.synced += reply["appended"]
        except Exception as error:  # noqa: BLE001 - surfaced by _fit_states
            return error
        return replies

    def _fit_many_locked(self, shard: _Shard, states: list[_Template]) -> list[dict]:
        """Issue one ``fit_many`` for the shard's group (caller holds the
        template locks and the shard lock).  The row deltas are computed
        here, under the shard lock, so they are always relative to what
        the replica actually holds."""
        items = []
        for state in states:
            rows = self._encode_rows(state, start=state.synced)
            items.append(
                {
                    "key": state.key,
                    "rows": rows,
                    "expected_size": state.synced + len(rows),
                }
            )
        return self._call_locked(shard, {"op": "fit_many", "items": items})

    # Elastic topology -----------------------------------------------------

    def _replay_onto_locked(self, shard: _Shard, state: _Template) -> int:
        """Register ``state`` on ``shard`` and feed it the full
        authoritative history (caller holds the template lock and the
        shard lock).  Retried once through a respawn — the respawn
        replay only covers ``shard.keys``, which does not include this
        template yet, so the retry starts from a clean, empty replica.
        """

        def ship() -> int:
            self._call_locked(
                shard,
                {
                    "op": "register",
                    "key": state.key,
                    "feature_names": state.history.feature_names,
                    "metrics": state.history.metric_names,
                },
            )
            rows = self._encode_rows(state, start=0)
            if rows:
                self._call_locked(
                    shard, {"op": "extend", "key": state.key, "rows": rows}
                )
            return len(rows)

        try:
            return ship()
        except WorkerCrashError:
            self._respawn_locked(shard)
            return ship()

    def migrate(self, key: str, dst_shard: int) -> bool:
        """Move one template's replica to ``dst_shard``; returns whether
        a move happened (``False`` if it already lives there).

        Authoritative-history replay plus an atomic route flip: under
        the template lock (freezing the route — every fit path resolves
        its shard while holding it) and both shard locks, the full
        parent-side history is replayed onto the destination worker,
        then the routing table, both shards' key sets and the sync
        cursor flip together under a bumped route version.  Finally the
        source worker is told to ``forget`` the replica, leaving a
        version-stamped tombstone: any in-flight RPC that reaches the
        old shard after the flip is refused with a loud
        :class:`StaleRouteError` instead of being served from a dropped
        replica.  Replay walks the identical window schedule the source
        replica did (the crash-respawn guarantee), so a migration is
        bitwise invisible to predictions.
        """
        self._ensure_open()
        if not 0 <= dst_shard < self.workers:
            raise ValidationError(
                f"dst_shard must be in [0, {self.workers}), got {dst_shard}"
            )
        state = self._state(key)
        with state.lock:
            src_index = self.shard_of(key)
            if src_index == dst_shard:
                return False
            src = self._shards[src_index]
            dst = self._shards[dst_shard]
            first, second = sorted((src, dst), key=lambda shard: shard.index)
            with first.lock, second.lock:
                shipped = self._replay_onto_locked(dst, state)
                with self._stats_lock:
                    self._route_version += 1
                    self._migrations += 1
                    version = self._route_version
                self._routes[key] = dst_shard
                src.keys.discard(key)
                dst.keys.add(key)
                state.synced = shipped
                try:
                    self._call_locked(
                        src, {"op": "forget", "key": key, "route_v": version}
                    )
                except WorkerCrashError:
                    # A dead source forgets by dying: its respawn replay
                    # covers src.keys, which no longer includes this key.
                    self._respawn_locked(src)
        # Outside every lock: the observer may take the durability
        # manager's lock, which must stay below template/shard locks.
        self._notify_route_change()
        return True

    def resize(self, workers: int) -> int:
        """Grow or shrink the worker pool live; returns the new width.

        Growth appends fresh (empty) shards — existing routes are
        untouched, so nothing refits.  Shrink first migrates every
        template off the doomed trailing shards to its CRC32 placement
        in the smaller pool (deterministic, so a later restart at the
        new width agrees), then drains the orphaned workers.
        """
        self._ensure_open()
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        with self._topology_lock:
            current = len(self._shards)
            if workers == current:
                return current
            if workers > current:
                for index in range(current, workers):
                    shard = _Shard(index)
                    self._start_worker(shard)
                    self._shards.append(shard)
                self.workers = workers
                with self._stats_lock:
                    self._route_version += 1
                self._notify_route_change()
                return workers
            for doomed in self._shards[workers:]:
                for key in sorted(doomed.keys):
                    self.migrate(key, shard_of(key, workers))
            victims = self._shards[workers:]
            del self._shards[workers:]
            self.workers = workers
            with self._stats_lock:
                self._route_version += 1
            for shard in victims:
                self._shutdown_shard(shard, timeout=5.0)
            self._notify_route_change()
            return workers

    def rebalance(self, policy: RebalancePolicy) -> RebalanceOutcome:
        """Run one control cycle of ``policy`` and apply its plan.

        Serialised by the topology lock (one control cycle at a time);
        the data plane keeps serving throughout — each applied move
        holds only its own template's lock.  The planner's ``max_moves``
        is the one bound on migrations per cycle.
        """
        self._ensure_open()
        with self._topology_lock:
            shards, templates = self._load_rows()
            plan = policy.plan(shards, templates)
            applied = []
            for move in plan.moves:
                if 0 <= move.dst < self.workers and self.migrate(move.key, move.dst):
                    applied.append(move)
            return RebalanceOutcome(
                moves=tuple(applied),
                route_version=self.route_version,
                reason=plan.reason,
            )

    def route_table(self) -> dict[str, int]:
        """Copy of the explicit routing table (key -> shard index)."""
        return dict(self._routes)

    def _notify_route_change(self) -> None:
        """Publish the post-flip routing table to the observer (caller
        must not hold template or shard locks — the observer may take
        the durability manager's lock)."""
        if self.on_route_change is not None:
            self.on_route_change(dict(self._routes), self.workers)

    @property
    def route_version(self) -> int:
        """Monotone counter bumped by every route flip (migrate/resize)."""
        with self._stats_lock:
            return self._route_version

    @property
    def migrations(self) -> int:
        """How many template migrations were applied so far."""
        with self._stats_lock:
            return self._migrations

    def _load_rows(self) -> tuple[list[ShardLoad], list[TemplateLoad]]:
        """One consistent-enough pass over the pool's load accounting."""
        shard_rows: list[ShardLoad] = []
        template_rows: list[TemplateLoad] = []
        for shard in tuple(self._shards):
            with shard.lock:
                states = [
                    self._templates[key]
                    for key in sorted(shard.keys)
                    if key in self._templates
                ]
                backlog = sum(state.history.size - state.synced for state in states)
            shard_rows.append(
                ShardLoad(
                    index=shard.index,
                    routed=tuple(state.key for state in states),
                    backlog=backlog,
                )
            )
            with self._stats_lock:
                template_rows.extend(
                    TemplateLoad(
                        key=state.key,
                        shard=shard.index,
                        fits=state.fits,
                        fit_seconds_ewma=state.fit_seconds_ewma,
                    )
                    for state in states
                )
        return shard_rows, template_rows

    def shard_loads(self) -> list[ShardLoad]:
        """Per-shard load accounting snapshots (parent-side, no RPC)."""
        return self._load_rows()[0]

    def template_loads(self) -> list[TemplateLoad]:
        """Per-template load accounting snapshots (parent-side, no RPC)."""
        return self._load_rows()[1]

    # Introspection --------------------------------------------------------

    def rpc_counts(self) -> dict[str, int]:
        """Requests issued per RPC op since construction (``fit_many``,
        ``register``, ``extend``, ...).  The batching guarantees are
        asserted against these counters, never against timing."""
        with self._stats_lock:
            return dict(self._rpc_ops)

    @property
    def respawns(self) -> int:
        """How many dead/hung workers were replaced so far."""
        with self._stats_lock:
            return self._respawns

    def worker_pids(self) -> list[int | None]:
        return [
            None if shard.process is None else shard.process.pid
            for shard in tuple(self._shards)
        ]

    _DEAD_SHARD_STATS = {"pid": None, "templates": 0, "fits": 0, "engine_cache": None}

    def shard_stats(self) -> list[dict]:
        """Per-shard worker counters (pid, replica count, fits, cache),
        plus two parent-side fields: ``backlog`` (rows appended to the
        shard's templates since their last fit) and ``routed`` (how many
        templates the routing table currently places here).

        Strictly read-only: a dead or unreachable worker reports the
        placeholder row instead of being respawned here — healing
        belongs to the serving path (the next fit RPC), not to
        introspection, so a monitoring poll never blocks on a
        full-history replay or perturbs the ``respawns`` counter.  The
        parent-side fields come from the authoritative histories and
        routing table, so they are reported even for a dead worker.
        """
        out = []
        for shard in tuple(self._shards):
            with shard.lock:
                backlog = sum(
                    self._templates[key].history.size - self._templates[key].synced
                    for key in shard.keys
                )
                routed = len(shard.keys)
                try:
                    row = dict(self._call_locked(shard, {"op": "stats"}))
                except (EstimationError, ValidationError):
                    row = dict(self._DEAD_SHARD_STATS)
            row["backlog"] = backlog
            row["routed"] = routed
            out.append(row)
        return out

    def _engine_cache_counters(self) -> CacheStats | None:
        """Engine-cache counters summed across the shard workers."""
        caches = [
            shard_stat["engine_cache"]
            for shard_stat in self.shard_stats()
            if shard_stat["engine_cache"] is not None
        ]
        if not caches:
            return None
        return CacheStats(
            hits=sum(c.hits for c in caches),
            misses=sum(c.misses for c in caches),
            evictions=sum(c.evictions for c in caches),
            expirations=sum(c.expirations for c in caches),
            size=sum(c.size for c in caches),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ShardedEstimationService(workers={self.workers}, "
            f"templates={len(self._templates)}, respawns={self.respawns})"
        )
