"""Shard worker process: the remote half of the sharded serving RPC.

A :class:`~repro.serving.sharded.ShardedEstimationService` owns a pool
of these workers, one process per shard.  Each worker is *shared-
nothing*: it builds its own :class:`~repro.ires.modelling.Modelling`
registry (and therefore its own estimation strategy, incremental DREAM
engines and :class:`~repro.core.cache.ModelCache`) from a picklable
zero-argument ``strategy_factory``, and owns a private replica of every
history assigned to its shard (registered in that ``Modelling``, the
worker's only replica registry).  The parent process keeps the
authoritative histories and streams row deltas to the worker lazily,
right before each fit, so the replica is bitwise-identical to the
parent's history at every fit point — which is what makes replay after
a crash deterministic.

RPC protocol
------------

Messages travel over one duplex :func:`multiprocessing.Pipe` per worker
and are plain picklable values: requests are dicts of primitives (plus
observation rows), replies wrap either a value or a typed error.

Every request carries ``"v": PROTOCOL_VERSION``.  A worker that receives
a different version answers with an ``internal``-kind error instead of
guessing at the message's semantics — a mixed-protocol deployment (old
parent, new worker or vice versa) fails loudly on the first RPC rather
than corrupting replicas silently.  ``crash`` and ``shutdown`` are
exempt so a mismatched pool can still be torn down.

Request shapes (``rows`` is ``[(tick, {feature: value}, {metric: value}),
...]`` in history append order)::

    {"op": "register", "key": str,
     "feature_names": tuple[str, ...], "metrics": tuple[str, ...]}
    {"op": "extend",   "key": str, "rows": list}         -> new size
    {"op": "fit_many", "items": [{"key", "rows", "expected_size"}, ...]}
                          -> [{"key", "ok", ...}, ...] (see below)
    {"op": "forget",   "key": str, "route_v": int}       -> None
    {"op": "stats"}       -> {"pid", "templates", "fits", "engine_cache"}
    {"op": "ping"}        -> "pong"
    {"op": "shutdown"}    -> None (worker exits after replying)
    {"op": "crash"}       -> no reply; the worker hard-exits (test hook
                             for the crash-detection/respawn path)
    {"op": "hang"}        -> no reply; the worker wedges forever (test
                             hook for the rpc_timeout hung-worker guard)

``forget`` is the migration half-close: the parent flipped the key's
route to another shard, so this worker drops its replica *and records
the route version it was dropped at*.  Any straggler RPC that still
names the key (an in-flight fit addressed under the old route) is then
refused with a ``stale_route``-kind error naming that version — loudly,
never as a soft "cannot fit yet" — because a fit landing on a forgotten
replica would mean the atomic route flip was not atomic after all.  A
later ``register`` (the key migrating back) clears the tombstone.

``fit_many`` is the only fit op (a single-template fit is a one-item
``fit_many``): one round-trip carries every stale template of the shard
plus its coalesced row delta, and the reply isolates failures per item
— each element is either ``{"key", "ok": True, "value":
FittedCostModel, "appended": int, "seconds": float}`` or ``{"key",
"ok": False, "kind", "error", "appended": int}``.  A failing tenant
never voids its shard-mates' fits.  ``appended`` is how many of the
item's rows the replica appended: a too-short history fails *after* its
delta landed, and the parent must advance its sync cursor by exactly
that amount or the next fit would re-send the rows and corrupt the
replica's tick order.  ``seconds`` is the worker-measured wall time of
that item's append + fit — the per-template heat the parent's
rebalance policy ranks tenants by.

Reply shapes::

    {"ok": True,  "value": <op-specific value>}
    {"ok": False, "kind": "validation" | "estimation" | "stale_route"
                          | "internal",
     "error": str}

An unknown op (including the ``fit`` op of protocol v3) gets an
``internal``-kind error.  ``kind`` preserves the parent-side exception
taxonomy across the process boundary: ``validation`` re-raises as
:class:`~repro.common.errors.ValidationError`, ``estimation`` as
:class:`~repro.common.errors.EstimationError` (so "history still too
short to fit" keeps its type through the gateway), ``stale_route`` as
a :class:`~repro.serving.sharded.StaleRouteError`, and ``internal`` as
a :class:`~repro.serving.sharded.ShardedServingError`.

Each ``fit_many`` item carries ``expected_size`` — the parent's history
size after the delta — as a desync tripwire: a replica that disagrees
refuses to fit instead of silently training on a torn window.
"""

from __future__ import annotations

import os
import time
from typing import Iterable

from repro.common.errors import EstimationError, ValidationError
from repro.core.history import ExecutionHistory

#: Observation rows on the wire: append-ordered (tick, features, costs).
Row = tuple[int, dict[str, float], dict[str, float]]

#: Wire-protocol version stamped on every request.  Bumped whenever a
#: message shape changes incompatibly (v2 added ``fit_many`` and the
#: version field itself; v3 added ``forget``/``hang`` and the
#: ``stale_route`` error kind; v4 removed the single-template ``fit``
#: op and added per-item ``seconds``); parent and workers must match
#: exactly.
PROTOCOL_VERSION = 4


def strategy_from_config(config):
    """Build the estimation strategy a ``FederationConfig`` names.

    Module-level so ``functools.partial(strategy_from_config, config)``
    is picklable and can travel to a spawned worker; the registry lookup
    happens inside the worker process (backend *names* cross the process
    boundary, strategy *instances* never do).
    """
    from repro.federation.registry import create_strategy

    return create_strategy(config)


def dream_strategy(
    r2_required: float = 0.8,
    max_window: int | None = None,
    cache_capacity: int = 256,
):
    """Picklable factory for a worker-local incremental DREAM strategy.

    The benches and tests shard without a full ``FederationConfig``;
    ``functools.partial(dream_strategy, r2_required=..., ...)`` gives
    them a wire-safe factory equivalent to the ``dream-incremental``
    registry backend.
    """
    from repro.core.cache import ModelCache
    from repro.ires.modelling import DreamStrategy

    return DreamStrategy(
        r2_required=r2_required,
        max_window=max_window,
        incremental=True,
        engine_cache=ModelCache(capacity=cache_capacity),
    )


def _extend(history: ExecutionHistory, rows: Iterable[Row]) -> int:
    for tick, features, costs in rows:
        history.append(tick, features, costs)
    return history.size


class _StaleRouteReference(Exception):
    """An RPC named a key that was migrated off this shard (serialised
    back as the ``stale_route`` kind)."""


class _WorkerState:
    """One shard's private universe: modelling registry + counters."""

    def __init__(self, strategy_factory):
        from repro.ires.modelling import Modelling

        #: The replica registry: one history per template on this shard.
        self.modelling = Modelling(strategy_factory())
        #: Migration tombstones: key -> route version it left at.
        self.forgotten: dict[str, int] = {}
        self.fits = 0

    def handle(self, message: dict):
        op = message["op"]
        if op == "ping":
            return "pong"
        if op == "register":
            key = message["key"]
            feature_names = tuple(message["feature_names"])
            metrics = tuple(message["metrics"])
            if key in self.modelling:
                existing = self.modelling.history(key)
                # Idempotent: a respawn replay may have registered this
                # key just before the original register RPC is retried.
                # Duplicate detection is the parent's job; only a schema
                # mismatch is a genuine error here.
                if (
                    existing.feature_names == feature_names
                    and existing.metric_names == metrics
                ):
                    return None
                raise ValidationError(
                    f"template {key!r} already on this shard with a "
                    "different feature/metric schema"
                )
            self.modelling.register(key, ExecutionHistory(feature_names, metrics))
            self.forgotten.pop(key, None)  # the key migrated back
            return None
        if op == "forget":
            key = message["key"]
            self.modelling.deregister(key)
            self.forgotten[key] = int(message.get("route_v", 0))
            return None
        if op == "extend":
            return _extend(self._history(message["key"]), message["rows"])
        if op == "fit_many":
            # Per-item isolation: each item either fits or carries its
            # own typed failure; a broken tenant never voids the batch.
            return [self._fit_item(item) for item in message["items"]]
        if op == "stats":
            engine_cache = getattr(self.modelling.strategy, "engine_cache", None)
            return {
                "pid": os.getpid(),
                "templates": len(self.modelling),
                "fits": self.fits,
                "engine_cache": None if engine_cache is None else engine_cache.stats,
            }
        raise RuntimeError(f"unknown worker op {op!r}")

    def _fit_item(self, item: dict) -> dict:
        """Append one ``fit_many`` item's delta and refit its template;
        the reply item reports how many rows landed either way."""
        key = item["key"]
        appended = 0
        started = time.perf_counter()
        try:
            history = self._history(key)
            for tick, features, costs in item["rows"]:
                history.append(tick, features, costs)
                appended += 1
            if history.size != item["expected_size"]:
                raise RuntimeError(
                    f"shard replica desync for {key!r}: replica has "
                    f"{history.size} rows, parent expected "
                    f"{item['expected_size']}"
                )
            fitted = self.modelling.fit(key)
        except BaseException as error:  # noqa: BLE001 - reply carries it
            return {
                "key": key,
                "ok": False,
                "kind": _error_kind(error),
                "error": str(error),
                "appended": appended,
            }
        self.fits += 1
        return {
            "key": key,
            "ok": True,
            "value": fitted,
            "appended": appended,
            "seconds": time.perf_counter() - started,
        }

    def _history(self, key: str) -> ExecutionHistory:
        if key in self.forgotten:
            # Not "cannot fit yet" (the estimation kind, which batch
            # callers soak up): a straggler RPC outran a route flip, and
            # that must surface as a loud infrastructure error.  A key
            # is never both registered and tombstoned: register clears
            # the tombstone, forget deregisters the replica.
            raise _StaleRouteReference(
                f"stale route: replica for {key!r} was migrated off "
                f"this shard at route version {self.forgotten[key]}; "
                "refusing the RPC"
            )
        return self.modelling.history(key)


def _serve_boot_error(conn, reply: dict) -> None:
    """Answer every request with the saved boot failure until shutdown."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        op = message.get("op")
        if op == "crash":
            os._exit(17)
        if op == "hang":
            while True:
                time.sleep(3600)
        try:
            conn.send({"ok": True, "value": None} if op == "shutdown" else reply)
        except (BrokenPipeError, OSError):
            return
        if op == "shutdown":
            return


def _version_mismatch(message: dict) -> dict | None:
    """An ``internal``-kind error reply when the request's protocol
    version does not match ours, else ``None``.  ``crash``/``shutdown``
    are exempt so a mismatched pool can still be torn down cleanly."""
    if message.get("op") in ("crash", "shutdown"):
        return None
    version = message.get("v")
    if version == PROTOCOL_VERSION:
        return None
    return {
        "ok": False,
        "kind": "internal",
        "error": (
            f"shard RPC protocol mismatch: worker speaks v{PROTOCOL_VERSION}, "
            f"request carried {'no version' if version is None else f'v{version}'}"
            " — parent and workers must run the same build"
        ),
    }


def _error_kind(error: BaseException) -> str:
    # ValidationError first: the federation taxonomy dual-inherits, and
    # a config-flavoured failure should stay a validation failure.
    if isinstance(error, ValidationError):
        return "validation"
    if isinstance(error, EstimationError):
        return "estimation"
    if isinstance(error, _StaleRouteReference):
        return "stale_route"
    return "internal"


def worker_main(conn, strategy_factory) -> None:
    """The worker process entry point: serve RPCs until shutdown.

    Every request gets exactly one reply (except ``crash``, which
    hard-exits, and ``shutdown``, which replies then returns).  Errors
    never kill the loop — they are serialised back with their taxonomy
    kind so the parent re-raises the right exception type.  That
    includes *boot* failures (``strategy_factory()`` raising, e.g. a
    strategy name registered only in the parent process under a spawn
    context): instead of dying with an opaque exit code, the worker
    stays up and answers every request with the boot error, so the
    parent's first RPC surfaces the root cause instead of a futile
    crash-respawn loop.
    """
    try:
        state = _WorkerState(strategy_factory)
    except BaseException as error:  # noqa: BLE001 - serialise the boot failure
        _serve_boot_error(
            conn,
            {
                "ok": False,
                "kind": _error_kind(error),
                "error": f"shard worker failed to start: {error}",
            },
        )
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent went away: nothing left to serve
        op = message.get("op")
        if op == "crash":
            os._exit(17)  # simulate a hard worker death, no reply
        if op == "hang":
            # Simulated wedge, no reply: the process stays alive but
            # stops serving, which is exactly what the parent's
            # rpc_timeout guard must detect and terminate.
            while True:
                time.sleep(3600)
        if op == "shutdown":
            try:
                conn.send({"ok": True, "value": None})
            except (BrokenPipeError, OSError):
                pass
            return
        mismatch = _version_mismatch(message)
        if mismatch is not None:
            try:
                conn.send(mismatch)
            except (BrokenPipeError, OSError):
                return
            continue
        try:
            reply = {"ok": True, "value": state.handle(message)}
        except BaseException as error:  # noqa: BLE001 - serialise everything
            reply = {"ok": False, "kind": _error_kind(error), "error": str(error)}
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return
