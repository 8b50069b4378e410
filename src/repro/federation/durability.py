"""Durable federation state: WAL journaling, checkpoints, recovery.

The gateway's authoritative state — execution histories, the routing
table, the audit hash chain, tick/rotation counters, the simulator's
noise-stream position — lives in the parent process; before this module
a gateway crash lost every observation the federation had learned from.
:class:`DurabilityManager` journals each state-changing event to a
:mod:`repro.core.wal` segment as it commits, cuts a checkpoint every
``checkpoint_every`` records, and replays the journal on
:meth:`~repro.federation.gateway.FederationGateway.recover` into a state
bitwise-equal to a never-crashed gateway (the same restart-equivalence
bar the chaos harness holds worker crashes to).

History rows and audit records are append-only and already sit in the
segments, so the sealed segments *are* their archive and a checkpoint
copies none of them (the anchoring checkpoint of ARIES, Mohan et al.,
TODS 1992).  A checkpoint seals the live segment (its close fsyncs
unless ``fsync="off"``), opens the next, and atomically writes a
constant-size manifest: the lsn, the next segment number, the count of
journaled audit records and the audit head hash.  Checkpoint cost is
therefore independent of run length.  No segment is ever unlinked: the
journal's disk footprint grows with the run, and recovery reads every
journaled row once.

Journaled event types (one JSON payload each, ``"t"`` discriminates):

* ``register`` — a template registration fingerprint (key + feature and
  metric names).  Recovery *validates* these against the live gateway
  rather than re-registering: the environment (catalog, stats,
  enumerator) is not journaled, so the caller rebuilds it — e.g. a fresh
  ``MidasSystem`` — and the journal proves it matches.
* ``row`` — one history append: template, tick, features, costs, the
  expected history size after the append (the idempotency guard that
  makes checkpoint-racing-append double-application impossible), the
  rotation counter consumed (if any), the gateway tick counter, and the
  simulator's post-draw RNG state.
* ``tick`` — a gateway tick consumed without a history append (a
  plan-only submission, or a submission that failed after its tick was
  assigned).  Without these the recovered tick counter would drift from
  the oracle's.
* ``audit`` — one :class:`~repro.governance.audit.AuditRecord`,
  verbatim (ROADMAP 4c: the chain spills to disk and survives).
* ``fit`` — a model fit with the history version it covered.  Recovery
  re-fits exactly the templates whose snapshot was *fresh* at the
  crash, so post-recovery fit/snapshot-hit behaviour matches the
  uninterrupted oracle's.
* ``topology`` — the full route table + worker count after a
  migration/resize (rebalance decisions are timing-dependent, so routes
  are journaled, never re-derived).

Every payload carries a monotone ``lsn``.  Recovery reads the manifest,
then replays every segment from 1 in order; each apply step is
idempotent by construction (absolute values, size guards, seq guards).
Segment numbers must run contiguously from 1 and reach the manifest's
lsn, and the rebuilt audit chain must land on the manifest's head hash
at the manifest's record count.

Torn tails (the final segment ends mid-record) are crash artifacts:
recovery truncates that segment to its last intact record, reports the
dropped bytes and resumes in the next segment, so a later recovery
never meets a torn non-final segment.  Mid-file damage (a fully-present
record failing its CRC32), a missing segment, a journal that
contradicts the live gateway, or traffic offered before ``recover()``
all raise :class:`~repro.federation.errors.DurabilityError` — never a
silent partial state.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.core import wal
from repro.core.wal import WalCorruptionError
from repro.federation.envelopes import RecoveryReport
from repro.federation.errors import DurabilityError, GatewayConfigError
from repro.governance.audit import GENESIS_HASH, AuditRecord

#: Default number of WAL records per segment (between checkpoints).
DEFAULT_CHECKPOINT_EVERY = 256


@dataclass(frozen=True)
class DurabilityConfig:
    """Declarative durability policy for one gateway.

    Parameters
    ----------
    dir:
        Directory holding the WAL segments and checkpoint.  Created on
        first use; a directory with existing state puts the gateway in
        recovery-pending mode (traffic raises
        :class:`~repro.federation.errors.DurabilityError` until
        ``recover()`` runs — existing state is never silently shadowed).
    fsync:
        ``"always"`` | ``"batch"`` | ``"off"`` — see
        :class:`repro.core.wal.WalWriter` for the exact guarantees.
    checkpoint_every:
        Records per WAL segment: after this many records the live
        segment is sealed and an anchor manifest written (``None``
        disables periodic checkpoints; the journal then stays in one
        segment until ``recover()`` or an explicit checkpoint).
    """

    dir: str | os.PathLike
    fsync: str = "batch"
    checkpoint_every: int | None = DEFAULT_CHECKPOINT_EVERY

    def __post_init__(self):
        if not str(self.dir):
            raise GatewayConfigError("durability dir must be a non-empty path")
        if self.fsync not in wal.FSYNC_MODES:
            raise GatewayConfigError(
                f"fsync must be one of {wal.FSYNC_MODES}, got {self.fsync!r}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise GatewayConfigError(
                f"checkpoint_every must be >= 1 or None, "
                f"got {self.checkpoint_every}"
            )


@dataclass
class _JournalState:
    """Mutable replay accumulator (one per recover() call)."""

    tick: int = 0
    rotation: dict = field(default_factory=dict)
    registrations: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    audit: dict = field(default_factory=dict)
    fit_versions: dict = field(default_factory=dict)
    routes: dict | None = None
    workers: int | None = None
    rng: dict | None = None
    #: The manifest's anchor (``audit_head`` is None without a manifest).
    audit_head: str | None = None
    audit_count: int = 0
    checkpoint_lsn: int = 0


#: ``AuditRecord``'s fields in declaration order; every one is a scalar,
#: so a flat read gives what ``dataclasses.asdict`` gives without its
#: recursive deep copy.
_AUDIT_FIELDS = tuple(item.name for item in fields(AuditRecord))


def _audit_fields(record: AuditRecord) -> dict:
    return {name: getattr(record, name) for name in _AUDIT_FIELDS}


class DurabilityManager:
    """Journals one gateway's state transitions and replays them.

    Lock discipline: ``_lock`` serialises every append and the
    checkpoint cut.  It is taken *after* whatever template lock the
    journaling operation holds and takes no lock below it — a
    checkpoint reads only the manager's own counters — so it cannot
    participate in a cycle with the gateway mutex, the audit log's lock
    or any serving-layer lock.

    ``governance`` is the gateway's
    :class:`~repro.federation.governance.GovernancePlane`: the manager
    journals its audit records and, on recovery, rebuilds the journaled
    chain through it.
    """

    def __init__(self, gateway, config: DurabilityConfig, governance):
        self.config = config
        self._gateway = gateway
        self._governance = governance
        governance.journal(self.note_audit)
        self._lock = threading.RLock()
        self._directory = Path(config.dir)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._writer: wal.WalWriter | None = None
        self._segment = 0
        self._lsn = 0
        self._since_checkpoint = 0
        #: The journaled audit chain's length and head (the anchor).
        self._audit_count = 0
        self._audit_head = GENESIS_HASH
        self._closed = False
        #: True while the directory holds un-replayed state: journaling
        #: is suspended and traffic is refused until ``recover()``.
        self.pending = wal.has_state(self._directory)
        if not self.pending:
            self._open_segment(1)

    # Journal appends --------------------------------------------------------

    def ensure_ready(self) -> None:
        """Refuse traffic while existing journal state awaits replay."""
        if self.pending:
            raise DurabilityError(
                f"durability dir {str(self._directory)!r} holds existing WAL "
                "state; call gateway.recover() before serving traffic "
                "(refusing to silently shadow a journal)"
            )

    def note_register(self, key: str, features, metrics) -> None:
        self._append(
            {
                "t": "register",
                "key": key,
                "features": list(features),
                "metrics": list(metrics),
            }
        )

    def note_row(
        self,
        key: str,
        tick: int,
        features: dict,
        costs: dict,
        size: int,
        rotation: int | None,
        gw: int,
        rng: dict | None,
    ) -> None:
        self._append(
            {
                "t": "row",
                "key": key,
                "tick": tick,
                "features": features,
                "costs": costs,
                "size": size,
                "rot": rotation,
                "gw": gw,
                "rng": rng,
            }
        )

    def note_tick(self, gw: int) -> None:
        self._append({"t": "tick", "gw": gw})

    def note_audit(self, record: AuditRecord) -> None:
        with self._lock:
            if self.pending or self._closed or self._writer is None:
                return  # journaling suspended: _append would drop it
            # The sink runs outside the audit log's lock, so records may
            # arrive out of seq order; the anchor is the highest seq.
            if record.seq >= self._audit_count:
                self._audit_count = record.seq + 1
                self._audit_head = record.hash
            self._append({"t": "audit", "record": _audit_fields(record)})

    def note_fit(self, key: str, version: int) -> None:
        self._append({"t": "fit", "key": key, "version": version})

    def note_topology(self, routes: dict, workers: int) -> None:
        self._append({"t": "topology", "routes": dict(routes), "workers": workers})

    def _append(self, payload: dict) -> None:
        with self._lock:
            if self.pending or self._closed or self._writer is None:
                return
            self._lsn += 1
            payload["lsn"] = self._lsn
            self._writer.append(payload)
            self._since_checkpoint += 1
            every = self.config.checkpoint_every
            if every is not None and self._since_checkpoint >= every:
                self._checkpoint_locked()

    def sync(self) -> None:
        """Batch boundary (one front-door flush): force the journal to
        stable storage under the ``"batch"`` policy."""
        with self._lock:
            if self._writer is not None:
                self._writer.sync()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._writer is not None:
                self._writer.close()
                self._writer = None

    # Checkpoints ------------------------------------------------------------

    def checkpoint(self) -> None:
        """Cut a checkpoint now: seal the live segment, open the next
        and write the anchor manifest."""
        with self._lock:
            if self.pending or self._closed:
                return
            self._checkpoint_locked()

    def _checkpoint_locked(self) -> None:
        self._open_segment(self._segment + 1)
        wal.write_checkpoint(
            self._directory,
            {
                "lsn": self._lsn,
                "segment": self._segment,
                "audit_count": self._audit_count,
                "audit_head": self._audit_head,
            },
            fsync=self.config.fsync,
        )
        self._since_checkpoint = 0

    def _open_segment(self, number: int) -> None:
        if self._writer is not None:
            self._writer.close()
        self._segment = number
        self._writer = wal.WalWriter(
            self._directory / wal.segment_name(number), fsync=self.config.fsync
        )

    # Recovery ---------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Replay the directory's WAL segments into the gateway.

        The gateway must be freshly constructed with its templates
        re-registered (``MidasSystem`` does this at construction); the
        journal's registration fingerprints are validated against the
        live ones, then rows, counters, routes, the audit chain and the
        simulator RNG position are restored and snapshots warmed for
        every template that was fresh at the crash.  A torn final
        segment is truncated to its last intact record, and a checkpoint
        opens the next segment, where journaling resumes.  Live
        templates the journal never registered are journaled then, so
        the journal fingerprints every template it holds rows for.
        """
        with self._lock:
            if not self.pending:
                return RecoveryReport(recovered=False)
            try:
                state, stats = self._read_journal()
            except WalCorruptionError as error:
                raise DurabilityError(str(error)) from error
            rows = self._apply(state)
            if stats["torn"] is not None:
                wal.truncate_segment(*stats["torn"])
            self.pending = False
            self._lsn = max(self._lsn, stats["lsn"])
            audit = self._governance.log
            if audit is not None:
                self._audit_count, self._audit_head = len(audit), audit.head_hash
            warmed = self._warm_snapshots(state)
            self._segment = stats["segments"]
            self._checkpoint_locked()
            gateway = self._gateway
            for key in sorted(gateway._keys - state.registrations.keys()):
                history = gateway.engine.history(key)
                self.note_register(key, history.feature_names, history.metric_names)
            return RecoveryReport(
                recovered=True,
                checkpoint_lsn=state.checkpoint_lsn,
                segments=stats["segments"],
                records=stats["records"],
                rows=rows,
                registrations=len(state.registrations),
                audit_records=len(state.audit),
                torn_bytes=stats["torn_bytes"],
                routes=0 if state.routes is None else len(state.routes),
                warmed_fits=warmed,
                tick=state.tick,
            )

    def _read_journal(self) -> tuple[_JournalState, dict]:
        """Parse the manifest + every segment into one replay accumulator."""
        state = _JournalState()
        manifest = wal.read_checkpoint(self._directory)
        if manifest is not None:
            state.checkpoint_lsn = manifest["lsn"]
            state.audit_count = manifest["audit_count"]
            state.audit_head = manifest["audit_head"]
        segments = wal.list_segments(self._directory)
        numbers = [wal.segment_number(path) for path in segments]
        for expected, number in enumerate(numbers, start=1):
            if number != expected:
                raise DurabilityError(
                    f"{wal.segment_name(expected)} is missing: WAL segments "
                    f"must run contiguously from 1, and {wal.segment_name(number)} "
                    "follows"
                )
        lsn = records = torn_bytes = 0
        torn = None
        for path in segments:
            scan = wal.scan_segment(path)
            if scan.torn_bytes:
                if path != segments[-1]:
                    raise DurabilityError(
                        f"{path.name}: torn tail in a non-final WAL segment — "
                        "segments rotate only at record boundaries, so this "
                        "is corruption, not a crash artifact"
                    )
                torn_bytes = scan.torn_bytes
                torn = (path, scan.valid_bytes)
            for payload in scan.records:
                records += 1
                lsn = max(lsn, payload["lsn"])
                self._fold(state, payload)
        if manifest is not None and (
            lsn < manifest["lsn"] or len(numbers) < manifest["segment"] - 1
        ):
            raise DurabilityError(
                f"the journal ends at segment {len(numbers)}, lsn {lsn}, but "
                f"the checkpoint anchors segments through "
                f"{manifest['segment'] - 1}, lsn {manifest['lsn']}"
            )
        return state, {
            "lsn": lsn,
            "segments": len(numbers),
            "records": records,
            "torn_bytes": torn_bytes,
            "torn": torn,
        }

    @staticmethod
    def _fold(state: _JournalState, payload: dict) -> None:
        kind = payload["t"]
        if kind == "register":
            state.registrations.setdefault(payload["key"], payload)
        elif kind == "row":
            state.rows.append(payload)
            state.tick = max(state.tick, payload["gw"])
            if payload["rot"] is not None:
                state.rotation[payload["key"]] = payload["rot"]
            if payload["rng"] is not None:
                state.rng = payload["rng"]
        elif kind == "tick":
            state.tick = max(state.tick, payload["gw"])
        elif kind == "audit":
            record = payload["record"]
            state.audit.setdefault(record["seq"], record)
        elif kind == "fit":
            state.fit_versions[payload["key"]] = payload["version"]
        elif kind == "topology":
            state.routes = payload["routes"]
            state.workers = payload["workers"]
        else:
            raise DurabilityError(f"unknown WAL record type {kind!r}")

    def _apply(self, state: _JournalState) -> int:
        gateway = self._gateway
        engine = gateway.engine
        # 1. Registrations: validate, never re-register.  The caller
        #    rebuilt the environment; the journal proves it matches.
        for key, registration in sorted(state.registrations.items()):
            if key not in gateway._keys:
                raise DurabilityError(
                    f"journal registers template {key!r} but the gateway "
                    "does not; re-register the same templates before "
                    "recover()",
                    template=key,
                )
            history = engine.history(key)
            if list(history.feature_names) != registration["features"] or list(
                history.metric_names
            ) != registration["metrics"]:
                raise DurabilityError(
                    f"journalled registration for {key!r} (features="
                    f"{registration['features']}, metrics="
                    f"{registration['metrics']}) does not match the live one",
                    template=key,
                )
            if history.size:
                raise DurabilityError(
                    f"template {key!r} already has {history.size} rows; "
                    "recover() needs a fresh gateway",
                    template=key,
                )
        # 2. Rows, in journal order.  The size guard makes a row
        #    journaled twice a no-op.
        replayed = 0
        for payload in state.rows:
            history = engine.history(payload["key"])
            if history.size >= payload["size"]:
                continue
            if history.size != payload["size"] - 1:
                raise DurabilityError(
                    f"WAL gap for {payload['key']!r}: record expects history "
                    f"size {payload['size']} but {history.size} rows are "
                    "present",
                    template=payload["key"],
                )
            history.append(payload["tick"], payload["features"], payload["costs"])
            replayed += 1
        if replayed:
            engine.serving.record_external(replayed)
        # 3. Counters.
        gateway._tick = max(gateway._tick, state.tick)
        gateway._rotation.update(state.rotation)
        # 4. Audit chain: dense, verified, head-anchored.
        self._restore_audit(state)
        # 5. Routing table (journaled, never re-derived).
        self._restore_routes(state)
        # 6. Simulator noise stream.
        if state.rng is not None:
            simulator = getattr(engine.executor, "simulator", None)
            if not hasattr(simulator, "restore_rng_state"):
                raise DurabilityError(
                    "journal carries simulator RNG state but the live "
                    "simulator cannot restore it"
                )
            simulator.restore_rng_state(state.rng)
        return replayed

    def _restore_audit(self, state: _JournalState) -> None:
        if not state.audit and not state.audit_count:
            return
        sequences = sorted(state.audit)
        if sequences != list(range(len(sequences))):
            raise DurabilityError(
                f"audit journal is not dense: have seqs {sequences[:5]}..."
            )
        records = [AuditRecord(**state.audit[seq]) for seq in sequences]
        if state.audit_head is not None:
            # Head-hash anchor: the chain rebuilt up to the manifest's
            # record count must land exactly on the head the manifest
            # recorded (catches a forged-but-internally-consistent
            # replacement chain, which chain verification alone cannot).
            count = state.audit_count
            if count > len(records) or (
                records[count - 1].hash if count else GENESIS_HASH
            ) != state.audit_head:
                raise DurabilityError(
                    "recovered audit chain does not anchor on the "
                    "checkpoint's head hash"
                )
        self._governance.restore(records)

    def _restore_routes(self, state: _JournalState) -> None:
        if state.routes is None:
            return
        serving = self._gateway.engine.serving
        if not hasattr(serving, "migrate"):
            raise DurabilityError(
                "journal carries a shard routing table but the gateway's "
                f"serving backend ({type(serving).__name__}) has no shards; "
                "recover with serving_backend='sharded'"
            )
        if state.workers is not None and serving.workers != state.workers:
            serving.resize(state.workers)
        current = serving.route_table()
        for key, shard in sorted(state.routes.items()):
            if current.get(key) != shard:
                serving.migrate(key, shard)

    def _warm_snapshots(self, state: _JournalState) -> int:
        """Re-fit every template whose snapshot was *fresh* at the crash
        (journaled fit version == recovered history version), so
        post-recovery fit counts and snapshot hits match the oracle's."""
        gateway = self._gateway
        engine = gateway.engine
        warmed = 0
        for key in sorted(state.fit_versions):
            if key not in gateway._keys:
                continue
            history = engine.history(key)
            if history.size and history.version == state.fit_versions[key]:
                engine.serving.model(key)
                warmed += 1
        return warmed


__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "DurabilityConfig",
    "DurabilityManager",
]
