"""Append-only, hash-chained audit log of gateway envelope traffic.

Every envelope the gateway acts on — submits, observes, front-door batch
flushes, rebalance cycles, policy denials — appends one
:class:`AuditRecord`.  Records form a hash chain: each carries the SHA-256
of its own canonical payload *plus the previous record's hash*, so the
log is tamper-evident — editing, dropping or reordering any record
breaks verification of every record after it.  :func:`verify_chain`
checks a record sequence end to end; :meth:`AuditLog.verify` checks the
live log.

The log is deliberately parent-side and in-memory: it observes the
pipeline, it never participates in it, so a permissive governance plane
stays bitwise-equivalent to running with none (the subsystem's hard
gate).  Timestamps come from the module-level ``time_fn`` (monkeypatch
it in tests for deterministic records).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

#: Wall-clock source for record timestamps (monkeypatchable).
time_fn = time.time

#: ``prev_hash`` of the first record in every chain.
GENESIS_HASH = "0" * 64

#: Record kinds the gateway emits.
KINDS = ("submit", "observe", "batch_flush", "rebalance", "denial")


@dataclass(frozen=True)
class AuditRecord:
    """One immutable, chained entry of the audit log."""

    #: Position in the log (0-based, dense).
    seq: int
    #: One of :data:`KINDS`.
    kind: str
    #: Query-template key the envelope targeted; ``None`` for log-wide
    #: events (batch flushes, rebalances).
    template: str | None
    #: ``Principal.subject`` of the caller; ``None`` for anonymous
    #: requests and infrastructure events.
    subject: str | None
    #: Logical tick of the pipeline action; ``None`` when no tick applies.
    tick: int | None
    #: ``"ok"``, ``"denied"`` or ``"error"``.
    outcome: str
    #: Free-form short context: rule ids for a denial, trigger and item
    #: counts for a flush, the applied plan for a rebalance.
    detail: str
    #: Wall-clock time of the append (``time_fn()``).
    at: float
    #: Hash of the previous record (:data:`GENESIS_HASH` for the first).
    prev_hash: str
    #: SHA-256 over this record's canonical payload, chaining ``prev_hash``.
    hash: str


def _payload(
    seq: int,
    kind: str,
    template: str | None,
    subject: str | None,
    tick: int | None,
    outcome: str,
    detail: str,
    at: float,
    prev_hash: str,
) -> bytes:
    # repr() of a fixed-shape tuple is canonical for these field types
    # (ints, floats, strings, None) — no separator ambiguity.
    return repr(
        (seq, kind, template, subject, tick, outcome, detail, at, prev_hash)
    ).encode()


def record_hash(record: AuditRecord) -> str:
    """The hash the record *should* carry, recomputed from its fields."""
    return hashlib.sha256(
        _payload(
            record.seq,
            record.kind,
            record.template,
            record.subject,
            record.tick,
            record.outcome,
            record.detail,
            record.at,
            record.prev_hash,
        )
    ).hexdigest()


def verify_chain(records) -> bool:
    """Whether a record sequence is an intact, untampered chain.

    Checks, per record: dense 0-based ``seq``, ``prev_hash`` linkage to
    the predecessor (genesis for the first), and that ``hash`` matches
    the recomputation from the record's own fields.  An empty sequence
    is a valid (genesis) chain.
    """
    prev = GENESIS_HASH
    for index, record in enumerate(records):
        if record.seq != index:
            return False
        if record.prev_hash != prev:
            return False
        if record.hash != record_hash(record):
            return False
        prev = record.hash
    return True


def export_chain(records, path) -> int:
    """Write a record sequence as JSON lines (one record per line).

    The on-disk form is self-contained: :func:`verify_chain_file` (or
    any external verifier re-implementing :func:`record_hash`) can check
    it with no access to the process that wrote it.  Returns the number
    of records written.
    """
    lines = [
        json.dumps(asdict(record), separators=(",", ":"), sort_keys=True)
        for record in records
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def verify_chain_file(path, expected_head: str | None = None) -> bool:
    """Offline verification of an exported chain file.

    Returns False for *any* defect — unparseable lines, missing fields,
    a broken chain, or (when ``expected_head`` is given) a head hash
    that does not match the anchor — rather than raising: a tampered
    file must never crash the verifier that is judging it.
    """
    records = []
    try:
        text = Path(path).read_text()
        for line in text.splitlines():
            if not line.strip():
                continue
            records.append(AuditRecord(**json.loads(line)))
    except (OSError, TypeError, ValueError):
        return False
    if not verify_chain(records):
        return False
    if expected_head is not None:
        head = records[-1].hash if records else GENESIS_HASH
        if head != expected_head:
            return False
    return True


class AuditLog:
    """Thread-safe append-only log building the hash chain.

    There is no delete, truncate or update surface — by construction.
    ``records()`` returns an immutable snapshot tuple.  ``sink``, when
    given, is called with each record *after* its append commits and
    outside the log's lock (the durability subsystem journals records
    to the WAL this way; a journal append may cut a checkpoint, and
    its fsyncs must not run under the log's lock).
    """

    def __init__(self, sink=None):
        self._lock = threading.Lock()
        self._records: list[AuditRecord] = []
        self._head = GENESIS_HASH
        self.sink = sink

    @classmethod
    def restore(cls, records, sink=None) -> "AuditLog":
        """Rebuild a log from previously exported/journaled records.

        The chain is verified before a single record is accepted — a
        tampered journal can never masquerade as a live log.
        """
        records = list(records)
        if not verify_chain(records):
            raise ValueError("cannot restore: records are not an intact chain")
        log = cls(sink=sink)
        log._records = records
        if records:
            log._head = records[-1].hash
        return log

    def append(
        self,
        kind: str,
        *,
        template: str | None = None,
        subject: str | None = None,
        tick: int | None = None,
        outcome: str = "ok",
        detail: str = "",
    ) -> AuditRecord:
        if kind not in KINDS:
            raise ValueError(f"unknown audit record kind {kind!r}")
        with self._lock:
            seq = len(self._records)
            at = time_fn()
            prev = self._head
            digest = hashlib.sha256(
                _payload(seq, kind, template, subject, tick, outcome, detail, at, prev)
            ).hexdigest()
            record = AuditRecord(
                seq=seq,
                kind=kind,
                template=template,
                subject=subject,
                tick=tick,
                outcome=outcome,
                detail=detail,
                at=at,
                prev_hash=prev,
                hash=digest,
            )
            self._records.append(record)
            self._head = digest
        if self.sink is not None:
            self.sink(record)
        return record

    def export(self, path) -> int:
        """Export the live chain to a JSON-lines file; see
        :func:`export_chain`."""
        return export_chain(self.records(), path)

    def records(self) -> tuple[AuditRecord, ...]:
        with self._lock:
            return tuple(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def head_hash(self) -> str:
        """Hash of the newest record (genesis when the log is empty)."""
        with self._lock:
            return self._head

    def verify(self) -> bool:
        """Verify the live log's chain end to end."""
        return verify_chain(self.records())
