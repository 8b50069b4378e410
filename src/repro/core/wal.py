"""Write-ahead log primitives: framed records, segments, checkpoints.

The durable substrate under :mod:`repro.federation.durability`.  One WAL
record is::

    [4-byte LE payload length][4-byte LE CRC32 of payload][payload]

where the payload is a UTF-8 JSON object (JSON round-trips Python floats
through ``repr``-shortest form, which is what keeps replayed histories
*bitwise* equal to the originals).  Record framing is deliberately dumb:
no compression, no escape sequences, so a reader can always resynchronise
from the front of the file and every corruption mode maps onto exactly
one of two outcomes:

* **torn tail** — the file ends before a record's declared payload does
  (the classic partial ``write(2)`` of a crash).  :func:`scan_segment`
  reports the valid prefix and the dangling byte count; recovery
  truncates to the last intact record and carries on.
* **corruption** — a record is *fully present* but its CRC32 does not
  match (bit rot, tampering, a torn write that later got overwritten).
  That is never a crash artifact, so it raises
  :class:`WalCorruptionError` instead of being silently dropped.

Segments are named ``wal-<n>.log``, rotate at every checkpoint and are
never deleted: sealed segments are the journal's archive.  The
checkpoint file itself is a small manifest, one framed record written
to a temp file, fsynced, then atomically renamed (and the rename fsynced
via the directory; the ``"off"`` policy skips both fsyncs) — so a
half-written checkpoint can never shadow a good one.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import ReproError, ValidationError

#: ``<payload length, payload crc32>`` — both unsigned 32-bit LE.
HEADER = struct.Struct("<II")

#: Supported fsync policies for a :class:`WalWriter`.
FSYNC_MODES = ("always", "batch", "off")

CHECKPOINT_NAME = "checkpoint.bin"
_CHECKPOINT_TMP = "checkpoint.tmp"
_SEGMENT_RE = re.compile(r"^wal-(\d{6})\.log$")


class WalCorruptionError(ReproError):
    """A fully-present WAL or checkpoint record failed its checksum (or
    framing) — data corruption, never a plain crash artifact."""


def segment_name(number: int) -> str:
    return f"wal-{number:06d}.log"


def segment_number(path: Path) -> int:
    match = _SEGMENT_RE.match(path.name)
    if match is None:
        raise ValidationError(f"not a WAL segment name: {path.name!r}")
    return int(match.group(1))


def list_segments(directory: Path) -> list[Path]:
    """The directory's WAL segments, ordered by segment number."""
    segments = [
        path for path in Path(directory).iterdir() if _SEGMENT_RE.match(path.name)
    ]
    return sorted(segments, key=segment_number)


def encode_record(payload: dict) -> bytes:
    """Frame one JSON payload as a length+CRC32 WAL record."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
    return HEADER.pack(len(body), zlib.crc32(body)) + body


@dataclass(frozen=True)
class SegmentScan:
    """Outcome of reading one segment front to back."""

    #: Decoded payloads of every intact record, in file order.
    records: tuple[dict, ...]
    #: Byte length of the intact prefix (a valid truncation point).
    valid_bytes: int
    #: Dangling bytes past the last intact record (a torn tail); 0 for a
    #: cleanly-ended segment.
    torn_bytes: int


def scan_segment(path: Path) -> SegmentScan:
    """Read every record of one segment, classifying the tail.

    A record whose header or payload runs past end-of-file is a torn
    tail: the scan stops there and reports the dangling bytes.  A record
    that is fully present but fails its CRC32 (or does not decode as a
    JSON object) raises :class:`WalCorruptionError` — a reader must
    never silently skip mid-file damage.
    """
    data = Path(path).read_bytes()
    records: list[dict] = []
    offset = 0
    while offset < len(data):
        if offset + HEADER.size > len(data):
            break  # torn header
        length, crc = HEADER.unpack_from(data, offset)
        start = offset + HEADER.size
        end = start + length
        if end > len(data):
            break  # torn payload
        body = data[start:end]
        if zlib.crc32(body) != crc:
            raise WalCorruptionError(
                f"{path.name}: record at byte {offset} is fully present but "
                f"fails its CRC32 (length={length}) — corrupted, not torn"
            )
        try:
            payload = json.loads(body)
        except ValueError as error:
            raise WalCorruptionError(
                f"{path.name}: record at byte {offset} passed its CRC32 but "
                f"is not valid JSON: {error}"
            ) from error
        records.append(payload)
        offset = end
    return SegmentScan(
        records=tuple(records), valid_bytes=offset, torn_bytes=len(data) - offset
    )


def truncate_segment(path: Path, valid_bytes: int) -> None:
    """Drop a segment's torn tail in place (crash repair)."""
    with open(path, "r+b") as handle:
        handle.truncate(valid_bytes)
        handle.flush()
        os.fsync(handle.fileno())


class WalWriter:
    """Appends framed records to one segment under an fsync policy.

    * ``"always"`` — flush + fsync after every append (no completed
      append can be lost, at the price of one disk round-trip each).
    * ``"batch"`` — flush (user-space buffer to OS) after every append,
      fsync only at :meth:`sync` boundaries (the front door calls it
      once per flushed batch) and on close.  A process crash loses
      nothing; an OS crash loses at most the records since the last
      boundary.
    * ``"off"`` — flush per append, never fsync.  Durability is left to
      the OS page cache; the mode exists to price the other two.
    """

    def __init__(self, path: Path, fsync: str = "batch"):
        if fsync not in FSYNC_MODES:
            raise ValidationError(
                f"fsync must be one of {FSYNC_MODES}, got {fsync!r}"
            )
        self.path = Path(path)
        self.fsync = fsync
        self._handle = open(self.path, "ab")
        self._closed = False

    def append(self, payload: dict) -> int:
        """Append one record; returns the record's encoded byte length."""
        record = encode_record(payload)
        self._handle.write(record)
        self._handle.flush()
        if self.fsync == "always":
            os.fsync(self._handle.fileno())
        return len(record)

    def sync(self) -> None:
        """Force written records to stable storage (``"off"`` skips the
        fsync but still drains the user-space buffer)."""
        if self._closed:
            return
        self._handle.flush()
        if self.fsync != "off":
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._closed:
            return
        self.sync()
        self._handle.close()
        self._closed = True


def write_checkpoint(directory: Path, payload: dict, fsync: str = "batch") -> None:
    """Atomically replace the directory's checkpoint.

    The payload is framed exactly like a WAL record (so a flipped bit is
    caught by the same CRC32), written to a temp file, then renamed over
    :data:`CHECKPOINT_NAME` — readers see either the old checkpoint or
    the new one, never a torn hybrid.

    Unless ``fsync`` is ``"off"`` (which, as for :class:`WalWriter`,
    never fsyncs), the temp file is fsynced before the rename and the
    directory after it.  That puts the rename on stable storage before
    the call returns, and with it the directory entry of every segment
    the caller created before checkpointing — so an OS crash cannot lose
    one segment's name while keeping a later one's, which recovery would
    have to refuse as a gap.
    """
    directory = Path(directory)
    durable = fsync != "off"
    tmp = directory / _CHECKPOINT_TMP
    with open(tmp, "wb") as handle:
        handle.write(encode_record(payload))
        handle.flush()
        if durable:
            os.fsync(handle.fileno())
    os.replace(tmp, directory / CHECKPOINT_NAME)
    if durable:
        descriptor = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)


def read_checkpoint(directory: Path) -> dict | None:
    """The directory's checkpoint payload, or ``None`` when it has never
    checkpointed.  A present-but-damaged checkpoint raises
    :class:`WalCorruptionError` (torn temp files are ignored — the
    atomic rename never published them)."""
    path = Path(directory) / CHECKPOINT_NAME
    if not path.exists():
        return None
    scan = scan_segment(path)
    if len(scan.records) != 1 or scan.torn_bytes:
        raise WalCorruptionError(
            f"{path.name}: expected exactly one intact checkpoint record, "
            f"found {len(scan.records)} with {scan.torn_bytes} dangling bytes"
        )
    return scan.records[0]


def has_state(directory: Path) -> bool:
    """Whether the directory holds any recoverable WAL state."""
    directory = Path(directory)
    if not directory.exists():
        return False
    if (directory / CHECKPOINT_NAME).exists():
        return True
    return any(path.stat().st_size > 0 for path in list_segments(directory))


__all__ = [
    "CHECKPOINT_NAME",
    "FSYNC_MODES",
    "HEADER",
    "SegmentScan",
    "WalCorruptionError",
    "WalWriter",
    "encode_record",
    "has_state",
    "list_segments",
    "read_checkpoint",
    "scan_segment",
    "segment_name",
    "segment_number",
    "truncate_segment",
    "write_checkpoint",
]
