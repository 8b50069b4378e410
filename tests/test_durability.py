"""Durable federation state: WAL framing, crash recovery, fault
injection and audit persistence.

Layered like the subsystem itself:

* WAL primitives — record framing round-trips, the torn-tail /
  corruption dichotomy, atomic checkpoints;
* config validation — every durability knob fails eagerly;
* recovery — kill-at-offset restart equivalence on both serving
  backends (via the :mod:`tests.chaos` driver), torn tails truncated,
  bit rot refused with a typed :class:`DurabilityError`, traffic
  refused until ``recover()``;
* audit persistence — export / offline verification / tamper detection
  (ROADMAP 4c), chain survival across recovery.
"""

import os
import stat
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.core import wal
from repro.core.wal import WalCorruptionError
from repro.federation import (
    DurabilityConfig,
    DurabilityError,
    FederationConfig,
    GatewayConfigError,
    ObserveRequest,
)
from repro.governance import GovernanceConfig, verify_chain, verify_chain_file
from repro.midas import MEDICAL_QUERIES, MidasSystem
from tests.chaos import (
    inject_bit_flip,
    inject_torn_tail,
    run_recovery_chaos,
    shear_final_record,
)
from tests.helpers import gateway_config

#: Enough observes to fit, a submit, cross-tenant traffic, another
#: submit — exercises rows, ticks, rotations and refits in one script.
SCRIPT = (
    [(0, "observe")] * 9
    + [(0, "submit"), (1, "observe"), (1, "observe"), (0, "observe"), (0, "submit")]
)

KEY = "medical-demographics"


def durable_config(backend, directory, **durability_overrides):
    durability = DurabilityConfig(dir=directory, **durability_overrides)
    return gateway_config(backend, durability=durability)


def drive_observes(gateway, count, seed=41):
    for tick in range(count):
        gateway.observe(ObserveRequest(KEY, {"min_age": 35 + (seed + tick) % 40}))


# ---------------------------------------------------------------------------
# WAL primitives


class TestWalPrimitives:
    def test_record_roundtrip(self, tmp_path):
        path = tmp_path / wal.segment_name(1)
        payloads = [
            {"t": "row", "x": 1.5, "lsn": 1},
            {"t": "tick", "nested": {"a": [1, 2.25]}, "lsn": 2},
        ]
        writer = wal.WalWriter(path, fsync="off")
        for payload in payloads:
            writer.append(payload)
        writer.close()
        scan = wal.scan_segment(path)
        assert list(scan.records) == payloads
        assert scan.torn_bytes == 0
        assert scan.valid_bytes == path.stat().st_size

    def test_floats_roundtrip_bitwise(self, tmp_path):
        path = tmp_path / wal.segment_name(1)
        value = 0.1 + 0.2  # not representable exactly; repr-shortest form
        writer = wal.WalWriter(path, fsync="off")
        writer.append({"v": value, "lsn": 1})
        writer.close()
        assert wal.scan_segment(path).records[0]["v"] == value

    @pytest.mark.parametrize("keep", [1, 5, wal.HEADER.size + 3])
    def test_torn_tail_reported_not_raised(self, tmp_path, keep):
        path = tmp_path / wal.segment_name(1)
        writer = wal.WalWriter(path, fsync="off")
        writer.append({"t": "row", "lsn": 1})
        writer.close()
        valid = path.stat().st_size
        partial = wal.encode_record({"t": "row", "lsn": 2})
        with open(path, "ab") as handle:
            handle.write(partial[:keep])
        scan = wal.scan_segment(path)
        assert len(scan.records) == 1
        assert scan.valid_bytes == valid
        assert scan.torn_bytes == keep
        wal.truncate_segment(path, scan.valid_bytes)
        healed = wal.scan_segment(path)
        assert healed.torn_bytes == 0 and len(healed.records) == 1

    def test_fully_present_corruption_raises(self, tmp_path):
        path = tmp_path / wal.segment_name(1)
        writer = wal.WalWriter(path, fsync="off")
        writer.append({"t": "row", "lsn": 1})
        writer.close()
        data = bytearray(path.read_bytes())
        data[wal.HEADER.size] ^= 0x01  # first payload byte
        path.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError):
            wal.scan_segment(path)

    def test_valid_crc_over_non_json_raises(self, tmp_path):
        import zlib

        body = b"definitely not json"
        path = tmp_path / wal.segment_name(1)
        path.write_bytes(wal.HEADER.pack(len(body), zlib.crc32(body)) + body)
        with pytest.raises(WalCorruptionError):
            wal.scan_segment(path)

    def test_checkpoint_atomic_replace(self, tmp_path):
        wal.write_checkpoint(tmp_path, {"lsn": 1, "state": "old"})
        wal.write_checkpoint(tmp_path, {"lsn": 2, "state": "new"})
        assert wal.read_checkpoint(tmp_path) == {"lsn": 2, "state": "new"}
        # A leftover temp file (crash between write and rename) is
        # invisible to readers.
        (tmp_path / "checkpoint.tmp").write_bytes(b"\x00garbage")
        assert wal.read_checkpoint(tmp_path)["lsn"] == 2

    @pytest.mark.parametrize("fsync", ["batch", "off"])
    def test_seal_fsynced_before_manifest_rename(
        self, tmp_path, monkeypatch, fsync
    ):
        """A manifest must never reach disk ahead of the segment it
        seals, and its rename is on stable storage when the checkpoint
        returns — except under ``"off"``, which fsyncs nothing at all,
        not even the manifest's temp file.  No segment is ever
        unlinked."""
        events = []
        real_fsync, real_replace, real_unlink = os.fsync, os.replace, Path.unlink
        real_append = wal.WalWriter.append

        def spy_fsync(descriptor):
            status = os.fstat(descriptor)
            if stat.S_ISDIR(status.st_mode):
                events.append(("fsync", "<dir>"))
            else:
                names = [
                    path.name
                    for path in tmp_path.iterdir()
                    if path.stat().st_ino == status.st_ino
                ]
                events.append(("fsync", *names))
            real_fsync(descriptor)

        def spy_replace(source, target):
            (manifest,) = wal.scan_segment(Path(source)).records
            events.append(("replace", manifest["segment"]))
            real_replace(source, target)

        def spy_append(writer, payload):
            events.append(("append", writer.path.name))
            return real_append(writer, payload)

        def spy_unlink(path, *args, **kwargs):
            events.append(("unlink", path.name))
            real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        monkeypatch.setattr(wal.WalWriter, "append", spy_append)
        monkeypatch.setattr(Path, "unlink", spy_unlink)
        config = durable_config("threaded", tmp_path, fsync=fsync, checkpoint_every=4)
        midas = MidasSystem(patient_count=250, seed=73, config=config)
        try:
            drive_observes(midas.gateway, 12)
        finally:
            midas.gateway.close()
        renames = [i for i, event in enumerate(events) if event[0] == "replace"]
        assert len(renames) >= 2
        assert not [event for event in events if event[0] == "unlink"]
        durable = fsync != "off"
        for i in renames:
            sealed = wal.segment_name(events[i][1] - 1)
            last_append = max(
                j for j in range(i) if events[j] == ("append", sealed)
            )
            assert (("fsync", sealed) in events[last_append:i]) == durable
            assert (events[i + 1 : i + 2] == [("fsync", "<dir>")]) == durable
        if not durable:
            assert [event for event in events if event[0] == "fsync"] == []

    def test_damaged_checkpoint_raises(self, tmp_path):
        wal.write_checkpoint(tmp_path, {"lsn": 7})
        path = tmp_path / wal.CHECKPOINT_NAME
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError):
            wal.read_checkpoint(tmp_path)

    def test_segment_listing_orders_numerically(self, tmp_path):
        for number in (3, 1, 12):
            (tmp_path / wal.segment_name(number)).write_bytes(b"")
        (tmp_path / "not-a-segment.log").write_bytes(b"")
        assert [wal.segment_number(p) for p in wal.list_segments(tmp_path)] == [
            1,
            3,
            12,
        ]

    def test_has_state(self, tmp_path):
        assert not wal.has_state(tmp_path)
        empty = tmp_path / wal.segment_name(1)
        empty.write_bytes(b"")
        assert not wal.has_state(tmp_path)  # an empty segment is no state
        empty.write_bytes(wal.encode_record({"lsn": 1}))
        assert wal.has_state(tmp_path)


# ---------------------------------------------------------------------------
# Configuration validation


class TestDurabilityConfigValidation:
    def test_empty_dir_rejected(self):
        with pytest.raises(GatewayConfigError):
            DurabilityConfig(dir="")

    def test_bad_fsync_rejected(self):
        with pytest.raises(GatewayConfigError, match="fsync"):
            DurabilityConfig(dir="/tmp/x", fsync="sometimes")

    def test_bad_checkpoint_every_rejected(self):
        with pytest.raises(GatewayConfigError, match="checkpoint_every"):
            DurabilityConfig(dir="/tmp/x", checkpoint_every=0)

    def test_federation_config_type_checks_durability(self):
        with pytest.raises(GatewayConfigError, match="DurabilityConfig"):
            FederationConfig(durability={"dir": "/tmp/x"})


# ---------------------------------------------------------------------------
# Crash recovery (restart equivalence via the chaos driver)


class TestCrashRecovery:
    def test_threaded_recovery_matches_oracle_with_audit(self, tmp_path):
        log = run_recovery_chaos(
            SCRIPT,
            10,
            backend="threaded",
            seed=29,
            durability_dir=tmp_path,
            fsync="batch",
            governance=GovernanceConfig(),
        )
        assert log.report.recovered
        assert log.report.rows == 10
        assert log.audit_head == log.oracle_audit_head is not None

    def test_sharded_recovery_matches_oracle_through_checkpoints(self, tmp_path):
        log = run_recovery_chaos(
            SCRIPT,
            11,
            backend="sharded",
            seed=31,
            durability_dir=tmp_path,
            fsync="off",
            checkpoint_every=4,
        )
        assert log.report.recovered
        # checkpoint_every=4 cuts several checkpoints before the kill:
        # recovery replayed every sealed segment behind a manifest and
        # checked the journal against the manifest's anchor.
        assert log.report.checkpoint_lsn > 0
        assert log.report.segments > 1

    def test_torn_tail_truncated_cleanly(self, tmp_path):
        log = run_recovery_chaos(
            SCRIPT,
            12,
            backend="threaded",
            seed=37,
            durability_dir=tmp_path,
            fsync="batch",
            mutate_wal=inject_torn_tail,
        )
        assert log.report.torn_bytes > 0

    def test_sheared_record_recovers_to_prefix(self, tmp_path):
        config = durable_config("threaded", tmp_path, fsync="off")
        midas = MidasSystem(patient_count=250, seed=43, config=config)
        try:
            drive_observes(midas.gateway, 6)
        finally:
            midas.gateway.close()
        dropped = shear_final_record(tmp_path)
        assert dropped > 0
        revived = MidasSystem(patient_count=250, seed=43, config=config)
        try:
            report = revived.gateway.recover()
            assert report.torn_bytes == dropped
            # The sheared append is gone; everything before it survives.
            assert revived.gateway.engine.history(KEY).size == 5
            assert report.tick == 5
        finally:
            revived.gateway.close()

    def test_bit_flip_raises_typed_durability_error(self, tmp_path):
        config = durable_config("threaded", tmp_path, fsync="off")
        midas = MidasSystem(patient_count=250, seed=47, config=config)
        try:
            drive_observes(midas.gateway, 5)
        finally:
            midas.gateway.close()
        inject_bit_flip(tmp_path, record_index=2)
        revived = MidasSystem(patient_count=250, seed=47, config=config)
        try:
            with pytest.raises(DurabilityError):
                revived.gateway.recover()
        finally:
            revived.gateway.close()

    def test_traffic_refused_until_recover(self, tmp_path):
        config = durable_config("threaded", tmp_path, fsync="off")
        midas = MidasSystem(patient_count=250, seed=53, config=config)
        try:
            drive_observes(midas.gateway, 3)
        finally:
            midas.gateway.close()
        revived = MidasSystem(patient_count=250, seed=53, config=config)
        try:
            with pytest.raises(DurabilityError, match="recover"):
                revived.gateway.observe(ObserveRequest(KEY, {"min_age": 50}))
            revived.gateway.recover()
            revived.gateway.observe(ObserveRequest(KEY, {"min_age": 50}))
        finally:
            revived.gateway.close()

    def test_recover_on_fresh_directory_is_a_noop(self, tmp_path):
        config = durable_config("threaded", tmp_path)
        midas = MidasSystem(patient_count=250, seed=59, config=config)
        try:
            report = midas.gateway.recover()
            assert not report.recovered
        finally:
            midas.gateway.close()

    def test_recover_without_durability_config_needs_a_path(self, tmp_path):
        donor_config = durable_config("threaded", tmp_path, fsync="off")
        donor = MidasSystem(patient_count=250, seed=61, config=donor_config)
        try:
            drive_observes(donor.gateway, 4)
        finally:
            donor.gateway.close()

        plain = MidasSystem(patient_count=250, seed=61, config=gateway_config("threaded"))
        try:
            with pytest.raises(GatewayConfigError):
                plain.gateway.recover()
            report = plain.gateway.recover(path=tmp_path)
            assert report.recovered and report.rows == 4
            assert plain.gateway.engine.history(KEY).size == 4
        finally:
            plain.gateway.close()

    def test_mismatched_registration_refused(self, tmp_path):
        config = durable_config("threaded", tmp_path, fsync="off")
        midas = MidasSystem(patient_count=250, seed=67, config=config)
        try:
            drive_observes(midas.gateway, 2)
        finally:
            midas.gateway.close()
        # A gateway without the journaled templates cannot host the replay.
        revived = MidasSystem(patient_count=250, seed=67, config=config)
        try:
            revived.gateway._keys.discard(KEY)
            with pytest.raises(DurabilityError, match="re-register"):
                revived.gateway.recover()
        finally:
            revived.gateway._keys.add(KEY)
            revived.gateway.close()

    def test_template_registered_while_pending_is_journaled_at_recovery(
        self, tmp_path
    ):
        """A template first registered on a recovering gateway is
        fingerprinted in the journal, so a later recovery without it is
        refused rather than replaying rows into nothing."""
        config = durable_config("threaded", tmp_path, fsync="off")
        extra = replace(MEDICAL_QUERIES[KEY], key="late-tenant")
        midas = MidasSystem(patient_count=250, seed=67, config=config)
        try:
            drive_observes(midas.gateway, 2)
        finally:
            midas.gateway.close()
        revived = MidasSystem(patient_count=250, seed=67, config=config)
        try:
            revived.gateway.register_template(extra)
            revived.gateway.recover()
            revived.gateway.observe(ObserveRequest(extra.key, {"min_age": 50}))
        finally:
            revived.gateway.close()
        again = MidasSystem(patient_count=250, seed=67, config=config)
        try:
            with pytest.raises(DurabilityError, match="re-register"):
                again.gateway.recover()
        finally:
            again.gateway.close()

    def test_warm_snapshot_refitted_at_recovery(self, tmp_path):
        config = durable_config("threaded", tmp_path, fsync="off")
        midas = MidasSystem(patient_count=250, seed=71, config=config)
        try:
            drive_observes(midas.gateway, 10)
            midas.gateway.model(KEY)  # snapshot now fresh at the "crash"
            fits_at_crash = midas.gateway.serving_stats.fits
            assert fits_at_crash == 1
        finally:
            midas.gateway.close()
        revived = MidasSystem(patient_count=250, seed=71, config=config)
        try:
            report = revived.gateway.recover()
            assert report.warmed_fits == 1
            fits_after_warm = revived.gateway.serving_stats.fits
            revived.gateway.model(KEY)  # must be a snapshot hit, not a refit
            assert revived.gateway.serving_stats.fits == fits_after_warm
            assert revived.gateway.serving_stats.snapshot_hits >= 1
        finally:
            revived.gateway.close()

    def test_checkpoint_bytes_do_not_grow_with_history(self, tmp_path, monkeypatch):
        """A checkpoint writes a constant-size anchor, not the history:
        the Nth manifest is no larger than the 2nd but for the extra
        digits of its counters, and every segment is kept."""
        manifests, sizes = [], []
        real_write = wal.write_checkpoint

        def spy_write(directory, payload, fsync="batch"):
            real_write(directory, payload, fsync=fsync)
            manifests.append(payload)
            sizes.append((Path(directory) / wal.CHECKPOINT_NAME).stat().st_size)

        monkeypatch.setattr(wal, "write_checkpoint", spy_write)
        config = gateway_config(
            "threaded",
            governance=GovernanceConfig(),
            durability=DurabilityConfig(dir=tmp_path, fsync="off", checkpoint_every=4),
        )
        midas = MidasSystem(patient_count=250, seed=73, config=config)
        try:
            drive_observes(midas.gateway, 40)
        finally:
            midas.gateway.close()

        def digits(manifest):
            return sum(
                len(str(value)) for value in manifest.values() if isinstance(value, int)
            )

        assert len(manifests) >= 10
        for manifest, size in zip(manifests[2:], sizes[2:]):
            assert size <= sizes[1] + digits(manifest) - digits(manifests[1])
        # One segment per checkpoint plus the first, none unlinked.
        numbers = [wal.segment_number(path) for path in wal.list_segments(tmp_path)]
        assert numbers == list(range(1, len(manifests) + 2))

    def test_missing_middle_segment_raises(self, tmp_path):
        config = durable_config("threaded", tmp_path, fsync="off", checkpoint_every=4)
        midas = MidasSystem(patient_count=250, seed=73, config=config)
        try:
            drive_observes(midas.gateway, 12)
        finally:
            midas.gateway.close()
        (tmp_path / wal.segment_name(2)).unlink()
        revived = MidasSystem(patient_count=250, seed=73, config=config)
        try:
            with pytest.raises(DurabilityError, match="wal-000002.log is missing"):
                revived.gateway.recover()
        finally:
            revived.gateway.close()

    #: Where the killed checkpoint dies, and how the manifest's next
    #: segment then relates to the last segment on disk.
    CRASH_POINTS = {
        "after-seal": 0,  # sealed; next segment not opened
        "after-manifest-temp": -1,  # next segment open; temp not renamed
        "after-rename": 0,  # manifest published; directory not fsynced
    }

    @pytest.mark.parametrize("point", sorted(CRASH_POINTS))
    def test_crash_inside_a_checkpoint_recovers_to_the_oracle(
        self, tmp_path, monkeypatch, point
    ):
        real_replace = os.replace

        class Crash(Exception):
            pass

        def crash(*args, **kwargs):
            raise Crash(point)

        def rename_then_crash(source, target):
            real_replace(source, target)
            raise Crash(point)

        def checkpoint_and_die(gateway):
            with monkeypatch.context() as patch:
                if point == "after-seal":
                    patch.setattr(wal, "WalWriter", crash)
                elif point == "after-manifest-temp":
                    patch.setattr(os, "replace", crash)
                else:
                    patch.setattr(os, "replace", rename_then_crash)
                with pytest.raises(Crash):
                    gateway._durability.checkpoint()

        def check_disk(directory):
            last = wal.segment_number(wal.list_segments(directory)[-1])
            manifest = wal.read_checkpoint(directory)
            assert manifest["segment"] - last == self.CRASH_POINTS[point]
            assert (directory / "checkpoint.tmp").exists() == (
                point == "after-manifest-temp"
            )

        log = run_recovery_chaos(
            SCRIPT,
            9,
            backend="threaded",
            seed=89,
            durability_dir=tmp_path,
            fsync="batch",
            checkpoint_every=4,
            governance=GovernanceConfig(),
            before_kill=checkpoint_and_die,
            mutate_wal=check_disk,
        )
        assert log.report.recovered and log.report.checkpoint_lsn > 0

    def test_double_crash_after_a_torn_tail_recovers_to_the_oracle(self, tmp_path):
        """A torn tail is truncated at recovery: the segment stops being
        final once journaling resumes, and a torn non-final segment
        would fail the next recovery."""
        log = run_recovery_chaos(
            SCRIPT,
            (5, 10),
            backend="threaded",
            seed=97,
            durability_dir=tmp_path,
            fsync="batch",
            checkpoint_every=4,
            governance=GovernanceConfig(),
            mutate_wal=inject_torn_tail,
        )
        assert log.report.torn_bytes > 0
        assert all(
            wal.scan_segment(path).torn_bytes == 0
            for path in wal.list_segments(tmp_path)[:-1]
        )


# ---------------------------------------------------------------------------
# Audit chain persistence (ROADMAP 4c)


class TestAuditPersistence:
    def _durable_audited(self, tmp_path, seed=79):
        config = gateway_config(
            "threaded",
            governance=GovernanceConfig(),
            durability=DurabilityConfig(dir=tmp_path, fsync="off"),
        )
        return MidasSystem(patient_count=250, seed=seed, config=config)

    def test_export_verify_and_tamper(self, tmp_path):
        midas = self._durable_audited(tmp_path / "walfiles")
        chain_path = tmp_path / "chain.jsonl"
        try:
            drive_observes(midas.gateway, 5)
            head = midas.gateway.audit_log.head_hash
            exported = midas.gateway.audit_log.export(chain_path)
            assert exported == len(midas.gateway.audit_log.records()) == 5
        finally:
            midas.gateway.close()
        assert verify_chain_file(chain_path)
        assert verify_chain_file(chain_path, expected_head=head)
        assert not verify_chain_file(chain_path, expected_head="0" * 64)
        raw = bytearray(chain_path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        chain_path.write_bytes(bytes(raw))
        assert not verify_chain_file(chain_path)

    def test_journaled_audit_bytes_match_the_dataclass_encoding(self, tmp_path):
        """The flat field read journals the exact bytes ``asdict`` did."""
        midas = self._durable_audited(tmp_path)
        try:
            drive_observes(midas.gateway, 5)
            records = midas.gateway.audit_log.records()
        finally:
            midas.gateway.close()
        raw = b"".join(path.read_bytes() for path in wal.list_segments(tmp_path))
        journaled = [
            payload
            for path in wal.list_segments(tmp_path)
            for payload in wal.scan_segment(path).records
            if payload["t"] == "audit"
        ]
        assert len(journaled) == len(records) == 5
        for payload, record in zip(journaled, records):
            expected = {"t": "audit", "record": asdict(record), "lsn": payload["lsn"]}
            assert wal.encode_record(expected) in raw

    def test_audit_is_not_journaled_while_suspended(self, tmp_path):
        midas = self._durable_audited(tmp_path)
        try:
            drive_observes(midas.gateway, 2)
            record = midas.gateway.audit_log.records()[-1]
            manager = midas.gateway._durability
            lsn = manager._lsn
            manager.pending = True
            manager.note_audit(record)
            assert manager._lsn == lsn
            manager.pending = False
            manager.note_audit(record)
            assert manager._lsn == lsn + 1
        finally:
            midas.gateway.close()
        manager.note_audit(record)  # closed: a quiet no-op
        assert manager._lsn == lsn + 1

    def test_verify_chain_file_missing_or_empty(self, tmp_path):
        assert not verify_chain_file(tmp_path / "never-written.jsonl")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert verify_chain_file(empty)  # genesis chain
        assert not verify_chain_file(empty, expected_head="f" * 64)

    def test_chain_survives_recovery_and_still_verifies(self, tmp_path):
        midas = self._durable_audited(tmp_path, seed=83)
        try:
            drive_observes(midas.gateway, 6)
            head_at_crash = midas.gateway.audit_log.head_hash
        finally:
            midas.gateway.close()
        revived = self._durable_audited(tmp_path, seed=83)
        try:
            report = revived.gateway.recover()
            assert report.audit_records == 6
            log = revived.gateway.audit_log
            assert log.head_hash == head_at_crash
            assert verify_chain(log.records())
            # The restored chain keeps appending: new records link onto
            # the recovered head, and the whole thing still verifies.
            drive_observes(revived.gateway, 1, seed=99)
            assert len(log.records()) == 7
            assert verify_chain(log.records())
        finally:
            revived.gateway.close()
