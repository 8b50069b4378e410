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
from repro.midas import MidasSystem
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
        # checkpoint_every=4 forces several compactions before the kill:
        # recovery stitched checkpoint rows and WAL rows together.
        assert log.report.checkpoint_lsn > 0

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

    def test_compaction_bounds_segment_count(self, tmp_path):
        config = durable_config(
            "threaded", tmp_path, fsync="off", checkpoint_every=4
        )
        midas = MidasSystem(patient_count=250, seed=73, config=config)
        try:
            drive_observes(midas.gateway, 20)
        finally:
            midas.gateway.close()
        # 20 rows at a 4-record cadence: without compaction 6+ segments
        # would pile up; rotation deletes everything before the live one.
        segments = wal.list_segments(tmp_path)
        assert len(segments) <= 2
        assert (tmp_path / wal.CHECKPOINT_NAME).exists()


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
