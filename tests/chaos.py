"""Chaos fault-plan driver: elastic topology vs the in-process oracle.

ISSUE 7's equivalence bar for the elastic sharded backend is the same
one PR 5 set for the static backend, now under *placement* chaos: for
ANY interleaving of observes / fits / batch refreshes, and ANY
plan of infrastructure faults — worker crashes, wedged (hung) workers,
forced template migrations, pool grow/shrink — replaying the identical
operation sequence through :class:`~repro.serving.ShardedEstimationService`
and through the single-process :class:`~repro.serving.EstimationService`
oracle must produce bitwise-identical window choices, predictions and
parent-side fit counters.  Faults may move replicas around; they must
never change a single number the service returns.

The driver is deliberately dumb: a :class:`Fault` says *when* (a script
step index) and *what*; targets are normalised onto the live topology
at fire time (modulo the current pool width), so hypothesis can draw
fault plans without knowing how earlier resizes reshaped the pool.
Suites stay thin clients — they describe a script and a fault plan and
assert on the returned :class:`ChaosLog`; every equivalence check lives
here, once.

ISSUE 9 extends the harness from *worker* chaos to *parent* chaos: the
gateway process itself dies.  :func:`run_recovery_chaos` kills a durable
gateway at a scripted traffic offset, optionally tears or corrupts the
WAL tail the way a mid-``write(2)`` crash (or bit rot) would, recovers
into a fresh gateway and holds the stitched run to the same oracle bar:
every report, the fit/observation counters and the audit head must be
bitwise-identical to a gateway that never crashed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import pytest

import repro.governance.audit as audit_module
from repro.common.errors import EstimationError
from repro.core import wal
from repro.federation import FederationError
from repro.federation.durability import DurabilityConfig
from repro.midas import MidasSystem
from repro.serving import EstimationService, ShardedEstimationService
from repro.serving.worker import dream_strategy

from tests.helpers import (
    FEATURES,
    GATEWAY_KEYS,
    MAX_WINDOW,
    METRICS,
    R2,
    assert_gateway_outcomes_equal,
    assert_models_bitwise_equal,
    build_gateway_traffic,
    gateway_config,
    observation_stream,
    run_sequential,
    sharded_factory,
)

#: ``rpc_timeout`` forced onto a run whose plan contains ``hang`` faults
#: and whose caller did not pick one — a wedged worker is undetectable
#: without the guard, so the run would block forever.
HANG_GUARD_TIMEOUT = 2.0

#: Pool-width ceiling for normalised ``resize`` faults: keeps
#: hypothesis-drawn plans from forking an unbounded number of workers.
MAX_CHAOS_WORKERS = 4

FAULT_KINDS = ("crash", "hang", "migrate", "resize")


@dataclass(frozen=True)
class Fault:
    """One scripted infrastructure failure.

    ``at`` is the script step index the fault fires *before*; a value
    past the end of the script fires after the last step, before the
    final sweep.  Targets are normalised at fire time: ``shard`` and
    ``dst`` modulo the live pool width, ``key_index`` modulo the tenant
    count, ``workers`` clamped to [1, MAX_CHAOS_WORKERS].
    """

    at: int
    kind: str
    shard: int = 0
    key_index: int = 0
    dst: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.at < 0:
            raise ValueError(f"fault step index must be >= 0, got {self.at}")


@dataclass
class ChaosLog:
    """What a fault plan actually did, plus the run's final counters."""

    crashes: int = 0
    hangs: int = 0
    migrations: int = 0
    resizes: int = 0
    #: (kind, detail) per applied fault, post-normalisation, in order.
    applied: list = field(default_factory=list)
    # Final sharded-side counters, captured before close:
    respawns: int = 0
    route_version: int = 0
    fits: int = 0
    workers: int = 0


def _apply(fault: Fault, sharded, keys, log: ChaosLog) -> None:
    """Fire one fault against the live topology, recording what landed."""
    if fault.kind == "crash":
        victim = fault.shard % sharded.workers
        sharded.inject_worker_crash(victim)
        log.crashes += 1
        log.applied.append(("crash", victim))
    elif fault.kind == "hang":
        victim = fault.shard % sharded.workers
        sharded.inject_worker_hang(victim)
        log.hangs += 1
        log.applied.append(("hang", victim))
    elif fault.kind == "migrate":
        key = keys[fault.key_index % len(keys)]
        dst = fault.dst % sharded.workers
        if sharded.migrate(key, dst):
            log.migrations += 1
            log.applied.append(("migrate", (key, dst)))
    else:  # resize
        target = max(1, min(fault.workers, MAX_CHAOS_WORKERS))
        if target != sharded.workers:
            sharded.resize(target)
            log.resizes += 1
            log.applied.append(("resize", target))


def replay_script(script, keys, sharded, threaded, *, faults=(), seed=23,
                  stream_length=64, log=None) -> ChaosLog:
    """Drive both (already registered) services through one interleaving,
    firing ``faults`` at their step indices and checking every fit.

    Script entries are ``(index, op)`` with ``op`` one of ``observe``
    (next row of tenant ``index % len(keys)``'s deterministic stream),
    ``fit`` (single-template model, failure parity included) and
    ``batch`` (coalesced ``refresh_batch`` over every tenant).
    Ends with a full sweep plus the fit-counter equality check.
    """
    log = log if log is not None else ChaosLog()
    pending = sorted(faults, key=lambda fault: fault.at)
    cursors = {key: 0 for key in keys}
    streams = {key: observation_stream(key, stream_length, seed=seed) for key in keys}
    for step, (index, op) in enumerate(script):
        while pending and pending[0].at <= step:
            _apply(pending.pop(0), sharded, keys, log)
        key = keys[index % len(keys)]
        if op == "observe":
            cursor = cursors[key]
            if cursor >= len(streams[key]):
                continue
            tick, features, costs = streams[key][cursor]
            cursors[key] = cursor + 1
            sharded.record(key, tick, features, costs)
            threaded.record(key, tick, features, costs)
        elif op == "fit":
            try:
                threaded_model = threaded.model(key)
            except EstimationError:
                with pytest.raises(EstimationError):
                    sharded.model(key)
                continue
            assert_models_bitwise_equal(key, sharded.model(key), threaded_model)
        else:  # batch
            # The coalesced path (one fit_many per shard) against the
            # in-process serial loop of the same call.
            sharded_result = sharded.refresh_batch()
            threaded_result = threaded.refresh_batch()
            assert sorted(sharded_result.models) == sorted(threaded_result.models)
            assert sorted(sharded_result.errors) == sorted(threaded_result.errors)
            assert sharded_result.fitted == threaded_result.fitted
            for fitted_key, threaded_model in threaded_result.models.items():
                assert_models_bitwise_equal(
                    fitted_key, sharded_result.models[fitted_key], threaded_model
                )
    # Late faults (at >= len(script)) fire before the final sweep: the
    # sweep itself must still agree through them.
    while pending:
        _apply(pending.pop(0), sharded, keys, log)
    final_sharded = sharded.refresh_batch().models
    final_threaded = threaded.refresh_batch().models
    assert sorted(final_sharded) == sorted(final_threaded)
    for key, threaded_model in final_threaded.items():
        assert_models_bitwise_equal(key, final_sharded[key], threaded_model)
    assert sharded.stats.fits == threaded.stats.fits
    log.respawns = sharded.respawns
    log.route_version = sharded.route_version
    log.fits = sharded.stats.fits
    log.workers = sharded.workers
    return log


def run_chaos_script(script, faults, *, keys, workers=2, rpc_timeout=None,
                     seed=23, stream_length=64) -> ChaosLog:
    """Build both services, register ``keys``, replay ``script`` with
    ``faults``, tear down.  The one-call front for chaos suites."""
    if rpc_timeout is None and any(fault.kind == "hang" for fault in faults):
        rpc_timeout = HANG_GUARD_TIMEOUT
    threaded = EstimationService(
        strategy=dream_strategy(r2_required=R2, max_window=MAX_WINDOW)
    )
    with ShardedEstimationService(
        sharded_factory, workers=workers, rpc_timeout=rpc_timeout
    ) as sharded:
        for key in keys:
            sharded.register(key, feature_names=FEATURES, metrics=METRICS)
            threaded.register(key, feature_names=FEATURES, metrics=METRICS)
        return replay_script(
            script, keys, sharded, threaded,
            faults=faults, seed=seed, stream_length=stream_length,
        )


def run_gateway_chaos(script, faults, *, seed) -> ChaosLog:
    """Gateway-level chaos: the scripted traffic through ``ingest()`` +
    ``drain()`` on the sharded backend with faults fired between
    admissions, against the fault-free sequential replay.  Faults with
    ``at`` past the traffic fire after admission, before the drain."""
    overrides = {}
    if any(fault.kind == "hang" for fault in faults):
        overrides["shard_rpc_timeout"] = HANG_GUARD_TIMEOUT
    config = gateway_config("sharded", **overrides)
    traffic = build_gateway_traffic(script, seed)
    sequential = run_sequential(traffic, "sharded", seed, config=config)

    log = ChaosLog()
    pending = sorted(faults, key=lambda fault: fault.at)
    midas = MidasSystem(patient_count=250, seed=seed, config=config)
    outcomes = []
    try:
        serving = midas.gateway.engine.serving
        for step, (_op, request) in enumerate(traffic):
            while pending and pending[0].at <= step:
                _apply(pending.pop(0), serving, GATEWAY_KEYS, log)
            midas.gateway.ingest(request)
        while pending:
            _apply(pending.pop(0), serving, GATEWAY_KEYS, log)
        batch = midas.gateway.drain()
        for report, error in zip(batch.reports, batch.errors):
            if error is None:
                outcomes.append(("ok", report))
            else:
                outcomes.append(("error", type(error).__name__))
        fits = midas.gateway.serving_stats.fits
        observations = midas.gateway.serving_stats.observations
        log.respawns = serving.respawns
        log.route_version = serving.route_version
        log.fits = fits
        log.workers = serving.workers
    finally:
        midas.gateway.close()
    assert_gateway_outcomes_equal(sequential, (outcomes, fits, observations))
    return log


# --- Durability chaos: torn writes, bit rot, kill-at-offset recovery --------

#: Pinned audit timestamp: the chain hashes over ``at``, so comparing a
#: recovered chain's head against the oracle's needs a frozen clock.
FROZEN_AUDIT_CLOCK = 1_700_000_000.0


def _final_segment(directory) -> Path:
    segments = wal.list_segments(Path(directory))
    assert segments, f"no WAL segments in {directory}"
    return segments[-1]


def inject_torn_tail(directory, *, keep_bytes=11) -> int:
    """Append a partial record to the final WAL segment — the classic
    crash artifact: a ``write(2)`` the kill interrupted mid-frame.
    Returns how many dangling bytes were planted (``keep_bytes`` capped
    to strictly less than the full frame, so the tail is always torn)."""
    record = wal.encode_record({"t": "row", "key": "torn-victim", "lsn": 10**9})
    keep = min(max(1, keep_bytes), len(record) - 1)
    with open(_final_segment(directory), "ab") as handle:
        handle.write(record[:keep])
    return keep


def shear_final_record(directory) -> int:
    """Cut the final segment mid-way through its *last real* record (no
    planted bytes — the journaled event itself is the casualty).
    Returns the number of dangling bytes left behind."""
    path = _final_segment(directory)
    data = path.read_bytes()
    offsets = []
    offset = 0
    while offset + wal.HEADER.size <= len(data):
        length, _crc = wal.HEADER.unpack_from(data, offset)
        offsets.append(offset)
        offset += wal.HEADER.size + length
    assert offsets, f"{path.name} holds no records to shear"
    last = offsets[-1]
    cut = last + wal.HEADER.size + 2  # header plus two payload bytes survive
    with open(path, "r+b") as handle:
        handle.truncate(cut)
    return cut - last


def inject_bit_flip(directory, *, record_index=0) -> int:
    """Flip one payload bit of a *fully present* record in the final
    segment — bit rot, not a torn write: recovery must refuse loudly.
    Returns the absolute byte offset that was flipped."""
    path = _final_segment(directory)
    data = bytearray(path.read_bytes())
    offsets = []
    offset = 0
    while offset + wal.HEADER.size <= len(data):
        length, _crc = wal.HEADER.unpack_from(data, offset)
        if offset + wal.HEADER.size + length > len(data):
            break
        offsets.append(offset)
        offset += wal.HEADER.size + length
    assert offsets, f"{path.name} holds no complete records to corrupt"
    target = offsets[record_index % len(offsets)]
    flip = target + wal.HEADER.size  # first payload byte
    data[flip] ^= 0x01
    path.write_bytes(bytes(data))
    return flip


@dataclass
class RecoveryLog:
    """One kill-and-recover run: the report plus both halves' counters."""

    report: object = None
    outcomes_before: int = 0
    outcomes_after: int = 0
    fits_before: int = 0
    fits_total: int = 0
    audit_head: str | None = None
    oracle_audit_head: str | None = None


def _drive(gateway, traffic, outcomes) -> None:
    """run_sequential's per-item handling, against a live gateway."""
    for op, request in traffic:
        call = gateway.submit if op == "submit" else gateway.observe
        try:
            outcomes.append(("ok", call(request)))
        except FederationError as error:
            outcomes.append(("error", type(error).__name__))


def run_recovery_chaos(
    script,
    crash_at,
    *,
    backend,
    seed,
    durability_dir,
    fsync="batch",
    checkpoint_every=None,
    governance=None,
    mutate_wal=None,
    before_kill=None,
) -> RecoveryLog:
    """Kill a durable gateway at traffic offset ``crash_at``, recover a
    fresh one over the same directory, and assert the stitched run is
    bitwise-equal to a never-crashed oracle.

    ``crash_at`` may also be a sequence of offsets: the recovered
    gateway serves on to the next offset, is killed there and recovered
    again, and so on.  ``before_kill(gateway)`` fires on each doomed
    gateway just before its kill (a crash inside a checkpoint is planted
    this way); ``mutate_wal(directory)``, fired between each kill and
    the recovery after it, plants crash artifacts
    (:func:`inject_torn_tail`) — anything it adds must be truncated away
    without disturbing equivalence.  ``report`` is the last recovery's.
    The audit clock is pinned for the duration so chain heads are
    comparable.
    """
    traffic = build_gateway_traffic(script, seed)
    offsets = (crash_at,) if isinstance(crash_at, int) else tuple(crash_at)
    bounds = sorted(max(0, min(offset, len(traffic))) for offset in offsets)
    overrides = {} if governance is None else {"governance": governance}
    base = gateway_config(backend, **overrides)
    durable = replace(
        base,
        durability=DurabilityConfig(
            dir=durability_dir, fsync=fsync, checkpoint_every=checkpoint_every
        ),
    )
    saved_clock = audit_module.time_fn
    audit_module.time_fn = lambda: FROZEN_AUDIT_CLOCK
    try:
        log = RecoveryLog()
        # The never-crashed oracle (run_sequential plus its audit head).
        oracle_midas = MidasSystem(patient_count=250, seed=seed, config=base)
        oracle_outcomes = []
        try:
            _drive(oracle_midas.gateway, traffic, oracle_outcomes)
            oracle_fits = oracle_midas.gateway.serving_stats.fits
            oracle_observations = oracle_midas.gateway.serving_stats.observations
            if oracle_midas.gateway.audit_log is not None:
                log.oracle_audit_head = oracle_midas.gateway.audit_log.head_hash
        finally:
            oracle_midas.gateway.close()
        oracle = (oracle_outcomes, oracle_fits, oracle_observations)
        outcomes = []
        fits = warmed = start = 0
        for life, end in enumerate([*bounds, len(traffic)]):
            midas = MidasSystem(patient_count=250, seed=seed, config=durable)
            try:
                if life:
                    log.report = midas.gateway.recover()
                    warmed += log.report.warmed_fits
                _drive(midas.gateway, traffic[start:end], outcomes)
                fits += midas.gateway.serving_stats.fits
                if life == len(bounds):
                    observations = midas.gateway.serving_stats.observations
                    if midas.gateway.audit_log is not None:
                        log.audit_head = midas.gateway.audit_log.head_hash
                elif before_kill is not None:
                    before_kill(midas.gateway)
            finally:
                # The "kill": tear down processes without the checkpoint a
                # graceful shutdown would have cut — recovery must work
                # from the raw journal.
                midas.gateway.close()
            if life == 0:
                log.fits_before = fits
                log.outcomes_before = len(outcomes)
            if life < len(bounds) and mutate_wal is not None:
                mutate_wal(Path(durability_dir))
            start = end
        log.outcomes_after = len(outcomes) - log.outcomes_before
        log.fits_total = fits

        # Restart equivalence: the crash must be invisible.  Warm-up
        # fits (snapshots re-fitted at recovery because they were fresh
        # at the kill) are the one legitimate double-count.
        stitched_fits = fits - warmed
        assert_gateway_outcomes_equal(
            oracle, (outcomes, stitched_fits, observations)
        )
        assert log.audit_head == log.oracle_audit_head
        return log
    finally:
        audit_module.time_fn = saved_clock
