"""Status-envelope round-trips: ``dataclasses.asdict`` and back.

ISSUE 8 satellite: the gateway's status reports — ``TopologyReport``,
``ServingReport``, ``AuditReport`` — are plain nested frozen dataclasses,
so an operator can serialise one with ``dataclasses.asdict`` (e.g. into
a JSON status endpoint) and a reader can reconstruct a field-for-field
equal envelope from the dict alone.  That contract is what keeps the
reports wire-friendly; this suite pins it for both synthetic
fully-populated envelopes and live gateway-produced ones.
"""

from dataclasses import asdict

import pytest

from repro.core.cache import CacheStats
from repro.federation import (
    AuditReport,
    FederationConfig,
    GovernanceConfig,
    IngestStats,
    ServingReport,
    SubmitRequest,
    TopologyReport,
)
from repro.common.rng import RngStream
from repro.governance.audit import AuditLog
from repro.midas import MEDICAL_QUERIES, MidasSystem
from repro.serving.service import ServiceStats
from repro.serving.topology import Migration, RebalanceOutcome, ShardLoad

# --- Reconstructors (what a status-endpoint reader would implement) --------


def rebuild_service_stats(data: dict) -> ServiceStats:
    cache = data.pop("engine_cache")
    return ServiceStats(
        engine_cache=None if cache is None else CacheStats(**cache), **data
    )


def rebuild_serving_report(data: dict) -> ServingReport:
    ingest = data.pop("ingest")
    return ServingReport(
        stats=rebuild_service_stats(data.pop("stats")),
        ingest=None if ingest is None else IngestStats(**ingest),
        **data,
    )


def rebuild_topology_report(data: dict) -> TopologyReport:
    cycle = data.pop("last_cycle")
    if cycle is not None:
        cycle = RebalanceOutcome(
            moves=tuple(Migration(**move) for move in cycle.pop("moves")), **cycle
        )
    return TopologyReport(
        shards=tuple(
            ShardLoad(**{**shard, "routed": tuple(shard["routed"])})
            for shard in data.pop("shards")
        ),
        last_cycle=cycle,
        **data,
    )


def rebuild_audit_report(data: dict) -> AuditReport:
    from repro.governance.audit import AuditRecord

    return AuditReport(
        records=tuple(AuditRecord(**record) for record in data.pop("records")),
        **data,
    )


# --- Synthetic envelopes: every optional field populated -------------------


def make_topology_report() -> TopologyReport:
    return TopologyReport(
        backend="sharded",
        workers=3,
        route_version=7,
        migrations=2,
        respawns=1,
        shards=(
            ShardLoad(0, ("q1", "q2"), 5, 1, 0.0125),
            ShardLoad(1, ("q3",), 0, 0, None),
            ShardLoad(2, (), 0, 2, 0.5),
        ),
        last_cycle=RebalanceOutcome(
            moves=(Migration("q2", 0, 2), Migration("q3", 1, 0)),
            grew_to=3,
            shrank_to=None,
            route_version=7,
            reason="hot shard 0",
        ),
    )


def make_serving_report() -> ServingReport:
    return ServingReport(
        backend="sharded",
        workers=3,
        respawns=1,
        stats=ServiceStats(
            templates=4,
            fits=19,
            snapshot_hits=7,
            observations=80,
            engine_cache=CacheStats(hits=5, misses=2, evictions=1, size=4),
            batch_refreshes=6,
            batch_fits=11,
        ),
        ingest=IngestStats(
            admitted=40,
            submits=10,
            observes=30,
            rejected=2,
            blocked=1,
            flushes=5,
            size_flushes=3,
            interval_flushes=1,
            drain_flushes=1,
            items_flushed=38,
            max_batch=16,
            fit_rounds=5,
            peak_depth=17,
            pending=0,
            backpressure_flushes=1,
            segments=9,
            streamed_items=12,
        ),
    )


def make_audit_report() -> AuditReport:
    log = AuditLog()
    log.append("submit", template="q1", subject="alice", tick=3, detail="chose x")
    log.append("observe", template="q1", tick=4)
    log.append("denial", template="q2", subject="bob", outcome="denied", detail="r1")
    records = log.records()
    return AuditReport(
        enabled=True,
        length=len(records),
        head_hash=log.head_hash,
        chain_valid=True,
        submits=1,
        observes=1,
        flushes=0,
        rebalances=0,
        denials=1,
        records=records,
    )


BUILDERS = [
    (make_topology_report, rebuild_topology_report),
    (make_serving_report, rebuild_serving_report),
    (make_audit_report, rebuild_audit_report),
]


@pytest.mark.parametrize(
    "make,rebuild", BUILDERS, ids=[make.__name__[5:] for make, _ in BUILDERS]
)
def test_synthetic_report_roundtrips(make, rebuild):
    report = make()
    data = asdict(report)
    rebuilt = rebuild(data)
    assert rebuilt == report
    assert type(rebuilt) is type(report)
    assert rebuilt.describe() == report.describe()
    # asdict deep-copies: mutating the dict cannot touch the envelope.
    assert asdict(report) == asdict(rebuilt)


def test_minimal_reports_roundtrip():
    threaded = TopologyReport(
        backend="threaded", workers=0, route_version=0, migrations=0, respawns=0
    )
    assert rebuild_topology_report(asdict(threaded)) == threaded
    disabled = AuditReport(
        enabled=False,
        length=0,
        head_hash="0" * 64,
        chain_valid=True,
        submits=0,
        observes=0,
        flushes=0,
        rebalances=0,
        denials=0,
    )
    assert rebuild_audit_report(asdict(disabled)) == disabled


def test_live_gateway_reports_roundtrip():
    config = FederationConfig(max_window=24, governance=GovernanceConfig())
    midas = MidasSystem(patient_count=250, seed=13, config=config)
    key = "medical-demographics"
    try:
        midas.warm_up(key, runs=10)
        midas.query(key)
        params = MEDICAL_QUERIES[key].sample_params(RngStream(5, "roundtrip"))
        midas.gateway.ingest(SubmitRequest(key, params))
        midas.gateway.drain()
        serving = midas.gateway.serving_report()
        topology = midas.gateway.topology_report()
        audit = midas.gateway.audit_report()
        assert serving.ingest is not None  # the drain() populated it
        assert audit.length > 0
        assert rebuild_serving_report(asdict(serving)) == serving
        assert rebuild_topology_report(asdict(topology)) == topology
        assert rebuild_audit_report(asdict(audit)) == audit
    finally:
        midas.gateway.close()
