"""Shared fixtures and builders for the test suite.

Three sections:

* Relational scaffolding — the tiny TPC-H-shaped catalog the planner,
  SQL and MOQP suites share.
* Engine-room oracle — the Figure 1 pipeline composed straight from the
  platform's stage functions, with no gateway in between; the gateway's
  one pipeline is checked against it.
* Serving scaffolding — the oracle-equivalence machinery the serving,
  sharded-property, front-door and chaos suites share: deterministic
  observation streams, the picklable worker strategy, bitwise model
  comparison against a shared probe matrix, and the gateway
  sequential-vs-batched replay harness.
"""

from __future__ import annotations

import asyncio
import datetime
from functools import partial

import numpy as np

from repro.cloud.variability import default_federation_load
from repro.common.rng import RngStream
from repro.federation import (
    FederationConfig,
    FederationError,
    ObserveRequest,
    SubmitRequest,
)
from repro.midas import MEDICAL_QUERIES, MidasSystem
from repro.plans import Catalog
from repro.relational import Column, DataType, Schema, Table
from repro.serving.worker import dream_strategy


def date(text: str) -> datetime.date:
    return datetime.date.fromisoformat(text)


def make_orders() -> Table:
    schema = Schema(
        [
            Column("o_orderkey", DataType.INTEGER, nullable=False),
            Column("o_custkey", DataType.INTEGER, nullable=False),
            Column("o_orderdate", DataType.DATE, nullable=False),
            Column("o_orderpriority", DataType.STRING, nullable=False),
            Column("o_comment", DataType.STRING),
        ]
    )
    return Table.from_rows(
        "orders",
        schema,
        [
            [1, 10, date("1994-01-05"), "1-URGENT", "quiet packages"],
            [2, 11, date("1994-03-05"), "3-MEDIUM", "special late requests"],
            [3, 10, date("1995-01-05"), "2-HIGH", "furious special sly requests"],
            [4, 12, date("1996-07-01"), "5-LOW", None],
        ],
    )


def make_lineitem() -> Table:
    schema = Schema(
        [
            Column("l_orderkey", DataType.INTEGER, nullable=False),
            Column("l_partkey", DataType.INTEGER, nullable=False),
            Column("l_shipmode", DataType.STRING, nullable=False),
            Column("l_commitdate", DataType.DATE, nullable=False),
            Column("l_receiptdate", DataType.DATE, nullable=False),
            Column("l_shipdate", DataType.DATE, nullable=False),
            Column("l_quantity", DataType.FLOAT, nullable=False),
            Column("l_extendedprice", DataType.FLOAT, nullable=False),
        ]
    )
    return Table.from_rows(
        "lineitem",
        schema,
        [
            [1, 100, "MAIL", date("1994-02-01"), date("1994-02-10"), date("1994-01-20"), 10.0, 100.0],
            [1, 101, "AIR", date("1994-02-05"), date("1994-02-20"), date("1994-01-25"), 5.0, 50.0],
            [2, 100, "SHIP", date("1994-04-01"), date("1994-03-20"), date("1994-03-10"), 20.0, 200.0],
            [3, 102, "MAIL", date("1995-02-01"), date("1995-02-10"), date("1995-01-20"), 30.0, 300.0],
            [3, 100, "RAIL", date("1995-03-01"), date("1995-03-15"), date("1995-02-20"), 40.0, 400.0],
        ],
    )


def make_part() -> Table:
    schema = Schema(
        [
            Column("p_partkey", DataType.INTEGER, nullable=False),
            Column("p_brand", DataType.STRING, nullable=False),
            Column("p_container", DataType.STRING, nullable=False),
            Column("p_type", DataType.STRING, nullable=False),
        ]
    )
    return Table.from_rows(
        "part",
        schema,
        [
            [100, "Brand#12", "SM BOX", "PROMO PLATED TIN"],
            [101, "Brand#23", "LG CASE", "STANDARD BRUSHED STEEL"],
            [102, "Brand#12", "SM BOX", "PROMO ANODIZED BRASS"],
        ],
    )


def tiny_catalog() -> Catalog:
    return Catalog([make_orders(), make_lineitem(), make_part()])


# ---------------------------------------------------------------------------
# Engine-room oracle


def engine_candidates(platform, key, params, stats=None):
    """Steps 1 + 3a: the QEP space of one query instance."""
    return platform.enumerate(key, platform.receive(key, params), stats=stats)


def engine_observe(platform, key, params, candidate, tick, stats=None):
    """One profiling run: execute ``candidate`` and log it."""
    request = platform.receive(key, params)
    return platform.execute(key, candidate, request, tick, stats)


def engine_submit(platform, key, params, policy, tick, cost_model=None):
    """Steps 1-5 for one submission; ``cost_model`` pins the model that
    costs the QEP space (the default fits through the serving layer)."""
    request = platform.receive(key, params, policy)
    if cost_model is None:
        cost_model = platform.serving.model(key)
    result = platform.plan(request, platform.enumerate(key, request), cost_model)
    result.execution = platform.execute(key, result.chosen_candidate, request, tick)
    return result


# ---------------------------------------------------------------------------
# Serving scaffolding

FEATURES = ("size", "nodes")
METRICS = ("time", "money")

#: Thresholds every serving-equivalence suite fits with (paper §3's
#: R^2_require recommendation and a window small enough to cycle).
R2 = 0.8
MAX_WINDOW = 20

#: Picklable worker-side strategy factory matching the threaded suites'
#: ``DreamStrategy(r2_required=R2, max_window=MAX_WINDOW)``.
sharded_factory = partial(
    dream_strategy, r2_required=R2, max_window=MAX_WINDOW, cache_capacity=64
)

#: Shared probe matrix: bitwise prediction equality is asserted on these
#: feature rows (``np.array_equal``, no tolerance).
PROBE = np.array([[25.0, 2.0], [55.0, 4.0], [95.0, 8.0], [110.0, 3.0]])


def observation_stream(key: str, ticks: int, seed: int = 17):
    """A deterministic per-template stream of (tick, features, costs)."""
    rng = RngStream(seed, "serving", key)
    load = default_federation_load(rng.child("load"))
    out = []
    for tick in range(ticks):
        size = float(rng.uniform(10, 100))
        nodes = float(rng.integers(2, 9))
        factor = load.factor(tick)
        time = factor * (5 + 0.4 * size / nodes) * (1 + float(rng.normal(0, 0.03)))
        money = factor * (0.01 * size + 0.002 * nodes * time)
        out.append(
            (tick, {"size": size, "nodes": nodes}, {"time": time, "money": money})
        )
    return out


def assert_models_bitwise_equal(key, sharded_model, threaded_model):
    __tracebackhide__ = True
    assert sharded_model.training_size == threaded_model.training_size, key
    sharded_columns = sharded_model.predict_batch(PROBE)
    threaded_columns = threaded_model.predict_batch(PROBE)
    for metric in METRICS:
        assert np.array_equal(
            sharded_columns[metric], threaded_columns[metric]
        ), (key, metric)


def assert_report_pair_equal(left, right, position=None):
    """One gateway report (submission or observation) against its twin
    from the other execution path: type, tick, costs, chosen plan."""
    __tracebackhide__ = True
    assert type(left) is type(right), position
    assert left.tick == right.tick, position
    if hasattr(left, "predicted_costs"):
        assert left.predicted_costs == right.predicted_costs, position
        assert left.measured_costs == right.measured_costs, position
        assert left.chosen.describe() == right.chosen.describe(), position
    else:
        assert left.measured == right.measured, position
        assert left.candidate.describe() == right.candidate.describe(), position


# --- Gateway sequential-vs-batched replay harness --------------------------

GATEWAY_KEYS = ("medical-demographics", "medical-severe-cases")


def build_gateway_traffic(script, seed):
    """Materialise one request object per script entry (shared between
    both systems, so parameter sampling cannot diverge)."""
    rng = RngStream(seed, "gateway-property")
    traffic = []
    for index, op in script:
        key = GATEWAY_KEYS[index]
        params = MEDICAL_QUERIES[key].sample_params(rng)
        if op == "submit":
            traffic.append(("submit", SubmitRequest(key, params)))
        else:
            traffic.append(("observe", ObserveRequest(key, params)))
    return traffic


def gateway_config(backend, **overrides):
    base = dict(serving_backend=backend, shard_workers=2, max_window=24)
    base.update(overrides)
    return FederationConfig(**base)


def run_sequential(traffic, backend, seed, config=None):
    """Single-call replay: one outcome per item, plus the fit counter."""
    midas = MidasSystem(
        patient_count=250, seed=seed, config=config or gateway_config(backend)
    )
    outcomes = []
    try:
        for op, request in traffic:
            call = midas.gateway.submit if op == "submit" else midas.gateway.observe
            try:
                outcomes.append(("ok", call(request)))
            except FederationError as error:
                outcomes.append(("error", type(error).__name__))
        fits = midas.gateway.serving_stats.fits
        observations = midas.gateway.serving_stats.observations
    finally:
        midas.gateway.close()
    return outcomes, fits, observations


def run_batched(traffic, backend, seed, config=None):
    """The same traffic through ingest() + drain()."""
    midas = MidasSystem(
        patient_count=250, seed=seed, config=config or gateway_config(backend)
    )
    outcomes = []
    try:
        for _op, request in traffic:
            midas.gateway.ingest(request)
        batch = midas.gateway.drain()
        for report, error in zip(batch.reports, batch.errors):
            if error is None:
                outcomes.append(("ok", report))
            else:
                outcomes.append(("error", type(error).__name__))
        fits = midas.gateway.serving_stats.fits
        observations = midas.gateway.serving_stats.observations
    finally:
        midas.gateway.close()
    return outcomes, fits, observations


def run_streamed(traffic, backend, seed, config=None, before_drain=None):
    """The same traffic consumed through streaming tickets: outcomes are
    read per-ticket (in admission order) rather than from the drained
    batch, and done-callback firing order is checked against admission
    order.  ``before_drain`` (if given) runs after every admission and
    before the flush — chaos hooks inject worker crashes there."""
    midas = MidasSystem(
        patient_count=250, seed=seed, config=config or gateway_config(backend)
    )
    outcomes = []
    resolved_order = []
    try:
        tickets = []
        for _op, request in traffic:
            admitted = midas.gateway.ingest(request)
            for ticket in admitted if isinstance(admitted, list) else [admitted]:
                ticket.add_done_callback(lambda t: resolved_order.append(t.seq))
                tickets.append(ticket)
        if before_drain is not None:
            before_drain(midas.gateway)
        midas.gateway.drain()
        for ticket in tickets:
            assert ticket.done
            if ticket.error is None:
                outcomes.append(("ok", ticket.report))
            else:
                outcomes.append(("error", type(ticket.error).__name__))
        assert resolved_order == sorted(resolved_order)
        fits = midas.gateway.serving_stats.fits
        observations = midas.gateway.serving_stats.observations
    finally:
        midas.gateway.close()
    return outcomes, fits, observations


def run_async(traffic, backend, seed, config=None, before_drain=None):
    """The same traffic through the asyncio surface: one task per
    request via ``ingest_async``, flushed with ``drain_async``, then
    each awaited in admission order."""
    midas = MidasSystem(
        patient_count=250, seed=seed, config=config or gateway_config(backend)
    )

    async def drive():
        gateway = midas.gateway
        tasks = [
            asyncio.ensure_future(gateway.ingest_async(request))
            for _op, request in traffic
        ]
        # Step every task once so the admissions reach the admission
        # thread (in task-creation order) before any chaos hook runs.
        await asyncio.sleep(0)
        if before_drain is not None:
            before_drain(gateway)
        await gateway.drain_async()
        collected = []
        for task in tasks:
            try:
                collected.append(("ok", await task))
            except FederationError as error:
                collected.append(("error", type(error).__name__))
        return collected

    try:
        outcomes = asyncio.run(drive())
        fits = midas.gateway.serving_stats.fits
        observations = midas.gateway.serving_stats.observations
    finally:
        midas.gateway.close()
    return outcomes, fits, observations


def assert_gateway_outcomes_equal(sequential, batched):
    __tracebackhide__ = True
    seq_outcomes, seq_fits, seq_observations = sequential
    bat_outcomes, bat_fits, bat_observations = batched
    assert len(seq_outcomes) == len(bat_outcomes)
    for position, (left, right) in enumerate(zip(seq_outcomes, bat_outcomes)):
        assert left[0] == right[0], (position, left[0], right[0])
        if left[0] == "error":
            assert left[1] == right[1], position
            continue
        assert_report_pair_equal(left[1], right[1], position)
    assert seq_fits == bat_fits
    assert seq_observations == bat_observations
