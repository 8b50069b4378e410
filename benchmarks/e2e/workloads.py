"""The four workloads of the end-to-end gateway benchmark.

Each workload drives the public gateway API from one process as a
closed loop: the caller issues its next request only after the previous
one returned (the front door flushes inline on the admitting thread).
Traffic comes from ``RngStream(seed, <workload>)`` and is generated
before any system is built.

A run is a sequence of *episodes*.  An episode builds a fresh system
(the untimed set-up: environment, gateway, templates, warm-up observes,
pinned sessions), then times one fixed request script against it.  Every
episode of a run replays the same script on an identically built
system, so episodes are interchangeable samples: their report digests
must match, and pooling their latencies does not mix history lengths.

Timings are rescaled to the host's speed.  The timed phase is cut into
windows of about 0.1-0.5 s; between two windows, while no request is
in flight, :func:`host_tick` times a fixed loop that touches no project
code.  Each latency is multiplied by ``TICK_MS / tick``, with ``tick``
the mean of the ticks on either side of its window, so a host that runs
the loop 1.5x slower for a few seconds does not read as 1.5x slower
gateway code.  The unscaled wall times are kept beside the scaled ones.

Why these four: each request type spends its time in a different layer,
so one workload alone cannot tell which layer a change moved.

* ``ingest-mixed`` - front door, SQL parse/bind, enumeration, simulator;
* ``submit-hot`` - DREAM refits on every submit, histories grow long;
* ``plan-wide`` - Pareto search over a 384-plan space, no fits or runs;
* ``governed-durable`` - policy, audit chain, WAL, shard RPC, recovery.

Request counts are a third of the sizes the workloads were designed at
(10,000 rows, 3,000 submits, 1,500 plans, 42 rounds), so that a run of
about 20 timed seconds holds several episodes and several set-ups.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.cloud.federation import paper_federation
from repro.cloud.variability import default_federation_load
from repro.common.rng import RngStream
from repro.engines.simulate import MultiEngineSimulator
from repro.federation import (
    BatchObserveRequest,
    DataPolicy,
    DurabilityConfig,
    FederationConfig,
    FederationGateway,
    GovernanceConfig,
    ObservationReport,
    ObserveRequest,
    Principal,
    SubmitRequest,
)
from repro.ires.deployment import Deployment
from repro.ires.enumerator import QepEnumerator
from repro.ires.policy import UserPolicy
from repro.midas import MEDICAL_QUERIES, MidasSystem
from repro.midas.generator import MedicalDataGenerator
from repro.midas.system import DEFAULT_CONFIG, DEFAULT_DEPLOYMENT, DEFAULT_INSTANCE_TYPES
from repro.plans.catalog import Catalog
from repro.plans.statistics import compute_table_stats

PATIENTS = 300
BASES = tuple(MEDICAL_QUERIES.values())

#: What :func:`host_tick` reads, in ms, on the 2-core host the benchmark
#: was calibrated on when that host runs at full speed.  Scaled timings
#: are the wall times that host would show at full speed.
TICK_MS = 0.8


def host_tick() -> float:
    """Milliseconds of a fixed pure-Python loop that touches no project
    code: the fastest of three back-to-back samples, so an interrupt
    does not read as a slow host."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(12_800):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def timed_build(workload):
    """Build a system; returns it with the set-up's scaled and wall
    seconds."""
    before = host_tick()
    started = time.perf_counter()
    system = workload.build()
    seconds = time.perf_counter() - started
    scale = TICK_MS / ((before + host_tick()) / 2)
    return system, seconds * scale, seconds


def _timed(tracer):
    return nullcontext() if tracer is None else tracer


@dataclass
class Episode:
    """What one timed request script produced."""

    wall_s: float = 0.0
    #: Requests attempted; a batch envelope counts its rows.
    rows: int = 0
    failed: int = 0
    #: Per-request latency in seconds, in issue order, unscaled (``wall``)
    #: and scaled to host speed (``order``; by kind, "observe" /
    #: "submit", in ``latencies``).  Requests are scaled when their
    #: window closes.
    wall: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    order: list[float] = field(default_factory=list)
    latencies: dict[str, list[float]] = field(default_factory=dict)
    #: Completed requests per second of every full window, scaled and
    #: unscaled; throughput is their median.
    rates: list[float] = field(default_factory=list)
    wall_rates: list[float] = field(default_factory=list)
    #: Host ticks (ms) averaged over each window's two ends.
    ticks: list[float] = field(default_factory=list)
    #: Canonical per-report lines in issue order (the digest input).
    lines: list[str] = field(default_factory=list)
    #: Mean relative prediction error of each executed submit.
    errors: list[float] = field(default_factory=list)
    candidate_counts: set[int] = field(default_factory=set)
    #: Execution site of every plan that ran or was chosen.
    sites: set[str] = field(default_factory=set)
    first_report_ms: list[float] = field(default_factory=list)
    recover_s: float | None = None
    #: Layer counters read from the public API after the timed phase.
    counters: dict[str, float] = field(default_factory=dict)
    #: Failed correctness gates, one message each.
    failures: list[str] = field(default_factory=list)

    def record(self, kind: str, seconds: float) -> None:
        self.wall.append(seconds)
        self.kinds.append(kind)

    def close_window(self, seconds: float, tick_ms: float, full: bool = True) -> float:
        """End a window of ``seconds`` over the requests recorded since
        the last one; ``tick_ms`` is the host tick around it.  Only full
        windows give a throughput sample.  Returns the window's scale."""
        scale = TICK_MS / tick_ms
        first = len(self.order)
        for kind, latency in zip(self.kinds[first:], self.wall[first:]):
            self.order.append(latency * scale)
            self.latencies.setdefault(kind, []).append(latency * scale)
        if full:
            count = len(self.order) - first
            self.wall_rates.append(count / seconds)
            self.rates.append(count / (seconds * scale))
        self.ticks.append(tick_ms)
        return scale

    def report(self, report) -> None:
        self.lines.append(report_line(report))
        if isinstance(report, ObservationReport):
            self.sites.add(report.candidate.execution.site)
        else:
            self.sites.add(report.chosen.execution.site)
            self.candidate_counts.add(report.candidate_count)
            if report.errors is not None:
                values = list(report.errors.values())
                self.errors.append(sum(values) / len(values))

    def fail(self, error: Exception) -> None:
        self.failed += 1
        self.lines.append(f"E|{type(error).__name__}|{getattr(error, 'template', '')}")

    @property
    def digest(self) -> str:
        return digest(self.lines)


def _costs(costs) -> str:
    if costs is None:
        return "-"
    return ",".join(f"{metric}={value!r}" for metric, value in sorted(costs.items()))


def report_line(report) -> str:
    """An order-sensitive canonical rendering of one report: every
    decision and every number the gateway returned, floats by repr."""
    if isinstance(report, ObservationReport):
        return (
            f"O|{report.template}|{report.tick}|{report.candidate.describe()}|"
            f"{_costs(report.measured)}|{report.history_size}|{report.history_version}"
        )
    return (
        f"S|{report.template}|{report.tick}|{report.candidate_count}|"
        f"{report.chosen.describe()}|{_costs(report.predicted_costs)}|"
        f"{_costs(report.measured_costs)}|{report.cost_model.training_size}|"
        f"{report.moqp_algorithm}"
    )


def digest(lines) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def _serving_counts(gateway) -> dict[str, int]:
    stats = gateway.serving_stats
    rpc_counts = getattr(gateway.engine.serving, "rpc_counts", None)
    return {
        "fits": stats.fits,
        "hits": stats.snapshot_hits,
        "rpc": sum(rpc_counts().values()) if rpc_counts is not None else 0,
    }


def _serving_delta(episode: Episode, before: dict, gateway) -> None:
    after = _serving_counts(gateway)
    for name in after:
        episode.counters[f"serving.{name}"] = after[name] - before[name]


def _rows_max(gateway) -> int:
    return max(gateway.history(key).size for key in gateway.templates())


def _blocking(gateway):
    def call(request):
        if isinstance(request, SubmitRequest):
            return gateway.submit(request)
        return gateway.observe(request)

    return call


def _drive(episode: Episode, traffic, call, tracer, window: int) -> None:
    """The closed loop: issue each request when the previous returned,
    time it, and close a window every ``window`` requests (the last one
    may be short), ticking the host between windows.  A failed request
    is a measured outcome: counted, never raised."""
    episode.rows = len(traffic)
    tick = host_tick()
    with _timed(tracer):
        started = opened = time.perf_counter()
        for index, request in enumerate(traffic):
            if tracer is not None:
                tracer.request = index
            kind = "submit" if isinstance(request, SubmitRequest) else "observe"
            sent = time.perf_counter()
            try:
                outcome = call(request)
            except Exception as error:
                outcome = error
            episode.record(kind, time.perf_counter() - sent)
            if isinstance(outcome, Exception):
                episode.fail(outcome)
            else:
                episode.report(outcome)
            full = (index + 1) % window == 0
            if full or index + 1 == len(traffic):
                seconds = time.perf_counter() - opened
                after = host_tick()
                episode.close_window(seconds, (tick + after) / 2, full)
                tick = after
                opened = time.perf_counter()
        episode.wall_s = time.perf_counter() - started


class Workload:
    """One traffic mix: ``build`` a system, ``run`` an episode on it."""

    name = ""
    #: QEP-space size every submit must see.
    candidates = 24

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        #: Directory for files the system under test writes.
        self.scratch = scratch

    def build(self):
        raise NotImplementedError

    def run(self, system, tracer) -> Episode:
        raise NotImplementedError

    def close(self, system) -> None:
        system.close()

    def check_run(self, episodes: list[Episode]) -> list[str]:
        """Gates that need more than one episode's own outputs."""
        return []


def _tenants(count: int) -> list:
    return [
        replace(BASES[i % len(BASES)], key=f"tenant-{i:03d}") for i in range(count)
    ]


class IngestMixed(Workload):
    name = "ingest-mixed"
    TENANTS = 100
    WARM_ROUNDS = 8
    BATCH_ROWS = 8
    #: Rows of the first flushes that the blocking replay must reproduce.
    REPLAY_ROWS = 1000

    def __init__(self, seed, quick, scratch):
        super().__init__(seed, scratch)
        rng = RngStream(seed, self.name)
        self.templates = _tenants(self.TENANTS)
        self.warm = [
            ObserveRequest(t.key, t.sample_params(rng))
            for _ in range(self.WARM_ROUNDS)
            for t in self.templates
        ]
        # Every 20th envelope is a submit; the others alternate between
        # single observes and 8-row batch envelopes.
        target = 300 if quick else 3334
        self.traffic: list = []
        rows = slot = 0
        while rows < target:
            template = self.templates[slot % self.TENANTS]
            slot += 1
            lane = slot % 20
            if lane == 0:
                self.traffic.append(SubmitRequest(template.key, template.sample_params(rng)))
                rows += 1
            elif lane % 2:
                self.traffic.append(ObserveRequest(template.key, template.sample_params(rng)))
                rows += 1
            else:
                batch = tuple(
                    ObserveRequest(template.key, template.sample_params(rng))
                    for _ in range(self.BATCH_ROWS)
                )
                self.traffic.append(BatchObserveRequest(template.key, batch))
                rows += self.BATCH_ROWS
        self.rows = rows

    def build(self):
        config = FederationConfig(
            max_window=24,
            ingest_batch_max=256,
            ingest_queue_depth=1024,
            ingest_pipeline=True,
            ingest_segment_max=64,
        )
        gateway = MidasSystem(patient_count=PATIENTS, seed=self.seed, config=config).gateway
        for template in self.templates:
            gateway.register_template(template)
        for request in self.warm:
            gateway.observe(request)
        return gateway

    def run(self, gateway, tracer) -> Episode:
        episode = Episode()
        tickets = []
        before = _serving_counts(gateway)
        tick = host_tick()
        with _timed(tracer):
            started = opened = time.perf_counter()
            for index, request in enumerate(self.traffic):
                if tracer is not None:
                    tracer.request = index
                admitted = gateway.ingest(request)
                if isinstance(admitted, list):
                    tickets.extend(admitted)
                else:
                    tickets.append(admitted)
                # A flush takes the whole queue, so the last ticket is
                # done only when a flush has just emptied it.
                if tickets[-1].done:
                    tick = self._flushed(episode, tickets, opened, tick)
                    opened = time.perf_counter()
            gateway.drain()
            self._flushed(episode, tickets, opened, tick)
            episode.wall_s = time.perf_counter() - started
        _serving_delta(episode, before, gateway)
        for ticket in tickets:
            if ticket.error is not None:
                episode.fail(ticket.error)
            else:
                episode.report(ticket.report)
        episode.rows = len(tickets)
        stats = gateway.ingest_stats()
        episode.counters.update(
            {
                "frontdoor.flushes": stats.flushes,
                "frontdoor.segments": stats.segments,
                "frontdoor.fit_rounds": stats.fit_rounds,
                "frontdoor.peak_depth": stats.peak_depth,
                "history.rows_max": _rows_max(gateway),
            }
        )
        ledger = (stats.admitted, stats.items_flushed, stats.pending, stats.rejected)
        if ledger != (self.rows, self.rows, 0, 0):
            episode.failures.append(
                f"admission ledger (admitted, flushed, pending, rejected) = "
                f"{ledger}, expected ({self.rows}, {self.rows}, 0, 0)"
            )
        return episode

    @staticmethod
    def _flushed(episode: Episode, tickets, opened: float, tick: float) -> float:
        """Close the window of the flush that just resolved every ticket
        after the episode's recorded ones; returns the closing tick.  A
        window is one flush, from the end of the previous one."""
        group = tickets[len(episode.wall):]
        if not group:
            return tick
        seconds = time.perf_counter() - opened
        after = host_tick()
        for ticket in group:
            episode.record(ticket.kind, ticket.resolved_at - ticket.admitted_at)
        scale = episode.close_window(seconds, (tick + after) / 2)
        # Time to first report: from the admission that tripped the
        # flush (the flush runs inline on it) to its first resolution.
        if len(group) > 1:
            tripped = max(ticket.admitted_at for ticket in group)
            first = min(ticket.resolved_at for ticket in group)
            episode.first_report_ms.append((first - tripped) * 1e3 * scale)
        return after

    def check_run(self, episodes):
        """The first rows through the front door must equal the same
        rows replayed as blocking calls on an identically built gateway."""
        rows = []
        for request in self.traffic:
            if isinstance(request, BatchObserveRequest):
                rows.extend(request.requests)
            else:
                rows.append(request)
        rows = rows[: self.REPLAY_ROWS]
        replay = Episode()
        gateway = self.build()
        try:
            _drive(replay, rows, _blocking(gateway), None, len(rows))
        finally:
            gateway.close()
        expected = digest(episodes[0].lines[: len(rows)])
        if replay.digest != expected:
            return [
                f"front-door digest of the first {len(rows)} rows "
                f"{expected[:16]} != blocking replay {replay.digest[:16]}"
            ]
        return []


class SubmitHot(Workload):
    name = "submit-hot"
    WARM = 12
    #: Requests per window (a multiple of the traffic's period).
    window = 30

    def __init__(self, seed, quick, scratch):
        super().__init__(seed, scratch)
        rng = RngStream(seed, self.name)
        self.warm = [
            ObserveRequest(t.key, t.sample_params(rng))
            for _ in range(self.WARM)
            for t in BASES
        ]
        submits = 60 if quick else 1000
        self.traffic = [
            SubmitRequest(BASES[i % 3].key, BASES[i % 3].sample_params(rng))
            for i in range(submits)
        ]

    def build(self):
        gateway = MidasSystem(patient_count=PATIENTS, seed=self.seed).gateway
        for request in self.warm:
            gateway.observe(request)
        return gateway

    def run(self, gateway, tracer) -> Episode:
        episode = Episode()
        before = _serving_counts(gateway)
        _drive(episode, self.traffic, _blocking(gateway), tracer, self.window)
        _serving_delta(episode, before, gateway)
        episode.counters["history.rows_max"] = _rows_max(gateway)
        return episode


class PlanWide(Workload):
    name = "plan-wide"
    candidates = 384
    NODES = {"cloud-a": list(range(1, 17)), "cloud-b": list(range(1, 13))}
    WARM = 12
    PARAM_SETS = 8
    #: One turn of the policy rotation over the 3 templates.
    window = 12
    POLICIES = (
        UserPolicy(weights=(0.5, 0.5)),
        UserPolicy(weights=(0.9, 0.1)),
        UserPolicy(weights=(0.1, 0.9)),
        UserPolicy(weights=(0.7, 0.3)),
    )

    def __init__(self, seed, quick, scratch):
        super().__init__(seed, scratch)
        rng = RngStream(seed, self.name)
        self.warm = [
            ObserveRequest(
                t.key, t.sample_params(rng), candidate_index=int(rng.integers(0, 384))
            )
            for _ in range(self.WARM)
            for t in BASES
        ]
        reused = {
            t.key: [t.sample_params(rng) for _ in range(self.PARAM_SETS)] for t in BASES
        }
        plans = 30 if quick else 500
        # Requests alternate, per template, between one of 8 reused
        # parameter sets (a session cache hit after its first use) and a
        # fresh sample.
        self.traffic = []
        for i in range(plans):
            template = BASES[i % 3]
            turn = i // 3
            if turn % 2 == 0:
                params = reused[template.key][(turn // 2) % self.PARAM_SETS]
            else:
                params = template.sample_params(rng)
            policy = self.POLICIES[turn % len(self.POLICIES)]
            self.traffic.append(SubmitRequest(template.key, params, policy))

    def build(self):
        federation = paper_federation()
        tables = MedicalDataGenerator(PATIENTS, self.seed).generate_all()
        deployment = Deployment(dict(DEFAULT_DEPLOYMENT))
        gateway = FederationGateway(
            catalog=Catalog(tables.values()),
            stats={name: compute_table_stats(t) for name, t in tables.items()},
            deployment=deployment,
            enumerator=QepEnumerator(
                federation, deployment, DEFAULT_INSTANCE_TYPES, self.NODES
            ),
            simulator=MultiEngineSimulator(
                federation,
                load=default_federation_load(RngStream(self.seed, "midas-load")),
                seed=self.seed,
            ),
            config=DEFAULT_CONFIG,
        )
        for template in BASES:
            gateway.register_template(template)
        for request in self.warm:
            gateway.observe(request)
        sessions = {t.key: gateway.session(t.key) for t in BASES}
        return gateway, sessions

    def run(self, system, tracer) -> Episode:
        gateway, sessions = system
        episode = Episode()
        before = _serving_counts(gateway)

        # One pinned session per template for the whole timed phase.
        def call(request):
            return sessions[request.template].submit(request, execute=False)

        _drive(episode, self.traffic, call, tracer, self.window)
        _serving_delta(episode, before, gateway)
        episode.counters["history.rows_max"] = _rows_max(gateway)
        return episode

    def close(self, system) -> None:
        gateway, sessions = system
        for session in sessions.values():
            session.close()
        gateway.close()


class GovernedDurable(Workload):
    name = "governed-durable"
    candidates = 12
    TENANTS = 24
    WARM = 8
    OBSERVES = 4
    #: One round of 24 tenants x (4 observes + 1 submit).
    window = 120

    def __init__(self, seed, quick, scratch):
        super().__init__(seed, scratch)
        rng = RngStream(seed, self.name)
        self.templates = _tenants(self.TENANTS)
        self.principals = {
            t.key: Principal(f"clinician-{i:02d}", "clinician", "cloud-a")
            for i, t in enumerate(self.templates)
        }

        def observe(template):
            return ObserveRequest(
                template.key,
                template.sample_params(rng),
                principal=self.principals[template.key],
            )

        self.warm = [observe(t) for _ in range(self.WARM) for t in self.templates]
        rounds = 2 if quick else 14
        self.traffic = []
        for _ in range(rounds):
            for template in self.templates:
                self.traffic.extend(observe(template) for _ in range(self.OBSERVES))
                self.traffic.append(
                    SubmitRequest(
                        template.key,
                        template.sample_params(rng),
                        principal=self.principals[template.key],
                    )
                )
        self._built = 0

    def _gateway(self, directory: Path):
        config = FederationConfig(
            max_window=24,
            serving_backend="sharded",
            shard_workers=1,
            governance=GovernanceConfig(
                policies=(DataPolicy("patient", "cloud-a", "restricted"),)
            ),
            durability=DurabilityConfig(dir=directory, fsync="batch"),
        )
        gateway = MidasSystem(patient_count=PATIENTS, seed=self.seed, config=config).gateway
        for template in self.templates:
            gateway.register_template(template)
        return gateway

    def build(self):
        self._built += 1
        directory = self.scratch / f"wal-{self._built}"
        shutil.rmtree(directory, ignore_errors=True)
        gateway = self._gateway(directory)
        for request in self.warm:
            gateway.observe(request)
        return gateway, directory

    def run(self, system, tracer) -> Episode:
        gateway, directory = system
        episode = Episode()
        before = _serving_counts(gateway)
        _drive(episode, self.traffic, _blocking(gateway), tracer, self.window)
        _serving_delta(episode, before, gateway)
        episode.counters["history.rows_max"] = _rows_max(gateway)
        if episode.sites - {"cloud-a"}:
            episode.failures.append(f"plans ran at {sorted(episode.sites)}, not only cloud-a")
        audit = gateway.audit_report(limit=0)
        if not audit.chain_valid:
            episode.failures.append("audit chain does not verify")
        live_rows = {key: gateway.history(key).export_rows() for key in gateway.templates()}
        live_head = audit.head_hash
        gateway.close()
        # Crash recovery: a fresh gateway on the same journal directory.
        recovered = self._gateway(directory)
        try:
            tick = host_tick()
            started = time.perf_counter()
            recovered.recover()
            seconds = time.perf_counter() - started
            episode.recover_s = seconds * TICK_MS / ((tick + host_tick()) / 2)
            rows = {key: recovered.history(key).export_rows() for key in recovered.templates()}
            head = recovered.audit_report(limit=0).head_hash
        finally:
            recovered.close()
        if rows != live_rows:
            episode.failures.append("recovered histories differ from the live ones")
        if head != live_head:
            episode.failures.append("recovered audit head differs from the live one")
        return episode

    def close(self, system) -> None:
        gateway, directory = system
        gateway.close()
        shutil.rmtree(directory, ignore_errors=True)


WORKLOADS = {
    workload.name: workload
    for workload in (IngestMixed, SubmitHot, PlanWide, GovernedDurable)
}
