"""Multi-engine federation simulator.

Combines the per-engine base times of a plan profile with wide-area
transfers, the federation's load process and multiplicative measurement
noise, producing the "measured" :class:`ExecutionMetrics` a real IReS
deployment would log.  It is the ground truth of every experiment.

Determinism: given the same master seed, the same sequence of
``execute(..)`` calls yields the same metrics, because load and noise
draw from named :class:`~repro.common.rng.RngStream` streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.federation import CloudFederation
from repro.cloud.variability import ConstantLoad, LoadProcess
from repro.cloud.vm import Cluster
from repro.common.errors import ExecutionError
from repro.common.rng import RngStream
from repro.engines.base import ExecutionEngine
from repro.engines.metrics import ExecutionMetrics
from repro.engines.registry import default_engines
from repro.plans.logical import LogicalPlan
from repro.plans.physical import Placement, PlanProfile, profile_plan
from repro.plans.statistics import TableStats


@dataclass(frozen=True)
class QueryExecution:
    """The record of one simulated run (what IReS would log)."""

    tick: int
    metrics: ExecutionMetrics
    profile: PlanProfile
    clusters: dict[str, Cluster]
    load_factor: float


class MultiEngineSimulator:
    """Executes plan profiles across a federation's engines."""

    def __init__(
        self,
        federation: CloudFederation,
        engines: dict[str, ExecutionEngine] | None = None,
        load: LoadProcess | None = None,
        noise_sigma: float = 0.10,
        seed: int = 7,
    ):
        self.federation = federation
        self.engines = engines if engines is not None else default_engines()
        self.load = load or ConstantLoad()
        self.noise_sigma = noise_sigma
        self._noise_rng = RngStream(seed, "simulator", "noise")

    # ------------------------------------------------------------------

    def rng_state(self) -> dict:
        """The noise stream's PCG64 state — a small JSON-serialisable
        dict.  Journaled per observation by the durability subsystem so
        a recovered simulator resumes the *same* noise sequence (the
        restart-equivalence oracle needs measured costs, not just
        histories, to line up bitwise)."""
        return self._noise_rng.generator.bit_generator.state

    def restore_rng_state(self, state: dict) -> None:
        """Restore a state previously captured by :meth:`rng_state`."""
        self._noise_rng.generator.bit_generator.state = state

    def execute(
        self,
        plan: LogicalPlan,
        stats: dict[str, TableStats],
        placement: Placement,
        clusters: dict[str, Cluster],
        tick: int,
    ) -> QueryExecution:
        """Simulate one run at time ``tick`` and return its record."""
        profile = profile_plan(plan, stats, placement)
        base = self.base_metrics(profile, clusters)
        load_factor = self.load.factor(tick)
        noise = float(self._noise_rng.lognormal(0.0, self.noise_sigma))
        measured_time = base.execution_time_s * load_factor * noise
        measured = ExecutionMetrics(
            execution_time_s=measured_time,
            monetary_cost_usd=self._money(profile, clusters, measured_time),
            intermediate_bytes=base.intermediate_bytes,
            energy_joules=base.energy_joules * load_factor * noise,
            breakdown=dict(base.breakdown),
        )
        return QueryExecution(tick, measured, profile, dict(clusters), load_factor)

    def base_metrics(
        self, profile: PlanProfile, clusters: dict[str, Cluster]
    ) -> ExecutionMetrics:
        """Deterministic (no load, no noise) metrics of a profile.

        This is also what an oracle with perfect knowledge of the cost
        model — but not of the load — would predict.
        """
        total_time = 0.0
        total_energy = 0.0
        breakdown: dict[str, float] = {}
        for engine_site in profile.participating():
            engine = self._engine(engine_site.engine)
            cluster = self._cluster(clusters, engine_site.site)
            operators = profile.operators_at(engine_site.engine, engine_site.site)
            times = engine.base_time(operators, cluster)
            total_time += times.total_s
            total_energy += engine.energy_joules(times.total_s, cluster)
            for key, value in times.as_dict().items():
                breakdown[key] = breakdown.get(key, 0.0) + value

        transfer_s = 0.0
        for transfer in profile.transfers:
            transfer_s += self.federation.transfer_time(
                transfer.payload_bytes, transfer.from_site, transfer.to_site
            )
        breakdown["transfer_s"] = transfer_s
        total_time += transfer_s

        money = self._money(profile, clusters, total_time)
        return ExecutionMetrics(
            execution_time_s=total_time,
            monetary_cost_usd=money,
            intermediate_bytes=profile.intermediate_bytes(),
            energy_joules=total_energy,
            breakdown=breakdown,
        )

    # ------------------------------------------------------------------

    def _engine(self, name: str) -> ExecutionEngine:
        try:
            return self.engines[name]
        except KeyError:
            known = ", ".join(sorted(self.engines))
            raise ExecutionError(f"unknown engine {name!r}; registered: {known}") from None

    @staticmethod
    def _cluster(clusters: dict[str, Cluster], site: str) -> Cluster:
        try:
            return clusters[site]
        except KeyError:
            known = ", ".join(sorted(clusters))
            raise ExecutionError(
                f"no cluster provisioned at site {site!r}; have: {known}"
            ) from None

    def _money(
        self, profile: PlanProfile, clusters: dict[str, Cluster], duration_s: float
    ) -> float:
        inter = 0.0
        intra = 0.0
        for transfer in profile.transfers:
            if self.federation.crosses_provider(transfer.from_site, transfer.to_site):
                inter += transfer.payload_bytes
            else:
                intra += transfer.payload_bytes
        # Sites in sorted order: with three or more, the float sum of
        # their compute costs depends on the order it is taken in.
        participating_sites = sorted({p.site for p in profile.participating()})
        held = [clusters[site] for site in participating_sites if site in clusters]
        return self.federation.pricing.query_cost(held, duration_s, inter, intra)
