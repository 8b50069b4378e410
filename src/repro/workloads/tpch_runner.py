"""TPC-H federation workload: the setup behind Tables 3 and 4.

Reproduces the paper's experimental frame (§4.1-4.2): TPC-H data split
across a two-engine federation — Hive on cloud A holds ``orders`` and
``part``; PostgreSQL on cloud B holds ``lineitem`` and ``customer`` — so
each of Q12/Q13/Q14/Q17 joins two tables living in *different* engines.
The runner executes a stream of parameter-randomised query instances on
randomly drawn QEPs (cluster sizes + execution engine), logging
(features, measured costs) into one :class:`ExecutionHistory` per query,
under a drifting load.

All platform access goes through the
:class:`~repro.federation.FederationGateway`: :meth:`gateway` builds one
over this workload's environment, and :meth:`build_history` drives the
profiling runs through the gateway's ``observe`` envelope (with sampled
per-run statistics), so the workload exercises exactly the surface real
callers use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.federation import CloudFederation, paper_federation
from repro.common.rng import RngStream
from repro.core.history import ExecutionHistory
from repro.engines.simulate import MultiEngineSimulator
from repro.federation import FederationConfig, FederationGateway, ObserveRequest
from repro.ires.deployment import Deployment
from repro.ires.enumerator import QepEnumerator, QepSpace
from repro.plans.physical import EnginePlacement
from repro.tpch.dataset import TpchDataset
from repro.tpch.queries import TPCH_QUERIES
from repro.workloads.drift import drift_scenario

#: The fixed table deployment (every paper query becomes cross-engine).
TPCH_DEPLOYMENT = {
    "orders": EnginePlacement("hive", "cloud-a"),
    "part": EnginePlacement("hive", "cloud-a"),
    "lineitem": EnginePlacement("postgresql", "cloud-b"),
    "customer": EnginePlacement("postgresql", "cloud-b"),
}


@dataclass(frozen=True)
class TpchFederationConfig:
    """Knobs of the Tables 3/4 workload."""

    scale_mib: float = 100.0
    physical_scale_factor: float = 0.0005
    queries: tuple[str, ...] = ("q12", "q13", "q14", "q17")
    seed: int = 7
    drift: str = "paper"
    noise_sigma: float = 0.05
    instance_types: dict = field(
        default_factory=lambda: {"cloud-a": "a1.xlarge", "cloud-b": "B2S"}
    )
    node_options: dict = field(
        default_factory=lambda: {"cloud-a": [2, 4, 6, 8], "cloud-b": [2, 3, 4]}
    )
    metrics: tuple[str, ...] = ("time", "money")
    #: Use the incremental (version-cached, shared-factorisation) DREAM
    #: backend in :meth:`TpchFederationWorkload.gateway`.  The batch
    #: reference estimator remains available for oracle comparisons.
    incremental_estimation: bool = True
    #: IReS-style profiling varies input sizes: each run executes over a
    #: sampled fraction of the dataset drawn from this range, so the
    #: size -> cost relationship is observable in the history.
    sample_fraction_range: tuple[float, float] = (0.3, 1.0)
    #: IReS models are per engine: the MRE histories profile a fixed
    #: execution placement (engine, site), giving the paper's L = 4
    #: feature vector (two sizes + two node counts).  None = mix engines
    #: and add indicator features.
    fixed_execution: tuple[str, str] | None = ("hive", "cloud-a")

    def federation_config(self) -> FederationConfig:
        """The gateway configuration this workload implies."""
        return FederationConfig(
            strategy=(
                "dream-incremental" if self.incremental_estimation else "dream-batch"
            ),
            metrics=self.metrics,
        )


class TpchFederationWorkload:
    """Builds per-query execution histories on the simulated federation."""

    def __init__(self, config: TpchFederationConfig | None = None):
        self.config = config or TpchFederationConfig()
        cfg = self.config
        self.dataset = TpchDataset(
            cfg.scale_mib, physical_scale_factor=cfg.physical_scale_factor, seed=cfg.seed
        )
        self.federation: CloudFederation = paper_federation()
        self.deployment = Deployment(dict(TPCH_DEPLOYMENT))
        fixed = (
            EnginePlacement(*cfg.fixed_execution)
            if cfg.fixed_execution is not None
            else None
        )
        self.enumerator = QepEnumerator(
            self.federation,
            self.deployment,
            cfg.instance_types,
            cfg.node_options,
            fixed_execution=fixed,
        )
        load = drift_scenario(cfg.drift, RngStream(cfg.seed, "workload-load"))
        self.simulator = MultiEngineSimulator(
            self.federation, load=load, noise_sigma=cfg.noise_sigma, seed=cfg.seed
        )
        self._param_rng = RngStream(cfg.seed, "workload-params")
        self._choice_rng = RngStream(cfg.seed, "workload-choice")

    # ------------------------------------------------------------------

    def gateway(
        self,
        config: FederationConfig | None = None,
        strategy=None,
        queries: tuple[str, ...] | None = None,
    ) -> FederationGateway:
        """A federation gateway over this workload's environment.

        Registers the configured query templates; ``strategy`` is the
        engine-room escape hatch for a pre-built strategy instance.
        """
        cfg = self.config
        gateway = FederationGateway(
            catalog=self.dataset.catalog,
            stats=self.dataset.logical_stats,
            deployment=self.deployment,
            enumerator=self.enumerator,
            simulator=self.simulator,
            config=config or cfg.federation_config(),
            strategy=strategy,
        )
        for key in cfg.queries if queries is None else queries:
            gateway.register_template(TPCH_QUERIES[key], cfg.metrics)
        return gateway

    def build_history(self, query_key: str, runs: int) -> ExecutionHistory:
        """Run ``runs`` randomised executions of one query template.

        Each run draws fresh query parameters and a random QEP from the
        space enumerated over *sampled* statistics (exploration, as IReS
        profiling would), executes it at the next tick and logs the
        observation — all through a dedicated gateway, so the logged
        history is exactly what the serving stack would have seen.
        """
        cfg = self.config
        template = TPCH_QUERIES[query_key]
        gateway = self.gateway(queries=(query_key,))
        low, high = cfg.sample_fraction_range
        for tick in range(runs):
            params = template.sample_params(self._param_rng)
            fraction = float(self._choice_rng.uniform(low, high))
            stats = {
                name: table_stats.sampled(fraction)
                for name, table_stats in self.dataset.logical_stats.items()
            }
            candidates = gateway.candidates(query_key, params, stats=stats)
            candidate = candidates[int(self._choice_rng.integers(0, len(candidates)))]
            gateway.observe(
                ObserveRequest(query_key, params, tick=tick),
                candidate=candidate,
                stats=stats,
            )
        return gateway.history(query_key)

    def build_all_histories(self, runs: int) -> dict[str, ExecutionHistory]:
        return {key: self.build_history(key, runs) for key in self.config.queries}

    def candidates(self, query_key: str, params: dict) -> QepSpace:
        """The QEP space of one query instance over the full statistics,
        through a dedicated gateway."""
        with self.gateway(queries=(query_key,)) as gateway:
            return gateway.candidates(query_key, params)
