"""The MIDAS system facade.

Builds the whole stack of Figure 1 in one object: the paper's two-cloud
federation (Amazon/Hive + Microsoft/PostgreSQL), the medical catalog with
its deployment, and a :class:`~repro.federation.FederationGateway` over
DREAM-backed IReS.  ``MidasSystem`` assembles the *environment*; every
query flows through the gateway's typed envelope API (``midas.gateway``
is the full surface — sessions, batches, backend registry).
"""

from __future__ import annotations

from repro.cloud.federation import CloudFederation, paper_federation
from repro.cloud.variability import LoadProcess, default_federation_load
from repro.common.rng import RngStream
from repro.engines.simulate import MultiEngineSimulator
from repro.federation import (
    FederationConfig,
    FederationGateway,
    ObserveRequest,
    Principal,
    SubmissionReport,
    SubmitRequest,
)
from repro.ires.deployment import Deployment
from repro.ires.enumerator import QepEnumerator
from repro.ires.modelling import EstimationStrategy
from repro.ires.policy import UserPolicy
from repro.midas.generator import MedicalDataGenerator
from repro.midas.queries import MEDICAL_QUERIES
from repro.plans.catalog import Catalog
from repro.plans.physical import EnginePlacement
from repro.plans.statistics import compute_table_stats

#: Default placement of the medical tables (Example 2.1 + extensions).
DEFAULT_DEPLOYMENT = {
    "patient": EnginePlacement("hive", "cloud-a"),
    "generalinfo": EnginePlacement("postgresql", "cloud-b"),
    "labresult": EnginePlacement("postgresql", "cloud-b"),
    "imagingstudy": EnginePlacement("hive", "cloud-a"),
}

DEFAULT_INSTANCE_TYPES = {"cloud-a": "a1.xlarge", "cloud-b": "B2S"}
DEFAULT_NODE_OPTIONS = {"cloud-a": [1, 2, 4, 8], "cloud-b": [1, 2, 4]}

#: MIDAS's default gateway configuration (the paper's DREAM settings).
DEFAULT_CONFIG = FederationConfig(
    strategy="dream-incremental", r2_required=0.8, max_window=24
)


class MidasSystem:
    """MIDAS end to end: call :meth:`warm_up` then :meth:`query`."""

    def __init__(
        self,
        patient_count: int = 2000,
        seed: int = 7,
        config: FederationConfig | None = None,
        strategy: EstimationStrategy | None = None,
        federation: CloudFederation | None = None,
        load: LoadProcess | None = None,
    ):
        self.seed = seed
        self.federation = federation or paper_federation()
        tables = MedicalDataGenerator(patient_count, seed).generate_all()
        self.catalog = Catalog(tables.values())
        self.stats = {name: compute_table_stats(t) for name, t in tables.items()}
        self.deployment = Deployment(dict(DEFAULT_DEPLOYMENT))
        enumerator = QepEnumerator(
            self.federation,
            self.deployment,
            DEFAULT_INSTANCE_TYPES,
            DEFAULT_NODE_OPTIONS,
        )
        simulator = MultiEngineSimulator(
            self.federation,
            load=load or default_federation_load(RngStream(seed, "midas-load")),
            seed=seed,
        )
        self.gateway = FederationGateway(
            catalog=self.catalog,
            stats=self.stats,
            deployment=self.deployment,
            enumerator=enumerator,
            simulator=simulator,
            config=config or DEFAULT_CONFIG,
            strategy=strategy,
        )
        for template in MEDICAL_QUERIES.values():
            self.gateway.register_template(template)
        self._rng = RngStream(seed, "midas-params")

    # ------------------------------------------------------------------

    def next_tick(self) -> int:
        return self.gateway.next_tick()

    def warm_up(
        self, query_key: str, runs: int = 12, principal: Principal | None = None
    ) -> None:
        """Populate the query's history with exploratory executions.

        Rotates through the QEP space so the Modelling module sees varied
        (features -> cost) observations, as a production IReS would after
        profiling runs.  ``principal`` is the tenant identity the
        profiling runs are performed on behalf of (needed when the
        gateway's governance plane requires identity or scopes rules by
        role/purpose).
        """
        template = MEDICAL_QUERIES[query_key]
        for _run in range(runs):
            params = template.sample_params(self._rng)
            candidates = self.gateway.candidates(
                query_key, params, principal=principal
            )
            candidate = candidates[int(self._rng.integers(0, len(candidates)))]
            self.gateway.observe(
                ObserveRequest(query_key, params, principal=principal),
                candidate=candidate,
            )

    def query(
        self,
        query_key: str,
        params: dict | None = None,
        policy: UserPolicy | None = None,
        principal: Principal | None = None,
    ) -> SubmissionReport:
        """Submit one medical query through the full IReS pipeline."""
        template = MEDICAL_QUERIES[query_key]
        if params is None:
            params = template.sample_params(self._rng)
        return self.gateway.submit(
            SubmitRequest(
                query_key, params, policy or UserPolicy(), principal=principal
            )
        )

    def execute_locally(self, query_key: str, params: dict | None = None):
        """Run the query on the local executor (semantic ground truth)."""
        from repro.plans.execution import execute_sql

        template = MEDICAL_QUERIES[query_key]
        if params is None:
            params = template.sample_params(self._rng)
        return execute_sql(template.render(params), self.catalog)
