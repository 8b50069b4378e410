"""QEP space enumeration (paper Example 3.1).

A logical plan spawns many *equivalent QEPs*: the same operator tree run
at a different engine, or on a different cluster configuration.  The
enumerator builds that space as the cross product of

* execution engine/site (one of the engines holding a participating
  table), and
* node count per participating site (instance types are fixed per site
  by the federation's deployment, as in the paper's testbed).

Example 3.1's headline number — 70 vCPUs x 260 GB of memory = 18,200
equivalent configurations for a single plan — is exposed verbatim by
:func:`vm_configuration_count`.

Only the size features depend on the query instance, and only through
``profile_plan``.  The enumerator therefore keeps the node-count and
execution options per query table set, one :class:`Placement` per
execution option and, per ``(plan, stats, tables, execution)``, the
size + indicator feature prefix, for the last :data:`PREFIX_CAPACITY`
combinations; a repeated plan (the Interface hands out one shared plan
per distinct SQL) skips profiling.  Every call still builds fresh
candidates with their own ``features`` and ``clusters`` dicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.cloud.federation import CloudFederation
from repro.cloud.vm import Cluster
from repro.common.lru import LruCache
from repro.common.units import bytes_to_mib
from repro.common.validation import require, require_positive
from repro.ires.deployment import Deployment
from repro.plans.logical import LogicalPlan
from repro.plans.physical import EnginePlacement, Placement, profile_plan
from repro.plans.statistics import TableStats

#: Feature prefixes (per plan, stats, tables and execution option) one
#: enumerator keeps: two execution options for each of the 346 distinct
#: MIDAS query instances fit.
PREFIX_CAPACITY = 1024


@dataclass(slots=True)
class QepCandidate:
    """One equivalent QEP: execution choice + cluster configuration."""

    query_key: str
    placement: Placement
    clusters: dict[str, Cluster]
    features: dict[str, float]

    @property
    def execution(self) -> EnginePlacement:
        return self.placement.execution

    def describe(self) -> str:
        nodes = ", ".join(
            f"{site}={cluster.node_count}" for site, cluster in sorted(self.clusters.items())
        )
        return f"{self.query_key} @ {self.execution.engine}/{self.execution.site} [{nodes}]"


def vm_configuration_count(vcpu_pool: int = 70, memory_pool_gb: int = 260) -> int:
    """Example 3.1: |configurations| = vCPU pool x memory pool.

    "If the pool of resources includes 70 vCPU and 260GB of memory, the
    number of different configurations to execute this query is thus
    70 x 260 = 18,200."
    """
    require_positive(vcpu_pool, "vcpu_pool")
    require_positive(memory_pool_gb, "memory_pool_gb")
    return vcpu_pool * memory_pool_gb


def vm_configuration_space(vcpu_pool: int, memory_pool_gb: int) -> list[tuple[int, int]]:
    """All (vcpus, memory_gb) pairs of Example 3.1's space."""
    return list(itertools.product(range(1, vcpu_pool + 1), range(1, memory_pool_gb + 1)))


class QepEnumerator:
    """Enumerates :class:`QepCandidate` for a bound plan."""

    def __init__(
        self,
        federation: CloudFederation,
        deployment: Deployment,
        instance_types: dict[str, str],
        node_options: dict[str, list[int]],
        fixed_execution: EnginePlacement | None = None,
    ):
        """``instance_types``/``node_options`` are keyed by site name.

        With ``fixed_execution`` the QEP space is restricted to one
        execution engine — the per-engine profiling mode IReS models are
        built in (one model per operator per engine), which also drops
        the engine-indicator features (none are needed).
        """
        require(bool(instance_types), "instance_types must not be empty")
        require(bool(node_options), "node_options must not be empty")
        self.federation = federation
        self.deployment = deployment
        self.instance_types = {k.lower(): v for k, v in instance_types.items()}
        self.node_options = {k.lower(): list(v) for k, v in node_options.items()}
        self.fixed_execution = fixed_execution
        # One entry per distinct query table set / execution option: a
        # handful per federation.
        self._skeletons: dict[tuple[str, ...], tuple] = {}
        self._placements: dict[EnginePlacement, Placement] = {}
        self._prefixes = LruCache(PREFIX_CAPACITY)
        self._stats_seen = LruCache(4)

    def feature_names(self, tables: tuple[str, ...]) -> tuple[str, ...]:
        """Feature vector layout for a query over ``tables``.

        Matches the paper's Example 2.1 — one size per table (MiB of data
        surviving that table's filters) + one node count per site — plus
        a one-hot indicator per execution engine beyond the first (the
        "type of virtual machines / system information" the paper's §3
        allows as model variables): without it no linear model could
        separate a Hive execution from a PostgreSQL one.
        """
        names = [f"size_{table.lower()}_mib" for table in tables]
        names.extend(f"nodes_{site}" for site in self._sites(tables))
        names.extend(
            f"exec_{placement.engine}_{placement.site}"
            for placement in self._execution_indicator_options(tables)
        )
        return tuple(names)

    def _sites(self, tables: tuple[str, ...]) -> list[str]:
        return sorted({self.deployment.site_of(t).lower() for t in tables})

    def _execution_options(self, tables: tuple[str, ...]) -> list[EnginePlacement]:
        if self.fixed_execution is not None:
            return [self.fixed_execution]
        return self.deployment.execution_options(tables)

    def _execution_indicator_options(self, tables: tuple[str, ...]) -> list[EnginePlacement]:
        """All but one execution option get an indicator (k-1 encoding)."""
        options = sorted(
            self._execution_options(tables),
            key=lambda p: (p.engine, p.site),
        )
        return options[1:]

    def enumerate(
        self,
        query_key: str,
        plan: LogicalPlan,
        stats: dict[str, TableStats],
        tables: tuple[str, ...],
        constraint=None,
    ) -> list[QepCandidate]:
        """The QEP space of one query instance.

        ``constraint`` is an optional governance
        :class:`~repro.governance.policy.PlanConstraint`: execution
        options whose site it does not permit are dropped *before* any
        candidate is built, so the optimizer never costs a forbidden
        plan.  The feature layout (k-1 execution indicators over the
        *unconstrained* option set) is deliberately not filtered — it is
        fixed at template registration and shared with the fitted
        models; a constrained request simply sets fewer indicators.
        ``None`` (the default, and the permissive-governance path) is
        byte-for-byte the historical behavior.
        """
        per_site_options, executions, indicator_options = self._skeleton(tables)
        if constraint is not None:
            executions = [e for e in executions if constraint.permits(e.site)]
        candidates: list[QepCandidate] = []
        provision = self.federation.provision
        for execution in executions:
            placement = self._placement(execution)
            prefix = self._prefix(plan, stats, tables, placement, indicator_options)
            for combo in itertools.product(*per_site_options):
                clusters = {}
                features = dict(prefix)
                for site, instance, name, count in combo:
                    clusters[site] = provision(site, instance, count)
                    features[name] = float(count)
                candidates.append(
                    QepCandidate(
                        query_key=query_key,
                        placement=placement,
                        clusters=clusters,
                        features=features,
                    )
                )
        return candidates

    def _skeleton(self, tables: tuple[str, ...]):
        """The parameter-independent part of a query's QEP space: the
        ``(site, instance type, feature name, node count)`` options per
        site, the execution options and the k-1 indicator options.
        Shared across calls, so retained candidates share their key
        strings too."""
        skeleton = self._skeletons.get(tables)
        if skeleton is None:
            per_site_options = []
            for site in self._sites(tables):
                options = self.node_options.get(site)
                require(options is not None and len(options) > 0,
                        f"no node options for site {site!r}")
                instance = self.instance_types[site]
                name = f"nodes_{site}"
                per_site_options.append(
                    [(site, instance, name, count) for count in options]
                )
            skeleton = self._skeletons[tables] = (
                per_site_options,
                self._execution_options(tables),
                self._execution_indicator_options(tables),
            )
        return skeleton

    def _placement(self, execution: EnginePlacement) -> Placement:
        placement = self._placements.get(execution)
        if placement is None:
            placement = self._placements[execution] = self.deployment.placement_for(
                execution
            )
        return placement

    def _prefix(
        self,
        plan: LogicalPlan,
        stats: dict[str, TableStats],
        tables: tuple[str, ...],
        placement: Placement,
        indicator_options: list[EnginePlacement],
    ) -> dict[str, float]:
        """Size features (one ``profile_plan``) + execution indicators.

        Keyed by the identities of ``plan`` and ``stats``; the entry holds
        both objects, so a recycled ``id()`` can never match it.  Only a
        ``stats`` object seen before is cached: per-call statistics (the
        sampled inputs of profiling runs) never repeat, and caching them
        would pin tens of KB of statistics per entry.
        """
        execution = placement.execution
        key = (id(plan), id(stats), tables, execution)
        cached = self._prefixes.get(key)
        if cached is not None and cached[0] is plan and cached[1] is stats:
            return cached[2]
        # Sizes do not depend on node counts: profile once per placement.
        profile = profile_plan(plan, stats, placement)
        prefix = {
            f"size_{table.lower()}_mib": bytes_to_mib(
                profile.effective_table_bytes.get(table.lower(), 0.0)
            )
            for table in tables
        }
        for indicator in indicator_options:
            flag = 1.0 if indicator == execution else 0.0
            prefix[f"exec_{indicator.engine}_{indicator.site}"] = flag
        if self._stats_seen.get(id(stats)) is stats:
            self._prefixes.put(key, (plan, stats, prefix))
        else:
            self._stats_seen.put(id(stats), stats)
        return prefix
