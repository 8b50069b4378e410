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
``profile_plan``.  The enumerator therefore keeps, per query table set,
one :class:`NodeGrid`: the node-count combos in ``itertools.product``
order, each with one read-only clusters mapping and its
``(nodes_<site>, float)`` pairs, plus the same counts as an
``(n_combos, n_sites)`` float grid.  ``CloudFederation.provision`` runs
only while a grid is built.  It also keeps one :class:`Placement` per
execution option and, per ``(plan, stats, tables, execution)``, the
size + indicator feature prefix, for the last :data:`PREFIX_CAPACITY`
combinations; a repeated plan (the Interface hands out one shared plan
per distinct SQL) skips profiling, and a new one is profiled once for
all its execution options.

``enumerate`` returns a :class:`QepSpace`: a sequence over one
``(placement, prefix)`` pair per admitted execution option times the
grid's combos.  Row ``i`` is ``divmod(i, n_combos)``.  A candidate is
built on first access and is the same object ever after; its
``features`` and ``clusters`` dicts are private copies built on first
access, so a caller mutating a candidate cannot corrupt a cache.  The
optimizer reads the space's feature matrix straight from the prefixes
and the grid.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from types import MappingProxyType

import numpy as np

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


class QepCandidate:
    """One equivalent QEP: execution choice + cluster configuration.

    A candidate from :meth:`QepEnumerator.enumerate` builds ``features``
    (the feature prefix, then one node count per site) and ``clusters``
    on first access, as dicts of its own.
    """

    __slots__ = ("query_key", "placement", "_clusters", "_features", "_prefix", "_combo")

    def __init__(
        self,
        query_key: str,
        placement: Placement,
        clusters: dict[str, Cluster],
        features: dict[str, float],
    ):
        self.query_key = query_key
        self.placement = placement
        self._clusters = clusters
        self._features = features
        self._prefix = self._combo = None

    @classmethod
    def _on_demand(cls, query_key, placement, prefix, combo) -> QepCandidate:
        candidate = cls.__new__(cls)
        candidate.query_key = query_key
        candidate.placement = placement
        candidate._clusters = candidate._features = None
        candidate._prefix = prefix
        candidate._combo = combo
        return candidate

    @property
    def features(self) -> dict[str, float]:
        features = self._features
        if features is None:
            features = dict(self._prefix)
            features.update(self._combo[1])
            self._features = features
        return features

    @property
    def clusters(self) -> dict[str, Cluster]:
        clusters = self._clusters
        if clusters is None:
            clusters = self._clusters = dict(self._combo[0])
        return clusters

    @property
    def execution(self) -> EnginePlacement:
        return self.placement.execution

    def describe(self) -> str:
        nodes = ", ".join(
            f"{site}={cluster.node_count}" for site, cluster in sorted(self.clusters.items())
        )
        return f"{self.query_key} @ {self.execution.engine}/{self.execution.site} [{nodes}]"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.query_key, self.placement, self.clusters, self.features) == (
            other.query_key,
            other.placement,
            other.clusters,
            other.features,
        )

    def __repr__(self) -> str:
        return (
            f"QepCandidate(query_key={self.query_key!r}, placement={self.placement!r}, "
            f"clusters={self.clusters!r}, features={self.features!r})"
        )


class NodeGrid:
    """The node-count combos of one query table set, shared by every
    space over it.

    ``combos[k]`` is ``(clusters, node_pairs)``: a read-only
    ``site -> Cluster`` mapping and the ``(nodes_<site>, float)`` pairs
    in site order.  ``values[k]`` holds the same floats as a row of the
    ``(n_combos, n_sites)`` grid, whose column for a feature name is
    ``columns[name]``.
    """

    __slots__ = ("columns", "combos", "values")

    def __init__(self, per_site: dict[str, list[Cluster]]):
        """``per_site`` maps each site, in feature order, to its cluster
        per node-count option."""
        names = [f"nodes_{site}" for site in per_site]
        self.columns = {name: j for j, name in enumerate(names)}
        self.combos = tuple(
            (
                MappingProxyType(dict(zip(per_site, clusters))),
                tuple(
                    (name, float(cluster.node_count))
                    for name, cluster in zip(names, clusters)
                ),
            )
            for clusters in itertools.product(*per_site.values())
        )
        values = np.array(
            [[value for _name, value in pairs] for _clusters, pairs in self.combos],
            dtype=float,
        ).reshape(len(self.combos), len(names))
        values.flags.writeable = False
        self.values = values

    def __len__(self) -> int:
        return len(self.combos)


class QepSpace(Sequence[QepCandidate]):
    """The QEP space of one query instance, built on demand.

    ``options`` holds one ``(placement, feature prefix)`` pair per
    admitted execution option; ``grid`` is the table set's
    :class:`NodeGrid`.  Row ``i`` is execution option ``i // len(grid)``
    at combo ``i % len(grid)``, the order of an eager nested loop.
    ``space[i]`` builds its candidate on first access and returns that
    same object every time after; a slice is a list.
    """

    __slots__ = ("query_key", "options", "grid", "_built")

    def __init__(self, query_key: str, options, grid: NodeGrid):
        self.query_key = query_key
        self.options = tuple(options)
        self.grid = grid
        self._built: dict[int, QepCandidate] = {}

    def __len__(self) -> int:
        return len(self.options) * len(self.grid)

    def __getitem__(self, index):
        # A built row costs one dict lookup: a Pareto search reads its
        # front's rows on every request.
        if type(index) is int:
            candidate = self._built.get(index)
            if candidate is not None:
                return candidate
        elif isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        size = len(self)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError(f"QEP space index {index} out of range for {size} candidates")
        candidate = self._built.get(i)
        if candidate is None:
            option, combo = divmod(i, len(self.grid))
            placement, prefix = self.options[option]
            # setdefault: two threads racing on one row get one object.
            candidate = self._built.setdefault(
                i,
                QepCandidate._on_demand(
                    self.query_key, placement, prefix, self.grid.combos[combo]
                ),
            )
        return candidate

    def built_features(self):
        """``(index, features)`` of every candidate whose ``features``
        dict exists: those rows must be read from the dict, which a
        caller may have changed."""
        return [
            (i, candidate._features)
            for i, candidate in list(self._built.items())
            if candidate._features is not None
        ]

    def __repr__(self) -> str:
        return f"QepSpace({self.query_key!r}, {len(self)} candidates)"


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
    ) -> QepSpace:
        """The QEP space of one query instance, as a :class:`QepSpace`.

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
        grid, executions, indicator_options = self._skeleton(tables)
        if constraint is not None:
            executions = [e for e in executions if constraint.permits(e.site)]
        sizes = None
        options = []
        for execution in executions:
            placement = self._placement(execution)
            # The entry holds plan and stats, so a recycled id() never
            # matches it.
            key = (id(plan), id(stats), tables, execution)
            cached = self._prefixes.get(key)
            if cached is not None and cached[0] is plan and cached[1] is stats:
                options.append((placement, cached[2]))
                continue
            if sizes is None:
                sizes = self._sizes(plan, stats, tables, placement)
                # Only a stats object seen before is cached: per-call
                # statistics (the sampled inputs of profiling runs) never
                # repeat, and caching them would pin tens of KB of
                # statistics per entry.
                cacheable = self._stats_seen.get(id(stats)) is stats
                if not cacheable:
                    self._stats_seen.put(id(stats), stats)
            prefix = dict(sizes)
            for indicator in indicator_options:
                flag = 1.0 if indicator == execution else 0.0
                prefix[f"exec_{indicator.engine}_{indicator.site}"] = flag
            if cacheable:
                self._prefixes.put(key, (plan, stats, prefix))
            options.append((placement, prefix))
        return QepSpace(query_key, options, grid)

    def _skeleton(self, tables: tuple[str, ...]):
        """The parameter-independent part of a query's QEP space: the
        :class:`NodeGrid`, the execution options and the k-1 indicator
        options.  Built once per table set, so every space over it shares
        its clusters, key strings and node-count floats."""
        skeleton = self._skeletons.get(tables)
        if skeleton is None:
            provision = self.federation.provision
            per_site = {}
            for site in self._sites(tables):
                options = self.node_options.get(site)
                require(options is not None and len(options) > 0,
                        f"no node options for site {site!r}")
                instance = self.instance_types[site]
                per_site[site] = [provision(site, instance, count) for count in options]
            skeleton = self._skeletons[tables] = (
                NodeGrid(per_site),
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

    @staticmethod
    def _sizes(
        plan: LogicalPlan,
        stats: dict[str, TableStats],
        tables: tuple[str, ...],
        placement: Placement,
    ) -> dict[str, float]:
        """The size features of one query instance, from one
        ``profile_plan``.  Sizes depend on neither node counts nor the
        placement (it only labels operators and transfers), so any
        execution option's placement gives every option's sizes."""
        profile = profile_plan(plan, stats, placement)
        return {
            f"size_{table.lower()}_mib": bytes_to_mib(
                profile.effective_table_bytes.get(table.lower(), 0.0)
            )
            for table in tables
        }
