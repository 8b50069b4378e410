"""Prepared queries and the cached enumeration skeleton, against oracles.

The Interface keeps the plan of each distinct rendered SQL, the
enumerator keeps one placement per execution option and the size +
indicator feature prefix per (plan, stats, tables, execution), and
``CloudFederation.provision`` is memoized.  These suites pin that every
cached result equals what a fresh parse / a direct build returns:

* every MIDAS and TPC-H template, with sampled parameters: the cached
  ``receive()`` plan equals a fresh ``optimize(plan_sql(...))``;
* cached ``enumerate()`` equals a space built directly from
  ``profile_plan`` and ``Cluster`` (default stats, a ``stats=``
  override, a ``PlanConstraint`` and ``fixed_execution``);
* every cache evicts at its bound;
* a caller mutating a returned candidate cannot corrupt the cache;
* the on-demand ``QepSpace`` indexes, slices and iterates exactly like
  the eager reference list, returns one object per row and never shares
  a built ``features`` or ``clusters`` dict, and ``provision`` runs only
  while a skeleton is built;
* ``gateway.observe`` parses an already-seen SQL zero times and a new
  one once.
"""

from __future__ import annotations

import itertools
import sys
import threading

import pytest

import repro.federation.session as session_module
import repro.ires.enumerator as enumerator_module
import repro.ires.interface as interface_module
from repro.cloud.instances import find_instance
from repro.cloud.vm import Cluster
from repro.common.errors import CloudError, ReproError
from repro.common.lru import LruCache
from repro.common.rng import RngStream
from repro.common.units import bytes_to_mib
from repro.federation import ObserveRequest, SubmitRequest
from repro.governance.policy import PlanConstraint
from repro.ires.enumerator import QepCandidate, QepEnumerator
from repro.ires.interface import PREPARED_CAPACITY, Interface
from repro.ires.policy import UserPolicy
from repro.midas import MEDICAL_QUERIES, MidasSystem
from repro.plans.binder import plan_sql
from repro.plans.logical import Scan
from repro.plans.optimizer import optimize
from repro.plans.physical import profile_plan
from repro.tpch.queries import EXTENDED_QUERIES
from repro.workloads.tpch_runner import TpchFederationConfig, TpchFederationWorkload

SAMPLES = 6
TEMPLATES = [("midas", t) for t in MEDICAL_QUERIES.values()] + [
    ("tpch", t) for t in EXTENDED_QUERIES.values()
]


class Environment:
    """Catalog, deployment, statistics and enumerator of one federation."""

    def __init__(self, catalog, deployment, stats, enumerator):
        self.catalog = catalog
        self.deployment = deployment
        self.stats = stats
        self.enumerator = enumerator

    def interface(self) -> Interface:
        return Interface(self.catalog, self.deployment)

    def fresh_enumerator(self, **overrides) -> QepEnumerator:
        base = self.enumerator
        options = dict(
            federation=base.federation,
            deployment=base.deployment,
            instance_types=base.instance_types,
            node_options=base.node_options,
            fixed_execution=base.fixed_execution,
        )
        options.update(overrides)
        return QepEnumerator(**options)


@pytest.fixture(scope="module")
def environments():
    midas = MidasSystem(patient_count=120, seed=3)
    engine = midas.gateway.engine
    tpch = TpchFederationWorkload(TpchFederationConfig(fixed_execution=None))
    return {
        "midas": Environment(
            engine.catalog, engine.deployment, engine.stats, engine.enumerator
        ),
        "tpch": Environment(
            tpch.dataset.catalog,
            tpch.deployment,
            tpch.dataset.logical_stats,
            tpch.enumerator,
        ),
    }


def sampled_sql(template, count=SAMPLES):
    rng = RngStream(29, template.key)
    return [template.render(template.sample_params(rng)) for _ in range(count)]


def reference_space(enumerator, key, plan, stats, tables, constraint=None):
    """The QEP space built directly from ``profile_plan`` and ``Cluster``,
    with no cache anywhere."""
    federation = enumerator.federation
    deployment = enumerator.deployment
    sites = sorted({deployment.site_of(table).lower() for table in tables})
    if enumerator.fixed_execution is not None:
        executions = [enumerator.fixed_execution]
    else:
        executions = deployment.execution_options(tables)
    indicators = sorted(executions, key=lambda p: (p.engine, p.site))[1:]
    if constraint is not None:
        executions = [e for e in executions if constraint.permits(e.site)]
    per_site = [[(site, n) for n in enumerator.node_options[site]] for site in sites]
    space = []
    for execution in executions:
        placement = deployment.placement_for(execution)
        profile = profile_plan(plan, stats, placement)
        prefix = {
            f"size_{table}_mib": bytes_to_mib(
                profile.effective_table_bytes.get(table, 0.0)
            )
            for table in tables
        }
        for indicator in indicators:
            prefix[f"exec_{indicator.engine}_{indicator.site}"] = float(
                indicator == execution
            )
        for combo in itertools.product(*per_site):
            clusters = {}
            for site, count in combo:
                cloud = federation.site(site)
                instance = find_instance(cloud.provider, enumerator.instance_types[site])
                clusters[site] = Cluster(cloud.name, instance, count)
            features = dict(prefix)
            features.update((f"nodes_{site}", float(count)) for site, count in combo)
            space.append(QepCandidate(key, placement, clusters, features))
    return space


def assert_same_space(got, want):
    assert [c.describe() for c in got] == [c.describe() for c in want]
    for mine, theirs in zip(got, want):
        # Insertion order too: the feature layout is positional downstream.
        assert list(mine.features.items()) == list(theirs.features.items())
        assert mine.clusters == theirs.clusters
        assert mine.placement == theirs.placement


# Prepared statements ---------------------------------------------------------


@pytest.mark.parametrize("family,template", TEMPLATES, ids=lambda v: getattr(v, "key", v))
def test_cached_plan_equals_a_fresh_parse(environments, family, template):
    env = environments[family]
    interface = env.interface()
    policy = UserPolicy(weights=(0.9, 0.1))
    for sql in sampled_sql(template):
        first = interface.receive(sql)
        again = interface.receive(sql, policy)
        fresh = optimize(plan_sql(sql, env.catalog))
        assert first.plan == fresh
        assert again.plan is first.plan
        assert again.tables == first.tables == tuple(
            sorted({n.table_name.lower() for n in fresh.walk() if isinstance(n, Scan)})
        )
        assert again.policy is policy and first.policy == UserPolicy()


def test_parse_errors_are_never_cached(environments):
    interface = environments["midas"].interface()
    for _ in range(2):
        with pytest.raises(ReproError):
            interface.receive("select nothing from nowhere")
    assert interface.prepared.cache_info().currsize == 0


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` with a call counter; returns the counter."""
    calls = {"n": 0}
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_prepared_cache_evicts_least_recently_used_at_its_bound(
    environments, monkeypatch
):
    interface = environments["midas"].interface()
    template = MEDICAL_QUERIES["medical-demographics"]
    statements = [
        template.render({"min_age": age}) for age in range(PREPARED_CAPACITY + 5)
    ]
    for sql in statements:
        interface.receive(sql)
    assert interface.prepared.cache_info().currsize == PREPARED_CAPACITY
    parses = count_calls(monkeypatch, interface_module, "plan_sql")
    interface.receive(statements[-1])
    assert parses["n"] == 0
    interface.receive(statements[0])  # evicted: parsed again
    assert parses["n"] == 1


# Enumeration skeleton --------------------------------------------------------


@pytest.mark.parametrize("family,template", TEMPLATES, ids=lambda v: getattr(v, "key", v))
def test_cached_enumeration_equals_a_direct_build(environments, family, template):
    env = environments[family]
    interface = env.interface()
    enumerator = env.fresh_enumerator()
    tables = template.tables
    for sql in sampled_sql(template, 3):
        plan = interface.receive(sql).plan
        want = reference_space(enumerator, template.key, plan, env.stats, tables)
        # First sight of the stats object, then cached, then a hit.
        for _ in range(3):
            got = enumerator.enumerate(template.key, plan, env.stats, tables)
            assert_same_space(got, want)


@pytest.mark.parametrize("family,template", TEMPLATES, ids=lambda v: getattr(v, "key", v))
def test_stats_override_is_never_served_the_default_prefix(
    environments, family, template
):
    env = environments[family]
    enumerator = env.fresh_enumerator()
    plan = env.interface().receive(sampled_sql(template, 1)[0]).plan
    tables = template.tables
    enumerator.enumerate(template.key, plan, env.stats, tables)
    enumerator.enumerate(template.key, plan, env.stats, tables)
    for fraction in (0.3, 0.6, 0.3):
        sampled = {name: s.sampled(fraction) for name, s in env.stats.items()}
        got = enumerator.enumerate(template.key, plan, sampled, tables)
        assert_same_space(
            got, reference_space(enumerator, template.key, plan, sampled, tables)
        )
    assert_same_space(
        enumerator.enumerate(template.key, plan, env.stats, tables),
        reference_space(enumerator, template.key, plan, env.stats, tables),
    )


@pytest.mark.parametrize("site", ["cloud-a", "cloud-b"])
@pytest.mark.parametrize("family,template", TEMPLATES, ids=lambda v: getattr(v, "key", v))
def test_constrained_enumeration_equals_a_direct_build(
    environments, family, template, site
):
    env = environments[family]
    enumerator = env.fresh_enumerator()
    plan = env.interface().receive(sampled_sql(template, 1)[0]).plan
    constraint = PlanConstraint(required_sites=frozenset({site}))
    want = reference_space(
        enumerator, template.key, plan, env.stats, template.tables, constraint
    )
    for constrained in (constraint, None, constraint):
        got = enumerator.enumerate(
            template.key, plan, env.stats, template.tables, constraint=constrained
        )
        if constrained is None:
            assert len(got) > len(want)
        else:
            assert_same_space(got, want)
    assert {c.execution.site for c in want} == {site}


@pytest.mark.parametrize("family,template", TEMPLATES, ids=lambda v: getattr(v, "key", v))
def test_fixed_execution_enumeration_equals_a_direct_build(
    environments, family, template
):
    env = environments[family]
    execution = env.deployment.execution_options(template.tables)[-1]
    enumerator = env.fresh_enumerator(fixed_execution=execution)
    plan = env.interface().receive(sampled_sql(template, 1)[0]).plan
    want = reference_space(enumerator, template.key, plan, env.stats, template.tables)
    for _ in range(3):
        got = enumerator.enumerate(template.key, plan, env.stats, template.tables)
        assert_same_space(got, want)
    assert not any(name.startswith("exec_") for name in want[0].features)


def test_mutating_a_candidate_leaves_the_next_enumeration_unchanged(environments):
    env = environments["tpch"]
    template = EXTENDED_QUERIES["q12"]
    enumerator = env.fresh_enumerator()
    plan = env.interface().receive(sampled_sql(template, 1)[0]).plan
    want = reference_space(enumerator, template.key, plan, env.stats, template.tables)
    for _ in range(3):
        got = enumerator.enumerate(template.key, plan, env.stats, template.tables)
        assert_same_space(got, want)
        for candidate in got:
            candidate.features["size_orders_mib"] = -1.0
            candidate.features["injected"] = 1.0
            candidate.clusters.clear()
        got[0].features.clear()


def assert_space_matches(got, want):
    """``got`` (an on-demand space) against the eager list ``want``:
    length, every index, slices, iteration order and the end."""
    size = len(want)
    assert len(got) == size
    assert_same_space(list(got), want)
    for index in range(-size, size):
        assert_same_space([got[index]], [want[index]])
        assert got[index] is got[index] is got[index % size]
    for window in (slice(None), slice(1, 5), slice(-3, None), slice(None, None, -7),
                   slice(5, 2), slice(2, size + 10, 5)):
        assert_same_space(got[window], want[window])
    for index in (size, -size - 1, size + 100):
        with pytest.raises(IndexError):
            got[index]


@pytest.mark.parametrize("drop_site", [False, True], ids=["unconstrained", "drop-site"])
@pytest.mark.parametrize("family,template", TEMPLATES, ids=lambda v: getattr(v, "key", v))
def test_on_demand_space_equals_the_eager_reference(
    environments, family, template, drop_site
):
    env = environments[family]
    enumerator = env.fresh_enumerator()
    plan = env.interface().receive(sampled_sql(template, 1)[0]).plan
    tables = template.tables
    constraint = None
    if drop_site:
        site = env.deployment.execution_options(tables)[-1].site
        constraint = PlanConstraint(excluded_sites=frozenset({site}))
    want = reference_space(enumerator, template.key, plan, env.stats, tables, constraint)
    if drop_site:
        full = reference_space(enumerator, template.key, plan, env.stats, tables)
        assert len(want) < len(full)
    first, second = (
        enumerator.enumerate(template.key, plan, env.stats, tables, constraint=constraint)
        for _ in range(2)
    )
    assert_space_matches(first, want)
    assert_space_matches(second, want)
    # Every built dict is private: across enumerations and within one.
    for mine, theirs in zip(first, second):
        assert mine is not theirs
        assert mine.features is not theirs.features
        assert mine.clusters is not theirs.clusters
    for space in (first, second):
        assert len({id(c.features) for c in space}) == len(space)
        assert len({id(c.clusters) for c in space}) == len(space)


def test_provision_runs_only_while_a_skeleton_is_built(environments, monkeypatch):
    env = environments["tpch"]
    template = EXTENDED_QUERIES["q12"]
    enumerator = env.fresh_enumerator()
    federation = enumerator.federation
    provisions = count_calls(monkeypatch, federation, "provision")
    plan = env.interface().receive(sampled_sql(template, 1)[0]).plan
    space = enumerator.enumerate(template.key, plan, env.stats, template.tables)
    sites = {env.deployment.site_of(table).lower() for table in template.tables}
    assert provisions["n"] == sum(len(enumerator.node_options[s]) for s in sites)
    before = provisions["n"]
    for _ in range(3):
        space = enumerator.enumerate(template.key, plan, env.stats, template.tables)
        [candidate.clusters for candidate in space]
    assert provisions["n"] == before


def test_prefix_cache_evicts_at_its_bound(environments, monkeypatch):
    env = environments["midas"]
    # Room for one plan's two execution options.
    monkeypatch.setattr(enumerator_module, "PREFIX_CAPACITY", 2)
    enumerator = env.fresh_enumerator()
    template = MEDICAL_QUERIES["medical-demographics"]
    interface = env.interface()
    first, second = (interface.receive(sql).plan for sql in sampled_sql(template, 2))
    profiles = count_calls(monkeypatch, enumerator_module, "profile_plan")

    def enumerate_(plan):
        before = profiles["n"]
        enumerator.enumerate(template.key, plan, env.stats, template.tables)
        return profiles["n"] - before

    assert first is not second
    # A stats object is cached from its second sighting on.
    assert enumerate_(first) == 2
    assert enumerate_(first) >= 1
    assert enumerate_(first) == 0
    assert enumerate_(second) == 2  # evicts the first plan's entries
    assert enumerate_(second) == 0
    assert enumerate_(first) == 2


def test_provision_is_memoized_and_never_caches_errors(environments):
    federation = environments["midas"].enumerator.federation
    cluster = federation.provision("cloud-a", "a1.xlarge", 3)
    assert federation.provision("cloud-a", "a1.xlarge", 3) is cluster
    assert cluster == Cluster(
        "cloud-a", find_instance(federation.site("cloud-a").provider, "a1.xlarge"), 3
    )
    for _ in range(2):
        with pytest.raises(CloudError):
            federation.provision("cloud-z", "a1.xlarge", 3)


def test_concurrent_receive_and_enumerate_through_tiny_caches_stay_exact(
    environments, monkeypatch
):
    """Eight threads share one Interface and one enumerator whose prefix
    cache holds a single plan, so entries are evicted and rebuilt under
    contention; every space must still equal its reference."""
    monkeypatch.setattr(enumerator_module, "PREFIX_CAPACITY", 2)
    env = environments["midas"]
    interface = env.interface()
    enumerator = env.fresh_enumerator()
    jobs = []
    for template in MEDICAL_QUERIES.values():
        for sql in sampled_sql(template, 3):
            plan = optimize(plan_sql(sql, env.catalog))
            want = reference_space(
                enumerator, template.key, plan, env.stats, template.tables
            )
            jobs.append((template, sql, [(c.describe(), c.features) for c in want]))
    failures = []

    def worker(offset):
        for index in range(40):
            template, sql, want = jobs[(index + offset) % len(jobs)]
            try:
                plan = interface.receive(sql).plan
                got = enumerator.enumerate(
                    template.key, plan, env.stats, template.tables
                )
            except Exception as error:  # recorded: a worker must not die silently
                failures.append((template.key, repr(error)))
                continue
            if [(c.describe(), c.features) for c in got] != want:
                failures.append((template.key, sql))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# The gateway path ------------------------------------------------------------


def test_gateway_observe_parses_a_new_sql_once_and_a_seen_one_never(monkeypatch):
    gateway = MidasSystem(patient_count=120, seed=3).gateway
    key = "medical-demographics"
    parses = count_calls(monkeypatch, interface_module, "plan_sql")

    def parses_of(request, **kwargs):
        before = parses["n"]
        gateway.observe(request, **kwargs)
        return parses["n"] - before

    assert parses_of(ObserveRequest(key, {"min_age": 30})) == 1
    assert parses_of(ObserveRequest(key, {"min_age": 30})) == 0
    candidate = gateway.candidates(key, {"min_age": 31})[0]
    assert parses_of(ObserveRequest(key, {"min_age": 31}), candidate=candidate) == 0
    before = parses["n"]
    candidate = gateway.candidates(key, {"min_age": 40})[3]
    assert parses["n"] - before == 1
    assert parses_of(ObserveRequest(key, {"min_age": 40}), candidate=candidate) == 0
    assert parses_of(ObserveRequest(key, {"min_age": 41}), candidate=candidate) == 1
    gateway.close()


def test_session_enumeration_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(session_module, "SESSION_ENUMERATIONS", 2)
    gateway = MidasSystem(patient_count=120, seed=3).gateway
    key = "medical-demographics"
    for age in range(12):
        gateway.observe(ObserveRequest(key, {"min_age": age}))
    requests = [SubmitRequest(key, {"min_age": age}) for age in (20, 21, 22)]
    with gateway.session(key) as session:
        assert session.submit_many(requests, execute=False).enumerations == 3
        # 21 and 22 are cached; 20 was evicted.
        assert session.submit_many(requests[1:], execute=False).enumerations == 0
        batch = session.submit_many(requests[:1], execute=False)
        assert batch.enumerations == 1
        direct = gateway.submit(SubmitRequest(key, {"min_age": 20}))
        assert batch.reports[0].chosen.describe() == direct.chosen.describe()
    gateway.close()


def test_lru_cache_keeps_the_most_recently_used_entries():
    cache = LruCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # "b" is now least recently used
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert len(cache) == 2 and cache.insertions == 3
    cache.clear()
    assert len(cache) == 0
