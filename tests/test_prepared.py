"""Prepared queries and the cached enumeration skeleton, against oracles.

The Interface keeps the plan of each distinct rendered SQL and builds a
new parameter set's plan by literal substitution into its template
text's shape, the enumerator keeps one placement per execution option
and the size + indicator feature prefix per (plan, stats, tables,
execution), and ``CloudFederation.provision`` is memoized.  These suites
pin that every cached result equals what a fresh parse / a direct build
returns:

* every MIDAS and TPC-H template, over MIDAS's whole 346-string domain,
  sampled parameters and hypothesis-drawn adversarial values: the
  ``receive()`` plan and tables equal a fresh ``optimize(plan_sql(...))``
  (with literal types), or both paths raise the same error type;
* a repeated SQL returns the identical plan object, and templates that
  share a text share one shape;
* cached ``enumerate()`` equals a space built directly from
  ``profile_plan`` and ``Cluster`` (default stats, a ``stats=``
  override, a ``PlanConstraint`` and ``fixed_execution``);
* every cache evicts at its bound;
* a caller mutating a returned candidate cannot corrupt the cache;
* the on-demand ``QepSpace`` indexes, slices and iterates exactly like
  the eager reference list, returns one object per row and never shares
  a built ``features`` or ``clusters`` dict, and ``provision`` runs only
  while a skeleton is built;
* ``gateway.observe`` parses an already-seen SQL zero times, a new
  parameter set of a shaped template zero times and a new SQL of a
  template without a shape once.
"""

from __future__ import annotations

import itertools
import sys
import threading
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.tpch.queries import EXTENDED_QUERIES, QueryTemplate
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


def sampled_params(template, count=SAMPLES):
    rng = RngStream(29, template.key)
    return [template.sample_params(rng) for _ in range(count)]


def received_plans(env, template, count=1):
    """Plans of ``count`` sampled parameter sets through one Interface."""
    interface = env.interface()
    return [interface.receive(template, p).plan for p in sampled_params(template, count)]


def adhoc(sql, generator=lambda rng: {}):
    """A template around one SQL text (parameterless by default)."""
    return QueryTemplate("adhoc", "ad hoc", ("none", "none"), sql, generator)


def reference_prefix(plan, stats, tables, placement, indicators):
    """One execution option's size + indicator features, from that
    option's own ``profile_plan``."""
    profile = profile_plan(plan, stats, placement)
    prefix = {
        f"size_{table}_mib": bytes_to_mib(profile.effective_table_bytes.get(table, 0.0))
        for table in tables
    }
    for indicator in indicators:
        prefix[f"exec_{indicator.engine}_{indicator.site}"] = float(
            indicator == placement.execution
        )
    return prefix


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
        prefix = reference_prefix(plan, stats, tables, placement, indicators)
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


def typed(value):
    """``value`` with the type of every node and leaf spelled out, so
    that ``Literal(1)``, ``Literal(1.0)`` and ``Literal(True)`` differ."""
    if is_dataclass(value):
        return type(value), tuple(typed(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, tuple):
        return tuple, tuple(typed(item) for item in value)
    return type(value), value


def fresh(env, template, params):
    """``optimize(plan_sql(render(params)))`` and its table tuple."""
    plan = optimize(plan_sql(template.render(params), env.catalog))
    tables = tuple(
        sorted({n.table_name.lower() for n in plan.walk() if isinstance(n, Scan)})
    )
    return plan, tables


def outcome(call):
    """A call's result, or the type of the error it raised."""
    try:
        return call()
    except Exception as error:  # the error's type is the outcome compared
        return type(error)


def assert_receives_like_a_fresh_parse(env, interface, template, params):
    got = outcome(lambda: interface.receive(template, params))
    want = outcome(lambda: fresh(env, template, params))
    if isinstance(want, type) or isinstance(got, type):
        assert got == want, (template.key, params)
    else:
        assert typed(got.plan) == typed(want[0]), (template.key, params)
        assert got.tables == want[1]


#: MIDAS's whole parameter domain, read off ``repro/midas/queries.py``.
MIDAS_DOMAIN = {
    "medical-demographics": [{"min_age": age} for age in range(60)],
    "medical-severe-cases": [
        {"severity": severity, "min_age": age}
        for severity in range(2, 6)
        for age in range(70)
    ],
    "medical-lab-followup": [
        {"testname": name}
        for name in ("hemoglobin", "glucose", "creatinine", "sodium", "potassium", "crp")
    ],
}


def test_every_midas_string_is_substituted_exactly_as_parsed(environments, monkeypatch):
    env = environments["midas"]
    interface = env.interface()
    for template in MEDICAL_QUERIES.values():
        assert interface.shape(template) is not None
    parses = count_calls(monkeypatch, interface_module, "plan_sql")
    statements = set()
    for key, domain in MIDAS_DOMAIN.items():
        template = MEDICAL_QUERIES[key]
        for params in domain:
            statements.add(template.render(params))
            assert_receives_like_a_fresh_parse(env, interface, template, params)
    assert len(statements) == 346
    assert parses["n"] == 0


def test_only_templates_whose_renders_differ_in_literals_get_a_shape(environments):
    shaped = {
        template.key
        for family, template in TEMPLATES
        if environments[family].interface().shape(template) is not None
    }
    assert shaped == set(MEDICAL_QUERIES) | {"q17"}


#: Texts over MIDAS tables whose renders differ in more than literals,
#: with values for ``{n}``: the generator draws the first two, and every
#: one is received.
UNSHAPED_TEXTS = {
    # The parameter is a literal and also a LIMIT count, which is none.
    "literal-and-limit": (
        "select p.uid from patient p where p.patientage >= {n} limit {n}", [3, 17, 40]
    ),
    # The parameter appears in no literal at all.
    "limit-only": ("select p.uid from patient p limit {n}", [3, 17, 40]),
    # The literal holds the parameter's value with another type.
    "int-as-float": ("select p.uid from patient p where p.patientage >= {n}.0", [3, 17, 40]),
    # The parameter sits in a comment, which a newline ends.
    "in-a-comment": (
        "select p.uid from patient p -- {n}\nwhere p.patientage >= 30",
        ["a", "b", "c\nlimit 2"],
    ),
}


@pytest.mark.parametrize("text,values", UNSHAPED_TEXTS.values(), ids=UNSHAPED_TEXTS.keys())
def test_texts_whose_renders_differ_beyond_literals_stay_on_the_sql_path(
    environments, text, values
):
    env = environments["midas"]
    interface = env.interface()
    template = adhoc(text, lambda rng: {"n": values[int(rng.integers(0, 2))]})
    assert interface.shape(template) is None
    for value in values:
        assert_receives_like_a_fresh_parse(env, interface, template, {"n": value})


def test_sentinel_sets_have_distinct_values_that_all_change(environments):
    """A draw with two equal values cannot tell their literals apart,
    and a value repeated across the sets shows no slot: both are
    skipped, not taken as sentinels."""
    draws = iter([{"a": 5, "b": 5}, {"a": 5, "b": 6}, {"a": 5, "b": 7}, {"a": 7, "b": 8}])
    template = adhoc(
        "select p.uid from patient p where p.patientage >= {a} and p.uid > {b}",
        lambda rng: next(draws),
    )
    shape = environments["midas"].interface().shape(template)
    assert shape is not None and shape.kinds == {"a": int, "b": int}


#: Values no generator draws: negative, huge, bool, float, non-finite,
#: empty and quoted.
ADVERSARIAL = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=0, max_value=1e6),
    st.text(max_size=8),
    st.sampled_from(["", "'", "a'b", "O''Brien", "30", "-1", "x' or '1'='1"]),
)


@pytest.mark.parametrize("family,template", TEMPLATES, ids=lambda v: getattr(v, "key", v))
@settings(max_examples=60)
@given(data=st.data())
def test_receive_equals_a_fresh_parse_or_raises_alike(environments, family, template, data):
    env = environments[family]
    interface = env.interface()
    draws = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    for seed in draws:
        params = template.sample_params(RngStream(seed, template.key))
        for name in sorted(params):
            if data.draw(st.booleans()):
                params[name] = data.draw(ADVERSARIAL)
        assert_receives_like_a_fresh_parse(env, interface, template, params)


@pytest.mark.parametrize("family,template", TEMPLATES, ids=lambda v: getattr(v, "key", v))
def test_cached_plan_equals_a_fresh_parse(environments, family, template):
    env = environments[family]
    interface = env.interface()
    policy = UserPolicy(weights=(0.9, 0.1))
    for params in sampled_params(template):
        first = interface.receive(template, params)
        again = interface.receive(template, dict(params), policy)
        plan, tables = fresh(env, template, params)
        assert typed(first.plan) == typed(plan)
        assert again.plan is first.plan
        assert again.tables == first.tables == tables
        assert again.policy is policy and first.policy == UserPolicy()


def test_clones_of_one_text_share_one_shape(environments, monkeypatch):
    env = environments["midas"]
    interface = env.interface()
    base = MEDICAL_QUERIES["medical-severe-cases"]
    clones = [replace(base, key=f"tenant-{i:03d}") for i in range(5)]
    parses = count_calls(monkeypatch, interface_module, "plan_sql")
    shapes = {id(interface.shape(clone)) for clone in clones}
    assert len(shapes) == 1 and len(interface.shapes) == 1
    assert parses["n"] == 2  # the two sentinel renders, once per text
    for age, clone in enumerate(clones):
        params = {"severity": 3, "min_age": age}
        assert_receives_like_a_fresh_parse(env, interface, clone, params)
    assert parses["n"] == 2  # every clone's new SQL was substituted


def test_parse_errors_are_never_cached(environments):
    interface = environments["midas"].interface()
    template = MEDICAL_QUERIES["medical-demographics"]
    nowhere = adhoc(
        "select nothing from nowhere where id = {id}",
        lambda rng: {"id": int(rng.integers(0, 100))},
    )
    for _ in range(2):
        with pytest.raises(ReproError):
            interface.receive(adhoc("select nothing from nowhere"), {})
        with pytest.raises(ReproError):
            interface.receive(nowhere, {"id": 7})
        with pytest.raises(ReproError):
            interface.receive(template, {"min_age": "30 +"})
        with pytest.raises(KeyError):
            interface.receive(template, {})
    assert len(interface.prepared) == 0
    assert interface.shapes[nowhere.template] is None  # sentinels failed to plan


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
    ages = range(PREPARED_CAPACITY + 5)
    plans = [interface.receive(template, {"min_age": age}).plan for age in ages]
    assert len(interface.prepared) == PREPARED_CAPACITY
    builds = count_calls(monkeypatch, interface_module.PlanShape, "bind")
    assert interface.receive(template, {"min_age": ages[-1]}).plan is plans[-1]
    assert builds["n"] == 0
    again = interface.receive(template, {"min_age": 0}).plan  # evicted: rebuilt
    assert builds["n"] == 1
    assert again == plans[0] and again is not plans[0]


# Enumeration skeleton --------------------------------------------------------


@pytest.mark.parametrize("family,template", TEMPLATES, ids=lambda v: getattr(v, "key", v))
def test_cached_enumeration_equals_a_direct_build(environments, family, template):
    env = environments[family]
    interface = env.interface()
    enumerator = env.fresh_enumerator()
    tables = template.tables
    for params in sampled_params(template, 3):
        plan = interface.receive(template, params).plan
        want = reference_space(enumerator, template.key, plan, env.stats, tables)
        # First sight of the stats object, then cached, then a hit.
        for _ in range(3):
            got = enumerator.enumerate(template.key, plan, env.stats, tables)
            assert_same_space(got, want)


@pytest.mark.parametrize("family,template", TEMPLATES, ids=lambda v: getattr(v, "key", v))
def test_one_profile_serves_every_execution_option(environments, family, template):
    """Table sizes do not depend on the placement: ``effective_table_bytes``
    is repr-equal across every execution option, and the prefixes of an
    enumeration that profiles once are byte-equal to per-option ones."""
    env = environments[family]
    enumerator = env.fresh_enumerator()
    tables = template.tables
    executions = env.deployment.execution_options(tables)
    placements = [env.deployment.placement_for(e) for e in executions]
    indicators = sorted(executions, key=lambda p: (p.engine, p.site))[1:]
    assert len(placements) > 1
    for plan in received_plans(env, template, SAMPLES):
        sizes = {
            repr(profile_plan(plan, env.stats, placement).effective_table_bytes)
            for placement in placements
        }
        assert len(sizes) == 1, sizes
        space = enumerator.enumerate(template.key, plan, env.stats, tables)
        assert [placement for placement, _prefix in space.options] == placements
        assert [repr(list(prefix.items())) for _placement, prefix in space.options] == [
            repr(list(reference_prefix(plan, env.stats, tables, p, indicators).items()))
            for p in placements
        ]


@pytest.mark.parametrize("family,template", TEMPLATES, ids=lambda v: getattr(v, "key", v))
def test_stats_override_is_never_served_the_default_prefix(
    environments, family, template
):
    env = environments[family]
    enumerator = env.fresh_enumerator()
    (plan,) = received_plans(env, template)
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
    (plan,) = received_plans(env, template)
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
    (plan,) = received_plans(env, template)
    want = reference_space(enumerator, template.key, plan, env.stats, template.tables)
    for _ in range(3):
        got = enumerator.enumerate(template.key, plan, env.stats, template.tables)
        assert_same_space(got, want)
    assert not any(name.startswith("exec_") for name in want[0].features)


def test_mutating_a_candidate_leaves_the_next_enumeration_unchanged(environments):
    env = environments["tpch"]
    template = EXTENDED_QUERIES["q12"]
    enumerator = env.fresh_enumerator()
    (plan,) = received_plans(env, template)
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
    (plan,) = received_plans(env, template)
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
    (plan,) = received_plans(env, template)
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
    first, second = received_plans(env, template, 2)
    profiles = count_calls(monkeypatch, enumerator_module, "profile_plan")

    def enumerate_(plan):
        before = profiles["n"]
        enumerator.enumerate(template.key, plan, env.stats, template.tables)
        return profiles["n"] - before

    assert first is not second
    # One profile per enumeration, for both execution options; a stats
    # object is cached from its second sighting on.
    assert enumerate_(first) == 1
    assert enumerate_(first) == 1
    assert enumerate_(first) == 0
    assert enumerate_(second) == 1  # evicts the first plan's entries
    assert enumerate_(second) == 0
    assert enumerate_(first) == 1


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
        for params in sampled_params(template, 3):
            plan, _tables = fresh(env, template, params)
            want = reference_space(
                enumerator, template.key, plan, env.stats, template.tables
            )
            jobs.append((template, params, [(c.describe(), c.features) for c in want]))
    failures = []

    def worker(offset):
        for index in range(40):
            template, params, want = jobs[(index + offset) % len(jobs)]
            try:
                plan = interface.receive(template, params).plan
                got = enumerator.enumerate(
                    template.key, plan, env.stats, template.tables
                )
            except Exception as error:  # recorded: a worker must not die silently
                failures.append((template.key, repr(error)))
                continue
            if [(c.describe(), c.features) for c in got] != want:
                failures.append((template.key, params))

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


def test_gateway_observe_parses_only_new_sql_of_a_template_without_a_shape(monkeypatch):
    gateway = MidasSystem(patient_count=120, seed=3).gateway
    key = "medical-demographics"
    parses = count_calls(monkeypatch, interface_module, "plan_sql")

    def parses_of(request, **kwargs):
        before = parses["n"]
        gateway.observe(request, **kwargs)
        return parses["n"] - before

    # The text's first arrival plans its two sentinel renders once.
    assert parses_of(ObserveRequest(key, {"min_age": 30})) == 2
    assert parses_of(ObserveRequest(key, {"min_age": 30})) == 0
    candidate = gateway.candidates(key, {"min_age": 31})[0]
    assert parses_of(ObserveRequest(key, {"min_age": 31}), candidate=candidate) == 0
    before = parses["n"]
    candidate = gateway.candidates(key, {"min_age": 40})[3]
    assert parses["n"] == before
    assert parses_of(ObserveRequest(key, {"min_age": 40}), candidate=candidate) == 0
    assert parses_of(ObserveRequest(key, {"min_age": 41}), candidate=candidate) == 0
    gateway.close()

    # TPC-H q3 builds dates from its parameters: its two sentinel renders
    # find no shape, so every new SQL parses once and a seen one never.
    gateway = TpchFederationWorkload(TpchFederationConfig()).gateway(queries=())
    gateway.register_template(EXTENDED_QUERIES["q3"])
    params = [{"segment": "BUILDING", "date": f"1995-03-{day:02d}"} for day in (3, 4)]
    for request, new in ((params[0], 2 + 1), (params[0], 0), (params[1], 1)):
        assert parses_of(ObserveRequest("q3", request)) == new
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
