"""One request pipeline: every entry point runs the gateway's one sequence
of engine-room stage functions.

* Routing — ``submit``, ``observe``, ``candidates``, pinned sessions,
  ``submit_many`` and the batched front door each run
  ``FederationGateway._run`` once per request and call the platform's
  stage functions (``receive``, ``enumerate``, ``plan``, ``execute``)
  exactly as often as the request needs; every QEP enumeration goes
  through the one ``enumerate`` stage, and every Pareto search through
  ``plan`` (a pinned session searches once per query instance and
  metrics tuple).
* Hooks — a denied request stops at the governance stage (nothing
  parsed, enumerated or ticked), and a request that fails after its tick
  was assigned journals that tick, observations included, so a
  recovered gateway's counter matches the live one's.
"""

from collections import Counter

import pytest

from repro.common.rng import RngStream
from repro.federation import (
    BatchObserveRequest,
    DataPolicy,
    DurabilityConfig,
    EnvelopeError,
    FederationConfig,
    FederationGateway,
    GovernanceConfig,
    ObserveRequest,
    PolicyViolationError,
    Principal,
    SubmitRequest,
)
from repro.ires.enumerator import QepEnumerator
from repro.ires.optimizer import MultiObjectiveOptimizer
from repro.ires.platform import IReSPlatform
from repro.midas import MEDICAL_QUERIES, MidasSystem

KEY = "medical-demographics"
STAGES = ("receive", "enumerate", "plan", "execute")


@pytest.fixture
def calls(monkeypatch):
    """Counts of pipeline runs, stage calls and raw enumerator and
    Pareto-search calls."""
    counts = Counter()

    def count(owner, name, label):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(FederationGateway, "_run", "run")
    for stage in STAGES:
        count(IReSPlatform, stage, stage)
    count(QepEnumerator, "enumerate", "enumerator")
    count(MultiObjectiveOptimizer, "pareto_search", "pareto")
    return counts


@pytest.fixture
def gateway():
    gateway = MidasSystem(patient_count=120, seed=3).gateway
    for age in range(20, 32):
        gateway.observe(ObserveRequest(KEY, {"min_age": age}))
    yield gateway
    gateway.close()


def submit(age):
    return SubmitRequest(KEY, {"min_age": age})


def observe(age):
    return ObserveRequest(KEY, {"min_age": age})


def _session_sweep(gateway):
    with gateway.session(KEY) as session:
        session.submit_many([submit(40), submit(41), submit(40)], execute=False)


def _front_door(gateway):
    gateway.ingest(observe(40))
    gateway.ingest(BatchObserveRequest(KEY, (observe(41), observe(42))))
    gateway.ingest(submit(43))
    assert gateway.drain().failed == 0


ENTRY_POINTS = {
    "submit": (
        lambda gateway: gateway.submit(submit(40)),
        dict(run=1, receive=1, enumerate=1, plan=1, execute=1),
    ),
    "observe": (
        lambda gateway: gateway.observe(observe(40)),
        dict(run=1, receive=1, enumerate=1, execute=1),
    ),
    "candidates": (
        lambda gateway: gateway.candidates(KEY, {"min_age": 40}),
        dict(receive=1, enumerate=1),
    ),
    # A repeated query instance is a session cache hit: no enumeration
    # and no Pareto search.
    "session": (
        _session_sweep, dict(run=3, receive=3, enumerate=2, plan=3, pareto=2)
    ),
    "submit_many": (
        lambda gateway: gateway.submit_many([submit(40), submit(40)]),
        dict(run=2, receive=2, enumerate=1, plan=2, pareto=1, execute=2),
    ),
    "front door": (
        _front_door,
        dict(run=4, receive=4, enumerate=4, plan=1, execute=4),
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_runs_the_one_pipeline(entry, gateway, calls):
    action, expected = ENTRY_POINTS[entry]
    calls.clear()
    action(gateway)
    counts = dict(calls)
    expected = dict(expected)
    assert counts.pop("enumerator", 0) == expected.get("enumerate", 0)
    assert counts.pop("pareto", 0) == expected.pop("pareto", expected.get("plan", 0))
    assert counts == expected


def test_an_explicit_candidate_skips_enumeration(gateway, calls):
    candidate = gateway.candidates(KEY, {"min_age": 40})[5]
    calls.clear()
    report = gateway.observe(observe(40), candidate=candidate)
    assert report.candidate is candidate
    assert dict(calls) == dict(run=1, receive=1, execute=1)


def test_a_denied_request_stops_at_the_governance_stage(calls):
    config = FederationConfig(
        governance=GovernanceConfig(
            policies=(DataPolicy("*", "cloud-b", "deny", roles=("researcher",)),)
        )
    )
    gateway = MidasSystem(patient_count=120, seed=3, config=config).gateway
    researcher = Principal("lab-ext-7", "researcher", "cloud-b", purpose="research")
    key = "medical-severe-cases"  # reads labresult, stored at cloud-b
    params = MEDICAL_QUERIES[key].sample_params(RngStream(3, "pipeline"))
    tick = gateway.next_tick()
    calls.clear()
    with pytest.raises(PolicyViolationError):
        gateway.observe(ObserveRequest(key, params, principal=researcher))
    with pytest.raises(PolicyViolationError):
        gateway.submit(SubmitRequest(key, params, principal=researcher))
    assert dict(calls) == {"run": 2}
    assert gateway.next_tick() == tick + 1
    assert gateway.audit_report(limit=0).denials == 2
    gateway.close()


def test_a_failed_observation_journals_its_tick(tmp_path):
    config = FederationConfig(durability=DurabilityConfig(dir=tmp_path, fsync="off"))
    live = MidasSystem(patient_count=120, seed=3, config=config).gateway
    for age in (30, 31, 32):
        live.observe(observe(age))
    with pytest.raises(EnvelopeError, match="out of range"):
        live.observe(ObserveRequest(KEY, {"min_age": 33}, candidate_index=10_000))
    live_tick = live.next_tick()
    assert live_tick == 4  # the failed observation consumed tick 3
    live.close()
    recovered = MidasSystem(patient_count=120, seed=3, config=config).gateway
    assert recovered.recover().rows == 3
    assert recovered.next_tick() == live_tick
    recovered.close()
