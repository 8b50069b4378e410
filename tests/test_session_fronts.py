"""Pinned sessions keep one Pareto search per query instance and metrics.

The Pareto set depends only on the QEP space, the model and the policy's
metrics.  A :class:`~repro.federation.session.GatewaySession` fixes the
model and caches each query instance's space, so its entry also keeps
the instance's Pareto search per metrics tuple, and a repeat request
runs Algorithm 2 alone.  These tests check that:

* a hit's report equals a fresh session's, field by field, for the
  exact search and for NSGA-II;
* a weight sweep over one instance runs one search;
* another metrics tuple, another constraint signature, a repin and an
  eviction each miss;
* reports share the front only as a tuple, never a mutable container.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.rng import RngStream
from repro.federation import FederationConfig, SubmissionReport, SubmitRequest
from repro.federation import session as session_module
from repro.governance import DataPolicy, GovernanceConfig, Principal
from repro.ires.optimizer import MultiObjectiveOptimizer, OptimizerConfig
from repro.ires.policy import UserPolicy
from repro.midas import MEDICAL_QUERIES, MidasSystem

KEY = "medical-severe-cases"  # patient@cloud-a + labresult@cloud-b
CLINICIAN = Principal("dr-adams", "clinician", "cloud-a")
WEIGHTS = (0.1, 0.3, 0.5, 0.7, 0.9)


def params(salt: str = "fronts") -> dict:
    return MEDICAL_QUERIES[KEY].sample_params(RngStream(3, salt))


def policy(weight: float = 0.5, metrics=("time", "money")) -> UserPolicy:
    return UserPolicy(metrics, (weight, 1.0 - weight))


def make_midas(**config) -> MidasSystem:
    midas = MidasSystem(
        patient_count=120, seed=3, config=FederationConfig(max_window=24, **config)
    )
    midas.warm_up(KEY, runs=12, principal=CLINICIAN)
    return midas


@pytest.fixture
def searches(monkeypatch):
    """Counts ``MultiObjectiveOptimizer.pareto_search`` calls."""
    calls = []
    original = MultiObjectiveOptimizer.pareto_search

    def spy(*args, **kwargs):
        calls.append(args[3] if len(args) > 3 else kwargs["metrics"])
        return original(*args, **kwargs)

    monkeypatch.setattr(MultiObjectiveOptimizer, "pareto_search", spy)
    return calls


@pytest.fixture
def midas():
    midas = make_midas()
    yield midas
    midas.gateway.close()


@pytest.mark.parametrize("algorithm", ["exact", "nsga2"])
def test_a_hit_reports_what_a_fresh_session_reports(algorithm, searches):
    midas = make_midas(optimizer_algorithm=algorithm)
    gateway = midas.gateway
    first = SubmitRequest(KEY, params(), policy(0.5), tick=100)
    again = SubmitRequest(KEY, params(), policy(0.9), tick=101)
    with gateway.session(KEY) as session:
        session.submit(first, execute=False)
        hit = session.submit(again, execute=False)
    assert len(searches) == 1
    with gateway.session(KEY) as session:
        fresh = session.submit(again, execute=False)
    assert len(searches) == 2
    gateway.close()

    assert hit.moqp_algorithm == algorithm
    assert hit.cost_model is fresh.cost_model
    for field in dataclasses.fields(SubmissionReport):
        assert getattr(hit, field.name) == getattr(fresh, field.name), field.name
    assert [
        (c.payload.describe(), repr(c.objectives)) for c in hit.pareto_set
    ] == [(c.payload.describe(), repr(c.objectives)) for c in fresh.pareto_set]
    assert repr(hit.predicted) == repr(fresh.predicted)


def test_a_weight_sweep_over_one_instance_searches_once(midas, searches):
    requests = [SubmitRequest(KEY, params(), policy(w)) for w in WEIGHTS]
    with midas.gateway.session(KEY) as session:
        batch = session.submit_many(requests, execute=False)
    assert len(searches) == 1
    assert batch.enumerations == 1
    fronts = {id(report.pareto_set) for report in batch.reports}
    assert len(fronts) == 1
    # The sweep still reaches Algorithm 2 per weight vector: the two
    # extremes pick different plans from the one front.
    chosen = [report.chosen.describe() for report in batch.reports]
    assert chosen[0] != chosen[-1]


def test_another_metrics_tuple_misses(midas, searches):
    with midas.gateway.session(KEY) as session:
        for metrics in (("time", "money"), ("money", "time"), ("time",)):
            for weight in (0.2, 0.8):
                if len(metrics) == 1:
                    request_policy = UserPolicy(metrics, (1.0,))
                else:
                    request_policy = policy(weight, metrics)
                session.submit(
                    SubmitRequest(KEY, params(), request_policy), execute=False
                )
    assert searches == [("time", "money"), ("money", "time"), ("time",)]


def test_another_constraint_signature_misses(searches):
    midas = make_midas(
        governance=GovernanceConfig(
            policies=(
                DataPolicy("patient", "cloud-a", "restricted", roles=("clinician",)),
            )
        )
    )
    with midas.gateway.session(KEY) as session:
        anonymous = session.submit(SubmitRequest(KEY, params()), execute=False)
        restricted = session.submit(
            SubmitRequest(KEY, params(), policy(0.8), principal=CLINICIAN),
            execute=False,
        )
        assert len(searches) == 2
        session.submit(
            SubmitRequest(KEY, params(), policy(0.2), principal=CLINICIAN),
            execute=False,
        )
        assert len(searches) == 2
    midas.gateway.close()
    assert {c.payload.execution.site for c in restricted.pareto_set} == {"cloud-a"}
    assert restricted.candidate_count < anonymous.candidate_count


def test_a_repin_misses(midas, searches):
    request = SubmitRequest(KEY, params(), policy())
    with midas.gateway.session(KEY) as session:
        session.submit(request, execute=False)
        session.submit(request, execute=False)
        assert len(searches) == 1
        session.repin()
        session.submit(request, execute=False)
        assert len(searches) == 2


def test_an_evicted_instance_misses(monkeypatch, midas, searches):
    monkeypatch.setattr(session_module, "SESSION_ENUMERATIONS", 2)
    requests = [SubmitRequest(KEY, params(salt), policy()) for salt in "abc"]
    assert len({tuple(sorted(r.params.items())) for r in requests}) == 3
    with midas.gateway.session(KEY) as session:
        session.submit_many(requests, execute=False)
        assert len(searches) == 3
        # b and c are cached; a was evicted.
        session.submit_many(requests[1:], execute=False)
        assert len(searches) == 3
        session.submit(requests[0], execute=False)
        assert len(searches) == 4


def test_a_closed_session_drops_its_fronts(midas):
    session = midas.gateway.session(KEY)
    session.submit(SubmitRequest(KEY, params(), policy()), execute=False)
    space, fronts = next(iter(session._enumerations._entries.values()))
    assert list(fronts) == [("time", "money")]
    session.close()
    assert len(session._enumerations) == 0


MUTABLE = (list, dict, set, bytearray)


def test_reports_share_no_mutable_container(midas):
    requests = [SubmitRequest(KEY, params(), policy(w)) for w in (0.2, 0.8)]
    with midas.gateway.session(KEY) as session:
        first, second = session.submit_many(requests, execute=False).reports
    assert isinstance(first.pareto_set, tuple)
    assert first.pareto_set is second.pareto_set  # one memoised front
    for a, b in ((first, second), (first.result, second.result)):
        assert a is not b
        for field in dataclasses.fields(a):
            value = getattr(a, field.name)
            if isinstance(value, MUTABLE):
                assert value is not getattr(b, field.name), field.name


@pytest.mark.parametrize("algorithm", ["exact", "nsga2", "nsga-g"])
def test_every_search_returns_a_tuple(midas, algorithm):
    gateway = midas.gateway
    space = gateway.candidates(KEY, params())
    with gateway.session(KEY) as session:
        model = session.model
    search = MultiObjectiveOptimizer(OptimizerConfig(algorithm)).pareto_search(
        space, model, ("time", "money")
    )
    assert isinstance(search.pareto_set, tuple) and search.pareto_set
