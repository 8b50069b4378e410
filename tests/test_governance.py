"""Governance plane: identity, policy compilation, enforcement, audit.

Four layers:

1. Validation — ``Principal``, ``DataPolicy`` and ``GovernanceConfig``
   reject garbage eagerly (bad attributes, unknown effects, the
   restricted-wildcard contradiction, duplicate rule ids).
2. Compilation — ``PolicyEngine.constraint_for`` turns declarative rules
   into the right ``PlanConstraint`` (required/excluded sites, fatal
   rules, principal scoping, signatures).
3. Enforcement — the gateway never returns a plan a rule forbids:
   restricted datasets pin candidate enumeration and Pareto fronts to
   the storage site, denials raise ``PolicyViolationError`` (phase
   ``govern``, rule ids attached) from submit, observe, candidates and
   the batched front door alike.
4. Audit — the hash-chained log records every envelope, survives
   verification, detects tampering, and is summarised by
   ``gateway.audit_report()``.
5. The plane — ``GovernancePlane``'s hooks on their own: inert without
   a config, one denial record per denial, admission of an explicit
   candidate, and the recovery-time ``restore``.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.common.errors import ValidationError
from repro.common.rng import RngStream
from repro.federation import (
    DataPolicy,
    FederationConfig,
    GovernanceConfig,
    ObserveRequest,
    PolicyViolationError,
    Principal,
    RebalanceConfig,
    SubmitRequest,
    verify_chain,
)
from repro.federation.errors import DurabilityError, EnvelopeError
from repro.federation.governance import GovernancePlane
from repro.governance.audit import GENESIS_HASH, AuditLog, AuditRecord, record_hash
from repro.governance.policy import PlanConstraint, PolicyEngine
from repro.ires.deployment import Deployment
from repro.midas import MEDICAL_QUERIES, MidasSystem
from repro.midas.system import DEFAULT_DEPLOYMENT

CROSS_SITE_KEY = "medical-severe-cases"  # patient@cloud-a + labresult@cloud-b

CLINICIAN = Principal("dr-adams", "clinician", "cloud-a")
RESEARCHER = Principal("lab-ext-7", "researcher", "cloud-b", purpose="research")


def governed_config(*policies, **overrides) -> FederationConfig:
    return FederationConfig(
        max_window=24, governance=GovernanceConfig(policies=policies, **overrides)
    )


def make_governed_midas(config: FederationConfig, runs: int = 10) -> MidasSystem:
    midas = MidasSystem(patient_count=250, seed=11, config=config)
    if runs:
        midas.warm_up(CROSS_SITE_KEY, runs=runs, principal=CLINICIAN)
    return midas


def sample_params(key: str = CROSS_SITE_KEY, salt: str = "governance-test"):
    return MEDICAL_QUERIES[key].sample_params(RngStream(3, salt))


# ---------------------------------------------------------------------------
# 1. Validation


class TestPrincipal:
    def test_attributes_normalised_subject_verbatim(self):
        principal = Principal("Dr-Adams", " Clinician ", "CLOUD-A", "Treatment")
        assert principal.subject == "Dr-Adams"
        assert principal.role == "clinician"
        assert principal.site == "cloud-a"
        assert principal.purpose == "treatment"
        assert "Dr-Adams" in principal.describe()

    @pytest.mark.parametrize("field", ["subject", "role", "site", "purpose"])
    @pytest.mark.parametrize("bad", ["", None, 7])
    def test_bad_attributes_rejected(self, field, bad):
        values = dict(subject="s", role="r", site="x", purpose="p")
        values[field] = bad
        with pytest.raises(ValidationError, match=f"Principal.{field}"):
            Principal(**values)


class TestDataPolicy:
    def test_auto_rule_id_encodes_effect_pair_and_scope(self):
        rule = DataPolicy("patient", "cloud-a", "restricted")
        assert rule.rule_id == "restricted:patient@cloud-a"
        scoped = DataPolicy(
            "*", "cloud-b", "deny", roles=("researcher",), purposes=("research",)
        )
        assert scoped.rule_id == "deny:*@cloud-b|roles=researcher|purposes=research"

    def test_names_normalised(self):
        rule = DataPolicy(" Patient ", "CLOUD-A", "restricted", roles=("Admin",))
        assert rule.dataset == "patient"
        assert rule.site == "cloud-a"
        assert rule.roles == ("admin",)

    def test_unknown_effect_rejected(self):
        with pytest.raises(ValidationError, match="effect"):
            DataPolicy("patient", "cloud-a", "redact")

    def test_restricted_needs_concrete_site(self):
        # restricted(*): "rows may not leave every site at once" admits
        # no plan, so the contradiction is refused at construction.
        with pytest.raises(ValidationError, match="concrete site"):
            DataPolicy("patient", "*", "restricted")

    @pytest.mark.parametrize("field", ["dataset", "site"])
    def test_empty_names_rejected(self, field):
        values = dict(dataset="patient", site="cloud-a", effect="deny")
        values[field] = ""
        with pytest.raises(ValidationError, match=f"DataPolicy.{field}"):
            DataPolicy(**values)

    def test_empty_scope_tuple_rejected(self):
        with pytest.raises(ValidationError, match="roles"):
            DataPolicy("patient", "cloud-a", "deny", roles=())

    def test_scoped_rules_never_match_anonymous(self):
        scoped = DataPolicy("*", "cloud-b", "deny", roles=("researcher",))
        assert not scoped.applies_to(None)
        assert scoped.applies_to(RESEARCHER)
        assert not scoped.applies_to(CLINICIAN)
        purpose_scoped = DataPolicy("*", "cloud-b", "deny", purposes=("research",))
        assert purpose_scoped.applies_to(RESEARCHER)
        assert not purpose_scoped.applies_to(CLINICIAN)
        unscoped = DataPolicy("*", "cloud-b", "deny")
        assert unscoped.applies_to(None) and unscoped.applies_to(CLINICIAN)

    def test_matches_wildcards(self):
        rule = DataPolicy("*", "cloud-b", "deny")
        assert rule.matches("labresult", "cloud-b")
        assert rule.matches("anything", "CLOUD-B")
        assert not rule.matches("labresult", "cloud-a")


class TestGovernanceConfig:
    def test_default_is_permissive(self):
        config = GovernanceConfig()
        assert config.permissive and config.audit

    def test_rules_or_identity_requirement_break_permissiveness(self):
        assert not GovernanceConfig(require_identity=True).permissive
        assert not GovernanceConfig(
            policies=(DataPolicy("patient", "cloud-a", "restricted"),)
        ).permissive

    def test_duplicate_rule_ids_rejected(self):
        rule = DataPolicy("patient", "cloud-a", "restricted")
        with pytest.raises(ValidationError, match="duplicate rule_id"):
            GovernanceConfig(policies=(rule, rule))

    def test_non_policy_rules_rejected(self):
        with pytest.raises(ValidationError, match="DataPolicy"):
            GovernanceConfig(policies=("deny everything",))


# ---------------------------------------------------------------------------
# 2. Compilation


@pytest.fixture(scope="module")
def deployment() -> Deployment:
    return Deployment(dict(DEFAULT_DEPLOYMENT))


CROSS_SITE_TABLES = ("patient", "labresult")


def compile_constraint(deployment, principal, *policies, tables=CROSS_SITE_TABLES):
    engine = PolicyEngine(GovernanceConfig(policies=policies))
    return engine.constraint_for(principal, tables, deployment)


class TestPolicyEngine:
    def test_no_rules_is_unrestricted(self, deployment):
        constraint = compile_constraint(deployment, CLINICIAN)
        assert constraint.unrestricted and not constraint.impossible
        assert constraint.permits("cloud-a") and constraint.permits("cloud-b")

    def test_restricted_pins_execution_to_storage_site(self, deployment):
        constraint = compile_constraint(
            deployment, None, DataPolicy("patient", "cloud-a", "restricted")
        )
        assert constraint.required_sites == frozenset({"cloud-a"})
        assert constraint.permits("cloud-a")
        assert not constraint.permits("cloud-b")
        assert not constraint.impossible

    def test_two_restricted_sites_admit_no_plan(self, deployment):
        constraint = compile_constraint(
            deployment,
            None,
            DataPolicy("patient", "cloud-a", "restricted"),
            DataPolicy("labresult", "cloud-b", "restricted"),
        )
        assert constraint.impossible
        assert not constraint.permits("cloud-a")

    def test_deny_on_storage_site_is_fatal(self, deployment):
        constraint = compile_constraint(
            deployment, None, DataPolicy("labresult", "cloud-b", "deny")
        )
        assert constraint.impossible and constraint.fatal
        assert constraint.rule_ids == ("deny:labresult@cloud-b",)

    def test_wildcard_deny_excludes_site_from_execution(self, deployment):
        # Only cloud-a tables participate, so deny(*@cloud-b) is not
        # fatal: it merely forbids executing over there.
        constraint = compile_constraint(
            deployment,
            None,
            DataPolicy("*", "cloud-b", "deny"),
            tables=("patient", "imagingstudy"),
        )
        assert constraint.excluded_sites == frozenset({"cloud-b"})
        assert not constraint.impossible
        assert constraint.permits("cloud-a") and not constraint.permits("cloud-b")

    def test_wildcard_deny_is_fatal_when_site_holds_data(self, deployment):
        constraint = compile_constraint(
            deployment, None, DataPolicy("*", "cloud-b", "deny")
        )
        assert constraint.impossible and constraint.fatal

    def test_scoped_rule_skipped_for_unmatched_principals(self, deployment):
        rule = DataPolicy("*", "cloud-b", "deny", roles=("researcher",))
        assert compile_constraint(deployment, CLINICIAN, rule).unrestricted
        assert compile_constraint(deployment, None, rule).unrestricted
        assert compile_constraint(deployment, RESEARCHER, rule).impossible

    def test_signature_is_order_insensitive_and_cacheable(self, deployment):
        left = PlanConstraint(required_sites=frozenset({"b", "a"}))
        right = PlanConstraint(required_sites=frozenset({"a", "b"}))
        assert left.signature == right.signature == (("a", "b"), (), False)
        fatal = compile_constraint(
            deployment, None, DataPolicy("labresult", "cloud-b", "deny")
        )
        assert fatal.signature[2] is True


# ---------------------------------------------------------------------------
# 3. Enforcement through the gateway


@pytest.fixture(scope="module")
def governed() -> MidasSystem:
    """One governed stack: restricted(patient@cloud-a) for clinicians,
    deny(*@cloud-b) for researchers, anonymous callers unconstrained,
    audit on."""
    midas = make_governed_midas(
        governed_config(
            DataPolicy("patient", "cloud-a", "restricted", roles=("clinician",)),
            DataPolicy("*", "cloud-b", "deny", roles=("researcher",)),
        )
    )
    yield midas
    midas.gateway.close()


class TestGatewayEnforcement:
    def test_candidates_filtered_to_required_site(self, governed):
        candidates = governed.gateway.candidates(
            CROSS_SITE_KEY, sample_params(), principal=CLINICIAN
        )
        assert candidates
        assert {c.execution.site for c in candidates} == {"cloud-a"}
        # The restricted rule is clinician-scoped, so an anonymous
        # caller still enumerates the full cross-site space.
        open_space = governed.gateway.candidates(CROSS_SITE_KEY, sample_params())
        assert {c.execution.site for c in open_space} == {"cloud-a", "cloud-b"}

    def test_pareto_front_never_leaves_restricted_site(self, governed):
        report = governed.query(
            CROSS_SITE_KEY, sample_params(), principal=CLINICIAN
        )
        sites = {c.payload.execution.site for c in report.pareto_set}
        assert sites == {"cloud-a"}
        assert report.chosen.execution.site == "cloud-a"

    def test_denied_submit_raises_typed_error(self, governed):
        with pytest.raises(PolicyViolationError) as info:
            governed.query(CROSS_SITE_KEY, sample_params(), principal=RESEARCHER)
        error = info.value
        assert error.phase == "govern"
        assert error.template == CROSS_SITE_KEY
        assert error.subject == RESEARCHER.subject
        assert error.rule_ids == ("deny:*@cloud-b|roles=researcher",)
        assert "cloud-b" in str(error)

    def test_denied_observe_raises_typed_error(self, governed):
        with pytest.raises(PolicyViolationError) as info:
            governed.gateway.observe(
                ObserveRequest(CROSS_SITE_KEY, sample_params(), principal=RESEARCHER)
            )
        assert info.value.phase == "govern"

    def test_explicit_forbidden_candidate_rejected(self, governed):
        params = sample_params()
        forbidden = [
            c
            for c in governed.gateway.candidates(CROSS_SITE_KEY, params)
            if c.execution.site != "cloud-a"
        ]
        assert forbidden  # anonymous enumeration still spans both sites
        with pytest.raises(PolicyViolationError, match="forbids"):
            governed.gateway.observe(
                ObserveRequest(CROSS_SITE_KEY, params, principal=CLINICIAN),
                candidate=forbidden[0],
            )

    def test_session_cache_keyed_by_constraint_signature(self, governed):
        params = sample_params()
        with governed.gateway.session(CROSS_SITE_KEY) as session:
            constrained = session.submit(
                SubmitRequest(CROSS_SITE_KEY, params, principal=CLINICIAN),
                execute=False,
            )
            open_plan = session.submit(
                SubmitRequest(CROSS_SITE_KEY, params), execute=False
            )
            # Same SQL, different admissible spaces: two cache entries,
            # and the constrained one is strictly smaller.
            assert len(session._enumerations) == 2
            assert constrained.candidate_count < open_plan.candidate_count
        sites = {c.payload.execution.site for c in constrained.pareto_set}
        assert sites == {"cloud-a"}

    def test_front_door_isolates_denials_per_item(self, governed):
        gateway = governed.gateway
        params = sample_params()
        gateway.ingest(SubmitRequest(CROSS_SITE_KEY, params, principal=CLINICIAN))
        gateway.ingest(SubmitRequest(CROSS_SITE_KEY, params, principal=RESEARCHER))
        gateway.ingest(ObserveRequest(CROSS_SITE_KEY, params, principal=CLINICIAN))
        batch = gateway.drain()
        kinds = [
            None if error is None else type(error).__name__
            for error in batch.errors
        ]
        assert kinds == [None, "PolicyViolationError", None]

    def test_require_identity_denies_anonymous(self):
        midas = make_governed_midas(
            governed_config(require_identity=True), runs=0
        )
        try:
            with pytest.raises(PolicyViolationError) as info:
                midas.query(CROSS_SITE_KEY, sample_params())
            assert info.value.rule_ids == ("identity-required",)
            with pytest.raises(PolicyViolationError):
                midas.gateway.observe(
                    ObserveRequest(CROSS_SITE_KEY, sample_params())
                )
        finally:
            midas.gateway.close()


# ---------------------------------------------------------------------------
# 4. Audit


class TestAuditChain:
    def test_chain_links_and_verifies(self, monkeypatch):
        monkeypatch.setattr("repro.governance.audit.time_fn", lambda: 1234.5)
        log = AuditLog()
        log.append("submit", template="q1", subject="alice", tick=0)
        log.append("observe", template="q1", tick=1)
        log.append("denial", template="q2", subject="bob", outcome="denied")
        records = log.records()
        assert [r.seq for r in records] == [0, 1, 2]
        assert records[0].prev_hash == GENESIS_HASH
        assert records[1].prev_hash == records[0].hash
        assert log.verify() and verify_chain(records)
        assert log.head_hash == records[-1].hash
        assert len(log) == 3
        assert all(r.at == 1234.5 for r in records)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            AuditLog().append("gossip")

    def test_tampering_detected(self):
        log = AuditLog()
        for tick in range(4):
            log.append("observe", template="q", tick=tick)
        records = list(log.records())
        assert verify_chain(records)
        # Rewriting history: flip one field of a middle record.
        forged = dataclasses.replace(records[1], outcome="denied")
        assert not verify_chain(records[:1] + [forged] + records[2:])
        # Dropping a record breaks the dense sequence.
        assert not verify_chain(records[:1] + records[2:])
        # Reordering breaks the hash linkage.
        assert not verify_chain([records[0], records[2], records[1], records[3]])
        # record_hash pins every payload field, including prev_hash.
        assert record_hash(records[2]) == records[2].hash
        assert record_hash(forged) != records[1].hash

    def test_records_snapshot_is_immutable_tuple(self):
        log = AuditLog()
        log.append("submit", template="q")
        snapshot = log.records()
        assert isinstance(snapshot, tuple)
        log.append("observe", template="q")
        assert len(snapshot) == 1 and len(log.records()) == 2


class TestGatewayAudit:
    def test_every_envelope_recorded(self, governed):
        report = governed.gateway.audit_report()
        assert report.enabled and report.chain_valid
        assert report.length == len(report.records) > 0
        assert report.submits > 0
        assert report.observes > 0  # warm-up observes
        assert report.flushes > 0  # the drain() in the front-door test
        assert report.denials > 0  # the researcher denials
        counted = (
            report.submits
            + report.observes
            + report.flushes
            + report.rebalances
            + report.denials
        )
        assert counted == report.length
        assert "intact" in report.describe()

    def test_denial_records_name_subject_and_rules(self, governed):
        denials = [
            r for r in governed.gateway.audit_report().records
            if r.kind == "denial"
        ]
        assert denials
        assert any(r.subject == RESEARCHER.subject for r in denials)
        assert any("deny:*@cloud-b" in r.detail for r in denials)
        assert all(r.outcome == "denied" for r in denials)

    def test_report_limit_truncates_records_not_counts(self, governed):
        full = governed.gateway.audit_report()
        tail = governed.gateway.audit_report(limit=2)
        assert len(tail.records) == 2
        assert tail.records == full.records[-2:]
        assert tail.length == full.length and tail.submits == full.submits
        empty = governed.gateway.audit_report(limit=0)
        assert empty.records == () and empty.length == full.length
        beyond = governed.gateway.audit_report(limit=full.length + 5)
        assert beyond.records == full.records

    @pytest.mark.parametrize("limit", [-1, -3])
    def test_report_rejects_a_negative_limit(self, governed, limit):
        assert governed.gateway.audit_report().length > 3
        with pytest.raises(EnvelopeError, match="limit"):
            governed.gateway.audit_report(limit=limit)

    def test_audit_log_verifies_live(self, governed):
        log = governed.gateway.audit_log
        assert log is not None and log.verify()

    def test_audit_disabled_keeps_no_log(self):
        midas = make_governed_midas(governed_config(audit=False), runs=8)
        try:
            midas.query(CROSS_SITE_KEY, sample_params(), principal=CLINICIAN)
            assert midas.gateway.audit_log is None
            report = midas.gateway.audit_report()
            assert not report.enabled
            assert report.length == 0 and report.head_hash == GENESIS_HASH
            assert report.chain_valid  # vacuously: nothing to tamper with
            assert "disabled" in report.describe()
        finally:
            midas.gateway.close()

    def test_ungoverned_gateway_reports_disabled_audit(self):
        midas = MidasSystem(patient_count=250, seed=11)
        try:
            assert not midas.gateway.audit_report().enabled
            assert midas.gateway.audit_log is None
        finally:
            midas.gateway.close()

    def test_rebalance_cycles_are_audited(self):
        config = FederationConfig(
            max_window=24,
            serving_backend="sharded",
            shard_workers=2,
            rebalance=RebalanceConfig(),
            governance=GovernanceConfig(),
        )
        midas = make_governed_midas(config, runs=8)
        try:
            midas.gateway.rebalance()
            report = midas.gateway.audit_report()
            assert report.rebalances >= 1
            cycle = [r for r in report.records if r.kind == "rebalance"][-1]
            assert cycle.outcome == "ok" and cycle.detail
            assert report.chain_valid
        finally:
            midas.gateway.close()


# ---------------------------------------------------------------------------
# 5. The plane


def stub_engine(tables=CROSS_SITE_TABLES):
    """The two things admission reads from the engine room."""
    return SimpleNamespace(
        template=lambda key: SimpleNamespace(tables=tables),
        deployment=Deployment(dict(DEFAULT_DEPLOYMENT)),
    )


def at_site(site: str):
    return SimpleNamespace(execution=SimpleNamespace(site=site))


def unbuilt_detail() -> str:
    raise AssertionError("the detail was built with no log to append to")


class TestGovernancePlane:
    def test_without_a_config_the_plane_is_inert(self):
        plane = GovernancePlane()
        assert plane.admit("q", None, engine=None, candidate=at_site("x")) is None
        plane.deny_empty("q", None, None, [])
        plane.note("submit", unbuilt_detail, template="q", tick=3)
        plane.journal(unbuilt_detail)
        assert plane.log is None
        report = plane.report()
        assert not report.enabled and report.length == 0
        assert report.head_hash == GENESIS_HASH and report.records == ()

    def test_note_builds_its_detail_only_with_a_log(self):
        plane = GovernancePlane(GovernanceConfig(audit=False))
        plane.note("submit", unbuilt_detail)
        assert plane.log is None
        audited = GovernancePlane(GovernanceConfig())
        audited.note("observe", lambda: "ran x/y", template="q", principal=CLINICIAN)
        (record,) = audited.log.records()
        assert (record.kind, record.detail, record.subject) == (
            "observe",
            "ran x/y",
            CLINICIAN.subject,
        )

    def test_identity_denial_appends_exactly_one_record(self):
        plane = GovernancePlane(GovernanceConfig(require_identity=True))
        with pytest.raises(PolicyViolationError) as info:
            plane.admit("q", None, engine=None)
        assert info.value.rule_ids == ("identity-required",)
        assert info.value.phase == "govern"
        (record,) = plane.log.records()
        assert (record.kind, record.outcome, record.template) == (
            "denial",
            "denied",
            "q",
        )
        assert record.subject is None and record.detail == "identity-required"
        # An identified caller passes; without rules nothing constrains it.
        assert plane.admit("q", CLINICIAN, engine=None) is None
        assert len(plane.log) == 1

    def test_explicit_candidate_at_a_forbidden_site_is_denied_at_admit(self):
        plane = GovernancePlane(
            GovernanceConfig(policies=(DataPolicy("patient", "cloud-a", "restricted"),))
        )
        constraint = plane.admit("q", CLINICIAN, stub_engine(), at_site("cloud-a"))
        assert constraint.required_sites == {"cloud-a"}
        with pytest.raises(PolicyViolationError, match="forbids") as info:
            plane.admit("q", CLINICIAN, stub_engine(), at_site("cloud-b"))
        assert info.value.rule_ids == ("restricted:patient@cloud-a",)
        assert [r.kind for r in plane.log.records()] == ["denial"]
        with pytest.raises(PolicyViolationError, match="every execution site"):
            plane.deny_empty("q", CLINICIAN, constraint, [])
        assert len(plane.log) == 2

    def test_restore_keeps_the_journal_sink(self):
        source = GovernancePlane(GovernanceConfig())
        source.note("submit", lambda: "chose x/y", template="q")
        source.note("observe", lambda: "ran x/y", template="q")
        journaled = []
        plane = GovernancePlane(GovernanceConfig())
        plane.journal(journaled.append)
        plane.restore(source.log.records())
        assert plane.log.head_hash == source.log.head_hash
        plane.note("submit", lambda: "chose x/z", template="q")
        assert [r.seq for r in journaled] == [2]
        assert plane.log.verify()

    def test_restore_refuses_a_plane_without_a_log_or_a_used_log(self):
        records = AuditLog()
        records.append("submit", template="q")
        with pytest.raises(DurabilityError, match="no audit log"):
            GovernancePlane().restore(records.records())
        with pytest.raises(DurabilityError, match="no audit log"):
            GovernancePlane(GovernanceConfig(audit=False)).restore(records.records())
        used = GovernancePlane(GovernanceConfig())
        used.note("observe", lambda: "ran x/y", template="q")
        with pytest.raises(DurabilityError, match="not empty"):
            used.restore(records.records())

    def test_restore_refuses_a_broken_chain(self):
        log = AuditLog()
        log.append("submit", template="q")
        log.append("observe", template="q")
        first, second = log.records()
        plane = GovernancePlane(GovernanceConfig())
        with pytest.raises(DurabilityError, match="intact hash chain"):
            plane.restore([second, first])
        assert len(plane.log) == 0
