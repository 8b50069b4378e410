"""The gateway's governance plane: policy, denials and the audit chain.

:class:`GovernancePlane` is the one object through which the Figure 1
pipeline meets :mod:`repro.governance`.  It owns the
:class:`~repro.governance.policy.PolicyEngine` (declarative
:class:`~repro.governance.policy.DataPolicy` rules compiled into
per-request :class:`~repro.governance.policy.PlanConstraint` objects)
and the hash-chained :class:`~repro.governance.audit.AuditLog`, and
gives the pipeline its hooks: :meth:`~GovernancePlane.admit`,
:meth:`~GovernancePlane.deny_empty`, :meth:`~GovernancePlane.note`,
:meth:`~GovernancePlane.report`, the live :attr:`~GovernancePlane.log`,
and :meth:`~GovernancePlane.journal` / :meth:`~GovernancePlane.restore`
for the durability plane.

A gateway holds exactly one plane; built without a
:class:`~repro.governance.policy.GovernanceConfig` it is inert (every
hook returns at once).  The plane only observes and filters, never
changes what an admissible plan costs, so a permissive config is
bitwise-equivalent to none.  It lives here, not in
:mod:`repro.governance`, because it raises federation errors and
returns federation envelopes, and that package imports only
:mod:`repro.common`.
"""

from __future__ import annotations

from typing import Callable

from repro.federation.envelopes import AuditReport
from repro.federation.errors import DurabilityError, EnvelopeError, PolicyViolationError
from repro.governance.audit import GENESIS_HASH, AuditLog, verify_chain
from repro.governance.identity import Principal
from repro.governance.policy import GovernanceConfig, PlanConstraint, PolicyEngine


class GovernancePlane:
    """Policy enforcement and the audit chain for one gateway."""

    def __init__(self, config: GovernanceConfig | None = None):
        self._policy = None if config is None else PolicyEngine(config)
        self._log = AuditLog() if config is not None and config.audit else None

    @property
    def log(self) -> AuditLog | None:
        """The live audit log (``None`` when auditing is off)."""
        return self._log

    # Admission ------------------------------------------------------------

    def admit(
        self, key: str, principal: Principal | None, engine, candidate=None
    ) -> PlanConstraint | None:
        """The compiled governance constraint for one request.

        ``None`` means nothing constrains it — no config, no rules, or
        no rule in the caller's scope touches the query's tables (read
        from ``engine``, the :class:`~repro.ires.platform.IReSPlatform`).
        Downstream code then takes exactly the governance-free branch,
        which is what makes the bitwise-equivalence gate hold by
        construction.  An inadmissible request (missing required
        identity, a denied dataset, conflicting restrictions, an
        explicit ``candidate`` at a forbidden site) is audited and
        raised as :class:`~repro.federation.errors.PolicyViolationError`
        before any plan is built.
        """
        policy = self._policy
        if policy is None:
            return None
        if policy.config.require_identity and principal is None:
            self._deny(
                key,
                None,
                ("identity-required",),
                f"anonymous request for {key!r} rejected: this federation "
                "requires every envelope to carry a Principal "
                "(GovernanceConfig(require_identity=True))",
            )
        if not policy.has_rules:
            return None
        constraint = policy.constraint_for(
            principal, engine.template(key).tables, engine.deployment
        )
        if constraint.unrestricted:
            return None
        if constraint.impossible:
            reasons = "; ".join(
                rule.describe() for rule in (constraint.fatal or constraint.applied)
            )
            self._deny(
                key,
                principal,
                constraint.rule_ids,
                f"no admissible plan for {key!r}: {reasons}",
            )
        if candidate is not None and not constraint.permits(candidate.execution.site):
            # An explicit QEP bypasses the filtered enumeration.
            self._deny(
                key,
                principal,
                constraint.rule_ids,
                f"candidate executes at {candidate.execution.site!r}, which "
                "policy forbids for this principal",
            )
        return constraint

    def deny_empty(
        self,
        key: str,
        principal: Principal | None,
        constraint: PlanConstraint | None,
        space,
    ) -> None:
        """Deny a policy-filtered QEP space with no candidate left.

        Unreachable for the rule shapes :class:`PolicyEngine` compiles
        today (a site both needed and forbidden is already *impossible*
        at admission); kept so a future rule kind can never make the
        optimizer "choose" from nothing.
        """
        if constraint is not None and not space:
            self._deny(
                key,
                principal,
                constraint.rule_ids,
                f"no admissible plan for {key!r}: every execution site was "
                "excluded by policy",
            )

    def _deny(self, key, principal, rule_ids: tuple[str, ...], message: str) -> None:
        """Audit and raise one policy denial (always raises)."""
        subject = None if principal is None else principal.subject
        if self._log is not None:
            self._log.append(
                "denial",
                template=key,
                subject=subject,
                outcome="denied",
                detail=", ".join(rule_ids) or message,
            )
        raise PolicyViolationError(
            message, template=key, rule_ids=rule_ids, subject=subject
        )

    # The audit chain ------------------------------------------------------

    def note(
        self,
        kind: str,
        detail: Callable[[], str],
        *,
        template: str | None = None,
        principal: Principal | None = None,
        tick: int | None = None,
    ) -> None:
        """Append one ``"ok"`` audit record, when the plane keeps a log.
        ``detail`` builds the record's text; it is called only when there
        is a log to append to."""
        log = self._log
        if log is None:
            return
        log.append(
            kind,
            template=template,
            subject=None if principal is None else principal.subject,
            tick=tick,
            detail=detail(),
        )

    def report(self, limit: int | None = None) -> AuditReport:
        """Typed audit-log report: chain head, live end-to-end
        verification, traffic breakdown by record kind, and (up to
        ``limit``, newest) the records themselves, oldest first.
        ``limit=0`` reports counters only; ``None``, or a ``limit``
        beyond the log's length, includes the whole chain.  A negative
        ``limit`` raises :class:`~repro.federation.errors.EnvelopeError`.
        """
        if limit is not None and limit < 0:
            raise EnvelopeError(
                f"audit report limit must be >= 0 or None, got {limit}"
            )
        log = self._log
        records = () if log is None else log.records()
        kinds = [record.kind for record in records]
        return AuditReport(
            enabled=log is not None,
            length=len(records),
            head_hash=GENESIS_HASH if log is None else log.head_hash,
            chain_valid=verify_chain(records),
            submits=kinds.count("submit"),
            observes=kinds.count("observe"),
            flushes=kinds.count("batch_flush"),
            rebalances=kinds.count("rebalance"),
            denials=kinds.count("denial"),
            records=records if limit is None else records[-limit:] if limit else (),
        )

    # Durability -----------------------------------------------------------

    def journal(self, sink) -> None:
        """Hand every later audit record to ``sink`` after it commits
        (the durability plane's WAL hook); a no-op without a log."""
        if self._log is not None:
            self._log.sink = sink

    def restore(self, records) -> None:
        """Rebuild the chain from journaled ``records`` on recovery.

        The live log must exist and be empty (a fresh gateway with the
        crashed one's governance config); its journal sink carries over.
        Anything else, or records that are not an intact chain, raises
        :class:`~repro.federation.errors.DurabilityError`.
        """
        log = self._log
        if log is None:
            raise DurabilityError(
                "journal carries audit records but the gateway has no audit "
                "log; recover with the same governance configuration"
            )
        if len(log):
            raise DurabilityError(
                "gateway audit log is not empty; recover() needs a fresh gateway"
            )
        try:
            self._log = AuditLog.restore(records, sink=log.sink)
        except ValueError as error:
            raise DurabilityError(
                "recovered audit records do not form an intact hash chain"
            ) from error


__all__ = ["GovernancePlane"]
