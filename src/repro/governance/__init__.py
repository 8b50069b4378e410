"""Governance plane for the medical cloud federation.

Three pieces, mirroring the regulatory layer every deployed medical
federation carries in front of its query engine:

* :mod:`repro.governance.identity` — :class:`Principal`, the typed
  tenant identity (role, site affiliation, purpose-of-use) a request
  runs on behalf of;
* :mod:`repro.governance.policy` — declarative :class:`DataPolicy`
  rules per ``(dataset, site)`` compiled by the :class:`PolicyEngine`
  into :class:`PlanConstraint` objects the QEP enumerator applies while
  building the candidate space;
* :mod:`repro.governance.audit` — the hash-chained append-only
  :class:`AuditLog` of every envelope the gateway acts on, verifiable
  with :func:`verify_chain`.

The package is self-contained (it imports only ``repro.common``): the
federation gateway consumes it, never the other way round.  The gateway
meets these pieces through one object,
:class:`~repro.federation.governance.GovernancePlane`, which lives in
:mod:`repro.federation` because it raises federation errors and returns
federation envelopes.
"""

from repro.governance.audit import (
    GENESIS_HASH,
    AuditLog,
    AuditRecord,
    export_chain,
    record_hash,
    verify_chain,
    verify_chain_file,
)
from repro.governance.identity import Principal
from repro.governance.policy import (
    DataPolicy,
    GovernanceConfig,
    PlanConstraint,
    PolicyEngine,
)

__all__ = [
    "GENESIS_HASH",
    "AuditLog",
    "AuditRecord",
    "DataPolicy",
    "GovernanceConfig",
    "PlanConstraint",
    "PolicyEngine",
    "Principal",
    "export_chain",
    "record_hash",
    "verify_chain",
    "verify_chain_file",
]
