"""Gateway sessions: snapshot pinning for long optimizer runs.

Between two executions the serving layer already reuses its per-version
model snapshot, but a *long* optimizer run — a parameter sweep, a
what-if policy comparison, a GA search costing thousands of plans —
spans history changes: its own executions, and concurrent ``observe()``
ticks from other actors, keep advancing the history version, so each
``model()`` call may silently switch models mid-run.  A
:class:`GatewaySession` removes that hazard: it **pins** the template's
fitted snapshot once and plans every submission in the session against
that exact immutable model until the session is closed or explicitly
re-pinned (closing the ROADMAP "snapshot pinning" follow-on).

:meth:`GatewaySession.submit_many` additionally batches: the whole
parameter batch shares the pinned model, and the QEP space is enumerated
once per *distinct query instance*.  The Pareto set depends only on that
space, the model and the policy's metrics, so the instance's entry also
keeps one Pareto search per metrics tuple: a policy/weight sweep over
one query costs one enumeration and one Pareto search per metrics
tuple, and every other request runs Algorithm 2 alone (while the
instance stays among the session's :data:`SESSION_ENUMERATIONS` most
recent ones).  A repin, a close or an eviction drops the searches with
their entry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.common.lru import LruCache
from repro.federation.envelopes import BatchReport, SubmitRequest, SubmissionReport
from repro.federation.errors import EnvelopeError, SessionStateError
from repro.ires.enumerator import QepCandidate
from repro.ires.modelling import FittedCostModel
from repro.ires.optimizer import MultiObjectiveOptimizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.gateway import FederationGateway

#: Query instances one session keeps enumerated.  A parameter sweep
#: revisits a handful of instances; an unbounded cache grew with every
#: fresh one for the session's lifetime.
SESSION_ENUMERATIONS = 64


class GatewaySession:
    """A pinned-model working context for one template.

    Usually used as a context manager::

        with gateway.session("q12") as session:
            batch = session.submit_many(requests)

    The pin is taken at construction (requiring a fittable history) and
    released by :meth:`close`; :meth:`repin` refreshes it explicitly.
    """

    def __init__(self, gateway: "FederationGateway", template: str):
        gateway._require_template(template)
        self._gateway = gateway
        self.template = template
        self._closed = False
        self._model: FittedCostModel | None = None
        self._pinned_version: int | None = None
        #: (rendered SQL, governance-constraint signature) -> (candidates,
        #: fronts) of the :data:`SESSION_ENUMERATIONS` most recent query
        #: instances; ``fronts`` maps a metrics tuple to its Pareto
        #: search under the pinned model (front and provenance only: a
        #: feature matrix is built on a miss and dropped, as it is the
        #: size of the space and a hit never reads it).  The constraint
        #: signature keys the cache because principals may differ across
        #: one batch: two callers with different admissible spaces never
        #: share an entry (the signature is None for unconstrained
        #: requests).
        self._enumerations = LruCache(SESSION_ENUMERATIONS)
        self.repin()

    # Lifecycle ------------------------------------------------------------

    def __enter__(self) -> "GatewaySession":
        self._require_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Release the pin; later submissions through the session fail."""
        self._closed = True
        self._model = None
        self._pinned_version = None
        self._enumerations.clear()

    @property
    def closed(self) -> bool:
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise SessionStateError(
                "session is closed; open a new one with gateway.session()",
                template=self.template,
            )

    # Pinning --------------------------------------------------------------

    def repin(self) -> FittedCostModel:
        """(Re-)pin the current fitted snapshot of the template.

        Invalidates the enumeration cache: cached fronts belong to the
        old pin's model.
        """
        self._require_open()
        model, version = self._gateway._pin(self.template)
        self._model = model
        self._pinned_version = version
        self._enumerations.clear()
        return model

    @property
    def model(self) -> FittedCostModel:
        """The pinned snapshot (immutable; stable across observes)."""
        self._require_open()
        return self._model

    @property
    def pinned_version(self) -> int:
        """History version the snapshot was pinned at."""
        self._require_open()
        return self._pinned_version

    @property
    def stale(self) -> bool:
        """True when the history advanced past the pinned version."""
        self._require_open()
        return self._gateway.history(self.template).version != self._pinned_version

    # Submission -----------------------------------------------------------

    def submit(
        self, request: SubmitRequest, *, execute: bool = True
    ) -> SubmissionReport:
        """One submission planned against the pinned snapshot."""
        self._require_open()
        if request.template != self.template:
            raise EnvelopeError(
                f"session is pinned to {self.template!r}, request targets "
                f"{request.template!r}",
                template=request.template,
                phase="session",
            )
        return self._gateway._run(
            request, cost_model=self._model, space_of=self._space, execute=execute
        )

    def _space(self, query, principal, constraint):
        """The session's enumerate stage: the gateway's, memoized per
        query instance together with a map, filled by the plan stage,
        from metrics tuple to Pareto search."""
        key = (query.sql, None if constraint is None else constraint.signature)
        cached = self._enumerations.get(key)
        if cached is None:
            space = self._gateway._space(self.template, query, principal, constraint)
            cached = (space, {})
            self._enumerations.put(key, cached)
        return cached

    def submit_many(
        self,
        requests: Sequence[SubmitRequest] | Iterable[SubmitRequest],
        *,
        execute: bool = True,
    ) -> BatchReport:
        """Plan (and by default execute) a whole parameter batch.

        One pinned model, one enumeration per distinct query instance
        and one Pareto search per instance and metrics tuple: a weight
        sweep over one instance runs Algorithm 2 alone after its first
        request.  ``execute=False`` turns the batch into a pure planning
        sweep — nothing is run, the history does not move.
        """
        self._require_open()
        items = list(requests)
        if not items:
            raise EnvelopeError(
                "submit_many() needs at least one request",
                template=self.template,
                phase="session",
            )
        # Validate the whole batch before touching any state: a foreign
        # template in item k must not let items 0..k-1 execute first.
        for request in items:
            if request.template != self.template:
                raise EnvelopeError(
                    f"session is pinned to {self.template!r}, batch contains "
                    f"a request for {request.template!r}",
                    template=request.template,
                    phase="session",
                )
        before = self._enumerations.insertions
        reports = tuple(self.submit(request, execute=execute) for request in items)
        return BatchReport(
            template=self.template,
            reports=reports,
            cost_model=self._model,
            pinned_version=self._pinned_version,
            enumerations=self._enumerations.insertions - before,
        )

    # Estimation on the pinned model ---------------------------------------

    def estimate(self, features) -> dict[str, float]:
        """Predicted cost vector from the pinned snapshot (lock-free)."""
        self._require_open()
        return self._model.predict(features)

    def estimate_batch(self, features_matrix) -> dict[str, np.ndarray]:
        """Batched predictions from the pinned snapshot (one matmul per
        metric, unaffected by concurrent ticks)."""
        self._require_open()
        return self._model.predict_batch(features_matrix)

    # ----------------------------------------------------------------------

    def candidate_matrix(self, candidates: Sequence[QepCandidate]) -> np.ndarray:
        """Feature matrix of a candidate set in the pinned model's order."""
        self._require_open()
        return MultiObjectiveOptimizer.candidate_matrix(candidates, self._model)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "closed" if self._closed else f"pinned@v{self._pinned_version}"
        return f"GatewaySession({self.template!r}, {state})"
