"""The multi-tenant estimation service (see the package docstring).

Lock discipline, from coarse to fine:

* ``_registry_lock`` — guards the template table only (register /
  lookup).  Never held while fitting.
* per-template ``lock`` — serialises *that* template's mutations: a
  history append (:meth:`BaseEstimationService.record`) and a model
  refit on the same template exclude each other, so a fit can never
  observe a torn window.  A group refit takes its templates' locks in
  sorted key order, so two concurrent groups never deadlock.
  Different templates have different locks and never block each other.
* ``_stats_lock`` — a leaf lock around the service counters.

Fitted models are immutable snapshots keyed by the history's version
counter: predictions (:meth:`BaseEstimationService.estimate`) run
entirely outside the locks on whatever snapshot was current when they
started, which is exactly the "estimates are as-of the latest fit"
semantics a serving layer wants.

:class:`BaseEstimationService` carries this whole contract —
registration, ingest, snapshot bookkeeping, group refresh, counters —
and leaves only the *fit transport* to subclasses (one hook,
:meth:`BaseEstimationService._fit_states`):
:class:`EstimationService` fits in-process, serially, through a shared
:class:`~repro.ires.modelling.Modelling`; the cross-process
:class:`~repro.serving.sharded.ShardedEstimationService` ships each
group to its shard workers as one ``fit_many`` RPC per busy shard.
:meth:`~BaseEstimationService.model` is a one-template group, so every
fit on either backend goes through the same bookkeeping — which is
what keeps the two backends oracle-equivalent by construction.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.common.errors import EstimationError, ValidationError
from repro.core.cache import CacheStats
from repro.core.history import ExecutionHistory
from repro.serving.topology import LOAD_EWMA_ALPHA
from repro.ires.modelling import (
    DreamStrategy,
    EstimationStrategy,
    FittedCostModel,
    Modelling,
)

@dataclass(frozen=True)
class ServiceStats:
    """A consistent snapshot of the service counters."""

    templates: int
    #: Strategy fits actually executed (snapshot misses).
    fits: int
    #: Model lookups served from a fresh per-version snapshot.
    snapshot_hits: int
    #: Observations appended through :meth:`BaseEstimationService.record`
    #: or counted by :meth:`BaseEstimationService.record_external` (the
    #: platform executor's history appends); raw appends on a bare
    #: history object outside both paths still bypass this counter.
    observations: int
    #: Engine-cache counters when the strategy exposes a ModelCache.
    engine_cache: CacheStats | None = None
    #: ``refresh_batch`` calls, and how many stale fits they grouped
    #: (the sharded backend ships each group as one ``fit_many`` RPC
    #: per busy shard).
    batch_refreshes: int = 0
    batch_fits: int = 0


@dataclass(frozen=True)
class BatchRefreshResult:
    """Outcome of one :meth:`BaseEstimationService.refresh_batch`.

    Per-template error isolation: a tenant whose history is still too
    short (a plain :class:`~repro.common.errors.EstimationError`) lands
    in :attr:`errors` instead of poisoning the batch — every other
    requested template still gets its model.  Backend-infrastructure
    failures (a broken shard) are raised, never recorded.
    """

    #: Current model per requested template that has one.
    models: dict[str, FittedCostModel]
    #: Typed failure per requested template that could not be fitted.
    errors: dict[str, EstimationError]
    #: The stale subset that was actually (re)fitted, sorted.
    fitted: tuple[str, ...]


class _Template:
    """Per-tenant state: history + lock + versioned model snapshot.

    ``synced`` is the sharded backend's replica cursor (how many history
    rows its shard worker has been fed); the in-process service never
    touches it.  ``fits`` / ``fit_seconds_ewma`` are the template's load
    accounting (lifetime fit count and an EWMA of one fit's wall time,
    guarded by the service's ``_stats_lock``) — the per-template heat
    signal the rebalance policy ranks hot tenants by.
    """

    __slots__ = (
        "key",
        "history",
        "lock",
        "snapshot",
        "snapshot_version",
        "synced",
        "fits",
        "fit_seconds_ewma",
    )

    def __init__(self, key: str, history: ExecutionHistory):
        self.key = key
        self.history = history
        self.lock = threading.RLock()
        self.snapshot: FittedCostModel | None = None
        self.snapshot_version: int | None = None
        self.synced = 0
        self.fits = 0
        self.fit_seconds_ewma: float | None = None


#: What a backend's fit transport yields per template: the template,
#: its fitted model or isolated "cannot fit yet" error, and the fit's
#: wall time in seconds.
FitOutcome = tuple[_Template, "FittedCostModel | EstimationError", float]


class BaseEstimationService(ABC):
    """The serving contract, minus the fit transport.

    Subclasses implement :meth:`_fit_states` (fit a group of locked,
    stale templates), plus the :meth:`_on_register` /
    :meth:`_engine_cache_stats` / :meth:`close` hooks.
    """

    def __init__(self):
        self._templates: dict[str, _Template] = {}
        self._registry_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._fits = 0
        self._snapshot_hits = 0
        self._observations = 0
        self._batch_refreshes = 0
        self._batch_fits = 0
        #: Optional observer ``(key, history_version)`` invoked after
        #: every successful strategy fit (any backend, any fit path) —
        #: the durability plane journals fit freshness through it so
        #: recovery can re-warm exactly the snapshots that were fresh.
        self.on_fit: Callable[[str, int], None] | None = None

    # Subclass hooks -------------------------------------------------------

    @abstractmethod
    def _fit_states(self, states: list[_Template]) -> Iterator[FitOutcome]:
        """Fit a group of stale templates (the caller holds every one of
        their locks).

        Yields one :data:`FitOutcome` per template that was fitted or
        failed in isolation ("cannot fit yet", an
        :class:`~repro.common.errors.EstimationError`).  Any other
        failure (a broken shard, a validation error) is raised only
        after every outcome that did land has been yielded, so the
        caller's bookkeeping is complete when it surfaces.
        """

    def _on_register(self, state: _Template) -> None:
        """Wire a freshly registered template into the backend."""

    def _engine_cache_stats(self) -> CacheStats | None:
        return None

    def _ensure_open(self) -> None:
        """Raise if the service can no longer accept work."""

    # Lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (a no-op for the in-process
        service; the sharded backend drains its worker processes)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # Registration ---------------------------------------------------------

    def register(
        self,
        key: str,
        history: ExecutionHistory | None = None,
        *,
        feature_names: tuple[str, ...] | None = None,
        metrics: tuple[str, ...] = ("time", "money"),
    ) -> ExecutionHistory:
        """Register a template, creating its history unless one is given."""
        self._ensure_open()
        if history is None:
            if feature_names is None:
                raise ValidationError(
                    "register() needs either a history or feature_names"
                )
            history = ExecutionHistory(feature_names, metrics)
        state = _Template(key, history)
        with self._registry_lock:
            if key in self._templates:
                raise ValidationError(f"template {key!r} already registered")
            self._templates[key] = state
        self._on_register(state)
        return history

    def keys(self) -> list[str]:
        with self._registry_lock:
            return sorted(self._templates)

    def history(self, key: str) -> ExecutionHistory:
        return self._state(key).history

    def template_lock(self, key: str) -> threading.RLock:
        """The template's lock, for callers that mutate its history
        outside :meth:`record` (e.g. the platform's executor logging a
        measured run).  Holding it excludes that template's fits — the
        torn-window guarantee extends to external appends — while other
        templates stay unaffected."""
        return self._state(key).lock

    def _state(self, key: str) -> _Template:
        with self._registry_lock:
            try:
                return self._templates[key]
            except KeyError:
                known = ", ".join(sorted(self._templates)) or "<none>"
                raise EstimationError(
                    f"no template registered for {key!r}; have: {known}"
                ) from None

    # Ingest ---------------------------------------------------------------

    def record(
        self, key: str, tick: int, features: dict[str, float], costs: dict[str, float]
    ) -> None:
        """Append one measured execution to the template's history.

        Holds only that template's lock: a tick on one tenant never
        blocks estimation (or ticks) on another.
        """
        state = self._state(key)
        with state.lock:
            state.history.append(tick, features, costs)
        with self._stats_lock:
            self._observations += 1

    def record_external(self, count: int = 1) -> None:
        """Count observations appended outside :meth:`record`.

        The platform's executor logs measured runs directly into the
        history (under the template's lock); it reports them here so the
        ``observations`` counter stays meaningful for every serving path.
        """
        with self._stats_lock:
            self._observations += count

    # Fitting --------------------------------------------------------------

    def _refit(self, keys: list[str]) -> dict[str, FittedCostModel | EstimationError]:
        """The one fit path: bring ``keys`` up to date, return per key its
        current model or its isolated "cannot fit yet" error.

        Takes the template locks in sorted key order, re-checks each
        snapshot under its lock (a template another thread refitted in
        the meantime is a snapshot hit), hands the stale rest to the
        backend's :meth:`_fit_states`, and installs what comes back:
        snapshot, fit counters, load accounting and the ``on_fit``
        observer.  Holding the locks across the fit keeps the captured
        history versions authoritative — an append blocks until the
        group's snapshots are installed.
        """
        states = [self._state(key) for key in sorted(set(keys))]
        outcomes: dict[str, FittedCostModel | EstimationError] = {}
        stale: list[_Template] = []
        locked: list[_Template] = []
        try:
            for state in states:
                state.lock.acquire()
                locked.append(state)
                if state.snapshot is not None and (
                    state.snapshot_version == state.history.version
                ):
                    outcomes[state.key] = state.snapshot
                    with self._stats_lock:
                        self._snapshot_hits += 1
                else:
                    stale.append(state)
            for state, outcome, seconds in self._fit_states(stale) if stale else ():
                outcomes[state.key] = outcome
                if isinstance(outcome, EstimationError):
                    continue
                version = state.history.version
                state.snapshot = outcome
                state.snapshot_version = version
                with self._stats_lock:
                    self._fits += 1
                    state.fits += 1
                    if state.fit_seconds_ewma is None:
                        state.fit_seconds_ewma = seconds
                    else:
                        state.fit_seconds_ewma = (
                            LOAD_EWMA_ALPHA * seconds
                            + (1.0 - LOAD_EWMA_ALPHA) * state.fit_seconds_ewma
                        )
                # Observer fires outside the stats lock (it may take the
                # durability manager's lock; keep the leaf lock a leaf).
                if self.on_fit is not None:
                    self.on_fit(state.key, version)
        finally:
            for state in locked:
                state.lock.release()
        return outcomes

    def model(self, key: str) -> FittedCostModel:
        """The template's fitted cost model, refit only when stale."""
        outcome = self._refit([key])[key]
        if isinstance(outcome, EstimationError):
            raise outcome
        return outcome

    def is_stale(self, key: str) -> bool:
        state = self._state(key)
        with state.lock:
            return (
                state.snapshot is None
                or state.snapshot_version != state.history.version
            )

    def stale_keys(self) -> list[str]:
        return [key for key in self.keys() if self.is_stale(key)]

    def refresh_batch(self, keys: list[str] | None = None) -> BatchRefreshResult:
        """Bring a group of templates (default: all) up to date in one
        coalesced call.

        The stale subset goes to the backend as one group (one
        ``fit_many`` RPC per busy shard on the sharded backend).
        Tenants that cannot be fitted yet come back as typed errors
        alongside the healthy models; fresh templates count as snapshot
        hits, exactly as :meth:`model` would.
        """
        requested = self.keys() if keys is None else list(keys)
        stale = [key for key in requested if self.is_stale(key)]
        outcomes = self._refit(requested)
        models: dict[str, FittedCostModel] = {}
        errors: dict[str, EstimationError] = {}
        for key in requested:
            outcome = outcomes[key]
            if isinstance(outcome, EstimationError):
                errors[key] = outcome
            else:
                models[key] = outcome
        with self._stats_lock:
            self._batch_refreshes += 1
            self._batch_fits += len(stale)
        return BatchRefreshResult(
            models=models, errors=errors, fitted=tuple(sorted(stale))
        )

    # Estimation -----------------------------------------------------------

    def estimate(self, key: str, features) -> dict[str, float]:
        """Predicted cost vector for one candidate's features."""
        return self.model(key).predict(features)

    def estimate_batch(self, key: str, features_matrix) -> dict[str, np.ndarray]:
        """Predicted cost vectors for a whole candidate set (one matmul
        per metric, outside every lock)."""
        return self.model(key).predict_batch(features_matrix)

    # Introspection --------------------------------------------------------

    @property
    def stats(self) -> ServiceStats:
        engine_cache = self._engine_cache_stats()
        with self._stats_lock:
            return ServiceStats(
                templates=len(self._templates),
                fits=self._fits,
                snapshot_hits=self._snapshot_hits,
                observations=self._observations,
                engine_cache=engine_cache,
                batch_refreshes=self._batch_refreshes,
                batch_fits=self._batch_fits,
            )


class EstimationService(BaseEstimationService):
    """Concurrent in-process front for
    :class:`~repro.ires.modelling.Modelling`.

    Parameters
    ----------
    strategy:
        The estimation strategy shared by all templates (default: an
        incremental :class:`~repro.ires.modelling.DreamStrategy`).
        Ignored when ``modelling`` is given.
    modelling:
        An existing Modelling registry to front (the IReS platform hands
        its own in, so platform and service see the same histories).
    """

    def __init__(
        self,
        strategy: EstimationStrategy | None = None,
        modelling: Modelling | None = None,
    ):
        super().__init__()
        if modelling is not None:
            self._modelling = modelling
        else:
            self._modelling = Modelling(strategy or DreamStrategy())

    @property
    def strategy(self) -> EstimationStrategy:
        return self._modelling.strategy

    def _on_register(self, state: _Template) -> None:
        # Registers in Modelling too: platform and service share state.
        self._modelling.register(state.key, state.history)

    def _fit_states(self, states: list[_Template]) -> Iterator[FitOutcome]:
        """Serially, in request order.  A thread pool measured slower
        than this loop (0.56-0.75x on a 2-core host): each fit is a few
        small NumPy solves, too short to amortise thread hand-offs."""
        for state in states:
            started = time.perf_counter()
            try:
                fitted = self._modelling.fit(state.key)
            except EstimationError as error:
                fitted = error
            yield state, fitted, time.perf_counter() - started

    def _engine_cache_stats(self) -> CacheStats | None:
        engine_cache = getattr(self.strategy, "engine_cache", None)
        return None if engine_cache is None else engine_cache.stats

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        s = self.stats
        return (
            f"EstimationService(templates={s.templates}, fits={s.fits}, "
            f"snapshot_hits={s.snapshot_hits}, "
            f"batch_refreshes={s.batch_refreshes})"
        )
