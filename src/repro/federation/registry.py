"""String-keyed estimation-backend registry.

The gateway selects its estimation backend by configuration —
``FederationConfig(strategy="dream-incremental")`` — instead of callers
importing and constructing strategy classes.  A backend is a *factory*
``(FederationConfig) -> EstimationStrategy``; the factory reads whatever
fields of the config it cares about (thresholds, cache budget,
``strategy_options``) and returns a ready strategy instance.

Built-in backends:

``dream-incremental``
    The production DREAM path: per-history online engines (version
    cache, one shared factorisation per searched window), pooled in a
    bounded :class:`~repro.core.cache.ModelCache` sized by the config.
``dream-batch``
    The batch reference estimator (full refit per window size) — the
    verification oracle, selectable for A/B runs.
``bml``
    Stock IReS best-of-pool selection.  ``strategy_options
    ["window_multiple"]`` trains on the last ``k * (L + 2)``
    observations (the paper's BML_N/2N/3N baselines); omitted = the
    unlimited-history BML baseline.

Third-party backends register through :func:`register_strategy`; the
registry is process-global (names are how configs travel between
processes) and thread-safe.

The same seam selects the *serving* layer that fronts the strategy.  A
serving backend is a factory ``(FederationConfig, Modelling) ->
service``; built-ins:

``threaded``
    The in-process multi-tenant
    :class:`~repro.serving.service.EstimationService` (serial group
    refits, GIL-bound).
``sharded``
    The shared-nothing
    :class:`~repro.serving.sharded.ShardedEstimationService`: templates
    hash-partitioned across ``config.shard_workers`` worker processes,
    each building its own strategy from ``config.strategy`` *by name*
    (instances never cross the process boundary).
"""

from __future__ import annotations

import threading
from typing import Callable, TYPE_CHECKING

from repro.core.cache import ModelCache
from repro.federation.errors import (
    GatewayConfigError,
    UnknownServingBackendError,
    UnknownStrategyError,
)
from repro.ires.modelling import (
    BmlStrategy,
    DreamStrategy,
    EstimationStrategy,
    Modelling,
)
from repro.ml.selection import ObservationWindow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.config import FederationConfig

StrategyFactory = Callable[["FederationConfig"], EstimationStrategy]
ServingFactory = Callable[["FederationConfig", Modelling], object]

_registry_lock = threading.Lock()
_STRATEGIES: dict[str, StrategyFactory] = {}
_SERVING_BACKENDS: dict[str, ServingFactory] = {}


def register_strategy(
    name: str, factory: StrategyFactory, *, replace: bool = False
) -> None:
    """Register an estimation backend under ``name``.

    ``replace=False`` (default) refuses to overwrite an existing name, so
    a typo cannot silently shadow a built-in.
    """
    if not name or not isinstance(name, str):
        raise GatewayConfigError(f"backend name must be a non-empty string, got {name!r}")
    if not callable(factory):
        raise GatewayConfigError(f"backend factory for {name!r} is not callable")
    with _registry_lock:
        if name in _STRATEGIES and not replace:
            raise GatewayConfigError(
                f"estimation backend {name!r} is already registered "
                "(pass replace=True to override)"
            )
        _STRATEGIES[name] = factory


def unregister_strategy(name: str) -> None:
    """Remove a registered backend (primarily for tests)."""
    with _registry_lock:
        _STRATEGIES.pop(name, None)


def available_strategies() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    with _registry_lock:
        return tuple(sorted(_STRATEGIES))


def create_strategy(config: "FederationConfig") -> EstimationStrategy:
    """Instantiate the backend ``config.strategy`` names."""
    with _registry_lock:
        factory = _STRATEGIES.get(config.strategy)
    if factory is None:
        raise UnknownStrategyError(config.strategy, available_strategies())
    return factory(config)


def register_serving_backend(
    name: str, factory: ServingFactory, *, replace: bool = False
) -> None:
    """Register a serving backend under ``name`` (same rules as
    :func:`register_strategy`: non-empty name, callable factory, no
    silent overwrite)."""
    if not name or not isinstance(name, str):
        raise GatewayConfigError(
            f"serving backend name must be a non-empty string, got {name!r}"
        )
    if not callable(factory):
        raise GatewayConfigError(
            f"serving backend factory for {name!r} is not callable"
        )
    with _registry_lock:
        if name in _SERVING_BACKENDS and not replace:
            raise GatewayConfigError(
                f"serving backend {name!r} is already registered "
                "(pass replace=True to override)"
            )
        _SERVING_BACKENDS[name] = factory


def unregister_serving_backend(name: str) -> None:
    """Remove a registered serving backend (primarily for tests)."""
    with _registry_lock:
        _SERVING_BACKENDS.pop(name, None)


def available_serving_backends() -> tuple[str, ...]:
    """Registered serving backend names, sorted."""
    with _registry_lock:
        return tuple(sorted(_SERVING_BACKENDS))


def create_serving(config: "FederationConfig", modelling: Modelling):
    """Instantiate the serving layer ``config.serving_backend`` names,
    fronting ``modelling`` (the engine room's shared history registry)."""
    with _registry_lock:
        factory = _SERVING_BACKENDS.get(config.serving_backend)
    if factory is None:
        raise UnknownServingBackendError(
            config.serving_backend, available_serving_backends()
        )
    return factory(config, modelling)


# Built-in backends ---------------------------------------------------------


def _engine_cache(config: "FederationConfig") -> ModelCache:
    return ModelCache(capacity=config.cache_capacity)


def _dream_incremental(config: "FederationConfig") -> EstimationStrategy:
    return DreamStrategy(
        r2_required=config.r2_required,
        max_window=config.max_window,
        incremental=True,
        engine_cache=_engine_cache(config),
    )


def _dream_batch(config: "FederationConfig") -> EstimationStrategy:
    return DreamStrategy(
        r2_required=config.r2_required,
        max_window=config.max_window,
        incremental=False,
        engine_cache=_engine_cache(config),
    )


def _bml(config: "FederationConfig") -> EstimationStrategy:
    multiple = config.strategy_options.get("window_multiple")
    if multiple is not None and (not isinstance(multiple, int) or multiple < 1):
        raise GatewayConfigError(
            f"strategy_options['window_multiple'] must be a positive int, "
            f"got {multiple!r}"
        )
    return BmlStrategy(ObservationWindow(multiple))


register_strategy("dream-incremental", _dream_incremental)
register_strategy("dream-batch", _dream_batch)
register_strategy("bml", _bml)


# Built-in serving backends --------------------------------------------------


def _threaded_serving(config: "FederationConfig", modelling: Modelling):
    from repro.serving.service import EstimationService

    return EstimationService(modelling=modelling)


def _sharded_serving(config: "FederationConfig", modelling: Modelling):
    from functools import partial

    from repro.serving.sharded import ShardedEstimationService
    from repro.serving.worker import strategy_from_config

    return ShardedEstimationService(
        strategy_factory=partial(strategy_from_config, config),
        workers=config.shard_workers,
        modelling=modelling,
        rpc_timeout=config.shard_rpc_timeout,
    )


register_serving_backend("threaded", _threaded_serving)
register_serving_backend("sharded", _sharded_serving)
