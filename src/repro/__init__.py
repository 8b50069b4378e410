"""repro — reproduction of "Dynamic estimation for medical data management
in a cloud federation" (Le, Kantere, d'Orazio; DARLI-AP @ EDBT/ICDT 2019).

Public API, top-down:

* :class:`repro.federation.FederationGateway` — THE entry surface: typed
  envelopes, pinned sessions, pluggable estimation backends.
* :class:`repro.midas.MidasSystem` — the full system of Figure 1 (builds
  the medical environment and hands you its gateway).
* :class:`repro.core.DreamEstimator` — DREAM, Algorithm 1.
* :mod:`repro.experiments` — one driver per paper table/figure.

The engine room (:class:`repro.ires.IReSPlatform`, the serving layer) is
importable for white-box work but constructed only by the gateway; it
provides the stage functions of Figure 1 and the gateway sequences them.

See README.md for a tour.
"""

from repro.core import DreamEstimator, DreamResult, ExecutionHistory, MultiCostModel
from repro.federation import (
    FederationConfig,
    FederationGateway,
    ObserveRequest,
    SubmitRequest,
)
from repro.ires import IReSPlatform, UserPolicy
from repro.midas import MidasSystem

__version__ = "1.1.0"

__all__ = [
    "DreamEstimator",
    "DreamResult",
    "ExecutionHistory",
    "MultiCostModel",
    "FederationConfig",
    "FederationGateway",
    "ObserveRequest",
    "SubmitRequest",
    "IReSPlatform",
    "UserPolicy",
    "MidasSystem",
    "__version__",
]
