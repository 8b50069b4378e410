"""IReS: Intelligent Multi-Engine Resource Scheduler (re-implementation).

The open-source platform the paper builds MIDAS and DREAM on (§2.4,
Figure 1).  Modules mirror the paper's architecture:

* :mod:`repro.ires.interface` — receives the query and the user policy;
* :mod:`repro.ires.modelling` — predicts cost vectors (stock BML
  selection or DREAM);
* :mod:`repro.ires.enumerator` + :mod:`repro.ires.optimizer` — build the
  QEP space, predict costs, compute a Pareto plan set and select the
  final plan with Algorithm 2;
* :mod:`repro.ires.executor` — runs the chosen QEP on the engine
  simulators and feeds the execution history;
* :mod:`repro.ires.platform` — the stage functions over all of the
  above (``receive``, ``enumerate``, ``plan``, ``execute``), which the
  federation gateway sequences.
"""

from repro.ires.policy import UserPolicy
from repro.ires.deployment import Deployment
from repro.ires.interface import Interface, QueryRequest
from repro.ires.modelling import BmlStrategy, DreamStrategy, Modelling, FittedCostModel
from repro.ires.enumerator import QepCandidate, QepEnumerator, QepSpace, vm_configuration_count
from repro.ires.optimizer import MultiObjectiveOptimizer, OptimizerConfig
from repro.ires.executor import Executor
from repro.ires.platform import IReSPlatform, SubmissionResult

__all__ = [
    "UserPolicy",
    "Deployment",
    "Interface",
    "QueryRequest",
    "BmlStrategy",
    "DreamStrategy",
    "Modelling",
    "FittedCostModel",
    "QepCandidate",
    "QepEnumerator",
    "QepSpace",
    "vm_configuration_count",
    "MultiObjectiveOptimizer",
    "OptimizerConfig",
    "Executor",
    "IReSPlatform",
    "SubmissionResult",
]
