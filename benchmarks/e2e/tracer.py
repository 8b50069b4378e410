"""Span tracer for the end-to-end gateway benchmark.

Records one span per call into each gateway layer by wrapping the
layers' public entry points from benchmark code: nothing under ``src/``
knows it is being traced.  Wrappers are installed only around a timed
phase and removed afterwards, so set-up, checks and untraced episodes
run the unmodified code.

Spans live in a thread-local stack, so work on the front door's prefit
thread forms its own roots.  Each span records its layer, start and end
(``perf_counter_ns``), parent span, thread and the index of the request
the harness was issuing.  A span's *self* time is its duration minus the
durations of its direct children; self times of a root's subtree sum to
the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

#: Span boundaries: (layer, module, attribute path).  Functions that a
#: module imports by name (``plan_sql``, ``profile_plan``) are patched
#: where they are *called*, otherwise the wrapper would never fire.
TARGETS = (
    ("frontdoor", "repro.federation.frontdoor", "FrontDoor.ingest"),
    ("frontdoor", "repro.federation.frontdoor", "FrontDoor.drain"),
    ("gateway", "repro.federation.gateway", "FederationGateway.observe"),
    ("gateway", "repro.federation.gateway", "FederationGateway.submit"),
    ("gateway", "repro.federation.session", "GatewaySession.submit"),
    ("interface", "repro.ires.interface", "Interface.receive"),
    ("plans.bind", "repro.ires.interface", "plan_sql"),
    ("plans.optimize", "repro.ires.interface", "optimize"),
    ("enumerator", "repro.ires.enumerator", "QepEnumerator.enumerate"),
    ("plans.profile", "repro.ires.enumerator", "profile_plan"),
    ("cloud.provision", "repro.cloud.federation", "CloudFederation.provision"),
    ("governance", "repro.governance.policy", "PolicyEngine.constraint_for"),
    ("serving", "repro.serving.service", "BaseEstimationService.model"),
    ("serving", "repro.serving.service", "BaseEstimationService.refresh_batch"),
    ("dream", "repro.ires.modelling", "Modelling.fit"),
    ("optimizer.pareto", "repro.ires.optimizer", "MultiObjectiveOptimizer.pareto_search"),
    ("optimizer.choose", "repro.ires.optimizer", "MultiObjectiveOptimizer.choose"),
    ("engines", "repro.engines.simulate", "MultiEngineSimulator.execute"),
    ("history", "repro.core.history", "ExecutionHistory.append"),
    ("history", "repro.core.history", "ExecutionHistory.observations"),
    # The journal: the durability manager's public event hooks (which
    # also cut the compacting checkpoints) and the segment writer.
    ("wal", "repro.federation.durability", "DurabilityManager.note_row"),
    ("wal", "repro.federation.durability", "DurabilityManager.note_tick"),
    ("wal", "repro.federation.durability", "DurabilityManager.note_audit"),
    ("wal", "repro.federation.durability", "DurabilityManager.note_fit"),
    ("wal", "repro.federation.durability", "DurabilityManager.sync"),
    ("wal", "repro.core.wal", "WalWriter.append"),
    ("wal", "repro.core.wal", "WalWriter.sync"),
    ("wal.checkpoint", "repro.core.wal", "write_checkpoint"),
    ("audit", "repro.governance.audit", "AuditLog.append"),
)

#: Layers in pipeline order (the order of the per-layer report).
LAYERS = tuple(dict.fromkeys(layer for layer, _module, _path in TARGETS))

#: Per-call result measures, accumulated into :attr:`Tracer.measured`.
MEASURES = {
    "QepEnumerator.enumerate": len,
    "WalWriter.append": int,
}

# Span record fields.
LAYER, START, END, PARENT, THREAD, REQUEST, CHILD_NS = range(7)


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.measured: dict[str, float] = defaultdict(float)
        #: Index of the request the harness is issuing; stamped on spans.
        self.request = -1
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # Installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is skipped
        and named in :attr:`missing`."""
        for layer, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, name = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[name]
            except (AttributeError, KeyError):
                if path not in self.missing:
                    self.missing.append(path)
                    print(f"tracer: no {module_name}.{path}; span skipped",
                          file=sys.stderr)
                continue
            setattr(owner, name, self._wrapped(layer, raw, MEASURES.get(path)))
            self._saved.append((owner, name, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _wrapped(self, layer: str, raw, measure):
        if isinstance(raw, staticmethod):
            return staticmethod(self._span(layer, raw.__func__, measure))
        if isinstance(raw, property):
            return property(
                self._span(layer, raw.fget, measure), raw.fset, raw.fdel, raw.__doc__
            )
        return self._span(layer, raw, measure)

    def _span(self, layer: str, fn, measure):
        spans = self.spans
        local = self._local
        clock = time.perf_counter_ns
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = [layer, clock(), 0, parent, get_ident(), self.request, 0]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
                if parent is not None:
                    parent[CHILD_NS] += span[END] - span[START]
            if measure is not None:
                with self._lock:
                    self.measured[layer] += measure(result)
            return result

        return traced

    # Reporting --------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: ``calls`` and ``self_ns`` over every recorded span."""
        totals = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS}
        for span in self.spans:
            entry = totals[span[LAYER]]
            entry["calls"] += 1
            entry["self_ns"] += span[END] - span[START] - span[CHILD_NS]
        return totals

    def root_ns(self, thread: int) -> int:
        """Summed duration of the root spans recorded on ``thread``."""
        return sum(
            span[END] - span[START]
            for span in self.spans
            if span[PARENT] is None and span[THREAD] == thread
        )

    def export(self) -> list[list]:
        """Spans as plain rows ``[layer, start_ns, end_ns, parent_index,
        thread, request]`` (parent ``-1`` for a root)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [
                span[LAYER],
                span[START],
                span[END],
                -1 if span[PARENT] is None else index[id(span[PARENT])],
                span[THREAD],
                span[REQUEST],
            ]
            for span in self.spans
        ]
