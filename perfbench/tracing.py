"""Layer tracing for the benchmark's traced run.

:func:`install` wraps the public entry points of each layer (listed in
:data:`BOUNDARIES`) from outside the program: the class attribute, or the module
function in every loaded ``repro`` module that holds it, is replaced by a wrapper
that records a span (name, start, end, parent span, pass id) while the tracer is
enabled and otherwise just calls through.  A call into a boundary of the same name
as the innermost open span (a subclass calling ``super()``, a method of one layer
calling another of the same layer) is folded into that span.

Spans of the first traced pass stay in memory (later passes only add to the
per-pass aggregates, so memory does not grow with the run) and :meth:`Tracer.write`
saves them at the end of the run.  A layer's self time is its span minus the time
its child spans cover.  Tracing is installed only in the traced run, never in the
timed one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

PUBLIC = "public"

#: (span name, module, class or None for module functions, attributes or PUBLIC)
BOUNDARIES: Tuple[Tuple[str, str, Optional[str], object], ...] = (
    ("sim.run", "repro.sim.simulation", "ServingSimulation", ("run",)),
    ("sim.run", "repro.sim.elasticity", "ElasticServingSimulation", ("run",)),
    ("sim.run", "repro.sim.multi_model", "MultiModelServingSimulation", ("run",)),
    ("sim.run", "repro.pipeline.simulation", "PipelineServingSimulation", ("run",)),
    ("policy.schedule", "repro.schedulers.kairos_policy", "KairosPolicy", ("schedule",)),
    ("policy.schedule", "repro.schedulers.kairos_policy", "MultiModelKairosPolicy", ("schedule",)),
    ("policy.schedule", "repro.pipeline.policy", "CriticalPathKairosPolicy", ("schedule",)),
    ("cost_matrix.refresh", "repro.core.cost_matrix", "RoundColumnState", ("refresh",)),
    ("cost_matrix.assemble", "repro.core.cost_matrix", None, ("assemble_cost_matrix", "assemble_multi_model")),
    ("solver.solve", "repro.solvers.jonker_volgenant", "JonkerVolgenantSolver", ("solve",)),
    ("planner.plan", "repro.core.kairos", "KairosPlanner", ("plan",)),
    ("planner.enumerate", "repro.core.kairos", "KairosPlanner", ("enumerate",)),
    ("planner.rank", "repro.core.upper_bound", "ThroughputUpperBoundEstimator", ("rank_configs",)),
    ("controller.maybe_replan", "repro.core.controller", "ElasticKairosController", ("maybe_replan",)),
    ("health.monitor", "repro.sim.health", "ServerHealthMonitor", PUBLIC),
    ("billing.ledger", "repro.cloud.billing", "InstanceUsageLedger", PUBLIC),
    ("pipeline.doomed", "repro.pipeline.runtime", "PipelineCoordinator", ("doomed",)),
    ("pipeline.critical_path", "repro.pipeline.graph", "TaskGraph", ("critical_path_remaining", "critical_path_ms")),
    ("latency_model.predict", "repro.core.latency_model", "OnlineLatencyEstimator", ("predict_ms", "predict_many_ms")),
    ("latency_model.observe", "repro.core.latency_model", "OnlineLatencyEstimator", ("observe",)),
    ("cluster.lookup", "repro.sim.cluster", "Cluster", ("server_by_id",)),
    ("cluster.lookup", "repro.sim.cluster", "MultiModelCluster", ("server_by_id",)),
    ("events.push", "repro.sim.engine", "EventQueue", ("push",)),
)


def _round_cap(policy) -> Optional[int]:
    """The policy's cap on the queries one round matches (``max_queries_per_round``)."""
    distributor = getattr(policy, "_distributor", None)
    if distributor is not None:
        return distributor.max_queries_per_round
    return getattr(policy, "_max_queries_per_round", None)


def _observe_schedule(tracer, args, result) -> None:
    # the rows the round matches: the pending queue up to the policy's per-round cap
    rows = len(args[2])
    cap = _round_cap(args[0])
    if cap is not None:
        rows = min(rows, cap)
    tracer.samples["policy.rows"].append(rows)
    tracer.sums["policy.assigned"] += len(result)


def _observe_assemble(tracer, args, result) -> None:
    rows, cols = result.shape
    tracer.sums["cost_matrix.cells"] += rows * cols


def _observe_solve(tracer, args, result) -> None:
    rows, cols = np.shape(args[1])
    tracer.sums["solver.cells"] += rows * cols
    tracer.maxes["solver.cols"] = max(tracer.maxes["solver.cols"], cols)


def _observe_plan(tracer, args, result) -> None:
    tracer.sums["planner.configs"] += result.search_space_size


def _observe_replan(tracer, args, result) -> None:
    if result is not None:
        tracer.sums["controller.replans"] += 1


OBSERVERS: Dict[str, Callable] = {
    "policy.schedule": _observe_schedule,
    "cost_matrix.assemble": _observe_assemble,
    "solver.solve": _observe_solve,
    "planner.plan": _observe_plan,
    "controller.maybe_replan": _observe_replan,
}


class Tracer:
    """Span recorder plus per-pass aggregates (calls, total and self seconds)."""

    def __init__(self) -> None:
        self.enabled = False
        self.keep_spans = False
        self.pass_id = -1
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # open spans: [name, span id, start, seconds covered by child spans]
        self._stack: List[list] = []
        self._next_id = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_pass = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._reset_aggregates()

    def _reset_aggregates(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.sums: Dict[str, float] = defaultdict(float)
        self.maxes: Dict[str, float] = defaultdict(float)

    def begin_pass(self, pass_id: int) -> None:
        self.keep_spans = self.pass_id < 0
        self.pass_id = pass_id
        self._reset_aggregates()
        self.enabled = True

    def end_pass(self) -> None:
        self.enabled = False

    def wrap(self, name: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(name)
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            frame = [name, span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                if self.keep_spans:
                    self._keep(span_id, name_id, stack[-1][1] if stack else -1, frame[2], end)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def _keep(self, span_id: int, name_id: int, parent: int, start: float, end: float) -> None:
        self.span_id.append(span_id)
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_pass.append(self.pass_id)
        self.span_start.append(start)
        self.span_end.append(end)

    def layer_metrics(self) -> Dict[str, float]:
        """This pass's per-layer metrics (timings in host seconds)."""
        rows = self.samples["policy.rows"]
        rounds = self.calls["policy.schedule"]
        return {
            "planner.calls": float(self.calls["planner.plan"]),
            "planner.s": self.total_s["planner.plan"],
            "planner.enumerate_s": self.total_s["planner.enumerate"],
            "planner.rank_s": self.total_s["planner.rank"],
            "planner.configs": self.sums["planner.configs"],
            "controller.calls": float(self.calls["controller.maybe_replan"]),
            "controller.replans": self.sums["controller.replans"],
            "controller.s": self.total_s["controller.maybe_replan"],
            "policy.rounds": float(rounds),
            "policy.s": self.total_s["policy.schedule"],
            "policy.self_s": self.self_s["policy.schedule"],
            "policy.rows_p50": float(np.median(rows)) if rows else 0.0,
            "policy.rows_max": float(max(rows)) if rows else 0.0,
            "policy.single_row_share": sum(1 for r in rows if r == 1) / len(rows) if rows else 0.0,
            "policy.assigned_share": self.sums["policy.assigned"] / sum(rows) if rows else 0.0,
            "cost_matrix.refresh_s": self.total_s["cost_matrix.refresh"],
            "cost_matrix.assemble_s": self.total_s["cost_matrix.assemble"],
            "cost_matrix.builds": float(self.calls["cost_matrix.assemble"]),
            "cost_matrix.cells": self.sums["cost_matrix.cells"],
            "latency_model.predict_calls": float(self.calls["latency_model.predict"]),
            "latency_model.predict_s": self.total_s["latency_model.predict"],
            "latency_model.observe_calls": float(self.calls["latency_model.observe"]),
            "solver.solves": float(self.calls["solver.solve"]),
            "solver.s": self.total_s["solver.solve"],
            "solver.cells": self.sums["solver.cells"],
            "solver.cols_max": self.maxes["solver.cols"],
            "sim.s": self.total_s["sim.run"],
            "sim.self_s": self.self_s["sim.run"],
            "sim.events": float(self.calls["events.push"]),
            "cluster.lookups": float(self.calls["cluster.lookup"]),
            "cluster.lookup_s": self.total_s["cluster.lookup"],
            "health.s": self.total_s["health.monitor"],
            "billing.s": self.total_s["billing.ledger"],
            "pipeline.doomed_calls": float(self.calls["pipeline.doomed"]),
            "pipeline.doomed_s": self.total_s["pipeline.doomed"],
            "pipeline.critical_path_calls": float(self.calls["pipeline.critical_path"]),
        }

    def write(self, path) -> None:
        """Save every recorded span (times relative to the first span's start)."""
        start = np.frombuffer(self.span_start, dtype=float)
        origin = float(start.min()) if len(start) else 0.0
        np.savez(
            path,
            names=np.asarray(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            pass_id=np.frombuffer(self.span_pass, dtype=np.int32),
            start_s=start - origin,
            end_s=np.frombuffer(self.span_end, dtype=float) - origin,
        )


def _targets(module_name: str, class_name: Optional[str], attrs) -> List[Tuple[object, str]]:
    module = importlib.import_module(module_name)
    if class_name is None:
        return [(module, a) for a in attrs]
    cls = getattr(module, class_name)
    if attrs == PUBLIC:
        attrs = [
            a for a, v in vars(cls).items() if not a.startswith("_") and inspect.isfunction(v)
        ]
    return [(cls, a) for a in attrs if a in vars(cls)]


def install(tracer: Tracer) -> int:
    """Wrap every boundary in :data:`BOUNDARIES`; returns the number of wrapped callables."""
    wrapped = 0
    for name, module_name, class_name, attrs in BOUNDARIES:
        for owner, attr in _targets(module_name, class_name, attrs):
            original = getattr(owner, attr)
            traced = tracer.wrap(name, original)
            setattr(owner, attr, traced)
            wrapped += 1
            if class_name is None:
                # callers that imported the function by name hold their own reference
                for module in list(sys.modules.values()):
                    if (
                        module is not None
                        and getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attr, None) is original
                    ):
                        setattr(module, attr, traced)
    return wrapped

