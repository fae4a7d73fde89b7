"""Multi-model serving: N co-located models, one event loop, one shared budget.

:class:`MultiModelServingSimulation` generalizes
:class:`~repro.sim.elasticity.ElasticServingSimulation` to a
:class:`~repro.sim.cluster.MultiModelCluster`: arrivals are tagged with the model they
target, scheduling rounds run over the *union* of pending queries and every partition's
accepting instances (the policy sees a
:class:`~repro.sim.cluster.MultiModelClusterView`), metrics aggregate per model against
per-model QoS targets, and the billing ledger tags every instance with its model so
spend is attributable per tenant.

Everything flows through the same :class:`~repro.sim.engine.EventQueue` ordering
contract as the single-model simulators; with exactly one registered model the run is
event-for-event identical to the single-model elastic path (locked down by the golden
and seed-stability tests).

Elasticity carries over: ``SCALE_UP`` / ``SCALE_DOWN`` requests name the model
partition they target, and an optional
:class:`~repro.core.controller.MultiModelElasticController` re-plans the *joint*
allocation of all models under the shared budget.  When a re-plan shrinks several
(model, type) pairs at once, scale-downs are emitted most-cost-efficient-first (the
same $/hr-per-capacity rule as :func:`~repro.sim.elasticity.scale_down_priority`).

The event loop and every fault, health and hedge handler live in
:class:`~repro.sim.kernel.ServingKernel`, shared with the elastic loop; this module
supplies the per-model topology.  Quarantine guards and hedge duplicates stay inside
the affected server's model partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.cluster import Cluster, MultiModelCluster, MultiModelClusterView
from repro.sim.elasticity import drain_cost_efficiency
from repro.sim.engine import EventQueue
from repro.sim.events import Event, EventKind, ScaleRequest
from repro.sim.kernel import KernelReport, ServingKernel
from repro.sim.metrics import MultiModelServingMetrics
from repro.workload.query import Query


@dataclass
class MultiModelSimulationReport(KernelReport):
    """Everything a multi-model serving run produced."""

    metrics: MultiModelServingMetrics
    cluster: MultiModelCluster

    def cost_by_model(self) -> Dict[str, float]:
        """Per-model attributed spend; sums to :meth:`total_cost` (ledger tags)."""
        by_tag = self.ledger.cost_by_tag(self.billing_horizon_ms)
        return {name: cost for name, cost in by_tag.items() if name is not None}

    def all_meet_qos(self) -> bool:
        return self.metrics.all_meet_qos()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-model metric summaries plus run-level totals under ``"__run__"``."""
        data: Dict[str, Dict[str, float]] = dict(self.metrics.summary())
        cost_by_model = self.cost_by_model()
        for name in cost_by_model:
            data[name] = dict(data.get(name, {}))
            data[name]["attributed_cost"] = cost_by_model[name]
        data["__run__"] = {
            "scheduling_rounds": float(self.scheduling_rounds),
            "simulated_duration_ms": self.simulated_duration_ms,
            "num_replans": float(len(self.replans)),
            "total_cost": self.total_cost(),
            "peak_instances": float(self.peak_instances),
        }
        return data


class MultiModelServingSimulation(ServingKernel):
    """Serve an interleaved multi-model query stream on one co-located cluster.

    Parameters are those of :class:`~repro.sim.elasticity.ElasticServingSimulation`
    minus ``qos_ms`` (each model keeps its own QoS target); the policy must
    understand a :class:`~repro.sim.cluster.MultiModelClusterView`
    (:class:`~repro.schedulers.kairos_policy.MultiModelKairosPolicy` is the reference
    implementation).  Scripted scale events and controller decisions address model
    partitions via ``ScaleRequest.model_name`` (``None`` is only legal with a single
    registered model).  Like the elastic simulator this driver is one-shot.
    """

    def run(self, queries: Sequence[Query]) -> MultiModelSimulationReport:
        """Serve ``queries`` once (one-shot, like the elastic simulator)."""
        sole = self.cluster.model_names[0] if len(self.cluster.model_names) == 1 else None
        for q in queries:
            if q.model_name is None and sole is None:
                raise ValueError(
                    f"query {q.query_id} carries no model tag but "
                    f"{len(self.cluster.model_names)} models are co-located"
                )
            if q.model_name is not None and q.model_name not in self.cluster.model_names:
                raise KeyError(
                    f"query {q.query_id} targets unregistered model {q.model_name!r}"
                )
        return MultiModelSimulationReport(**self._serve(queries))

    # -- topology: one partition per model ----------------------------------------------
    @property
    def _catalog(self):
        return self.cluster.profiles.catalog

    def _scale_target(self, request: ScaleRequest) -> str:
        """Resolve the model a scale request targets (sole-model fallback)."""
        if request.model_name is not None:
            self.cluster.cluster_of(request.model_name)  # raises on unknown model
            return request.model_name
        names = self.cluster.model_names
        if len(names) != 1:
            raise ValueError(
                f"scale request for type {request.type_name!r} carries no model tag "
                f"but {len(names)} models are co-located"
            )
        return names[0]

    def _model_of(self, server_id: int) -> str:
        return self.cluster.model_of_server(server_id)

    def _partition(self, model_name: str) -> Cluster:
        return self.cluster.cluster_of(model_name)

    def _reserve_server_id(self, model_name: str) -> int:
        return self.cluster.reserve_server_id(model_name)

    def _add_server(self, model_name: str, type_name: str, now: float, server_id: int) -> None:
        self.cluster.add_server(model_name, type_name, now_ms=now, server_id=server_id)

    def _server_models(self, view: MultiModelClusterView) -> List[str]:
        return view.server_models()

    def _new_metrics(self) -> MultiModelServingMetrics:
        return MultiModelServingMetrics(self.cluster.qos_by_model(), self.qos_percentile)

    def _warmup_ids(self, ordered: Sequence[Query]) -> Set[int]:
        """Warm-up is per model: each model's online learner has its own cold start,
        so the first ``warmup_queries`` arrivals *of each model* are excluded from
        metrics (with one model this reduces to the single-model prefix rule)."""
        warmup_ids: Set[int] = set()
        if self.warmup_queries:
            seen: Dict[Optional[str], int] = {}
            for q in ordered:
                count = seen.get(q.model_name, 0)
                if count < self.warmup_queries:
                    warmup_ids.add(q.query_id)
                    seen[q.model_name] = count + 1
        return warmup_ids

    def _bind(self, view: MultiModelClusterView) -> None:
        self.policy.bind(view)

    def _emit_scale_events(self, decision, now: float, events: EventQueue) -> None:
        """Turn a joint re-plan into per-(model, type) provisioning events.

        Scale-ups go out in model/catalog order; scale-downs across all shrinking
        (model, type) pairs are ordered by drain cost-efficiency (most $/hr freed per
        unit of lost QoS-feasible capacity first), generalizing the single-model rule.
        """
        shrinking: List[Tuple[float, int, str, str, int]] = []
        for order, (model_name, deltas) in enumerate(decision.scale_deltas.items()):
            for type_name, delta in deltas.items():
                if delta > 0:
                    events.push(
                        Event(
                            now,
                            EventKind.SCALE_UP,
                            ScaleRequest(
                                type_name, delta, reason="replan", model_name=model_name
                            ),
                        )
                    )
                elif delta < 0:
                    score = drain_cost_efficiency(
                        self.cluster.profiles,
                        self.cluster.cluster_of(model_name).model,
                        type_name,
                    )
                    tie = self.cluster.profiles.catalog.index_of(type_name)
                    shrinking.append((-score, order, tie, type_name, model_name, -delta))
        for _, _, _, type_name, model_name, count in sorted(
            shrinking, key=lambda item: item[:3]
        ):
            events.push(
                Event(
                    now,
                    EventKind.SCALE_DOWN,
                    ScaleRequest(
                        type_name, count, reason="replan", model_name=model_name
                    ),
                )
            )


def simulate_multi_model_serving(
    cluster: MultiModelCluster,
    policy,
    queries: Sequence[Query],
    *,
    controller=None,
    **kwargs,
) -> MultiModelSimulationReport:
    """Convenience wrapper mirroring :func:`~repro.sim.elasticity.simulate_elastic_serving`."""
    sim = MultiModelServingSimulation(cluster, policy, controller=controller, **kwargs)
    return sim.run(queries)
