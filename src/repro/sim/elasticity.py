"""Elastic serving simulation: provisioning events, draining, and online re-planning.

:class:`ElasticServingSimulation` generalizes :class:`~repro.sim.simulation.ServingSimulation`
to clusters whose membership changes mid-run.  Everything — arrivals, completions, and
the new provisioning events — flows through one :class:`~repro.sim.engine.EventQueue`
under the existing ordering contract (completions before arrivals at equal
timestamps), so elastic runs are exactly as deterministic as static ones.

Lifecycle of a scale action:

``SCALE_UP``
    An :class:`~repro.core.controller.ElasticKairosController` decision (or an explicit
    scripted event) requests ``count`` instances of a type.  Billing starts immediately
    (clouds charge for boot time) and an ``INSTANCE_READY`` event fires after
    ``startup_delay_ms``; only then does the instance join the schedulable set.

``SCALE_DOWN``
    The least-loaded instances of the type stop accepting work (*draining*).  An idle
    instance is decommissioned on the spot; a busy one finishes its local queue and is
    removed at its final completion.  Billing stops at decommission time.

Scheduling happens on an index-stable :class:`~repro.sim.cluster.ClusterView` of the
currently accepting servers, rebuilt (and the policy re-bound) whenever membership
changes, so existing policies work unmodified.

The event loop and every fault, health and hedge handler live in
:class:`~repro.sim.kernel.ServingKernel`; this module supplies the single-cluster
topology and the cost-aware drain order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.core.controller import ElasticKairosController, ReplanDecision
from repro.sim.cluster import Cluster, ClusterView
from repro.sim.engine import EventQueue
from repro.sim.events import Event, EventKind, ScaleRequest
from repro.sim.kernel import KernelReport, ScaleLogEntry, ServingKernel  # noqa: F401
from repro.sim.metrics import ServingMetrics
from repro.sim.server import ServerInstance
from repro.workload.query import Query


def _probe_batches(max_batch: int) -> List[int]:
    """Deterministic geometric batch ladder probing a type's QoS-feasible range."""
    ladder = []
    b = 1
    while b < max_batch:
        ladder.append(b)
        b *= 2
    ladder.append(max_batch)
    return ladder


def drain_cost_efficiency(
    profiles, model, type_name: str, *, probe_batches: Optional[Sequence[int]] = None
) -> float:
    """$/hr freed per unit of QoS-feasible serving capacity lost by draining one instance.

    Higher scores drain first: an expensive type contributing little within-QoS
    throughput frees the most budget per qps given up.  A type that cannot serve any
    probed batch within the model's QoS scores ``inf`` — draining it costs no serving
    capacity at all.  The probe mix is a fixed geometric ladder so the score depends
    only on the profiles, keeping elastic runs deterministic.
    """
    batches = (
        list(probe_batches) if probe_batches is not None else _probe_batches(model.max_batch_size)
    )
    qps = profiles.standalone_qps(model, type_name, batches)
    price = profiles.catalog[type_name].price_per_hour
    if qps <= 0.0:
        return float("inf")
    return price / qps


def scale_down_priority(profiles, model, type_names: Sequence[str]) -> List[str]:
    """Order instance types for draining, most cost-efficient-to-shed first.

    Ties (equal $/hr-per-qps scores) keep catalog order for determinism.
    """
    ranked = sorted(
        type_names,
        key=lambda name: (-drain_cost_efficiency(profiles, model, name),
                          profiles.catalog.index_of(name)),
    )
    return ranked


def select_drain_victims(
    cluster: Cluster, requests: Mapping[str, int], now_ms: float
) -> List[ServerInstance]:
    """Synchronously drain a multi-type shrink in cost-aware order (ROADMAP item).

    Types are processed by :func:`scale_down_priority` (most $/hr freed per lost qps
    first); within a type the cluster's least-loaded-first rule picks the instances.
    The returned list is ordered as drained; all victims are put into draining.

    This is the selection policy in callable form, for scripted scenarios and direct
    cluster surgery.  The event-driven simulators apply the *same* ordering by
    emitting their replan ``SCALE_DOWN`` events in :func:`scale_down_priority` order
    (cancellation of still-booting instances has to happen inside the event handler,
    so they cannot drain synchronously through this helper).
    """
    victims: List[ServerInstance] = []
    for type_name in scale_down_priority(cluster.profiles, cluster.model, list(requests)):
        count = int(requests[type_name])
        if count > 0:
            victims.extend(cluster.drain_servers(type_name, count, now_ms))
    return victims


@dataclass
class ElasticSimulationReport(KernelReport):
    """Everything an elastic serving run produced."""

    metrics: ServingMetrics
    cluster: Cluster
    replans: List[ReplanDecision] = field(default_factory=list)

    def summary(self) -> Dict[str, float]:
        data = dict(self.metrics.summary())
        data["scheduling_rounds"] = float(self.scheduling_rounds)
        data["simulated_duration_ms"] = self.simulated_duration_ms
        data["num_replans"] = float(len(self.replans))
        data["total_cost"] = self.total_cost()
        data["peak_instances"] = float(self.peak_instances)
        return data


class ElasticServingSimulation(ServingKernel):
    """Serve a query stream on a cluster that can grow and shrink mid-run.

    Parameters
    ----------
    cluster:
        The initial cluster (typically built from the controller's initial plan).
    policy:
        A query-distribution policy (:class:`~repro.schedulers.base.SchedulingPolicy`
        protocol).  It is re-bound on every membership change; policies that learn
        online (the Kairos estimator) keep their learned state across re-binds.
    controller:
        Optional :class:`~repro.core.controller.ElasticKairosController`.  Without one
        the simulation is *static through the elastic code path*: same event loop, no
        provisioning — the honest baseline for re-planning comparisons.
    startup_delay_ms:
        Provisioning delay between a scale-up request and the instance becoming
        schedulable (billing covers the delay).
    scripted_events:
        Optional pre-scheduled provisioning events (``SCALE_UP`` / ``SCALE_DOWN`` with a
        :class:`~repro.sim.events.ScaleRequest` payload, or ``INSTANCE_FAILED`` with a
        :class:`~repro.sim.events.CrashStorm` when fault injection is enabled), e.g.
        for tests or scenarios with known maintenance windows.
    faults:
        Optional :class:`~repro.sim.faults.FaultInjector` arming *unannounced* crash
        and transient-slowdown timers on every commissioned instance.  ``None`` (or a
        zero-hazard injector) leaves the run byte-identical to a fault-free one.
    fault_rng:
        Dedicated generator for fault-delay draws, separate from the service noise
        stream so arming injection never perturbs service times.
    retry:
        Optional :class:`~repro.sim.faults.RetryPolicy`: failed attempts (crash-voided
        or response-timed-out dispatches) re-enter the pending queue after exponential
        backoff until the retry budget is spent, then dead-letter.  Without one, a
        crash-voided query dead-letters immediately (the naive no-retry loop).
        Spot preemption keeps its own announced-loss re-queue path (immediate,
        unbounded) — the retry budget governs *unannounced* failures only.
    admission:
        Optional :class:`~repro.sim.faults.AdmissionController` throttling each
        scheduling round's admitted concurrency from observed latency and shedding
        the lowest-value backlog overflow under overload.
    gray_rng, health, hedge:
        Gray-failure delay stream, :class:`~repro.sim.health.HealthConfig` (health
        scoring, quarantine breakers) and :class:`~repro.sim.health.HedgePolicy`
        (hedged dispatch).

    The remaining keywords (``qos_percentile``, ``noise``, ``rng``,
    ``warmup_queries``) are those of :class:`~repro.sim.kernel.ServingKernel`.
    """

    def __init__(self, cluster: Cluster, policy, *, qos_ms: Optional[float] = None, **kwargs):
        self.qos_ms = float(qos_ms) if qos_ms is not None else cluster.model.qos_ms
        super().__init__(cluster, policy, **kwargs)

    def run(self, queries: Sequence[Query]) -> ElasticSimulationReport:
        """Serve ``queries`` once.  Unlike :class:`~repro.sim.simulation.ServingSimulation`
        this driver is one-shot: a run permanently mutates cluster membership and the
        controller's observation history, so repeat runs must build fresh objects."""
        return ElasticSimulationReport(**self._serve(queries))

    # -- topology: one model, one cluster -------------------------------------------------
    @property
    def _catalog(self):
        return self.cluster.config.catalog

    def _scale_target(self, request: ScaleRequest) -> None:
        return None

    def _model_of(self, server_id: int) -> None:
        return None

    def _partition(self, model_name: None) -> Cluster:
        return self.cluster

    def _reserve_server_id(self, model_name: None) -> int:
        return self.cluster.reserve_server_id()

    def _add_server(self, model_name: None, type_name: str, now: float, server_id: int) -> None:
        self.cluster.add_server(type_name, now_ms=now, server_id=server_id)

    def _new_metrics(self) -> ServingMetrics:
        return ServingMetrics(self.qos_ms, self.qos_percentile)

    def _warmup_ids(self, ordered: Sequence[Query]) -> Set[int]:
        return {q.query_id for q in ordered[: self.warmup_queries]}

    def _bind(self, view: ClusterView) -> None:
        self.policy.bind(view, self.qos_ms)

    def _emit_scale_events(
        self, decision: ReplanDecision, now: float, events: EventQueue
    ) -> None:
        for type_name, delta in decision.scale_deltas.items():
            if delta > 0:
                events.push(
                    Event(
                        now,
                        EventKind.SCALE_UP,
                        ScaleRequest(type_name, delta, reason="replan"),
                    )
                )
        # When several types shrink at once, drain the most cost-efficient victims
        # first ($/hr freed per unit of lost QoS-feasible capacity): same-timestamp
        # SCALE_DOWN events process in insertion order, so the priority here decides
        # which types give up booting instances and live servers first.
        shrinking = [name for name, delta in decision.scale_deltas.items() if delta < 0]
        for type_name in scale_down_priority(
            self.cluster.profiles, self.cluster.model, shrinking
        ):
            events.push(
                Event(
                    now,
                    EventKind.SCALE_DOWN,
                    ScaleRequest(
                        type_name, -decision.scale_deltas[type_name], reason="replan"
                    ),
                )
            )


def simulate_elastic_serving(
    cluster: Cluster,
    policy,
    queries: Sequence[Query],
    *,
    controller: Optional[ElasticKairosController] = None,
    **kwargs,
) -> ElasticSimulationReport:
    """Convenience wrapper mirroring :func:`~repro.sim.simulation.simulate_serving`."""
    sim = ElasticServingSimulation(cluster, policy, controller=controller, **kwargs)
    return sim.run(queries)
