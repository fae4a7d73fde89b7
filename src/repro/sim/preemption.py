"""Preemption semantics: spot instances, reclaim warnings, and re-queued work.

:class:`PreemptibleElasticSimulation` extends
:class:`~repro.sim.elasticity.ElasticServingSimulation` with the lifecycle of
revocable (spot-market) capacity:

``PREEMPTION_WARNING``
    The provider's reclaim notice for one spot instance (drawn from the market's
    Poisson hazard when the instance becomes active, or scripted as a correlated
    :class:`~repro.sim.events.PreemptionBurst`).  The warned instance enters
    *deadline-bounded draining*: it stops accepting new work and has the market's
    ``warning_ms`` grace window to finish its local queue.  Reactive re-provisioning
    fires here — while the victim drains, a replacement instance is already booting —
    either through the elastic controller (``observe_preemption`` treats the loss as
    an uncontrolled scale-down and re-plans) or through the simulator's own
    like-for-like replacement when no controller is attached.

``PREEMPTED``
    The kill at the end of the warning window.  Whatever the victim did not finish is
    re-queued through the central :class:`~repro.sim.pending.PendingQueue` (re-injected
    as same-instant arrival events, so the normal scheduling round redistributes the
    work) and billing stops at the kill — clouds do not charge past the reclaim.
    An instance that drains before the deadline is decommissioned by the ordinary
    draining path and the kill becomes a no-op.

With no market (or a zero-hazard one) this simulator never draws from its market
generator and schedules no preemption events, so it is byte-identical to
:class:`~repro.sim.elasticity.ElasticServingSimulation` — the compatibility contract
the golden suite alongside ``test_multi_model.py`` locks down.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cloud.billing import InstanceUsageLedger
from repro.cloud.config import HeterogeneousConfig
from repro.cloud.spot import MARKET_ON_DEMAND, MARKET_SPOT, SpotMarket
from repro.sim.cluster import Cluster
from repro.sim.elasticity import (
    ElasticServingSimulation,
    ElasticSimulationReport,
    ScaleLogEntry,
    scale_down_priority,
)
from repro.sim.engine import EventQueue
from repro.sim.events import Event, EventKind, PreemptionBurst, ScaleRequest
from repro.sim.metrics import ServingMetrics
from repro.sim.server import ServerInstance
from repro.utils.rng import RngLike, ensure_rng
from repro.workload.query import Query


def initial_spot_server_ids(
    cluster: Cluster, spot_config: HeterogeneousConfig
) -> List[int]:
    """The server ids of a mixed cluster's initial spot portion.

    A mixed-market plan is instantiated as one :class:`~repro.sim.cluster.Cluster`
    over the *combined* (on-demand + spot) configuration; server ids are assigned in
    catalog order with same-type servers contiguous, so within each type block the
    last ``spot_config[type]`` ids are deterministically designated spot.
    """
    ids: List[int] = []
    for type_name, spot_count in spot_config:
        if spot_count <= 0:
            continue
        of_type = [s.server_id for s in cluster if s.type_name == type_name]
        if spot_count > len(of_type):
            raise ValueError(
                f"spot config wants {spot_count} x {type_name} but the cluster "
                f"only has {len(of_type)}"
            )
        ids.extend(of_type[len(of_type) - spot_count :])
    return ids


class PreemptibleElasticSimulation(ElasticServingSimulation):
    """Serve queries on a mixed on-demand + spot cluster under a preemption process.

    Parameters (beyond :class:`~repro.sim.elasticity.ElasticServingSimulation`)
    ----------
    market:
        The :class:`~repro.cloud.spot.SpotMarket` pricing and preempting the spot
        portion.  ``None`` disables the subsystem entirely (byte-identical to the
        plain elastic simulator).
    spot_server_ids:
        Ids of the initial cluster servers purchased on the spot market (see
        :func:`initial_spot_server_ids`).  They bill at the discounted rate from t=0
        and their preemption timers arm immediately.
    market_rng:
        Dedicated generator for preemption-delay draws, separate from the service
        noise stream so arming the market never perturbs service times.
    auto_reprovision:
        When True (default) and no controller is attached, every preemption warning
        emits a like-for-like replacement ``SCALE_UP`` (same type, same market) while
        work remains, hiding part of the startup delay behind the warning window.
        With a controller that implements ``observe_preemption`` the controller owns
        re-provisioning instead.
    """

    def __init__(
        self,
        cluster: Cluster,
        policy,
        *,
        market: Optional[SpotMarket] = None,
        spot_server_ids: Sequence[int] = (),
        market_rng: RngLike = None,
        auto_reprovision: bool = True,
        **kwargs,
    ):
        self.market = market
        self.auto_reprovision = bool(auto_reprovision)
        self._market_rng = ensure_rng(market_rng)
        self._initial_spot_ids = frozenset(int(i) for i in spot_server_ids)
        if self._initial_spot_ids and market is None:
            raise ValueError("spot_server_ids requires a SpotMarket")
        #: per-server purchase market (on-demand unless bought on the spot market)
        self._market_of_id: Dict[int, str] = {}
        #: ids of currently commissioned (or booting) spot instances
        self._spot_ids: Set[int] = set()
        #: servers already holding a reclaim notice — a warned instance is never
        #: warned twice (one warning, one kill, one log entry per reclaim)
        self._warned: Set[int] = set()
        # The voiding/re-queue machinery (_inflight, _killed, _requeued_ids,
        # _outstanding, _voided_dispatches, _forced_replans) lives in the kernel,
        # shared with the unannounced-crash path of the fault injector.
        super().__init__(cluster, policy, **kwargs)
        self._track_inflight = True  # a kill must always find its in-flight work
        if market is not None:
            known = {s.server_id for s in cluster}
            unknown = sorted(self._initial_spot_ids - known)
            if unknown:
                raise ValueError(f"spot_server_ids not in the cluster: {unknown}")
            for server in cluster:
                if server.server_id in self._initial_spot_ids:
                    market[server.type_name]  # raises if the type is not offered

    # -- scripted-event surface ----------------------------------------------------------
    def _validate_scripted(self, event: Event) -> None:
        if event.kind == EventKind.PREEMPTION_WARNING:
            if not isinstance(event.payload, PreemptionBurst):
                raise ValueError(
                    "scripted preemption warnings must carry a PreemptionBurst payload"
                )
            if self.market is None:
                raise ValueError("scripted preemption bursts require a SpotMarket")
            return
        super()._validate_scripted(event)

    # -- lifecycle hooks -----------------------------------------------------------------
    def _open_initial_billing(self, ledger: InstanceUsageLedger, events: EventQueue) -> None:
        for server in self.cluster:
            sid = server.server_id
            if sid in self._initial_spot_ids:
                self._register_spot(sid)
                ledger.start(
                    sid,
                    server.instance_type,
                    0.0,
                    price_multiplier=self.market.price_multiplier(server.type_name),
                    market=MARKET_SPOT,
                    price_schedule=self.market.price_schedule(server.type_name),
                )
                if self._outstanding > 0:
                    self._schedule_preemption(sid, server.type_name, 0.0, events)
            else:
                self._market_of_id[sid] = MARKET_ON_DEMAND
                ledger.start(sid, server.instance_type, 0.0)

    def _start_billing(
        self,
        ledger: InstanceUsageLedger,
        server_id: int,
        itype,
        now: float,
        request: ScaleRequest,
    ) -> None:
        if request.market == MARKET_SPOT:
            if self.market is None:
                raise ValueError(
                    f"spot scale-up for {request.type_name!r} without a SpotMarket"
                )
            self._market_of_id[server_id] = MARKET_SPOT
            ledger.start(
                server_id,
                itype,
                now,
                price_multiplier=self.market.price_multiplier(request.type_name),
                market=MARKET_SPOT,
                price_schedule=self.market.price_schedule(request.type_name),
            )
        else:
            self._market_of_id[server_id] = MARKET_ON_DEMAND
            ledger.start(server_id, itype, now)

    def _after_instance_ready(
        self, server_id: int, type_name: str, now: float, events: EventQueue
    ) -> None:
        super()._after_instance_ready(server_id, type_name, now, events)
        if self._market_of_id.get(server_id) == MARKET_SPOT:
            self._register_spot(server_id)
            # A replacement that becomes ready after the trace is fully served must
            # not re-arm a reclaim timer — the outstanding==0 discard already ended
            # the preemption process, and a fresh timer would drag the billing
            # horizon past the work again.
            if self._outstanding > 0:
                self._schedule_preemption(server_id, type_name, now, events)

    def _register_spot(self, server_id: int) -> None:
        self._market_of_id[server_id] = MARKET_SPOT
        self._spot_ids.add(server_id)

    def _market_label(self, server_id: int) -> str:
        """A crashed spot instance is replaced on the spot market (like-for-like)."""
        return self._market_of_id.get(server_id, MARKET_ON_DEMAND)

    def _idle_timer_kinds(self):
        kinds = super()._idle_timer_kinds()
        if self.market is not None:
            kinds |= {EventKind.PREEMPTION_WARNING, EventKind.PREEMPTED}
        return kinds

    def _schedule_preemption(
        self, server_id: int, type_name: str, now: float, events: EventQueue
    ) -> None:
        delay = self.market.draw_preemption_delay_ms(type_name, now, self._market_rng)
        if delay is not None:
            events.push(
                Event(now + delay, EventKind.PREEMPTION_WARNING, (server_id, type_name))
            )

    # -- event handling ------------------------------------------------------------------
    def _handle(
        self,
        event: Event,
        now: float,
        metrics: ServingMetrics,
        ledger: InstanceUsageLedger,
        scale_log: List[ScaleLogEntry],
        warmup_ids,
        events: EventQueue,
    ) -> Tuple[bool, bool]:
        if event.kind == EventKind.SERVICE_COMPLETION:
            # Voided-completion skips, re-queue bookkeeping, and the idle-timer
            # discard at outstanding==0 all live in the base handler now.
            changed, arrival = super()._handle(
                event, now, metrics, ledger, scale_log, warmup_ids, events
            )
            if changed:
                self._spot_ids.discard(event.payload.server_id)
            return changed, arrival

        if event.kind == EventKind.PREEMPTION_WARNING:
            return self._handle_warning(event.payload, now, events, scale_log), False

        if event.kind == EventKind.PREEMPTED:
            return self._handle_kill(event.payload, now, events, ledger, scale_log), False

        changed, arrival = super()._handle(
            event, now, metrics, ledger, scale_log, warmup_ids, events
        )
        if changed and event.kind in (EventKind.SCALE_DOWN, EventKind.INSTANCE_FAILED):
            # drained-on-the-spot or crashed victims may have been decommissioned
            self._spot_ids.intersection_update(
                s.server_id for s in self.cluster
            )
        return changed, arrival

    # -- preemption lifecycle ------------------------------------------------------------
    def _handle_warning(
        self, payload, now: float, events: EventQueue, scale_log: List[ScaleLogEntry]
    ) -> bool:
        if isinstance(payload, PreemptionBurst):
            changed = False
            for server in self._burst_victims(payload, now):
                changed = (
                    self._warn_server(server, now, events, scale_log, payload.reason)
                    or changed
                )
            return changed
        server_id, _type_name = payload
        if server_id not in self._spot_ids or server_id in self._warned:
            return False  # decommissioned, cancelled, or already holding a notice
        try:
            server = self.cluster.server_by_id(server_id)
        except KeyError:
            return False  # still booting or already removed: nothing to drain
        return self._warn_server(server, now, events, scale_log, "market")

    def _warn_server(
        self,
        server: ServerInstance,
        now: float,
        events: EventQueue,
        scale_log: List[ScaleLogEntry],
        reason: str,
    ) -> bool:
        """Start deadline-bounded draining; returns True when membership changed."""
        self._warned.add(server.server_id)
        was_accepting = server.accepting
        if was_accepting:
            server.start_draining()
        events.push(
            Event(
                now + self.market.warning_ms,
                EventKind.PREEMPTED,
                (server.server_id, server.type_name),
            )
        )
        scale_log.append(
            ScaleLogEntry(now, "preemption_warning", server.type_name, 1, reason)
        )
        # Reactive re-provisioning: only for instances the plan still wanted (an
        # already-draining victim was on its way out anyway) and only while work
        # remains — otherwise the replacement chain would outlive the trace.
        if was_accepting and self._outstanding > 0:
            # Re-provision at the warning instant, not at the next arrival — a
            # reclaim after the last arrival would otherwise never re-plan.
            observed = self._notify_capacity_change(
                "observe_preemption", server.type_name, now, events
            )
            if not observed and self.auto_reprovision:
                events.push(
                    Event(
                        now,
                        EventKind.SCALE_UP,
                        ScaleRequest(
                            server.type_name,
                            1,
                            reason="reprovision",
                            market=MARKET_SPOT,
                        ),
                    )
                )
        return was_accepting

    def _burst_victims(self, burst: PreemptionBurst, now: float) -> List[ServerInstance]:
        """Pick the burst's victims in :func:`select_drain_victims` cost-aware order."""
        spot_servers = [
            s
            for s in self.cluster
            if s.server_id in self._spot_ids
            and s.server_id not in self._warned
            and (burst.type_name is None or s.type_name == burst.type_name)
        ]
        present_types = sorted({s.type_name for s in spot_servers})
        victims: List[ServerInstance] = []
        for type_name in scale_down_priority(
            self.cluster.profiles, self.cluster.model, present_types
        ):
            of_type = [s for s in spot_servers if s.type_name == type_name]
            of_type.sort(key=lambda s: (s.local_queue_depth, s.busy_until_ms, s.server_id))
            victims.extend(of_type)
        return victims[: burst.count]

    def _handle_kill(
        self,
        payload,
        now: float,
        events: EventQueue,
        ledger: InstanceUsageLedger,
        scale_log: List[ScaleLogEntry],
    ) -> bool:
        server_id, type_name = payload
        try:
            server = self.cluster.server_by_id(server_id)
        except KeyError:
            return False  # drained to empty before the deadline: already decommissioned
        self.cluster.remove_server(server_id)
        ledger.stop(server_id, now)
        self._spot_ids.discard(server_id)
        scale_log.append(ScaleLogEntry(now, "preempted", server.type_name, 1))
        requeued = self._inflight.pop(server_id, [])
        for record in requeued:
            # void the scheduled completion and hand the query back to the central
            # queue at the kill instant (same-timestamp arrivals are drained by the
            # current event batch, so the next scheduling round redistributes them)
            # (a hedged query's surviving partner still serves it; re-queueing it
            # too would double-serve)
            if self._void(record, self._killed):
                self._requeued_ids.add(record.query.query_id)
                events.push(Event(now, EventKind.QUERY_ARRIVAL, record.query))
        if requeued:
            scale_log.append(
                ScaleLogEntry(now, "requeue", server.type_name, len(requeued))
            )
        self._forget_server(server_id, now)
        return True


def simulate_preemptible_serving(
    cluster: Cluster,
    policy,
    queries: Sequence[Query],
    *,
    market: Optional[SpotMarket] = None,
    **kwargs,
) -> ElasticSimulationReport:
    """Convenience wrapper mirroring :func:`~repro.sim.elasticity.simulate_elastic_serving`."""
    sim = PreemptibleElasticSimulation(cluster, policy, market=market, **kwargs)
    return sim.run(queries)
