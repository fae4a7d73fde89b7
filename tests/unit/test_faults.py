"""Tests for the fault-injection / graceful-degradation subsystem.

Covers the seeded fault processes (zero-hazard no-draw contract), the bounded-retry
lifecycle end to end (crash -> void in-flight -> re-queue with backoff -> dead-letter
exhaustion), transient slowdown windows, the AutoThrottle-style admission controller
(EWMA tracking, adaptive limit, shedding valve), the failed/healthy billing
partition, the controller's cooldown-bypassing crash re-plan, and byte-identity per
seed with injection enabled.
"""

import numpy as np
import pytest

from repro.cloud.billing import InstanceUsageLedger
from repro.cloud.config import HeterogeneousConfig
from repro.cloud.instances import DEFAULT_INSTANCE_CATALOG
from repro.core.controller import ElasticKairosController
from repro.schedulers.kairos_policy import KairosPolicy
from repro.sim.cluster import Cluster
from repro.sim.elasticity import ElasticServingSimulation
from repro.sim.events import CrashStorm, Event, EventKind
from repro.sim.faults import (
    AdmissionController,
    FaultInjector,
    FaultProfile,
    RetryPolicy,
    select_shed_victims,
)
from repro.cloud.instances import get_instance_type
from repro.cloud.profiles import LinearLatencyProfile
from repro.sim.server import ServerInstance
from repro.workload.query import Query

pytestmark = pytest.mark.chaos

SEED = 777


def _query(qid, batch, t):
    return Query(query_id=qid, batch_size=batch, arrival_time_ms=t)


def _queries(n, *, batch=64, spacing_ms=25.0, start_ms=0.0):
    return [_query(i, batch, start_ms + i * spacing_ms) for i in range(n)]


def _cluster(profiles, rm2, counts=(2, 0, 2, 0)):
    return Cluster(HeterogeneousConfig(counts, DEFAULT_INSTANCE_CATALOG), rm2, profiles)


def _injector(**kw):
    kw.setdefault("failures_per_hour", 0.0)
    return FaultInjector.uniform(DEFAULT_INSTANCE_CATALOG, **kw)


# -- fault processes ---------------------------------------------------------------------


class TestFaultInjector:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            FaultProfile(type_name="")
        with pytest.raises(ValueError):
            FaultProfile(type_name="x", failures_per_hour=-1.0)
        with pytest.raises(ValueError):
            FaultProfile(type_name="x", slowdown_factor=0.5)
        with pytest.raises(ValueError):
            FaultProfile(type_name="x", slowdown_duration_ms=0.0)

    def test_duplicate_and_mismatched_profiles_rejected(self):
        p = FaultProfile(type_name="a", failures_per_hour=1.0)
        with pytest.raises(ValueError):
            FaultInjector([p, p])
        with pytest.raises(ValueError):
            FaultInjector({"b": p})

    def test_zero_hazard_consumes_no_draws(self):
        """The seed-stability cornerstone: a zero-hazard injector never touches RNG."""
        injector = _injector()
        rng = np.random.default_rng(SEED)
        before = rng.bit_generator.state
        assert injector.draw_failure_delay_ms("g4dn.xlarge", rng) is None
        assert injector.draw_slowdown_delay_ms("g4dn.xlarge", rng) is None
        assert injector.draw_failure_delay_ms("not-profiled", rng) is None
        assert rng.bit_generator.state == before

    def test_positive_hazard_draws_exponential_delays(self):
        injector = _injector(failures_per_hour=60.0, slowdowns_per_hour=30.0)
        rng = np.random.default_rng(SEED)
        crash = injector.draw_failure_delay_ms("g4dn.xlarge", rng)
        slow = injector.draw_slowdown_delay_ms("g4dn.xlarge", rng)
        assert crash is not None and crash > 0
        assert slow is not None and slow > 0
        # identical stream state => identical delays (determinism per seed)
        rng2 = np.random.default_rng(SEED)
        assert injector.draw_failure_delay_ms("g4dn.xlarge", rng2) == crash
        assert injector.draw_slowdown_delay_ms("g4dn.xlarge", rng2) == slow

    def test_container_protocol(self):
        injector = _injector(failures_per_hour=1.0)
        assert len(injector) == len(DEFAULT_INSTANCE_CATALOG.types)
        assert "g4dn.xlarge" in injector
        assert injector["g4dn.xlarge"].failures_per_hour == 1.0
        with pytest.raises(KeyError):
            injector["nonexistent"]


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(response_timeout_ms=0.0)

    def test_exponential_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=4, backoff_base_ms=10.0, backoff_factor=3.0)
        assert policy.backoff_ms(1) == 10.0
        assert policy.backoff_ms(2) == 30.0
        assert policy.backoff_ms(3) == 90.0
        with pytest.raises(ValueError):
            policy.backoff_ms(0)


# -- admission control -------------------------------------------------------------------


class TestAdmissionController:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(target_latency_ms=0.0)
        with pytest.raises(ValueError):
            AdmissionController(target_latency_ms=100.0, min_concurrency=0)
        with pytest.raises(ValueError):
            AdmissionController(
                target_latency_ms=100.0, initial_concurrency=1, min_concurrency=2
            )
        with pytest.raises(ValueError):
            AdmissionController(target_latency_ms=100.0, smoothing=0.0)
        with pytest.raises(ValueError):
            AdmissionController(target_latency_ms=100.0, shed_backlog_factor=0.5)

    def test_fast_completions_open_the_window(self):
        ac = AdmissionController(target_latency_ms=400.0, initial_concurrency=8)
        for _ in range(50):
            ac.observe_latency(100.0)  # 4x faster than target
        assert ac.concurrency_limit > 8

    def test_slow_completions_close_the_window(self):
        ac = AdmissionController(target_latency_ms=400.0, initial_concurrency=8)
        for _ in range(50):
            ac.observe_latency(1600.0)  # 4x slower than target
        assert ac.concurrency_limit < 8
        assert ac.concurrency_limit >= ac.min_concurrency

    def test_limit_clamped_to_bounds(self):
        ac = AdmissionController(
            target_latency_ms=400.0,
            initial_concurrency=8,
            min_concurrency=2,
            max_concurrency=16,
        )
        for _ in range(500):
            ac.observe_latency(1.0)
        assert ac.concurrency_limit == 16
        for _ in range(500):
            ac.observe_latency(100_000.0)
        assert ac.concurrency_limit == 2

    def test_ewma_smooths_one_outlier(self):
        ac = AdmissionController(target_latency_ms=400.0, smoothing=0.3)
        for _ in range(20):
            ac.observe_latency(400.0)
        on_target = ac.concurrency_limit
        ac.observe_latency(40_000.0)  # one catastrophic outlier
        assert ac.concurrency_limit >= on_target // 2  # no whipsaw to the floor

    def test_shedding_valve(self):
        ac = AdmissionController(
            target_latency_ms=400.0, initial_concurrency=4, shed_backlog_factor=2.0
        )
        assert ac.backlog_capacity() == 8
        assert ac.to_shed(8) == 0
        assert ac.to_shed(11) == 3
        ac.record_shed(3)
        assert ac.shed_count == 3

    def test_reset(self):
        ac = AdmissionController(target_latency_ms=400.0, initial_concurrency=8)
        ac.observe_latency(10_000.0)
        ac.record_shed(5)
        ac.reset()
        assert ac.concurrency_limit == 8
        assert ac.latency_ewma_ms is None
        assert ac.shed_count == 0

    def test_select_shed_victims_smallest_batch_first(self):
        pending = [_query(0, 32, 0.0), _query(1, 8, 1.0), _query(2, 128, 2.0), _query(3, 8, 3.0)]
        victims = select_shed_victims(pending, 2)
        # both batch-8 queries go first; within the class, later arrival sheds first
        assert [q.query_id for q in victims] == [3, 1]
        assert select_shed_victims(pending, 0) == []


# -- billing partition -------------------------------------------------------------------


class TestFailureBilling:
    def test_failed_interval_closes_at_crash_instant(self, catalog):
        ledger = InstanceUsageLedger(catalog)
        gpu = catalog["g4dn.xlarge"]
        ledger.start(0, gpu, 0.0)
        ledger.stop(0, 1_800_000.0, failed=True)
        (iv,) = ledger.intervals
        assert iv.failed and iv.end_ms == 1_800_000.0
        # a crashed instance is never billed past its failure instant
        assert ledger.total_cost(3_600_000.0) == pytest.approx(gpu.price_per_hour / 2)

    def test_failed_healthy_split_partitions_the_bill(self, catalog):
        ledger = InstanceUsageLedger(catalog)
        gpu = catalog["g4dn.xlarge"]
        ledger.start(0, gpu, 0.0)
        ledger.stop(0, 900_000.0, failed=True)
        ledger.start(1, gpu, 0.0)
        ledger.stop(1, 1_800_000.0)
        horizon = 3_600_000.0
        split = ledger.cost_by_failure(horizon)
        assert split[True] == pytest.approx(gpu.price_per_hour / 4)
        assert split[False] == pytest.approx(gpu.price_per_hour / 2)
        assert split[True] + split[False] == pytest.approx(ledger.total_cost(horizon))
        assert ledger.cost_of_failures(horizon) == pytest.approx(split[True])

    def test_no_failures_means_empty_partition(self, catalog):
        ledger = InstanceUsageLedger(catalog)
        ledger.start(0, catalog["g4dn.xlarge"], 0.0)
        ledger.stop(0, 1000.0)
        assert ledger.cost_of_failures(2000.0) == 0.0
        assert True not in ledger.cost_by_failure(2000.0)


# -- server slowdown windows -------------------------------------------------------------


def _server(sid=0):
    return ServerInstance(
        sid, get_instance_type("g4dn.xlarge"), LinearLatencyProfile(10.0, 0.05)
    )


class TestServerSlowdown:
    def test_slowdown_multiplies_service_inside_window(self):
        fast, slow = _server(0), _server(1)
        slow.begin_slowdown(3.0, until_ms=10_000.0)
        q = _query(0, 64, 0.0)
        _, _, s_fast = fast.dispatch(q, 0.0)
        _, _, s_slow = slow.dispatch(q, 0.0)
        assert s_slow == pytest.approx(3.0 * s_fast)

    def test_dispatch_after_window_is_unaffected(self):
        a, b = _server(0), _server(1)
        b.begin_slowdown(3.0, until_ms=100.0)
        q = _query(0, 64, 200.0)
        assert b.dispatch(q, 200.0)[2] == pytest.approx(a.dispatch(q, 200.0)[2])

    def test_end_slowdown_restores_speed(self):
        a, b = _server(0), _server(1)
        b.begin_slowdown(2.0, until_ms=1e9)
        b.end_slowdown()
        q = _query(0, 64, 0.0)
        assert b.dispatch(q, 0.0)[2] == pytest.approx(a.dispatch(q, 0.0)[2])

    def test_begin_slowdown_validates_factor(self):
        with pytest.raises(ValueError):
            _server().begin_slowdown(0.5, until_ms=100.0)

    def test_overlapping_windows_replace_not_compound(self):
        """A second window installs its factor outright: 3x then 2x is 2x, not 6x."""
        a, b = _server(0), _server(1)
        b.begin_slowdown(3.0, until_ms=10_000.0)
        b.begin_slowdown(2.0, until_ms=10_000.0)
        q = _query(0, 64, 0.0)
        assert b.dispatch(q, 0.0)[2] == pytest.approx(2.0 * a.dispatch(q, 0.0)[2])

    def test_overlapping_window_may_shorten_the_remaining_degradation(self):
        """Replacement covers the window too: the new (earlier) expiry wins."""
        a, b = _server(0), _server(1)
        b.begin_slowdown(3.0, until_ms=10_000.0)
        b.begin_slowdown(2.0, until_ms=5_000.0)
        q = _query(0, 64, 6_000.0)
        assert b.dispatch(q, 6_000.0)[2] == pytest.approx(a.dispatch(q, 6_000.0)[2])

    def test_dispatch_starting_exactly_at_expiry_is_unaffected(self):
        """The window is half-open: a start at ``until_ms`` is already outside it."""
        a, b = _server(0), _server(1)
        until = 100.0 + b.dispatch_overhead_ms
        b.begin_slowdown(3.0, until_ms=until)
        q = _query(0, 64, 100.0)
        assert b.dispatch(q, 100.0)[2] == pytest.approx(a.dispatch(q, 100.0)[2])

    def test_permanent_degradation_compounds_with_the_transient_window(self):
        """Gray degradation is a separate mechanism: the two factors multiply."""
        a, b = _server(0), _server(1)
        b.begin_slowdown(2.0, until_ms=10_000.0)
        b.begin_degradation(3.0)
        q = _query(0, 64, 0.0)
        assert b.dispatch(q, 0.0)[2] == pytest.approx(6.0 * a.dispatch(q, 0.0)[2])

    def test_repeated_degradation_onsets_compound(self):
        a, b = _server(0), _server(1)
        b.begin_degradation(2.0)
        b.begin_degradation(3.0)
        q = _query(0, 64, 0.0)
        assert b.dispatch(q, 0.0)[2] == pytest.approx(6.0 * a.dispatch(q, 0.0)[2])

    def test_begin_degradation_validates_factor(self):
        with pytest.raises(ValueError):
            _server().begin_degradation(0.9)


# -- controller crash re-plan ------------------------------------------------------------


class TestObserveFailure:
    def make_controller(self, profiles, **kw):
        defaults = dict(
            window_ms=1000.0,
            change_threshold=1.5,
            min_observations=20,
            cooldown_ms=2000.0,
            rng=0,
        )
        defaults.update(kw)
        controller = ElasticKairosController(
            "RM2", 2.5, 100.0, profiles=profiles, **defaults
        )
        controller.initial_plan()
        return controller

    def test_requires_initial_plan(self, profiles):
        controller = ElasticKairosController(
            "RM2", 2.5, 100.0, profiles=profiles, rng=0
        )
        with pytest.raises(RuntimeError):
            controller.observe_failure("g4dn.xlarge", 1000.0)

    def test_rejects_nonpositive_count(self, profiles):
        controller = self.make_controller(profiles)
        with pytest.raises(ValueError):
            controller.observe_failure("g4dn.xlarge", 1000.0, count=0)

    def test_crash_forces_replan_bypassing_cooldown(self, profiles):
        controller = self.make_controller(profiles)
        # inside the post-initial-plan cooldown a load blip would be ignored, but
        # capacity loss must re-plan immediately
        controller.observe_failure("g4dn.xlarge", 1_000.0)
        decision = controller.maybe_replan(1_000.0)
        assert decision is not None
        assert controller.failures == [(1_000.0, "g4dn.xlarge", 1)]

    def test_failures_recorded_separately_from_preemptions(self, profiles):
        controller = self.make_controller(profiles)
        controller.observe_preemption("g4dn.xlarge", 500.0)
        controller.maybe_replan(500.0)
        controller.observe_failure("c5n.2xlarge", 900.0, count=2)
        assert controller.preemptions == [(500.0, "g4dn.xlarge", 1)]
        assert controller.failures == [(900.0, "c5n.2xlarge", 2)]


# -- end-to-end lifecycle through the elastic loop ---------------------------------------


def _storm_sim(profiles, rm2, *, retry, storm_at=200.0, count=2, auto_replace=True, **kw):
    cluster = _cluster(profiles, rm2)
    faults = _injector(auto_replace=auto_replace)
    storm = Event(storm_at, EventKind.INSTANCE_FAILED, CrashStorm(count))
    return ElasticServingSimulation(
        cluster,
        KairosPolicy(),
        faults=faults,
        fault_rng=np.random.default_rng(SEED),
        retry=retry,
        scripted_events=[storm],
        startup_delay_ms=100.0,
        **kw,
    )


class TestCrashLifecycle:
    def test_crash_with_controller_folds_forced_replan_into_report(
        self, profiles, rm2
    ):
        """A controller absorbs the crash: its forced re-plan is acted on and listed,
        and the injector's like-for-like replacement stays out of the way."""
        controller = ElasticKairosController(
            "RM2",
            2.5,
            100.0,
            profiles=profiles,
            window_ms=1000.0,
            min_observations=20,
            cooldown_ms=2000.0,
            rng=0,
        )
        plan = controller.initial_plan()
        sim = ElasticServingSimulation(
            Cluster(plan.selected_config, rm2, profiles),
            KairosPolicy(),
            controller=controller,
            faults=_injector(auto_replace=True),
            fault_rng=np.random.default_rng(SEED),
            retry=RetryPolicy(max_attempts=3),
            scripted_events=[Event(200.0, EventKind.INSTANCE_FAILED, CrashStorm(1))],
            startup_delay_ms=100.0,
        )
        report = sim.run(_queries(40))
        assert report.instance_failures == 1
        assert controller.failures and controller.failures[0][0] == 200.0
        assert any(d.time_ms == 200.0 for d in report.replans)
        assert [d.time_ms for d in report.replans] == sorted(
            d.time_ms for d in report.replans
        )
        assert not any(e.reason == "replace_failed" for e in report.scale_log)

    def test_storm_voids_inflight_and_requeues(self, profiles, rm2):
        """Crash -> in-flight work voided -> re-queue -> served by survivors."""
        sim = _storm_sim(profiles, rm2, retry=RetryPolicy(max_attempts=3))
        report = sim.run(_queries(40))
        assert report.instance_failures == 2
        assert report.completed_all
        assert len(report.metrics) == 40
        assert report.retries > 0  # the voided in-flight work went around again
        assert report.dead_letters == []
        voided = [e for e in report.scale_log if e.kind == "void_inflight"]
        assert voided and all(e.time_ms == 200.0 for e in voided)

    def test_crashed_instances_never_billed_past_failure(self, profiles, rm2):
        sim = _storm_sim(profiles, rm2, retry=RetryPolicy(max_attempts=3))
        report = sim.run(_queries(40))
        failed = [iv for iv in report.ledger.intervals if iv.failed]
        assert len(failed) == 2
        assert all(iv.end_ms == 200.0 for iv in failed)
        split = report.ledger.cost_by_failure(report.billing_horizon_ms)
        assert sum(split.values()) == pytest.approx(report.total_cost())

    def test_retry_budget_exhaustion_dead_letters(self, profiles, rm2):
        """max_attempts=1: the first crash-voided attempt goes straight to dead letters."""
        # a single server so the storm voids everything in flight with no survivors
        cluster = _cluster(profiles, rm2, counts=(1, 0, 0, 0))
        faults = _injector(auto_replace=False)
        storm = Event(30.0, EventKind.INSTANCE_FAILED, CrashStorm(1))
        sim = ElasticServingSimulation(
            cluster,
            KairosPolicy(),
            faults=faults,
            fault_rng=np.random.default_rng(SEED),
            retry=RetryPolicy(max_attempts=1),
            scripted_events=[storm],
        )
        report = sim.run(_queries(3, spacing_ms=5.0))
        assert report.instance_failures == 1
        assert report.dead_letters
        assert all(d.attempts == 1 for d in report.dead_letters)
        assert all(d.reason == "crash" for d in report.dead_letters)
        # conservation: every query is served, dead-lettered, or still pending
        assert (
            len(report.metrics)
            + len(report.dead_letters)
            + len(report.shed_queries)
            + report.unserved_queries
            == 3
        )

    def test_backoff_delays_the_requeue(self, profiles, rm2):
        """The re-queued arrival lands backoff_ms after the crash, not at it."""
        cluster = _cluster(profiles, rm2, counts=(2, 0, 0, 0))
        faults = _injector(auto_replace=False)
        storm = Event(30.0, EventKind.INSTANCE_FAILED, CrashStorm(1))
        base = 500.0
        sim = ElasticServingSimulation(
            cluster,
            KairosPolicy(),
            faults=faults,
            fault_rng=np.random.default_rng(SEED),
            retry=RetryPolicy(max_attempts=3, backoff_base_ms=base),
            scripted_events=[storm],
        )
        report = sim.run(_queries(4, spacing_ms=5.0))
        assert report.completed_all and report.retries > 0
        retried = [r for r in report.metrics.records if r.start_ms >= 30.0 + base]
        assert retried  # at least one attempt started only after the backoff window

    def test_auto_replace_restores_capacity(self, profiles, rm2):
        sim = _storm_sim(profiles, rm2, retry=RetryPolicy(max_attempts=3), auto_replace=True)
        report = sim.run(_queries(40))
        replacements = [
            e for e in report.scale_log if e.kind == "scale_up" and e.reason == "replace_failed"
        ]
        assert sum(e.count for e in replacements) == 2
        assert report.completed_all

    def test_no_auto_replace_serves_with_survivors(self, profiles, rm2):
        sim = _storm_sim(profiles, rm2, retry=RetryPolicy(max_attempts=3), auto_replace=False)
        report = sim.run(_queries(40))
        assert not any(e.reason == "replace_failed" for e in report.scale_log)
        assert report.completed_all  # two survivors absorb the re-queued work

    def test_response_timeout_abandons_and_retries(self, profiles, rm2):
        """A deadline shorter than any service time dead-letters everything."""
        cluster = _cluster(profiles, rm2, counts=(1, 0, 0, 0))
        sim = ElasticServingSimulation(
            cluster,
            KairosPolicy(),
            retry=RetryPolicy(max_attempts=2, backoff_base_ms=1.0, response_timeout_ms=0.5),
        )
        report = sim.run(_queries(3))
        assert len(report.metrics) == 0
        assert len(report.dead_letters) == 3
        assert all(d.reason == "timeout" and d.attempts == 2 for d in report.dead_letters)
        assert report.retries == 3  # one re-queue per query before exhaustion


class TestFaultSeedStability:
    """Runs with injection enabled are byte-identical per seed."""

    def _chaos_report(self, profiles, rm2, seed):
        cluster = _cluster(profiles, rm2)
        controller = None
        faults = _injector(
            failures_per_hour=600.0, slowdowns_per_hour=600.0, slowdown_factor=2.0,
            slowdown_duration_ms=400.0,
        )
        sim = ElasticServingSimulation(
            cluster,
            KairosPolicy(),
            controller=controller,
            faults=faults,
            fault_rng=np.random.default_rng([seed, 505]),
            retry=RetryPolicy(max_attempts=3, backoff_base_ms=20.0),
            admission=AdmissionController(target_latency_ms=400.0),
            startup_delay_ms=100.0,
        )
        return sim.run(_queries(60, spacing_ms=10.0))

    def _signature(self, report):
        return (
            tuple(
                (r.query.query_id, r.server_id, r.start_ms, r.completion_ms, r.service_ms)
                for r in report.metrics.records
            ),
            tuple((e.time_ms, e.kind, e.type_name, e.count) for e in report.scale_log),
            tuple((iv.server_id, iv.start_ms, iv.end_ms, iv.failed) for iv in report.ledger.intervals),
            report.retries,
            tuple(d.query.query_id for d in report.dead_letters),
            tuple(s.query.query_id for s in report.shed_queries),
        )

    def test_byte_identical_across_runs(self, profiles, rm2):
        a = self._chaos_report(profiles, rm2, SEED)
        b = self._chaos_report(profiles, rm2, SEED)
        assert a.instance_failures > 0  # the hazard actually fired
        assert self._signature(a) == self._signature(b)

    def test_different_seed_changes_the_fault_schedule(self, profiles, rm2):
        a = self._chaos_report(profiles, rm2, SEED)
        b = self._chaos_report(profiles, rm2, SEED + 1)
        assert self._signature(a) != self._signature(b)
