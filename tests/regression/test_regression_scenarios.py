"""Deterministic regression corpus: committed scenarios replayed on every CI run.

``tests/regression/scenarios/*.json`` holds seeded hard cases (and any fuzzer finds
graduated after a fix).  Each file is a complete :class:`ScenarioSpec`; replaying
one re-runs its serving loop and asserts every per-run invariant.  The derived
invariants (QoS monotone in budget, spot-disabled byte-identity, PYTHONHASHSEED
independence) each get a pinned deterministic test as well, and the detector tests
prove the invariant checker actually *fires* on corrupted runs — guarding the
guards.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.fuzz.invariants import (
    ALL_INVARIANTS,
    check_budget_conservation,
    check_completion_causality,
    check_failure_billing,
    check_fault_determinism,
    check_graph_conservation,
    check_gray_billing_partition,
    check_hashseed_independence,
    check_hedge_exactly_once,
    check_ledger_partition_exactness,
    check_outcome_conservation,
    check_probation_liveness,
    check_qos_monotone_in_budget,
    check_query_conservation,
    check_retry_bounded,
    check_round_separation,
    check_spot_disabled_identity,
    check_stage_precedence,
)
from repro.fuzz.runner import run_scenario
from repro.fuzz.spec import ScenarioSpec
from repro.sim.faults import DeadLetterEntry, ShedEntry

SCENARIO_DIR = Path(__file__).parent / "scenarios"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))
#: ``digest_spec`` of every corpus scenario, pinned so refactors of the serving
#: loops are proven byte-identical, not just invariant-clean.
PINNED_DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())


def _load(name: str) -> ScenarioSpec:
    return ScenarioSpec.load(SCENARIO_DIR / name)


class TestCorpusReplay:
    """Every committed scenario replays clean through all per-run invariants."""

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_scenario_holds_all_invariants(self, path):
        result = run_scenario(ScenarioSpec.load(path))
        assert not result.violations, "; ".join(str(v) for v in result.violations)

    def test_corpus_is_committed(self):
        assert len(SCENARIOS) >= 3, "the regression corpus must hold >= 3 scenarios"

    def test_corpus_covers_every_loop(self):
        loops = {ScenarioSpec.load(p).loop for p in SCENARIOS}
        assert loops == {"static", "elastic", "multi_model", "spot", "pipeline"}

    def test_corpus_covers_the_chaos_dimensions(self):
        """At least one committed scenario exercises each chaos knob."""
        specs = [ScenarioSpec.load(p) for p in SCENARIOS]
        assert any(s.faults is not None and s.faults.storms for s in specs)
        assert any(
            s.faults is not None and s.faults.failures_per_hour > 0 for s in specs
        )
        assert any(
            s.faults is not None and s.faults.slowdowns_per_hour > 0 for s in specs
        )
        assert any(s.retry is not None for s in specs)
        assert any(s.admission is not None for s in specs)
        assert any(s.faults is not None and s.spot is not None for s in specs)

    def test_corpus_covers_a_nonzero_time_origin(self):
        assert any(ScenarioSpec.load(p).start_offset_ms > 0 for p in SCENARIOS)

    def test_corpus_covers_the_gray_dimensions(self):
        """At least one committed scenario exercises each gray-failure knob."""
        specs = [ScenarioSpec.load(p) for p in SCENARIOS]
        assert any(
            s.faults is not None and s.faults.zombies_per_hour > 0 for s in specs
        )
        assert any(
            s.faults is not None and s.faults.degradations_per_hour > 0 for s in specs
        )
        assert any(
            s.faults is not None and s.faults.flaky_per_hour > 0 for s in specs
        )
        assert any(s.health is not None for s in specs)
        assert any(s.hedge is not None for s in specs)


class TestPinnedDigests:
    """Every committed scenario replays to its pinned result digest.

    The invariants above accept any conserving run; these pins accept only the
    exact run.  Re-pin a scenario only for a deliberate, documented behaviour
    change.
    """

    def test_every_scenario_is_pinned(self):
        assert set(PINNED_DIGESTS) == {p.stem for p in SCENARIOS}

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_digest_matches_pin(self, path):
        from repro.fuzz.runner import digest_spec

        assert digest_spec(ScenarioSpec.load(path)) == PINNED_DIGESTS[path.stem]


class TestPipelineSimByteIdentity:
    """With no task graphs registered, the pipeline simulator is pure overhead-free
    scaffolding: substituting :class:`PipelineServingSimulation` for
    :class:`MultiModelServingSimulation` must leave every multi-model scenario's
    result digest byte-identical — chaos and sharded scheduling included.  The
    guard pins the ``coordinator.active`` gating in ``_admit`` / ``_handle`` /
    ``run`` and the zero-FP-op ``_row_cost_scale`` default: any stray graph
    bookkeeping on the hot path shows up as a digest mismatch here.
    """

    MULTI_MODEL = [p for p in SCENARIOS if ScenarioSpec.load(p).loop == "multi_model"]

    @pytest.mark.parametrize("path", MULTI_MODEL, ids=lambda p: p.stem)
    def test_no_graph_digest_matches_multi_model(self, path, monkeypatch):
        import repro.fuzz.runner as runner_module
        from repro.fuzz.runner import digest_spec
        from repro.pipeline import PipelineServingSimulation

        spec = ScenarioSpec.load(path)
        baseline = digest_spec(spec)
        monkeypatch.setattr(
            runner_module, "MultiModelServingSimulation", PipelineServingSimulation
        )
        assert digest_spec(spec) == baseline

    def test_corpus_has_chaos_multi_model_coverage(self):
        """The identity above must be exercised under faults, not just calm runs."""
        specs = [ScenarioSpec.load(p) for p in self.MULTI_MODEL]
        assert any(
            s.faults is not None and s.retry is not None and s.admission is not None
            for s in specs
        )


class TestNonZeroTimeOrigin:
    """Non-zero origins through all four loops: the offset twin of each committed
    scenario must replay clean.  Pre-fix, a trace not starting at t=0 tripped the
    estimator's absolute-time window gate (spurious replans) and — via the
    replan-after-repop strand — duplicate same-instant scheduling rounds; the
    ``offset-start-controller`` scenario is the committed reproducer.
    """

    # 30 s: ~20x the longest trace span in the corpus, yet small enough that
    # recurring hazard timers (sampled from t=0; the spot market reclaims every
    # ~2 s) don't spend the whole step budget crossing the dead zone before the
    # first arrival.  The committed ``offset-start-controller`` scenario covers
    # the deep (15-minute) offset.
    OFFSET_MS = 30_000.0

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_offset_twin_holds_all_invariants(self, path):
        spec = ScenarioSpec.load(path)
        twin = dataclasses.replace(
            spec,
            start_offset_ms=spec.start_offset_ms + self.OFFSET_MS,
            label=f"{spec.label}+offset",
        )
        result = run_scenario(twin)
        assert not result.violations, "; ".join(str(v) for v in result.violations)

    def test_offset_twin_completes_the_same_queries(self):
        """Shifting the origin must not change *which* queries finish."""
        spec = _load("static-overload-bursty.json")
        base = run_scenario(spec)
        twin = run_scenario(
            dataclasses.replace(spec, start_offset_ms=self.OFFSET_MS)
        )
        base_ids = sorted(r.query.query_id for r in base.report.metrics.records)
        twin_ids = sorted(r.query.query_id for r in twin.report.metrics.records)
        assert base_ids == twin_ids


class TestDerivedInvariantsDeterministic:
    """One pinned deterministic exercise per derived invariant."""

    def test_qos_monotone_in_budget(self):
        violations = check_qos_monotone_in_budget("RM2", (1.2, 2.0, 3.0, 4.5))
        assert not violations, "; ".join(str(v) for v in violations)

    def test_spot_disabled_byte_identity(self):
        violations = check_spot_disabled_identity(_load("spot-burst-requeue.json"))
        assert not violations, "; ".join(str(v) for v in violations)

    def test_hashseed_independence(self):
        spec = _load("equal-instant-elastic.json")
        violations = check_hashseed_independence(spec)
        assert not violations, "; ".join(str(v) for v in violations)

    def test_fault_determinism(self):
        violations = check_fault_determinism(_load("chaos-elastic-storm-retry.json"))
        assert not violations, "; ".join(str(v) for v in violations)


def _clean_result():
    return run_scenario(_load("equal-instant-elastic.json"))


class TestCheckersDetectCorruption:
    """Feed each per-run checker a deliberately corrupted run: it must fire.

    Without these, a checker that silently degenerates to a no-op would keep the
    whole fuzzing stage green forever.
    """

    @pytest.fixture(scope="class")
    def clean(self):
        return _clean_result()

    def test_query_conservation_flags_double_service(self, clean):
        corrupted = dataclasses.replace(
            clean, completions=clean.completions + (clean.completions[0],)
        )
        assert any(
            v.invariant == "query_conservation"
            for v in check_query_conservation(corrupted)
        )

    def test_query_conservation_flags_lost_query(self, clean):
        corrupted = dataclasses.replace(clean, completions=clean.completions[:-1])
        assert any(
            v.invariant == "query_conservation"
            for v in check_query_conservation(corrupted)
        )

    def test_causality_flags_completion_before_arrival(self, clean):
        rec = clean.completions[0]
        fake = SimpleNamespace(
            query=rec.query,
            server_id=rec.server_id,
            server_type=rec.server_type,
            start_ms=rec.query.arrival_time_ms - 5.0,
            completion_ms=rec.query.arrival_time_ms - 1.0,
            service_ms=rec.service_ms,
        )
        corrupted = dataclasses.replace(
            clean, completions=(fake,) + clean.completions[1:]
        )
        assert any(
            v.invariant == "completion_causality"
            for v in check_completion_causality(corrupted)
        )

    def test_round_separation_flags_equal_instant_rounds(self, clean):
        r0 = clean.rounds[0]
        duplicated = (r0, dataclasses.replace(r0)) + clean.rounds[1:]
        corrupted = dataclasses.replace(clean, rounds=duplicated)
        assert any(
            v.invariant == "round_separation"
            for v in check_round_separation(corrupted)
        )

    def test_budget_conservation_flags_interval_beyond_horizon(self, clean):
        ledger = clean.report.ledger
        horizon = clean.report.billing_horizon_ms
        rogue = dataclasses.replace(
            ledger.intervals[0], start_ms=horizon + 1_000.0, end_ms=horizon + 9_000.0
        )
        fake_ledger = SimpleNamespace(
            intervals=list(ledger.intervals) + [rogue],
            total_cost=ledger.total_cost,
        )
        fake_report = SimpleNamespace(
            ledger=fake_ledger,
            billing_horizon_ms=horizon,
            scale_log=None,
        )
        corrupted = SimpleNamespace(
            spec=clean.spec,
            report=fake_report,
            ledger=fake_ledger,
            queries=clean.queries,
            rounds=clean.rounds,
            completions=clean.completions,
        )
        assert any(
            v.invariant == "budget_conservation"
            for v in check_budget_conservation(corrupted)
        )

    def test_partition_exactness_flags_mistagged_cost(self, clean):
        ledger = clean.report.ledger
        horizon = clean.report.billing_horizon_ms
        skewed_by_tag = dict(ledger.cost_by_tag(horizon))
        first = next(iter(skewed_by_tag))
        skewed_by_tag[first] += 0.25
        fake_ledger = SimpleNamespace(
            intervals=ledger.intervals,
            total_cost=ledger.total_cost,
            cost_by_tag=lambda h: skewed_by_tag,
            cost_by_type=ledger.cost_by_type,
            cost_by_market=ledger.cost_by_market,
            discount_savings=ledger.discount_savings,
        )
        corrupted = SimpleNamespace(
            spec=clean.spec,
            report=SimpleNamespace(ledger=fake_ledger, billing_horizon_ms=horizon),
            ledger=fake_ledger,
            queries=clean.queries,
            rounds=clean.rounds,
            completions=clean.completions,
        )
        assert any(
            v.invariant == "ledger_partition_exactness"
            for v in check_ledger_partition_exactness(corrupted)
        )


def _clean_chaos_result():
    return run_scenario(_load("chaos-elastic-storm-retry.json"))


class TestChaosCheckersDetectCorruption:
    """The chaos-era checkers must also fire on deliberately corrupted runs."""

    @pytest.fixture(scope="class")
    def chaos_clean(self):
        result = _clean_chaos_result()
        assert not result.violations
        assert result.report.instance_failures > 0  # the corpus scenario crashes
        return result

    def test_outcome_conservation_flags_lost_query(self, chaos_clean):
        corrupted = dataclasses.replace(
            chaos_clean, completions=chaos_clean.completions[:-1]
        )
        assert any(
            v.invariant == "outcome_conservation"
            for v in check_outcome_conservation(corrupted)
        )

    def test_outcome_conservation_flags_double_terminal(self, chaos_clean):
        served = chaos_clean.completions[0].query
        report = dataclasses.replace(
            chaos_clean.report,
            shed_queries=list(chaos_clean.report.shed_queries)
            + [ShedEntry(query=served, time_ms=0.0)],
        )
        corrupted = dataclasses.replace(chaos_clean, report=report)
        violations = check_outcome_conservation(corrupted)
        assert any("both served and shed" in v.message for v in violations)

    def test_failure_billing_flags_unlogged_failures(self, chaos_clean):
        report = dataclasses.replace(
            chaos_clean.report,
            scale_log=[
                e for e in chaos_clean.report.scale_log if e.kind != "instance_failed"
            ],
        )
        corrupted = SimpleNamespace(
            spec=chaos_clean.spec,
            report=report,
            ledger=report.ledger,
            queries=chaos_clean.queries,
            rounds=chaos_clean.rounds,
            completions=chaos_clean.completions,
        )
        assert any(
            v.invariant == "failure_billing" for v in check_failure_billing(corrupted)
        )

    def test_failure_billing_flags_interval_billed_past_crash(self, chaos_clean):
        ledger = chaos_clean.report.ledger
        intervals = [
            dataclasses.replace(iv, end_ms=None) if iv.failed else iv
            for iv in ledger.intervals
        ]
        fake_ledger = SimpleNamespace(
            intervals=intervals,
            total_cost=ledger.total_cost,
            cost_by_failure=ledger.cost_by_failure,
            cost_of_failures=ledger.cost_of_failures,
        )
        corrupted = SimpleNamespace(
            spec=chaos_clean.spec,
            report=chaos_clean.report,
            ledger=fake_ledger,
            queries=chaos_clean.queries,
            rounds=chaos_clean.rounds,
            completions=chaos_clean.completions,
        )
        violations = check_failure_billing(corrupted)
        assert any("billed to the horizon" in v.message for v in violations)

    def test_retry_bounded_flags_budget_overrun(self, chaos_clean):
        q = chaos_clean.completions[0].query
        report = dataclasses.replace(
            chaos_clean.report,
            dead_letters=[
                DeadLetterEntry(query=q, time_ms=1.0, reason="crash", attempts=99)
            ],
        )
        corrupted = dataclasses.replace(chaos_clean, report=report)
        violations = check_retry_bounded(corrupted)
        assert any("dead-lettered after" in v.message for v in violations)

    def test_retry_bounded_flags_premature_dead_letter(self, chaos_clean):
        assert chaos_clean.spec.retry.max_attempts > 1
        q = chaos_clean.completions[0].query
        report = dataclasses.replace(
            chaos_clean.report,
            dead_letters=[
                DeadLetterEntry(query=q, time_ms=1.0, reason="crash", attempts=1)
            ],
        )
        corrupted = dataclasses.replace(chaos_clean, report=report)
        violations = check_retry_bounded(corrupted)
        assert any("before exhausting" in v.message for v in violations)

    def test_retry_bounded_flags_retries_without_policy(self, clean=None):
        base = _clean_result()  # a fault-free scenario: no retry policy configured
        report = dataclasses.replace(base.report, retries=5)
        corrupted = dataclasses.replace(base, report=report)
        violations = check_retry_bounded(corrupted)
        assert any("without a retry policy" in v.message for v in violations)


def _clean_pipeline_result():
    return run_scenario(_load("pipeline-diamond-deadlines.json"))


class TestPipelineCheckersDetectCorruption:
    """The task-graph checkers must fire on corrupted pipeline runs.

    Corruptions only swap tuples on the result (completions, graph_outcomes) —
    the shared coordinator is never mutated, so the class-scoped fixture stays
    clean across tests.
    """

    @pytest.fixture(scope="class")
    def pipeline_clean(self):
        result = _clean_pipeline_result()
        assert not result.violations
        assert result.coordinator is not None and result.coordinator.active
        assert any(o.outcome == "served" for o in result.graph_outcomes)
        return result

    @staticmethod
    def _served_child(result):
        """A (runtime, stage, completion) triple for a served non-source stage."""
        by_qid = {rec.query.query_id: rec for rec in result.completions}
        for runtime in result.coordinator.runtimes:
            for stage in runtime.graph.stages:
                rec = by_qid.get(runtime.queries[stage.name].query_id)
                if stage.parents and rec is not None:
                    return runtime, stage, rec
        raise AssertionError("corpus scenario must serve a non-source stage")

    def test_stage_precedence_flags_child_starting_before_parent(
        self, pipeline_clean
    ):
        runtime, stage, rec = self._served_child(pipeline_clean)
        parent_done = max(runtime.served[p] for p in stage.parents)
        fake = SimpleNamespace(
            query=rec.query,
            server_id=rec.server_id,
            server_type=rec.server_type,
            start_ms=parent_done - 5.0,
            completion_ms=rec.completion_ms,
            service_ms=rec.service_ms,
        )
        completions = tuple(
            fake if r.query.query_id == rec.query.query_id else r
            for r in pipeline_clean.completions
        )
        corrupted = dataclasses.replace(pipeline_clean, completions=completions)
        violations = check_stage_precedence(corrupted)
        assert any("before parent" in v.message for v in violations)

    def test_graph_conservation_flags_partition_imbalance(self, pipeline_clean):
        o = next(x for x in pipeline_clean.graph_outcomes if x.outcome == "served")
        broken = dataclasses.replace(o, served_stages=o.served_stages + 1)
        outcomes = tuple(
            broken if x.graph_id == o.graph_id else x
            for x in pipeline_clean.graph_outcomes
        )
        corrupted = dataclasses.replace(pipeline_clean, graph_outcomes=outcomes)
        violations = check_graph_conservation(corrupted)
        assert any("but the graph has" in v.message for v in violations)

    def test_graph_conservation_flags_mislabelled_outcome(self, pipeline_clean):
        o = next(x for x in pipeline_clean.graph_outcomes if x.outcome == "served")
        mislabelled = dataclasses.replace(o, outcome="dead")
        outcomes = tuple(
            mislabelled if x.graph_id == o.graph_id else x
            for x in pipeline_clean.graph_outcomes
        )
        corrupted = dataclasses.replace(pipeline_clean, graph_outcomes=outcomes)
        violations = check_graph_conservation(corrupted)
        assert any("labelled dead with no dead stage" in v.message for v in violations)

    def test_graph_conservation_flags_unknown_label(self, pipeline_clean):
        o = pipeline_clean.graph_outcomes[0]
        outcomes = (dataclasses.replace(o, outcome="mystery"),) + tuple(
            pipeline_clean.graph_outcomes[1:]
        )
        corrupted = dataclasses.replace(pipeline_clean, graph_outcomes=outcomes)
        violations = check_graph_conservation(corrupted)
        assert any("unknown outcome" in v.message for v in violations)


def _clean_gray_result():
    return run_scenario(_load("gray-flaky-hedge-mm.json"))


class TestGrayCheckersDetectCorruption:
    """The gray-era checkers (hedging, gray billing, breaker lifecycle) must fire
    on deliberately corrupted runs, exactly like the chaos-era detectors above.
    """

    @pytest.fixture(scope="class")
    def gray_clean(self):
        result = _clean_gray_result()
        assert not result.violations
        report = result.report
        # The corpus scenario genuinely exercises the machinery under test.
        assert report.hedges_launched > 0
        assert any(e.kind == "quarantine" for e in report.scale_log)
        assert any(e.kind == "breaker_close" for e in report.scale_log)
        return result

    def test_hedge_exactly_once_flags_unresolved_race(self, gray_clean):
        report = dataclasses.replace(
            gray_clean.report, hedges_cancelled=gray_clean.report.hedges_cancelled + 1
        )
        corrupted = dataclasses.replace(gray_clean, report=report)
        violations = check_hedge_exactly_once(corrupted)
        assert any("exactly one loser" in v.message for v in violations)

    def test_hedge_exactly_once_flags_activity_without_policy(self, gray_clean):
        spec = dataclasses.replace(gray_clean.spec, hedge=None)
        corrupted = dataclasses.replace(gray_clean, spec=spec)
        violations = check_hedge_exactly_once(corrupted)
        assert any("without a HedgeSpec" in v.message for v in violations)

    def test_hedge_exactly_once_flags_double_service(self, gray_clean):
        corrupted = dataclasses.replace(
            gray_clean,
            completions=gray_clean.completions + (gray_clean.completions[0],),
        )
        violations = check_hedge_exactly_once(corrupted)
        assert any("served more than once" in v.message for v in violations)

    def test_gray_billing_flags_leaky_partition(self, gray_clean):
        ledger = gray_clean.report.ledger
        horizon = gray_clean.report.billing_horizon_ms
        skewed = dict(ledger.attribution_partition(horizon))
        skewed["healthy"] += 0.25
        fake_ledger = SimpleNamespace(
            attribution_partition=lambda h: skewed,
            total_cost=ledger.total_cost,
            cost_of_failures=ledger.cost_of_failures,
            spans=ledger.spans,
        )
        corrupted = SimpleNamespace(
            spec=gray_clean.spec,
            report=gray_clean.report,
            ledger=fake_ledger,
            queries=gray_clean.queries,
            rounds=gray_clean.rounds,
            completions=gray_clean.completions,
        )
        violations = check_gray_billing_partition(corrupted)
        assert any("partition sums to" in v.message for v in violations)

    def test_gray_billing_flags_bucket_with_dimension_disabled(self, gray_clean):
        ledger = gray_clean.report.ledger
        horizon = gray_clean.report.billing_horizon_ms
        partition = ledger.attribution_partition(horizon)
        assert partition["quarantine"] > 0  # the corpus scenario quarantines
        spec = dataclasses.replace(gray_clean.spec, health=None, hedge=None)
        corrupted = dataclasses.replace(gray_clean, spec=spec)
        violations = check_gray_billing_partition(corrupted)
        assert any("dimension disabled" in v.message for v in violations)

    def test_probation_liveness_flags_lifecycle_without_health(self, gray_clean):
        spec = dataclasses.replace(gray_clean.spec, health=None, hedge=None)
        corrupted = dataclasses.replace(gray_clean, spec=spec)
        violations = check_probation_liveness(corrupted)
        assert any("without a HealthSpec" in v.message for v in violations)

    def test_probation_liveness_flags_probation_without_quarantine(self, gray_clean):
        probation = next(
            e for e in gray_clean.report.scale_log if e.kind == "probation"
        )
        rogue = dataclasses.replace(
            probation, reason="server999", time_ms=probation.time_ms - 1.0
        )
        report = dataclasses.replace(
            gray_clean.report, scale_log=[rogue] + list(gray_clean.report.scale_log)
        )
        corrupted = dataclasses.replace(gray_clean, report=report)
        violations = check_probation_liveness(corrupted)
        assert any("without being quarantined" in v.message for v in violations)

    def test_probation_liveness_flags_whole_fleet_quarantined(self, gray_clean):
        quarantine = next(
            e for e in gray_clean.report.scale_log if e.kind == "quarantine"
        )
        ever = sum(sum(counts) for counts in gray_clean.spec.config_counts)
        flood = [
            dataclasses.replace(quarantine, reason=f"server{900 + i}:flood")
            for i in range(ever)
        ]
        report = dataclasses.replace(
            gray_clean.report, scale_log=flood + list(gray_clean.report.scale_log)
        )
        corrupted = dataclasses.replace(gray_clean, report=report)
        violations = check_probation_liveness(corrupted)
        assert any("no accepting server left" in v.message for v in violations)


class TestInvariantRegistryCoverage:
    """Meta-test: the registry, the properties, and this corpus stay in sync."""

    def test_every_registered_invariant_has_a_deterministic_exercise(self):
        # Per-run invariants are all evaluated by every corpus replay (check_run);
        # derived invariants each have a pinned test above.  This guards renames.
        expected = {
            "query_conservation",
            "completion_causality",
            "round_separation",
            "budget_conservation",
            "ledger_partition_exactness",
            "outcome_conservation",
            "failure_billing",
            "retry_bounded",
            "qos_monotone_in_budget",
            "stage_precedence",
            "graph_conservation",
            "spot_disabled_identity",
            "hashseed_independence",
            "fault_determinism",
            "hedge_exactly_once",
            "gray_billing_partition",
            "probation_liveness",
        }
        assert set(ALL_INVARIANTS) == expected
