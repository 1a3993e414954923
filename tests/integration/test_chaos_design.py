"""Chaos suite: graceful degradation end-to-end through Aved.design().

These tests inject faults into the Markov engine by seeded schedule
and prove the acceptance properties of the resilience runtime: a
design run with 30% injected faults still returns the fault-free
design (with every fallback recorded), and a search killed mid-run
resumes from its checkpoint to the same minimum-cost design.
"""

import pytest

from repro.availability import AnalyticEngine, MarkovEngine
from repro.core import Aved
from repro.errors import EvaluationError
from repro.model import ServiceRequirements
from repro.parallel import ParallelEvaluationRuntime, ParallelPolicy
from repro.resilience import (ChaosEngine, FallbackEngine, FallbackPolicy,
                              FaultPlan, SearchCheckpoint,
                              WorkerFaultPlan)
from repro.units import Duration

from ..reference import ScalarMarkovEngine


REQUIREMENTS = ServiceRequirements(1000, Duration.minutes(100))


def chaotic_markov(plan):
    """A Markov engine with injected faults, distinct breaker identity."""
    engine = ChaosEngine(MarkovEngine(), plan)
    engine.name = "chaos-markov"
    return engine


@pytest.fixture(scope="module")
def fault_free(paper_infra, ecommerce):
    return Aved(paper_infra, ecommerce).design(REQUIREMENTS)


class TestThirtyPercentFaults:
    def test_degraded_chain_reproduces_fault_free_design(
            self, paper_infra, ecommerce, fault_free):
        """The paper's e-commerce service, 30% Markov faults, analytic
        fallback: same design as the fault-free run."""
        chaos = chaotic_markov(FaultPlan(seed=1, error_rate=0.3))
        engine = FallbackEngine(
            engines=[chaos, AnalyticEngine()],
            policy=FallbackPolicy(backoff_base=0.0))
        outcome = Aved(paper_infra, ecommerce,
                       availability_engine=engine).design(REQUIREMENTS)
        assert outcome.evaluation.design.describe() == \
            fault_free.evaluation.design.describe()
        assert outcome.annual_cost == fault_free.annual_cost
        assert outcome.downtime_minutes == pytest.approx(
            fault_free.downtime_minutes, rel=0.02)
        assert chaos.injected["error"] > 0

    def test_every_fallback_is_recorded(self, paper_infra, ecommerce):
        chaos = chaotic_markov(FaultPlan(seed=1, error_rate=0.3))
        engine = FallbackEngine(
            engines=[chaos, AnalyticEngine()],
            policy=FallbackPolicy(backoff_base=0.0))
        outcome = Aved(paper_infra, ecommerce,
                       availability_engine=engine).design(REQUIREMENTS)
        assert outcome.degraded
        report = outcome.degradation
        fallbacks = [d for d in report if d.code == "AVD301"]
        assert fallbacks
        for diagnostic in fallbacks:
            # Cause and engine identity on every record.
            assert "fell back from" in diagnostic.message
            assert "engine" in diagnostic.context
        assert any(d.code == "AVD303" for d in report)  # retries too
        # The final evaluation names the engine that answered per tier.
        engines = dict(outcome.evaluation.engines_used())
        assert set(engines) == {"web", "application", "database"}
        assert set(engines.values()) <= {"chaos-markov", "analytic"}
        assert "degradation:" in outcome.summary()

    @pytest.mark.parametrize("seed", [2, 5])
    def test_markov_replica_fallback_is_exact(self, paper_infra,
                                              ecommerce, fault_free,
                                              seed):
        """With an equal-fidelity replica as fallback, any injection
        schedule yields the exact fault-free result."""
        chaos = chaotic_markov(FaultPlan(seed=seed, error_rate=0.3))
        engine = FallbackEngine(
            engines=[chaos, MarkovEngine()],
            policy=FallbackPolicy(backoff_base=0.0))
        outcome = Aved(paper_infra, ecommerce,
                       availability_engine=engine).design(REQUIREMENTS)
        assert outcome.evaluation.design.describe() == \
            fault_free.evaluation.design.describe()
        assert outcome.annual_cost == fault_free.annual_cost
        assert outcome.downtime_minutes == pytest.approx(
            fault_free.downtime_minutes, rel=1e-12)

    def test_garbage_injection_is_caught(self, paper_infra,
                                         app_tier_service):
        """NaN/out-of-range results never reach the search."""
        chaos = chaotic_markov(FaultPlan(seed=3, nan_rate=0.2,
                                         garbage_rate=0.1))
        engine = FallbackEngine(
            engines=[chaos, MarkovEngine()],
            policy=FallbackPolicy(backoff_base=0.0))
        outcome = Aved(paper_infra, app_tier_service,
                       availability_engine=engine).design(REQUIREMENTS)
        assert 0 <= outcome.downtime_minutes <= 100
        assert chaos.injected.get("nan", 0) \
            + chaos.injected.get("garbage", 0) > 0
        assert any(d.code == "AVD305" for d in outcome.degradation)


def _supervised(paper_infra, service, worker_plan, jobs=2,
                task_retries=2):
    """An Aved over a supervised runtime with process faults injected.

    Runs on the scalar reference engine, so candidates ride to workers
    one per submission (TestWorkerCrashFaultsBatched covers the
    default, shape-chunked transport).
    """
    runtime = ParallelEvaluationRuntime(
        ScalarMarkovEngine(), jobs=jobs, worker_plan=worker_plan,
        policy=ParallelPolicy(task_retries=task_retries,
                              backoff=FallbackPolicy(backoff_base=0.0)))
    return Aved(paper_infra, service,
                availability_engine=ScalarMarkovEngine(),
                parallel=runtime), runtime


class TestWorkerCrashFaults:
    """Process-level chaos: workers die or hang, the search survives."""

    def test_thirty_percent_worker_crashes_reproduce_design(
            self, paper_infra, ecommerce, fault_free):
        """30% of submissions crash their worker (each task at most
        once): the search completes to the fault-free design, with
        every crash and pool restart on the record."""
        plan = WorkerFaultPlan(seed=7, fault_rate=0.3,
                               max_faults_per_task=1)
        engine, runtime = _supervised(paper_infra, ecommerce, plan)
        try:
            outcome = engine.design(REQUIREMENTS)
        finally:
            runtime.close()
        assert outcome.evaluation.design.describe() == \
            fault_free.evaluation.design.describe()
        assert outcome.annual_cost == fault_free.annual_cost
        assert outcome.stats.quarantined == 0
        assert outcome.degraded
        codes = {d.code for d in outcome.degradation}
        assert "AVD403" in codes  # worker crashes observed
        assert "AVD405" in codes  # pool restarted each time
        assert "AVD402" not in codes  # ...but nobody falsely convicted

    def test_poison_candidates_are_quarantined_not_fatal(
            self, paper_infra, ecommerce):
        """Two candidates crash their worker on every attempt: the
        search quarantines them (AVD402) and still completes."""
        plan = WorkerFaultPlan(seed=3, poison_tasks=(5, 17),
                               poison_mode="crash")
        engine, runtime = _supervised(paper_infra, ecommerce, plan,
                                      task_retries=1)
        try:
            outcome = engine.design(REQUIREMENTS)
        finally:
            runtime.close()
        assert len(runtime.quarantine) == 2
        assert outcome.stats.quarantined == 2
        quarantines = [d for d in outcome.degradation
                       if d.code == "AVD402"]
        assert len(quarantines) == 2
        for diagnostic in quarantines:
            assert "worker process crashed" in diagnostic.message
        assert "AVD402" in outcome.summary()

    def test_hanging_worker_is_timed_out(self, paper_infra,
                                         app_tier_service):
        """A candidate whose solve hangs forever is killed by the
        task timeout and quarantined; everything else completes."""
        plan = WorkerFaultPlan(seed=1, poison_tasks=(2,),
                               poison_mode="hang", hang_seconds=60.0)
        engine = Aved(paper_infra, app_tier_service)
        runtime = ParallelEvaluationRuntime(
            engine.evaluator.engine, jobs=2, worker_plan=plan,
            policy=ParallelPolicy(
                task_retries=0, task_timeout=0.5,
                backoff=FallbackPolicy(backoff_base=0.0)))
        supervised = Aved(paper_infra, app_tier_service,
                          parallel=runtime)
        try:
            outcome = supervised.design(REQUIREMENTS)
        finally:
            runtime.close()
        assert outcome.stats.quarantined >= 1
        codes = {d.code for d in outcome.degradation}
        assert "AVD404" in codes
        assert "AVD402" in codes


class TestWorkerCrashFaultsBatched:
    """The same process chaos on the default Markov search, whose
    candidates ride to workers in shape chunks.  The fine-grained
    chunk-fault battery lives in tests/batch/test_chunk_faults.py;
    this leg keeps the end-to-end chaos claim honest in both modes."""

    def test_thirty_percent_worker_crashes_reproduce_design(
            self, paper_infra, ecommerce, fault_free):
        plan = WorkerFaultPlan(seed=7, fault_rate=0.3,
                               max_faults_per_task=1)
        engine = Aved(paper_infra, ecommerce)
        runtime = ParallelEvaluationRuntime(
            engine.evaluator.engine, jobs=2, worker_plan=plan,
            policy=ParallelPolicy(
                task_retries=2,
                backoff=FallbackPolicy(backoff_base=0.0)))
        batched = Aved(paper_infra, ecommerce, parallel=runtime)
        try:
            outcome = batched.design(REQUIREMENTS)
        finally:
            runtime.close()
        assert outcome.evaluation.design.describe() == \
            fault_free.evaluation.design.describe()
        assert outcome.annual_cost == fault_free.annual_cost
        assert outcome.stats.quarantined == 0
        codes = {d.code for d in outcome.degradation}
        assert "AVD403" in codes
        assert "AVD402" not in codes


class TestCheckpointResume:
    def test_killed_search_resumes_to_same_design(
            self, tmp_path, paper_infra, app_tier_service):
        path = str(tmp_path / "search.json")
        baseline = Aved(paper_infra,
                        app_tier_service).design(REQUIREMENTS)
        total_solves = baseline.stats.availability_evaluations

        # Run 1: the engine dies for good after 15 evaluations.
        dying = FallbackEngine(
            engines=[chaotic_markov(FaultPlan(fail_after=15))],
            policy=FallbackPolicy(max_retries=0, backoff_base=0.0))
        crashed = Aved(paper_infra, app_tier_service,
                       availability_engine=dying,
                       checkpoint=SearchCheckpoint(path, interval=5))
        with pytest.raises(EvaluationError):
            crashed.design(REQUIREMENTS)

        # The checkpoint survived the crash with the completed solves.
        loaded = SearchCheckpoint.load(path)
        assert loaded.resumed
        assert loaded.resumed_evaluations == 15

        # Run 2: resume with a healthy engine; prior solves replay.
        resumed = Aved(paper_infra, app_tier_service,
                       checkpoint=loaded).design(REQUIREMENTS)
        assert resumed.stats.resumed_evaluations == 15
        assert resumed.stats.availability_evaluations == \
            total_solves - 15
        assert resumed.annual_cost == baseline.annual_cost
        assert resumed.evaluation.design.describe() == \
            baseline.evaluation.design.describe()
        assert any(d.code == "AVD308" for d in resumed.degradation)
        assert "resumed from checkpoint" in resumed.summary()

    def test_completed_run_resumes_without_solves(
            self, tmp_path, paper_infra, ecommerce):
        path = str(tmp_path / "search.json")
        first = Aved(paper_infra, ecommerce,
                     checkpoint=SearchCheckpoint(path)) \
            .design(REQUIREMENTS)
        second = Aved(paper_infra, ecommerce,
                      checkpoint=SearchCheckpoint.load(path)) \
            .design(REQUIREMENTS)
        assert second.stats.availability_evaluations == 0
        assert second.stats.resumed_frontiers == 3
        assert second.annual_cost == first.annual_cost
