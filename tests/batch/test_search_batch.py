"""Batched search == scalar search, end to end through Aved.

The acceptance contract for ``repro.batch``: the default search, which
solves Markov tiers in vectorized wavefronts, serializes to *identical
JSON* as the scalar reference search (a :class:`MarkovEngine` subclass,
which the exact-type batch gate keeps on the per-candidate path),
across serial, supervised (``jobs``), and cached runs.  Engines the
batch gate rejects search on the scalar path and report nothing.
"""

import json

import pytest

from repro.core import Aved
from repro.core.serialize import evaluation_to_dict
from repro.model import ServiceRequirements
from repro.units import Duration

from ..reference import ScalarMarkovEngine

REQUIREMENTS = ServiceRequirements(1000, Duration.minutes(100))


def canonical(outcome):
    return json.dumps(evaluation_to_dict(outcome.evaluation),
                      sort_keys=True)


@pytest.fixture(scope="module")
def scalar_outcome(paper_infra, ecommerce):
    return Aved(paper_infra, ecommerce,
                availability_engine=ScalarMarkovEngine()) \
        .design(REQUIREMENTS)


@pytest.fixture(scope="module")
def batched_outcome(paper_infra, ecommerce):
    return Aved(paper_infra, ecommerce).design(REQUIREMENTS)


class TestSerialBatchIdentity:
    def test_design_json_identical(self, batched_outcome, scalar_outcome):
        assert canonical(batched_outcome) == canonical(scalar_outcome)

    def test_batched_stats_are_populated(self, batched_outcome):
        stats = batched_outcome.stats
        assert stats.batched_wavefronts > 0
        assert stats.batched_solves > 0
        assert stats.batched_solves <= stats.availability_evaluations

    def test_scalar_stats_stay_zero(self, scalar_outcome):
        assert scalar_outcome.stats.batched_wavefronts == 0
        assert scalar_outcome.stats.batched_solves == 0

    def test_no_degradation_on_the_happy_path(self, batched_outcome):
        assert batched_outcome.degradation is None
        assert not batched_outcome.degraded


class TestSupervisedBatchIdentity:
    def test_jobs_1_batched_identical(self, paper_infra, ecommerce,
                                      scalar_outcome):
        batched = Aved(paper_infra, ecommerce,
                       jobs=1).design(REQUIREMENTS)
        assert canonical(batched) == canonical(scalar_outcome)

    def test_jobs_2_batched_identical(self, paper_infra, ecommerce,
                                      scalar_outcome):
        batched = Aved(paper_infra, ecommerce,
                       jobs=2).design(REQUIREMENTS)
        assert canonical(batched) == canonical(scalar_outcome)
        assert batched.stats.parallel_batches > 0


class TestCachedBatchIdentity:
    def test_cold_and_warm_identical(self, tmp_path, paper_infra,
                                     ecommerce, scalar_outcome):
        root = str(tmp_path / "store")
        cold = Aved(paper_infra, ecommerce, cache=root).design(REQUIREMENTS)
        warm = Aved(paper_infra, ecommerce, cache=root).design(REQUIREMENTS)
        assert canonical(cold) == canonical(scalar_outcome)
        assert canonical(warm) == canonical(scalar_outcome)

    def test_batched_store_serves_scalar_runs(self, tmp_path,
                                              paper_infra, ecommerce,
                                              scalar_outcome):
        """A store filled by a batched search must serve the scalar
        cached-engine path: entries are per-model, not per-path."""
        from repro.availability import MarkovEngine
        from repro.cache import TierEvaluationStore, attach_cache
        from repro.core import DesignEvaluator
        root = str(tmp_path / "store")
        Aved(paper_infra, ecommerce, cache=root).design(REQUIREMENTS)
        store = TierEvaluationStore(root)
        evaluator = DesignEvaluator(
            paper_infra, ecommerce,
            attach_cache(MarkovEngine(), store))
        evaluation = evaluator.evaluate(scalar_outcome.design,
                                        REQUIREMENTS)
        assert store.counters["misses"] == 0
        assert store.counters["hits"] == len(scalar_outcome.design.tiers)
        assert json.dumps(evaluation_to_dict(evaluation),
                          sort_keys=True) == canonical(scalar_outcome)

    def test_warm_run_looks_up_each_model_once(self, tmp_path,
                                               paper_infra, ecommerce):
        """The batched path performs one store lookup per model: a
        warm run makes exactly the cold run's lookups, all hits."""
        from repro.cache import TierEvaluationStore
        root = str(tmp_path / "store")
        cold = TierEvaluationStore(root)
        Aved(paper_infra, ecommerce, cache=cold).design(REQUIREMENTS)
        warm = TierEvaluationStore(root)
        Aved(paper_infra, ecommerce, cache=warm).design(REQUIREMENTS)
        assert warm.counters["misses"] == 0
        assert warm.counters["hits"] == \
            cold.counters["hits"] + cold.counters["misses"]


class TestUnbatchableEngines:
    """Engines the batch gate rejects search on the scalar path; that
    is their only path, so nothing is reported."""

    def test_analytic_engine_reports_no_degradation(self, paper_infra,
                                                    ecommerce):
        from repro.availability import AnalyticEngine
        outcome = Aved(paper_infra, ecommerce,
                       availability_engine=AnalyticEngine()) \
            .design(REQUIREMENTS)
        assert outcome.stats.batched_wavefronts == 0
        assert outcome.stats.batched_solves == 0
        assert not outcome.degraded

    def test_fallback_engine_reports_no_degradation(self, paper_infra,
                                                    app_tier_service):
        from repro.resilience import FallbackEngine
        outcome = Aved(paper_infra, app_tier_service,
                       availability_engine=FallbackEngine()) \
            .design(REQUIREMENTS)
        assert outcome.stats.batched_wavefronts == 0
        assert outcome.stats.batched_solves == 0
        assert not outcome.degraded


class TestTable1Regression:
    """Pin the paper's headline numbers on the batched path.

    JSON identity against the scalar run already implies these, but a
    direct pin fails with a number (not a wall of diff) if the batched
    solver ever drifts."""

    def test_app_tier_cost_and_downtime(self, paper_infra,
                                        app_tier_service):
        outcome = Aved(paper_infra, app_tier_service).design(REQUIREMENTS)
        assert outcome.annual_cost == pytest.approx(28320.0)
        assert outcome.downtime_minutes == pytest.approx(46.5, abs=0.5)

    def test_ecommerce_availabilities_pin_scalar_values(
            self, batched_outcome, scalar_outcome):
        scalar_tiers = {r.name: r.unavailability for r in
                        scalar_outcome.evaluation.availability.tiers}
        for result in batched_outcome.evaluation.availability.tiers:
            assert repr(result.unavailability) == \
                repr(scalar_tiers[result.name])


class TestFrontierBatchIdentity:
    def test_tier_frontier_identical(self, paper_infra,
                                     app_tier_service):
        from repro.availability import MarkovEngine
        from repro.core import DesignEvaluator, SearchLimits, TierSearch
        from repro.core.serialize import evaluated_tier_design_to_dict

        def frontier(engine):
            evaluator = DesignEvaluator(paper_infra, app_tier_service,
                                        engine)
            search = TierSearch(evaluator,
                                SearchLimits(max_redundancy=4))
            return [evaluated_tier_design_to_dict(entry)
                    for entry in search.tier_frontier("application",
                                                      1000)]

        assert json.dumps(frontier(MarkovEngine()), sort_keys=True) == \
            json.dumps(frontier(ScalarMarkovEngine()), sort_keys=True)
