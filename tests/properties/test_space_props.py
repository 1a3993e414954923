"""Differential soundness of canonical keys and batched searches.

Two contracts:

* **Key soundness** -- equal canonical keys imply serialized-identical
  :class:`TierResult` under every engine (Markov, analytic, and the
  seeded simulation).  The generator builds model pairs that differ
  only in attributes the canonical form provably drops (failover
  decoration of spare-less tiers), the exact collapse the key relies
  on.
* **Batched-search soundness** -- the default search, which solves
  Markov tiers in vectorized wavefronts (:mod:`repro.batch`), returns
  a byte-identical :class:`DesignOutcome` to the scalar per-candidate
  search on the same space, for every requirement point.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.availability import (AnalyticEngine, FailureModeEntry,
                                MarkovEngine, SimulationEngine,
                                TierAvailabilityModel)
from repro.core import Aved, SearchLimits
from repro.core.serialize import evaluation_to_dict
from repro.errors import InfeasibleError
from repro.lint import canonical_key
from repro.model import ServiceRequirements
from repro.units import Duration

from ..lint.test_space import build_infra, build_service
from ..reference import ScalarMarkovEngine

ENGINES = (MarkovEngine(), AnalyticEngine(),
           SimulationEngine(years=5.0, seed=7))


def result_json(result):
    """Bit-faithful serialization of a TierResult (floats as hex)."""
    return json.dumps({
        "name": result.name,
        "unavailability": result.unavailability.hex(),
        "modes": [[mode.mode, mode.unavailability.hex(),
                   mode.failures_per_year.hex(), mode.used_failover]
                  for mode in result.mode_results],
    }, sort_keys=True)


@st.composite
def spareless_model_pairs(draw):
    """Two models equal in every engine-visible way, decorated apart.

    With ``s == 0`` the failover time and spare susceptibility never
    reach any engine, so the pair must share a canonical key -- and,
    per the soundness contract, every result.
    """
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=n))
    mode_count = draw(st.integers(min_value=1, max_value=3))
    entries = []
    decorated = []
    for index in range(mode_count):
        mtbf = draw(st.floats(min_value=100.0, max_value=20000.0,
                              allow_nan=False))
        mttr = draw(st.floats(min_value=0.1, max_value=100.0,
                              allow_nan=False))
        failover_a = draw(st.floats(min_value=0.0, max_value=10.0,
                                    allow_nan=False))
        failover_b = draw(st.floats(min_value=0.0, max_value=10.0,
                                    allow_nan=False))
        name = "mode%d" % index
        entries.append(FailureModeEntry(
            name=name, mtbf=Duration.hours(mtbf),
            mttr=Duration.hours(mttr),
            failover_time=Duration.hours(failover_a),
            spare_susceptible=draw(st.booleans())))
        decorated.append(FailureModeEntry(
            name=name, mtbf=Duration.hours(mtbf),
            mttr=Duration.hours(mttr),
            failover_time=Duration.hours(failover_b),
            spare_susceptible=draw(st.booleans())))
    crew = draw(st.sampled_from([None, 1, 2]))
    return (TierAvailabilityModel(name="tier", n=n, m=m, s=0,
                                  modes=tuple(entries),
                                  repair_crew=crew),
            TierAvailabilityModel(name="tier", n=n, m=m, s=0,
                                  modes=tuple(decorated),
                                  repair_crew=crew))


class TestKeySoundness:
    @given(spareless_model_pairs())
    @settings(max_examples=30, deadline=None)
    def test_equal_key_implies_equal_results(self, pair):
        first, second = pair
        assert canonical_key(first) == canonical_key(second)
        for engine in ENGINES:
            assert result_json(engine.evaluate_tier(first)) == \
                result_json(engine.evaluate_tier(second))

    @given(spareless_model_pairs())
    @settings(max_examples=30, deadline=None)
    def test_key_is_deterministic(self, pair):
        first, _ = pair
        copy = TierAvailabilityModel(
            name=first.name, n=first.n, m=first.m, s=first.s,
            modes=tuple(first.modes), repair_crew=first.repair_crew)
        assert canonical_key(first) == canonical_key(copy)


class TestBatchedSearchSoundness:
    @given(fast_mttr_hours=st.floats(min_value=0.5, max_value=23.0,
                                     allow_nan=False),
           target_minutes=st.floats(min_value=5.0, max_value=2000.0,
                                    allow_nan=False),
           load=st.floats(min_value=50.0, max_value=450.0,
                          allow_nan=False),
           max_redundancy=st.integers(min_value=1, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_batched_search_equals_scalar_search(
            self, fast_mttr_hours, target_minutes, load, max_redundancy):
        infra = build_infra([
            ("basic", Duration.hours(24)),
            ("fast", Duration.hours(fast_mttr_hours))])
        service = build_service()
        limits = SearchLimits(max_redundancy=max_redundancy)
        requirements = ServiceRequirements(
            load, Duration.minutes(target_minutes))
        outcomes = {}
        for name, engine in (("batched", MarkovEngine()),
                             ("scalar", ScalarMarkovEngine())):
            aved = Aved(infra, service, availability_engine=engine,
                        limits=limits)
            try:
                outcomes[name] = aved.design(requirements)
            except InfeasibleError:
                outcomes[name] = None
        if outcomes["scalar"] is None:
            assert outcomes["batched"] is None
            return
        assert outcomes["batched"] is not None
        assert json.dumps(evaluation_to_dict(
            outcomes["batched"].evaluation), sort_keys=True) == \
            json.dumps(evaluation_to_dict(outcomes["scalar"].evaluation),
                       sort_keys=True)
        assert outcomes["batched"].stats.batched_solves > 0
        assert outcomes["scalar"].stats.batched_solves == 0
