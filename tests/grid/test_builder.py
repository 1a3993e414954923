"""GridBuilder: equivalence, the fault ladder, and crash-safe resume."""

import os
import time

import jsonschema
import pytest

from repro.contracts import MAP_STATUS_SCHEMA
from repro.core.serialize import requirement_map_to_json
from repro.errors import GridError
from repro.fsio import Journal
from repro.grid import (GridBuildInterrupted, GridBuilder, GridFaultPlan,
                        GridPolicy, GridSpec, GridJournal, loads_key)
from repro.resilience.events import (GRID_CELL_CONVICTED,
                                     GRID_JOURNAL_FAULT,
                                     GRID_LEASE_RECLAIMED, GRID_RESUMED,
                                     GRID_SHARD_FAULT,
                                     GRID_SHARD_ISOLATED)

from .conftest import FAST_POLICY, LOADS, no_sleep


def make_builder(evaluator, tmp_path=None, loads=LOADS, shard_size=2,
                 **kwargs):
    spec = GridSpec("web", loads, shard_size=shard_size)
    journal = (str(tmp_path / "grid.jsonl") if tmp_path is not None
               else None)
    kwargs.setdefault("policy", FAST_POLICY)
    return GridBuilder(evaluator, spec, journal_path=journal,
                       sleep=no_sleep, **kwargs)


def done_counts(journal_path, grid_key):
    """shard-done records per loads-key: the reuse-exactly-once proof."""
    state = GridJournal.replay(journal_path, grid_key)
    counts = {}
    for record in Journal(journal_path).replay().records:
        if record.get("grid") == grid_key \
                and record.get("entry") == "shard-done":
            key = record["loads"]
            counts[key] = counts.get(key, 0) + 1
    assert set(counts) >= set(state.done)
    return counts


class TestEquivalence:
    @pytest.mark.parametrize("shard_size", [1, 2, len(LOADS)])
    def test_any_shard_size_matches_the_unsharded_map(
            self, evaluator, baseline_json, shard_size):
        built = make_builder(evaluator, shard_size=shard_size).build()
        assert requirement_map_to_json(built) == baseline_json

    def test_journaled_build_is_identical_too(self, evaluator,
                                              baseline_json, tmp_path):
        built = make_builder(evaluator, tmp_path).build()
        assert requirement_map_to_json(built) == baseline_json


class TestFaultLadder:
    def test_transient_storm_retries_and_converges(
            self, evaluator, baseline_json):
        plan = GridFaultPlan(seed=0, fault_rate=1.0, kinds=("crash",),
                             max_faulty_attempts=1)
        builder = make_builder(evaluator, fault_plan=plan)
        built = builder.build()
        assert requirement_map_to_json(built) == baseline_json
        assert builder.counters["shard_faults"] == 2  # one per shard
        assert builder.convicted == {}
        assert builder.log.counts()[GRID_SHARD_FAULT] == 2

    def test_storm_never_convicts_a_healthy_cell(self, evaluator,
                                                 baseline_json):
        # Every attempt up to the shard-retry budget faults; isolation
        # then re-runs cells individually, where they succeed.
        plan = GridFaultPlan(seed=0, fault_rate=1.0, kinds=("crash",),
                             max_faulty_attempts=FAST_POLICY
                             .shard_retries + 1)
        builder = make_builder(evaluator, fault_plan=plan)
        built = builder.build()
        assert requirement_map_to_json(built) == baseline_json
        assert builder.convicted == {}
        assert builder.counters["shards_isolated"] == 2
        assert builder.log.counts()[GRID_SHARD_ISOLATED] == 2

    def test_poison_cell_is_convicted_alone(self, evaluator):
        plan = GridFaultPlan(seed=0, fault_rate=0.0,
                             poison_loads=frozenset([250.0]))
        builder = make_builder(evaluator, fault_plan=plan)
        built = builder.build()
        assert sorted(builder.convicted) == [250.0]
        built_loads = {point.load for point in built.points}
        # Shard-mate 100.0 (and every other load) survives.
        assert built_loads == {100.0, 400.0, 550.0}
        counts = builder.log.counts()
        assert counts[GRID_CELL_CONVICTED] == 1
        assert builder.counters["shards_isolated"] == 1
        status = builder.status()
        assert status["state"] == "partial"
        assert status["coverage"] == pytest.approx(0.75)
        assert status["convicted_cells"][0]["load"] == 250.0

    def test_status_is_schema_valid_in_every_state(self, evaluator):
        builder = make_builder(evaluator)
        jsonschema.validate(builder.status(), MAP_STATUS_SCHEMA)
        builder.build()
        status = builder.status()
        jsonschema.validate(status, MAP_STATUS_SCHEMA)
        assert status["state"] == "complete"
        assert status["coverage"] == 1.0


class TestResume:
    def test_kill_and_restart_reuses_each_finished_shard_once(
            self, evaluator, baseline_json, tmp_path):
        plan = GridFaultPlan(seed=0, fault_rate=0.0,
                             kill_after_shards=1)
        first = make_builder(evaluator, tmp_path, fault_plan=plan)
        with pytest.raises(GridBuildInterrupted):
            first.build()
        second = make_builder(evaluator, tmp_path)
        built = second.build()
        assert requirement_map_to_json(built) == baseline_json
        assert second.resumed is True
        assert second.counters["shards_reused"] == 1
        assert GRID_RESUMED in second.log.counts()
        counts = done_counts(str(tmp_path / "grid.jsonl"),
                             second.spec.key())
        assert counts == {loads_key(shard.loads): 1
                          for shard in second.spec.shards()}

    def test_torn_tail_kill_resumes_clean(self, evaluator,
                                          baseline_json, tmp_path):
        plan = GridFaultPlan(seed=3, fault_rate=1.0,
                             kinds=("torn-kill",),
                             max_faulty_attempts=1)
        # Every shard's first attempt tears the tail and kills the
        # build; each restart resumes, reclaims the abandoned lease,
        # and gets one shard further.  The storm provably dies out
        # because the journaled attempt counter keeps rising.
        built = None
        restarts = 0
        reclaimed = 0
        for _ in range(8):
            builder = make_builder(evaluator, tmp_path,
                                   fault_plan=plan)
            try:
                built = builder.build()
                break
            except GridBuildInterrupted:
                restarts += 1
        else:
            pytest.fail("torn-kill storm did not die out")
        reclaimed = builder.counters["leases_reclaimed"]
        assert requirement_map_to_json(built) == baseline_json
        assert restarts == 2    # one per shard
        assert reclaimed >= 1
        assert GRID_LEASE_RECLAIMED in builder.log.counts()

    def test_live_foreign_lease_is_not_stolen(self, evaluator,
                                              tmp_path):
        journal = GridJournal(str(tmp_path / "grid.jsonl"),
                              GridSpec("web", LOADS,
                                       shard_size=2).key())
        # A lease held by a live pid that is not us, far from expiry.
        journal.shard_start(0, LOADS[:2], 1, holder=os.getppid(),
                            lease_seconds=3600.0, now=time.time())
        builder = make_builder(evaluator, tmp_path)
        with pytest.raises(GridError, match="still leased"):
            builder.build()

    def test_resharding_rebuilds_moved_shards(self, evaluator,
                                              baseline_json, tmp_path):
        make_builder(evaluator, tmp_path, shard_size=3).build()
        rebuilt = make_builder(evaluator, tmp_path, shard_size=2)
        built = rebuilt.build()
        assert requirement_map_to_json(built) == baseline_json
        assert rebuilt.counters["shards_reused"] == 0

    def test_convictions_are_honored_across_restarts(
            self, evaluator, tmp_path):
        plan = GridFaultPlan(seed=0, fault_rate=0.0,
                             poison_loads=frozenset([250.0]))
        make_builder(evaluator, tmp_path, fault_plan=plan).build()
        second = make_builder(evaluator, tmp_path)
        built = second.build()
        assert 250.0 in second.convicted
        assert 250.0 not in {point.load for point in built.points}
        assert second.counters["shards_reused"] >= 1


class TestDegradedJournal:
    def test_unwritable_journal_degrades_but_the_build_finishes(
            self, evaluator, baseline_json, tmp_path):
        spec = GridSpec("web", LOADS, shard_size=2)
        builder = GridBuilder(
            evaluator, spec, policy=FAST_POLICY, sleep=no_sleep,
            journal_path=str(tmp_path / "no" / "dir" / "grid.jsonl"))
        built = builder.build()
        assert requirement_map_to_json(built) == baseline_json
        assert builder.journal.degraded is True
        assert builder.log.counts()[GRID_JOURNAL_FAULT] >= 1
        assert builder.status()["journal"]["degraded"] is True
