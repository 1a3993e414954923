"""Grid journal durability and replay semantics."""

import json
import os

import pytest

from repro.grid import (GridJournal, lease_abandoned, loads_key)
from repro.resilience.events import GRID_JOURNAL_FAULT, DegradationLog

KEY = "grid-abc"


@pytest.fixture
def journal(tmp_path):
    return GridJournal(str(tmp_path / "grid.jsonl"), KEY)


def replay(journal):
    return GridJournal.replay(journal.path, journal.grid_key)


class TestRoundtrip:
    def test_done_shard_replays_with_its_points(self, journal):
        points = [{"load": 1.0, "annual_cost": 5.0}]
        assert journal.shard_start(0, (1.0, 2.0), 1, os.getpid(),
                                   300.0, now=100.0)
        assert journal.shard_done(0, (1.0, 2.0), points)
        state = replay(journal)
        assert state.done == {loads_key((1.0, 2.0)): points}
        assert state.abandoned == {}
        assert state.entries == 2
        assert state.skipped == 0

    def test_start_without_done_is_an_abandoned_lease(self, journal):
        journal.shard_start(3, (9.0,), 2, 4242, 60.0, now=100.0)
        state = replay(journal)
        assert state.done == {}
        record = state.abandoned[loads_key((9.0,))]
        assert record["holder"] == 4242
        assert record["attempt"] == 2
        assert record["deadline"] == 160.0

    def test_convictions_replay(self, journal):
        journal.cell_convicted(7.0, "poison")
        assert replay(journal).convicted == {7.0: "poison"}

    def test_missing_file_replays_empty(self, tmp_path):
        state = GridJournal.replay(str(tmp_path / "nope.jsonl"), KEY)
        assert state.done == {} and state.entries == 0


class TestFaultTolerance:
    def test_torn_tail_is_skipped_without_losing_prior_records(
            self, journal):
        journal.shard_done(0, (1.0,), [{"load": 1.0}])
        journal.tear_tail()
        state = replay(journal)
        assert loads_key((1.0,)) in state.done
        assert state.skipped == 1

    def test_append_after_torn_tail_is_kept(self, journal):
        journal.shard_done(0, (1.0,), [{"load": 1.0}])
        journal.tear_tail()
        journal.shard_done(1, (2.0,), [{"load": 2.0}])
        state = replay(journal)
        assert list(state.done) == [loads_key((1.0,)),
                                    loads_key((2.0,))]
        assert state.skipped == 1

    def test_foreign_grid_records_are_counted_not_merged(
            self, journal, tmp_path):
        other = GridJournal(journal.path, "other-grid")
        other.shard_done(0, (1.0,), [{"load": 1.0}])
        journal.shard_done(1, (2.0,), [{"load": 2.0}])
        state = replay(journal)
        assert list(state.done) == [loads_key((2.0,))]
        assert state.foreign == 1

    def test_garbage_lines_are_skipped(self, journal):
        journal.shard_done(0, (1.0,), [])
        with open(journal.path, "a") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"entry": "shard-done"}) + "\n")
        state = replay(journal)
        assert loads_key((1.0,)) in state.done
        assert state.skipped == 2

    def test_unwritable_journal_degrades_with_avd905(self, tmp_path):
        log = DegradationLog()
        journal = GridJournal(str(tmp_path / "no" / "dir" / "j.jsonl"),
                              KEY, log)
        assert journal.append("shard-start", shard=0) is False
        assert journal.degraded is True
        assert journal.status() == {"enabled": True, "degraded": True,
                                    "appends": 0}
        assert log.counts().get(GRID_JOURNAL_FAULT) == 1


class TestLeaseAbandoned:
    def record(self, **overrides):
        base = {"holder": 999999999, "deadline": 200.0, "attempt": 1}
        base.update(overrides)
        return base

    def test_dead_holder_is_reclaimed(self):
        abandoned, why = lease_abandoned(self.record(), now=100.0,
                                         pid_alive=lambda pid: False)
        assert abandoned and "dead" in why

    def test_live_holder_inside_deadline_is_respected(self):
        abandoned, why = lease_abandoned(self.record(), now=100.0,
                                         pid_alive=lambda pid: True)
        assert not abandoned and "still held" in why

    def test_live_holder_past_deadline_is_reclaimed(self):
        abandoned, why = lease_abandoned(self.record(), now=300.0,
                                         pid_alive=lambda pid: True)
        assert abandoned and "overran" in why

    def test_own_pid_is_an_in_process_retry(self):
        abandoned, why = lease_abandoned(
            self.record(holder=os.getpid()), now=100.0,
            pid_alive=lambda pid: True)
        assert abandoned and "own" in why

    @pytest.mark.parametrize("overrides", [{"holder": None},
                                           {"holder": "junk"},
                                           {"deadline": None},
                                           {"deadline": "junk"}])
    def test_malformed_leases_are_reclaimed(self, overrides):
        abandoned, _ = lease_abandoned(self.record(**overrides),
                                       now=100.0,
                                       pid_alive=lambda pid: True)
        assert abandoned
