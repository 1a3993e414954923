"""The watcher's crash journal: replay, torn tails, degraded writes."""

from repro.resilience.events import DegradationLog, WATCH_JOURNAL_FAULT
from repro.watch import WatchJournal


SPEC = {"tier": "web", "load": 600.0, "max_downtime_minutes": 100.0,
        "mtbf_hours": {}, "mttr_hours": {}}
DECISION = {"epoch": 1, "spec": SPEC, "feasible": True,
            "reconfigured": True, "design": None}


def test_empty_or_missing_journal(tmp_path):
    state = WatchJournal.replay(str(tmp_path / "absent.jsonl"))
    assert state.last_epoch == 0
    assert state.pending is None
    assert state.entries == 0


def test_completed_epoch_replays_spec_and_decision(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = WatchJournal(path)
    assert journal.redesign_start(1, SPEC)
    assert journal.redesign_done(1, DECISION)
    state = WatchJournal.replay(path)
    assert state.last_epoch == 1
    assert state.last_spec == SPEC
    assert state.last_decision == DECISION
    assert state.pending is None
    assert not journal.degraded


def test_interrupted_redesign_is_pending(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = WatchJournal(path)
    journal.redesign_start(1, SPEC)
    journal.redesign_done(1, DECISION)
    journal.redesign_start(2, dict(SPEC, load=1200.0))
    state = WatchJournal.replay(path)
    assert state.last_epoch == 1
    assert state.pending["epoch"] == 2
    assert state.pending["spec"]["load"] == 1200.0


def test_torn_tail_is_skipped_not_fatal(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = WatchJournal(path)
    journal.redesign_start(1, SPEC)
    journal.redesign_done(1, DECISION)
    with open(path, "a") as handle:
        handle.write('{"entry": "redesign-start", "epo')   # kill -9 here
    state = WatchJournal.replay(path)
    assert state.last_epoch == 1
    assert state.pending is None
    assert state.skipped == 1


def test_restart_after_torn_tail_keeps_new_epoch(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = WatchJournal(path)
    journal.redesign_start(1, SPEC)
    journal.redesign_done(1, DECISION)
    with open(path, "a") as handle:
        handle.write('{"entry": "redesign-start", "epo')   # kill -9 here
    restarted = WatchJournal(path)
    assert restarted.redesign_start(2, dict(SPEC, load=1200.0))
    assert restarted.redesign_done(2, dict(DECISION, epoch=2))
    state = WatchJournal.replay(path)
    assert state.last_epoch == 2
    assert state.last_spec["load"] == 1200.0
    assert state.pending is None
    assert state.skipped == 1


def test_write_failure_degrades_never_raises(tmp_path):
    log = DegradationLog()
    journal = WatchJournal(str(tmp_path), log)    # a directory: EISDIR
    assert not journal.redesign_start(1, SPEC)
    assert journal.degraded
    assert journal.appends == 0
    assert log.counts().get(WATCH_JOURNAL_FAULT) == 1


def test_done_without_start_is_ignored(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with open(path, "w") as handle:
        handle.write('{"entry": "redesign-done", "epoch": 5, '
                     '"decision": {}}\n')
    state = WatchJournal.replay(path)
    assert state.last_epoch == 0
    assert state.pending is None
