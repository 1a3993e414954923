"""JobStore: journal replay, torn tails, compaction, exactly-once."""

import threading

import pytest

from repro.errors import ServeError
from repro.fsio import Journal, encode_record
from repro.serve.jobstore import (CANCELLED, COMPLETED, FAILED, QUEUED,
                                  RUNNING, Job, JobStore)


def make_store(tmp_path):
    return JobStore(str(tmp_path / "jobs.jsonl"), fsync=False)


def journal_events(tmp_path):
    return Journal(str(tmp_path / "jobs.jsonl")).replay().records


class TestLifecycle:
    def test_submit_assigns_sequential_ids(self, tmp_path):
        store = make_store(tmp_path)
        first = store.submit({"n": 1})
        second = store.submit({"n": 2})
        assert first.id == "job-000000"
        assert second.id == "job-000001"
        assert first.state == QUEUED
        store.close()

    def test_started_completed_roundtrip(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit({})
        assert store.mark_started(job.id)
        assert job.state == RUNNING
        assert job.attempts == 1
        assert store.mark_completed(job.id, {"annual_cost": 1.0})
        assert job.state == COMPLETED
        assert job.result == {"annual_cost": 1.0}
        view = job.to_dict()
        assert view["state"] == COMPLETED
        assert view["result"] == {"annual_cost": 1.0}
        assert "payload" not in view
        store.close()

    def test_first_terminal_wins(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit({})
        store.mark_started(job.id)
        assert store.mark_completed(job.id, {"ok": True})
        # A second terminal event is refused at the API...
        assert not store.mark_failed(job.id, {"kind": "error"})
        assert not store.mark_cancelled(job.id, "client-cancel")
        assert job.state == COMPLETED
        store.close()
        # ...and never journaled.
        terminal = [event for event in journal_events(tmp_path)
                    if event["event"] in ("completed", "failed",
                                          "cancelled")]
        assert len(terminal) == 1
        assert terminal[0]["event"] == "completed"

    def test_started_and_requeue_refused_after_terminal(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit({})
        store.mark_cancelled(job.id, "client-cancel")
        assert not store.mark_started(job.id)
        assert not store.mark_requeued(job.id, "drain")
        assert job.cancel_reason == "client-cancel"
        store.close()

    def test_unknown_job_raises(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(ServeError):
            store.mark_started("job-999999")
        assert store.get("job-999999") is None
        store.close()


class TestReplay:
    def test_states_survive_restart(self, tmp_path):
        store = make_store(tmp_path)
        done = store.submit({"n": 0})
        failed = store.submit({"n": 1})
        queued = store.submit({"n": 2})
        running = store.submit({"n": 3})
        store.mark_started(done.id)
        store.mark_completed(done.id, {"ok": True})
        store.mark_started(failed.id)
        store.mark_failed(failed.id, {"kind": "error", "message": "x"})
        store.mark_started(running.id)
        store.close()

        reopened = make_store(tmp_path)
        assert reopened.get(done.id).state == COMPLETED
        assert reopened.get(done.id).result == {"ok": True}
        assert reopened.get(failed.id).state == FAILED
        assert reopened.get(queued.id).state == QUEUED
        # A running job whose daemon died replays as recoverable.
        recoverable = [job.id for job in reopened.recoverable()]
        assert recoverable == [queued.id, running.id]
        # Attempts survive so operators can see retries.
        assert reopened.get(running.id).attempts == 1
        # New ids continue after the replayed sequence.
        assert reopened.submit({}).id == "job-000004"
        reopened.close()

    def test_torn_tail_is_dropped(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit({"n": 1})
        store.mark_started(job.id)
        store.mark_completed(job.id, {"ok": True})
        store.close()
        with open(tmp_path / "jobs.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"event": "fail')    # crash mid-append

        reopened = make_store(tmp_path)
        assert reopened.torn_lines == 1
        assert reopened.get(job.id).state == COMPLETED
        reopened.close()

    def test_valid_frame_after_corrupt_line_is_applied(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit({"n": 1})
        store.close()
        with open(tmp_path / "jobs.jsonl", "ab") as fh:
            fh.write(b"garbage line\n")
            fh.write(encode_record({"event": "completed", "id": job.id,
                                    "result": {}}))

        reopened = make_store(tmp_path)
        assert reopened.corrupt_records == 1
        assert reopened.torn_lines == 0
        assert reopened.get(job.id).state == COMPLETED
        reopened.close()

    def test_damaged_record_costs_only_its_own_job(self, tmp_path):
        store = make_store(tmp_path)
        for n in range(5):
            store.submit({"n": n})
        store.close()
        path = tmp_path / "jobs.jsonl"
        lines = path.read_bytes().split(b"\n")
        brace = lines[1].index(b"{")
        lines[1] = lines[1][:brace] + bytes([lines[1][brace] ^ 0x01]) \
            + lines[1][brace + 1:]
        damaged = b"\n".join(lines)
        path.write_bytes(damaged)

        reopened = make_store(tmp_path)
        assert [job.id for job in reopened.jobs()] == [
            "job-000000", "job-000002", "job-000003", "job-000004"]
        assert reopened.corrupt_records == 1
        reopened.close()
        # Compaction kept the four jobs and preserved the pre-image.
        assert len(journal_events(tmp_path)) == 4
        assert (tmp_path / "jobs.jsonl.corrupt-1").read_bytes() == damaged

    def test_edited_payload_is_corrupt_not_applied(self, tmp_path):
        store = make_store(tmp_path)
        for n in range(5):
            store.submit({"n": n})
        store.close()
        path = tmp_path / "jobs.jsonl"
        data = path.read_bytes()
        assert data.count(b'"n": 2') == 1
        path.write_bytes(data.replace(b'"n": 2', b'"n": 3'))

        reopened = make_store(tmp_path)
        assert reopened.corrupt_records == 1
        assert reopened.get("job-000002") is None
        assert [job.payload["n"] for job in reopened.jobs()] == [0, 1, 3, 4]
        reopened.close()

    def test_clean_compaction_keeps_no_pre_image(self, tmp_path):
        store = make_store(tmp_path)
        store.submit({"n": 1})
        store.close()
        make_store(tmp_path).close()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.jsonl"]

    def test_compaction_bounds_the_journal(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit({"n": 1})
        for _ in range(5):
            store.mark_started(job.id)
            store.mark_requeued(job.id, "drain")
        store.mark_started(job.id)
        store.mark_completed(job.id, {"ok": True})
        open_job = store.submit({"n": 2})
        store.mark_started(open_job.id)
        store.close()
        assert len(journal_events(tmp_path)) > 4

        reopened = make_store(tmp_path)
        reopened.close()
        events = journal_events(tmp_path)
        # One accepted line per job plus the single terminal line; the
        # interrupted RUNNING job compacts back to accepted-only.
        assert [event["event"] for event in events] == [
            "accepted", "completed", "accepted"]
        assert events[0]["attempts"] == 6
        assert events[2]["attempts"] == 1


class TestWait:
    def test_wait_returns_on_completion(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit({})

        def complete():
            store.mark_started(job.id)
            store.mark_completed(job.id, {"ok": True})

        timer = threading.Timer(0.1, complete)
        timer.start()
        try:
            waited = store.wait(job.id, timeout=5.0)
        finally:
            timer.join()
        assert waited is job
        assert waited.terminal
        store.close()

    def test_wait_times_out_nonterminal(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit({})
        waited = store.wait(job.id, timeout=0.05)
        assert waited is job
        assert not waited.terminal
        assert store.wait("job-999999", timeout=0.01) is None
        store.close()

    def test_counts(self, tmp_path):
        store = make_store(tmp_path)
        a = store.submit({})
        store.submit({})
        store.mark_started(a.id)
        store.mark_failed(a.id, {"kind": "error"})
        assert store.counts() == {FAILED: 1, QUEUED: 1}
        store.close()


class TestJobView:
    def test_error_and_cancel_fields(self):
        job = Job("job-000007", {"x": 1})
        job.state = CANCELLED
        job.cancel_reason = "drain"
        view = job.to_dict(include_payload=True)
        assert view["cancel_reason"] == "drain"
        assert view["payload"] == {"x": 1}
        assert "result" not in view and "error" not in view
