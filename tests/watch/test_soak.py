"""Soak: ``repro watch`` as a real subprocess under kill -9.

The daemon tails a drifted telemetry stream with an artificially slow
re-search (``--test-redesign-delay``), so there is a wide window in
which the journal holds a ``redesign-start`` with no matching
``redesign-done``.  A SIGKILL in that window followed by a restart
must finish the redesign exactly once, from the journaled spec, and
report ``resumed`` in its status document.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.fsio import Journal
from repro.watch import WatchJournal

from .conftest import load_events, write_jsonl

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, os.pardir, "src")

BASE = ["--paper-ecommerce", "--app-tier-only",
        "--tier", "application", "--load", "800",
        "--downtime", "100m", "--max-redundancy", "3",
        "--min-load-samples", "10", "--debounce", "2"]


def start_watch(*extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "watch"] + BASE + list(extra),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, text=True)


def run_watch(*extra, timeout=120):
    process = start_watch(*extra)
    stdout, stderr = process.communicate(timeout=timeout)
    return process.returncode, stdout, stderr


def journal_entries(path):
    return [record["entry"] for record in Journal(path).replay().records]


@pytest.fixture
def drifted_stream(tmp_path):
    path = str(tmp_path / "stream.jsonl")
    write_jsonl(path, load_events(2400.0, 40, tier="application"))
    return path


class TestKillResume:
    def test_kill9_mid_redesign_resumes_exactly_once(
            self, tmp_path, drifted_stream):
        journal = str(tmp_path / "journal.jsonl")
        checkpoint = str(tmp_path / "ckpt.json")
        durable = ["--telemetry", drifted_stream,
                   "--journal", journal, "--checkpoint", checkpoint]
        process = start_watch("--poll-interval", "0.1",
                              "--test-redesign-delay", "30",
                              *durable)
        try:
            # Wait until the redesign is journaled but (thanks to the
            # delayed search) not yet done, then kill -9.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    raise AssertionError(
                        "watch died during soak:\n%s"
                        % process.stderr.read())
                if "redesign-start" in journal_entries(journal):
                    break
                time.sleep(0.05)
            assert "redesign-start" in journal_entries(journal)
            assert "redesign-done" not in journal_entries(journal)
        finally:
            process.kill()
            process.wait(timeout=30)

        state = WatchJournal.replay(journal)
        assert state.pending is not None
        assert state.pending["epoch"] == 1

        # Restart: the pending redesign replays from the journaled
        # spec before the first poll, then the loop goes stationary.
        code, stdout, stderr = run_watch(
            "--max-polls", "1", "--poll-interval", "0", "--json",
            *durable)
        assert code == 0, stderr
        status = json.loads(stdout)
        assert status["resumed"] is True
        assert status["epoch"] == 1
        assert status["incumbent"]["n_active"] == 14
        assert status["spec"]["load"] == pytest.approx(
            800.0 * 1.25 ** 5)

        state = WatchJournal.replay(journal)
        assert state.last_epoch == 1
        assert state.pending is None
        done = [e for e in journal_entries(journal)
                if e == "redesign-done"]
        assert done == ["redesign-done"]  # exactly once

        # A third run replays the completed journal: no new redesign.
        code, stdout, _ = run_watch(
            "--max-polls", "1", "--poll-interval", "0", "--json",
            *durable)
        assert code == 0
        status = json.loads(stdout)
        assert status["epoch"] == 1
        assert journal_entries(journal).count("redesign-start") == 1


class TestSignals:
    def test_sigterm_interrupts_cleanly(self, tmp_path):
        stream = str(tmp_path / "stream.jsonl")
        write_jsonl(stream, load_events(800.0, 5, tier="application"))
        # No --max-polls: runs until a signal arrives.
        process = start_watch("--telemetry", stream,
                              "--poll-interval", "0.1")
        time.sleep(2.0)
        assert process.poll() is None
        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=30)
        assert process.returncode == 130, stderr
        assert "interrupted" in stdout
