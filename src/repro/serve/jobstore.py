"""Crash-safe job persistence: an append-only record journal.

Every state transition a job takes is one fsync'd record in
``jobs.jsonl``, a :class:`repro.fsio.Journal` (torn and corrupt
records: the "Journals" section of ``docs/RESILIENCE.md``).  Crash
safety falls out of three properties:

* **append-only** -- a ``kill -9`` can at worst tear the final record;
* **first-terminal-wins** -- ``completed``/``failed``/``cancelled``
  for an already-terminal job is refused at the API *and* ignored at
  replay, which is what makes re-running a recovered job exactly-once
  in the journal even if two histories overlap after a crash;
* **startup compaction** -- replay rebuilds current state, then
  atomically rewrites the journal to one ``accepted`` record per job
  plus its terminal record, so the journal stays bounded across
  restarts.  A journal with corrupt records is first preserved as
  ``jobs.jsonl.corrupt-N``.

Jobs that replay as ``queued`` or ``running`` are *recoverable*: the
service re-queues them on boot (a ``running`` job whose daemon died
never journaled a terminal event, so re-running it cannot double a
result).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..errors import ServeError
from ..fsio import Journal

QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({COMPLETED, FAILED, CANCELLED})

#: Terminal state (also its journal event name) -> (the event's detail
#: field, the :class:`Job` attribute holding it).
_DETAIL = {COMPLETED: ("result", "result"), FAILED: ("error", "error"),
           CANCELLED: ("reason", "cancel_reason")}


class Job:
    """One design request and everything the journal knows about it."""

    __slots__ = ("id", "payload", "state", "result", "error",
                 "attempts", "cancel_reason")

    def __init__(self, job_id: str, payload: Dict[str, Any],
                 attempts: int = 0):
        self.id = job_id
        self.payload = payload
        self.state = QUEUED
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[Dict[str, Any]] = None
        self.attempts = attempts
        self.cancel_reason: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self, include_payload: bool = False) -> Dict[str, Any]:
        view: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "attempts": self.attempts,
        }
        if self.result is not None:
            view["result"] = self.result
        if self.error is not None:
            view["error"] = self.error
        if self.cancel_reason is not None:
            view["cancel_reason"] = self.cancel_reason
        if include_payload:
            view["payload"] = self.payload
        return view


class JobStore:
    """The journal plus an in-memory index over it, thread-safe."""

    def __init__(self, path: str, fsync: bool = True):
        self.path = path
        self._journal = Journal(path, durable=fsync)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._sequence = 0
        self._closed = False
        self._lock = threading.RLock()
        self._terminal = threading.Condition(self._lock)
        directory = os.path.dirname(os.path.abspath(path))
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise ServeError("cannot create job store directory %r: %s"
                             % (directory, exc)) from exc
        replayed = self._journal.replay()
        #: Replay evidence: a torn final record (a crash mid-append),
        #: and damaged records skipped (kept in ``<path>.corrupt-N``).
        self.torn_lines = replayed.torn
        self.corrupt_records = replayed.corrupt
        for event in replayed.records:
            self._apply(event)
        self._compact()
        #: Every ``<path>.corrupt-N`` pre-image kept so far, oldest first.
        self.preserved = self._journal.preserved()

    # -- journal mechanics ---------------------------------------------

    def _apply(self, event: Dict[str, Any]) -> None:
        # A verified record is exactly what ``_append`` wrote.
        job_id = event["id"]
        if event["event"] == "accepted":
            if job_id not in self._jobs:
                job = Job(job_id, event.get("payload") or {},
                          attempts=int(event.get("attempts", 0)))
                self._jobs[job_id] = job
                self._order.append(job_id)
                self._bump_sequence(job_id)
            return
        job = self._jobs.get(job_id)
        if job is not None and not job.terminal:
            _transition(job, event)

    def _bump_sequence(self, job_id: str) -> None:
        try:
            number = int(job_id.rsplit("-", 1)[-1])
        except ValueError:
            return
        if number >= self._sequence:
            self._sequence = number + 1

    def _compact(self) -> None:
        """Atomically rewrite the journal from current state."""
        if not self._jobs and not os.path.exists(self.path):
            return
        records: List[Dict[str, Any]] = []
        for job_id in self._order:
            job = self._jobs[job_id]
            records.append({"event": "accepted", "id": job.id,
                            "payload": job.payload,
                            "attempts": job.attempts})
            # RUNNING compacts back to accepted: the job never
            # finished, so after restart it is simply queued again.
            if job.terminal:
                field, attribute = _DETAIL[job.state]
                records.append({"event": job.state, "id": job.id,
                                field: getattr(job, attribute)})
        self._journal.rewrite(records, preserve=self.corrupt_records > 0)

    def _append(self, event: Dict[str, Any]) -> None:
        if self._closed:
            raise ServeError("job store %r is closed" % self.path)
        self._journal.append(event)

    # -- API -----------------------------------------------------------

    def submit(self, payload: Dict[str, Any]) -> Job:
        with self._lock:
            job_id = "job-%06d" % self._sequence
            self._sequence += 1
            job = Job(job_id, payload)
            self._jobs[job_id] = job
            self._order.append(job_id)
            self._append({"event": "accepted", "id": job_id,
                          "payload": payload, "attempts": 0})
            return job

    def mark_started(self, job_id: str) -> bool:
        return self._record(job_id, "started")

    def mark_completed(self, job_id: str,
                       result: Dict[str, Any]) -> bool:
        return self._record(job_id, COMPLETED, result=result)

    def mark_failed(self, job_id: str, error: Dict[str, Any]) -> bool:
        return self._record(job_id, FAILED, error=error)

    def mark_cancelled(self, job_id: str, reason: str) -> bool:
        return self._record(job_id, CANCELLED, reason=reason)

    def mark_requeued(self, job_id: str, reason: str) -> bool:
        return self._record(job_id, "requeued", reason=reason)

    def _record(self, job_id: str, kind: str, **detail: Any) -> bool:
        """Apply and journal one transition of a non-terminal job."""
        with self._lock:
            job = self._require(job_id)
            if job.terminal:
                # First terminal event wins; never journal a second.
                return False
            event = dict(detail, event=kind, id=job_id)
            _transition(job, event)
            if kind == "started":
                event["attempt"] = job.attempts
            self._append(event)
            self._terminal.notify_all()
            return True

    def _require(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServeError("unknown job %r" % job_id)
        return job

    # -- queries -------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def recoverable(self) -> List[Job]:
        """Non-terminal jobs, in submission order (for boot re-queue)."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order
                    if not self._jobs[job_id].terminal]

    def wait(self, job_id: str, timeout: float,
             clock: Optional[Callable[[], float]] = None) \
            -> Optional[Job]:
        """Block until ``job_id`` is terminal (or ``timeout`` elapses)."""
        now = clock or time.monotonic
        deadline = now() + timeout
        with self._terminal:
            job = self._jobs.get(job_id)
            while job is not None and not job.terminal:
                left = deadline - now()
                if left <= 0:
                    break
                self._terminal.wait(left)
                job = self._jobs.get(job_id)
            return job

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts: Dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            return counts

    def close(self) -> None:
        """Refuse further appends (each append already synced)."""
        with self._lock:
            self._closed = True


def _transition(job: Job, event: Dict[str, Any]) -> None:
    """The state change one journal event makes, live or at replay."""
    kind = event["event"]
    if kind == "started":
        job.state = RUNNING
        job.attempts += 1
    elif kind == "requeued":
        job.state = QUEUED
    elif kind in _DETAIL:
        field, attribute = _DETAIL[kind]
        job.state = kind
        setattr(job, attribute, event.get(field))


__all__ = ["Job", "JobStore", "QUEUED", "RUNNING", "COMPLETED",
           "FAILED", "CANCELLED", "TERMINAL_STATES"]
