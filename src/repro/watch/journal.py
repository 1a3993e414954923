"""The watcher's crash journal: exactly-once redesign across kills.

An append-only, fsync'd :class:`repro.fsio.Journal` recording the
watcher's state machine (frame format and damage handling: the
"Journals" section of ``docs/RESILIENCE.md``): each drift-triggered
redesign is an *epoch* bracketed by a ``redesign-start`` record
(carrying the full drifted spec) and a ``redesign-done`` record
(carrying the decision).  Replay after a ``kill -9`` is unambiguous:

* start + done  -> the epoch completed; its decision is the incumbent.
* start, no done -> the process died mid-redesign.  The redesign is
  re-executed *from the journaled spec* -- deterministically, so the
  rerun reaches the decision the killed run would have -- and the done
  record is appended then.  Exactly-once in effect: the decision is
  applied once no matter where the kill landed.

Journal *writes* that fail (disk full, permissions) degrade the
watcher rather than stop it: the append is dropped, an ``AVD709``
diagnostic is logged, and the loop continues without durability --
monitoring availability should never be the availability problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..resilience.events import DegradingJournal, WATCH_JOURNAL_FAULT

#: Journal entry kinds.
REDESIGN_START = "redesign-start"
REDESIGN_DONE = "redesign-done"


@dataclass
class JournalState:
    """What replay recovered from a journal file."""

    #: Highest epoch with a matching ``redesign-done``.
    last_epoch: int = 0
    #: Decision payload of that epoch (the incumbent), if any.
    last_decision: Optional[Dict[str, Any]] = None
    #: Drifted spec of that epoch (for rebasing the detector), if any.
    last_spec: Optional[Dict[str, Any]] = None
    #: ``redesign-start`` record with no ``redesign-done`` -- the
    #: interrupted redesign replay must finish (exactly once).
    pending: Optional[Dict[str, Any]] = None
    #: Verified records replayed.
    entries: int = 0
    #: Torn, corrupt or malformed records; ignored.
    skipped: int = 0


class WatchJournal(DegradingJournal):
    """The watcher's epoch journal; a failed append logs ``AVD709``."""

    fault = WATCH_JOURNAL_FAULT

    def append(self, entry: str, epoch: int,
               **payload: Any) -> bool:
        return self._write(dict(payload, entry=entry, epoch=epoch))

    def redesign_start(self, epoch: int,
                       spec: Dict[str, Any]) -> bool:
        return self.append(REDESIGN_START, epoch, spec=spec)

    def redesign_done(self, epoch: int,
                      decision: Dict[str, Any]) -> bool:
        return self.append(REDESIGN_DONE, epoch, decision=decision)

    # -- replay --------------------------------------------------------

    @staticmethod
    def replay(path: str) -> JournalState:
        """Reconstruct the watcher's state from the journal file."""
        state = JournalState()
        records, state.skipped = DegradingJournal._replay(path)
        starts: Dict[int, Dict[str, Any]] = {}
        for record in records:
            if not isinstance(record, dict) or "epoch" not in record:
                state.skipped += 1      # another journal's schema
                continue
            entry, epoch = record.get("entry"), record["epoch"]
            state.entries += 1
            if entry == REDESIGN_START:
                starts[epoch] = record
            elif entry == REDESIGN_DONE and epoch in starts:
                if epoch > state.last_epoch:
                    state.last_epoch = epoch
                    state.last_decision = record.get("decision")
                    state.last_spec = starts[epoch].get("spec")
                starts.pop(epoch, None)
        unfinished = [epoch for epoch in starts
                      if epoch > state.last_epoch]
        if unfinished:
            state.pending = starts[max(unfinished)]
        return state


__all__ = ["REDESIGN_START", "REDESIGN_DONE", "JournalState",
           "WatchJournal"]
