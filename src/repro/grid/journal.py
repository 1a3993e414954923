"""The grid build's crash journal: finished shards survive kill -9.

Same discipline as the serve/watch journals: an append-only, fsync'd
:class:`repro.fsio.Journal` (frame format and damage handling: the
"Journals" section of ``docs/RESILIENCE.md``).  Each shard's lifecycle
is bracketed by a ``shard-start`` record (lease: holder pid,
wall-clock deadline, attempt) and a ``shard-done`` record carrying the
shard's *full serialized frontier points* -- so replay after a kill
needs no re-evaluation for finished shards, just deserialization.
Convictions (``cell-convicted``) are journaled too, so a resumed build
does not re-litigate a poison cell.

Replay semantics:

* start + done        -> shard finished; its points are reused exactly
  once (the resumed build never re-evaluates it).
* start, no done      -> the process died (or was killed) mid-shard.
  The lease is abandoned; a resuming build reclaims it (``AVD906``)
  and re-runs the shard from scratch.

Records carry the grid's :meth:`~repro.grid.GridSpec.key`; replay
ignores records written for a different grid, and a shard's points are
only reused when its journaled loads exactly match the shard being
asked about -- re-sharding a half-built grid rebuilds what no longer
lines up instead of mixing partitions.

Journal *writes* that fail degrade the build rather than stop it: the
append is dropped, ``AVD905`` is logged, and the build continues
without durability (a map build should never die of bookkeeping).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..resilience.events import (GRID_JOURNAL_FAULT, DegradationLog,
                                 DegradingJournal)

#: Journal entry kinds.
SHARD_START = "shard-start"
SHARD_DONE = "shard-done"
CELL_CONVICTED = "cell-convicted"


def loads_key(loads: Sequence[float]) -> str:
    """Canonical string identity of a shard's load slice."""
    return json.dumps([float(load) for load in loads],
                      separators=(",", ":"))


@dataclass
class GridJournalState:
    """What replay recovered from a grid journal file."""

    #: Finished shards: loads-key -> list of serialized frontier-point
    #: dicts (exactly what ``shard-done`` journaled).
    done: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    #: Abandoned leases: loads-key -> the last ``shard-start`` record
    #: with no matching ``shard-done`` (holder pid, deadline, attempt).
    abandoned: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Journaled convictions: load -> reason.
    convicted: Dict[float, str] = field(default_factory=dict)
    #: Verified records replayed (for this grid).
    entries: int = 0
    #: Torn or corrupt records; ignored.
    skipped: int = 0
    #: Verified records of another grid (or schema); ignored.
    foreign: int = 0


class GridJournal(DegradingJournal):
    """The grid build's shard journal; a failed append logs ``AVD905``."""

    fault = GRID_JOURNAL_FAULT

    def __init__(self, path: str, grid_key: str,
                 log: Optional[DegradationLog] = None):
        super().__init__(path, log)
        self.grid_key = grid_key

    def append(self, entry: str, **payload: Any) -> bool:
        return self._write(dict(payload, entry=entry, grid=self.grid_key))

    def shard_start(self, shard_id: int, loads: Sequence[float],
                    attempt: int, holder: int,
                    lease_seconds: float, now: float) -> bool:
        return self.append(SHARD_START, shard=shard_id,
                           loads=loads_key(loads), attempt=attempt,
                           holder=holder,
                           deadline=now + lease_seconds)

    def shard_done(self, shard_id: int, loads: Sequence[float],
                   points: List[Dict[str, Any]]) -> bool:
        return self.append(SHARD_DONE, shard=shard_id,
                           loads=loads_key(loads), points=points)

    def cell_convicted(self, load: float, reason: str) -> bool:
        return self.append(CELL_CONVICTED, load=float(load),
                           reason=reason)

    def tear_tail(self, fragment: bytes = b'{"entry":"shard-sta') \
            -> None:
        """Append a torn partial record (no newline): chaos only.

        Simulates a kill landing mid-append; replay must skip the
        fragment and lose nothing written before or after it.
        """
        try:
            with open(self.path, "ab") as handle:
                handle.write(fragment)
        except OSError:
            pass

    # -- replay --------------------------------------------------------

    @staticmethod
    def replay(path: str, grid_key: str) -> GridJournalState:
        """Reconstruct a build's durable state from the journal file."""
        state = GridJournalState()
        records, state.skipped = DegradingJournal._replay(path)
        starts: Dict[str, Dict[str, Any]] = {}
        for record in records:
            # Verified frames are exactly what ``append`` wrote, so
            # only the grid key needs checking.
            if not isinstance(record, dict) \
                    or record.get("grid") != grid_key:
                state.foreign += 1
                continue
            state.entries += 1
            entry, key = record["entry"], record.get("loads", "")
            if entry == SHARD_START:
                starts[key] = record
            elif entry == SHARD_DONE:
                state.done[key] = record["points"]
                starts.pop(key, None)
            elif entry == CELL_CONVICTED:
                state.convicted[float(record["load"])] = record["reason"]
        state.abandoned = starts
        return state


def lease_abandoned(record: Dict[str, Any], now: float,
                    pid_alive) -> Tuple[bool, str]:
    """Is a journaled ``shard-start`` lease safe to reclaim?

    A lease is abandoned when its holder process is dead, or when its
    wall-clock deadline has passed (a hung holder must not block the
    grid forever).  Returns ``(abandoned, why)``.
    """
    holder = record.get("holder")
    try:
        holder = int(holder)
    except (TypeError, ValueError):
        return True, "lease has no valid holder pid"
    if holder == os.getpid():
        # Our own earlier attempt in this very process (an in-process
        # retry); not a foreign lease.
        return True, "own earlier attempt"
    if not pid_alive(holder):
        return True, "holder pid %d is dead" % holder
    deadline = record.get("deadline")
    try:
        deadline = float(deadline)
    except (TypeError, ValueError):
        return True, "lease has no valid deadline"
    if now > deadline:
        return True, ("holder pid %d overran its lease by %.1fs"
                      % (holder, now - deadline))
    return False, "lease still held by live pid %d" % holder


__all__ = ["SHARD_START", "SHARD_DONE", "CELL_CONVICTED",
           "GridJournalState", "GridJournal", "lease_abandoned",
           "loads_key"]
