"""Serving a precomputed requirement-space map: fast, honest lookups.

:class:`MapService` loads the canonical map JSON a grid build wrote
and answers "which design is cost-optimal at (load, downtime)?" from
memory -- no search is ever triggered on the serving path, which is
what makes sub-millisecond lookups possible.  It works on the
*serialized* point dicts directly (the answer is re-serialized anyway),
so serving a map needs no infrastructure model, just the file.

Honesty is the other half of the contract:

* every answer carries the map's **coverage fraction** and the age of
  the file it came from, so a caller always knows how complete and how
  stale the map behind its answer is;
* a lookup in a region the map genuinely has no frontier for (a load
  beyond the grid, or a convicted/unbuilt cell) is ``unbuilt`` -- the
  HTTP layer turns that into a 503, never into a silently wrong
  answer;
* a requirement no design on the frontier can meet is ``infeasible``
  -- a definitive answer, not a degradation.

The backing file is mtime-checked on each lookup and reloaded when a
rebuild replaced it, so a long-lived daemon serves fresh maps without
a restart.
"""

from __future__ import annotations

import bisect
import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from ..core.serialize import MAP_FORMAT_VERSION
from ..errors import GridError
from ..resilience.events import GRID_MAP_PARTIAL, DegradationLog
from ..units import Duration
from .journal import GridJournal


class MapService:
    """In-memory lookup over a grid-built requirement-space map."""

    def __init__(self, map_path: str,
                 log: Optional[DegradationLog] = None,
                 clock=time.time):
        self.map_path = map_path
        self.log = log if log is not None else DegradationLog()
        self.clock = clock
        self.lookups = 0
        self.tier: Optional[str] = None
        self._mtime: Optional[float] = None
        self._declared: Tuple[float, ...] = ()
        #: Sorted built loads and per-load frontiers (point dicts in
        #: downtime-descending order) -- the index that keeps lookups
        #: off the O(points) path.
        self._loads: List[float] = []
        self._frontiers: Dict[float, List[Dict[str, Any]]] = {}
        self._partial_logged = False
        # A corrupt file must not prevent *constructing* the service
        # (a daemon mounting a map still boots); lookup() and status()
        # re-raise on their own reload() calls, where the HTTP layer
        # maps the error to an honest 503.
        try:
            self.reload()
        except GridError:
            pass

    # -- loading -------------------------------------------------------

    @property
    def loaded(self) -> bool:
        return self._mtime is not None

    def reload(self) -> bool:
        """(Re)load the map when the file changed; False when absent.

        A file that exists but does not parse as a supported map is an
        error (:class:`GridError`) -- a daemon must not quietly serve
        nothing off a corrupt map.
        """
        try:
            mtime = os.stat(self.map_path).st_mtime
        except OSError:
            self.tier = None
            self._mtime = None
            self._declared = ()
            self._loads = []
            self._frontiers = {}
            return False
        if self.loaded and mtime == self._mtime:
            return True
        with open(self.map_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise GridError("map file %s is not valid JSON: %s"
                            % (self.map_path, exc)) from exc
        if not isinstance(data, dict) \
                or data.get("version") != MAP_FORMAT_VERSION:
            raise GridError(
                "map file %s has unsupported version %r (expected %d)"
                % (self.map_path,
                   data.get("version") if isinstance(data, dict)
                   else None, MAP_FORMAT_VERSION))
        frontiers: Dict[float, List[Dict[str, Any]]] = {}
        try:
            declared = tuple(float(load) for load in data["loads"])
            tier = str(data["tier"])
            for point in data["points"]:
                load = float(point["load"])
                float(point["downtime_minutes"])
                float(point["annual_cost"])
                frontiers.setdefault(load, []).append(point)
        except (KeyError, TypeError, ValueError) as exc:
            raise GridError("map file %s is malformed: %s"
                            % (self.map_path, exc)) from exc
        for points in frontiers.values():
            points.sort(key=lambda p: -float(p["downtime_minutes"]))
        self.tier = tier
        self._mtime = mtime
        self._declared = declared
        self._frontiers = frontiers
        self._loads = sorted(frontiers)
        if self.coverage() < 1.0 and not self._partial_logged:
            self._partial_logged = True
            self.log.add(GRID_MAP_PARTIAL, tier=tier,
                         detail="map at %s covers %d of %d loads"
                         % (self.map_path, len(self._loads),
                            len(declared)))
        return True

    # -- coverage / staleness ------------------------------------------

    def coverage(self) -> float:
        """Fraction of the declared load grid with a built frontier."""
        if not self._declared:
            return 0.0
        return len(self._loads) / len(self._declared)

    def age_seconds(self) -> Optional[float]:
        if self._mtime is None:
            return None
        return max(0.0, self.clock() - self._mtime)

    # -- lookup --------------------------------------------------------

    def lookup(self, load: float, max_downtime: Duration) \
            -> Dict[str, Any]:
        """Answer one (load, downtime) requirement from the map.

        Returns a dict with ``answer`` one of:

        * ``"ok"`` -- ``design`` holds the cheapest frontier point at
          the covering grid load that meets the downtime requirement;
        * ``"infeasible"`` -- the region is built and *no* design
          meets the requirement (a definitive answer);
        * ``"unbuilt"`` -- the map has no frontier covering this load
          (missing map, load beyond the grid, or an unbuilt/convicted
          cell): the only case worth a 503.

        Every answer carries ``coverage`` and ``map_age_seconds``.
        """
        if load <= 0:
            raise GridError("load must be positive")
        self.reload()
        self.lookups += 1
        base: Dict[str, Any] = {
            "tier": self.tier,
            "load": load,
            "max_downtime_minutes": max_downtime.as_minutes,
            "coverage": self.coverage(),
            "map_age_seconds": self.age_seconds(),
        }
        if not self.loaded:
            base.update(answer="unbuilt",
                        detail="no map at %s" % self.map_path)
            return base
        grid_load = self._covering_load(load)
        if grid_load is None:
            declared = [line for line in self._declared
                        if line >= load]
            if declared:
                detail = ("grid cell at load %g is unbuilt"
                          % min(declared))
            else:
                detail = ("load %g is beyond the grid (declared loads "
                          "top out at %g)"
                          % (load, max(self._declared)))
            base.update(answer="unbuilt", detail=detail)
            return base
        base["grid_load"] = grid_load
        target = max_downtime.as_minutes
        best: Optional[Dict[str, Any]] = None
        for point in self._frontiers[grid_load]:
            if float(point["downtime_minutes"]) <= target and (
                    best is None or float(point["annual_cost"])
                    < float(best["annual_cost"])):
                best = point
        if best is None:
            base.update(answer="infeasible",
                        detail="no design at grid load %g achieves "
                               "%.4g minutes/year"
                        % (grid_load, target))
            return base
        base.update(answer="ok", design=best)
        return base

    def _covering_load(self, load: float) -> Optional[float]:
        """The smallest *built* grid load >= the requested load.

        Capacity must cover the requirement, so answers round the load
        up to the next grid line -- but only to the next *declared*
        line: skipping over an unbuilt declared cell to a higher built
        one would silently answer from the wrong region, so that case
        is honest ``unbuilt`` territory instead.
        """
        if not self._loads:
            return None
        index = bisect.bisect_left(self._loads, load)
        if index >= len(self._loads):
            return None
        candidate = self._loads[index]
        for line in self._declared:
            if load <= line < candidate:
                return None
        return candidate

    # -- status --------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """The serving-side MAP_STATUS_SCHEMA document."""
        self.reload()
        total = len(self._declared)
        built = len(self._loads)
        if not self.loaded:
            state = "missing"
        elif built >= total:
            state = "complete"
        else:
            state = "partial"
        return {
            "tier": self.tier if self.tier is not None else "unknown",
            "state": state,
            "coverage": self.coverage(),
            "loads_total": total,
            "loads_built": built,
            "shards": {"total": 0, "done": 0, "pending": 0},
            "journal": GridJournal.status_of(None),
            "map_path": self.map_path,
            "map_age_seconds": self.age_seconds(),
            "format_version": MAP_FORMAT_VERSION,
            "lookups": self.lookups,
        }


def served_status(map_path: str,
                  journal_path: Optional[str] = None,
                  grid_key: Optional[str] = None) \
        -> Tuple[Dict[str, Any], int]:
    """``repro map status``: combine the map file and its journal.

    Returns ``(status document, exit code)`` -- 0 when the map is
    complete, 2 when partial or missing.
    """
    service = MapService(map_path)
    status = service.status()
    if journal_path and grid_key:
        state = GridJournal.replay(journal_path, grid_key)
        status["shards"] = {"total": 0, "done": len(state.done),
                            "pending": len(state.abandoned)}
        status["journal"] = {"enabled": True, "degraded": False,
                             "appends": state.entries}
    return status, (0 if status["state"] == "complete" else 2)


__all__ = ["MapService", "served_status"]
