"""The machine-speed probe that timings are normalised by.

The benchmark's host is shared: its speed drifts by 2x and more between
runs minutes apart, far more than any bound a regression gate could
use.  Every run therefore also times a fixed probe in the idle moments
between operations.  The probe does the kinds of work the program's
time goes to -- interpreted Python, JSON, unmarshalling and running
module code, touching fresh memory, small NumPy solves -- with the
standard library and NumPy only, never the program.  It runs on one
core: a probe that used OpenBLAS's threads slowed 30x when other
processes kept both cores busy, where the program slowed 3.7x.  A timing ``t`` is reported as
``t * PROBE_REFERENCE_S / median(probes)``: the seconds it would take
on a machine where the probe takes ``PROBE_REFERENCE_S``.  A change to
the program moves the normalised time as it moves the raw one; a
change of machine speed moves the probe with it and cancels.
"""

from __future__ import annotations

import json
import marshal
import mmap
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

#: The probe's median duration on the reference machine (a 2-core
#: 2.1 GHz Xeon VM in its slower, usual state), seconds.  Normalised
#: times are seconds on that machine.
PROBE_REFERENCE_S = 0.065

_SOURCE = "\n".join(
    "def f%d(a, b=%d):\n    return {'k': [a, b, %r] * 3}\n" % (i, i, "s" * i)
    for i in range(60))
_CODE = marshal.dumps(compile(_SOURCE, "<probe>", "exec"))
_DOC = {"rows": [{"id": i, "name": "row%d" % i, "values": [i * 0.25] * 8}
                 for i in range(150)]}
_RNG = np.random.default_rng(0)
_SMALL = _RNG.random((30, 30)) + 30 * np.eye(30), _RNG.random(30)


def _scale(i: int) -> float:
    return i * 0.5 + 1.0


def _interpreter() -> None:
    """Loops, calls and dict traffic: search and model code."""
    table: Dict[Any, float] = {}
    for i in range(56000):
        key = (i % 89, i % 7)
        table[key] = table.get(key, 0.0) + _scale(i)


def _serialise() -> None:
    """JSON both ways (checkpoints, journals, HTTP bodies) and running
    unmarshalled module code (imports)."""
    for _ in range(8):
        json.loads(json.dumps(_DOC))
    for _ in range(40):
        exec(marshal.loads(_CODE), {})


def _memory() -> None:
    """Faulting in fresh pages: loading extension modules, big arrays."""
    with mmap.mmap(-1, 16 << 20) as block:
        for offset in range(0, len(block), mmap.PAGESIZE):
            block[offset] = 1


def _small_solves() -> None:
    """Many small dense solves: Markov chains of one tier."""
    matrix, rhs = _SMALL
    for _ in range(430):
        np.linalg.solve(matrix, rhs)


PARTS: Tuple[Tuple[str, Callable[[], None]], ...] = (
    ("interpreter", _interpreter), ("serialise", _serialise),
    ("memory", _memory), ("small_solves", _small_solves))


class Speed:
    """The probes of one run, and the factor its timings are scaled by."""

    def __init__(self) -> None:
        self.probes: List[float] = []
        self.parts: Dict[str, List[float]] = {name: [] for name, _ in PARTS}

    def sample(self, count: int = 1) -> None:
        """Time ``count`` probes."""
        for _ in range(count):
            total = 0.0
            for name, part in PARTS:
                started = time.perf_counter()
                part()
                elapsed = time.perf_counter() - started
                self.parts[name].append(elapsed)
                total += elapsed
            self.probes.append(total)

    def factor(self) -> float:
        """Reference probe time over this run's median probe time."""
        return PROBE_REFERENCE_S / statistics.median(self.probes)

    def summary(self) -> Dict[str, Any]:
        summary = {"probe_n": len(self.probes),
                   "probe_median_s": statistics.median(self.probes),
                   "speed_factor": self.factor()}
        summary.update(("probe_%s_s" % name, statistics.median(times))
                       for name, times in self.parts.items())
        return summary
