"""Speedup and identity of the vectorized (stacked) tier solves.

Every Markov search solves its wavefronts batched; the scalar
reference is the same search on a :class:`MarkovEngine` subclass,
which the exact-type batch gate keeps on the per-candidate path.  Two
claims carry the batching story:

* a **default** (batched) cold design run over the paper's e-commerce
  service must beat the **scalar reference** cold run by at least 3x
  -- the search's cost is dominated by per-candidate CTMC solves, and
  the batcher groups a wavefront's chains by shape and hands each size
  class to LAPACK as one stacked call;
* the speedup must be *free of drift*: the serialized DesignOutcome
  is identical JSON to the scalar reference across serial, supervised
  (``jobs``), and cached runs.

Timings are back-to-back pairs with alternating order, the same
discipline as ``bench_cache``/``bench_parallel``; the headline number
is the **median paired ratio** (each rep contributes scalar/batched
from the same thermal neighborhood).
"""

import json
import statistics
import time

import pytest

from repro.availability import MarkovEngine
from repro.core import Aved
from repro.core.serialize import evaluation_to_dict
from repro.model import ServiceRequirements
from repro.spec.paper import ecommerce_service
from repro.units import Duration

from .conftest import write_bench_json, write_report

REQUIREMENTS = ServiceRequirements(1000.0, Duration.minutes(100))


class ScalarMarkovEngine(MarkovEngine):
    """The Markov engine, kept on the scalar search path."""


def budgets(smoke):
    """(paired reps, batched speedup floor)."""
    if smoke:
        return 2, 1.0       # indicative only under --smoke
    return 5, 3.0


def canonical(outcome):
    return json.dumps(evaluation_to_dict(outcome.evaluation),
                      sort_keys=True)


def time_design(infrastructure, service, scalar=False, **kwargs):
    """Time one cold design; ``scalar=True`` runs the scalar reference."""
    if scalar:
        kwargs["availability_engine"] = ScalarMarkovEngine()
    started = time.perf_counter()
    outcome = Aved(infrastructure, service,
                   **kwargs).design(REQUIREMENTS)
    return time.perf_counter() - started, outcome


def measure_paired(infrastructure, service, reps):
    """Paired cold runs, alternating order; per-rep speedup ratios."""
    pairs = []
    serialized = set()
    for rep in range(reps):
        if rep % 2 == 0:
            scalar, outcome = time_design(infrastructure, service,
                                          scalar=True)
            serialized.add(canonical(outcome))
            batched, outcome = time_design(infrastructure, service)
            serialized.add(canonical(outcome))
        else:
            batched, outcome = time_design(infrastructure, service)
            serialized.add(canonical(outcome))
            scalar, outcome = time_design(infrastructure, service,
                                          scalar=True)
            serialized.add(canonical(outcome))
        pairs.append((scalar, batched))
    assert len(serialized) == 1, "batching changed the designed system"
    return pairs


@pytest.fixture(scope="module")
def batch_report(smoke, paper_infra):
    ecommerce = ecommerce_service()
    reps, speedup_floor = budgets(smoke)
    time_design(paper_infra, ecommerce, scalar=True)   # warm the code
    time_design(paper_infra, ecommerce)
    pairs = measure_paired(paper_infra, ecommerce, reps)
    ratios = [scalar / batched for scalar, batched in pairs]
    speedup = statistics.median(ratios)
    scalar_best = min(scalar for scalar, _ in pairs)
    batched_best = min(batched for _, batched in pairs)
    lines = [
        "vectorized tier solves: scalar-vs-batched paired cold runs "
        "(e-commerce, 1000 users, 100 min)",
        "",
        "scalar cold:   %8.1f ms fastest of %d" % (scalar_best * 1e3,
                                                   reps),
        "batched cold:  %8.1f ms fastest of %d" % (batched_best * 1e3,
                                                   reps),
        "per-rep ratios: %s" % " ".join("%.2fx" % r for r in ratios),
        "speedup:       %8.2fx median paired ratio (floor %.1fx)"
        % (speedup, speedup_floor),
    ]
    write_bench_json("batch",
                     {"scalar_seconds": scalar_best,
                      "batched_seconds": batched_best,
                      "paired_ratios": ratios,
                      "median_speedup": speedup},
                     meta={"speedup_floor": speedup_floor,
                           "reps": reps},
                     smoke=smoke)
    write_report("batch.txt", "\n".join(lines))
    return speedup


def test_batched_speedup_meets_floor(batch_report, smoke, full_sweep):
    speedup_floor = budgets(smoke)[1]
    assert batch_report >= speedup_floor, (
        "batched cold run only %.2fx faster than scalar (floor %.1fx)"
        % (batch_report, speedup_floor))


def test_batched_outcomes_identical_across_modes(tmp_path, paper_infra):
    """Default == scalar-reference JSON across jobs 1/2 and cache
    off/cold/warm."""
    ecommerce = ecommerce_service()
    _, baseline = time_design(paper_infra, ecommerce, scalar=True)
    expected = canonical(baseline)
    root = str(tmp_path / "store")
    variants = [
        dict(),
        dict(jobs=1),
        dict(jobs=2),
        dict(cache=root),   # cold store
        dict(cache=root),   # warm store
    ]
    for kwargs in variants:
        _, outcome = time_design(paper_infra, ecommerce, **kwargs)
        assert canonical(outcome) == expected, (
            "batched outcome drifted from the scalar reference under %r"
            % (kwargs,))
