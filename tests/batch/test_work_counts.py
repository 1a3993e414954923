"""Exact work counts of the paper's e-commerce design, per path.

Timing is noisy; the amount of work is not.  Each row pins how many
availability solves, batched wavefronts, in-search cache hits and
persistent-store lookups one design makes -- the paper's three-tier
e-commerce service at load 1000 and 100 min/yr -- on a cold and a warm
store, serially and with ``jobs=2``.  A change in the amount of work
then fails here without any timing noise.

Every row makes the same 1116 solves: the three tier frontiers
enumerate 1116 structures with no cost bound, each wavefront is one
resource total, and the decision loop reads every solve back as an
in-search cache hit.  Store lookups: one per model, plus three for the
final verification of the chosen design (one per tier).  The scalar
reference row (:class:`~tests.reference.ScalarMarkovEngine`) solves
the same structures lazily, one at a time.
"""

import pytest

from repro.core import Aved
from repro.model import ServiceRequirements
from repro.units import Duration

from ..reference import ScalarMarkovEngine

REQUIREMENTS = ServiceRequirements(1000, Duration.minutes(100))

COLUMNS = ("availability_evaluations", "batched_wavefronts",
           "batched_solves", "cache_hits", "parallel_batches")


@pytest.fixture(scope="module")
def outcomes(paper_infra, ecommerce, tmp_path_factory):
    """Every row's outcome; each store is filled by its cold row."""
    serial_store = str(tmp_path_factory.mktemp("serial-store"))
    pooled_store = str(tmp_path_factory.mktemp("pooled-store"))
    configs = [
        ("scalar", dict(availability_engine=ScalarMarkovEngine())),
        ("serial", {}),
        ("serial-cold", dict(cache=serial_store)),
        ("serial-warm", dict(cache=serial_store)),
        ("jobs2", dict(jobs=2)),
        ("jobs2-cold", dict(cache=pooled_store, jobs=2)),
        ("jobs2-warm", dict(cache=pooled_store, jobs=2)),
    ]
    return {label: Aved(paper_infra, ecommerce, **kwargs)
            .design(REQUIREMENTS) for label, kwargs in configs}


@pytest.mark.parametrize(
    ("label,"
     "availability_evaluations,"
     "batched_wavefronts,"
     "batched_solves,"
     "cache_hits,"
     "parallel_batches,"
     "store_hits,"
     "store_misses"), [
         # the scalar reference: lazy solves, nothing read back
         ("scalar", 1116, 0, 0, 0, 0, None, None),
         # jobs=None: one stacked wavefront per resource total
         ("serial", 1116, 63, 1116, 1116, 0, None, None),
         ("serial-cold", 1116, 63, 1116, 1116, 0, 3, 1116),
         ("serial-warm", 1116, 63, 1116, 1116, 0, 1119, 0),
         # jobs=2: the same wavefronts, shape-chunked across the pool
         ("jobs2", 1116, 63, 1116, 1116, 63, None, None),
         ("jobs2-cold", 1116, 63, 1116, 1116, 63, 3, 1116),
         ("jobs2-warm", 1116, 63, 1116, 1116, 63, 1119, 0),
     ]
)
def test_work_counts(outcomes, label, availability_evaluations,
                     batched_wavefronts, batched_solves, cache_hits,
                     parallel_batches, store_hits, store_misses):
    outcome = outcomes[label]
    counts = {column: getattr(outcome.stats, column)
              for column in COLUMNS}
    assert counts == {
        "availability_evaluations": availability_evaluations,
        "batched_wavefronts": batched_wavefronts,
        "batched_solves": batched_solves,
        "cache_hits": cache_hits,
        "parallel_batches": parallel_batches,
    }
    if store_hits is None:
        assert outcome.cache is None
    else:
        assert (outcome.cache["hits"], outcome.cache["misses"]) == \
            (store_hits, store_misses)
