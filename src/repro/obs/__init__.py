"""repro.obs: zero-dependency observability for the design engine.

Three pieces (see docs/OBSERVABILITY.md for the span model and metric
catalogue):

* **Trace spans** (:mod:`repro.obs.trace`) -- a hierarchical, timed
  record of one engine run: ``design`` -> ``tier-search`` ->
  ``batch-solve`` (one per Markov wavefront) or ``tier-solve`` ->
  ``engine-solve`` (one candidate at a time), with worker-process
  spans re-parented under their submitting ``parallel-batch`` span.
* **Metrics** (:mod:`repro.obs.metrics`) -- counters, gauges and
  histograms (evaluations, cache hits, cost prunes, retries, breaker
  trips, per-engine solve-time distributions), snapshotted into
  :class:`repro.core.DesignOutcome`.
* **Profiles** (:mod:`repro.obs.profile`) -- self/cumulative phase
  tables and ``BENCH_*.json`` records derived from a trace.

Observability is off by default and costs one global read plus one
attribute check per instrumentation site (``bench_obs.py`` holds that
to <3% of a Markov solve).  Enable it for a scope::

    from repro.obs import Observer, observing

    with observing() as obs:
        outcome = engine.design(requirements)
    print(obs.tracer.to_json())          # the span tree
    print(obs.metrics.snapshot())        # the counters

or from the CLI: ``repro design ... --trace t.json --metrics-out
m.json`` and ``repro profile ...``.
"""

from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      DEFAULT_BUCKETS)
from .observer import (NullObserver, Observer, current, disabled,
                       install, observing, snapshot_metrics)
from .profile import (BENCH_FORMAT, PhaseProfile, bench_record,
                      profile_bench_record, profile_spans,
                      profile_table, write_bench_record)
from .trace import Span, Tracer

__all__ = [
    "Span", "Tracer",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "Observer", "NullObserver", "current", "install", "observing",
    "disabled", "snapshot_metrics",
    "PhaseProfile", "profile_spans", "profile_table",
    "bench_record", "write_bench_record", "profile_bench_record",
    "BENCH_FORMAT",
]
