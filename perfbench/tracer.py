"""Per-layer tracing installed from outside the program.

:func:`install` wraps the public callables of each layer -- in the
module that looks each name up, or on its class -- with a span
recorder.  A span has a name, start, end, parent and op (or job) id;
spans stay in memory and are summarised when the run ends.  A layer's
self time is its spans' duration minus the part covered by child spans.
Nothing under ``src/`` changes: :func:`uninstall` restores every
original.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Raw spans kept per tracer; aggregates are always complete.
SPAN_CAP = 300000

#: Modules whose callables are wrapped; imported before patching so
#: every binding of a wrapped function can be found.
MODULES = (
    "repro.cli", "repro.spec", "repro.spec.parser", "repro.spec.paper",
    "repro.lint", "repro.lint.model_analyzer", "repro.core",
    "repro.core.engine", "repro.core.evaluation", "repro.core.search",
    "repro.core.serialize", "repro.availability.markov",
    "repro.batch.evaluator", "repro.cache.store", "repro.grid",
    "repro.grid.builder", "repro.grid.journal", "repro.grid.service",
    "repro.resilience.checkpoint", "repro.resilience.fallback",
    "repro.parallel.runtime", "repro.serve.jobstore",
    "repro.serve.service",
)

#: SearchStats fields summed into the search.* work counts.
SEARCH_FIELDS = ("structures_enumerated", "availability_evaluations",
                 "cache_hits", "dominance_probes", "dominance_pruned",
                 "batched_wavefronts", "batched_solves")


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[Dict[str, List[float]]] = []
        self._threads_lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._ids = itertools.count()
        #: (id, name, start, end, parent id or -1, op or job id)
        self.spans: List[Tuple[int, str, float, float, int, Any]] = []
        self.search_stats: List[Any] = []
        self.queue_waits: List[float] = []
        self._submitted: Dict[str, float] = {}

    # -- recording -----------------------------------------------------

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = None
            local.agg = {}
            with self._threads_lock:
                self._threads.append(local.agg)
        return local

    def wrap(self, fn: Callable, name: str,
             classify: Optional[Callable[[Any], str]] = None,
             extra: Optional[Callable[..., float]] = None,
             hit: Optional[Callable[[Any], bool]] = None) -> Callable:
        """``fn`` recorded as span ``name``.

        ``classify(result)`` renames the span from its result,
        ``extra(*args)`` adds to the span's work count (batch members),
        ``hit(result)`` counts successful lookups (cache hits).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._thread_state()
            stack = state.stack
            parent = stack[-1][1] if stack else -1
            frame = [0.0, next(tracer._ids)]
            stack.append(frame)
            label = name
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if classify is not None:
                    label = classify(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                agg = state.agg.get(label)
                if agg is None:
                    agg = state.agg[label] = [0, 0.0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if extra is not None:
                    agg[3] += extra(*args, **kwargs)
                if hit is not None and hit(result):
                    agg[4] += 1
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((frame[1], label, start, end,
                                         parent, state.op))
        return traced

    def run_op(self, op: Any, fn: Callable, *args: Any) -> Any:
        """Run one benchmark operation as a root span ``op``."""
        state = self._thread_state()
        state.op = op
        try:
            return self.wrap(fn, "op")(*args)
        finally:
            state.op = None

    # -- patching ------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_method(self, cls: type, attr: str, name: str,
                     **options: Any) -> None:
        self._set(cls, attr, self.wrap(getattr(cls, attr), name,
                                       **options))

    def patch_function(self, module: Any, attr: str, name: str,
                       **options: Any) -> None:
        """Rebind every loaded ``repro`` module's reference to it."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, **options)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------

    def aggregates(self) -> Dict[str, List[float]]:
        merged: Dict[str, List[float]] = {}
        with self._threads_lock:
            tables = list(self._threads)
        for table in tables:
            for label, values in list(table.items()):
                into = merged.setdefault(label, [0, 0.0, 0.0, 0.0, 0])
                for index, value in enumerate(values):
                    into[index] += value
        return merged

    def search_totals(self) -> Dict[str, int]:
        totals = {field: 0 for field in SEARCH_FIELDS}
        for stats in self.search_stats:
            for field in SEARCH_FIELDS:
                totals[field] += getattr(stats, field, 0)
        return totals

    def op_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Self time per layer within each op (or job), from the spans."""
        covered: Dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + end - start
        ops: Dict[str, Dict[str, float]] = {}
        for span_id, label, start, end, _, op in self.spans:
            if op is None:
                continue
            layers = ops.setdefault(str(op), {})
            layers[label] = layers.get(label, 0.0) + end - start \
                - covered.get(span_id, 0.0)
        return ops

    def dump(self) -> Dict[str, Any]:
        return {"aggregates": self.aggregates(),
                "search": self.search_totals(),
                "queue_waits": list(self.queue_waits),
                "ops": self.op_breakdown(),
                "spans_dropped": next(self._ids) - len(self.spans)}


def _tasks_len(self, tasks, *args, **kwargs) -> float:
    return float(len(tasks))


def _one(*args, **kwargs) -> float:
    return 1.0


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public callables with ``tracer``'s spans."""
    for name in MODULES:
        importlib.import_module(name)
    from repro.availability import markov
    from repro.batch.evaluator import TierBatcher
    from repro.cache.store import TierEvaluationStore
    from repro.core import search, serialize
    from repro.core.evaluation import DesignEvaluator
    from repro.grid.builder import GridBuilder
    from repro.grid.journal import GridJournal
    from repro.grid.service import MapService
    from repro.lint import model_analyzer
    from repro.parallel.runtime import ParallelEvaluationRuntime
    from repro.resilience.checkpoint import SearchCheckpoint
    from repro.resilience.fallback import FallbackEngine
    from repro.serve.jobstore import JobStore
    from repro.serve.service import DesignService
    from repro.spec import parser

    tracer.patch_function(
        markov, "evaluate_mode", "solve.inplace",
        classify=lambda result: ("solve.failover" if result.used_failover
                                 else "solve.inplace"))
    tracer.patch_function(parser, "parse_infrastructure", "spec.parse")
    tracer.patch_function(parser, "parse_service", "spec.parse")
    tracer.patch_function(model_analyzer, "lint_pair", "lint.pair")
    tracer.patch_function(search, "combine_tier_frontiers",
                          "search.combine")
    tracer.patch_function(serialize, "requirement_map_to_json",
                          "serialize.map")
    tracer.patch_function(serialize, "evaluation_to_dict",
                          "serialize.result")
    tracer.patch_method(DesignEvaluator, "tier_model", "model.tier_model")
    tracer.patch_method(TierBatcher, "solve_tasks", "batch.solve",
                        extra=_tasks_len)
    for attr in ("best_tier_design", "tier_frontier",
                 "best_within_budget"):
        tracer.patch_method(search.TierSearch, attr, "search")
    tracer.patch_method(search.JobSearch, "best_design", "search")
    tracer.patch_method(TierEvaluationStore, "get", "cache.get",
                        hit=lambda result: result is not None)
    tracer.patch_method(TierEvaluationStore, "put", "cache.put")
    tracer.patch_method(GridBuilder, "_build_shard", "grid.shard")
    tracer.patch_method(GridJournal, "append", "grid.journal")
    tracer.patch_method(MapService, "lookup", "map.lookup")
    tracer.patch_method(SearchCheckpoint, "save", "checkpoint.save")
    tracer.patch_method(FallbackEngine, "evaluate_tier", "fallback")
    tracer.patch_method(ParallelEvaluationRuntime, "evaluate_candidate",
                        "runtime", extra=_one)
    tracer.patch_method(ParallelEvaluationRuntime, "evaluate_batch",
                        "runtime", extra=_tasks_len)
    for attr in ("submit", "mark_started", "mark_completed",
                 "mark_failed", "mark_cancelled", "mark_requeued"):
        tracer.patch_method(JobStore, attr, "jobstore.op")
    tracer.patch_method(JobStore, "_append", "jobstore.append")
    _patch_search_init(tracer, search._TierSearchBase)
    _patch_queue_wait(tracer, JobStore)
    _patch_job_context(tracer, DesignService)
    return tracer


def _patch_search_init(tracer: Tracer, cls: type) -> None:
    """Keep each search's SearchStats (not the search) for the totals."""
    original = cls.__init__

    @functools.wraps(original)
    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        tracer.search_stats.append(self.stats)
    tracer._set(cls, "__init__", init)


def _patch_queue_wait(tracer: Tracer, cls: type) -> None:
    """Queue wait: ``JobStore.submit`` returning -> ``mark_started``."""
    submit, started = cls.submit, cls.mark_started

    @functools.wraps(submit)
    def traced_submit(self, *args, **kwargs):
        job = submit(self, *args, **kwargs)
        tracer._submitted[job.id] = perf_counter()
        return job

    @functools.wraps(started)
    def traced_started(self, job_id, *args, **kwargs):
        at = tracer._submitted.pop(job_id, None)
        if at is not None:
            tracer.queue_waits.append(perf_counter() - at)
        return started(self, job_id, *args, **kwargs)
    tracer._set(cls, "submit", traced_submit)
    tracer._set(cls, "mark_started", traced_started)


def _patch_job_context(tracer: Tracer, cls: type) -> None:
    """Each job a daemon worker runs is a root span ``op``."""
    original = cls._run_job

    @functools.wraps(original)
    def run_job(self, job):
        return tracer.run_op(job.id, original, self, job)
    tracer._set(cls, "_run_job", run_job)
