"""The benchmark's metric catalogue and the per-layer summary.

The catalogue -- each metric's name, unit and direction -- is the one
``BENCHMARK.json`` lists, read from there.  Every workload reports
every metric: end-to-end ones on a plain run, per-layer ones on a
traced run.  A layer a workload does not reach reports 0.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Sequence

import common


def _catalogue(kind: str) -> Dict[str, Any]:
    """name -> (unit, better) of one section of ``BENCHMARK.json``."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: (metric["unit"], metric["better"])
            for metric in spec[kind]}


#: What each end-to-end metric means on each workload is in README.md.
END_TO_END = _catalogue("end_to_end")
PER_LAYER = _catalogue("per_layer")

#: The work counts that must repeat exactly across traced runs with
#: one seed (the self-test pins this).
WORK_COUNTS = tuple(name for name, (unit, _) in PER_LAYER.items()
                    if unit == "count" and not name.startswith("import."))

#: span name -> (count metric or None, self-time metric or None)
_SPANS = {
    "spec.parse": ("spec.parses", "spec.parse_s"),
    "lint.pair": ("lint.pairs", "lint.pair_s"),
    "model.tier_model": ("model.tier_models", "model.tier_model_s"),
    "solve.inplace": ("solve.inplace_modes", "solve.inplace_s"),
    "solve.failover": ("solve.failover_modes", "solve.failover_s"),
    "batch.solve": ("batch.wavefronts", "batch.solve_s"),
    "search": (None, "search.self_s"),
    "search.combine": (None, "search.combine_s"),
    "cache.get": ("cache.gets", "cache.get_s"),
    "cache.put": ("cache.puts", "cache.put_s"),
    "grid.shard": ("grid.shards", None),
    "grid.journal": ("grid.journal_appends", "grid.journal_s"),
    "map.lookup": ("map.lookups", "map.lookup_s"),
    "serialize.map": (None, "serialize.map_s"),
    "serialize.result": (None, "serialize.result_s"),
    "checkpoint.save": ("checkpoint.saves", "checkpoint.save_s"),
    "fallback": ("fallback.tier_evals", "fallback.s"),
    "runtime": (None, "runtime.s"),
    "jobstore.append": ("serve.jobstore_appends", None),
    "op": (None, "op.unattributed_s"),
}


def merge_dumps(dumps: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum span summaries from several processes."""
    merged: Dict[str, Any] = {"aggregates": {}, "search": {},
                              "queue_waits": [], "ops": {},
                              "spans_dropped": 0}
    for dump in dumps:
        for label, values in dump["aggregates"].items():
            into = merged["aggregates"].setdefault(label,
                                                   [0, 0.0, 0.0, 0.0, 0])
            for index, value in enumerate(values):
                into[index] += value
        for field, value in dump["search"].items():
            merged["search"][field] = merged["search"].get(field, 0) \
                + value
        merged["queue_waits"].extend(dump["queue_waits"])
        for op, layers in dump["ops"].items():
            into = merged["ops"].setdefault(op, {})
            for label, seconds in layers.items():
                into[label] = into.get(label, 0.0) + seconds
        merged["spans_dropped"] += dump["spans_dropped"]
    return merged


def slowest_ops(dump: Dict[str, Any], count: int = 3,
                layers: int = 4) -> List[Dict[str, Any]]:
    """The ops with the most traced time, each with its top layers."""
    totals = sorted(((sum(by_layer.values()), op, by_layer)
                     for op, by_layer in dump["ops"].items()),
                    key=lambda item: item[0], reverse=True)
    return [{"op": op, "s": total,
             "self_s": dict(sorted(by_layer.items(), key=lambda kv: -kv[1])
                            [:layers])}
            for total, op, by_layer in totals[:count]]


def per_layer(dump: Dict[str, Any], imports: Dict[str, float],
              latencies_s: List[float], lateness_s: List[float],
              plain_p50: float, traced_p50: float) -> Dict[str, float]:
    """Every PER_LAYER metric from a merged span summary."""
    aggregates = dump["aggregates"]
    values: Dict[str, float] = {}
    for label, (count_name, self_name) in _SPANS.items():
        count, _total, self_time, _extra, _hits = aggregates.get(
            label, [0, 0.0, 0.0, 0.0, 0])
        if count_name:
            values[count_name] = float(count)
        if self_name:
            values[self_name] = self_time
    values["batch.members"] = aggregates.get("batch.solve",
                                             [0, 0, 0, 0.0])[3]
    values["runtime.tasks"] = aggregates.get("runtime", [0, 0, 0, 0.0])[3]
    gets = aggregates.get("cache.get", [0, 0.0, 0.0, 0.0, 0])
    values["cache.hit_ratio"] = gets[4] / gets[0] if gets[0] else 0.0
    jobstore = [aggregates.get(label, [0, 0.0, 0.0])[2]
                for label in ("jobstore.op", "jobstore.append")]
    values["serve.jobstore_s"] = sum(jobstore)
    search = dump["search"]
    values["search.structures"] = float(search.get(
        "structures_enumerated", 0))
    values["search.solves"] = float(search.get(
        "availability_evaluations", 0))
    values["search.memo_hits"] = float(search.get("cache_hits", 0))
    probes = search.get("dominance_probes", 0)
    pruned = search.get("dominance_pruned", 0)
    values["search.dominance_probes"] = float(probes)
    values["search.dominance_pruned"] = float(pruned)
    values["search.prune_yield"] = pruned / probes if probes else 0.0
    waits = dump["queue_waits"]
    values["serve.queue_wait_s"] = common.median(waits) if waits else 0.0
    for name, samples, q in (("lookup.p50_ms", latencies_s, 50),
                             ("lookup.p99_ms", latencies_s, 99),
                             ("lookup.late_ms", lateness_s, 99)):
        values[name] = (common.percentile(samples, q) * 1e3 if samples
                        else 0.0)
    values["trace.spans"] = float(sum(agg[0] for agg
                                      in aggregates.values()))
    values["trace.plain_op_p50_s"] = plain_p50
    values["trace.traced_op_p50_s"] = traced_p50
    values["trace.overhead_s"] = traced_p50 - plain_p50
    values.update(imports)
    return values


def import_breakdown(stderr: str) -> Dict[str, float]:
    """``-X importtime`` output -> import.total_s/scipy_s/modules.

    Lines come children-first, indented by depth.  The total is the
    cumulative time of the top-level ``repro`` imports; the module
    count covers them and everything they pulled in.
    """
    total_us = scipy_us = 0
    modules = pending = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue      # the header line
        name = parts[2]
        stripped = name.strip()
        if stripped == "scipy.stats":
            scipy_us = max(scipy_us, cumulative)
        pending += 1
        if name.startswith(" ") and not name.startswith("  "):
            # depth 0: one space after the bar
            if stripped == "repro" or stripped.startswith("repro."):
                total_us += cumulative
                modules += pending
            pending = 0
    return {"import.total_s": total_us / 1e6,
            "import.scipy_s": scipy_us / 1e6,
            "import.modules": float(modules)}


def e2e_units() -> Dict[str, str]:
    return {name: unit for name, (unit, _) in END_TO_END.items()}


def layer_units() -> Dict[str, str]:
    return {name: unit for name, (unit, _) in PER_LAYER.items()}


def result_line(correct: bool, attempted: int, failed: int,
                values: Dict[str, float],
                units: Dict[str, str]) -> Dict[str, Any]:
    missing = [name for name in units if name not in values]
    if missing:
        raise RuntimeError("metrics not measured: %s" % missing)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(values[name]),
                               "unit": units[name]}
                        for name in units}}
