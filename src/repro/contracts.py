"""JSON Schemas for the CLI's machine-readable outputs.

Every JSON document the ``repro`` command emits is a **contract**:
downstream tooling (CI gates, dashboards, the utility-computing
controller) parses it, so its shape must not drift silently.  This
module pins each shape as a JSON Schema (draft-07 subset), and the
contract tests (``tests/core/test_cli_contracts.py``) validate live
CLI output against them.

Schemas are plain dicts so they impose no dependency at runtime;
validation itself uses ``jsonschema`` where available (the contract
tests skip gracefully without it).
"""

from __future__ import annotations

from typing import Any, Dict

#: ``repro design --json`` -- the evaluation summary
#: (:func:`repro.core.serialize.evaluation_to_dict`).
DESIGN_EVALUATION_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["design", "annual_cost", "cost_breakdown",
                 "downtime_minutes", "tier_downtime_minutes"],
    "properties": {
        "design": {
            "type": "object",
            "required": ["tiers"],
            "properties": {
                "tiers": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["tier", "resource", "n_active",
                                     "n_spare", "mechanisms"],
                        "properties": {
                            "tier": {"type": "string"},
                            "resource": {"type": "string"},
                            "n_active": {"type": "integer",
                                         "minimum": 1},
                            "n_spare": {"type": "integer",
                                        "minimum": 0},
                            "spare_active_prefix": {
                                "type": "array",
                                "items": {"type": "integer"}},
                            "mechanisms": {
                                "type": "object",
                                "additionalProperties": {
                                    "type": "object"}},
                        },
                    },
                },
            },
        },
        "annual_cost": {"type": "number", "minimum": 0},
        "cost_breakdown": {
            "type": "object",
            "required": ["active_components", "spare_components",
                         "mechanisms"],
            "properties": {
                "active_components": {"type": "number"},
                "spare_components": {"type": "number"},
                "mechanisms": {"type": "number"},
            },
        },
        "downtime_minutes": {"type": "number", "minimum": 0},
        "tier_downtime_minutes": {
            "type": "object",
            "additionalProperties": {"type": "number"}},
        "engines": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["engine", "attempts"],
                "properties": {
                    "engine": {"type": "string"},
                    "attempts": {"type": "integer", "minimum": 1},
                    "fallback_from": {"type": "array",
                                      "items": {"type": "string"}},
                    "cause": {"type": "string"},
                },
            },
        },
        "job_time": {
            "type": "object",
            "required": ["expected_hours", "useful_fraction",
                         "overhead_factor", "uptime_fraction"],
            "properties": {
                "expected_hours": {"type": ["number", "null"]},
                "useful_fraction": {"type": "number"},
                "overhead_factor": {"type": "number"},
                "uptime_fraction": {"type": "number"},
            },
        },
    },
}

#: ``repro lint --format json`` -- a :class:`repro.lint.LintReport`.
LINT_REPORT_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["diagnostics", "summary"],
    "properties": {
        "diagnostics": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["code", "message", "severity"],
                "properties": {
                    "code": {"type": "string",
                             "pattern": "^AVD[0-9]{3}$"},
                    "message": {"type": "string"},
                    "severity": {"enum": ["error", "warning", "info"]},
                    "context": {"type": "string"},
                    "span": {
                        "type": "object",
                        "properties": {
                            "line": {"type": "integer"},
                            "start": {"type": "integer"},
                            "end": {"type": "integer"},
                            "source": {"type": "string"},
                        },
                    },
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["errors", "warnings", "infos"],
            "properties": {
                "errors": {"type": "integer", "minimum": 0},
                "warnings": {"type": "integer", "minimum": 0},
                "infos": {"type": "integer", "minimum": 0},
            },
        },
    },
}

#: ``repro lint --space --format json`` -- the lint report plus a
#: ``space`` member (:meth:`repro.lint.SpaceReport.to_dict`).  Exit
#: codes match plain ``lint``: 0 clean, 1 on errors (or warnings under
#: ``--strict``) -- an empty space (AVD501) or contradictory fixed
#: settings (AVD507) therefore fail the gate.
LINT_SPACE_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["diagnostics", "summary", "space"],
    "properties": {
        "diagnostics": LINT_REPORT_SCHEMA["properties"]["diagnostics"],
        "summary": LINT_REPORT_SCHEMA["properties"]["summary"],
        "space": {
            "type": "object",
            "required": ["load", "max_downtime_minutes", "structures",
                         "dominance_covered", "tiers"],
            "properties": {
                "load": {"type": ["number", "null"]},
                "max_downtime_minutes": {"type": ["number", "null"]},
                "structures": {"type": "integer", "minimum": 0},
                "dominance_covered": {"type": "integer", "minimum": 0},
                "tiers": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["tier", "structures",
                                     "equivalence_classes",
                                     "dominance_covered", "options"],
                        "properties": {
                            "tier": {"type": "string"},
                            "structures": {"type": "integer",
                                           "minimum": 0},
                            "equivalence_classes": {
                                "type": ["integer", "null"]},
                            "dominance_covered": {"type": "integer",
                                                  "minimum": 0},
                            "options": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "required": ["resource", "n_min",
                                                 "structures", "combos",
                                                 "equivalence_classes",
                                                 "dominance_covered",
                                                 "certificate_groups"],
                                    "properties": {
                                        "resource": {"type": "string"},
                                        "n_min": {
                                            "type": ["integer", "null"]},
                                        "structures": {
                                            "type": "integer",
                                            "minimum": 0},
                                        "combos": {"type": "integer",
                                                   "minimum": 0},
                                        "equivalence_classes": {
                                            "type": ["integer", "null"]},
                                        "dominance_covered": {
                                            "type": "integer",
                                            "minimum": 0},
                                        "certificate_groups": {
                                            "type": "integer",
                                            "minimum": 0},
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}

#: ``repro design --metrics-out`` -- a
#: :meth:`repro.obs.MetricsRegistry.snapshot`.
METRICS_SNAPSHOT_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["counters", "gauges", "histograms"],
    "properties": {
        "counters": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0}},
        "gauges": {
            "type": "object",
            "additionalProperties": {"type": "number"}},
        "histograms": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["count", "sum_seconds", "buckets"],
                "properties": {
                    "count": {"type": "integer", "minimum": 0},
                    "sum_seconds": {"type": "number", "minimum": 0},
                    "min_seconds": {"type": ["number", "null"]},
                    "max_seconds": {"type": ["number", "null"]},
                    "buckets": {
                        "type": "object",
                        "additionalProperties": {"type": "integer"}},
                },
            },
        },
    },
}

#: ``repro design --trace`` / ``repro profile --trace`` -- a span
#: forest (:meth:`repro.obs.Tracer.to_json`).  Recursive via ``$ref``.
TRACE_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["spans"],
    "properties": {
        "spans": {"type": "array",
                  "items": {"$ref": "#/definitions/span"}},
    },
    "definitions": {
        "span": {
            "type": "object",
            "required": ["name", "attributes", "start_ms",
                         "duration_ms", "children"],
            "properties": {
                "name": {"type": "string"},
                "attributes": {
                    "type": "object",
                    "additionalProperties": {
                        "type": ["string", "number", "boolean",
                                 "null"]}},
                "start_ms": {"type": "number", "minimum": 0},
                "duration_ms": {"type": "number", "minimum": 0},
                "children": {"type": "array",
                             "items": {"$ref": "#/definitions/span"}},
            },
        },
    },
}

#: ``BENCH_*.json`` benchmark artifacts
#: (:func:`repro.obs.bench_record` envelope).
BENCH_RECORD_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["bench", "format", "results"],
    "properties": {
        "bench": {"type": "string", "minLength": 1},
        "format": {"type": "integer", "minimum": 1},
        "results": {"type": "object"},
        "meta": {"type": "object"},
    },
}

#: ``GET /v1/jobs/<id>`` -- a job view
#: (:meth:`repro.serve.jobstore.Job.to_dict`).  The ``result`` of a
#: completed job embeds the design-evaluation contract above.
SERVE_JOB_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["id", "state", "attempts"],
    "properties": {
        "id": {"type": "string", "pattern": "^job-[0-9]{6,}$"},
        "state": {"enum": ["queued", "running", "completed", "failed",
                           "cancelled"]},
        "attempts": {"type": "integer", "minimum": 0},
        "result": {
            "type": "object",
            "required": ["evaluation", "annual_cost",
                         "downtime_minutes", "degraded"],
            "properties": {
                "evaluation": DESIGN_EVALUATION_SCHEMA,
                "annual_cost": {"type": "number", "minimum": 0},
                "downtime_minutes": {"type": "number", "minimum": 0},
                "degraded": {"type": "boolean"},
                "degradation": {"type": "array",
                                "items": {"type": "string"}},
                "cache": {"type": "object"},
            },
        },
        "error": {
            "type": "object",
            "required": ["kind", "message"],
            "properties": {
                "kind": {"enum": ["infeasible", "deadline", "error",
                                  "internal"]},
                "type": {"type": "string"},
                "message": {"type": "string"},
            },
        },
        "cancel_reason": {"type": "string"},
        "payload": {"type": "object"},
    },
}

#: ``GET /healthz`` / ``GET /readyz`` -- the daemon health view
#: (:meth:`repro.serve.DesignService.health`; readyz adds ``ready``).
SERVE_HEALTH_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["status", "accepting", "queue_depth", "queue_limit",
                 "workers", "running", "jobs", "quarantined"],
    "properties": {
        "status": {"enum": ["ok", "draining"]},
        "accepting": {"type": "boolean"},
        "queue_depth": {"type": "integer", "minimum": 0},
        "queue_limit": {"type": "integer", "minimum": 1},
        "workers": {"type": "integer", "minimum": 1},
        "running": {"type": "integer", "minimum": 0},
        "jobs": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0}},
        "quarantined": {"type": "integer", "minimum": 0},
        "breakers": {
            "type": "object",
            "additionalProperties": {
                "enum": ["closed", "open", "half-open"]}},
        "pool": {"type": ["object", "null"]},
        "service_estimate_seconds": {"type": "number", "minimum": 0},
        "cache": {"type": ["object", "null"]},
        "watch": {"type": ["object", "null"]},
        "map": {"type": ["object", "null"]},
        "journal": {
            "type": "object",
            "required": ["torn", "corrupt", "preserved"],
            "properties": {
                "torn": {"type": "integer", "minimum": 0},
                "corrupt": {"type": "integer", "minimum": 0},
                "preserved": {"type": "array",
                              "items": {"type": "string"}},
            },
        },
        "ready": {"type": "boolean"},
    },
}

#: A 429 shed response
#: (:meth:`repro.serve.admission.ShedDecision.to_dict`).
SERVE_SHED_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["shed", "reason", "retry_after", "queue_depth"],
    "properties": {
        "shed": {"const": True},
        "reason": {"enum": ["queue-full", "over-budget", "draining"]},
        "retry_after": {"type": "integer", "minimum": 1},
        "queue_depth": {"type": "integer", "minimum": 0},
        "estimated_wait_seconds": {"type": "number", "minimum": 0},
    },
}

#: ``repro cache stats|verify|purge`` -- the store status document
#: (:func:`repro.cli.cmd_cache`).  ``verify`` adds the integrity-scan
#: tally; ``purge`` adds the removed-entry count.
CACHE_STATUS_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["action", "store"],
    "properties": {
        "action": {"enum": ["stats", "verify", "purge"]},
        "store": {
            "type": "object",
            "required": ["root", "format", "canonical_version",
                         "enabled", "store_quarantined", "entries",
                         "size_bytes", "quarantined_entries",
                         "counters"],
            "properties": {
                "root": {"type": "string", "minLength": 1},
                "format": {"type": "integer", "minimum": 1},
                "canonical_version": {"type": "integer", "minimum": 1},
                "enabled": {"type": "boolean"},
                "store_quarantined": {"type": "boolean"},
                "entries": {"type": "integer", "minimum": 0},
                "size_bytes": {"type": "integer", "minimum": 0},
                "quarantined_entries": {"type": "integer", "minimum": 0},
                "memory_entries": {"type": "integer", "minimum": 0},
                "counters": {
                    "type": "object",
                    "additionalProperties": {"type": "integer",
                                             "minimum": 0}},
            },
        },
        "verify": {
            "type": "object",
            "required": ["checked", "ok", "corrupt", "stale"],
            "additionalProperties": {"type": "integer", "minimum": 0},
        },
        "removed": {"type": "integer", "minimum": 0},
    },
}

#: ``repro watch --json`` / the ``watch`` member of ``/healthz`` --
#: the watcher status document (:meth:`repro.watch.Watcher.status`).
WATCH_STATUS_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["tier", "epoch", "polls", "resumed", "spec",
                 "incumbent", "reconfigurations", "infeasible_epochs",
                 "warm_starts", "cold_searches", "ingest",
                 "quarantined", "journal"],
    "properties": {
        "tier": {"type": "string", "minLength": 1},
        "epoch": {"type": "integer", "minimum": 0},
        "polls": {"type": "integer", "minimum": 0},
        "resumed": {"type": "boolean"},
        "spec": {
            "type": "object",
            "required": ["tier", "load", "max_downtime_minutes",
                         "mtbf_hours", "mttr_hours"],
            "properties": {
                "tier": {"type": "string", "minLength": 1},
                "load": {"type": "number", "exclusiveMinimum": 0},
                "max_downtime_minutes": {"type": "number",
                                         "exclusiveMinimum": 0},
                "mtbf_hours": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "number", "exclusiveMinimum": 0}},
                "mttr_hours": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "number", "exclusiveMinimum": 0}},
            },
        },
        "incumbent": {
            "type": ["object", "null"],
            "required": ["resource", "n_active", "n_spare",
                         "annual_cost"],
            "properties": {
                "resource": {"type": "string", "minLength": 1},
                "n_active": {"type": "integer", "minimum": 1},
                "n_spare": {"type": "integer", "minimum": 0},
                "annual_cost": {"type": "number", "minimum": 0},
            },
        },
        "reconfigurations": {"type": "integer", "minimum": 0},
        "infeasible_epochs": {"type": "integer", "minimum": 0},
        "warm_starts": {"type": "integer", "minimum": 0},
        "cold_searches": {"type": "integer", "minimum": 0},
        "ingest": {
            "type": "object",
            "required": ["accepted", "duplicates", "conflicts",
                         "sources"],
            "properties": {
                "accepted": {"type": "integer", "minimum": 0},
                "duplicates": {"type": "integer", "minimum": 0},
                "conflicts": {"type": "integer", "minimum": 0},
                "sources": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "object",
                        "required": ["records", "max_seq", "missing"],
                        "properties": {
                            "records": {"type": "integer",
                                        "minimum": 0},
                            "max_seq": {"type": "integer",
                                        "minimum": -1},
                            "missing": {"type": "integer",
                                        "minimum": 0},
                        },
                    },
                },
            },
        },
        "quarantined": {"type": "integer", "minimum": 0},
        "drift": {
            "type": ["object", "null"],
            "required": ["tier", "drifted", "streak", "cooldown",
                         "reasons"],
            "properties": {
                "tier": {"type": "string"},
                "drifted": {"type": "boolean"},
                "streak": {"type": "integer", "minimum": 0},
                "cooldown": {"type": "integer", "minimum": 0},
                "reasons": {"type": "array",
                            "items": {"type": "string"}},
                "mtbf_hours": {"type": "object"},
                "mttr_hours": {"type": "object"},
                "load": {"type": ["number", "null"]},
            },
        },
        "journal": {
            "type": "object",
            "required": ["enabled", "degraded", "appends"],
            "properties": {
                "enabled": {"type": "boolean"},
                "degraded": {"type": "boolean"},
                "appends": {"type": "integer", "minimum": 0},
            },
        },
        "search": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0}},
        "degradations": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0}},
    },
}

#: ``repro map status --json`` / the ``map`` member of ``/healthz`` --
#: the requirement-space map build/serve status document
#: (:meth:`repro.grid.MapService.status` and
#: :meth:`repro.grid.GridBuilder.status`).
MAP_STATUS_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["tier", "state", "coverage", "loads_total",
                 "loads_built", "shards", "journal"],
    "properties": {
        "tier": {"type": "string", "minLength": 1},
        "state": {"enum": ["missing", "building", "partial",
                           "complete"]},
        "coverage": {"type": "number", "minimum": 0, "maximum": 1},
        "loads_total": {"type": "integer", "minimum": 0},
        "loads_built": {"type": "integer", "minimum": 0},
        "shards": {
            "type": "object",
            "required": ["total", "done", "pending"],
            "properties": {
                "total": {"type": "integer", "minimum": 0},
                "done": {"type": "integer", "minimum": 0},
                "pending": {"type": "integer", "minimum": 0},
                "reused": {"type": "integer", "minimum": 0},
                "faults": {"type": "integer", "minimum": 0},
                "isolated": {"type": "integer", "minimum": 0},
                "reclaimed_leases": {"type": "integer", "minimum": 0},
            },
        },
        "convicted_cells": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["load", "reason"],
                "properties": {
                    "load": {"type": "number"},
                    "reason": {"type": "string"},
                },
            },
        },
        "journal": {
            "type": "object",
            "required": ["enabled", "degraded", "appends"],
            "properties": {
                "enabled": {"type": "boolean"},
                "degraded": {"type": "boolean"},
                "appends": {"type": "integer", "minimum": 0},
            },
        },
        "resumed": {"type": "boolean"},
        "map_path": {"type": ["string", "null"]},
        "map_age_seconds": {"type": ["number", "null"]},
        "format_version": {"type": "integer", "minimum": 1},
        "lookups": {"type": "integer", "minimum": 0},
        "degradations": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0}},
    },
}

CLI_SCHEMAS: Dict[str, Dict[str, Any]] = {
    "design-json": DESIGN_EVALUATION_SCHEMA,
    "lint-json": LINT_REPORT_SCHEMA,
    "lint-space-json": LINT_SPACE_SCHEMA,
    "metrics": METRICS_SNAPSHOT_SCHEMA,
    "trace": TRACE_SCHEMA,
    "bench": BENCH_RECORD_SCHEMA,
    "serve-job": SERVE_JOB_SCHEMA,
    "serve-health": SERVE_HEALTH_SCHEMA,
    "serve-shed": SERVE_SHED_SCHEMA,
    "cache-status": CACHE_STATUS_SCHEMA,
    "watch-status": WATCH_STATUS_SCHEMA,
    "map-status": MAP_STATUS_SCHEMA,
}

__all__ = ["DESIGN_EVALUATION_SCHEMA", "LINT_REPORT_SCHEMA",
           "LINT_SPACE_SCHEMA",
           "METRICS_SNAPSHOT_SCHEMA", "TRACE_SCHEMA",
           "BENCH_RECORD_SCHEMA", "SERVE_JOB_SCHEMA",
           "SERVE_HEALTH_SCHEMA", "SERVE_SHED_SCHEMA",
           "CACHE_STATUS_SCHEMA", "WATCH_STATUS_SCHEMA",
           "MAP_STATUS_SCHEMA", "CLI_SCHEMAS"]
