"""Aved end-to-end benchmark.

    python3 perfbench/run.py --workload {engine,serve} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  A plain run (``--trace 0``) prints
the end-to-end metrics; a traced run (``--trace 1``) prints the
per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it is a JSON detail record (provenance, sample counts, and the
per-surface metrics under their own names).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback

import common
import metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("engine", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an error: daemons are stopped, scratch removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    common.require_program()
    common.scrub_own_env()
    import workloads
    refs = common.load_refs()
    common.warm_bytecode()
    work = common.make_tmpdir(args.workload)
    run = workloads.Run(args.seed, args.seconds, bool(args.trace), refs,
                        work)
    try:
        outcome = workloads.WORKLOADS[args.workload](run)
    except Exception:   # noqa: BLE001 - report, print no result
        traceback.print_exc()
        return 1
    finally:
        common.remove_tmpdir(work)
    tally = run.tally
    if args.trace:
        values, units = outcome["layers"], metrics.layer_units()
    else:
        values, units = outcome["values"], metrics.e2e_units()
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": common.provenance(),
              "error_rate": tally.failed / max(tally.attempted, 1),
              "failures": tally.reasons,
              "detail": outcome.get("detail", {})}
    if not args.trace:
        detail.update(raw=run.raw, speed=run.speed.summary())
    for name in units:
        print("%-24s %14.6g %s" % (name, values[name], units[name]))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(metrics.result_line(
        tally.failed == 0, tally.attempted, tally.failed, values, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
