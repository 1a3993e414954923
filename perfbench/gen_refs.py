"""Regenerate the benchmark's reference answers.

    python3 perfbench/gen_refs.py

Runs every point of the finite requirement grid through the program's
in-process CLI and writes ``perfbench/refs/answers.json`` (the chosen
design, annual cost and downtime of each point, or "infeasible"; the
frontier text; the expected map lookups) and ``perfbench/refs/
fig6_map.json`` (the Fig. 6 map, byte for byte).  The committed files
were generated from the commit recorded in ``answers.json``; regenerate
them only when a change is meant to alter the program's answers.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time

import common


def run_cli(argv):
    from repro.cli import main
    common.check_args(argv)
    out = io.StringIO()
    started = time.perf_counter()
    code = main(list(argv), out=out)
    return code, out.getvalue(), time.perf_counter() - started


def design_ref(argv):
    code, stdout, elapsed = run_cli(argv)
    if code == 2 and stdout.startswith("infeasible:"):
        return {"answer": "infeasible"}, elapsed
    if code != 0:
        raise SystemExit("%s exited %d: %s" % (argv, code, stdout))
    answer = json.loads(stdout)
    return {"answer": "ok", "design": answer["design"],
            "annual_cost": answer["annual_cost"],
            "downtime_minutes": answer["downtime_minutes"]}, elapsed


def main() -> int:
    common.require_program()
    common.scrub_own_env()
    from repro.grid import MapService
    from repro.units import Duration

    refs = {"generated_from": common.provenance(),
            "ecommerce": {}, "lookups": {}}
    for load, minutes in common.ECOM_POINTS:
        ref, elapsed = design_ref(common.ecom_design_args(load, minutes))
        refs["ecommerce"][common.point_key(load, minutes)] = ref
        print("ecommerce %-9s %-10s %.2fs"
              % (common.point_key(load, minutes), ref["answer"], elapsed))

    work = common.make_tmpdir("refs")
    try:
        out = os.path.join(work, "map.json")
        code, stdout, elapsed = run_cli(common.map_build_args(
            out, os.path.join(work, "journal.jsonl"),
            os.path.join(work, "cache")))
        if code != 0:
            raise SystemExit("map build exited %d: %s" % (code, stdout))
        print("map build %.2fs" % elapsed)
        os.makedirs(common.REFS, exist_ok=True)
        map_path = os.path.join(common.REFS, "fig6_map.json")
        with open(out, "rb") as src, open(map_path, "wb") as dst:
            dst.write(src.read())
    finally:
        common.remove_tmpdir(work)

    service = MapService(map_path)
    for load, minutes in common.LOOKUP_POINTS:
        answer = service.lookup(float(load), Duration.minutes(minutes))
        if answer["answer"] not in ("ok", "infeasible"):
            raise SystemExit("lookup %s: %s" % ((load, minutes), answer))
        refs["lookups"][common.point_key(load, minutes)] = json.loads(
            json.dumps(common.strip_lookup(answer)))
    with open(os.path.join(common.REFS, "answers.json"), "w") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
