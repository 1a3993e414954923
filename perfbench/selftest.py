"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [--workloads engine,serve]

Checks, on the named workloads (both by default):

* each workload runs at its smallest size (one unit of work), answers
  correctly, and prints every metric ``BENCHMARK.json`` names, with
  its unit;
* a corrupted reference answer makes the engine workload report
  failures;
* two traced runs with one seed give identical work counts;
* without the program next to it, the benchmark exits non-zero and
  prints no result.

Takes several minutes: every run does at least one whole unit.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import subprocess
import sys
from typing import Tuple

import common
import metrics

RUN = os.path.join(common.HERE, "run.py")
SMOKE_SECONDS = "1"


class SelfTestFailure(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def bench(workload: str, seed: int,
          trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, RUN, "--workload", workload, "--seed",
            str(seed), "--seconds", SMOKE_SECONDS, "--trace", str(trace)]
    return subprocess.run(argv, cwd=common.ROOT, capture_output=True,
                          text=True, timeout=600)


def result(done) -> Tuple[dict, dict]:
    """The result line and the detail record of a finished run."""
    check(done.returncode == 0, "exit %d: %s" % (done.returncode,
                                                 done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def test_smoke(workload: str) -> None:
    res, detail = result(bench(workload, 11, 0))
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          "result keys")
    check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
          "%s answers wrong: %s" % (workload, detail["failures"]))
    units = metrics.e2e_units()
    check(set(res["metrics"]) == set(units), "%s metric names" % workload)
    for name, value in res["metrics"].items():
        check(value["unit"] == units[name], "%s unit" % name)
        check(value["value"] > 0, "%s %s is not positive"
              % (workload, name))
    check(detail["error_rate"] == 0.0, "error_rate")
    provenance = detail["provenance"]
    for key in ("nproc", "python", "numpy", "scipy", "src_sha256"):
        check(provenance.get(key), "provenance lacks %s" % key)


def test_corrupted_reference() -> None:
    """One wrong reference design cost fails the engine's designs."""
    refs = copy.deepcopy(common.load_refs())
    for ref in refs["ecommerce"].values():
        if ref["answer"] == "ok":
            ref["annual_cost"] += 1.0
            break
    common.scrub_own_env()
    import workloads
    work = common.make_tmpdir("selftest-refs")
    try:
        run = workloads.Run(11, float(SMOKE_SECONDS), False, refs, work)
        workloads.WORKLOADS["engine"](run)
    finally:
        common.remove_tmpdir(work)
    check(run.tally.failed > 0, "engine missed a corrupted reference")


def test_trace_counts(workload: str) -> None:
    runs = [result(bench(workload, 5, 1))[0] for _ in range(2)]
    units = metrics.layer_units()
    for res in runs:
        check(res["correct"], "traced %s answers wrong" % workload)
        check(set(res["metrics"]) == set(units),
              "%s per-layer names" % workload)
    for name in metrics.WORK_COUNTS:
        first, second = (res["metrics"][name]["value"] for res in runs)
        check(first == second, "%s %s: %r != %r"
              % (workload, name, first, second))


def test_without_program() -> None:
    alone = common.make_tmpdir("selftest-alone")
    try:
        shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(common.HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "engine",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=alone, capture_output=True, text=True, timeout=180)
        check(done.returncode != 0, "ran without the program")
        check(not done.stdout.strip(), "printed output without a program")
    finally:
        common.remove_tmpdir(alone)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark self-tests")
    parser.add_argument("--workloads", default="engine,serve")
    args = parser.parse_args(argv)
    common.require_program()
    workloads = args.workloads.split(",")
    tests = [("without program", test_without_program, ())]
    for workload in workloads:
        tests += [("smoke %s" % workload, test_smoke, (workload,)),
                  ("trace counts %s" % workload, test_trace_counts,
                   (workload,))]
    tests.append(("corrupted reference engine", test_corrupted_reference,
                  ()))
    failures = 0
    for name, test, test_args in tests:
        try:
            test(*test_args)
        except SelfTestFailure as exc:
            failures += 1
            print("FAIL %s: %s" % (name, exc), flush=True)
        else:
            print("ok   %s" % name, flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
