"""Shared pieces of the benchmark: paths, inputs, statistics, checks.

Everything here is standard library only, so the driver never
imports the program it measures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPECS = os.path.join(ROOT, "examples", "specs")
INFRA_SPEC = os.path.join(SPECS, "paper.infra")
ECOM_SPEC = os.path.join(SPECS, "ecommerce.service")
REFS = os.path.join(HERE, "refs")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

# -- the finite requirement grid -----------------------------------------
#
# Every seed draws from these sets; the seed only permutes them, so any
# seed's answers can be checked against the committed references.

#: E-commerce requirement points (load units/h, downtime minutes/yr).
#: The 10 min/yr row is infeasible at every load.
LOADS = (400, 1000, 2000)
DOWNTIMES = (10, 100, 1000)
ECOM_POINTS = tuple((load, minutes) for load in LOADS
                    for minutes in DOWNTIMES)
#: The Fig. 6 map: application tier only, the paper's load sweep.
FIG6_LOADS = (400, 800, 1400, 1600, 2400, 3200, 4000, 5000)
#: Lookup queries: loads on and between the Fig. 6 grid lines (answers
#: round up to the next built line), downtimes spanning ok and
#: infeasible answers (1e-12 min/yr is below most frontiers).  All lie
#: inside the built grid.
LOOKUP_LOADS = (300, 400, 650, 800, 1000, 1400, 1500, 1600, 2000, 2400,
                3000, 3200, 3700, 4000, 4500, 5000)
LOOKUP_DOWNTIMES = (1e-12, 1, 3, 10, 30, 100, 300, 1000, 3000)
LOOKUP_POINTS = tuple((load, minutes) for load in LOOKUP_LOADS
                      for minutes in LOOKUP_DOWNTIMES)
#: Open-loop lookup rate, requests per second.  Beside two running
#: design jobs a lookup takes about 20 ms (GIL contention); 20/s keeps
#: the daemon below saturation.
LOOKUP_RATE = 20.0

#: Flags the benchmark must never pass: each one leaves the default
#: path the workloads exist to measure.
FORBIDDEN_FLAGS = ("--no-fsync", "--batch", "--jobs")


def point_key(load: float, minutes: float) -> str:
    return "%g/%g" % (load, minutes)


def ecom_design_args(load: float, minutes: float) -> List[str]:
    return ["design", "--infrastructure", INFRA_SPEC,
            "--service", ECOM_SPEC, "--load", "%g" % load,
            "--downtime", "%gm" % minutes, "--json"]


def map_build_args(out: str, journal: str, cache: str) -> List[str]:
    return ["map", "build", "--paper-ecommerce", "--app-tier-only",
            "--tier", "application",
            "--loads", ",".join("%g" % load for load in FIG6_LOADS),
            "--journal", journal, "--cache", cache, "--out", out]


def check_args(argv: Sequence[str]) -> None:
    for flag in FORBIDDEN_FLAGS:
        if any(arg == flag or arg.startswith(flag + "=")
               for arg in argv):
            raise ValueError("benchmark must not pass %s" % flag)


def passes(items: Sequence[Any], rng: random.Random) \
        -> Iterator[List[Any]]:
    """Endless passes over ``items``, each pass a fresh permutation."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order


# -- the environment -------------------------------------------------------

def require_program() -> None:
    """Exit 2 (and print no result) when the program is not present."""
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        sys.stderr.write("perfbench: %s/repro not found; run from a "
                         "checkout of the repository\n" % SRC)
        sys.exit(2)
    for path in (INFRA_SPEC, ECOM_SPEC):
        if not os.path.isfile(path):
            sys.stderr.write("perfbench: missing %s\n" % path)
            sys.exit(2)


def child_env() -> Dict[str, str]:
    """The environment of every child: no REPRO_* variable, src first."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    return env


def scrub_own_env() -> None:
    """Drop REPRO_* and put src on the path of this process too."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def assert_clean_child(pid: int) -> None:
    """Fail loudly if a REPRO_* variable reached a live child."""
    try:
        with open("/proc/%d/environ" % pid, "rb") as handle:
            entries = handle.read().split(b"\0")
    except OSError:
        return
    leaked = [entry.split(b"=", 1)[0].decode(errors="replace")
              for entry in entries if entry.startswith(b"REPRO_")]
    if leaked:
        raise RuntimeError("REPRO_* variables reached child %d: %s"
                           % (pid, ", ".join(leaked)))


def make_tmpdir(tag: str) -> str:
    os.makedirs(TMP_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix=tag + "-", dir=TMP_ROOT)


def remove_tmpdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(TMP_ROOT)   # only when no other run still uses it
    except OSError:
        pass


def warm_bytecode() -> None:
    """Compile src once so the first measured import is not a compile."""
    marker = os.path.join(SRC, "repro", "__pycache__")
    if os.path.isdir(marker):
        return
    subprocess.run([sys.executable, "-c", "import repro.cli, "
                    "repro.serve, repro.grid, repro.cache, repro.batch"],
                   env=child_env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    path = "/proc/%s/status" % (pid if pid is not None else "self")
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in %s" % path)


# -- provenance --------------------------------------------------------

def _version(dist: str) -> Optional[str]:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def src_digest() -> str:
    """sha256 over every file under src/repro: the code measured."""
    digest = hashlib.sha256()
    base = os.path.join(SRC, "repro")
    for folder, dirs, files in os.walk(base):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance() -> Dict[str, Any]:
    return {
        "git_commit": _git_commit(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "platform": platform.platform(),
    }


# -- statistics --------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# -- references and checks -----------------------------------------------

def load_refs() -> Dict[str, Any]:
    with open(os.path.join(REFS, "answers.json")) as handle:
        answers = json.load(handle)
    with open(os.path.join(REFS, "fig6_map.json"), "rb") as handle:
        answers["fig6_map_bytes"] = handle.read()
    answers["fig6_map_path"] = os.path.join(REFS, "fig6_map.json")
    return answers


def close(a: float, b: float, rel: float = 1e-6) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_design(ref: Dict[str, Any], answer: Optional[Dict[str, Any]],
                 infeasible: bool) -> Optional[str]:
    """None when the answer matches its reference, else why not.

    ``answer`` holds ``design`` (the serialized design), ``annual_cost``
    and ``downtime_minutes``; ``infeasible`` says the program answered
    "no design meets the requirement".
    """
    if ref["answer"] == "infeasible":
        return None if infeasible else "expected infeasible"
    if infeasible or answer is None:
        return "expected a design, got infeasible"
    if answer.get("design") != ref["design"]:
        return "design differs"
    if answer.get("annual_cost") != ref["annual_cost"]:
        return "cost %r != %r" % (answer.get("annual_cost"),
                                  ref["annual_cost"])
    if not close(float(answer.get("downtime_minutes", math.nan)),
                 ref["downtime_minutes"]):
        return "downtime %r != %r" % (answer.get("downtime_minutes"),
                                      ref["downtime_minutes"])
    return None


def check_cli_output(key: str, code: int, stdout: str,
                     refs: Dict[str, Any]) -> Optional[str]:
    """Check one e-commerce `repro design` call's exit code and stdout."""
    ref = refs["ecommerce"][key]
    if code == 2 and stdout.startswith("infeasible:"):
        return check_design(ref, None, True)
    if code != 0:
        return "exit %d: %s" % (code, stdout.strip()[:200])
    try:
        answer = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    return check_design(ref, answer, False)


def strip_lookup(answer: Dict[str, Any]) -> Dict[str, Any]:
    """A lookup answer without its time-varying field."""
    return {key: value for key, value in answer.items()
            if key != "map_age_seconds"}


def check_lookup(refs: Dict[str, Any], load: float, minutes: float,
                 answer: Dict[str, Any]) -> Optional[str]:
    expected = refs["lookups"][point_key(load, minutes)]
    answer = json.loads(json.dumps(strip_lookup(answer)))
    return None if answer == expected \
        else "lookup %s differs" % point_key(load, minutes)


# -- results -------------------------------------------------------------

class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, what: str, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append("%s: %s" % (what, problem))


#: The clock every measurement uses.
now = time.perf_counter
