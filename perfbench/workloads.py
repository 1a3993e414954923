"""The two workloads: the in-process engine and the design service
daemon.

Each workload takes a :class:`Run` and returns its end-to-end values
(plain run) or its per-layer values (traced run), plus a detail record
with the per-surface metrics and their sample counts.

A plain run does a whole number of units of work -- passes over seeded
permutations of the input grid -- sized from ``--seconds`` alone, so
every run with the same ``--seconds`` measures the same multiset of
inputs.  A traced run does one unit traced, after the same unit's ops
(in ``engine`` its design pass) untraced: its work counts depend on the
seed alone, and the difference between the two op medians is the
tracing overhead.
"""

from __future__ import annotations

import http.client
import io
import itertools
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import common
import metrics
import speed
from common import now

PY = sys.executable
LAUNCH = os.path.join(common.HERE, "launch.py")
#: Set-up repetitions per ``engine`` run, one before the measured window
#: and the others after it, so that a slow stretch of the machine does
#: not decide their median, setup_s.  (``serve`` times the start-up of
#: each of its SERVE_DAEMONS daemons.)
SETUP_REPS = 3
#: ``-X importtime`` runs per traced run; the breakdown is their median.
IMPORTTIME_REPS = 3
#: What the engine process does before its first operation.
ENGINE_SETUP = """\
import repro.cli
from repro.spec import parse_infrastructure, parse_service
from repro.spec.paper import ecommerce_service, paper_infrastructure
with open(%r) as handle:
    parse_infrastructure(handle.read())
with open(%r) as handle:
    parse_service(handle.read())
paper_infrastructure()
ecommerce_service()
""" % (common.INFRA_SPEC, common.ECOM_SPEC)


class Run:
    """One benchmark run: its inputs, scratch space and tally."""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 refs: Dict[str, Any], work: str):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.refs = refs
        self.work = work
        self.tally = common.Tally()
        self.speed = speed.Speed()
        #: A plain run's end-to-end timings before normalisation.
        self.raw: Dict[str, float] = {}
        self._counter = 0

    def rng(self, stream: str) -> random.Random:
        return random.Random("%d/%s" % (self.seed, stream))

    def path(self, name: str) -> str:
        self._counter += 1
        return os.path.join(self.work, "%s-%d" % (name, self._counter))

    def map_copy(self) -> str:
        """A private copy of the reference map for a daemon to mount."""
        path = self.path("map") + ".json"
        shutil.copyfile(self.refs["fig6_map_path"], path)
        return path


# -- processes -----------------------------------------------------------

def run_process(argv: List[str], cwd: str) -> Tuple[int, str, str, float]:
    common.check_args(argv)
    started = now()
    done = subprocess.run(argv, cwd=cwd, env=common.child_env(),
                          capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout, done.stderr, now() - started


class Daemon:
    """A `repro serve` / `repro map serve` process, started to ready."""

    def __init__(self, run: Run, args: List[str], traced: bool = False):
        self.data_dir = run.path("data")
        os.makedirs(self.data_dir)
        self.spans = run.path("spans") + ".json" if traced else None
        argv = ([PY, LAUNCH, self.spans, "--"] if traced
                else [PY, "-m", "repro"]) + args + ["--data-dir",
                                                    self.data_dir]
        common.check_args(argv)
        self._log = open(os.path.join(self.data_dir, "daemon.log"), "wb")
        started = now()
        self.proc = subprocess.Popen(argv, cwd=run.work,
                                     env=common.child_env(),
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)
        try:
            self.host, self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_s = now() - started
        common.assert_clean_child(self.proc.pid)

    def _wait_ready(self) -> Tuple[str, int]:
        """Poll endpoint.json for this pid, then /readyz until 200."""
        endpoint = os.path.join(self.data_dir, "endpoint.json")
        deadline = now() + 120
        address = None
        while now() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited %d during start-up"
                                   % self.proc.returncode)
            if address is None:
                try:
                    with open(endpoint) as handle:
                        info = json.load(handle)
                    if info.get("pid") == self.proc.pid:
                        host, port = info["url"].split("//", 1)[1] \
                            .split(":")
                        address = (host, int(port))
                except (OSError, ValueError):
                    pass
            if address is not None \
                    and http_get(*address, "/readyz")[0] == 200:
                return address
            time.sleep(0.005)
        raise RuntimeError("daemon not ready within 120 s")

    def peak_rss_mb(self) -> float:
        return common.vm_hwm_mb(self.proc.pid)

    def stop(self) -> Optional[Dict[str, Any]]:
        """SIGTERM (graceful drain), wait; the span summary if traced."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=90)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        if self.proc.returncode != 0:
            raise RuntimeError("daemon exited %d" % self.proc.returncode)
        if self.spans is None:
            return None
        with open(self.spans) as handle:
            return json.load(handle)


def http_get(host: str, port: int, path: str) -> Tuple[int, Any]:
    return http_request(host, port, "GET", path)


def http_request(host: str, port: int, method: str, path: str,
                 body: Optional[bytes] = None) -> Tuple[int, Any]:
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
    except (OSError, http.client.HTTPException):
        return 0, None
    finally:
        conn.close()
    try:
        return response.status, json.loads(data) if data else None
    except ValueError:
        return response.status, None


# -- the open-loop lookup stream -----------------------------------------

class LookupLoop(threading.Thread):
    """GET /v1/map at LOOKUP_RATE, from one connection.

    Each lookup is timed from its scheduled send time, so a stalled
    server or generator charges the wait to every lookup behind it.
    Sends ``count`` lookups, or with ``count`` None keeps sending until
    :meth:`finish` is called.
    """

    def __init__(self, run: Run, daemon: Daemon,
                 count: Optional[int] = None):
        super().__init__(name="lookups", daemon=True)
        self.owner = run
        self.target = daemon
        self.count = count
        self.rng = run.rng("lookups")
        self.latencies: List[float] = []
        self.lateness: List[float] = []
        self.answers: List[Tuple[int, float, Any]] = []
        self.error: Optional[BaseException] = None
        self._halt = threading.Event()

    def run(self) -> None:
        points = itertools.chain.from_iterable(
            common.passes(common.LOOKUP_POINTS, self.rng))
        sends = itertools.count() if self.count is None \
            else range(self.count)
        try:
            start = now()
            for index in sends:
                load, minutes = next(points)
                due = start + index / common.LOOKUP_RATE
                if self._halt.wait(max(0.0, due - now())):
                    return
                sent = now()
                status, answer = http_get(
                    self.target.host, self.target.port,
                    "/v1/map?load=%g&downtime_minutes=%g" % (load, minutes))
                done = now()
                self.latencies.append(done - due)
                self.lateness.append(sent - due)
                self.answers.append((load, minutes, answer if status == 200
                                     else {"http_status": status}))
        except BaseException as exc:   # re-raised by finish()
            self.error = exc

    def finish(self) -> None:
        """Wait for a counted loop, or stop an open-ended one; check."""
        if self.count is None:
            self._halt.set()
        self.join(timeout=(self.count or 0) / common.LOOKUP_RATE + 120)
        if self.is_alive():
            raise RuntimeError("lookup loop did not finish")
        if self.error is not None:
            raise self.error
        for load, minutes, answer in self.answers:
            self.owner.tally.record(
                "lookup %s" % common.point_key(load, minutes),
                common.check_lookup(self.owner.refs, load, minutes,
                                    answer))



def lookup_summary(latencies: List[float],
                   lateness: List[float]) -> Dict[str, Any]:
    """Percentiles of lookup latency and generator lateness, ms."""
    summary: Dict[str, Any] = {
        "lookup_p%d_ms" % q: common.percentile(latencies, q) * 1e3
        for q in (50, 90, 95, 99)}
    summary.update(
        lookup_n=len(latencies),
        lookup_late_p99_ms=common.percentile(lateness, 99) * 1e3,
        lookup_late_max_ms=max(lateness) * 1e3)
    return summary


# -- shared pieces ---------------------------------------------------------

def setup_runs(run: Run, code: str, count: int) -> List[float]:
    """Times of ``count`` fresh processes that run ``code`` and exit,
    each after a speed probe."""
    times = []
    for _ in range(count):
        run.speed.sample()
        status, _, err, elapsed = run_process([PY, "-c", code], run.work)
        if status != 0:
            raise RuntimeError("set-up failed: %s" % err[-500:])
        times.append(elapsed)
    return times


def around(setup: Callable[[int], List[float]],
           window: Callable[[], Any]) -> Tuple[List[float], Any]:
    """Run ``window`` between two halves of the SETUP_REPS set-ups."""
    before = setup(SETUP_REPS // 2)
    outcome = window()
    return before + setup(SETUP_REPS - SETUP_REPS // 2), outcome


def import_breakdown(run: Run) -> Dict[str, float]:
    samples = []
    for _ in range(IMPORTTIME_REPS):
        code, _, err, _ = run_process(
            [PY, "-X", "importtime", "-c", "import repro.cli"], run.work)
        if code != 0:
            raise RuntimeError("importtime run failed")
        samples.append(metrics.import_breakdown(err))
    return {name: common.median([sample[name] for sample in samples])
            for name in samples[0]}


def unit_count(run: Run, nominal_s: float) -> int:
    """Units of work in a plain run: about --seconds at the seed's speed.

    The count depends on --seconds alone, never on how fast a run goes,
    so every run with the same --seconds does the same work.
    """
    return max(1, int(round(run.seconds / nominal_s)))


def traced_outcome(run: Run, dumps: List[Dict[str, Any]],
                   plain: List[float], traced: List[float],
                   lookups: Optional[LookupLoop] = None) -> Dict[str, Any]:
    """Per-layer values of a traced run, and its slowest ops."""
    merged = metrics.merge_dumps(dumps)
    layers = metrics.per_layer(
        merged, import_breakdown(run),
        lookups.latencies if lookups else [],
        lookups.lateness if lookups else [],
        common.median(plain), common.median(traced))
    return {"layers": layers,
            "detail": {"slowest_ops": metrics.slowest_ops(merged),
                       "zero_metrics": sorted(name for name, value
                                              in layers.items()
                                              if value == 0),
                       "spans_dropped": merged["spans_dropped"],
                       "plain_n": len(plain), "traced_n": len(traced)}}


def normalised(run: Run, setup: List[float], op_p50_s: float,
               peak_rss_mb: float) -> Dict[str, float]:
    """A plain run's end-to-end values, timings at the reference speed.

    The raw values, and the probes that scaled them, go in the detail
    record as ``raw`` and ``speed``.
    """
    factor = run.speed.factor()
    run.raw = {"setup_s": common.median(setup), "op_p50_s": op_p50_s}
    return {"setup_s": common.median(setup) * factor,
            "op_p50_s": op_p50_s * factor,
            "peak_rss_mb": peak_rss_mb}


def timed_call(fn: Callable, *args: Any) -> float:
    started = now()
    fn(*args)
    return now() - started


# -- engine ----------------------------------------------------------------

#: One unit is a design pass plus COLD_BUILDS cold map builds, each
#: followed by WARM_BUILDS warm ones, 20-45 s at the seed on a 2-core
#: machine.
ENGINE_UNIT_S = 40.0
#: Cold map builds per unit, each into its own empty cache.  One build's
#: thousands of fsync'd cache writes wait on the disk, whose latency
#: moved 2-3x within seconds: one build took 14-21 s from run to run.
COLD_BUILDS = 2
#: Warm map builds after each cold one.  One takes about 1 s, so one
#: sample would be noisy; their median is the unit's warm-build time.
WARM_BUILDS = 2


#: `repro`'s exit code when SIGINT or SIGTERM stopped a command.
INTERRUPTED = 130


class Engine:
    """The in-process surface: ``repro.cli.main`` and ``MapService``."""

    def __init__(self, run: Run):
        self.run = run
        started = now()
        common.scrub_own_env()
        exec(ENGINE_SETUP, {})
        import repro.cli
        self.main = repro.cli.main
        self.setup_s = now() - started
        self.order = common.passes(common.ECOM_POINTS, run.rng("ops"))

    def cli(self, args: List[str]) -> Tuple[int, str]:
        common.check_args(args)
        out = io.StringIO()
        code = self.main(list(args), out=out)
        if code == INTERRUPTED:
            # The command turned our SIGTERM into its own clean exit.
            raise KeyboardInterrupt("repro %s interrupted" % args[0])
        return code, out.getvalue()

    def design(self, point: Tuple[int, int]) -> None:
        key = common.point_key(*point)
        code, out = self.cli(common.ecom_design_args(*point))
        self.run.tally.record("design %s" % key, common.check_cli_output(
            key, code, out, self.run.refs))

    def build(self, cache: str, built: Dict[str, bytes],
              label: str) -> None:
        """One Fig. 6 map build into ``cache`` with a fresh journal.

        The first build of a cache (``built`` empty) must match the
        reference map; every later one must be byte-identical to it.
        """
        out = self.run.path("map") + ".json"
        code, text = self.cli(common.map_build_args(
            out, self.run.path("journal") + ".jsonl", cache))
        if code != 0:
            problem = "map build exit %d: %s" % (code, text[-200:])
        else:
            with open(out, "rb") as handle:
                data = handle.read()
            if "cold" not in built:
                built["cold"] = data
                problem = map_problem(self.run.refs["fig6_map_bytes"],
                                      data)
            else:
                problem = (None if data == built["cold"]
                           else "differs from the cold build")
        self.run.tally.record("map build %s" % label, problem)

    def unit(self, call: Callable[..., float]) -> Dict[str, Any]:
        """Cold and warm builds, the design pass, cold and warm builds.

        ``call(op_id, fn, *args)`` runs and times one operation.  Each
        cold build fills an empty cache, and the warm ones after it read
        that cache with a fresh journal; every map must be
        byte-identical to its cold one.  The design pass sits between
        the rounds of builds.
        """
        cold: List[float] = []
        warm: List[float] = []
        designs: List[float] = []

        def builds() -> None:
            cache, built = self.run.path("cache"), {}
            cold.append(call("map-cold", self.build, cache, built, "cold"))
            warm.extend(call("map-warm", self.build, cache, built, "warm")
                        for _ in range(WARM_BUILDS))

        for round_ in range(COLD_BUILDS):
            if round_ == COLD_BUILDS // 2:
                designs = self.design_pass(call)
            builds()
        return {"designs": designs, "cold": cold, "warm": warm}

    def design_pass(self, call: Callable[..., float]) -> List[float]:
        """One design per e-commerce grid point, in the seed's order."""
        return [call(common.point_key(*point), self.design, point)
                for point in next(self.order)]


def map_problem(ref: bytes, built: bytes) -> Optional[str]:
    """None when a built map matches the reference map.

    Everything must be equal except downtimes and unavailabilities,
    which may differ by 1e-6 relative (1e-9 absolute below that).
    """
    def same(a: Any, b: Any, key: str) -> bool:
        if isinstance(a, dict) and isinstance(b, dict):
            return a.keys() == b.keys() and all(
                same(a[k], b[k], k) for k in a)
        if isinstance(a, list) and isinstance(b, list):
            return len(a) == len(b) and all(
                same(x, y, key) for x, y in zip(a, b))
        if key in ("downtime_minutes", "unavailability") \
                and isinstance(a, float) and isinstance(b, float):
            return common.close(a, b) or abs(a - b) <= 1e-9
        return a == b and type(a) is type(b)
    try:
        ok = same(json.loads(ref), json.loads(built), "")
    except ValueError:
        return "built map is not JSON"
    return None if ok else "map differs from the reference"


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(value) for value in values)
                    / len(values))


def engine(run: Run) -> Dict[str, Any]:
    def plain_call(op_id: str, fn: Callable, *args: Any) -> float:
        return timed_call(fn, *args)

    if run.trace:
        import tracer as tracing
        eng = Engine(run)
        plain = eng.design_pass(plain_call)
        eng.order = common.passes(common.ECOM_POINTS, run.rng("ops"))
        tracer = tracing.install(tracing.Tracer())
        try:
            def traced_call(op_id: str, fn: Callable, *args: Any) -> float:
                return timed_call(tracer.run_op, op_id, fn, *args)
            traced = eng.unit(traced_call)["designs"]
        finally:
            tracer.uninstall()
        return traced_outcome(run, [tracer.dump()], plain, traced)

    def sampled_call(op_id: str, fn: Callable, *args: Any) -> float:
        run.speed.sample()
        return timed_call(fn, *args)

    def measure() -> Tuple[Engine, List[Dict[str, Any]]]:
        eng = Engine(run)
        units = [eng.unit(sampled_call)
                 for _ in range(unit_count(run, ENGINE_UNIT_S))]
        return eng, units

    setup, (eng, units) = around(
        lambda count: setup_runs(run, ENGINE_SETUP, count), measure)
    designs = [t for unit in units for t in unit["designs"]]
    cold = common.median([t for unit in units for t in unit["cold"]])
    warm = common.median([t for unit in units for t in unit["warm"]])
    design_p50 = common.median(designs)
    # Each op kind counts alike in op_p50_s, so a 1 s warm build is not
    # swamped by the 14 s cold builds or the many designs.
    values = normalised(run, setup, geomean([design_p50, cold, warm]),
                        common.vm_hwm_mb())
    factor = run.speed.factor()
    detail = {"setup_n": len(setup),
              "engine_own_setup_s": eng.setup_s * factor,
              "design_p50_s": design_p50 * factor,
              "design_n": len(designs),
              "designs_per_s": len(designs) / sum(designs) / factor,
              "map_build_cold_s": cold * factor,
              "map_build_cold_n": COLD_BUILDS * len(units),
              "map_build_warm_s": warm * factor,
              "map_build_warm_n": COLD_BUILDS * WARM_BUILDS * len(units)}
    return {"values": values, "detail": detail}


# -- serve -------------------------------------------------------------

#: One unit is one pass over the e-commerce grid, 12-30 s at the seed
#: on a 2-core machine.
SERVE_UNIT_S = 30.0
#: Long-poll per status request, seconds (the daemon caps it at 60 and
#: answers as soon as the job ends).
POLL_WAIT = 30.0
#: Daemons per run, each running its share of the unit's jobs; their
#: start-ups are the run's set-ups.  One daemon's jobs ran 10-30%
#: faster or slower than another daemon's, so a run spreads its jobs
#: over several.
SERVE_DAEMONS = 3
#: Speed probes before each daemon starts.  The daemons run through most
#: of a run, so its few idle moments take several probes each.
SERVE_PROBES = 3


def job_payload(point: Tuple[int, int]) -> bytes:
    with open(common.INFRA_SPEC) as handle:
        infrastructure = handle.read()
    with open(common.ECOM_SPEC) as handle:
        service = handle.read()
    load, minutes = point
    return json.dumps({
        "infrastructure": infrastructure, "service": service,
        "requirements": {"kind": "service", "throughput": float(load),
                         "max_annual_downtime_minutes": float(minutes)},
    }).encode()


def check_job(run: Run, point: Tuple[int, int],
              job: Optional[Dict[str, Any]]) -> Optional[str]:
    ref = run.refs["ecommerce"][common.point_key(*point)]
    if job is None:
        return "no job status"
    if job.get("state") == "failed" \
            and (job.get("error") or {}).get("kind") == "infeasible":
        return common.check_design(ref, None, True)
    if job.get("state") != "completed":
        return "job %s: %s" % (job.get("state"), job.get("error"))
    result = job.get("result") or {}
    return common.check_design(ref, {
        "design": (result.get("evaluation") or {}).get("design"),
        "annual_cost": result.get("annual_cost"),
        "downtime_minutes": result.get("downtime_minutes")}, False)


def run_jobs(run: Run, daemon: Daemon, points: List[Tuple[int, int]]) \
        -> Tuple[List[float], float]:
    """The closed loop: one job at a time, each after a speed probe,
    POST then long-poll until terminal.  Returns the latencies and the
    time jobs were running."""
    latencies: List[float] = []
    for point in points:
        run.speed.sample()
        what = "job %s" % common.point_key(*point)
        posted = now()
        status, body = http_request(daemon.host, daemon.port, "POST",
                                    "/v1/jobs", job_payload(point))
        if status != 202:
            run.tally.record(what, "POST answered %s" % status)
            continue
        while True:
            status, job = http_get(daemon.host, daemon.port,
                                   "/v1/jobs/%s?wait=%g"
                                   % (body["id"], POLL_WAIT))
            if status != 200 or job.get("state") in (
                    "completed", "failed", "cancelled"):
                break
        latencies.append(now() - posted)
        run.tally.record(what, check_job(run, point, job if status == 200
                                         else None))
    return latencies, sum(latencies)


def jobs_with_lookups(run: Run, daemon: Daemon,
                      points: List[Tuple[int, int]],
                      count: Optional[int] = None) \
        -> Tuple[List[float], float, LookupLoop]:
    """Jobs with lookups beside them: ``count`` of them, or as many as
    the jobs last, so every lookup sees the same mix of running jobs."""
    lookups = LookupLoop(run, daemon, count)
    lookups.start()
    latencies, window = run_jobs(run, daemon, points)
    lookups.finish()
    return latencies, window, lookups


def serve(run: Run) -> Dict[str, Any]:
    args = ["serve", "--map", run.map_copy()]
    order = common.passes(common.ECOM_POINTS, run.rng("ops"))
    if run.trace:
        first = next(order)
        daemon = Daemon(run, args)
        try:
            plain, _, _ = jobs_with_lookups(run, daemon, first)
        finally:
            daemon.stop()
        daemon = Daemon(run, args, traced=True)
        try:
            traced, _, lookups = jobs_with_lookups(
                run, daemon, first, int(run.seconds * common.LOOKUP_RATE))
        finally:
            dump = daemon.stop()
        return traced_outcome(run, [dump], plain, traced, lookups)

    points = [point for _ in range(unit_count(run, SERVE_UNIT_S))
              for point in next(order)]
    share = -(-len(points) // SERVE_DAEMONS)
    setup: List[float] = []
    latencies: List[float] = []
    loops: List[LookupLoop] = []
    busy, peak = 0.0, 0.0
    # Each daemon's start-up is one of the set-ups.
    for index in range(SERVE_DAEMONS):
        run.speed.sample(SERVE_PROBES)
        daemon = Daemon(run, args)
        try:
            setup.append(daemon.ready_s)
            times, window, lookups = jobs_with_lookups(
                run, daemon, points[index * share:(index + 1) * share])
            latencies += times
            busy += window
            loops.append(lookups)
            peak = max(peak, daemon.peak_rss_mb())
        finally:
            daemon.stop()
    run.speed.sample(SERVE_PROBES)
    values = normalised(run, setup, common.median(latencies), peak)
    detail = {"setup_n": len(setup),
              "job_p50_s": values["op_p50_s"], "job_n": len(latencies),
              "jobs_per_s": len(latencies) / busy / run.speed.factor(),
              **lookup_summary([t for loop in loops for t in loop.latencies],
                               [t for loop in loops for t in loop.lateness])}
    return {"values": values, "detail": detail}


WORKLOADS = {"engine": engine, "serve": serve}
