"""The grid chaos soak: the convergence guarantee, enforced.

Acceptance bar (ISSUE 10): a seeded 30% shard-fault storm -- worker
crashes, hangs, torn journal tails, and a kill + restart mid-build --
must produce a map whose serialized JSON is byte-identical to a
fault-free single-process build, with zero false poison convictions
and every completed shard reused exactly once after the restart.

``test_kill9_subprocess_resume`` is the real thing: an actual
``kill -9`` of a ``repro map build`` subprocess mid-build, resumed by
re-running the identical command.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.frontier import build_requirement_map
from repro.core.serialize import requirement_map_to_json
from repro.fsio import Journal
from repro.grid import (GridBuildInterrupted, GridBuilder, GridFaultPlan,
                        GridJournal, GridSpec, loads_key)

from .conftest import FAST_POLICY, no_sleep

STORM_LOADS = tuple(float(load) for load in range(100, 700, 50))


def build_under_storm(evaluator, spec, journal_path, plan,
                      max_restarts=12):
    """Run the build the way an operator would: restart after kills.

    Returns ``(map, restarts, builders)``.  Bounded because the
    journaled attempt counter rises monotonically past the storm's
    ``max_faulty_attempts``.
    """
    builders = []
    restarts = 0
    for _ in range(max_restarts):
        builder = GridBuilder(evaluator, spec,
                              journal_path=journal_path,
                              policy=FAST_POLICY, fault_plan=plan,
                              sleep=no_sleep)
        builders.append(builder)
        try:
            return builder.build(), restarts, builders
        except GridBuildInterrupted:
            restarts += 1
            # The kill fired (or a torn-kill fault hit); subsequent
            # runs must not re-kill on completion count.
            plan = GridFaultPlan(
                seed=plan.seed, fault_rate=plan.fault_rate,
                kinds=plan.kinds,
                max_faulty_attempts=plan.max_faulty_attempts,
                poison_loads=plan.poison_loads,
                kill_after_shards=None)
    pytest.fail("storm did not converge within %d restarts"
                % max_restarts)


def shard_done_counts(journal_path, grid_key):
    counts = {}
    for record in Journal(journal_path).replay().records:
        if record.get("grid") == grid_key \
                and record.get("entry") == "shard-done":
            counts[record["loads"]] = counts.get(record["loads"], 0) + 1
    return counts


class TestStormConvergence:
    def test_30pct_storm_with_kill_is_byte_identical(
            self, evaluator, tmp_path):
        fault_free = requirement_map_to_json(
            build_requirement_map(evaluator, "web", STORM_LOADS))
        spec = GridSpec("web", STORM_LOADS, shard_size=2)
        # Seed 0's storm injects crashes, hangs, AND torn-kill tails
        # across the 6 shards (verified by enumeration); the plan's
        # kill fires on top after 2 completed shards.
        plan = GridFaultPlan(seed=0, fault_rate=0.3,
                             max_faulty_attempts=2,
                             kill_after_shards=2)
        journal_path = str(tmp_path / "grid.jsonl")
        built, restarts, builders = build_under_storm(
            evaluator, spec, journal_path, plan)

        # 1. Byte-identical to the fault-free single-process build.
        assert requirement_map_to_json(built) == fault_free

        # 2. The storm actually happened, and the kill fired.
        total_faults = sum(b.counters["shard_faults"]
                           for b in builders)
        assert total_faults >= 2
        assert restarts >= 1

        # 3. Zero false poison convictions: every fault was transient.
        assert all(b.convicted == {} for b in builders)

        # 4. Every completed shard was journaled exactly once -- a
        # resumed build reused finished shards instead of rebuilding.
        counts = shard_done_counts(journal_path, spec.key())
        assert counts == {loads_key(shard.loads): 1
                          for shard in spec.shards()}
        final = builders[-1]
        assert final.resumed is True
        assert final.counters["shards_reused"] >= 1

    def test_storm_with_one_poison_cell_convicts_it_alone(
            self, evaluator, tmp_path):
        spec = GridSpec("web", STORM_LOADS, shard_size=3)
        poison = STORM_LOADS[4]
        plan = GridFaultPlan(seed=11, fault_rate=0.3,
                             max_faulty_attempts=2,
                             poison_loads=frozenset([poison]))
        journal_path = str(tmp_path / "grid.jsonl")
        built, _, builders = build_under_storm(
            evaluator, spec, journal_path, plan)
        final = builders[-1]
        # Exactly the injected poison convicted, nothing else.
        convicted = {}
        for builder in builders:
            convicted.update(builder.convicted)
        assert set(convicted) == {poison}
        built_loads = {point.load for point in built.points}
        assert built_loads == set(STORM_LOADS) - {poison}
        status = final.status()
        assert status["state"] == "partial"
        assert status["loads_built"] == len(STORM_LOADS) - 1


class TestKill9Subprocess:
    def test_kill9_mid_build_resumes_each_shard_at_most_once(
            self, tmp_path):
        """A real SIGKILL mid-build; the re-run resumes from the
        journal and every shard is built exactly once overall."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath("src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        journal = str(tmp_path / "grid.jsonl")
        out = str(tmp_path / "map.json")
        command = [
            sys.executable, "-m", "repro", "map", "build",
            "--paper-ecommerce", "--app-tier-only",
            "--tier", "application", "--loads", "500:2000:500",
            "--shard-size", "1",
            "--journal", journal, "--out", out,
        ]
        victim = subprocess.Popen(command, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        try:
            # Wait for at least one durable shard completion, then
            # kill -9 mid-build.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if victim.poll() is not None:
                    pytest.fail("build finished before the kill; "
                                "slow the grid down")
                try:
                    with open(journal, "rb") as handle:
                        if handle.read().count(b'"shard-done"') >= 1:
                            break
                except OSError:
                    pass
                time.sleep(0.05)
            else:
                pytest.fail("no shard completed within the deadline")
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=30)
        assert victim.returncode == -signal.SIGKILL

        # Same command again: resume, finish, exit 0 (complete map).
        rerun = subprocess.run(command, env=env, capture_output=True,
                               text=True, timeout=300)
        assert rerun.returncode == 0, rerun.stdout + rerun.stderr

        spec = GridSpec("application",
                        (500.0, 1000.0, 1500.0, 2000.0), shard_size=1)
        counts = shard_done_counts(journal, spec.key())
        assert counts == {loads_key(shard.loads): 1
                          for shard in spec.shards()}
        state = GridJournal.replay(journal, spec.key())
        assert len(state.done) == 4

        # And the resumed map is byte-identical to a fault-free build.
        fresh = str(tmp_path / "fresh.json")
        clean = subprocess.run(
            [sys.executable, "-m", "repro", "map", "build",
             "--paper-ecommerce", "--app-tier-only",
             "--tier", "application", "--loads", "500:2000:500",
             "--shard-size", "4", "--out", fresh],
            env=env, capture_output=True, text=True, timeout=300)
        assert clean.returncode == 0, clean.stdout + clean.stderr
        with open(out, "rb") as resumed_file:
            resumed_bytes = resumed_file.read()
        with open(fresh, "rb") as fresh_file:
            assert resumed_bytes == fresh_file.read()
