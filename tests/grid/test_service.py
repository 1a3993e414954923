"""MapService: sub-millisecond lookups, honest partial coverage."""

import json
import os
import subprocess
import sys
import time

import jsonschema
import pytest

from repro.contracts import MAP_STATUS_SCHEMA
from repro.core.frontier import build_requirement_map
from repro.core.serialize import requirement_map_to_json
from repro.errors import GridError
from repro.grid import (GridBuilder, GridFaultPlan, GridSpec,
                        MapService, served_status)
from repro.units import Duration

from .conftest import FAST_POLICY, LOADS, no_sleep


@pytest.fixture
def map_path(evaluator, tmp_path):
    space_map = build_requirement_map(evaluator, "web", LOADS)
    path = str(tmp_path / "map.json")
    with open(path, "w") as handle:
        handle.write(requirement_map_to_json(space_map))
    return path


@pytest.fixture
def partial_map_path(evaluator, tmp_path):
    """A map with the 250.0 cell convicted (unbuilt mid-grid)."""
    plan = GridFaultPlan(seed=0, fault_rate=0.0,
                         poison_loads=frozenset([250.0]))
    builder = GridBuilder(evaluator, GridSpec("web", LOADS,
                                              shard_size=2),
                          policy=FAST_POLICY, fault_plan=plan,
                          sleep=no_sleep)
    path = str(tmp_path / "partial.json")
    with open(path, "w") as handle:
        handle.write(requirement_map_to_json(builder.build()))
    return path


class TestLookup:
    def test_ok_answers_round_load_up_to_the_covering_grid_line(
            self, map_path):
        service = MapService(map_path)
        answer = service.lookup(180.0, Duration.minutes(5000))
        assert answer["answer"] == "ok"
        assert answer["grid_load"] == 250.0
        assert answer["coverage"] == 1.0
        assert answer["map_age_seconds"] >= 0.0
        design = answer["design"]
        assert design["downtime_minutes"] <= 5000
        # Cheapest qualifying frontier point, not just any.
        cheaper = [point for point
                   in service._frontiers[250.0]
                   if point["downtime_minutes"] <= 5000]
        assert design["annual_cost"] == min(
            point["annual_cost"] for point in cheaper)

    def test_infeasible_is_a_definitive_200_class_answer(
            self, map_path):
        service = MapService(map_path)
        best = min(point["downtime_minutes"]
                   for point in service._frontiers[100.0])
        answer = service.lookup(100.0,
                                Duration.minutes(best / 2.0))
        assert answer["answer"] == "infeasible"
        assert "detail" in answer

    def test_beyond_grid_is_unbuilt(self, map_path):
        answer = MapService(map_path).lookup(
            LOADS[-1] * 10, Duration.minutes(5000))
        assert answer["answer"] == "unbuilt"
        assert "beyond the grid" in answer["detail"]

    def test_unbuilt_mid_grid_cell_is_never_papered_over(
            self, partial_map_path):
        service = MapService(partial_map_path)
        # 200.0 would round up to the convicted 250.0 cell; answering
        # from 400.0 would silently skip a declared grid line.
        answer = service.lookup(200.0, Duration.minutes(5000))
        assert answer["answer"] == "unbuilt"
        assert "250" in answer["detail"]
        assert answer["coverage"] == pytest.approx(0.75)
        # Above the hole, answers resume.
        assert service.lookup(300.0,
                              Duration.minutes(5000))["answer"] == "ok"

    def test_missing_file_is_unbuilt_not_an_error(self, tmp_path):
        service = MapService(str(tmp_path / "nope.json"))
        answer = service.lookup(100.0, Duration.minutes(100))
        assert answer["answer"] == "unbuilt"
        assert service.coverage() == 0.0

    def test_nonpositive_load_is_rejected(self, map_path):
        with pytest.raises(GridError):
            MapService(map_path).lookup(0.0, Duration.minutes(1))

    def test_corrupt_map_raises_on_use_not_on_boot(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            handle.write("{not json")
        service = MapService(path)   # a daemon still boots
        with pytest.raises(GridError, match="not valid JSON"):
            service.lookup(100.0, Duration.minutes(5))
        with pytest.raises(GridError, match="not valid JSON"):
            service.status()

    def test_unsupported_version_raises(self, tmp_path):
        path = str(tmp_path / "v99.json")
        with open(path, "w") as handle:
            json.dump({"version": 99, "tier": "web", "loads": [],
                       "points": []}, handle)
        with pytest.raises(GridError, match="unsupported version"):
            MapService(path).lookup(100.0, Duration.minutes(5))


class TestReload:
    def test_rebuilt_file_is_picked_up_by_mtime(self, evaluator,
                                                map_path):
        service = MapService(map_path)
        assert service.lookup(LOADS[-1] * 2,
                              Duration.minutes(5000))["answer"] \
            == "unbuilt"
        bigger = build_requirement_map(
            evaluator, "web", LOADS + (LOADS[-1] * 2,))
        with open(map_path, "w") as handle:
            handle.write(requirement_map_to_json(bigger))
        os.utime(map_path, (time.time() + 5, time.time() + 5))
        answer = service.lookup(LOADS[-1] * 2,
                                Duration.minutes(5000))
        assert answer["answer"] == "ok"

    def test_failed_rebuild_write_leaves_the_old_map(self, evaluator,
                                                     map_path):
        """``repro map build --out`` writes through ``_write_json``.

        A write that fails mid-way (the file-size limit makes it fail
        with EFBIG after half the new map) must leave the file the
        service reloads byte-identical, with no temp litter."""
        pytest.importorskip("resource")
        with open(map_path, "rb") as handle:
            before = handle.read()
        bigger = requirement_map_to_json(build_requirement_map(
            evaluator, "web", LOADS + (LOADS[-1] * 2,)))
        source = map_path + ".src"
        with open(source, "w") as handle:
            handle.write(bigger)
        limit = len(bigger) // 2
        assert len(before) > 0 and limit < len(bigger)
        script = (
            "import errno, resource, signal, sys\n"
            "from repro.cli import _write_json\n"
            "text = open(sys.argv[2]).read()\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "limit = int(sys.argv[3])\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))\n"
            "try:\n"
            "    _write_json(sys.argv[1], text)\n"
            "except OSError as exc:\n"
            "    print(errno.errorcode[exc.errno])\n")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath("src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        done = subprocess.run(
            [sys.executable, "-c", script, map_path, source, str(limit)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.stdout.strip() == "EFBIG", done.stderr
        with open(map_path, "rb") as handle:
            assert handle.read() == before
        assert sorted(os.listdir(os.path.dirname(map_path))) == [
            "map.json", "map.json.src"]

    def test_lookup_is_submillisecond(self, map_path):
        service = MapService(map_path)
        service.lookup(180.0, Duration.minutes(5000))   # warm
        started = time.perf_counter()
        rounds = 200
        for _ in range(rounds):
            service.lookup(180.0, Duration.minutes(5000))
        mean = (time.perf_counter() - started) / rounds
        assert mean < 0.001, "mean lookup %.6fs" % mean


class TestStatus:
    def test_status_matches_the_contract(self, map_path):
        status = MapService(map_path).status()
        jsonschema.validate(status, MAP_STATUS_SCHEMA)
        assert status["state"] == "complete"
        assert status["coverage"] == 1.0

    def test_partial_and_missing_states(self, partial_map_path,
                                        tmp_path):
        partial = MapService(partial_map_path).status()
        jsonschema.validate(partial, MAP_STATUS_SCHEMA)
        assert partial["state"] == "partial"
        missing = MapService(str(tmp_path / "nope.json")).status()
        jsonschema.validate(missing, MAP_STATUS_SCHEMA)
        assert missing["state"] == "missing"

    def test_served_status_merges_the_journal(self, evaluator,
                                              tmp_path):
        spec = GridSpec("web", LOADS, shard_size=2)
        journal = str(tmp_path / "grid.jsonl")
        builder = GridBuilder(evaluator, spec, journal_path=journal,
                              policy=FAST_POLICY, sleep=no_sleep)
        space_map = builder.build()
        path = str(tmp_path / "map.json")
        with open(path, "w") as handle:
            handle.write(requirement_map_to_json(space_map))
        status, code = served_status(path, journal, spec.key())
        jsonschema.validate(status, MAP_STATUS_SCHEMA)
        assert code == 0
        assert status["journal"]["enabled"] is True
        assert status["shards"]["done"] == 2

    def test_served_status_exit_code_2_when_incomplete(self, tmp_path):
        _, code = served_status(str(tmp_path / "nope.json"))
        assert code == 2
