"""DesignService: the full job lifecycle, in-process.

Real designs on the tiny model (markov engine) run in well under a
second, so these tests exercise the genuine submit -> worker ->
journal path rather than mocks.
"""

import os

import pytest

from repro.errors import ServeError
from repro.fsio import Journal, encode_record
from repro.serve.jobstore import (CANCELLED, COMPLETED, FAILED, QUEUED,
                                  RUNNING)
from repro.serve.service import parse_requirements
from repro.model import JobRequirements, ServiceRequirements

from .conftest import wait_until


def payload_with(tiny_payload, **extra):
    payload = dict(tiny_payload)
    payload.update(extra)
    return payload


def counters(service):
    return service.metrics.snapshot()["counters"]


class TestParseRequirements:
    def test_service_kind(self):
        parsed = parse_requirements({
            "kind": "service", "throughput": 100.0,
            "max_annual_downtime_minutes": 500.0})
        assert isinstance(parsed, ServiceRequirements)

    def test_job_kind(self):
        parsed = parse_requirements({
            "kind": "job", "max_execution_minutes": 90.0})
        assert isinstance(parsed, JobRequirements)

    @pytest.mark.parametrize("data", [
        None,
        "not a dict",
        {"kind": "service"},                        # missing fields
        {"kind": "service", "throughput": "x",
         "max_annual_downtime_minutes": 1.0},       # bad value
        {"kind": "batch"},                          # unknown kind
    ])
    def test_rejects_bad_requirements(self, data):
        with pytest.raises(ServeError):
            parse_requirements(data)


class TestValidation:
    def test_rejects_non_object_body(self, make_service):
        service = make_service()
        with pytest.raises(ServeError):
            service.submit(["not", "an", "object"])

    def test_rejects_missing_specs(self, make_service, tiny_payload):
        service = make_service()
        for key in ("infrastructure", "service"):
            broken = dict(tiny_payload)
            broken[key] = "   "
            with pytest.raises(ServeError, match=key):
                service.submit(broken)

    def test_rejects_unparseable_spec(self, make_service, tiny_payload):
        service = make_service()
        broken = payload_with(tiny_payload,
                              infrastructure="this is not a spec")
        with pytest.raises(ServeError, match="bad model spec"):
            service.submit(broken)

    @pytest.mark.parametrize("deadline", [0, -5, "soon"])
    def test_rejects_bad_deadline(self, make_service, tiny_payload,
                                  deadline):
        service = make_service()
        with pytest.raises(ServeError, match="deadline_seconds"):
            service.submit(payload_with(tiny_payload,
                                        deadline_seconds=deadline))

    def test_deadline_clamped_to_max(self, make_service, tiny_payload):
        service = make_service(max_deadline=50.0,
                               default_deadline=30.0)
        job, shed = service.submit(
            payload_with(tiny_payload, deadline_seconds=1e9))
        assert shed is None
        assert job.payload["deadline_seconds"] == 50.0

    def test_test_fault_is_gated(self, make_service, tiny_payload):
        service = make_service(allow_test_faults=False)
        with pytest.raises(ServeError, match="test_fault"):
            service.submit(payload_with(
                tiny_payload, test_fault={"delay_seconds": 1}))


class TestExecution:
    def test_submit_to_completion(self, make_service, tiny_payload):
        service = make_service()
        service.start()
        job, shed = service.submit(dict(tiny_payload))
        assert shed is None
        finished = service.wait(job.id, timeout=30.0)
        assert finished.state == COMPLETED
        result = finished.result
        assert result["annual_cost"] > 0
        assert result["downtime_minutes"] >= 0
        assert result["evaluation"]["design"]["tiers"]
        assert result["degraded"] is False
        # The per-job checkpoint is discarded on success (just after
        # the terminal notify, so poll briefly).
        assert wait_until(lambda: not os.path.exists(
            service.config.checkpoint_path(job.id)))
        snap = counters(service)
        assert snap["serve.accepted"] == 1
        assert snap["serve.completed"] == 1
        health = service.health()
        assert health["breakers"].get("markov") == "closed"
        assert health["pool"] is not None

    def test_infeasible_job_fails_cleanly(self, make_service,
                                          tiny_payload):
        service = make_service()
        service.start()
        impossible = dict(tiny_payload)
        impossible["requirements"] = {
            "kind": "service", "throughput": 1e9,
            "max_annual_downtime_minutes": 1000.0}
        job, _ = service.submit(impossible)
        finished = service.wait(job.id, timeout=30.0)
        assert finished.state == FAILED
        assert finished.error["kind"] == "infeasible"
        assert counters(service)["serve.failed"] == 1

    def test_deadline_miss_fails_the_job(self, make_service,
                                         tiny_payload):
        service = make_service()
        service.start()
        job, _ = service.submit(payload_with(
            tiny_payload, deadline_seconds=0.3,
            test_fault={"delay_seconds": 30}))
        finished = service.wait(job.id, timeout=15.0)
        assert finished.state == FAILED
        assert finished.error["kind"] == "deadline"
        snap = counters(service)
        assert snap["serve.deadline_misses"] == 1
        assert snap["serve.failed"] == 1

    def test_cancel_running_and_queued(self, make_service,
                                       tiny_payload):
        service = make_service(workers=1)
        service.start()
        slow = payload_with(tiny_payload,
                            test_fault={"delay_seconds": 30})
        running, _ = service.submit(slow)
        assert wait_until(
            lambda: service.get(running.id).state == RUNNING)
        queued, _ = service.submit(slow)

        assert service.cancel("job-999999") == "unknown"
        assert service.cancel(queued.id) == "cancelled"
        assert service.get(queued.id).state == CANCELLED
        assert service.cancel(queued.id) == "terminal"

        assert service.cancel(running.id) == "cancelling"
        finished = service.wait(running.id, timeout=15.0)
        assert finished.state == CANCELLED
        assert finished.cancel_reason == "client-cancel"
        assert counters(service)["serve.cancelled"] == 2


class TestShedding:
    def test_queue_full_sheds(self, make_service, tiny_payload):
        service = make_service(queue_limit=1)    # workers never started
        first, shed = service.submit(dict(tiny_payload))
        assert first is not None and shed is None
        second, shed = service.submit(dict(tiny_payload))
        assert second is None
        assert shed.reason == "queue-full"
        snap = counters(service)
        assert snap["serve.shed"] == 1
        assert snap["serve.shed.queue-full"] == 1
        assert snap["serve.accepted"] == 1

    def test_over_budget_sheds(self, make_service, tiny_payload):
        service = make_service(wait_budget=0.001,
                               initial_service_estimate=5.0)
        job, shed = service.submit(dict(tiny_payload))
        assert job is None
        assert shed.reason == "over-budget"


class TestDrainAndRecovery:
    def test_drain_requeues_then_restart_completes(self, make_service,
                                                   tiny_payload):
        service = make_service(workers=1)
        service.start()
        job, _ = service.submit(payload_with(
            tiny_payload, test_fault={"delay_seconds": 1.0}))
        assert wait_until(lambda: service.get(job.id).state == RUNNING)
        assert service.drain(grace=15.0)
        parked = service.get(job.id)
        assert parked.state == QUEUED
        assert counters(service)["serve.requeued"] == 1
        journal = Journal(service.config.journal_path).replay().records
        assert any(event["event"] == "requeued" for event in journal)

        # A fresh boot over the same data dir finishes the job.
        revived = make_service(workers=1)
        assert [j.id for j in revived.store.recoverable()] == [job.id]
        revived.start()
        assert counters(revived)["serve.recovered"] == 1
        finished = revived.wait(job.id, timeout=30.0)
        assert finished.state == COMPLETED
        assert finished.attempts == 2

    def test_drain_is_idempotent(self, make_service):
        service = make_service()
        service.start()
        assert service.drain(grace=5.0)
        assert service.drain(grace=5.0)
        assert counters(service)["serve.drains"] == 1

    def test_submissions_shed_while_draining(self, make_service,
                                             tiny_payload):
        # The journal is closed after drain, but admission sheds
        # before the factory would ever touch it.
        service = make_service()
        service.start()
        service.drain(grace=5.0)
        job, shed = service.submit(dict(tiny_payload))
        assert job is None
        assert shed.reason == "draining"


class TestHealth:
    def test_health_and_ready(self, make_service, tiny_payload):
        service = make_service()
        health = service.health()
        assert health["status"] == "ok"
        assert health["accepting"] is True
        assert health["queue_depth"] == 0
        assert health["workers"] == 1
        assert health["journal"] == {"torn": 0, "corrupt": 0,
                                     "preserved": []}
        assert service.ready() is True

        service.drain(grace=5.0)
        assert service.ready() is False
        assert service.health()["status"] == "draining"

    def test_full_queue_is_not_ready(self, make_service, tiny_payload):
        service = make_service(queue_limit=1)    # workers not started
        service.submit(dict(tiny_payload))
        assert service.ready() is False

    def test_torn_journal_is_counted(self, tmp_path, tiny_payload):
        from repro.serve.service import DesignService
        from .conftest import make_config
        config = make_config(tmp_path)
        os.makedirs(config.data_dir, exist_ok=True)
        with open(config.journal_path, "wb") as fh:
            fh.write(encode_record({"event": "accepted",
                                    "id": "job-000000",
                                    "payload": dict(tiny_payload),
                                    "attempts": 0}))
            fh.write(b'{"event": "comp')     # the crash tear
        service = DesignService(config)
        try:
            assert counters(service)["serve.journal_torn_lines"] == 1
            assert "serve.journal_corrupt_records" not in \
                counters(service)
            assert service.store.get("job-000000").state == QUEUED
        finally:
            service.drain(grace=5.0)

    def test_corrupt_journal_record_is_counted(self, tmp_path,
                                               tiny_payload):
        from repro.serve.service import DesignService
        from .conftest import make_config
        config = make_config(tmp_path)
        os.makedirs(config.data_dir, exist_ok=True)
        with open(config.journal_path, "wb") as fh:
            fh.write(b"not a journal frame\n")
            fh.write(encode_record({"event": "accepted",
                                    "id": "job-000000",
                                    "payload": dict(tiny_payload),
                                    "attempts": 0}))
        service = DesignService(config)
        try:
            assert counters(service)[
                "serve.journal_corrupt_records"] == 1
            assert service.store.get("job-000000").state == QUEUED
            assert os.path.exists(config.journal_path + ".corrupt-1")
        finally:
            service.drain(grace=5.0)

    def test_flipped_journal_byte_is_reported_in_health(self, tmp_path,
                                                        tiny_payload):
        from repro.contracts import SERVE_HEALTH_SCHEMA
        from repro.serve.jobstore import JobStore
        from repro.serve.service import DesignService
        from .conftest import make_config
        from .test_contracts import validate
        config = make_config(tmp_path)
        os.makedirs(config.data_dir, exist_ok=True)
        writer = JobStore(config.journal_path, fsync=False)
        for _ in range(3):
            writer.submit(dict(tiny_payload))
        with open(config.journal_path, "rb") as fh:
            data = bytearray(fh.read())
        middle = data.index(b"job-000001")     # inside record 2's body
        data[middle] ^= 0x01
        with open(config.journal_path, "wb") as fh:
            fh.write(bytes(data))
        service = DesignService(config)
        try:
            health = service.health()
            assert health["journal"] == {
                "torn": 0, "corrupt": 1,
                "preserved": [config.journal_path + ".corrupt-1"]}
            validate(health, SERVE_HEALTH_SCHEMA)
            assert [job.id for job in service.store.jobs()] == [
                "job-000000", "job-000002"]
        finally:
            service.drain(grace=5.0)
