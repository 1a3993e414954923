"""repro.fsio.Journal: framing, torn tails, resync, compaction.

The byte-mutation battery runs once per record schema (serve jobs,
watch epochs, grid shards): every single-byte mutation at every offset,
including mutations to and from a newline, must replay the original
records in order, minus at most the record whose frame holds the
mutated byte -- and never an altered record.
"""

import os
import stat

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fsio import (Journal, atomic_write_bytes, decode_records,
                        encode_record)
from repro.grid import GridJournal, loads_key
from repro.serve.jobstore import JobStore
from repro.watch import WatchJournal

# -- the three record schemas -----------------------------------------

_text = st.text(max_size=12)
_number = st.floats(allow_nan=False, allow_infinity=False, width=32)
_payload = st.dictionaries(_text, st.one_of(st.integers(), _number,
                                            _text, st.booleans()),
                           max_size=4)

SERVE_RECORD = st.one_of(
    st.fixed_dictionaries({
        "event": st.just("accepted"),
        "id": st.integers(0, 999999).map("job-%06d".__mod__),
        "payload": _payload, "attempts": st.integers(0, 9)}),
    st.fixed_dictionaries({
        "event": st.sampled_from(["started", "requeued", "completed",
                                  "failed", "cancelled"]),
        "id": st.integers(0, 999999).map("job-%06d".__mod__),
        "result": _payload}))
WATCH_RECORD = st.one_of(
    st.fixed_dictionaries({"entry": st.just("redesign-start"),
                           "epoch": st.integers(1, 99),
                           "spec": _payload}),
    st.fixed_dictionaries({"entry": st.just("redesign-done"),
                           "epoch": st.integers(1, 99),
                           "decision": _payload}))
GRID_RECORD = st.fixed_dictionaries({
    "entry": st.sampled_from(["shard-start", "shard-done",
                              "cell-convicted"]),
    "grid": st.just("grid-abc"),
    "shard": st.integers(0, 50),
    "loads": st.lists(_number, min_size=1, max_size=3).map(loads_key),
    "points": st.lists(st.fixed_dictionaries(
        {"load": _number, "annual_cost": _number}), max_size=2)})

SCHEMAS = {"serve": SERVE_RECORD, "watch": WATCH_RECORD,
           "grid": GRID_RECORD}


def write_serve(path):
    store = JobStore(path, fsync=False)
    first = store.submit({"n": 1, "tier": "web"})
    store.mark_started(first.id)
    store.mark_completed(first.id, {"annual_cost": 12.5})
    store.submit({"n": 2})
    store.close()


def write_watch(path):
    journal = WatchJournal(path)
    journal.redesign_start(1, {"tier": "web", "load": 600.0})
    journal.redesign_done(1, {"epoch": 1, "feasible": True})


def write_grid(path):
    journal = GridJournal(path, "grid-abc")
    journal.shard_start(0, (1.0, 2.0), 1, 4242, 60.0, now=100.0)
    journal.shard_done(0, (1.0, 2.0), [{"load": 1.0, "annual_cost": 5.0}])
    journal.cell_convicted(7.0, "poison")


WRITERS = {"serve": write_serve, "watch": write_watch, "grid": write_grid}


# -- the battery --------------------------------------------------------

def frame_spans(records):
    """(frame bytes, [(start, stop) per record])."""
    frames = [encode_record(record) for record in records]
    spans, offset = [], 0
    for frame in frames:
        spans.append((offset, offset + len(frame)))
        offset += len(frame)
    return b"".join(frames), spans


def assert_survives(records, data, spans, offset, value):
    mutated = data[:offset] + bytes([value]) + data[offset + 1:]
    replay = decode_records(mutated)
    victim = next(index for index, (start, stop) in enumerate(spans)
                  if start <= offset < stop)
    if replay.records == records:
        return
    assert replay.records == records[:victim] + records[victim + 1:], \
        "offset %d -> %r" % (offset, bytes([value]))
    assert replay.torn + replay.corrupt >= 1   # the loss is reported


def mutations(byte, drawn):
    """Replacement values for one byte: a bit flip, to/from newline."""
    values = {byte ^ 0x01, 0x0A if byte != 0x0A else drawn}
    values.discard(byte)
    return values


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_every_mutation_of_a_real_journal(schema, tmp_path):
    """Every byte value at every offset of a journal the real
    subsystem wrote."""
    path = str(tmp_path / "journal.jsonl")
    WRITERS[schema](path)
    records = Journal(path).replay().records
    data, spans = frame_spans(records)
    with open(path, "rb") as handle:
        assert handle.read() == data
    for offset in range(len(data)):
        for value in range(256):
            if value != data[offset]:
                assert_survives(records, data, spans, offset, value)


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_mutation_battery(schema):
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=st.lists(SCHEMAS[schema], min_size=1, max_size=5),
           drawn=st.integers(0, 255).filter(lambda value: value != 0x0A))
    def battery(records, drawn):
        data, spans = frame_spans(records)
        assert decode_records(data).records == records
        for offset, byte in enumerate(data):
            for value in mutations(byte, drawn):
                assert_survives(records, data, spans, offset, value)

    battery()


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_torn_tail_at_every_offset_then_append(schema, tmp_path):
    """A crash at any byte of the last append loses only that record,
    and the next append after a restart is kept."""
    source = str(tmp_path / "source.jsonl")
    WRITERS[schema](source)
    records = Journal(source).replay().records
    data, spans = frame_spans(records)
    start, stop = spans[-1]
    path = str(tmp_path / "torn.jsonl")
    for cut in range(start + 1, stop):
        with open(path, "wb") as handle:
            handle.write(data[:cut])
        replay = Journal(path).replay()
        whole = cut == stop - 1     # only the newline is missing
        assert replay.records == (records if whole else records[:-1])
        assert replay.torn == (0 if whole else 1)
        Journal(path, durable=False).append({"after": "restart"})
        replay = Journal(path).replay()
        assert replay.records[-1] == {"after": "restart"}
        assert replay.records[:-1] == (records if whole
                                       else records[:-1])


# -- the primitive's contract -------------------------------------------

def test_missing_journal_replays_empty(tmp_path):
    replay = Journal(str(tmp_path / "absent.jsonl")).replay()
    assert (replay.records, replay.torn, replay.corrupt) == ([], 0, 0)


def test_one_record_per_line(tmp_path):
    path = str(tmp_path / "j.jsonl")
    journal = Journal(path, durable=False)
    journal.append({"a": 1})
    journal.append({"b": "two\nlines"})
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")
    assert len(lines) == 3 and lines[-1] == b""
    assert lines[0].endswith(b'{"a": 1}')


def test_append_never_rewrites_foreign_bytes(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with open(path, "wb") as handle:
        handle.write(b"legacy {json}")
    Journal(path, durable=False).append({"a": 1})
    with open(path, "rb") as handle:
        data = handle.read()
    assert data == b"legacy {json}\n" + encode_record({"a": 1})
    replay = decode_records(data)
    assert (replay.records, replay.corrupt) == ([{"a": 1}], 1)


def test_append_failure_raises(tmp_path):
    with pytest.raises(OSError):
        Journal(str(tmp_path)).append({"a": 1})    # a directory


def test_unframed_legacy_journal_reads_as_corrupt(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with open(path, "w") as handle:
        handle.write('{"event": "accepted", "id": "job-000000"}\n')
    replay = Journal(path).replay()
    assert (replay.records, replay.torn, replay.corrupt) == ([], 0, 1)


def test_rewrite_preserves_pre_image_only_when_asked(tmp_path):
    path = str(tmp_path / "j.jsonl")
    journal = Journal(path, durable=False)
    journal.rewrite([{"a": 1}])
    assert os.listdir(str(tmp_path)) == ["j.jsonl"]
    with open(path, "ab") as handle:
        handle.write(b"damaged\n")
    with open(path, "rb") as handle:
        before = handle.read()
    journal.rewrite([{"a": 1}], preserve=True)
    with open(path + ".corrupt-1", "rb") as handle:
        assert handle.read() == before
    journal.rewrite([{"a": 1}], preserve=True)
    assert Journal(path).replay().records == [{"a": 1}]
    assert sorted(os.listdir(str(tmp_path))) == [
        "j.jsonl", "j.jsonl.corrupt-1", "j.jsonl.corrupt-2"]
    assert journal.preserved() == [path + ".corrupt-1",
                                   path + ".corrupt-2"]


# -- durability: a rename or a create is fsynced in its directory -------

@pytest.fixture
def sync_calls(monkeypatch):
    """``os.fsync``/``os.replace`` in call order; a directory's fsync
    reads ``fsync(dir)``."""
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def spy_fsync(fd):
        directory = stat.S_ISDIR(os.fstat(fd).st_mode)
        calls.append("fsync(dir)" if directory else "fsync")
        return real_fsync(fd)

    def spy_replace(src, dst):
        calls.append("replace")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    return calls


def test_durable_write_fsyncs_directory_after_rename(tmp_path,
                                                     sync_calls):
    atomic_write_bytes(str(tmp_path / "f"), b"data")
    assert sync_calls == ["fsync", "replace", "fsync(dir)"]
    del sync_calls[:]
    atomic_write_bytes(str(tmp_path / "f"), b"data", durable=False)
    assert sync_calls == ["replace"]


def test_append_fsyncs_directory_only_when_it_creates(tmp_path,
                                                      sync_calls):
    journal = Journal(str(tmp_path / "j.jsonl"))
    journal.append({"a": 1})
    assert sync_calls == ["fsync", "fsync(dir)"]
    journal.append({"a": 2})
    assert sync_calls == ["fsync", "fsync(dir)", "fsync"]


def test_jobstore_compaction_rename_is_durable(tmp_path, sync_calls):
    """Regression: the boot-time compaction renamed a new ``jobs.jsonl``
    into place without fsyncing the directory, so a power cut could
    revert the name to the old inode and drop jobs accepted since."""
    path = str(tmp_path / "jobs.jsonl")
    JobStore(path, fsync=False).submit({"n": 1})
    del sync_calls[:]
    store = JobStore(path)
    assert sync_calls == ["fsync", "replace", "fsync(dir)"]
    store.submit({"n": 2})
    assert sync_calls[3:] == ["fsync"]
