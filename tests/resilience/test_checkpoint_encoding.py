"""A checkpoint file is exactly ``json.dumps(to_dict())``.

:class:`SearchCheckpoint` encodes each entry once, when it is recorded
or loaded, and a save joins those fragments.  These properties pin the
joined bytes to the reference encoder (:meth:`SearchCheckpoint.to_dict`
through ``json.dumps``) across any interleaving of recording, frontier
completion, saving and reloading -- so the file format cannot drift.
"""

import json
import os
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import SearchCheckpoint

LEAF = st.one_of(st.text(max_size=6), st.integers(), st.floats(),
                 st.none())
KEY = st.recursive(LEAF, lambda inner: st.lists(inner, max_size=3)
                   .map(tuple), max_leaves=8).map(
    lambda key: key if isinstance(key, tuple) else (key,))
VALUE = st.one_of(st.floats(), st.integers())
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3)),
    max_leaves=10)
TIER = st.one_of(st.sampled_from(["web", "app", "db"]),
                 st.text(max_size=4))

#: Indices into a per-example pool of keys, so keys recur.
POOL_INDEX = st.integers(0, 5)
OPERATION = st.one_of(
    st.tuples(st.just("record"), POOL_INDEX, VALUE),
    st.tuples(st.just("batch"),
              st.lists(st.tuples(POOL_INDEX, VALUE), max_size=4)),
    st.tuples(st.just("frontier"), TIER, st.floats(),
              st.lists(JSON, max_size=3)),
    st.tuples(st.just("save")),
    st.tuples(st.just("reload")))


def reference(checkpoint):
    return json.dumps(checkpoint.to_dict()).encode("utf-8")


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


_real_save = SearchCheckpoint.save


def checked_save(self, path=None):
    """Every save, explicit or automatic, writes the reference bytes."""
    target = _real_save(self, path)
    assert read(target) == reference(self)
    return target


@settings(max_examples=150, deadline=None)
@given(pool=st.lists(KEY, min_size=1, max_size=6),
       operations=st.lists(OPERATION, max_size=16),
       interval=st.integers(1, 4))
def test_saved_bytes_equal_the_reference_encoder(pool, operations,
                                                 interval):
    # Frontier members are arbitrary JSON here, not tier designs.
    with tempfile.TemporaryDirectory() as directory, \
            mock.patch("repro.core.serialize."
                       "evaluated_tier_design_to_dict", lambda c: c), \
            mock.patch.object(SearchCheckpoint, "save", checked_save):
        path = os.path.join(directory, "ck.json")
        checkpoint = SearchCheckpoint(path, interval=interval)
        for operation in operations:
            kind = operation[0]
            if kind == "record":
                checkpoint.record_evaluation(
                    pool[operation[1] % len(pool)], operation[2])
            elif kind == "batch":
                checkpoint.record_batch(
                    (pool[index % len(pool)], value)
                    for index, value in operation[1])
            elif kind == "frontier":
                checkpoint.store_frontier(*operation[1:])
            elif kind == "save":
                checkpoint.save()
            else:
                checkpoint.save()
                checkpoint = SearchCheckpoint.load(path,
                                                   interval=interval)
            assert checkpoint.encode() == reference(checkpoint)


def test_v1_file_with_duplicated_keys(tmp_path):
    """A duplicated key keeps its first position and its last value,
    including keys that compare equal across int and float."""
    path = str(tmp_path / "ck.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"version": 1,
                   "availability_cache": [[["a", 1], 0.5],
                                          [["b"], 1],
                                          [["a", 1.0], 0.25],
                                          [["é"], 0.75]],
                   "tier_frontiers": {"web": {"load": 10,
                                              "frontier": []}}},
                  handle)
    checkpoint = SearchCheckpoint.load(path)
    assert checkpoint.evaluations == 3
    checkpoint.record_evaluation(("c", None), 0.125)
    checkpoint.save()
    assert read(path) == reference(checkpoint)
    assert json.loads(read(path))["availability_cache"] == [
        [["a", 1], 0.25], [["b"], 1.0], [["é"], 0.75],
        [["c", None], 0.125]]


def test_replaced_frontier_keeps_its_position(tmp_path):
    path = str(tmp_path / "ck.json")
    with mock.patch("repro.core.serialize.evaluated_tier_design_to_dict",
                    lambda c: c):
        checkpoint = SearchCheckpoint(path)
        checkpoint.store_frontier("web", 10.0, [{"n": 1}])
        checkpoint.store_frontier("db", 10.0, [])
        checkpoint.store_frontier("web", 20.0, [{"n": 2}])
    assert list(json.loads(read(path))["tier_frontiers"]) == ["web", "db"]
    assert read(path) == reference(checkpoint)
