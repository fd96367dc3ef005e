"""Argsort partition: pinned byte-identical to the historical S-pass.

``_group_by_owner`` replaced the per-shard boolean-mask loop
(``index[owners == j]`` for each shard ``j``) with one stable argsort
plus a ``searchsorted``.  These tests pin the new grouping — and the
partition paths built on it — byte-identical to a reference
implementation of the old loop, and the vectorized routing of integer
batches (Python or numpy integers) identical to :func:`shard_index`.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import ShardedSketch, SpaceSaving, shard_index
from repro.sharding.sharded import _group_by_owner


def reference_groups(owners: np.ndarray, shards: int):
    """The historical S-pass: one boolean mask per shard."""
    index = np.arange(len(owners), dtype=np.int64)
    return [index[owners == j] for j in range(shards)]


def reference_partition(items, shards, key_fn=None):
    """The scalar routing loop every vectorized path must reproduce."""
    per_positions = [[] for _ in range(shards)]
    per_items = [[] for _ in range(shards)]
    for idx, item in enumerate(items):
        key = item if key_fn is None else key_fn(item)
        j = shard_index(key, shards)
        per_positions[j].append(idx)
        per_items[j].append(item)
    return list(zip(per_positions, per_items))


class TestGroupByOwner:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7, 16])
    def test_matches_mask_pass(self, shards, rng):
        owners = rng.integers(0, shards, size=501, dtype=np.uint64)
        groups = _group_by_owner(owners, shards)
        expected = reference_groups(owners, shards)
        assert len(groups) == shards
        for got, want in zip(groups, expected):
            assert np.array_equal(got, want)
            # stable sort ⇒ each group ascends (stream order preserved)
            assert np.all(np.diff(got) > 0) or got.size <= 1

    def test_empty_batch(self):
        owners = np.empty(0, dtype=np.uint64)
        groups = _group_by_owner(owners, 4)
        assert len(groups) == 4
        assert all(g.size == 0 for g in groups)

    def test_all_one_owner(self):
        owners = np.full(64, 2, dtype=np.uint64)
        groups = _group_by_owner(owners, 5)
        assert [g.size for g in groups] == [0, 0, 64, 0, 0]
        assert np.array_equal(groups[2], np.arange(64))


class TestGatherItems:
    def test_inline_matches_take(self):
        # each shard's item column is its owner group's probe.take
        rng = random.Random(8)
        items = [rng.randint(0, 1000) for _ in range(256)]
        sketch = ShardedSketch(lambda i: SpaceSaving(8), shards=3)
        owners, probe = sketch._route_owners(items)
        groups = _group_by_owner(owners, 3)
        columns = sketch._partition_columns(items)
        for group, (positions, got) in zip(groups, columns):
            assert np.array_equal(positions, group)
            assert np.array_equal(got, probe.take(group))


class TestPartitionPinned:
    """`_partition` output must not depend on which lane routed it."""

    def partition(self, items, shards, key_fn=None):
        sketch = ShardedSketch(
            lambda i: SpaceSaving(8), shards=shards, key_fn=key_fn
        )
        return sketch._partition(items)

    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_int_batch_vectorized(self, shards):
        rng = random.Random(3)
        items = [rng.randint(0, 500) for _ in range(997)]
        assert self.partition(items, shards) == reference_partition(
            items, shards
        )

    def test_negative_ints(self):
        items = [-5, -1, 0, 7, -(2**40), 2**40, -3, -5]
        assert self.partition(items, 4) == reference_partition(items, 4)

    def test_large_uint64_ints(self):
        items = [2**64 - 1, 2**63, 2**63 - 1, 1, 0, 2**64 - 17]
        assert self.partition(items, 3) == reference_partition(items, 3)

    def test_float_batch_python_fallback(self):
        # floats must NOT vectorize (asarray would coerce and diverge
        # from hash routing); the Python loop handles them
        sketch = ShardedSketch(lambda i: SpaceSaving(8), shards=3)
        items = [1.5, 2.5, 1.5, 3.0, 2.5]
        assert sketch._route_owners(items) is None
        assert sketch._partition(items) == reference_partition(items, 3)

    def test_str_batch_python_fallback(self):
        items = [f"flow-{i % 11}" for i in range(200)]
        assert self.partition(items, 4) == reference_partition(items, 4)

    def test_key_fn_disables_vectorized_lane(self):
        key_fn = lambda item: item // 10  # noqa: E731
        items = list(range(100))
        sketch = ShardedSketch(
            lambda i: SpaceSaving(8), shards=4, key_fn=key_fn
        )
        assert sketch._route_owners(items) is None
        assert sketch._partition(items) == reference_partition(
            items, 4, key_fn=key_fn
        )

    def test_mixed_int_types_fallback(self):
        # a bool is an int subclass but `type(items[0]) is int` gates the
        # lane on the first element; mixing later elements still routes
        # through asarray, whose dtype check rejects object columns
        items = [1, "x", 3]
        sketch = ShardedSketch(lambda i: SpaceSaving(8), shards=2)
        assert sketch._route_owners(items) is None
        assert sketch._partition(items) == reference_partition(items, 2)

    #: negative keys (``hash(-1) == -2``) and keys past ``2**61 - 1``
    #: (where ``hash`` wraps) are where hash routing would diverge
    NUMPY_KEYS = [-1, -2, -5, 0, 7, 2**61 - 1, 2**61, 2**62, -(2**62), 2**63 - 1]

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_numpy_int64_keys(self, shards):
        column = np.array(self.NUMPY_KEYS * 3, dtype=np.int64)
        for key in column:
            assert shard_index(key, shards) == shard_index(int(key), shards)
        items = list(column)
        assert self.partition(items, shards) == reference_partition(
            [int(key) for key in items], shards
        )

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_numpy_uint64_keys(self, shards):
        column = np.array(
            [0, 1, 2**61 - 1, 2**61, 2**62, 2**63, 2**64 - 1] * 3,
            dtype=np.uint64,
        )
        for key in column:
            assert shard_index(key, shards) == shard_index(int(key), shards)
        items = list(column)
        assert self.partition(items, shards) == reference_partition(
            [int(key) for key in items], shards
        )

    def test_numpy_key_batch_queries_its_owner(self):
        # a numpy batch must land where a point query for the same
        # Python int looks — the same answer as a list feed
        keys = [-1] * 10 + [2**62] * 10
        fed = {}
        for name, batch in (("numpy", np.array(keys)), ("list", keys)):
            sketch = ShardedSketch(lambda i: SpaceSaving(64), shards=4)
            sketch.update_many(batch)
            fed[name] = (sketch.query(-1), sketch.query(2**62))
        assert fed["numpy"] == fed["list"] == (10, 10)


class TestPartitionColumns:
    def test_matches_list_partition(self):
        rng = random.Random(5)
        items = [rng.randint(0, 300) for _ in range(800)]
        sketch = ShardedSketch(lambda i: SpaceSaving(8), shards=4)
        columns = sketch._partition_columns(items)
        lists = sketch._partition(items)
        assert columns is not None
        for (pos_col, item_col), (pos_list, item_list) in zip(columns, lists):
            assert isinstance(pos_col, np.ndarray)
            assert isinstance(item_col, np.ndarray)
            assert pos_col.tolist() == pos_list
            assert item_col.tolist() == item_list

    def test_none_for_non_vectorizable(self):
        sketch = ShardedSketch(lambda i: SpaceSaving(8), shards=4)
        assert sketch._partition_columns(["a", "b"]) is None
        assert sketch._partition_columns([1.5, 2.5]) is None
        assert sketch._partition_columns([]) is None
