"""Pipelined ingestion front-end: equivalence, sync points, lifecycle."""

from __future__ import annotations

import multiprocessing as mp
import random
import threading
import time

import pytest

from repro import (
    ExactWindowCounter,
    HMemento,
    Memento,
    PipelineConfig,
    SRC_HIERARCHY,
    ShardedSketch,
    SpaceSaving,
)
from repro.sharding import make_pipeline_config
from repro.sharding.pipeline import GAP, PipelinedDispatcher, WriteBuffer

WINDOW = 96


def make_stream(n=2000, seed=23):
    rng = random.Random(seed)
    return [rng.randint(0, 30) for _ in range(n)]


def exact_factory(i):
    return ExactWindowCounter(WINDOW)


def memento_factory(i):
    return Memento(window=WINDOW, counters=64, tau=1.0, seed=1 + i)


def hmemento_factory(i):
    return HMemento(
        window=256, hierarchy=SRC_HIERARCHY, counters=160, tau=1.0, seed=1 + i
    )


def space_saving_factory(i):
    return SpaceSaving(32)


class TestConfig:
    def test_disabled_specs(self):
        assert make_pipeline_config(None) is None
        assert make_pipeline_config(False) is None

    def test_enabled_specs(self):
        assert make_pipeline_config(True) == PipelineConfig()
        assert make_pipeline_config(512) == PipelineConfig(buffer_size=512)
        config = PipelineConfig(buffer_size=64, depth=3)
        assert make_pipeline_config(config) is config

    def test_rejects_bad_specs(self):
        with pytest.raises(TypeError):
            make_pipeline_config("fast")
        with pytest.raises(ValueError):
            PipelineConfig(buffer_size=0)
        with pytest.raises(ValueError):
            PipelineConfig(depth=0)

    def test_sketch_exposes_pipelined_flag(self):
        assert not ShardedSketch(exact_factory, shards=2).pipelined
        sharded = ShardedSketch(exact_factory, shards=2, pipeline=True)
        assert sharded.pipelined
        sharded.close()


def runs(ops):
    """Buffered ops with positions as plain lists (comparable with ==)."""
    out = []
    for method, payload in ops:
        if method == GAP:
            out.append((method, payload))
        else:
            items, positions, n = payload
            at = None if positions is None else positions.tolist()
            out.append((method, (items, at, n)))
    return out


class TestWriteBuffer:
    def test_coalesces_same_kind_runs(self):
        # gaps between same-method writes widen positions inside one run
        buffer = WriteBuffer(capacity=100)
        assert not buffer.add_items("ingest_samples", (1,))
        assert not buffer.add_items("ingest_samples", (2, 3))
        assert not buffer.add_gap(5)
        assert not buffer.add_gap(2)
        assert not buffer.add_items("ingest_samples", (4,))
        assert buffer.pending == 5  # four items plus one gap mark
        assert runs(buffer.drain()) == [
            ("ingest_samples", ([1, 2, 3, 4], [0, 1, 2, 10], 11)),
        ]
        assert buffer.pending == 0
        assert buffer.drain() == []

    def test_dense_run_has_no_positions(self):
        buffer = WriteBuffer(capacity=100)
        buffer.add_items("update_many", (1,))
        buffer.add_items("update_many", [2, 3])
        ops = buffer.drain()
        assert ops == [("update_many", ([1, 2, 3], None, 3))]

    def test_gap_only_run(self):
        buffer = WriteBuffer(capacity=100)
        buffer.add_gap(5)
        buffer.add_gap(2)
        assert buffer.pending == 1
        assert buffer.drain() == [(GAP, 7)]

    def test_leading_gap(self):
        buffer = WriteBuffer(capacity=100)
        buffer.add_gap(3)
        buffer.add_items("ingest_samples", (7, 8))
        buffer.add_gap(1)
        buffer.add_items("ingest_samples", (9,))
        assert runs(buffer.drain()) == [
            ("ingest_samples", ([7, 8, 9], [3, 4, 6], 7)),
        ]

    def test_trailing_gap(self):
        buffer = WriteBuffer(capacity=100)
        buffer.add_items("ingest_samples", (7, 8))
        buffer.add_gap(4)
        assert runs(buffer.drain()) == [
            ("ingest_samples", ([7, 8], [0, 1], 6)),
        ]

    def test_method_switch_closes_the_run(self):
        # a trailing gap stays with the run it follows; a gap before the
        # first write of a new method leads the next run
        buffer = WriteBuffer(capacity=100)
        buffer.add_items("update_many", (1, 2))
        buffer.add_gap(3)
        buffer.add_items("ingest_samples", (4,))
        buffer.add_items("update_many", (5,))
        buffer.add_gap(2)
        buffer.add_items("update_many", (6,))
        assert runs(buffer.drain()) == [
            ("update_many", ([1, 2], [0, 1], 5)),
            ("ingest_samples", ([4], None, 1)),
            ("update_many", ([5, 6], [0, 3], 4)),
        ]

    def test_gap_counts_toward_capacity(self):
        buffer = WriteBuffer(capacity=3)
        assert not buffer.add_items("ingest_samples", (1,))
        assert not buffer.add_gap(9)
        assert buffer.add_items("ingest_samples", (2,))

    def test_signals_flush_at_capacity(self):
        buffer = WriteBuffer(capacity=3)
        assert not buffer.add_items("update_many", (1, 2))
        assert buffer.add_items("update_many", (3,))

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            WriteBuffer(0)


def mixed_feed(target, stream):
    """Interleave batches, scalars, samples, and gaps (windowed targets)."""
    windowed = target.windowed
    target.update_many(stream[:700])
    for item in stream[700:760]:
        target.update(item)
    if windowed:
        target.ingest_gap(13)
        target.ingest_sample(stream[760])
        target.ingest_gap(1)
    target.ingest_samples(stream[761:790])
    target.update_many(stream[790:])


class TestPipelinedEquivalence:
    """Pipelined ingestion must be byte-identical to synchronous."""

    @pytest.mark.parametrize(
        "factory,shards",
        [
            (memento_factory, 3),
            (space_saving_factory, 4),
            (exact_factory, 4),
        ],
        ids=["memento", "space_saving", "exact"],
    )
    def test_matches_serial(self, factory, shards):
        stream = make_stream(n=1600)
        reference = ShardedSketch(factory, shards=shards)
        with ShardedSketch(
            factory, shards=shards, pipeline=PipelineConfig(buffer_size=256)
        ) as pipelined:
            for target in (reference, pipelined):
                mixed_feed(target, stream)
            assert pipelined.updates == reference.updates
            for key in range(31):
                assert pipelined.query(key) == reference.query(key)
            assert pipelined.heavy_hitters(0.05) == reference.heavy_hitters(0.05)

    def test_hmemento_sum_mode_matches_serial(self):
        # H-Memento routes packets while answering prefix queries: sum
        # mode, prefix keys, and the window-aware merged enumeration
        stream = make_stream(n=1400)
        reference = ShardedSketch(hmemento_factory, shards=2, query_mode="sum")
        with ShardedSketch(
            hmemento_factory,
            shards=2,
            query_mode="sum",
            pipeline=PipelineConfig(buffer_size=256),
        ) as pipelined:
            for target in (reference, pipelined):
                mixed_feed(target, stream)
            assert pipelined.updates == reference.updates
            for packet in range(31):
                for prefix in SRC_HIERARCHY.all_prefixes(packet):
                    assert pipelined.query(prefix) == reference.query(prefix)
            assert pipelined.heavy_prefixes(0.05) == reference.heavy_prefixes(
                0.05
            )

    @pytest.mark.parametrize("executor", ["persistent", "serial"])
    def test_exact_oracle_identity_with_executors(self, executor):
        # pipelined sharded-over-exact stays result-identical to the
        # unsharded oracle across every executor strategy
        stream = make_stream(n=2400)
        oracle = ExactWindowCounter(WINDOW)
        oracle.update_many(stream)
        with ShardedSketch(
            exact_factory, shards=4, executor=executor, pipeline=300
        ) as sharded:
            for start in range(0, len(stream), 500):
                sharded.update_many(stream[start : start + 500])
            for key in range(31):
                assert sharded.query(key) == oracle.query(key)
            assert sharded.heavy_hitters(0.03) == oracle.heavy_hitters(0.03)

    def test_resident_scalar_feed_coalesces(self):
        # the O(S)-messages-per-packet resident scalar path rides the
        # buffer: per-packet updates on persistent workers stay correct
        stream = make_stream(n=900)
        oracle = ExactWindowCounter(WINDOW)
        reference = ShardedSketch(exact_factory, shards=3)
        with ShardedSketch(
            exact_factory, shards=3, executor="persistent", pipeline=128
        ) as sharded:
            sharded.update_many(stream[:100])  # go resident
            reference.update_many(stream[:100])
            oracle.update_many(stream[:100])
            for item in stream[100:]:
                sharded.update(item)
                reference.update(item)
                oracle.update(item)
            for key in range(31):
                assert sharded.query(key) == oracle.query(key)
                assert reference.query(key) == oracle.query(key)

    def test_queries_interleaved_with_buffered_writes(self):
        stream = make_stream(n=1200)
        reference = ShardedSketch(memento_factory, shards=3)
        with ShardedSketch(
            memento_factory, shards=3, pipeline=PipelineConfig(buffer_size=512)
        ) as sharded:
            for start in range(0, len(stream), 90):
                chunk = stream[start : start + 90]
                sharded.update_many(chunk)
                reference.update_many(chunk)
                # every query is a sync point: it must observe every
                # write issued before it, buffered or in flight
                assert sharded.query(chunk[0]) == reference.query(chunk[0])
            assert sharded.updates == reference.updates


class TestSyncPoints:
    def test_writes_buffer_until_threshold(self):
        with ShardedSketch(
            exact_factory, shards=2, pipeline=PipelineConfig(buffer_size=1000)
        ) as sharded:
            for item in range(10):
                sharded.update(item)
            # below the threshold nothing was dispatched yet...
            assert sharded._buffer.pending == 10
            assert sharded.updates == 10
            # ...but a query drains buffer + pipeline before answering
            assert sharded.query(3) == 1.0
            assert sharded._buffer.pending == 0

    def test_flush_is_idempotent(self):
        with ShardedSketch(exact_factory, shards=2, pipeline=64) as sharded:
            sharded.update_many(make_stream(n=500))
            sharded.flush()
            sharded.flush()  # drained pipeline: a no-op
            assert sharded.query(1) >= 0.0
        # flush after close restarts nothing
        sharded.flush()

    def test_flush_on_synchronous_sketch_is_noop(self):
        sharded = ShardedSketch(exact_factory, shards=2)
        sharded.update_many([1, 2, 3])
        sharded.flush()
        assert sharded.query(1) == 1.0
        sharded.close()


class TestLifecycle:
    def test_close_with_in_flight_batch_then_reuse(self):
        stream = make_stream(n=3000)
        sharded = ShardedSketch(
            exact_factory, shards=4, executor="persistent", pipeline=200
        )
        reference = ShardedSketch(exact_factory, shards=4)
        sharded.update_many(stream)
        reference.update_many(stream)
        sharded.close()  # in-flight coalesced batches must drain first
        sharded.close()  # idempotent
        assert sharded.query(stream[0]) == reference.query(stream[0])
        # a later write restarts the pipeline and re-seeds lazily
        sharded.update_many(stream[:150])
        reference.update_many(stream[:150])
        assert sharded.query(stream[0]) == reference.query(stream[0])
        sharded.close()
        assert mp.active_children() == []

    def test_no_processes_survive_close(self):
        with ShardedSketch(
            exact_factory, shards=3, executor="persistent", pipeline=True
        ) as sharded:
            sharded.update_many(make_stream(n=600))
            sharded.query(1)
        for child in mp.active_children():
            child.join(timeout=5)
        assert mp.active_children() == []

    def test_dispatch_failure_surfaces_at_sync_and_close_releases(self):
        # non-windowed shards receive their owned packets via the plain
        # batch method, so the poison triggers inside the dispatch thread
        class Exploding(SpaceSaving):
            armed = False

            def update_many(self, items):
                if Exploding.armed:
                    raise ValueError("boom")
                super().update_many(items)

        sharded = ShardedSketch(
            lambda i: Exploding(32), shards=2, pipeline=8
        )
        sharded.update_many([1, 2, 3, 4])
        sharded.flush()
        Exploding.armed = True
        try:
            sharded.update_many(list(range(32)))
            with pytest.raises(RuntimeError, match="pipelined ingestion failed"):
                sharded.flush()
            # the failure sticks at every later sync point...
            with pytest.raises(RuntimeError, match="boom"):
                sharded.query(1)
            # ...and close still releases everything (then it propagates)
            with pytest.raises(RuntimeError, match="pipelined ingestion failed"):
                sharded.close()
            assert sharded._dispatcher is None or not sharded._dispatcher.alive
            # a closed pipeline is reset: the sketch stays usable
            Exploding.armed = False
            sharded.update_many([5, 6])
            assert sharded.query(5) == 1.0
        finally:
            Exploding.armed = False
            sharded.close()


class TestDispatcher:
    def test_preserves_op_order(self):
        seen = []
        dispatcher = PipelinedDispatcher(
            lambda items, method: seen.append((method, list(items))),
            lambda count: seen.append((GAP, count)),
            depth=2,
        )
        try:
            dispatcher.submit("update_many", [1, 2])
            dispatcher.submit(GAP, 7)
            dispatcher.submit("ingest_samples", [3])
            dispatcher.drain()
            assert seen == [
                ("update_many", [1, 2]),
                (GAP, 7),
                ("ingest_samples", [3]),
            ]
        finally:
            dispatcher.close()
        assert not dispatcher.alive

    def test_bounded_depth_blocks_producer(self):
        release = threading.Event()

        def slow_apply(items, method):
            release.wait(timeout=10)

        dispatcher = PipelinedDispatcher(slow_apply, lambda count: None, depth=1)
        try:
            dispatcher.submit("update_many", [1])
            start = time.perf_counter()

            def delayed_release():
                time.sleep(0.15)
                release.set()

            threading.Thread(target=delayed_release).start()
            # queue full (depth=1 in flight + 1 queued): this put blocks
            dispatcher.submit("update_many", [2])
            dispatcher.submit("update_many", [3])
            assert time.perf_counter() - start > 0.05
            dispatcher.drain()
        finally:
            dispatcher.close()

    def test_poisoned_pipeline_drops_later_ops(self):
        seen = []

        def apply(items, method):
            if items == [0]:
                raise ValueError("poisoned")
            seen.append(list(items))

        dispatcher = PipelinedDispatcher(apply, lambda count: None, depth=2)
        try:
            dispatcher.submit("update_many", [0])
            dispatcher.submit("update_many", [1])
            with pytest.raises(RuntimeError, match="poisoned"):
                dispatcher.drain()
            assert dispatcher.failed
            assert seen == []  # the op after the failure was dropped
        finally:
            dispatcher.close()
        assert not dispatcher.failed  # close resets the poison
