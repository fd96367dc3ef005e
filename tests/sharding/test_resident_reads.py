"""Resident ensembles: positional-run flushes and worker-answered reads."""

from __future__ import annotations

import functools
import io
import pickle
import random
import time

import pytest

from repro import (
    SRC_HIERARCHY,
    ExactWindowCounter,
    HMemento,
    Memento,
    PersistentProcessExecutor,
    PipelineConfig,
    ShardedSketch,
)
from repro.engine import SketchSpec, build_engine
from repro.netwide.controller import SketchController
from repro.netwide.messages import BatchReport
from repro.sharding.executors import _shard_state
from repro.sharding.sharded import _shard_estimates

WINDOW = 4000


def make_reports(count=240, seed=17):
    """Controller reports: zero, one or many samples, with and without gaps."""
    rng = random.Random(seed)
    subnets = [rng.randrange(1, 255) << 24 for _ in range(6)]
    reports = []
    for point in range(count):
        k = rng.choice((0, 1, 1, 3, 8, 20))
        samples = tuple(
            rng.choice(subnets) | rng.randrange(1 << 24) for _ in range(k)
        )
        gap = rng.choice((0, 1, 5, 40, 150))
        reports.append(BatchReport(point % 10, samples, k + gap, 0))
    return reports


def probes(reports):
    """Every prefix of every sampled packet, plus a few never seen."""
    keys = {
        SRC_HIERARCHY.prefix_at(packet, pattern)
        for report in reports
        for packet in report.samples
        for pattern in range(SRC_HIERARCHY.num_patterns)
    }
    keys.update({(0x7F000000, 8), (0x0A000000, 8)})
    return sorted(keys)


def controller_spec(shards, transport=None, pipeline=None):
    sharding = {"shards": shards, "executor": "persistent"}
    if transport is not None:
        sharding["transport"] = transport
    payload = {
        "algorithm": {
            "family": "h_memento",
            "window": WINDOW,
            "counters": 200,
            "tau": 0.25,
            "seed": 3,
        },
        "hierarchy": {"kind": "src"},
        "sharding": sharding,
    }
    if pipeline is not None:
        payload["pipeline"] = {"buffer_size": pipeline}
    return SketchSpec.from_dict(payload)


def read_all(engine, reports, keys, reads=4):
    """Feed the reports, reading every probe at ``reads`` points on the way."""
    controller = SketchController(engine)
    answers = []
    step = len(reports) // reads
    for start in range(0, len(reports), step):
        controller.receive_many(reports[start : start + step])
        engine.flush()
        answers.append([engine.query_point(key) for key in keys])
    return answers


def state_bytes(obj):
    """Pickle without the memo: the complete state by value.

    Equal keys may be one shared object on one path and equal copies on
    another (a scalar ``full_update`` keeps a different key object than
    the fused batch loop), which moves memo references in plain pickle
    bytes without changing any state.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer)
    pickler.fast = True
    pickler.dump(obj)
    return buffer.getvalue()


def snapshot_bytes(engine):
    return state_bytes(engine.snapshot_state()["state"]["shards"])


class TestControllerDifferential:
    """Pipelined positional runs answer and end exactly like per-report
    dispatch (2 shards) and like the bare engine (1 shard)."""

    @pytest.mark.parametrize("transport", ["shm", "pipe"])
    def test_pipelined_two_shards_match_unpipelined(self, transport):
        reports = make_reports()
        keys = probes(reports)
        with build_engine(controller_spec(2, transport)) as reference:
            expected = read_all(reference, reports, keys)
            expected_state = snapshot_bytes(reference)
        with build_engine(controller_spec(2, transport, pipeline=256)) as engine:
            assert read_all(engine, reports, keys) == expected
            assert snapshot_bytes(engine) == expected_state

    def test_pipelined_one_shard_matches_bare_engine(self):
        reports = make_reports()
        keys = probes(reports)
        bare_spec = SketchSpec.from_dict(
            {**controller_spec(1).to_dict(), "sharding": None}
        )
        with build_engine(bare_spec) as bare:
            expected = read_all(bare, reports, keys)
            expected_state = state_bytes([bare.snapshot_state()["state"]])
        with build_engine(controller_spec(1, pipeline=256)) as engine:
            assert read_all(engine, reports, keys) == expected
            assert snapshot_bytes(engine) == expected_state


class CountingExecutor(PersistentProcessExecutor):
    """Counts apply messages per worker and records every ``call``."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.applies = 0
        self.calls = []
        self.call_args = []

    def submit(self, fn, tasks):
        self.applies += len(tasks)
        super().submit(fn, tasks)

    def broadcast(self, fn, *args):
        self.applies += len(self._conns)
        super().broadcast(fn, *args)

    def call(self, fn, *args, **kwargs):
        self.calls.append((fn, kwargs.get("worker")))
        self.call_args.append(args)
        return super().call(fn, *args, **kwargs)


def hmemento_factory(i):
    return HMemento(
        window=WINDOW, hierarchy=SRC_HIERARCHY, counters=200, tau=0.25, seed=3 + i
    )


class TestApplyMessages:
    @pytest.mark.parametrize("transport", ["shm", "pipe"])
    def test_one_flush_sends_one_apply_per_shard(self, transport):
        reports = make_reports(count=60)
        executor = CountingExecutor(transport=transport)
        with ShardedSketch(
            hmemento_factory,
            shards=2,
            executor=executor,
            query_mode="sum",
            pipeline=PipelineConfig(buffer_size=1 << 16),
        ) as sharded:
            controller = SketchController(sharded)
            controller.receive_many(reports)
            sharded.flush()
            # one positional run: a samples op plus a gap op per report
            # would be ~120 applies per shard
            assert executor.applies == sharded.num_shards


class TestWorkerAnsweredReads:
    def exact_ensemble(self, executor, query_mode="route"):
        return ShardedSketch(
            lambda i: ExactWindowCounter(64),
            shards=2,
            executor=executor,
            query_mode=query_mode,
        )

    def test_route_mode_asks_only_the_owner(self):
        rng = random.Random(3)
        stream = [rng.randrange(40) for _ in range(500)]
        reference = self.exact_ensemble("serial")
        reference.update_many(stream)
        executor = CountingExecutor()
        with self.exact_ensemble(executor) as sharded:
            sharded.update_many(stream)
            for key in range(40):
                assert sharded.query(key) == reference.query(key)
                assert sharded.query_point(key) == reference.query_point(key)
                assert sharded.query_lower(key) == reference.query_lower(key)
                assert executor.calls[-1][1] == sharded.shard_of(key)
            # point reads never pulled the shard state back
            assert all(fn is not _shard_state for fn, _ in executor.calls)
            assert sharded.entries() == reference.entries()
            assert executor.calls[-1] == (_shard_state, None)
            # whole-sketch reads synced the parent: later point reads
            # are answered there until the next write
            asked = len(executor.calls)
            assert sharded.query(stream[0]) == reference.query(stream[0])
            assert len(executor.calls) == asked

    def test_sum_mode_asks_every_worker(self):
        rng = random.Random(4)
        stream = [rng.randrange(40) for _ in range(500)]
        reference = self.exact_ensemble("serial", "sum")
        reference.update_many(stream)
        executor = CountingExecutor()
        with self.exact_ensemble(executor, "sum") as sharded:
            sharded.update_many(stream)
            for key in range(40):
                assert sharded.query_point(key) == reference.query_point(key)
                assert executor.calls[-1][1] is None

    def test_poisoned_worker_fails_point_read_with_traceback(self):
        executor = PersistentProcessExecutor()
        sharded = self.exact_ensemble(executor)
        try:
            sharded.update_many(list(range(50)))
            executor.submit(_poison, [(), ()])
            with pytest.raises(RuntimeError, match="ValueError: boom"):
                sharded.query_point(3)
        finally:
            with pytest.raises(RuntimeError, match="shard worker"):
                sharded.close()
        assert not executor.seeded

    def test_wedged_worker_hits_the_reply_deadline(self):
        executor = PersistentProcessExecutor()
        executor.call = functools.partial(
            PersistentProcessExecutor.call, executor, timeout=0.2
        )
        sharded = self.exact_ensemble(executor, "sum")
        try:
            sharded.update_many(list(range(50)))
            executor.submit(_stall, [(1.0,), (1.0,)])
            with pytest.raises(RuntimeError, match="worker 0 sent no reply"):
                sharded.query_point(3)
        finally:
            # the late replies and the stop message still drain cleanly
            with pytest.raises(RuntimeError, match="sent no reply"):
                sharded.close()
        assert not executor.seeded


def _poison(shard):
    raise ValueError("boom")


def _stall(shard, seconds):
    time.sleep(seconds)


def memento_factory(i):
    return Memento(window=WINDOW, counters=64, tau=0.25, seed=5 + i)


def read_workload(mode, seed=23):
    """A packet stream and 50 keys to read: int flows read by their
    owner (route), or packets read as source prefixes (sum)."""
    rng = random.Random(seed)
    if mode == "route":
        stream = [min(rng.randrange(1, 400), rng.randrange(1, 400)) for _ in range(6000)]
        return stream, list(range(1, 51))
    subnets = [rng.randrange(1, 255) << 24 for _ in range(8)]
    stream = [rng.choice(subnets) | rng.randrange(1 << 24) for _ in range(6000)]
    keys = sorted(
        {SRC_HIERARCHY.prefix_at(packet, pattern)
         for packet in stream[:40]
         for pattern in range(SRC_HIERARCHY.num_patterns)}
    )
    return stream, keys[:50]


def read_ensemble(executor, mode, pipeline):
    return ShardedSketch(
        hmemento_factory if mode == "sum" else memento_factory,
        shards=2,
        executor=executor,
        query_mode=mode,
        pipeline=PipelineConfig(buffer_size=256) if pipeline else None,
    )


READS = ("query", "query_lower", "query_point")


def answers(sketch, keys, reads=READS):
    return [getattr(sketch, read)(key) for key in keys for read in reads]


def exact_sum_ensemble(executor):
    return ShardedSketch(
        lambda i: ExactWindowCounter(64), shards=2, executor=executor, query_mode="sum"
    )


class TestReadCache:
    """Repeated point reads: one batched worker reply per write epoch,
    answers bit-identical to a serial ensemble."""

    @pytest.mark.parametrize("pipeline", [False, True], ids=["sync", "pipelined"])
    @pytest.mark.parametrize("mode", ["route", "sum"])
    @pytest.mark.parametrize("transport", ["shm", "pipe"])
    def test_answers_match_serial_across_epochs(self, transport, mode, pipeline):
        stream, keys = read_workload(mode)
        rng = random.Random(7)
        reference = read_ensemble("serial", mode, False)
        executor = PersistentProcessExecutor(transport=transport)
        with read_ensemble(executor, mode, pipeline) as sharded:
            for epoch in range(8):
                chunk = stream[epoch * 700 : (epoch + 1) * 700]
                for sketch in (reference, sharded):
                    sketch.update_many(chunk)
                    if epoch % 3 == 1:
                        sketch.ingest_gap(7)
                asked = keys if epoch % 2 == 0 else rng.sample(keys, 30) + keys[:5]
                for i, key in enumerate(asked):
                    if epoch >= 5 and i == 10:
                        # a write mid-epoch opens a new one
                        for sketch in (reference, sharded):
                            sketch.update(stream[i])
                    for read in READS:
                        got = getattr(sharded, read)(key)
                        assert got == getattr(reference, read)(key), (epoch, key, read)
            assert sharded.point_read_hits > 0

    @pytest.mark.parametrize("pipeline", [False, True], ids=["sync", "pipelined"])
    @pytest.mark.parametrize("mode", ["route", "sum"])
    @pytest.mark.parametrize("transport", ["shm", "pipe"])
    def test_warm_epoch_costs_one_call_per_asked_worker(
        self, transport, mode, pipeline
    ):
        stream, keys = read_workload(mode)
        assert len(keys) == 50
        reference = read_ensemble("serial", mode, False)
        executor = CountingExecutor(transport=transport)
        with read_ensemble(executor, mode, pipeline) as sharded:
            for sketch in (reference, sharded):
                sketch.update_many(stream[:3000])
            first = [sharded.query_point(key) for key in keys]
            for sketch in (reference, sharded):
                sketch.update_many(stream[3000:])
            asked = len(executor.calls)
            second = [sharded.query_point(key) for key in keys]
            # sum mode: one call to every worker; route mode: one call
            # to each owner, never to a worker that owns none of the keys
            if mode == "route":
                workers = list(dict.fromkeys(sharded.shard_of(key) for key in keys))
                assert len(workers) == 2
            else:
                workers = [None]
            assert executor.calls[asked:] == [
                (_shard_estimates, worker) for worker in workers
            ]
            assert sharded.point_read_hits == len(keys) - len(workers)
            assert second == [reference.query_point(key) for key in keys]
            assert first != second

    @pytest.mark.parametrize("mode", ["route", "sum"])
    def test_keys_not_asked_before_are_asked_alone(self, mode):
        stream, keys = read_workload(mode)
        reference = read_ensemble("serial", mode, False)
        executor = CountingExecutor(transport="shm")
        with read_ensemble(executor, mode, False) as sharded:
            for sketch in (reference, sharded):
                sketch.update_many(stream[:3000])
            for key in keys[:25]:
                sharded.query_point(key)
            for sketch in (reference, sharded):
                sketch.update_many(stream[3000:])
            asked = len(executor.calls)
            fresh = [sharded.query_point(key) for key in keys[25:]]
            # nothing repeats: one call per key, no stale key prefetched
            assert fresh == [reference.query_point(key) for key in keys[25:]]
            assert [args[0] for args in executor.call_args[asked:]] == [
                [key] for key in keys[25:]
            ]
            # the first re-asked key brings its workers' share of the
            # previous epoch along
            assert sharded.query_point(keys[0]) == reference.query_point(keys[0])
            prefetched = executor.call_args[-1][0]
            owner = executor.calls[-1][1]
            assert prefetched == [keys[0]] + [
                key
                for key in keys[1:25]
                if owner is None or sharded.shard_of(key) == owner
            ]
            assert len(prefetched) > 1

    @pytest.mark.parametrize("mode", ["route", "sum"])
    @pytest.mark.parametrize("transport", ["shm", "pipe"])
    def test_no_stale_answer_after_writes_gaps_and_restore(self, transport, mode):
        stream, keys = read_workload(mode)
        reference = read_ensemble("serial", mode, False)
        executor = PersistentProcessExecutor(transport=transport)
        with read_ensemble(executor, mode, True) as sharded:

            def check():
                # read twice: the second pass is served by the cache
                expected = answers(reference, keys)
                assert answers(sharded, keys) == expected
                assert answers(sharded, keys) == expected
                return expected

            for sketch in (reference, sharded):
                sketch.update_many(stream[:3000])
            check()
            # packets of keys the cache already answered
            hot = keys[:5] if mode == "route" else stream[:5]
            for sketch in (reference, sharded):
                sketch.update_many(stream[3000:3050] + hot * 20)
            check()
            for sketch in (reference, sharded):
                sketch.ingest_gap(1)
            check()
            snapshot = pickle.loads(pickle.dumps(sharded.state_snapshot()))
            ref_snapshot = pickle.loads(pickle.dumps(reference.state_snapshot()))
            at_snapshot = check()
            for sketch in (reference, sharded):
                sketch.update_many(stream[3050:4500])
            assert check() != at_snapshot
            sharded.restore_state(snapshot)
            reference.restore_state(ref_snapshot)
            assert check() == at_snapshot
            for sketch in (reference, sharded):
                sketch.update_many(stream[4500:])
            check()

    def test_poisoned_worker_fails_first_read_of_warm_epoch(self):
        executor = PersistentProcessExecutor()
        sharded = exact_sum_ensemble(executor)
        try:
            sharded.update_many(list(range(50)))
            warm = [sharded.query_point(key) for key in range(20)]
            sharded.update_many(list(range(50, 60)))
            executor.submit(_poison, [(), ()])
            with pytest.raises(RuntimeError, match="ValueError: boom"):
                sharded.query_point(3)
            # the failed call spent the prefetch list; the worker stays poisoned
            with pytest.raises(RuntimeError, match="ValueError: boom"):
                sharded.query_point(4)
        finally:
            with pytest.raises(RuntimeError, match="shard worker"):
                sharded.close()
        assert warm and not executor.seeded

    def test_wedged_worker_fails_first_read_of_warm_epoch(self):
        executor = PersistentProcessExecutor()
        executor.call = functools.partial(
            PersistentProcessExecutor.call, executor, timeout=0.2
        )
        sharded = exact_sum_ensemble(executor)
        try:
            sharded.update_many(list(range(50)))
            warm = [sharded.query_point(key) for key in range(20)]
            sharded.update_many(list(range(50, 60)))
            executor.submit(_stall, [(1.0,), (1.0,)])
            with pytest.raises(RuntimeError, match="worker 0 sent no reply"):
                sharded.query_point(3)
        finally:
            with pytest.raises(RuntimeError, match="sent no reply"):
                sharded.close()
        assert warm and not executor.seeded
