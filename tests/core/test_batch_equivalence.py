"""Differential tests: batch ingestion must be byte-identical to scalar.

Every sketch with an ``update_many`` fast path is driven twice from the
same seed — once through the scalar ``update`` loop, once through the
batch engine (including ragged ``extend`` chunking) — and the complete
internal state is compared.  Streams are sized to cross block, frame, and
queue-rotation boundaries, which is where the batched window-slide
bookkeeping could silently diverge.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    MST,
    RHHH,
    ExactIntervalCounter,
    ExactWindowCounter,
    ExactWindowHHH,
    HMemento,
    Memento,
    SRC_HIERARCHY,
    SpaceSaving,
    WindowBaseline,
    generate_trace,
)
from repro.traffic.synth import BACKBONE, DATACENTER

# A window of 1000 with 32 counters gives block_size 32 and frames of
# 1024 packets; 12k-packet streams therefore cross ~11 frame flushes and
# hundreds of queue rotations.
WINDOW = 1000
COUNTERS = 32
STREAM_LEN = 12_000


def space_saving_state(ss: SpaceSaving):
    """Full structural digest of the stream-summary: the bucket chain (in
    value order, with per-key errors), link consistency, and counters."""
    chain = []
    bucket = ss._head
    prev = None
    while bucket is not None:
        assert bucket.prev is prev, "broken back-link"
        assert bucket.keys, "empty bucket left linked"
        chain.append(
            (bucket.value, sorted((repr(k), e) for k, e in bucket.keys.items()))
        )
        prev = bucket
        bucket = bucket.next
    values = [value for value, _ in chain]
    assert values == sorted(values), "bucket chain out of order"
    return (chain, ss._size, ss._items, sorted(repr(k) for k in ss._index))


def memento_state(m: Memento):
    """Digest of Algorithm 1's entire mutable state."""
    return (
        m._updates,
        m._full_updates,
        m._countdown,
        m._blocks_into_frame,
        dict(m._offsets),
        [list(q) for q in m._queues],
        space_saving_state(m._y),
    )


def scalar_feed(sketch, stream):
    update = sketch.update
    for item in stream:
        update(item)
    return sketch


def batch_feed(sketch, stream, chunks=(1, 7, 64, 1023, 4096)):
    """Feed through update_many with a ragged, boundary-crossing chunking."""
    i = 0
    n = len(stream)
    ci = 0
    while i < n:
        chunk = chunks[ci % len(chunks)]
        sketch.update_many(stream[i : i + chunk])
        i += chunk
        ci += 1
    return sketch


@pytest.fixture(scope="module")
def stream():
    return generate_trace(BACKBONE, STREAM_LEN, seed=3).packets_1d()


@pytest.fixture(scope="module")
def skewed_stream():
    return generate_trace(DATACENTER, STREAM_LEN, seed=19).packets_1d()


class TestSpaceSavingEquivalence:
    @pytest.mark.parametrize("counters", [4, 32, 512])
    def test_update_many_matches_scalar(self, stream, counters):
        a = scalar_feed(SpaceSaving(counters), stream)
        b = batch_feed(SpaceSaving(counters), stream)
        assert space_saving_state(a) == space_saving_state(b)

    def test_extend_matches_scalar(self, skewed_stream):
        a = scalar_feed(SpaceSaving(64), skewed_stream)
        b = SpaceSaving(64)
        b.extend(iter(skewed_stream), chunk_size=999)
        assert space_saving_state(a) == space_saving_state(b)

    def test_empty_batch_is_noop(self):
        ss = SpaceSaving(4)
        ss.update_many([])
        assert ss.processed == 0

    @given(
        items=st.lists(st.integers(0, 9), max_size=200),
        counters=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_small_universe(self, items, counters):
        # tiny universes maximize eviction churn and bucket sharing
        a = SpaceSaving(counters)
        for item in items:
            a.add(item)
        b = SpaceSaving(counters)
        b.update_many(items)
        assert space_saving_state(a) == space_saving_state(b)


class TestMementoEquivalence:
    @pytest.mark.parametrize("tau", [1.0, 0.5, 0.1, 2**-6, 2**-10])
    @pytest.mark.parametrize("sampler", ["table", "geometric", "bernoulli"])
    def test_update_many_matches_scalar(self, stream, tau, sampler):
        a = Memento(WINDOW, counters=COUNTERS, tau=tau, sampler=sampler, seed=11)
        b = Memento(WINDOW, counters=COUNTERS, tau=tau, sampler=sampler, seed=11)
        scalar_feed(a, stream)
        batch_feed(b, stream)
        assert memento_state(a) == memento_state(b)

    def test_extend_ragged_chunks(self, skewed_stream):
        a = Memento(WINDOW, counters=COUNTERS, tau=0.25, seed=5)
        b = Memento(WINDOW, counters=COUNTERS, tau=0.25, seed=5)
        scalar_feed(a, skewed_stream)
        b.extend(iter(skewed_stream), chunk_size=313)
        assert memento_state(a) == memento_state(b)

    def test_single_item_batches(self, stream):
        # chunk size 1 is the degenerate batch: pure overhead, same state
        a = Memento(WINDOW, counters=COUNTERS, tau=0.3, seed=7)
        b = Memento(WINDOW, counters=COUNTERS, tau=0.3, seed=7)
        scalar_feed(a, stream[:3000])
        for item in stream[:3000]:
            b.update_many([item])
        assert memento_state(a) == memento_state(b)

    def test_full_update_many_matches_scalar(self, stream):
        a = Memento(WINDOW, counters=COUNTERS, tau=0.5, seed=2)
        b = Memento(WINDOW, counters=COUNTERS, tau=0.5, seed=2)
        for item in stream[:5000]:
            a.full_update(item)
        b.full_update_many(stream[:5000])
        assert memento_state(a) == memento_state(b)

    def test_ingest_samples_matches_scalar(self, stream):
        a = Memento(WINDOW, counters=COUNTERS, tau=0.5, seed=2)
        b = Memento(WINDOW, counters=COUNTERS, tau=0.5, seed=2)
        for item in stream[:5000]:
            a.ingest_sample(item)
        b.ingest_samples(stream[:5000])
        assert memento_state(a) == memento_state(b)

    def test_queries_identical_after_batch(self, stream):
        a = Memento(WINDOW, counters=COUNTERS, tau=0.1, seed=13)
        b = Memento(WINDOW, counters=COUNTERS, tau=0.1, seed=13)
        scalar_feed(a, stream)
        batch_feed(b, stream)
        for key in set(stream[:200]):
            assert a.query(key) == b.query(key)
            assert a.query_point(key) == b.query_point(key)
            assert a.query_lower(key) == b.query_lower(key)
        assert a.heavy_hitters(0.01) == b.heavy_hitters(0.01)


class TestHierarchicalEquivalence:
    def test_mst(self, stream):
        a = scalar_feed(MST(SRC_HIERARCHY, counters=64), stream)
        b = batch_feed(MST(SRC_HIERARCHY, counters=64), stream)
        assert a.packets == b.packets
        for x, y in zip(a._instances, b._instances):
            assert space_saving_state(x) == space_saving_state(y)

    def test_window_baseline(self, stream):
        a = WindowBaseline(SRC_HIERARCHY, window=2000, counters=COUNTERS)
        b = WindowBaseline(SRC_HIERARCHY, window=2000, counters=COUNTERS)
        scalar_feed(a, stream[:8000])
        batch_feed(b, stream[:8000])
        assert a.packets == b.packets
        for x, y in zip(a._instances, b._instances):
            assert memento_state(x) == memento_state(y)

    @pytest.mark.parametrize("sampling_ratio", [None, 10.0])
    def test_rhhh(self, stream, sampling_ratio):
        a = RHHH(SRC_HIERARCHY, counters=64, sampling_ratio=sampling_ratio, seed=4)
        b = RHHH(SRC_HIERARCHY, counters=64, sampling_ratio=sampling_ratio, seed=4)
        scalar_feed(a, stream)
        batch_feed(b, stream)
        assert (a.packets, a.sampled) == (b.packets, b.sampled)
        for x, y in zip(a._instances, b._instances):
            assert space_saving_state(x) == space_saving_state(y)

    @pytest.mark.parametrize("tau", [1.0, 0.3, 0.05])
    def test_hmemento(self, stream, tau):
        a = HMemento(
            window=3000, hierarchy=SRC_HIERARCHY, counters=160, tau=tau, seed=6
        )
        b = HMemento(
            window=3000, hierarchy=SRC_HIERARCHY, counters=160, tau=tau, seed=6
        )
        scalar_feed(a, stream)
        batch_feed(b, stream)
        assert a.updates == b.updates
        assert a._pattern_pos == b._pattern_pos
        assert memento_state(a._memento) == memento_state(b._memento)

    def test_hmemento_ingest_samples(self, stream):
        a = HMemento(
            window=3000, hierarchy=SRC_HIERARCHY, counters=160, tau=0.25, seed=6
        )
        b = HMemento(
            window=3000, hierarchy=SRC_HIERARCHY, counters=160, tau=0.25, seed=6
        )
        for item in stream[:4000]:
            a.ingest_sample(item)
        b.ingest_samples(stream[:4000])
        assert a.updates == b.updates
        assert memento_state(a._memento) == memento_state(b._memento)


class TestExactEquivalence:
    def test_window_counter(self, stream):
        a = scalar_feed(ExactWindowCounter(WINDOW), stream)
        b = batch_feed(ExactWindowCounter(WINDOW), stream)
        assert (a._counts, a._ring, a._pos, a._total) == (
            b._counts,
            b._ring,
            b._pos,
            b._total,
        )

    def test_interval_counter(self, stream):
        a = scalar_feed(ExactIntervalCounter(777), stream)
        b = ExactIntervalCounter(777)
        b.update_many(stream[:5])
        b.update_many(stream[5:])
        assert (a._counts, a._last, a._in_interval, a._intervals) == (
            b._counts,
            b._last,
            b._in_interval,
            b._intervals,
        )

    def test_window_hhh(self, stream):
        a = ExactWindowHHH(SRC_HIERARCHY, 1500)
        b = ExactWindowHHH(SRC_HIERARCHY, 1500)
        scalar_feed(a, stream[:6000])
        b.update_many(stream[:6000])
        for x, y in zip(a._counters, b._counters):
            assert (x._counts, x._pos, x._total) == (y._counts, y._pos, y._total)


class TestThreeGenerationEquivalence:
    """Three feeds — the scalar ``update`` loop (the reference), the
    vectorized ``update_many`` over the ragged 1/7/64/1023/4096 chunk
    schedule, and one whole-stream ``update_many`` — must all land in
    byte-identical state under a fixed seed."""

    def whole_feed(self, sketch, stream):
        sketch.update_many(stream)
        return sketch

    @pytest.mark.parametrize("tau", [0.5, 0.1, 2**-8])
    def test_memento(self, stream, tau):
        a = Memento(WINDOW, counters=COUNTERS, tau=tau, seed=11)
        b = Memento(WINDOW, counters=COUNTERS, tau=tau, seed=11)
        c = Memento(WINDOW, counters=COUNTERS, tau=tau, seed=11)
        scalar_feed(a, stream)
        batch_feed(b, stream)
        self.whole_feed(c, stream)
        assert memento_state(a) == memento_state(b) == memento_state(c)

    def test_hmemento(self, stream):
        a = HMemento(window=3000, hierarchy=SRC_HIERARCHY, counters=160,
                     tau=0.3, seed=6)
        b = HMemento(window=3000, hierarchy=SRC_HIERARCHY, counters=160,
                     tau=0.3, seed=6)
        c = HMemento(window=3000, hierarchy=SRC_HIERARCHY, counters=160,
                     tau=0.3, seed=6)
        scalar_feed(a, stream)
        batch_feed(b, stream)
        self.whole_feed(c, stream)
        assert a.updates == b.updates == c.updates
        assert (
            memento_state(a._memento)
            == memento_state(b._memento)
            == memento_state(c._memento)
        )

    def test_rhhh(self, stream):
        a = RHHH(SRC_HIERARCHY, counters=64, seed=4)
        b = RHHH(SRC_HIERARCHY, counters=64, seed=4)
        c = RHHH(SRC_HIERARCHY, counters=64, seed=4)
        scalar_feed(a, stream)
        batch_feed(b, stream)
        self.whole_feed(c, stream)
        assert (a.packets, a.sampled) == (b.packets, b.sampled)
        assert (a.packets, a.sampled) == (c.packets, c.sampled)
        for x, y, z in zip(a._instances, b._instances, c._instances):
            assert (
                space_saving_state(x)
                == space_saving_state(y)
                == space_saving_state(z)
            )


class TestPlanFedEquivalence:
    """Kernel-plan feeding must equal the scalar replay of the same plan."""

    def test_memento_sampled_plan_matches_scalar_replay(self, stream):
        from repro.core.kernel import make_plan
        import numpy as np

        rng = np.random.default_rng(7)
        a = Memento(WINDOW, counters=COUNTERS, tau=0.4, seed=3)
        b = Memento(WINDOW, counters=COUNTERS, tau=0.4, seed=3)
        offset = 0
        for chunk_len in (900, 1, 4096, 2500, 37):
            chunk = stream[offset : offset + chunk_len]
            offset += chunk_len
            decisions = rng.random(len(chunk)) < 0.3
            plan = make_plan(chunk, decisions)
            a.ingest_plan(plan, sampled=True)
            # scalar replay of the identical plan
            for keep, item in zip(decisions.tolist(), chunk):
                if keep:
                    b.ingest_sample(item)
                else:
                    b.ingest_gap(1)
        assert memento_state(a) == memento_state(b)

    def test_memento_unsampled_plan_matches_owned_feed(self, stream):
        from repro.core.kernel import plan_from_positions
        import numpy as np

        # sampled=False: selected items flip their own coins (sharding)
        a = Memento(WINDOW, counters=COUNTERS, tau=0.5, seed=9)
        b = Memento(WINDOW, counters=COUNTERS, tau=0.5, seed=9)
        chunk = stream[:4000]
        positions = np.arange(0, 4000, 3, dtype=np.int64)
        owned = [chunk[i] for i in positions.tolist()]
        a.ingest_plan(plan_from_positions(owned, positions, 4000))
        prev = -1
        for pos, item in zip(positions.tolist(), owned):
            if pos - prev - 1:
                b.ingest_gap(pos - prev - 1)
            b.update_many([item])
            prev = pos
        tail = 4000 - 1 - prev
        if tail:
            b.ingest_gap(tail)
        assert memento_state(a) == memento_state(b)

    def test_space_saving_dense_plan_matches_units(self, skewed_stream):
        from repro.core.kernel import dense_plan

        a = SpaceSaving(64)
        b = SpaceSaving(64)
        # chunk-sorted feed maximizes adjacent duplicates, exercising the
        # count-weighted run path
        for start in range(0, 8000, 1000):
            chunk = sorted(skewed_stream[start : start + 1000])
            a.update_many(chunk)
            b.ingest_plan(dense_plan(chunk))
        assert space_saving_state(a) == space_saving_state(b)

    @given(
        items=st.lists(st.integers(0, 6), max_size=200),
        counters=st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_runs_equal_units(self, items, counters):
        from repro.core.kernel import collapse_runs

        a = SpaceSaving(counters)
        for item in items:
            a.add(item)
        b = SpaceSaving(counters)
        b.update_runs(collapse_runs(items))
        assert space_saving_state(a) == space_saving_state(b)


class TestPickleRoundTrip:
    """Sketches must survive pickling with byte-identical state — the
    contract the process/persistent shard executors rely on — without
    recursion limits, even at realistic counter budgets."""

    def test_space_saving_deep_chain(self, stream):
        import pickle

        ss = SpaceSaving(512)
        ss.update_many(stream)
        clone = pickle.loads(pickle.dumps(ss))
        assert space_saving_state(clone) == space_saving_state(ss)
        # both keep evolving identically
        ss.update_many(stream[:500])
        clone.update_many(stream[:500])
        assert space_saving_state(clone) == space_saving_state(ss)

    def test_memento_round_trip(self, stream):
        import pickle

        m = Memento(WINDOW, counters=512, tau=0.3, seed=2)
        m.update_many(stream)
        clone = pickle.loads(pickle.dumps(m))
        assert memento_state(clone) == memento_state(m)
        m.update_many(stream[:500])
        clone.update_many(stream[:500])
        assert memento_state(clone) == memento_state(m)


class TestCustomSamplerObjects:
    """Batch paths must honour the documented sampler contract: a plain
    object with only ``should_sample()`` (no ``sample_block``)."""

    class MinimalSampler:
        """Deterministic every-3rd-packet sampler without sample_block."""

        def __init__(self):
            self.calls = 0

        def should_sample(self) -> bool:
            self.calls += 1
            return self.calls % 3 == 0

    def test_memento_update_many_falls_back_to_scalar_draws(self, stream):
        a = Memento(WINDOW, counters=COUNTERS, sampler=self.MinimalSampler())
        b = Memento(WINDOW, counters=COUNTERS, sampler=self.MinimalSampler())
        scalar_feed(a, stream[:4000])
        batch_feed(b, stream[:4000])
        assert memento_state(a) == memento_state(b)

    def test_tau1_with_refusing_sampler_still_consults_it(self, stream):
        # constructor default tau=1.0 plus a sampler that says "no":
        # update_many must not bypass the sampler via the WCSS fast path
        from repro import FixedSampler

        refuser = FixedSampler([False, True] * 4000, default=False)
        a = Memento(WINDOW, counters=COUNTERS, sampler=refuser)
        refuser_b = FixedSampler([False, True] * 4000, default=False)
        b = Memento(WINDOW, counters=COUNTERS, sampler=refuser_b)
        scalar_feed(a, stream[:4000])
        batch_feed(b, stream[:4000])
        assert a.full_updates == 2000
        assert memento_state(a) == memento_state(b)

    def test_hmemento_update_many_with_minimal_sampler(self, stream):
        a = HMemento(
            window=3000,
            hierarchy=SRC_HIERARCHY,
            counters=160,
            sampler=self.MinimalSampler(),
            seed=6,
        )
        b = HMemento(
            window=3000,
            hierarchy=SRC_HIERARCHY,
            counters=160,
            sampler=self.MinimalSampler(),
            seed=6,
        )
        scalar_feed(a, stream[:4000])
        batch_feed(b, stream[:4000])
        assert memento_state(a._memento) == memento_state(b._memento)

    def test_tau1_with_scripted_skips_default_true(self, stream):
        # FixedSampler claims tau=1.0 when default=True, but its scripted
        # False decisions must still be honoured by the batch path
        from repro import FixedSampler

        a = Memento(
            WINDOW, counters=COUNTERS,
            sampler=FixedSampler([False] * 100, default=True),
        )
        b = Memento(
            WINDOW, counters=COUNTERS,
            sampler=FixedSampler([False] * 100, default=True),
        )
        scalar_feed(a, stream[:4000])
        batch_feed(b, stream[:4000])
        assert a.full_updates == 4000 - 100
        assert memento_state(a) == memento_state(b)


class TestIngestPlanOwnedEquivalence:
    """The fused owned-packet consumer must equal the generic plan path.

    ``ingest_plan_owned`` is what the sharding columnar (shm) lane calls
    on each resident shard; its state must be byte-identical to feeding
    the same unsampled plan through ``ingest_plan`` — otherwise results
    would depend on the transport.
    """

    def scattered_plans(self, stream, seed=13):
        from repro.core.kernel import plan_from_positions
        import numpy as np

        rng = np.random.default_rng(seed)
        offset = 0
        for chunk_len in (700, 1, 3000, 64, 2048, 17):
            chunk = stream[offset : offset + chunk_len]
            offset += chunk_len
            keep = rng.random(len(chunk)) < 0.4
            positions = np.flatnonzero(keep).astype(np.int64)
            owned = [chunk[i] for i in positions.tolist()]
            yield plan_from_positions(owned, positions, len(chunk))

    @pytest.mark.parametrize("tau", [0.3, 1.0])
    def test_memento_fused_equals_generic(self, stream, tau):
        a = Memento(WINDOW, counters=COUNTERS, tau=tau, seed=5)
        b = Memento(WINDOW, counters=COUNTERS, tau=tau, seed=5)
        for plan in self.scattered_plans(stream):
            a.ingest_plan_owned(plan)
        for plan in self.scattered_plans(stream):
            b.ingest_plan(plan)
        assert a.updates == b.updates
        assert a.full_updates == b.full_updates
        assert memento_state(a) == memento_state(b)

    def test_memento_dense_plan(self, stream):
        from repro.core.kernel import dense_plan

        a = Memento(WINDOW, counters=COUNTERS, tau=0.25, seed=8)
        b = Memento(WINDOW, counters=COUNTERS, tau=0.25, seed=8)
        chunk = stream[:3000]
        a.ingest_plan_owned(dense_plan(chunk))
        b.ingest_plan(dense_plan(chunk))
        assert memento_state(a) == memento_state(b)

    def test_memento_pure_gap_plan(self, stream):
        from repro.core.kernel import plan_from_positions
        import numpy as np

        a = Memento(WINDOW, counters=COUNTERS, tau=0.25, seed=8)
        b = Memento(WINDOW, counters=COUNTERS, tau=0.25, seed=8)
        empty = plan_from_positions(
            [], np.empty(0, dtype=np.int64), 500
        )
        a.ingest_plan_owned(empty)
        b.ingest_plan(empty)
        assert memento_state(a) == memento_state(b)

    def test_base_class_default_delegates(self, stream):
        # sketches without a fused override (the exact oracle) fall back
        # to the generic consumer on the BatchIngest base class
        from repro.core.kernel import plan_from_positions
        import numpy as np

        a = ExactWindowCounter(WINDOW)
        b = ExactWindowCounter(WINDOW)
        positions = np.arange(0, 2000, 7, dtype=np.int64)
        owned = [stream[i] for i in positions.tolist()]
        plan = plan_from_positions(owned, positions, 2000)
        a.ingest_plan_owned(plan)
        b.ingest_plan(plan)
        assert sorted(a.entries()) == sorted(b.entries())
