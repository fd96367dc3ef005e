"""Memento — sliding-window heavy hitters with sampled full updates.

This module implements Algorithm 1 of the paper.  The key idea (Section 4.1)
is to decouple the two costs of a sliding-window update:

* a **Full update** inserts the arriving item into the measurement structure
  *and* slides the window — expensive;
* a **Window update** only slides the window (forgetting outdated data) —
  cheap.

Memento performs a Full update with probability ``tau`` and a Window update
otherwise, then compensates at query time by scaling estimates by ``1/tau``.
Unlike naive sub-sampling, the window always spans exactly ``W`` *stream*
packets (most of which are simply missing from the structure), so the
reference window never varies — avoiding the ±Θ(√(W(1−τ))/τ) error the paper
attributes to uniform sampling.

With ``tau = 1`` Memento performs a Full update for every packet and becomes
WCSS (Ben Basat et al., INFOCOM 2016), which is exactly how the paper's own
evaluation obtains its WCSS baseline; :class:`WCSS` is provided as that
configuration.

Structure (Algorithm 1):

* the stream is split into frames of ``W`` packets, each divided into
  ``k = ceil(4/epsilon)`` blocks;
* a Space Saving instance ``y`` (k counters) counts within the current frame
  and is flushed at frame boundaries;
* each time an item's in-frame count crosses a multiple of the block size,
  an *overflow* is appended to the newest of ``k + 1`` block queues, and the
  overflow table ``B`` is incremented;
* every update drains at most one item from the oldest block queue,
  de-amortizing expiry so the worst-case update time is O(1).

A query combines the overflow count with the in-frame remainder::

    estimate(x) = (1/tau) * (blk * (B[x] + 2) + (y.query(x) mod blk))

where ``blk = W/k`` and the ``+2`` blocks keep the error one-sided
(an overestimate), matching MST for comparability (Section 4.1).
"""

from __future__ import annotations

import math
from collections import deque
from itertools import compress
from typing import Deque, Dict, Hashable, Iterator, List, Optional, Sequence

import numpy as np

from .api import Entry, WindowedEntries
from .batching import BatchIngest, as_batch
from .kernel import IngestPlan, make_plan

from .sampling import (
    BernoulliSampler,
    GeometricSampler,
    TableSampler,
    draw_decision_array,
    make_sampler,
)
from .space_saving import SpaceSaving, _Bucket

__all__ = ["Memento", "WCSS"]

#: samplers whose ``should_sample`` is always True (no randomness drawn)
#: once their ``tau`` reaches 1 — the only safe targets for the WCSS
#: batch shortcut that skips decision drawing entirely
_ALWAYS_SAMPLE_AT_TAU1 = (TableSampler, GeometricSampler, BernoulliSampler)


class Memento(BatchIngest):
    """Sliding-window heavy-hitter sketch (Algorithm 1 of the paper).

    Parameters
    ----------
    window:
        The window size ``W`` in packets.  Internally rounded up to
        ``effective_window = k * ceil(W / k)`` so blocks tile the frame
        exactly; the constructor records both.
    counters:
        Number of Space Saving counters ``k`` (the paper's ``⌈4/ε⌉``).
        Exactly one of ``counters`` / ``epsilon`` must be given.
    epsilon:
        Algorithm error ``ε_a``; translated to ``k = ceil(4 / epsilon)``.
    tau:
        Full-update probability.  ``tau = 1`` degenerates to WCSS.
    sampler:
        ``"table"`` (paper's random-number table, default), ``"geometric"``,
        ``"bernoulli"``, or a ready object with ``should_sample()``.
    seed:
        Seed for the sampler (ignored when a sampler object is passed).

    Examples
    --------
    >>> sketch = Memento(window=1000, counters=64, tau=1.0)
    >>> for packet in [1, 2, 1, 3, 1]:
    ...     sketch.update(packet)
    >>> sketch.query(1) >= 3
    True
    """

    def __init__(
        self,
        window: int,
        counters: Optional[int] = None,
        epsilon: Optional[float] = None,
        tau: float = 1.0,
        sampler: object = "table",
        seed: Optional[int] = None,
        scale_overflow_quantum: bool = True,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if (counters is None) == (epsilon is None):
            raise ValueError("exactly one of counters / epsilon must be given")
        if counters is None:
            if not 0.0 < epsilon < 1.0:
                raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
            counters = math.ceil(4.0 / epsilon)
        if counters <= 0:
            raise ValueError(f"counters must be positive, got {counters}")
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {tau}")

        self.window = int(window)
        self.k = int(counters)
        self.epsilon = 4.0 / self.k
        self.tau = float(tau)
        self._inv_tau = 1.0 / self.tau

        # Blocks tile the frame exactly; the window is rounded up if needed.
        self.block_size = max(1, math.ceil(self.window / self.k))
        self.effective_window = self.block_size * self.k
        # Overflow quantum in *sampled-count* units.  Algorithm 1 writes
        # ``W/k`` for both the stream-tick block length and the overflow
        # threshold, which coincide only at tau = 1: the sketch counts
        # sampled packets, of which a block contains ~tau·W/k.  Scaling the
        # quantum keeps one overflow worth ~W/k stream packets after the
        # 1/tau correction for every tau, so the per-block error stays
        # O(W/k) as Theorem 5.2 requires.  ``scale_overflow_quantum=False``
        # keeps the pseudocode's literal (unscaled) threshold — provided
        # for the ablation bench that quantifies this deviation.
        if scale_overflow_quantum:
            self.sample_block = max(1, round(self.block_size * self.tau))
        else:
            self.sample_block = self.block_size

        if isinstance(sampler, str):
            # salt the seed so the sampler's uniform stream never replays
            # the stream that generated the input trace (a same-seed trace
            # generator would otherwise correlate "sampled" with "popular")
            sampler_seed = None if seed is None else seed + 0x3C6EF372
            self._sampler = make_sampler(self.tau, method=sampler, seed=sampler_seed)
        else:
            self._sampler = sampler
        self._should_sample = self._sampler.should_sample

        self._y = SpaceSaving(self.k)
        self._offsets: Dict[Hashable, int] = {}  # overflow table B
        # k + 1 block queues; index 0 = oldest (being drained), -1 = newest
        self._queues: Deque[Deque[Hashable]] = deque(
            deque() for _ in range(self.k + 1)
        )
        self._drain: Deque[Hashable] = self._queues[0]
        self._newest: Deque[Hashable] = self._queues[-1]
        # packets remaining in the current block / blocks into the frame —
        # countdown form of Algorithm 1's ``M mod W/k`` and ``M mod W``
        self._countdown = self.block_size
        self._blocks_into_frame = 0
        self._updates = 0  # total stream packets seen (full + window)
        self._full_updates = 0

    # ------------------------------------------------------------------
    # update path (Algorithm 1 lines 2-21)
    # ------------------------------------------------------------------
    def window_update(self) -> None:
        """Slide the window by one packet without inserting anything."""
        self._updates += 1
        countdown = self._countdown - 1
        if countdown == 0:
            # new block: retire the oldest queue, open a fresh one
            blocks = self._blocks_into_frame + 1
            if blocks == self.k:
                blocks = 0
                self._y.flush()  # new frame
            self._blocks_into_frame = blocks
            queues = self._queues
            queues.popleft()
            fresh: Deque[Hashable] = deque()
            queues.append(fresh)
            self._newest = fresh
            self._drain = queues[0]
            countdown = self.block_size
        self._countdown = countdown
        drain = self._drain
        if drain:
            # de-amortized expiry: drain one overflow from the oldest block
            old_id = drain.popleft()
            offsets = self._offsets
            remaining = offsets[old_id] - 1
            if remaining:
                offsets[old_id] = remaining
            else:
                del offsets[old_id]

    def full_update(self, item: Hashable) -> None:
        """Slide the window *and* insert ``item`` (Algorithm 1 lines 12-18)."""
        self.window_update()
        self._full_updates += 1
        y = self._y
        y.add(item)
        if y.query(item) % self.sample_block == 0:  # overflow
            self._newest.append(item)
            offsets = self._offsets
            offsets[item] = offsets.get(item, 0) + 1

    def full_update_many(self, items: Sequence[Hashable]) -> None:
        """Perform one Full update per item through a hoisted block loop.

        Equivalent to calling :meth:`full_update` once per item, but the
        window-slide bookkeeping runs on locals (the ``ingest_gap``
        countdown trick generalized to the full update path): the
        countdown, block index, and queue handles only touch ``self`` at
        block boundaries and once at the end of the batch.
        """
        items = as_batch(items)
        y = self._y
        y_add_query = y.add_query
        y_flush = y.flush
        offsets = self._offsets
        offsets_get = offsets.get
        queues = self._queues
        quantum = self.sample_block
        block_size = self.block_size
        k = self.k
        countdown = self._countdown
        blocks = self._blocks_into_frame
        newest = self._newest
        drain = self._drain
        for item in items:
            countdown -= 1
            if countdown == 0:
                blocks += 1
                if blocks == k:
                    blocks = 0
                    y_flush()
                queues.popleft()
                newest = deque()
                queues.append(newest)
                drain = queues[0]
                countdown = block_size
            if drain:
                old_id = drain.popleft()
                remaining = offsets[old_id] - 1
                if remaining:
                    offsets[old_id] = remaining
                else:
                    del offsets[old_id]
            if y_add_query(item) % quantum == 0:  # overflow
                newest.append(item)
                offsets[item] = offsets_get(item, 0) + 1
        self._countdown = countdown
        self._blocks_into_frame = blocks
        self._newest = newest
        self._drain = drain
        self._updates += len(items)
        self._full_updates += len(items)

    def update(self, item: Hashable) -> None:
        """Process one packet: Full update w.p. ``tau``, else Window update."""
        if self._should_sample():
            self.full_update(item)
        else:
            self.window_update()

    def update_many(self, items: Sequence[Hashable]) -> None:
        """Process a batch of packets through the columnar fast path.

        State after ``update_many(items)`` is identical to calling
        :meth:`update` once per item under the same seed: the sampler's
        decisions come as a numpy column (``decision_array``, which
        consumes the RNG exactly as the scalar calls would), the kernel
        compiles them into an ingest plan (``np.flatnonzero`` positions,
        gap run-lengths), and :meth:`ingest_plan` replays the plan with
        gaps collapsing into counter arithmetic and sampled packets
        taking the inlined Full-update path.  No per-packet Python
        objects are created for the unsampled majority.
        """
        items = as_batch(items)
        n = len(items)
        if n == 0:
            return
        sampler = self._sampler
        if (
            self.tau >= 1.0
            and isinstance(sampler, _ALWAYS_SAMPLE_AT_TAU1)
            and sampler.tau >= 1.0
        ):
            # genuine WCSS: the random builtin samplers at tau >= 1 return
            # True without consuming randomness, so the decisions can be
            # skipped outright.  Any other sampler (FixedSampler scripting
            # skips, custom objects) is honoured via the general path.
            self.full_update_many(items)
            return
        decisions = draw_decision_array(sampler, n)
        self.ingest_plan(make_plan(items, decisions), sampled=True)

    def ingest_sample(self, item: Hashable) -> None:
        """Feed an externally-sampled packet (network-wide controller path).

        D-Memento's measurement points sample at rate ``tau`` before
        reporting, so the controller applies a Full update without a second
        coin flip; construct the sketch with the transport's ``tau`` so the
        query-time ``1/tau`` scaling matches.
        """
        self.full_update(item)

    def ingest_samples(self, items: Sequence[Hashable]) -> None:
        """Batch form of :meth:`ingest_sample`: one Full update per item."""
        self.full_update_many(items)

    def ingest_plan(self, plan: IngestPlan, *, sampled: bool = False) -> None:
        """Consume a kernel plan through the span-fused columnar loop.

        With ``sampled=True`` (the decision-column and controller feeds)
        every selected item receives a Full update.  The loop is
        organized around **block spans** rather than packets: rotation
        offsets are computed arithmetically from the countdown, samples
        are split across spans with one ``np.searchsorted``, and each
        span performs its boundary bookkeeping once, drains its expiries
        in one bulk run (the drain queue never grows inside a block, so
        a span of ``u`` updates pops exactly ``min(u, len(drain))``
        entries — commuting the pops ahead of the span's insertions
        leaves identical end-of-span state), and then applies the span's
        sampled packets through a tight loop whose body is only the
        fused Space Saving increment plus the overflow check.  The same
        straight-line increment as ``SpaceSaving.add_query`` (which is
        contractually in lockstep with ``add`` — the differential tests
        compare all paths) is inlined so the hot path has no per-sample
        calls at all.

        With ``sampled=False`` the generic
        :meth:`repro.core.batching.BatchIngest.ingest_plan` applies the
        plan with per-item coin flips (the sharding layer's owned-packet
        feed).
        """
        if not sampled:
            super().ingest_plan(plan)
            return
        items = plan.items
        if plan.dense:
            if items:
                self.full_update_many(items)
            return
        if not items:
            if plan.n:
                self.ingest_gap(plan.n)
            return
        positions = plan.positions
        last = int(positions[-1]) + 1  # stream packets processed here
        y = self._y
        y_flush = y.flush
        y_index = y._index
        y_index_get = y_index.get
        y_counters = y.counters
        y_insert = y._insert
        pending_y_items = 0
        offsets = self._offsets
        offsets_get = offsets.get
        queues = self._queues
        quantum = self.sample_block
        block_size = self.block_size
        k = self.k
        blocks = self._blocks_into_frame
        newest = self._newest
        drain = self._drain
        # rotation offsets are fixed by the countdown: the update that
        # takes the countdown to zero rotates, then every block_size
        first_rot = self._countdown - 1
        if first_rot >= last:
            nrot = 0
            split = [len(items)]
        else:
            nrot = (last - 1 - first_rot) // block_size + 1
            split = np.searchsorted(
                positions,
                first_rot + block_size * np.arange(nrot + 1, dtype=np.int64),
            ).tolist()
        sample_lo = 0
        span_end = 0
        for i in range(nrot + 1):
            if i:
                # span starts with the rotation update (which pops from
                # the freshly exposed drain queue)
                blocks += 1
                if blocks == k:
                    blocks = 0
                    y_flush()
                    pending_y_items = 0
                queues.popleft()
                newest = deque()
                queues.append(newest)
                drain = queues[0]
                span = block_size
                tail_span = last - span_end
                if span > tail_span:
                    span = tail_span
                span_end += span
            elif nrot:
                span = first_rot
                span_end = span
            else:
                span = last
                span_end = last
            if drain and span:
                # bulk de-amortized expiry: one pop per update, capped
                # by what the queue holds
                pops = span if span < len(drain) else len(drain)
                popleft = drain.popleft
                for _ in range(pops):
                    old_id = popleft()
                    remaining = offsets[old_id] - 1
                    if remaining:
                        offsets[old_id] = remaining
                    else:
                        del offsets[old_id]
            hi = split[i]
            pending_y_items += hi - sample_lo
            for item in items[sample_lo:hi]:
                # fused SpaceSaving.add_query (stream-summary unit
                # increment): successor-absorb, in-place bump, splice,
                # or min-eviction
                bucket = y_index_get(item)
                if bucket is not None:
                    keys = bucket.keys
                    value = bucket.value + 1
                    node = bucket.next
                    if node is not None and node.value == value:
                        node.keys[item] = keys.pop(item)
                        y_index[item] = node
                        if not keys:
                            prev_b = bucket.prev
                            if prev_b is not None:
                                prev_b.next = node
                            else:
                                y._head = node
                            node.prev = prev_b
                    elif len(keys) == 1:
                        bucket.value = value
                    else:
                        fresh = _Bucket(value)
                        fresh.keys[item] = keys.pop(item)
                        fresh.prev, fresh.next = bucket, node
                        bucket.next = fresh
                        if node is not None:
                            node.prev = fresh
                        y_index[item] = fresh
                elif y._size < y_counters:
                    y_insert(item, 1, 0, None)
                    y._size += 1
                    value = 1
                else:
                    head = y._head
                    keys = head.keys
                    victim = next(iter(keys))
                    min_value = head.value
                    value = min_value + 1
                    node = head.next
                    del keys[victim]
                    del y_index[victim]
                    if node is not None and node.value == value:
                        node.keys[item] = min_value
                        y_index[item] = node
                        if not keys:
                            y._head = node
                            node.prev = None
                    elif not keys:
                        keys[item] = min_value
                        head.value = value
                        y_index[item] = head
                    else:
                        fresh = _Bucket(value)
                        fresh.keys[item] = min_value
                        fresh.prev, fresh.next = head, node
                        head.next = fresh
                        if node is not None:
                            node.prev = fresh
                        y_index[item] = fresh
                if value % quantum == 0:  # overflow
                    newest.append(item)
                    offsets[item] = offsets_get(item, 0) + 1
            sample_lo = hi
        y._items += pending_y_items
        if nrot:
            # countdown resets to block_size on the rotation update and
            # decrements once per update after it
            self._countdown = block_size - (
                last - (first_rot + (nrot - 1) * block_size) - 1
            )
        else:
            self._countdown -= last
        self._blocks_into_frame = blocks
        self._newest = newest
        self._drain = drain
        self._updates += last
        self._full_updates += len(items)
        tail = plan.tail_gap
        if tail:
            self.ingest_gap(tail)

    def ingest_plan_owned(self, plan: IngestPlan) -> None:
        """Fused owned-packet plan consumer (the sharding layer's feed).

        Equivalent to the generic
        :meth:`repro.core.batching.BatchIngest.ingest_plan_owned` — each
        owned item still flips its own coin — but the whole decision
        column is drawn in one ``decision_array`` call instead of one
        per contiguous segment.  That is RNG-identical (``decision_array``
        consumes the sampler exactly as sequential scalar draws would —
        the PR-1 invariant) and turns a scattered plan, which the
        generic replay decays into thousands of tiny ``update_many``
        segments, into a single sampled plan for the span-fused
        :meth:`ingest_plan` loop: unsampled owned packets simply widen
        the gaps between the surviving positions, exactly as a scalar
        Window update would.
        """
        items = plan.items
        sampler = self._sampler
        if (
            self.tau >= 1.0
            and isinstance(sampler, _ALWAYS_SAMPLE_AT_TAU1)
            and sampler.tau >= 1.0
        ):
            # WCSS: every owned packet is a Full update, no randomness
            self.ingest_plan(plan, sampled=True)
            return
        if not items:
            self.ingest_plan(plan, sampled=True)  # pure window advance
            return
        if plan.dense:
            self.update_many(items)
            return
        decisions = draw_decision_array(sampler, len(items))
        keep = np.asarray(decisions, dtype=bool)
        if keep.all():
            self.ingest_plan(plan, sampled=True)
            return
        selected_positions = plan.positions[keep]
        if isinstance(items, np.ndarray):
            selected_items = items[keep].tolist()
        else:
            selected_items = list(compress(items, keep.tolist()))
        self.ingest_plan(
            IngestPlan(plan.n, selected_positions, selected_items),
            sampled=True,
        )

    def ingest_gap(self, count: int) -> None:
        """Advance the window for ``count`` unsampled (unreported) packets.

        Semantically identical to ``count`` Window updates, but batches the
        stretches where no expiry work is pending (empty drain queue, no
        block boundary) into O(1) counter arithmetic, and drains pending
        overflow expiries in bulk between boundaries — the controller path
        advances the window for every unreported packet, so this is its
        hot loop.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        offsets = self._offsets
        while count > 0:
            drain = self._drain
            if drain:
                # bulk-drain up to the next block boundary: each of these
                # steps expires exactly one overflow and cannot rotate
                steps = self._countdown - 1
                if steps > count:
                    steps = count
                if steps > len(drain):
                    steps = len(drain)
                if steps > 0:
                    popleft = drain.popleft
                    for _ in range(steps):
                        old_id = popleft()
                        remaining = offsets[old_id] - 1
                        if remaining:
                            offsets[old_id] = remaining
                        else:
                            del offsets[old_id]
                    self._countdown -= steps
                    self._updates += steps
                    count -= steps
                else:  # countdown == 1: the boundary step rotates queues
                    self.window_update()
                    count -= 1
                continue
            remaining = self._countdown
            if count < remaining:
                self._countdown = remaining - count
                self._updates += count
                return
            # consume the rest of this block; the final update performs the
            # boundary bookkeeping (and drains from the rotated queue)
            self._updates += remaining - 1
            count -= remaining
            self._countdown = 1
            self.window_update()

    # ------------------------------------------------------------------
    # query path (Algorithm 1 lines 22-25)
    # ------------------------------------------------------------------
    def query_raw(self, item: Hashable) -> int:
        """Unscaled window estimate of the number of *sampled* occurrences.

        This is the paper's query before the ``1/tau`` scaling: an upper
        bound (in the WCSS sense) that includes the conservative ``+2``
        blocks.  Counts are in sampled units, so the block quantum is
        :attr:`sample_block` (equal to ``block_size`` when ``tau = 1``).
        """
        blk = self.sample_block
        overflows = self._offsets.get(item)
        if overflows is not None:
            return blk * (overflows + 2) + (self._y.query(item) % blk)
        return 2 * blk + self._y.query(item)

    def query(self, item: Hashable) -> float:
        """Estimate of the window frequency ``f_x^W`` (conservative, scaled)."""
        return self._inv_tau * self.query_raw(item)

    def query_point(self, item: Hashable) -> float:
        """Midpoint (bias-removed) estimate of the window frequency.

        :meth:`query` keeps the paper's deliberate ``+2`` block shift, an
        upper bound whose bias grows as ``2·sample_block/tau`` after
        scaling.  Error metrics and threshold detection want the unbiased
        centre of the estimate interval instead, so this subtracts the
        shift before scaling (clamped at zero).
        """
        raw = self.query_raw(item) - 2 * self.sample_block
        if raw < 0:
            raw = 0
        return self._inv_tau * raw

    def query_lower_raw(self, item: Hashable) -> int:
        """Unscaled guaranteed part: ``raw - 4 blocks``, clamped at 0.

        ``query_raw`` overshoots the true sampled count by at most four
        blocks (the +2 shift, the truncated remainder, and the Space Saving
        in-frame error of one block); subtracting that yields a lower bound,
        used by the HHH conditioned-frequency computation (``f̂−``).
        """
        return max(0, self.query_raw(item) - 4 * self.sample_block)

    def query_lower(self, item: Hashable) -> float:
        """Scaled lower bound companion of :meth:`query`."""
        return self._inv_tau * self.query_lower_raw(item)

    def heavy_hitters(self, theta: float) -> Dict[Hashable, float]:
        """Window heavy hitters: flows whose estimate exceeds ``theta * W``.

        Candidates are the flows with an overflow entry (every heavy hitter
        must overflow within the window — Section 4.1) plus the flows
        currently monitored in the in-frame Space Saving instance.
        """
        bar = theta * self.window
        out: Dict[Hashable, float] = {}
        for item in self._offsets:
            est = self.query(item)
            if est > bar:
                out[item] = est
        for item, _ in self._y.items():
            if item not in out:
                est = self.query(item)
                if est > bar:
                    out[item] = est
        return out

    def candidates(self) -> Iterator[Hashable]:
        """All flows the sketch currently knows about (B ∪ y), deduplicated."""
        seen = set(self._offsets)
        yield from self._offsets
        for item, _ in self._y.items():
            if item not in seen:
                yield item

    def entries(self) -> List[Entry]:
        """Mergeable snapshot: ``(key, estimate, guaranteed)`` per candidate.

        Counts are in *raw sampled units* (no ``1/tau`` scaling), matching
        :meth:`query_raw` / :meth:`query_lower_raw`, so summing rows across
        same-``tau`` sketches stays meaningful; the merge layer applies
        the scaling once.  This is the window-sketch counterpart of
        ``SpaceSaving.entries``.
        """
        return [
            (key, self.query_raw(key), self.query_lower_raw(key))
            for key in self.candidates()
        ]

    def windowed_entries(self) -> WindowedEntries:
        """The :meth:`entries` snapshot annotated with window geometry.

        Carries the effective window, the current frame offset, ``tau``,
        and the overflow quantum — everything
        :func:`repro.core.merge.merge_memento` needs to check alignment
        and to propagate the combined error bound.
        """
        return WindowedEntries(
            entries=tuple(self.entries()),
            window=self.effective_window,
            frame_offset=self.frame_position,
            tau=self.tau,
            quantum=self.sample_block,
            nominal_window=self.window,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def updates(self) -> int:
        """Stream packets processed (window + full updates)."""
        return self._updates

    @property
    def full_updates(self) -> int:
        """How many packets received a Full update (≈ ``tau * updates``)."""
        return self._full_updates

    @property
    def frame_position(self) -> int:
        """Current offset within the frame (Algorithm 1's ``M``)."""
        return (
            self._blocks_into_frame * self.block_size
            + (self.block_size - self._countdown)
        ) % self.effective_window

    @property
    def overflow_entries(self) -> int:
        """Number of flows currently holding overflow records."""
        return len(self._offsets)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"{type(self).__name__}(window={self.window}, k={self.k}, "
            f"tau={self.tau}, effective_window={self.effective_window})"
        )


class WCSS(Memento):
    """Window Compact Space Saving — Memento with ``tau = 1``.

    The paper evaluates WCSS as "our Memento implementation without sampling
    (τ = 1)" (Section 6); this class pins that configuration and keeps the
    historical name available to downstream users.
    """

    def __init__(
        self,
        window: int,
        counters: Optional[int] = None,
        epsilon: Optional[float] = None,
    ) -> None:
        super().__init__(window, counters=counters, epsilon=epsilon, tau=1.0)
