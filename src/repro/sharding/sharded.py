"""Sharded sliding-window ingestion over any :class:`SlidingSketch`.

The batch engine (PR 1) made one sketch fast; this layer scales *out*:
a :class:`ShardedSketch` hash-partitions the key space across ``S``
independent shard sketches, feeds each shard through the batch path, and
combines shard state at query time (Section 4.3's mergeability, lifted
to sliding windows).

The central design point is **global-window alignment**.  A windowed
shard (anything satisfying :class:`repro.core.api.WindowedSketch`, i.e.
the Memento family and the exact window oracle) does not simply receive
its own sub-stream: packets owned by *other* shards are applied as
``ingest_gap`` window advances, so every shard's window spans exactly
the last ``W`` packets of the **global** stream.  Gap runs collapse into
O(1) counter arithmetic (the controller-path trick), so per-shard work
stays proportional to its owned traffic plus rare boundary bookkeeping —
this is what makes the partitioning a genuine scale-out rather than ``S``
copies of the full stream.  Interval sketches (Space Saving, MST, RHHH)
have no window to advance and simply receive their owned packets.

Two query disciplines cover the two ways keys relate to routing:

* ``route`` (default) — the aggregation key *is* the routing key, so one
  shard owns all of a key's traffic: point queries go to the owner, and
  heavy-hitter sets are disjoint unions.  Per-shard error is ``nⱼ/m``,
  trivially within the merged ``Σ nᵢ/m`` bound.
* ``sum`` — aggregation keys differ from routing keys (H-Memento routes
  by packet while answering *prefix* queries, and a /8's packets spread
  across shards), so estimates are summed across shards.  Upper bounds
  sum to an upper bound, and heavy-hitter enumeration runs through the
  window-aware merge (:func:`repro.core.merge.merge_windowed_entry_sets`)
  with its summed-quantum error bound.

Shards run in one of two places.  ``executor="serial"`` applies every
shard plan inline in the calling process.  ``executor="persistent"`` (or
a ready :class:`~repro.sharding.executors.PersistentProcessExecutor`)
keeps each shard resident in its own worker process; the shard state
then lives in the workers, and reads go where the state is.  Point reads — ``query``,
``query_lower``, ``query_point`` — flush, then ask the workers through
the executor's ``call``: route mode asks the owning shard's worker, sum
mode asks every worker and adds the answers, and only floats cross the
pipes.  Point-read answers are cached per ingestion version.  When a
write epoch re-asks a key the previous read epoch asked, that worker
call also asks for every other key the previous epoch asked of the same
workers (up to :data:`PREFETCH_KEYS`), so a detection loop that re-reads
the same keys after each batch pays one round trip per epoch in sum mode
and one per owning worker in route mode, not one per key; reads that
never repeat a key stay one round trip each.  Whole-sketch reads (``entries``, ``merged_window``,
``heavy_hitters``, ``output``, ``candidates``, ``shards``,
``state_snapshot``) and ``close`` pull the full shard state back into
the parent once per ingestion epoch (``_sync_shards``) and merge it
there; merged snapshots are cached and invalidated by an ingestion
version counter, so repeated whole-sketch reads between batches merge
once.

``pipeline=...`` enables the **pipelined ingestion front-end**
(:mod:`repro.sharding.pipeline`): writes accumulate in a bounded buffer
as positional runs — items plus the gaps between them — and a
background partitioner thread turns each run into one plan per shard,
overlapping partitioning (and the blocking pipe sends) with the
persistent executor's worker applies.  Every query path drains the
pipeline first (via :meth:`ShardedSketch.flush`), so results stay
identical to synchronous ingestion.
"""

from __future__ import annotations

import hashlib
import math
from itertools import chain
from numbers import Integral, Real
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.api import Entry, SlidingSketch
from ..core.batching import BatchIngest, as_batch
from ..core.kernel import plan_from_positions
from ..core.merge import (
    MergedWindowSketch,
    merge_entry_sets,
    merge_windowed_entry_sets,
)
from .executors import EXECUTORS, PersistentProcessExecutor, _shard_state
from .pipeline import PipelinedDispatcher, Run, WriteBuffer, make_pipeline_config

__all__ = ["ShardedSketch", "shard_index", "ROUTING_ID"]

_MASK64 = (1 << 64) - 1

QUERY_MODES = ("route", "sum")

#: Names the routing function of :func:`shard_index`.  Checkpoints stamp
#: it into their header: shard state partitioned under one routing must
#: not be restored under another, where a key would be asked of a shard
#: that never saw it.
ROUTING_ID = "fmix64+blake2b8/1"

#: Most keys one read epoch remembers per read kind and asked worker,
#: and so the most keys one worker call of the next epoch asks for.
PREFETCH_KEYS = 1024

#: A point read's kind (``names``) and asked worker (route mode: the
#: key's owner; ``None``: every worker, as in sum mode).
_ReadSlot = Tuple[Tuple[str, ...], Optional[int]]


def _mix64(value: int) -> int:
    """Finalizing 64-bit mix (murmur3 fmix64): decorrelates low bits so
    ``% shards`` never keys off structured low-order key bits."""
    value &= _MASK64
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & _MASK64
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & _MASK64
    value ^= value >> 33
    return value


def _canonical_bytes(key: object) -> Optional[bytes]:
    """Type-tagged, seed-free byte encoding of ``key``, or ``None``.

    ``str`` (UTF-8), ``bytes``, integers and tuples of these (nested
    tuples too) encode as a one-byte type tag, a length and the payload,
    so distinct keys never share an encoding and the bytes are the same
    in every process.  Inside a tuple an integral real (``1.0``) encodes
    as the equal int, so tuples that compare equal route alike.
    """
    if type(key) is int:
        value = key
    elif isinstance(key, str):
        payload = key.encode("utf-8", "surrogatepass")
        return b"s" + len(payload).to_bytes(8, "big") + payload
    elif isinstance(key, bytes):
        return b"b" + len(key).to_bytes(8, "big") + key
    elif isinstance(key, tuple):
        parts = [_canonical_bytes(part) for part in key]
        if None in parts:
            return None
        payload = b"".join(parts)
        return b"t" + len(payload).to_bytes(8, "big") + payload
    elif isinstance(key, Integral):
        value = int(key)
    elif isinstance(key, Real):
        try:
            value = int(key)
        except (ValueError, OverflowError):  # nan, inf
            return None
        if value != key:
            return None
    else:
        return None
    payload = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
    return b"i" + len(payload).to_bytes(8, "big") + payload


def shard_index(key: Hashable, shards: int) -> int:
    """Deterministic shard owner of ``key`` among ``shards`` partitions.

    Integers — Python ints and any other :class:`numbers.Integral`, such
    as numpy scalars — are mixed by value (identical to the vectorized
    routing of integer batches).  ``str``, ``bytes`` and tuples of these
    and of integers are hashed with BLAKE2b over a type-tagged encoding
    and then mixed.  Both are the same in every process, whatever its
    ``PYTHONHASHSEED`` (:data:`ROUTING_ID` names this routing).  Any
    other key type goes through ``hash()``, which is stable only within
    one process.
    """
    if isinstance(key, int):
        h = key
    elif isinstance(key, (str, bytes, tuple)):
        encoded = _canonical_bytes(key)
        if encoded is None:
            h = hash(key)
        else:
            digest = hashlib.blake2b(encoded, digest_size=8).digest()
            h = int.from_bytes(digest, "big")
    elif isinstance(key, Integral):
        h = int(key)
    else:
        h = hash(key)
    return _mix64(h) % shards


def _group_by_owner(owners: np.ndarray, shards: int) -> List[np.ndarray]:
    """Per-shard ascending position arrays from an owner column.

    One stable argsort plus a ``searchsorted`` over the shard ids
    replaces the historical ``S`` boolean-mask passes
    (``index[owners == j]`` per shard): the stable sort keeps equal
    owners in stream order, so each returned group is exactly the
    ascending index array the mask pass produced — pinned byte-identical
    by ``tests/sharding/test_partition.py``.
    """
    order = np.argsort(owners, kind="stable")
    bounds = np.searchsorted(
        owners[order], np.arange(1, shards, dtype=owners.dtype)
    )
    return np.split(order, bounds)


def _apply_shard_plan(shard, positions, items, total, windowed, method):
    """Apply one shard's slice of a global batch, in place.

    ``positions`` are the global batch indices of the shard's owned
    ``items`` (ascending).  The slice is compiled into a kernel
    :class:`~repro.core.kernel.IngestPlan` — run-length-encoded unowned
    gaps plus contiguous owned segments, boundaries found with one
    vectorized pass — and consumed through the shard's ``ingest_plan``
    (``sampled=True`` routes pre-sampled controller feeds through
    ``ingest_samples``).  Windowed shards thereby stay aligned with the
    *global* window; interval shards just receive their owned packets.
    Module-level (not a closure) so it pickles to resident workers.

    The columnar (shared-memory) lane passes ``positions``/``items`` as
    numpy arrays instead of lists: items decode to the plain Python
    objects the sketch would have seen (keeping resident state
    byte-identical to the pipe transport), positions stay a zero-copy
    view, and the owned-packet feed routes through the sketch's fused
    ``ingest_plan_owned`` — semantically the per-item ``update`` path,
    minus the per-segment replay overhead.
    """
    columnar = isinstance(positions, np.ndarray)
    if isinstance(items, np.ndarray):
        # decode to Python objects: sketch state must not depend on the
        # transport (np.int64 keys would pickle differently)
        items = items.tolist()
    if not windowed:
        if items:
            getattr(shard, method)(items)
        return
    plan = plan_from_positions(
        items, np.asarray(positions, dtype=np.int64), total
    )
    if columnar and method != "ingest_samples":
        ingest_owned = getattr(shard, "ingest_plan_owned", None)
        if ingest_owned is not None:
            ingest_owned(plan)
            return
    ingest_plan = getattr(shard, "ingest_plan", None)
    if ingest_plan is not None:
        ingest_plan(plan, sampled=method == "ingest_samples")
        return
    # custom shard without the kernel surface: replay the plan manually
    ingest = getattr(shard, method)
    gap = shard.ingest_gap
    for lead, segment in plan.segments():
        if lead:
            gap(lead)
        if segment:
            ingest(segment)
    tail = plan.tail_gap
    if tail:
        gap(tail)


def _apply_shard_gap(shard, count):
    """Advance one resident shard's window (persistent-executor message)."""
    shard.ingest_gap(count)


def _shard_estimate(shard, key, names):
    """``key``'s estimate from the first of ``names`` the shard implements,
    else plain ``query`` (module-level: resident workers run it)."""
    for name in names:
        fn = getattr(shard, name, None)
        if fn is not None:
            return fn(key)
    return shard.query(key)


def _shard_estimates(shard, keys, names):
    """:func:`_shard_estimate` for each of ``keys``, in order: one worker
    reply answers a whole read epoch (module-level: workers run it)."""
    return [_shard_estimate(shard, key, names) for key in keys]


def _resolve_executor(
    executor: Union[str, PersistentProcessExecutor]
) -> Optional[PersistentProcessExecutor]:
    """The resident-worker executor a spec names (``None`` = serial)."""
    if isinstance(executor, PersistentProcessExecutor):
        return executor
    if not isinstance(executor, str):
        raise TypeError(
            f"executor must be one of {EXECUTORS} or a "
            f"PersistentProcessExecutor, got {executor!r}"
        )
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )
    return PersistentProcessExecutor() if executor == "persistent" else None


class ShardedSketch(BatchIngest):
    """Hash-partitioned ensemble of sketches behind one SlidingSketch face.

    Parameters
    ----------
    factory:
        ``factory(shard_id) -> sketch``; called once per shard.  Give
        shards distinct seeds derived from ``shard_id`` when the sketch
        is randomized.
    shards:
        Number of partitions ``S``.  One shard bypasses hashing entirely
        and delegates straight to the inner sketch (the no-regression
        fast path the bench gates).
    executor:
        ``"serial"`` (default) applies shard plans inline in the calling
        process; ``"persistent"`` or a ready
        :class:`~repro.sharding.executors.PersistentProcessExecutor`
        (e.g. one built with ``transport="shm"``) keeps each shard
        resident in its own worker process.
    key_fn:
        Maps an *item* to its routing key (default: the item itself).
        H-Memento deployments route whole packets while querying
        prefixes, which is what ``query_mode="sum"`` exists for.
    query_mode:
        ``"route"`` — point queries go to the key's owning shard (valid
        when the query key equals the routing key); ``"sum"`` — sum the
        per-shard estimates (valid always, required when they differ).
    merge_counters:
        Counter budget of merged snapshots (default: every merged row is
        kept — the union is exact for disjoint shards).
    windowed:
        Declares whether the shards are window-advancing
        (:class:`~repro.core.api.WindowedSketch`) sketches.  ``None``
        (default) sniffs the first shard for ``ingest_gap`` — the
        historical behaviour; the engine registry passes the declared
        capability explicitly instead.  Declaring ``True`` for shards
        without ``ingest_gap`` fails fast.
    pipeline:
        ``None``/``False`` (default) keeps ingestion synchronous.
        ``True``, a buffer size, or a
        :class:`~repro.sharding.pipeline.PipelineConfig` enables the
        pipelined front-end: writes coalesce in a bounded buffer and a
        background thread partitions/dispatches them, overlapping with
        the persistent executor's worker applies.  Queries and
        :meth:`flush` are the sync points; results are identical to
        synchronous ingestion.

    Examples
    --------
    >>> from repro.core.space_saving import SpaceSaving
    >>> sharded = ShardedSketch(lambda i: SpaceSaving(64), shards=4)
    >>> sharded.update_many(["a", "b", "a", "c"])
    >>> sharded.query("a")
    2
    """

    def __init__(
        self,
        factory: Callable[[int], SlidingSketch],
        shards: int = 1,
        executor: Union[str, PersistentProcessExecutor] = "serial",
        key_fn: Optional[Callable[[Hashable], Hashable]] = None,
        query_mode: str = "route",
        merge_counters: Optional[int] = None,
        pipeline: object = None,
        windowed: Optional[bool] = None,
    ) -> None:
        # every knob validates BEFORE the factory runs: a bad executor or
        # pipeline spec must not first construct S shard sketches
        if shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        if query_mode not in QUERY_MODES:
            raise ValueError(
                f"query_mode must be one of {QUERY_MODES}, got {query_mode!r}"
            )
        if merge_counters is not None and merge_counters <= 0:
            raise ValueError(
                f"merge_counters must be positive, got {merge_counters}"
            )
        #: pipelined front-end (None = synchronous): a coalescing write
        #: buffer plus a lazily-started background dispatcher thread;
        #: every query path drains both through ``flush``
        self._pipeline_config = make_pipeline_config(pipeline)
        #: resident workers holding the shard state (None = serial):
        #: ingestion then ships only plans, point reads are answered in
        #: the workers, and ``_sync_shards`` pulls state back lazily at
        #: the first whole-sketch read after a batch
        self._executor = _resolve_executor(executor)
        self.num_shards = int(shards)
        self.query_mode = query_mode
        self.merge_counters = merge_counters
        self._key_fn = key_fn
        self._shards: List = [factory(i) for i in range(self.num_shards)]
        first = self._shards[0]
        #: shards that can advance their window without inserting get the
        #: global-window-aligned ingestion; interval sketches get substreams.
        #: The capability is declared (engine registry / WindowedSketch
        #: protocol) as the presence of the ingest_gap hook.
        has_gap = getattr(first, "ingest_gap", None) is not None
        if windowed is None:
            self.windowed = has_gap
        else:
            if windowed and not has_gap:
                raise TypeError(
                    f"shards declared windowed but {type(first).__name__} "
                    f"has no ingest_gap"
                )
            self.windowed = bool(windowed)
        self._buffer = (
            WriteBuffer(self._pipeline_config.buffer_size)
            if self._pipeline_config is not None
            else None
        )
        self._dispatcher: Optional[PipelinedDispatcher] = None
        self._resident = False
        self._shards_stale = False
        self._updates = 0
        self._version = 0
        self._merge_version = -1
        self._merged_entries: Optional[List[Entry]] = None
        self._merged_view: Optional[MergedWindowSketch] = None
        #: point reads answered by resident workers: the answers for
        #: version ``_read_version`` keyed by ``(names, key)``, each with
        #: the worker it was asked of; the keys each read slot asked in
        #: that epoch; and the keys each slot asked in the epoch before,
        #: which a re-asked key's worker call prefetches
        self._read_version = -1
        self._read_cache: Dict[
            Tuple[Tuple[str, ...], Hashable], Tuple[float, Optional[int]]
        ] = {}
        self._read_keys: Dict[_ReadSlot, Dict[Hashable, None]] = {}
        self._prefetch_keys: Dict[_ReadSlot, Dict[Hashable, None]] = {}
        #: worker calls made by point reads, and point reads the cache
        #: answered without one
        self.point_read_calls = 0
        self.point_read_hits = 0

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_of(self, item: Hashable) -> int:
        """The shard index owning ``item`` (after ``key_fn`` routing)."""
        key = item if self._key_fn is None else self._key_fn(item)
        return shard_index(key, self.num_shards)

    def _route_owners(
        self, items: Sequence
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Vectorized owner column for an integer batch, or ``None``.

        Returns ``(owners, probe)`` — the per-item shard ids and the
        items as a numpy column — for the common integer-packet streams,
        Python ints and numpy integer scalars alike; only a genuinely
        integral batch qualifies (a float anywhere makes ``asarray``
        produce a float dtype, which would silently truncate and diverge
        from the scalar routing of :func:`shard_index`).  ``None`` sends
        the caller to the Python-loop fallback.
        """
        if self._key_fn is not None or not len(items):
            return None
        first = items[0]
        if type(first) is not int and not isinstance(first, np.integer):
            return None
        try:
            probe = np.asarray(items)
        except (ValueError, TypeError, OverflowError):
            return None
        if probe.dtype.kind not in "iu":
            return None
        if probe.dtype.kind == "i":
            arr = probe.astype(np.int64).view(np.uint64)
        else:
            arr = probe.astype(np.uint64)
        mixed = arr.copy()
        mixed ^= mixed >> np.uint64(33)
        mixed *= np.uint64(0xFF51AFD7ED558CCD)
        mixed ^= mixed >> np.uint64(33)
        mixed *= np.uint64(0xC4CEB9FE1A85EC53)
        mixed ^= mixed >> np.uint64(33)
        owners = mixed % np.uint64(self.num_shards)
        return owners, probe

    def _partition_columns(
        self, items: Sequence, positions: Optional[np.ndarray] = None
    ) -> Optional[List[tuple]]:
        """Split an integer batch into per-shard ``(positions, items)``
        numpy pairs, or ``None`` when the batch doesn't vectorize.

        ``positions`` are the items' stream positions within a run
        (``None``: the batch index itself); each shard gets the
        positions of the items it owns, ascending.
        """
        routed = self._route_owners(items)
        if routed is None:
            return None
        owners, probe = routed
        groups = _group_by_owner(owners, self.num_shards)
        gathered = [probe.take(group) for group in groups]
        if positions is not None:
            groups = [positions[group] for group in groups]
        return list(zip(groups, gathered))

    def _partition(
        self, items: Sequence, positions: Optional[np.ndarray] = None
    ) -> List[tuple]:
        """:meth:`_partition_columns` as per-shard ``(positions, items)``
        list pairs, with a Python routing loop for any batch."""
        columns = self._partition_columns(items, positions)
        if columns is not None:
            return [
                (owned_at.tolist(), owned.tolist())
                for owned_at, owned in columns
            ]
        shards = self.num_shards
        key_fn = self._key_fn
        per_positions: List[list] = [[] for _ in range(shards)]
        per_items: List[list] = [[] for _ in range(shards)]
        index = range(len(items)) if positions is None else positions.tolist()
        for idx, item in zip(index, items):
            key = item if key_fn is None else key_fn(item)
            j = shard_index(key, shards)
            per_positions[j].append(idx)
            per_items[j].append(item)
        return list(zip(per_positions, per_items))

    # ------------------------------------------------------------------
    # ingestion (SlidingSketch + WindowedSketch surface)
    # ------------------------------------------------------------------
    def update(self, item: Hashable) -> None:
        """Route one packet; windowed non-owners advance their window."""
        if self._buffer is not None:
            self._version += 1
            self._updates += 1
            self._buffer_write("update_many", (item,))
            return
        if self._resident:
            # shard state lives in the workers: route even scalars through
            # the plan pipeline so the resident copies stay authoritative
            self._dispatch([item], "update_many")
            return
        self._version += 1
        self._updates += 1
        if self.num_shards == 1:
            self._shards[0].update(item)
            return
        owner = self.shard_of(item)
        if self.windowed:
            for j, shard in enumerate(self._shards):
                if j == owner:
                    shard.update(item)
                else:
                    shard.ingest_gap(1)
        else:
            self._shards[owner].update(item)

    def update_many(self, items: Sequence) -> None:
        """Batch ingestion: partition once, apply per-shard plans."""
        self._dispatch(items, "update_many")

    def ingest_sample(self, item: Hashable) -> None:
        """Externally-sampled packet: Full update at the owner."""
        if self._buffer is not None:
            self._version += 1
            self._updates += 1
            self._buffer_write(
                "ingest_samples" if self.windowed else "update_many", (item,)
            )
            return
        if self._resident:
            self._dispatch(
                [item], "ingest_samples" if self.windowed else "update_many"
            )
            return
        self._version += 1
        self._updates += 1
        if self.num_shards == 1:
            shard = self._shards[0]
            if self.windowed:
                shard.ingest_sample(item)
            else:
                shard.update(item)
            return
        owner = self.shard_of(item)
        if self.windowed:
            for j, shard in enumerate(self._shards):
                if j == owner:
                    shard.ingest_sample(item)
                else:
                    shard.ingest_gap(1)
        else:
            self._shards[owner].update(item)

    def ingest_samples(self, items: Sequence) -> None:
        """Batch of externally-sampled packets (controller path)."""
        self._dispatch(items, "ingest_samples" if self.windowed else "update_many")

    def ingest_gap(self, count: int) -> None:
        """Advance every shard's window for ``count`` unobserved packets."""
        if not self.windowed:
            raise TypeError(
                "ingest_gap needs windowed shards (sketches with their own "
                "ingest_gap); interval sketches have no window to advance"
            )
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        self._version += 1
        self._updates += count
        if self._buffer is not None:
            if self._buffer.add_gap(count):
                self._spill_buffer()
            return
        self._gap_now(count)

    def _gap_now(self, count: int) -> None:
        """Apply a window advance to every shard (inline or pipelined)."""
        if self._resident:
            self._executor.broadcast(_apply_shard_gap, count)
            self._shards_stale = True
            return
        for shard in self._shards:
            shard.ingest_gap(count)

    def _dispatch(self, items: Sequence, method: str) -> None:
        items = as_batch(items)
        n = len(items)
        if n == 0:
            return
        self._version += 1
        self._updates += n
        if self._buffer is not None:
            self._buffer_write(method, items)
            return
        self._dispatch_now(items, method)

    def _dispatch_now(
        self,
        items: Sequence,
        method: str,
        positions: Optional[np.ndarray] = None,
        n: Optional[int] = None,
    ) -> None:
        """Partition one batch and apply it (inline or pipelined).

        ``positions``/``n`` describe a positional run from the write
        buffer: the items sit at ``positions`` of an ``n``-packet stream
        slice whose other packets are window advances.  ``None`` (a
        dense batch) means the items are the whole slice.
        """
        if n is None:
            n = len(items)
        windowed = self.windowed
        if self.num_shards == 1:
            if positions is None:
                getattr(self._shards[0], method)(items)
            else:
                _apply_shard_plan(
                    self._shards[0], positions, items, n, windowed, method
                )
            return
        executor = self._executor
        if executor is None:
            for shard, (owned_at, owned) in zip(
                self._shards, self._partition(items, positions)
            ):
                _apply_shard_plan(shard, owned_at, owned, n, windowed, method)
            return
        partition = None
        if executor.transport == "shm":
            # columnar lane: positions/items stay numpy arrays so the
            # executor ships them through the shared-memory ring and
            # the worker consumes zero-copy views
            partition = self._partition_columns(items, positions)
        if partition is None:
            partition = self._partition(items, positions)
        if not self._resident:
            # ship current parent state once; from here on only the
            # per-shard plans cross the pipes
            executor.seed(self._shards)
            self._resident = True
        executor.submit(
            _apply_shard_plan,
            [
                (owned_at, owned, n, windowed, method)
                for owned_at, owned in partition
            ],
        )
        self._shards_stale = True

    # ------------------------------------------------------------------
    # pipelined front-end plumbing
    # ------------------------------------------------------------------
    def _buffer_write(self, method: str, items: Sequence) -> None:
        """Append a write to the buffer's open run; spill once it fills up."""
        if self._buffer.add_items(method, items):
            self._spill_buffer()

    def _dispatch_run(self, run: Run, method: str) -> None:
        """Apply one positional run of the write buffer."""
        items, positions, n = run
        self._dispatch_now(items, method, positions, n)

    def _spill_buffer(self) -> None:
        """Hand every buffered op to the background dispatcher."""
        buffered = self._buffer.drain()
        if not buffered:
            return
        dispatcher = self._dispatcher
        if dispatcher is None:
            dispatcher = self._dispatcher = PipelinedDispatcher(
                self._dispatch_run,
                self._gap_now,
                depth=self._pipeline_config.depth,
            )
        for method, payload in buffered:
            dispatcher.submit(method, payload)

    def flush(self) -> None:
        """Synchronize the pipelined front-end (no-op when synchronous).

        Pushes buffered writes into the dispatch queue and blocks until
        the background thread has applied every in-flight op, raising if
        any dispatch failed since the last :meth:`close`.  Every query
        path routes through here, so pipelined results are
        indistinguishable from synchronous ingestion.
        Idempotent: a drained pipeline flushes as a no-op.
        """
        if self._buffer is None:
            return
        self._spill_buffer()
        if self._dispatcher is not None:
            self._dispatcher.drain()

    @property
    def pipelined(self) -> bool:
        """Whether the pipelined ingestion front-end is enabled."""
        return self._buffer is not None

    def _sync_shards(self) -> None:
        """Drain the pipeline, then pull resident state back when stale.

        Whole-sketch reads need every shard's state in the parent; point
        reads skip this pull (see :meth:`_estimate`).
        """
        self.flush()
        if self._shards_stale:
            self._shards = self._executor.call(_shard_state)
            self._shards_stale = False

    # ------------------------------------------------------------------
    # queries (merge-on-query)
    # ------------------------------------------------------------------
    def _estimate(self, key: Hashable, names: Tuple[str, ...]) -> float:
        """One point read: the owner's answer (route) or the shard sum.

        Route mode asks the owning shard (``key_fn`` applies, exactly as
        it did at ingestion); sum mode adds the per-shard estimates in
        shard order.  While resident workers hold newer state than the
        parent, the question goes to them (:meth:`_worker_estimate`)
        instead of pulling every shard back.  A key the workers already
        answered at the current version is served from the read cache
        before any flush: an unchanged version means no write since.
        """
        if self._read_version == self._version:
            cached = self._read_cache.get((names, key))
            if cached is not None:
                answer, worker = cached
                self.point_read_hits += 1
                self._remember((names, worker), key)
                return answer
        self.flush()
        if self._shards_stale:
            return self._worker_estimate(key, names)
        if self.query_mode == "route":
            return _shard_estimate(self._shards[self.shard_of(key)], key, names)
        return sum(_shard_estimate(shard, key, names) for shard in self._shards)

    def _worker_estimate(self, key: Hashable, names: Tuple[str, ...]) -> float:
        """A point-read miss, answered by the resident workers.

        The first miss at a new version opens a read epoch: the keys the
        previous epoch asked become its prefetch lists, one per read kind
        and asked worker (route mode: the key's owner; sum mode: all).
        A miss asks its workers for ``key`` alone, unless ``key`` is on
        its slot's list: the epoch is re-asking the last one's keys, so
        the call asks for the whole list too and every answer is cached.
        Reads that never repeat thus never make a worker evaluate stale
        keys.  Route mode keeps the owner's answer; sum mode adds the
        workers' answers per key in shard order.  A key joins the
        epoch's read set only after a successful reply, and a failed call
        has already spent its prefetch list, so a key that raises cannot
        fail the next epoch's reads.
        """
        if self._read_version != self._version:
            self._prefetch_keys = self._read_keys
            self._read_keys = {}
            self._read_cache = {}
            self._read_version = self._version
        owner = self.shard_of(key) if self.query_mode == "route" else None
        slot = (names, owner)
        listed = self._prefetch_keys.get(slot, {})
        if key in listed:
            del self._prefetch_keys[slot]
            del listed[key]
            keys = [key, *listed]
        else:
            keys = [key]
        self.point_read_calls += 1
        replies = self._executor.call(_shard_estimates, keys, names, worker=owner)
        if owner is None:
            answers = [sum(column) for column in zip(*replies)]
        else:
            (answers,) = replies
        cache = self._read_cache
        for k, answer in zip(keys, answers):
            cache[(names, k)] = (answer, owner)
        self._remember(slot, key)
        return answers[0]

    def _remember(self, slot: _ReadSlot, key: Hashable) -> None:
        """Add ``key`` to this epoch's read set (capped at PREFETCH_KEYS)."""
        asked = self._read_keys.setdefault(slot, {})
        if len(asked) < PREFETCH_KEYS:
            asked[key] = None

    def query(self, key: Hashable) -> float:
        """Window/interval frequency estimate for ``key``."""
        return self._estimate(key, ())

    def query_lower(self, key: Hashable) -> float:
        """Guaranteed (lower-bound) part of the estimate."""
        return self._estimate(key, ("query_lower", "lower_bound"))

    def query_point(self, key: Hashable) -> float:
        """Midpoint (bias-removed) estimate, for error metrics/detection."""
        return self._estimate(key, ("query_point",))

    def candidates(self) -> Iterable[Hashable]:
        """Keys any shard currently tracks (disjoint under ``route``)."""
        self._sync_shards()
        iters = []
        for shard in self._shards:
            cand = getattr(shard, "candidates", None)
            if cand is not None:
                iters.append(cand())
            else:
                iters.append(key for key, _, _ in shard.entries())
        if self.num_shards == 1 or self.query_mode == "route":
            return chain.from_iterable(iters)
        seen: set = set()
        out = []
        for key in chain.from_iterable(iters):
            if key not in seen:
                seen.add(key)
                out.append(key)
        return out

    def entries(self) -> List[Entry]:
        """Merged ``(key, estimate, guaranteed)`` snapshot (cached)."""
        self._sync_shards()
        if self._merge_version != self._version or self._merged_entries is None:
            sets = [shard.entries() for shard in self._shards]
            budget = self.merge_counters or max(
                1, sum(len(rows) for rows in sets)
            )
            self._merged_entries = merge_entry_sets(sets, counters=budget)
            self._merged_view = None
            self._merge_version = self._version
        return self._merged_entries

    def merged_window(self) -> MergedWindowSketch:
        """Window-aware merged view of all shards (cached by version).

        Requires shards exposing ``windowed_entries`` (the Memento
        family); the view answers scaled queries and heavy-hitter
        enumeration with the summed-quantum error bound.
        """
        self._sync_shards()
        if self._merge_version != self._version or self._merged_view is None:
            snapshots = [shard.windowed_entries() for shard in self._shards]
            budget = self.merge_counters or max(
                1, sum(len(snap.entries) for snap in snapshots)
            )
            merged = merge_windowed_entry_sets(snapshots, counters=budget)
            self._merged_view = MergedWindowSketch(merged)
            self._merged_entries = list(merged.entries)
            self._merge_version = self._version
        return self._merged_view

    def _sum_heavy_hitters(self, theta: float) -> Dict[Hashable, float]:
        """Sum-mode enumeration: merged snapshot against the right bar.

        Memento-family shards go through the window-aware merged view
        (scaled estimates, ``theta · window`` bar).  Other shards merge
        their raw ``entries()``: exact window counters threshold against
        ``theta · window``, interval sketches against ``theta · n`` where
        ``n`` is the total ingested count (``Σ nᵢ``), matching each
        family's own ``heavy_hitters`` convention.
        """
        first = self._shards[0]
        if getattr(first, "windowed_entries", None) is not None:
            return self.merged_window().heavy_hitters(theta)
        if self.windowed:
            bar = theta * getattr(first, "window", self._updates)
        else:
            bar = theta * self._updates
        return {
            key: float(est) for key, est, _ in self.entries() if est > bar
        }

    def _route_heavy(self, theta: float, attr: str) -> Dict[Hashable, float]:
        """Route-mode union with a *global* threshold.

        Windowed shards threshold against ``theta · window``, which is
        shard-independent, so their union is already the sharded set.
        Interval shards threshold against their *local* processed count
        — roughly ``1/S`` of the stream — so ``theta`` is rescaled per
        shard to make the local bar equal the global ``theta · n``
        (reusing each sketch's own scaling semantics, e.g. RHHH's ``V``
        multiplier).
        """
        self._sync_shards()
        out: Dict[Hashable, float] = {}
        total = self._updates
        for shard in self._shards:
            fn = getattr(shard, attr, None)
            if fn is None:
                fn = shard.heavy_hitters
            local_theta = theta
            if not self.windowed and self.num_shards > 1 and total:
                local = getattr(shard, "processed", None)
                if local is None:
                    local = getattr(shard, "packets", None)
                if local:
                    local_theta = theta * total / local
            out.update(fn(local_theta))
        return out

    def heavy_hitters(self, theta: float) -> Dict[Hashable, float]:
        """Heavy hitters across all shards.

        Under ``route`` the per-shard sets are disjoint and their union
        — thresholded against the global count (see :meth:`_route_heavy`)
        — is the sharded heavy-hitter set; under ``sum`` the merged
        snapshot enumerates them (window-aware for the Memento family).
        """
        if self.query_mode == "route" or self.num_shards == 1:
            return self._route_heavy(theta, "heavy_hitters")
        return self._sum_heavy_hitters(theta)

    def heavy_prefixes(self, theta: float) -> Dict[Hashable, float]:
        """Controller-facing alias (keys are prefixes in HHH mode)."""
        if self.query_mode == "route" or self.num_shards == 1:
            return self._route_heavy(theta, "heavy_prefixes")
        return self._sum_heavy_hitters(theta)

    def output(self, theta: float):
        """The heavy-hitter / HHH output set across all shards.

        When sum-mode shards expose the conditioned ``output`` surface
        (H-Memento), the HHH set is recomputed over the *merged*
        estimates: ``compute_hhh`` runs on the union of candidates with
        the summed upper/lower queries, the per-shard coverage slack
        growing as ``sqrt(S)`` (independent per-shard sampling noise adds
        in variance).  Everything else falls back to the plain
        heavy-hitter key set, which is what the single-sketch controller
        does for non-HHH algorithms.
        """
        self._sync_shards()
        if (
            self.query_mode == "sum"
            and self.num_shards > 1
            and getattr(self._shards[0], "output", None) is not None
            and getattr(self._shards[0], "hierarchy", None) is not None
        ):
            from ..hierarchy.hhh_output import compute_hhh

            first = self._shards[0]
            correction = 0.0
            sampling_correction = getattr(first, "sampling_correction", None)
            if sampling_correction is not None:
                correction = sampling_correction() * math.sqrt(
                    self.num_shards
                )
            return compute_hhh(
                first.hierarchy,
                list(self.candidates()),
                upper=self.query,
                lower=self.query_lower,
                threshold_count=theta * first.window,
                correction=correction,
            )
        single_output = (
            getattr(self._shards[0], "output", None)
            if self.num_shards == 1
            else None
        )
        if single_output is not None:
            return single_output(theta)
        return set(self.heavy_hitters(theta))

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def shards(self) -> Sequence:
        """The live shard sketches (read-only view; synced if resident)."""
        self._sync_shards()
        return tuple(self._shards)

    @property
    def updates(self) -> int:
        """Global packets ingested (including gap advances)."""
        return self._updates

    def state_snapshot(self) -> Dict[str, object]:
        """Serializable snapshot of the full ensemble state.

        Drains the pipeline and pulls any resident worker state back
        into the parent first, so the returned shards reflect every
        write accepted so far.  The shard sketches in the snapshot are
        the live objects, not copies — serialize (pickle) the snapshot
        before ingesting further, which is exactly what the checkpoint
        writer in :mod:`repro.service` does.
        """
        self._sync_shards()
        return {
            "shards": list(self._shards),
            "updates": self._updates,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Adopt a :meth:`state_snapshot` as the current ensemble state.

        The pipeline and any resident workers are unwound first (via
        :meth:`close` — idempotent, so later writes restart/re-seed
        lazily), then the snapshot's shard sketches replace the current
        ones and the merge cache is invalidated.  The snapshot must come
        from a sketch with the same shard count.
        """
        shards = state["shards"]
        if len(shards) != self.num_shards:
            raise ValueError(
                f"snapshot has {len(shards)} shard(s), this sketch has "
                f"{self.num_shards}"
            )
        self.close()
        self._shards = list(shards)
        self._updates = int(state["updates"])
        self._version += 1
        self._merged_entries = None
        self._merged_view = None
        self._merge_version = -1

    def close(self) -> None:
        """Release the pipeline thread and the executor's workers.

        Safe to call mid-pipeline and idempotent: in-flight buffered
        writes are drained first, then resident shard state is pulled
        back into the parent, so queries keep working after close; a
        later write restarts the pipeline and re-seeds fresh workers
        lazily.  The thread and the workers are released even when the
        final drain/sync fails (poisoned pipeline or dead worker) — the
        failure propagates, but nothing leaks and the parent keeps its
        last synced state.
        """
        try:
            self._sync_shards()
        finally:
            if self._dispatcher is not None:
                self._dispatcher.close()
            self._shards_stale = False
            if self._executor is not None:
                self._executor.close()
            self._resident = False

    def __enter__(self) -> "ShardedSketch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ShardedSketch(shards={self.num_shards}, "
            f"mode={self.query_mode!r}, windowed={self.windowed}, "
            f"updates={self._updates})"
        )
