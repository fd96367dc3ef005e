"""Pipelined ingestion front-end for :class:`~repro.sharding.sharded.ShardedSketch`.

Two pieces remove the remaining serialization on the sharded ingest
critical path:

* :class:`WriteBuffer` — a bounded, order-preserving buffer that records
  writes as **positional runs**.  A run is the items of one ingestion
  method in arrival order, the running stream length ``n`` they cover,
  and the window advances between them kept as ``(item index, count)``
  gap marks.  A gap does not open a new op: it only widens the stream
  positions of the items written after it.  At spill each run becomes
  one ``(items, positions, n)`` triple — ``positions=None`` for a dense
  run without gaps, so a plain ``update_many`` feed does no per-item
  position work — which the sharded sketch partitions once into one
  per-shard plan (global positions plus the total, the shape
  :func:`~repro.core.kernel.plan_from_positions` takes).  A flush of
  ``K`` controller reports (samples plus a gap each) therefore costs
  one apply message per shard instead of ``~2K`` messages.  Only a
  method switch closes a run; a buffer holding nothing but gaps spills
  one :data:`GAP` op.  Scalar ``update``/``ingest_sample`` calls and
  report-scale batches are dispatched once ``buffer_size`` items (plus
  gap marks) accumulate.
* :class:`PipelinedDispatcher` — a background partitioner thread fed by
  a bounded queue of buffered ops.  The caller enqueues and returns;
  the thread partitions and submits.  On the persistent executor
  ``submit`` does not wait for the workers, but the pipe *send* blocks
  once the OS buffer fills — previously stalling the parent until the
  workers' pipes accepted batch *k* before it could partition batch
  *k+1*.  With the dispatcher, partitioning and the blocking sends run
  off the caller's thread (double-buffered up to ``depth`` batches), so
  the parent overlaps producing/partitioning batch *k+1* with the
  workers applying batch *k*.

Both are synchronized through a single ``drain`` point: the sharded
sketch's ``flush()`` pushes buffered writes into the queue and waits for
the thread to go idle, and every query path routes through it, so
pipelined ingestion stays result-identical to the synchronous paths —
sharded-over-exact still matches the unsharded oracle, which the
differential tests in ``tests/sharding/`` pin.

A failed dispatch poisons the pipeline exactly like a failed apply
poisons a resident worker: later ops are consumed but dropped (so
producers never deadlock on the bounded queue), and the first failure
surfaces — with the worker traceback — at the next ``drain``.
``close()`` is idempotent, safe with ops still in flight, and resets the
pipeline so a later write restarts it lazily.
"""

from __future__ import annotations

import queue
import threading
import traceback
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["PipelineConfig", "make_pipeline_config", "WriteBuffer", "PipelinedDispatcher"]

#: Queue sentinel asking the dispatcher thread to exit.
_STOP = object()

#: Op-kind tag for window advances (items ops carry their method name).
GAP = "ingest_gap"

#: A positional run: ``(items, positions, n)`` (see :class:`WriteBuffer`).
Run = Tuple[List, Optional[np.ndarray], int]
#: A buffered op: ``(method, run)`` or ``(GAP, count)``.
Op = Tuple[str, Union[Run, int]]


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning knobs of the pipelined front-end.

    ``buffer_size`` is the write-coalescing threshold (items buffered
    before a dispatch is enqueued); ``depth`` bounds the in-flight
    batches between the caller and the partitioner thread (2 = classic
    double buffering: partition *k+1* while the workers apply *k*).
    """

    buffer_size: int = 4096
    depth: int = 2

    def __post_init__(self) -> None:
        if self.buffer_size <= 0:
            raise ValueError(
                f"buffer_size must be positive, got {self.buffer_size}"
            )
        if self.depth <= 0:
            raise ValueError(f"depth must be positive, got {self.depth}")


def make_pipeline_config(spec: object) -> Optional[PipelineConfig]:
    """Resolve a ``ShardedSketch(pipeline=...)`` spec.

    ``None``/``False`` disable the front-end (the synchronous default);
    ``True`` enables it with default knobs; an ``int`` is a
    ``buffer_size``; a ready :class:`PipelineConfig` passes through; an
    object with ``to_config()`` (the engine layer's serializable
    ``PipelineSpec``) resolves through it — duck-typed so this module
    stays import-independent of :mod:`repro.engine`.
    """
    if spec is None or spec is False:
        return None
    if spec is True:
        return PipelineConfig()
    if isinstance(spec, PipelineConfig):
        return spec
    if isinstance(spec, int):
        return PipelineConfig(buffer_size=spec)
    to_config = getattr(spec, "to_config", None)
    if to_config is not None:
        config = to_config()
        if isinstance(config, PipelineConfig):
            return config
    raise TypeError(
        f"pipeline must be None/False, True, a buffer size, a "
        f"PipelineConfig, or expose to_config() -> PipelineConfig, "
        f"got {spec!r}"
    )


class WriteBuffer:
    """Order-preserving buffer of positional runs.

    :meth:`drain` returns ``(method, (items, positions, n))`` ops for
    item runs and ``(GAP, count)`` for a buffer that saw only window
    advances.  Within a run, ``positions`` are the items' indices in the
    run's ``n``-packet stream slice (ascending ``int64``), or ``None``
    when no gap separates them — a dense run of ``n == len(items)``.
    Consecutive writes of the same method extend the open run, and gaps
    collapse into marks on it, so a scalar-update loop costs one
    growing list and a report stream one list plus one mark per report.
    """

    __slots__ = ("capacity", "_ops", "_method", "_items", "_marks", "_n", "_pending")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ops: List[Op] = []
        self._method: Optional[str] = None
        self._items: List = []
        #: ``(item index, count)``: ``count`` packets pass before item
        #: ``index`` (``index == len(items)`` marks a trailing gap)
        self._marks: List[Tuple[int, int]] = []
        self._n = 0
        self._pending = 0

    @property
    def pending(self) -> int:
        """Buffered item count (each gap mark counts one)."""
        return self._pending

    def add_items(self, method: str, items: Sequence) -> bool:
        """Buffer ``items`` under ``method``; True when a flush is due."""
        if method != self._method:
            if self._items:
                self._close_run()
            self._method = method
        self._items.extend(items)
        self._n += len(items)
        self._pending += len(items)
        return self._pending >= self.capacity

    def add_gap(self, count: int) -> bool:
        """Buffer a window advance; True when a flush is due."""
        marks = self._marks
        at = len(self._items)
        if marks and marks[-1][0] == at:
            marks[-1] = (at, marks[-1][1] + count)
        else:
            marks.append((at, count))
            self._pending += 1
        self._n += count
        return self._pending >= self.capacity

    def _close_run(self) -> None:
        """Move the open run (or a gap-only advance) to the op list."""
        items, marks, n = self._items, self._marks, self._n
        if items:
            positions = None
            if marks:
                count = len(items)
                at, gaps = zip(*marks)
                shift = np.zeros(count + 1, dtype=np.int64)
                shift[list(at)] = gaps
                positions = np.arange(count, dtype=np.int64)
                positions += np.cumsum(shift[:count])
            self._ops.append((self._method, (items, positions, n)))
        elif n:
            self._ops.append((GAP, n))
        self._method = None
        self._items = []
        self._marks = []
        self._n = 0

    def drain(self) -> List[Op]:
        """Pop and return all buffered ops (in write order)."""
        self._close_run()
        ops = self._ops
        self._ops = []
        self._pending = 0
        return ops


class PipelinedDispatcher:
    """Bounded-queue background dispatcher of buffered ingestion ops.

    ``apply_items(payload, method)`` and ``apply_gap(count)`` are the
    sharded sketch's synchronous dispatch entry points (``payload`` is
    whatever the op carries — a :data:`Run` from the write buffer); the
    thread calls
    them one op at a time, in submission order, so the executor sees
    exactly the sequence a synchronous caller would have produced.
    """

    def __init__(
        self,
        apply_items: Callable[[Sequence, str], None],
        apply_gap: Callable[[int], None],
        depth: int = 2,
    ) -> None:
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        self._apply_items = apply_items
        self._apply_gap = apply_gap
        self._queue: "queue.Queue" = queue.Queue(maxsize=depth)
        self._thread: Optional[threading.Thread] = None
        self._failure: Optional[str] = None
        self._cause: Optional[BaseException] = None

    @property
    def alive(self) -> bool:
        """Whether the dispatcher thread is currently running."""
        return self._thread is not None and self._thread.is_alive()

    @property
    def failed(self) -> bool:
        """Whether a dispatch has failed since the last :meth:`close`."""
        return self._failure is not None

    def _run(self) -> None:
        while True:
            op = self._queue.get()
            try:
                if op is _STOP:
                    return
                if self._failure is None:
                    method, payload = op
                    try:
                        if method == GAP:
                            self._apply_gap(payload)
                        else:
                            self._apply_items(payload, method)
                    except BaseException as exc:
                        # poison: keep consuming (and dropping) ops so
                        # producers blocked on the bounded queue advance,
                        # surface the first failure at the next drain
                        self._failure = traceback.format_exc()
                        self._cause = exc
            finally:
                self._queue.task_done()

    def submit(self, method: str, payload: Union[Sequence, int]) -> None:
        """Enqueue one buffered op (blocks when ``depth`` are in flight)."""
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._run, name="sharded-ingest-pipeline", daemon=True
            )
            self._thread.start()
        self._queue.put((method, payload))

    def drain(self) -> None:
        """Block until every submitted op was dispatched; raise on failure.

        The failure sticks until :meth:`close` resets the pipeline, so
        every later sync point keeps reporting the broken state instead
        of silently continuing on half-applied ingestion.
        """
        if self._thread is not None:
            self._queue.join()
        if self._failure is not None:
            raise RuntimeError(
                "pipelined ingestion failed:\n" + self._failure
            ) from self._cause

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop the thread and reset failure state (idempotent).

        Safe mid-pipeline: queued ops are dispatched (or dropped, once
        poisoned) before the stop sentinel is honored, so close never
        abandons a producer blocked on the queue.  ``timeout`` bounds
        the wait (the garbage-collection path — a wedged in-flight
        apply must not hang the collector): when it expires the daemon
        thread is abandoned instead of joined.
        """
        thread = self._thread
        if thread is not None and thread.is_alive():
            if timeout is None:
                self._queue.put(_STOP)
                thread.join()
            else:
                try:
                    self._queue.put_nowait(_STOP)
                except queue.Full:  # pragma: no cover - wedged pipeline
                    pass
                thread.join(timeout)
                if thread.is_alive():  # pragma: no cover - wedged pipeline
                    return
        self._thread = None
        self._failure = None
        self._cause = None

    def __del__(self):  # pragma: no cover - interpreter-teardown best effort
        try:
            self.close(timeout=1.0)
        except Exception:
            pass
