"""Resident shard workers for :class:`~repro.sharding.sharded.ShardedSketch`.

A sharded sketch runs its shards in one of two places: in the calling
process (``executor="serial"``, no executor object at all) or in the
:class:`PersistentProcessExecutor` defined here — one long-lived worker
process per shard holding the shard sketch **resident**.  The initial
state is shipped once (``seed``), each batch sends only its per-shard
plan (positions + owned items), and reads run **inside** the workers:
``call(fn, *args)`` evaluates ``fn(shard, *args)`` where the shard lives
and ships back only the result — a batch of point queries costs one
reply per asked worker, one float per key (the sharded sketch asks a
read epoch's keys in one call).  Full state returns to the parent only
for whole-sketch reads (``collect``, itself a ``call`` of a function
that returns the shard).

The plan payload channel is the ``transport`` knob: ``"pipe"``
(default) pickles each task into the worker pipe; ``"shm"`` adds one
:class:`~repro.sharding.shm.PlanRing` shared-memory ring per worker —
vectorizable task columns (numpy plan columns, int/str/bytes item
lists) are written into the ring and the pipe carries only a slot
descriptor, with automatic per-task fallback to the pickle message for
payloads that don't fit a slot or can't ride a column.  Both transports
deliver equal task arguments, pinned by the differential suite in
``tests/sharding/test_shm_transport.py``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback
from typing import Callable, List, Optional, Sequence, Tuple

from .shm import PlanRing, TRACKER_FORK_LOCK, rebuild_task, split_task

__all__ = [
    "PersistentProcessExecutor",
    "EXECUTORS",
    "TRANSPORTS",
]

#: Where a sharded sketch can run its shards: in the calling process, or
#: in one resident :class:`PersistentProcessExecutor` worker per shard.
EXECUTORS = ("persistent", "serial")

#: Plan payload channels the persistent executor supports.
TRANSPORTS = ("pipe", "shm")

#: How long :meth:`PersistentProcessExecutor.call` waits for a worker
#: reply before raising.  A healthy worker answers in milliseconds even
#: with a large resident state; the deadline exists so a wedged or dead
#: worker turns into a loud, diagnosable failure instead of an infinite
#: parent hang.
DEFAULT_COLLECT_TIMEOUT = 120.0


def _shard_state(shard):
    """The shard itself: :meth:`PersistentProcessExecutor.collect`'s call."""
    return shard


def _persistent_worker(
    conn,
    ring_args: Optional[Tuple] = None,
    stale_fds: Tuple[int, ...] = (),
) -> None:
    """Loop of one resident shard worker (module-level: must pickle).

    The worker owns its shard sketch for the lifetime of the process.
    Messages: ``("seed", shard)`` installs state; ``("apply", fn, *args)``
    runs ``fn(shard, *args)`` in place; ``("apply_cols", fn, slot,
    layouts, recipe)`` rebuilds the args as zero-copy views over the
    shared-memory ring named by ``ring_args`` and applies them, retiring
    the slot afterwards **whether or not the apply succeeded** (a
    poisoned worker that stopped retiring would deadlock the parent's
    backpressure wait); ``("call", fn, *args)`` replies with
    ``fn(shard, *args)`` (or the first recorded failure); ``("stop",)``
    exits.  A failed apply poisons the worker — later applies are
    skipped and the error surfaces at the next call — so the parent
    never silently continues on half-applied state.  A failed call
    replies with its traceback but leaves the shard untouched.

    Orphan safety: a plain blocking ``recv`` cannot notice a SIGKILLed
    parent under the fork start method — every later-forked sibling
    (and this worker itself) inherits a copy of the pipe's write end,
    so EOF never arrives.  ``stale_fds`` are those inherited parent-end
    descriptors (this pipe's and earlier siblings'); closing them first
    thing restores real EOF/EPIPE semantics, so a worker blocked
    **sending** a reply when the parent dies gets ``BrokenPipeError``
    instead of sleeping forever on a socket its own inherited fd keeps
    alive.  The loop additionally polls the pipe and exits when the
    process is re-parented (``getppid`` changed) as a belt-and-braces
    path; either way the shared resource tracker unlinks any shm rings
    once the last worker is gone.
    """
    for fd in stale_fds:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed elsewhere
            pass
    shard = None
    error: Optional[str] = None
    parent_pid = os.getppid()
    ring = PlanRing.attach(*ring_args) if ring_args is not None else None
    try:
        while True:
            while not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    return  # orphaned: parent died without ("stop",)
            try:
                msg = conn.recv()
            except EOFError:  # parent went away
                return
            kind = msg[0]
            if kind == "apply":
                if error is None:
                    try:
                        fn = msg[1]
                        fn(shard, *msg[2:])
                    except BaseException:
                        error = traceback.format_exc()
            elif kind == "apply_cols":
                try:
                    if error is None:
                        fn, slot, layouts, recipe = msg[1:5]
                        args = rebuild_task(ring.read(slot, layouts), recipe)
                        try:
                            fn(shard, *args)
                        finally:
                            # drop the zero-copy views before the slot
                            # is handed back for reuse
                            del args
                except BaseException:
                    error = traceback.format_exc()
                finally:
                    ring.retire()
            elif kind == "call":
                if error is not None:
                    conn.send(("error", error))
                else:
                    try:
                        conn.send(("ok", msg[1](shard, *msg[2:])))
                    except BaseException:
                        conn.send(("error", traceback.format_exc()))
            elif kind == "seed":
                shard = msg[1]
                error = None
            elif kind == "stop":
                conn.close()
                return
    finally:
        if ring is not None:
            ring.close()


class PersistentProcessExecutor:
    """Resident shard workers: state stays put, only plans cross the pipe.

    One worker process per shard.  ``seed(shards)`` ships each shard's
    initial state once; ``submit(fn, tasks)`` sends one
    ``fn(shard, *task)`` application per worker **without waiting** (the
    parent can partition the next batch while workers apply — applies on
    one worker are strictly ordered by the pipe); ``call(fn, *args)`` is
    the synchronization point that runs ``fn(shard, *args)`` after every
    earlier apply and returns the results (raising if any worker failed
    since the last seed), and ``collect()`` is the ``call`` that returns
    the shard states themselves.  ``close()`` terminates the workers;
    the sketch re-seeds lazily afterwards.
    """

    def __init__(
        self,
        mp_context: Optional[str] = None,
        *,
        transport: str = "pipe",
        ring_slots: int = 8,
        ring_slot_bytes: int = 1 << 20,
    ) -> None:
        if transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, got {transport!r}"
            )
        if ring_slots <= 0:
            raise ValueError(f"ring_slots must be positive, got {ring_slots}")
        if ring_slot_bytes <= 0:
            raise ValueError(
                f"ring_slot_bytes must be positive, got {ring_slot_bytes}"
            )
        self._ctx = mp.get_context(mp_context)
        self.transport = transport
        self.ring_slots = int(ring_slots)
        self.ring_slot_bytes = int(ring_slot_bytes)
        self._workers: List = []
        self._conns: List = []
        self._rings: List[Optional[PlanRing]] = []

    @property
    def seeded(self) -> bool:
        """Whether resident workers currently hold shard state."""
        return bool(self._workers)

    def seed(self, shards: Sequence) -> None:
        """Spawn one resident worker per shard and ship initial state.

        Workers (and their shared-memory rings, under the ``shm``
        transport) register before their state ships, so a mid-loop
        failure (an unpicklable shard, a dead pipe) tears every spawned
        worker and segment down via :meth:`close` instead of leaking
        processes blocked on ``recv`` or unlinked segments.
        """
        self.close()
        # under fork, each worker inherits the parent end of its own
        # pipe and of every earlier sibling's; hand those fd numbers to
        # the child so it can close them and restore EOF/EPIPE semantics
        # (meaningless under spawn, where fds are not inherited)
        fork = self._ctx.get_start_method() == "fork"
        try:
            for shard in shards:
                ring_args = None
                if self.transport == "shm":
                    ring = PlanRing(self.ring_slots, self.ring_slot_bytes)
                    self._rings.append(ring)
                    ring_args = (ring.name, ring.slots, ring.slot_bytes)
                else:
                    self._rings.append(None)
                parent_conn, child_conn = self._ctx.Pipe()
                stale_fds = (
                    tuple(c.fileno() for c in self._conns)
                    + (parent_conn.fileno(),)
                    if fork
                    else ()
                )
                worker = self._ctx.Process(
                    target=_persistent_worker,
                    args=(child_conn, ring_args, stale_fds),
                    daemon=True,
                )
                # under fork, starting a worker while another thread (a
                # second engine's pipeline, say) sits in a resource-
                # tracker critical section would hand the child that
                # lock in a locked state — it then deadlocks on its
                # attach-time tracker registration before ever reading
                # its pipe.  TRACKER_FORK_LOCK serializes the fork
                # against every tracker touchpoint in this package.
                with TRACKER_FORK_LOCK:
                    worker.start()
                child_conn.close()
                self._workers.append(worker)
                self._conns.append(parent_conn)
                parent_conn.send(("seed", shard))
        except BaseException:
            self.close()
            raise

    def submit(self, fn: Callable, tasks: Sequence[Tuple]) -> None:
        """Send one ``fn(shard, *task)`` application per worker (no wait).

        Under the ``shm`` transport each task's vectorizable columns go
        through the worker's ring and the pipe carries a slot
        descriptor; a task whose payload exceeds a ring slot (or has no
        columns at all) falls back to the classic pickle message, so
        submit never fails on payload shape.  The only wait is ring
        backpressure: with every slot still in flight, the write blocks
        until the worker retires one.
        """
        if len(tasks) != len(self._conns):
            raise RuntimeError(
                f"{len(tasks)} tasks for {len(self._conns)} resident workers"
            )
        if self.transport == "shm":
            for conn, ring, task in zip(self._conns, self._rings, tasks):
                split = split_task(task)
                if split is not None:
                    columns, recipe = split
                    written = ring.write(columns)
                    if written is not None:
                        slot, layouts = written
                        conn.send(("apply_cols", fn, slot, layouts, recipe))
                        continue
                conn.send(("apply", fn, *task))
            return
        for conn, task in zip(self._conns, tasks):
            conn.send(("apply", fn, *task))

    def broadcast(self, fn: Callable, *args) -> None:
        """Send the same ``fn(shard, *args)`` application to every worker."""
        for conn in self._conns:
            conn.send(("apply", fn, *args))

    def call(
        self,
        fn: Callable,
        *args,
        worker: Optional[int] = None,
        timeout: Optional[float] = DEFAULT_COLLECT_TIMEOUT,
    ) -> List:
        """Run ``fn(shard, *args)`` inside the workers; return the results.

        ``worker`` asks one worker only (the list then has one entry);
        by default every worker answers, in shard order.  The call is
        queued behind every earlier apply on the same pipe, so it sees
        all ingestion submitted so far.  ``fn`` must be picklable
        (module-level) and so must its result.  Every asked worker's
        reply is read before a failure is raised, so the pipes stay in
        step.  Each worker gets up to ``timeout`` seconds to start
        replying (``None`` waits forever).  The deadline is far above
        any healthy reply latency — it exists so a wedged or
        silently-dead worker surfaces as a ``RuntimeError`` naming the
        worker and its state instead of deadlocking the parent (and CI)
        indefinitely.
        """
        indices = range(len(self._conns)) if worker is None else (worker,)
        for index in indices:
            self._conns[index].send(("call", fn, *args))
        results: List = []
        failures: List[str] = []
        for index in indices:
            conn = self._conns[index]
            if timeout is not None and not conn.poll(timeout):
                process = self._workers[index]
                status = (
                    "alive"
                    if process.is_alive()
                    else f"dead (exitcode {process.exitcode})"
                )
                raise RuntimeError(
                    f"persistent shard worker {index} sent no reply for "
                    f"{timeout}s (worker {status}) — wedged or deadlocked"
                )
            kind, payload = conn.recv()
            if kind == "error":
                failures.append(payload)
                results.append(None)
            else:
                results.append(payload)
        if failures:
            raise RuntimeError(
                "persistent shard worker(s) failed:\n" + "\n".join(failures)
            )
        return results

    def collect(
        self, timeout: Optional[float] = DEFAULT_COLLECT_TIMEOUT
    ) -> List:
        """Fetch current shard states (a :meth:`call` returning each shard)."""
        return self.call(_shard_state, timeout=timeout)

    def close(self) -> None:
        """Stop all resident workers (idempotent); state in them is lost.

        Shared-memory rings are closed (and unlinked) only after the
        workers joined, so no worker is left applying against an
        unlinked mapping; a worker that had to be terminated still gets
        its segment unlinked here — the parent owns every ring.
        """
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for worker in self._workers:
            worker.join(timeout=5)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.terminate()
                worker.join(timeout=5)
        for ring in self._rings:
            if ring is not None:
                ring.close()
        self._workers = []
        self._conns = []
        self._rings = []

    def __del__(self):  # pragma: no cover - interpreter-teardown best effort
        try:
            self.close()
        except Exception:
            pass
