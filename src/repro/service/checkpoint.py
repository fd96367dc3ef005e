"""``repro-ckpt/1``: versioned, atomic engine checkpoints.

One checkpoint file is a self-describing envelope::

    b"repro-ckpt/1\\n"                       # magic + schema version
    <4-byte big-endian header length>
    <header JSON>                            # spec, position, routing, state CRC
    <pickled engine state snapshot>

The header carries the **resolved** :class:`~repro.engine.SketchSpec`
dict, so :meth:`CheckpointStore.restore` rebuilds the exact engine via
:func:`~repro.engine.build_engine` before adopting the pickled state —
a checkpoint is sufficient on its own, no side-channel config.  The
``routing`` field names the shard routing the state was partitioned
under (:data:`~repro.sharding.sharded.ROUTING_ID`); a checkpoint stamped
with another routing is refused, since its shards would be asked for
keys they never saw.  A header without the field predates the stamp: its
shards were routed by ``hash()``, so it loads only when its spec runs on
one shard.  The
``position`` field is the global stream position (items accepted) at
snapshot time: a supervisor replays the tail from there and, under
fixed seeds, lands byte-identical to an uninterrupted run (pinned by
``tests/integration/test_failure_injection.py``).

Durability discipline: envelopes are written via
:func:`atomic_write_bytes` (tmp file + fsync + ``os.replace``), so a
crash mid-write leaves either the previous file or a ``.tmp`` orphan —
never a half-written checkpoint under the final name.  Reads verify
magic, header, length, and CRC; :class:`CheckpointStore` walks
checkpoints newest-first and falls back past torn/corrupt files to the
previous good one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import struct
import time
import zlib
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..engine.spec import SketchSpec
from ..sharding.sharded import ROUTING_ID

__all__ = [
    "MAGIC",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "atomic_write_bytes",
    "read_checkpoint",
    "write_checkpoint",
]

MAGIC = b"repro-ckpt/1\n"

_HLEN = struct.Struct(">I")


class CheckpointError(RuntimeError):
    """A missing, torn, or corrupt checkpoint file."""


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (tmp + fsync + rename).

    The temporary file lives next to the target (same filesystem, so
    ``os.replace`` is atomic) and is fsynced before the rename; readers
    therefore only ever observe the previous content or the complete
    new content.  This is the sanctioned write path for checkpoint
    files — ``repro-lint`` RL007 flags any other write in this package.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    return path


@dataclasses.dataclass(frozen=True)
class Checkpoint:
    """A decoded checkpoint: the spec, stream position, and state.

    ``state`` is the engine snapshot as produced by
    :meth:`~repro.engine.HeavyHitterEngine.snapshot_state`; ``spec`` is
    the spec the engine was built from, so the pair fully determines a
    restored engine.
    """

    spec: SketchSpec
    position: int
    state: object
    created_unix: float
    path: Optional[Path] = None


def write_checkpoint(
    path: Union[str, Path],
    spec: SketchSpec,
    position: int,
    state: object,
) -> Path:
    """Encode and atomically persist one ``repro-ckpt/1`` envelope."""
    if position < 0:
        raise ValueError(f"position must be non-negative, got {position}")
    blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps(
        {
            "schema": "repro-ckpt/1",
            "spec": spec.to_dict(),
            "position": int(position),
            "routing": ROUTING_ID,
            "state_len": len(blob),
            "state_crc": zlib.crc32(blob),
            "created_unix": time.time(),
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    envelope = MAGIC + _HLEN.pack(len(header)) + header + blob
    return atomic_write_bytes(path, envelope)


def read_checkpoint(path: Union[str, Path]) -> Checkpoint:
    """Decode and verify one envelope; raises :class:`CheckpointError`
    on any truncation, magic/schema mismatch, or CRC failure."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    if not raw.startswith(MAGIC):
        raise CheckpointError(f"{path}: bad magic (not a repro-ckpt/1 file)")
    offset = len(MAGIC)
    if len(raw) < offset + _HLEN.size:
        raise CheckpointError(f"{path}: truncated inside the header length")
    (header_len,) = _HLEN.unpack_from(raw, offset)
    offset += _HLEN.size
    if len(raw) < offset + header_len:
        raise CheckpointError(f"{path}: truncated inside the header")
    try:
        header = json.loads(raw[offset : offset + header_len])
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: header is not valid JSON: {exc}") from None
    offset += header_len
    if header.get("schema") != "repro-ckpt/1":
        raise CheckpointError(
            f"{path}: unsupported schema {header.get('schema')!r}"
        )
    blob = raw[offset:]
    if len(blob) != header["state_len"]:
        raise CheckpointError(
            f"{path}: state is {len(blob)} bytes, header says "
            f"{header['state_len']} (torn write?)"
        )
    if zlib.crc32(blob) != header["state_crc"]:
        raise CheckpointError(f"{path}: state CRC mismatch")
    try:
        spec = SketchSpec.from_dict(header["spec"])
    except ValueError as exc:
        raise CheckpointError(f"{path}: embedded spec is invalid: {exc}") from None
    routing = header.get("routing")
    shards = spec.sharding.shards if spec.sharding is not None else 1
    if routing is None and shards > 1:
        raise CheckpointError(
            f"{path}: state of {shards} shards predates the routing stamp "
            f"(routed by hash(), which this build no longer uses)"
        )
    if routing is not None and routing != ROUTING_ID:
        raise CheckpointError(
            f"{path}: state was routed by {routing!r}, this build routes "
            f"by {ROUTING_ID!r}"
        )
    try:
        state = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(f"{path}: cannot unpickle state: {exc}") from None
    return Checkpoint(
        spec=spec,
        position=int(header["position"]),
        state=state,
        created_unix=float(header["created_unix"]),
        path=path,
    )


class CheckpointStore:
    """A directory of position-stamped checkpoints with retention.

    Files are named ``ckpt-{position:012d}.bin`` so lexicographic order
    is stream order.  :meth:`save` writes atomically and prunes to the
    newest ``retain`` files; :meth:`load_latest` walks newest-first and
    skips torn/corrupt files (returning the previous good one), which is
    the crash-recovery contract the failure-injection tests pin.
    """

    def __init__(self, directory: Union[str, Path], retain: int = 2) -> None:
        if retain <= 0:
            raise ValueError(f"retain must be positive, got {retain}")
        self.directory = Path(directory)
        self.retain = retain
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, position: int) -> Path:
        """The file a checkpoint at ``position`` is stored under."""
        return self.directory / f"ckpt-{position:012d}.bin"

    def list(self) -> List[Path]:
        """All checkpoint files, oldest first."""
        return sorted(self.directory.glob("ckpt-*.bin"))

    def save(self, spec: SketchSpec, position: int, state: object) -> Path:
        """Persist one checkpoint and prune past the retention limit."""
        path = write_checkpoint(self.path_for(position), spec, position, state)
        for stale in self.list()[: -self.retain]:
            stale.unlink(missing_ok=True)
        return path

    def load_latest(self) -> Checkpoint:
        """Decode the newest readable checkpoint (falling back past torn
        files); raises :class:`CheckpointError` when none is usable."""
        failures = []
        for path in reversed(self.list()):
            try:
                return read_checkpoint(path)
            except CheckpointError as exc:
                failures.append(str(exc))
        if failures:
            raise CheckpointError(
                "no readable checkpoint; all candidates failed:\n  "
                + "\n  ".join(failures)
            )
        raise CheckpointError(f"no checkpoints in {self.directory}")

    def restore(self, hierarchy: object = None) -> Tuple[object, int]:
        """Rebuild an engine from the newest good checkpoint.

        Returns ``(engine, position)``: the engine is built via
        :func:`~repro.engine.build_engine` from the checkpointed spec,
        then adopts the pickled state, so replaying the stream from
        ``position`` onward reproduces an uninterrupted run exactly.
        """
        from ..engine.facade import build_engine

        checkpoint = self.load_latest()
        engine = build_engine(checkpoint.spec, hierarchy=hierarchy)
        engine.restore_state(checkpoint.state)
        return engine, checkpoint.position
