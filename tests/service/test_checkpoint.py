"""``repro-ckpt/1``: envelope round-trips, torn-file fallback, atomicity."""

from __future__ import annotations

import json
import struct

import pytest

from repro.engine import SketchSpec, build_engine
from repro.service.checkpoint import (
    MAGIC,
    CheckpointError,
    CheckpointStore,
    atomic_write_bytes,
    read_checkpoint,
    write_checkpoint,
)
from repro.sharding.sharded import ROUTING_ID

SPEC = SketchSpec.from_dict(
    {
        "algorithm": {
            "family": "memento",
            "window": 2048,
            "counters": 64,
            "tau": 0.25,
            "seed": 7,
        }
    }
)


def engine_state(n=500):
    with build_engine(SPEC) as engine:
        engine.update_many([i % 50 for i in range(n)])
        return engine.snapshot_state()


def rewrite_header(path, edit):
    """Re-encode a checkpoint's JSON header through ``edit(header)``."""
    raw = path.read_bytes()
    offset = len(MAGIC)
    (length,) = struct.unpack_from(">I", raw, offset)
    offset += 4
    header = json.loads(raw[offset : offset + length])
    edit(header)
    encoded = json.dumps(header).encode("utf-8")
    path.write_bytes(
        MAGIC + struct.pack(">I", len(encoded)) + encoded + raw[offset + length :]
    )
    return header


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"one")
        assert target.read_bytes() == b"one"
        atomic_write_bytes(target, b"two")
        assert target.read_bytes() == b"two"

    def test_no_tmp_residue(self, tmp_path):
        atomic_write_bytes(tmp_path / "out.bin", b"payload")
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        state = engine_state()
        path = write_checkpoint(tmp_path / "c.bin", SPEC, 500, state)
        checkpoint = read_checkpoint(path)
        assert checkpoint.spec == SPEC
        assert checkpoint.position == 500
        assert checkpoint.state["kind"] == "bare"
        assert checkpoint.path == path
        assert checkpoint.created_unix > 0

    def test_header_stamps_the_routing(self, tmp_path):
        path = write_checkpoint(tmp_path / "c.bin", SPEC, 500, engine_state())
        header = rewrite_header(path, lambda header: None)
        assert header["routing"] == ROUTING_ID
        assert read_checkpoint(path).position == 500

    def test_other_routing_refused(self, tmp_path):
        path = write_checkpoint(tmp_path / "c.bin", SPEC, 500, engine_state())
        rewrite_header(path, lambda header: header.update(routing="hash/0"))
        with pytest.raises(CheckpointError, match="routed by 'hash/0'"):
            read_checkpoint(path)

    def test_header_without_routing_still_loads(self, tmp_path):
        path = write_checkpoint(tmp_path / "c.bin", SPEC, 500, engine_state())
        rewrite_header(path, lambda header: header.pop("routing"))
        assert read_checkpoint(path).state["kind"] == "bare"

    def test_sharded_header_without_routing_refused(self, tmp_path):
        # before the stamp, str and tuple keys were routed by hash():
        # a multi-shard state would be asked on the wrong shards
        spec = SketchSpec.from_dict(
            {**SPEC.to_dict(), "sharding": {"shards": 4, "executor": "serial"}}
        )
        with build_engine(spec) as engine:
            engine.update_many(["hot"] * 500)
            state = engine.snapshot_state()
        path = write_checkpoint(tmp_path / "c.bin", spec, 500, state)
        assert read_checkpoint(path).spec.sharding.shards == 4
        rewrite_header(path, lambda header: header.pop("routing"))
        with pytest.raises(CheckpointError, match="4 shards predates the routing"):
            read_checkpoint(path)

    def test_magic_is_versioned(self, tmp_path):
        path = write_checkpoint(tmp_path / "c.bin", SPEC, 1, engine_state(10))
        assert path.read_bytes().startswith(MAGIC)

    def test_negative_position_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            write_checkpoint(tmp_path / "c.bin", SPEC, -1, {})

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "absent.bin")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"certainly not a checkpoint")
        with pytest.raises(CheckpointError, match="bad magic"):
            read_checkpoint(path)

    @pytest.mark.parametrize("keep", [4, 10, 60])
    def test_truncation_detected_everywhere(self, tmp_path, keep):
        # cut inside the header length, the header, and the state blob
        path = write_checkpoint(tmp_path / "c.bin", SPEC, 9, engine_state(10))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(MAGIC) + keep])
        with pytest.raises(CheckpointError, match="truncated|torn"):
            read_checkpoint(path)

    def test_corrupt_state_crc_detected(self, tmp_path):
        path = write_checkpoint(tmp_path / "c.bin", SPEC, 9, engine_state(10))
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC"):
            read_checkpoint(path)


class TestStore:
    def test_save_names_by_position(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(SPEC, 1234, engine_state(10))
        assert path.name == "ckpt-000000001234.bin"

    def test_retention_prunes_oldest(self, tmp_path):
        store = CheckpointStore(tmp_path, retain=2)
        for position in (100, 200, 300):
            store.save(SPEC, position, engine_state(10))
        assert [p.name for p in store.list()] == [
            "ckpt-000000000200.bin",
            "ckpt-000000000300.bin",
        ]

    def test_load_latest_picks_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, retain=3)
        for position in (100, 200, 300):
            store.save(SPEC, position, engine_state(10))
        assert store.load_latest().position == 300

    def test_torn_newest_falls_back_to_previous(self, tmp_path):
        store = CheckpointStore(tmp_path, retain=3)
        store.save(SPEC, 100, engine_state(10))
        newest = store.save(SPEC, 200, engine_state(20))
        raw = newest.read_bytes()
        newest.write_bytes(raw[: len(raw) // 2])  # simulate a torn write
        checkpoint = store.load_latest()
        assert checkpoint.position == 100

    def test_all_torn_raises_with_details(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(SPEC, 100, engine_state(10))
        path.write_bytes(b"garbage")
        with pytest.raises(CheckpointError, match="all candidates failed"):
            store.load_latest()

    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoints"):
            CheckpointStore(tmp_path).load_latest()

    def test_restore_rebuilds_equivalent_engine(self, tmp_path):
        stream = [i % 50 for i in range(2000)]
        with build_engine(SPEC) as reference:
            reference.update_many(stream)
            expected = reference.top_k(10)
        with build_engine(SPEC) as source:
            source.update_many(stream[:1500])
            store = CheckpointStore(tmp_path)
            store.save(SPEC, 1500, source.snapshot_state())
        engine, position = store.restore()
        try:
            assert position == 1500
            engine.update_many(stream[position:])
            assert engine.top_k(10) == expected
        finally:
            engine.close()

    def test_retain_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="retain"):
            CheckpointStore(tmp_path, retain=0)
