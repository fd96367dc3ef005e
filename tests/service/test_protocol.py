"""``repro-wire/1`` framing: encode/decode round-trips and guards."""

from __future__ import annotations

import socket
import struct
import threading

import pytest

import numpy as np

from repro.service.protocol import (
    KIND_REPORT,
    MAX_FRAME,
    ProtocolError,
    decode_payload,
    encode_frame,
    encode_report,
    read_frame_sync,
    send_frame_sync,
)

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class TestEncodeDecode:
    def test_round_trip(self):
        message = {"op": "report", "items": [1, 2, 3], "id": 7}
        raw = encode_frame(message)
        length = struct.unpack(">I", raw[:4])[0]
        assert length == len(raw) - 4
        assert decode_payload(raw[4:]) == message

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_payload(b"[1, 2, 3]")

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError, match="JSON"):
            decode_payload(b"{nope")

    def test_oversized_frame_rejected(self):
        huge = {"blob": "x" * (MAX_FRAME + 1)}
        with pytest.raises(ProtocolError, match="MAX_FRAME"):
            encode_frame(huge)


class TestBinaryReport:
    def test_int_batch_is_binary_little_endian_int64(self):
        items = [1, -2, INT64_MIN, INT64_MAX, 0]
        raw = encode_report(items)
        length = struct.unpack(">I", raw[:4])[0]
        assert length == len(raw) - 4 == 1 + 8 * len(items)
        assert raw[4] == KIND_REPORT
        assert struct.unpack(f"<{len(items)}q", raw[5:]) == tuple(items)

    def test_binary_decodes_to_the_json_report_message(self):
        items = [3, INT64_MIN, INT64_MAX, 3]
        binary = decode_payload(encode_report(items)[4:])
        as_json = decode_payload(
            encode_frame({"op": "report", "items": items})[4:]
        )
        assert binary == as_json == {"op": "report", "items": items}
        assert all(type(item) is int for item in binary["items"])

    @pytest.mark.parametrize(
        "items",
        [
            [],
            [True, False],
            [1, True],
            ["a", "b"],
            [(1, 2), (3, 4)],
            [2**63],
            [INT64_MIN - 1],
            [1, 2**64],
            [1.0, 2.0],
        ],
        ids=[
            "empty", "bools", "int-and-bool", "str", "tuple", "2^63",
            "below-int64", "huge", "float",
        ],
    )
    def test_other_batches_fall_back_to_json(self, items):
        raw = encode_report(items)
        assert raw[4:5] == b"{"
        message = decode_payload(raw[4:])
        assert message["op"] == "report"
        assert len(message["items"]) == len(items)

    def test_numpy_scalars_are_not_silently_narrowed(self):
        # numpy keys are not exact ints: they take the JSON path, which
        # refuses them rather than changing their type on the way
        with pytest.raises(TypeError):
            encode_report([np.int64(5)])

    @pytest.mark.parametrize("extra", [1, 3, 7])
    def test_size_rule(self, extra):
        payload = bytes((KIND_REPORT,)) + bytes(8 * 2 + extra)
        with pytest.raises(ProtocolError, match="1 \\+ 8n"):
            decode_payload(payload)

    def test_unknown_kind_byte_rejected(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"\x02" + bytes(8))

    def test_empty_binary_report(self):
        assert decode_payload(bytes((KIND_REPORT,))) == {
            "op": "report", "items": []
        }


class TestSyncSocketIO:
    def pair(self):
        return socket.socketpair()

    def test_round_trip_over_socketpair(self):
        a, b = self.pair()
        try:
            send_frame_sync(a, {"op": "gap", "count": 4})
            send_frame_sync(a, {"op": "flush", "id": 1})
            assert read_frame_sync(b) == {"op": "gap", "count": 4}
            assert read_frame_sync(b) == {"op": "flush", "id": 1}
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = self.pair()
        try:
            a.close()
            assert read_frame_sync(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = self.pair()
        try:
            raw = encode_frame({"op": "flush", "id": 1})
            a.sendall(raw[: len(raw) - 2])
            a.close()
            with pytest.raises(ProtocolError, match="truncated"):
                read_frame_sync(b)
        finally:
            b.close()

    def test_hostile_length_prefix_raises(self):
        a, b = self.pair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME + 1))
            with pytest.raises(ProtocolError, match="MAX_FRAME"):
                read_frame_sync(b)
        finally:
            a.close()
            b.close()

    def test_large_frame_across_recv_chunks(self):
        # bigger than one recv() buffer: exercises the re-read loop
        message = {"op": "report", "items": list(range(50_000))}
        a, b = self.pair()
        try:
            writer = threading.Thread(
                target=send_frame_sync, args=(a, message)
            )
            writer.start()
            assert read_frame_sync(b) == message
            writer.join()
        finally:
            a.close()
            b.close()
