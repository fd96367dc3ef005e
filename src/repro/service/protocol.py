"""``repro-wire/1``: the service's length-prefixed frame format.

One frame = a 4-byte big-endian payload length followed by that many
payload bytes.  The explicit prefix (over newline-delimited JSON) gives
the server an exact byte count per frame *before* parsing, which is
what the inflight-bytes backpressure budget meters, and lets clients
stream frames without worrying about embedded newlines.

A payload is one of two kinds, told apart by its first byte:

* **JSON** — UTF-8 JSON encoding a single object, so the first byte is
  always ``{``.  Every control op and every response is JSON.
* **Binary report** — the kind byte ``0x01`` followed by ``n``
  little-endian int64 keys, so the payload is exactly ``1 + 8n`` bytes;
  any other size is a malformed frame.  It means the same as the JSON
  frame ``{"op": "report", "items": [...]}`` with those keys, without
  the per-key text encoding and parsing.

:func:`encode_report` picks the binary kind only when every key is an
exact ``int`` inside int64 (the probe of
:func:`repro.core.kernel.all_exact_ints`; bools and numpy scalars do
not qualify); any other batch — strings, tuples, bools, ints beyond
int64, the empty batch — goes as a JSON report, and so do ``gap`` and
every control op.  The binary kind is an additive extension of
``repro-wire/1`` with no negotiation: a JSON-only client is served
unchanged, and a client may mix both kinds on one connection.

Requests carry ``{"op": ..., "id": ...}`` plus op-specific fields;
responses echo ``id`` and carry ``{"ok": true, ...}`` or
``{"ok": false, "error": ...}``.  Report/gap frames are fire-and-forget
(no response) so a client can saturate the socket; any ingestion
failure surfaces on the next synchronous op (``flush``/query) and in
:class:`~repro.service.server.IngestServer` stats.

Both async (async client) and blocking-socket (sync client)
read/write helpers live here so the two sides cannot drift; the
server parses frames straight out of its read buffer.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Dict, Hashable, Optional, Sequence

import numpy as np

from ..core.kernel import all_exact_ints

__all__ = [
    "KIND_REPORT",
    "MAX_FRAME",
    "PREFIX",
    "ProtocolError",
    "check_length",
    "check_report_size",
    "encode_frame",
    "encode_report",
    "decode_payload",
    "read_frame_async",
    "read_frame_sync",
    "rekey",
    "send_frame_sync",
]

#: Hard per-frame ceiling (bytes of payload).  A length prefix beyond
#: this is treated as a corrupt or hostile stream, not an allocation
#: request.
MAX_FRAME = 64 * 1024 * 1024

#: First payload byte of a binary report (a JSON payload starts with
#: ``{``, so the two kinds never collide).
KIND_REPORT = 0x01
_KIND_REPORT_BYTE = bytes((KIND_REPORT,))

#: The 4-byte big-endian length prefix of every frame.
PREFIX = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A malformed frame (bad length prefix, truncation, bad payload)."""


def encode_frame(message: Dict[str, object]) -> bytes:
    """Serialize one message to its on-wire bytes (prefix + JSON)."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    return PREFIX.pack(len(payload)) + payload


def encode_report(items: Sequence[Hashable]) -> bytes:
    """The on-wire bytes of one ``report``: binary when every key is an
    exact int64 ``int``, a JSON report frame otherwise."""
    n = len(items)
    size = 1 + 8 * n
    if size <= MAX_FRAME and all_exact_ints(items):
        try:
            body = struct.pack(f"<{n}q", *items)
        except struct.error:
            pass  # a key outside int64: JSON carries arbitrary ints
        else:
            return PREFIX.pack(size) + _KIND_REPORT_BYTE + body
    return encode_frame({"op": "report", "items": list(items)})


def rekey(key: object) -> Hashable:
    """JSON round-trip repair: list-encoded tuple keys become tuples."""
    if isinstance(key, list):
        return tuple(rekey(part) for part in key)
    return key


def decode_payload(payload: bytes) -> Dict[str, object]:
    """Parse a frame payload into its message dict.

    A binary report decodes to the equivalent JSON report message,
    ``{"op": "report", "items": [...]}`` with plain ``int`` keys.
    """
    if payload[:1] == _KIND_REPORT_BYTE:
        check_report_size(len(payload))
        items = np.frombuffer(payload, dtype="<i8", offset=1).tolist()
        return {"op": "report", "items": items}
    try:
        message = json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must encode an object, got {type(message).__name__}"
        )
    return message


def check_report_size(length: int) -> None:
    """:class:`ProtocolError` unless a binary report payload of
    ``length`` bytes is the kind byte plus whole int64 keys."""
    if length % 8 != 1:
        raise ProtocolError(f"binary report of {length} bytes is not 1 + 8n")


def check_length(length: int) -> int:
    """``length`` itself, or :class:`ProtocolError` above ``MAX_FRAME``."""
    if length > MAX_FRAME:
        raise ProtocolError(
            f"frame length {length} exceeds MAX_FRAME={MAX_FRAME}"
        )
    return length


async def read_frame_async(
    reader: asyncio.StreamReader,
) -> Optional[Dict[str, object]]:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        raw = await reader.readexactly(PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("stream truncated inside a length prefix") from None
    length = check_length(PREFIX.unpack(raw)[0])
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("stream truncated inside a frame") from None
    return decode_payload(payload)


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError(
                f"stream truncated: wanted {count} bytes, got {count - remaining}"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sync(sock: socket.socket) -> Optional[Dict[str, object]]:
    """Blocking :func:`read_frame_async`; ``None`` on clean EOF."""
    first = sock.recv(1)
    if not first:
        return None
    raw = first + _recv_exactly(sock, PREFIX.size - 1)
    length = check_length(PREFIX.unpack(raw)[0])
    return decode_payload(_recv_exactly(sock, length))


def send_frame_sync(sock: socket.socket, message: Dict[str, object]) -> None:
    """Blocking send of one message (the socket's own buffering applies)."""
    sock.sendall(encode_frame(message))
