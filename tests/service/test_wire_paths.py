"""Differential: every way a report can reach the daemon gives one answer.

One int stream goes in four ways — binary report frames, JSON report
frames, the two interleaved on one connection, and straight into an
in-process engine — and every answer must agree: ``top_k``,
``heavy_hitters``, ``query``, the ``flush()`` position and the
checkpoint position.  Keys the binary kind cannot carry travel as JSON
and come back with their own type.
"""

from __future__ import annotations

import socket
from pathlib import Path

import pytest

from repro import BACKBONE, generate_trace
from repro.engine import SketchSpec, build_engine
from repro.service import ServiceClient, ServiceDaemon
from repro.service.protocol import encode_frame, encode_report

SPECS = Path(__file__).resolve().parents[2] / "specs"

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
FRAME = 32
THETA = 0.02
TOP = 10


def bare_spec() -> dict:
    return {
        "algorithm": {
            "family": "memento",
            "window": 4096,
            "counters": 64,
            "tau": 0.25,
            "seed": 7,
        },
        "service": {"port": 0},
    }


def sharded_spec() -> dict:
    """The checked-in 4-shard persistent+shm pipelined service spec."""
    payload = SketchSpec.from_json(
        (SPECS / "service_memento_shm.json").read_text()
    ).to_dict()
    payload["algorithm"]["window"] = 8192
    return payload


SPEC_CASES = {"bare": bare_spec, "sharded-shm": sharded_spec}


@pytest.fixture(scope="module")
def stream():
    keys = generate_trace(BACKBONE, 12_000, seed=5).packets_1d()
    # int64 edge values, frequent enough to be heavy in every window
    for i in range(0, len(keys), 9):
        keys[i] = INT64_MIN if i % 2 else INT64_MAX
    return keys


def frames(stream):
    return [stream[i : i + FRAME] for i in range(0, len(stream), FRAME)]


def probes(stream):
    return [INT64_MIN, INT64_MAX, stream[1], stream[2], -1, 0]


def direct_answers(spec: dict, stream) -> dict:
    with build_engine(spec) as engine:
        for frame in frames(stream):
            engine.update_many(frame)
        engine.flush()
        return {
            "position": len(stream),
            "checkpoint": len(stream),
            "top_k": engine.top_k(TOP),
            "heavy_hitters": engine.heavy_hitters(THETA),
            "query": [engine.query(key) for key in probes(stream)],
        }


def served_answers(spec: dict, stream, way: str, tmp_path) -> dict:
    spec = dict(spec, service=dict(spec["service"], checkpoint_dir=str(tmp_path)))
    with ServiceDaemon(spec) as daemon:
        sock = socket.create_connection(("127.0.0.1", daemon.port))
        with ServiceClient(sock) as client:
            for number, frame in enumerate(frames(stream)):
                binary = way == "binary" or (way == "mixed" and number % 2)
                if binary:
                    raw = encode_report(frame)
                    assert raw[4:5] == b"\x01"
                else:
                    raw = encode_frame({"op": "report", "items": frame})
                sock.sendall(raw)
            position = client.flush()
            _, checkpoint = client.checkpoint()
            return {
                "position": position,
                "checkpoint": checkpoint,
                "top_k": client.top_k(TOP),
                "heavy_hitters": client.heavy_hitters(THETA),
                "query": [client.query(key) for key in probes(stream)],
            }


@pytest.mark.parametrize("case", sorted(SPEC_CASES))
def test_wire_paths_agree(case, stream, tmp_path):
    spec = SPEC_CASES[case]()
    expected = direct_answers(spec, stream)
    assert expected["heavy_hitters"], "the stream must have heavy hitters"
    assert {INT64_MIN, INT64_MAX} <= set(expected["heavy_hitters"])
    for way in ("binary", "json", "mixed"):
        got = served_answers(spec, stream, way, tmp_path / way)
        assert got == expected, way
        for key in got["heavy_hitters"]:
            assert type(key) is int


@pytest.mark.parametrize(
    "batch",
    [[True, True, False], ["hot", "hot", "cold"], [(1, 2), (1, 2), (3, 4)],
     [2**63, 2**63, 5], []],
    ids=["bool", "str", "tuple", "2^63", "empty"],
)
def test_non_int64_keys_travel_as_json(batch):
    assert encode_report(batch)[4:5] == b"{"
    spec = {"algorithm": {"family": "exact", "window": 1000},
            "service": {"port": 0}}
    with ServiceDaemon(spec) as daemon:
        with ServiceClient.connect(port=daemon.port) as client:
            client.report(batch)
            client.report([9, 9])  # binary, behind the JSON frame
            assert client.flush() == len(batch) + 2
            top = client.top_k(5)
            heavy = client.heavy_hitters(0.0001)
            for key in set(batch):
                assert client.query(key) == float(batch.count(key))
    returned = {key: type(key) for key, _ in top}
    assert returned == {key: type(key) for key in set(batch) | {9}}
    assert set(heavy) == set(batch) | {9}
