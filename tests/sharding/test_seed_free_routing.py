"""Routing and checkpoints do not depend on the interpreter's hash seed.

``shard_index`` hashes ``str``, ``bytes`` and tuple keys with BLAKE2b
instead of ``hash()``, so every process routes them alike whatever its
``PYTHONHASHSEED``; a checkpoint taken under one seed restores under
another with the same answers.  Each case runs fresh interpreters with
fixed, different seeds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import shard_index

SRC = Path(__file__).resolve().parents[2] / "src"

KEYS = '["hot", "cold", "", b"hot", ("a", 1), ("a", (b"b", 2)), (1, 2.0), 17, -3]'

ROUTE = f"""
import json
from repro import shard_index
print(json.dumps([shard_index(key, shards) for key in {KEYS} for shards in (2, 3, 4, 7)]))
"""

SPEC = {
    "algorithm": {"family": "memento", "window": 4096, "counters": 64, "seed": 5},
    "sharding": {"shards": 4},
}

FEED = """
import json, sys
from repro.engine import build_engine
from repro.service.checkpoint import CheckpointStore

directory, spec = sys.argv[1], json.loads(sys.argv[2])
store = CheckpointStore(directory)
traffic = [f"flow-{i % 37}" for i in range(1500)]
head = ["hot"] * 500 + traffic
tail = traffic[:700] + ["hot"] * 200
if sys.argv[3] == "snapshot":
    with build_engine(spec) as engine:
        engine.update_many(head)
        store.save(engine.spec, len(head), engine.snapshot_state())
        before = engine.query("hot")
        engine.update_many(tail)
        after = engine.query("hot")
else:
    engine, position = store.restore()
    with engine:
        assert position == len(head)
        before = engine.query("hot")
        engine.update_many(tail)
        after = engine.query("hot")
print(json.dumps([before, after]))
"""


def run(code, seed, *args):
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_routing_is_the_same_under_every_hash_seed():
    owners = [run(ROUTE, seed) for seed in (1, 2, 3, 4)]
    assert all(routed == owners[0] for routed in owners)


def test_checkpoint_restores_under_another_hash_seed(tmp_path):
    spec = json.dumps(SPEC)
    uninterrupted = run(FEED, 1, str(tmp_path), spec, "snapshot")
    restored = run(FEED, 2, str(tmp_path), spec, "restore")
    assert restored == uninterrupted
    assert uninterrupted[0] > 0


@pytest.mark.parametrize(
    "key, equal",
    [
        ((1, "a"), (1.0, "a")),
        ((True, b"x"), (1, b"x")),
        ((np.int64(5), ("k", 2)), (5, ("k", np.uint8(2)))),
        (np.str_("hot"), "hot"),
    ],
)
def test_equal_keys_route_alike(key, equal):
    assert key == equal
    for shards in (2, 3, 4, 7):
        assert shard_index(key, shards) == shard_index(equal, shards)
