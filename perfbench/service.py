"""``service-mixed``: ``repro-serve`` in its own process, one writer, one reader.

The daemon hosts the ``bulk-hh`` spec and checkpoints every 2^19
packets into a temporary directory of the checkout.  One feeder
connection sends 32-packet ``report`` frames as fast as the daemon's
byte budget admits (a closed loop through backpressure); one reader
connection cycles through ``top_k(32)``, ``heavy_hitters(0.005)`` and
``query`` with a 5 ms think time.  The run ends with a ``flush``.

The feeder stops on a window boundary of the input, so the final
window is one block of it and the exact answers of ``bulk-hh`` apply.
The final answers must equal those of an in-process engine built from
the same spec and fed the same frames.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter, sleep
from typing import Dict, List, Optional

import numpy as np

from repro.engine import build_engine
from repro.service.client import ServiceClient
from repro.service.protocol import decode_payload, encode_frame

from . import bulk
from .common import (
    MIN_READS,
    ROOT,
    Outcome,
    Result,
    cpu_seconds,
    f1_score,
    p50_p90,
    set_counts,
    status_mb,
    work_dir,
)
from .spans import SpanStats, Tracer

FRAME = 32
CHECKPOINT_EVERY = 1 << 19
THINK_S = 0.005
SETUP_REPS = 5
#: the feeder checks the clock every this many frames
FRAMES_PER_STEP = 128
#: tracing is switched on and off in slices of this length
SLICE_S = 0.5
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def split(keys: List[int]) -> List[List[int]]:
    """The input cut into report frames."""
    return [keys[i : i + FRAME] for i in range(0, len(keys), FRAME)]


class Daemon:
    """One ``repro-serve`` process, started and stopped with ``with``.

    Stopping sends SIGTERM and checks that the daemon exits 0.
    """

    def __init__(self, spec_path: Path, checkpoint_dir: Path, outcome: Outcome) -> None:
        self._args = [
            sys.executable, "-m", "repro.service", str(spec_path),
            "--checkpoint-dir", str(checkpoint_dir),
        ]
        self._outcome = outcome
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.spawn_s = 0.0

    def __enter__(self) -> "Daemon":
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        began = perf_counter()
        self.proc = subprocess.Popen(
            self._args, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError("repro-serve did not report that it is listening")
            self.port = int(json.loads(line)["port"])
        except BaseException:
            self._stop()
            raise
        self.spawn_s = perf_counter() - began
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop()

    def _stop(self) -> None:
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        proc.stdout.close()
        self._outcome.check(code == 0, f"repro-serve exited {code} on SIGTERM")


class _Reader(threading.Thread):
    """The reader connection: three read kinds in turn, 5 ms apart."""

    def __init__(self, port: int, probes: List[int]) -> None:
        super().__init__(name="perfbench-reader")
        self.port, self.probes = port, probes
        #: set by the feeder: whether the current time slice is traced
        self.traced = False
        self.stop = threading.Event()
        self.outcome = Outcome()
        self.tracer = Tracer()
        self.latencies: List[float] = []

    def run(self) -> None:
        try:
            with ServiceClient.connect(port=self.port, timeout=STOP_TIMEOUT_S) as client:
                reads = [
                    lambda: client.top_k(bulk.TOP_K),
                    lambda: client.heavy_hitters(bulk.THETA),
                    lambda: client.query(self.probes[len(self.latencies) // 3 % bulk.PROBES]),
                ]
                names = ("service.read.top_k", "service.read.heavy_hitters", "service.read.query")
                traced = [self.tracer.wrap(n, fn) for n, fn in zip(names, reads)]
                while not self.stop.is_set():
                    kind = len(self.latencies) % 3
                    read = (traced if self.traced else reads)[kind]
                    began = perf_counter()
                    read()
                    self.latencies.append(perf_counter() - began)
                    self.outcome.attempted += 1
                    sleep(THINK_S)
        except Exception:
            self.outcome.crash("service reader")


def run(seed: int, seconds: float, trace: bool) -> Result:
    outcome = Outcome()
    spec = bulk.engine_spec(seed)
    inputs = bulk.make_inputs(seed)
    keys, probes = inputs.keys, inputs.probes
    length = len(keys)
    served = spec.to_dict()
    served["service"] = {"port": 0, "checkpoint_interval": CHECKPOINT_EVERY}

    setups, spawns = [], []
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=work_dir()) as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(json.dumps(served))
        for rep in range(SETUP_REPS):
            began = perf_counter()
            with Daemon(spec_path, Path(tmp) / f"ckpt-{rep}", outcome) as daemon:
                with ServiceClient.connect(port=daemon.port, timeout=STOP_TIMEOUT_S) as feeder:
                    feeder.report(keys[:FRAME])
                    feeder.flush()
                    setups.append(perf_counter() - began)
                    spawns.append(daemon.spawn_s)
                    outcome.attempted += 2
                    if rep == SETUP_REPS - 1:
                        timed = _timed_phase(
                            daemon, feeder, inputs, seconds, trace, tracer, outcome
                        )

    pos = timed["pos"]
    final = timed["final"]
    replay = _replay(spec, keys, probes, pos)
    for name in ("top_k", "heavy_hitters", "query"):
        outcome.check(
            final[name] == replay[name],
            f"final {name} differs from the in-process engine fed the same frames",
        )

    stats = timed["stats"]
    pauses = [1e3 * p for p in stats["checkpoint_pauses_s"]] or [0.0]
    read_p50, read_p90 = p50_p90(timed["latencies"])
    metrics: Dict[str, float] = {
        "ingest_pps": sum(timed["packets"]) / sum(timed["walls"]),
        "read_p50_ms": 1e3 * read_p50,
        "read_p90_ms": 1e3 * read_p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["hwm_mb"],
        "hh_f1": timed["hh_f1"],
        "engine.build_s": replay["build_s"],
        "service.spawn_s": statistics.median(spawns),
        "service.inflight_peak_bytes": stats["inflight_peak_bytes"],
        "service.checkpoints": stats["checkpoints_written"],
        "service.checkpoint_pause_p50_ms": statistics.median(pauses),
        "service.checkpoint_pause_max_ms": max(pauses),
        "service.daemon.cpu_s": timed["cpu_s"],
        "service.daemon.hwm_mb": timed["hwm_mb"],
    }
    if trace:
        spans = tracer.summary()
        report = spans.get("service.report", SpanStats())
        reads = timed["read_spans"]
        encode_s, decode_s, sizes = _codec(keys)
        metrics.update(
            {
                "core.replay_pps": pos / replay["replay_s"],
                "service.report.busy_s": report.total_s,
                "service.report.calls": report.calls,
                "service.report.bytes": sum(
                    int(sizes[np.arange(p0, p1, FRAME) % length // FRAME].sum())
                    for p0, p1 in timed["traced_frames"]
                ),
                "service.codec.encode_s": encode_s,
                "service.codec.decode_s": decode_s,
                "service.read.top_k_ms": reads.get("service.read.top_k", SpanStats()).p50_ms,
                "service.read.heavy_hitters_ms": reads.get(
                    "service.read.heavy_hitters", SpanStats()
                ).p50_ms,
                "service.read.query_ms": reads.get("service.read.query", SpanStats()).p50_ms,
            }
        )
    facts = {
        "spec": json.loads(json.dumps(served)),
        "reads": len(timed["latencies"]),
        "timed_s": sum(timed["walls"]),
        "packets": pos,
    }
    return Result(outcome, metrics, facts, tracer, timed["walls"], timed["packets"])


def _timed_phase(daemon, feeder, inputs, seconds, trace, tracer, outcome) -> Dict[str, object]:
    """Feed and read until the time is up; the run's measurements."""
    frames = itertools.cycle(split(inputs.keys))
    next(frames)  # the set-up batch
    reader = _Reader(daemon.port, inputs.probes)
    report = {False: feeder.report, True: tracer.wrap("service.report", feeder.report, len)}
    flush = {False: feeder.flush, True: tracer.wrap("service.flush", feeder.flush)}
    walls, packets = [0.0, 0.0], [0, 0]
    traced_frames = []
    pos = FRAME
    pid = daemon.proc.pid
    cpu_before = cpu_seconds(pid)
    reader.start()
    began = perf_counter()
    try:
        for number in itertools.count():
            reader.traced = on = bool(trace and number % 2 == 0)
            send = report[on]
            slice_pos = pos
            start = perf_counter()
            while perf_counter() - start < SLICE_S:
                for frame in itertools.islice(frames, FRAMES_PER_STEP):
                    send(frame)
                pos += FRAME * FRAMES_PER_STEP
            done = (
                perf_counter() - began >= seconds and len(reader.latencies) >= MIN_READS
            )
            if done:
                while pos % bulk.WINDOW:
                    send(next(frames))
                    pos += FRAME
                flush[on]()
            walls[on] += perf_counter() - start
            packets[on] += pos - slice_pos
            outcome.attempted += (pos - slice_pos) // FRAME
            if on:
                traced_frames.append((slice_pos, pos))
            if done:
                break
    except Exception:
        outcome.crash("service feeder")
    reader.stop.set()
    reader.join(STOP_TIMEOUT_S)
    outcome.check(not reader.is_alive(), "service reader did not stop")
    outcome.attempted += reader.outcome.attempted
    outcome.failed += reader.outcome.failed
    outcome.reasons += reader.outcome.reasons

    final = {
        "top_k": [tuple(pair) for pair in feeder.top_k(bulk.TOP_K)],
        "heavy_hitters": feeder.heavy_hitters(bulk.THETA),
        "query": [feeder.query(key) for key in inputs.probes],
    }
    stats = feeder.stats()
    cpu_s = cpu_seconds(pid) - cpu_before
    hwm_mb = status_mb(pid)
    outcome.attempted += 3 + len(inputs.probes)

    # Untimed: one more pass of the input, read on the feeder's own
    # connection at each window boundary, so hh_f1 rests on as many
    # windows as bulk-hh's rather than on the final read alone.
    tp, fp, fn = set_counts(
        set(final["heavy_hitters"]), inputs.heavy[(pos // bulk.WINDOW - 1) % bulk.BLOCKS]
    )
    for block in range(bulk.BLOCKS):
        for _ in range(bulk.WINDOW // FRAME):
            feeder.report(next(frames))
        hits = set_counts(set(feeder.heavy_hitters(bulk.THETA)), inputs.heavy[
            (pos // bulk.WINDOW + block) % bulk.BLOCKS
        ])
        tp, fp, fn = tp + hits[0], fp + hits[1], fn + hits[2]
    outcome.attempted += bulk.BLOCKS * (1 + bulk.WINDOW // FRAME)
    return {
        "pos": pos,
        "walls": walls,
        "packets": packets,
        "traced_frames": traced_frames,
        "latencies": reader.latencies,
        "read_spans": reader.tracer.summary(),
        "final": final,
        "stats": stats,
        "cpu_s": cpu_s,
        "hwm_mb": hwm_mb,
        "hh_f1": f1_score(tp, fp, fn),
    }


def _replay(spec, keys: List[int], probes: List[int], upto: int) -> Dict[str, object]:
    """The same packets through an in-process engine built from the spec.

    The daemon merges the report frames queued behind each other into
    one ``update_many``, so the engine there sees large batches; the
    replay feeds bulk-sized chunks, which leave the same state.
    """
    length = len(keys)
    began = perf_counter()
    with build_engine(spec) as engine:
        built = perf_counter()
        for pos in range(0, upto, bulk.CHUNK):
            index = pos % length
            engine.update_many(keys[index : index + min(bulk.CHUNK, upto - pos)])
        engine.flush()
        replayed = perf_counter()
        return {
            "build_s": built - began,
            "replay_s": replayed - built,
            "top_k": [tuple(pair) for pair in engine.top_k(bulk.TOP_K)],
            "heavy_hitters": engine.heavy_hitters(bulk.THETA),
            "query": [engine.query(key) for key in probes],
        }


def _codec(keys: List[int]):
    """Encode, then decode, the report frames of one pass of the input.

    Returns the encode time, the decode time, and each frame's size on
    the wire.
    """
    frames = split(keys)
    began = perf_counter()
    wire = [encode_frame({"op": "report", "items": frame}) for frame in frames]
    encoded = perf_counter()
    for frame in wire:
        decode_payload(frame[4:])
    decoded = perf_counter()
    return encoded - began, decoded - encoded, np.array([len(f) for f in wire])
