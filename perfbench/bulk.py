"""``bulk-hh``: the bare in-process engine fed 4096-packet chunks.

The paper's single-device case.  A closed loop feeds BACKBONE source
keys to ``update_many`` and, every window's worth of packets, reads
``top_k(32)``, ``heavy_hitters(0.005)`` and ``query`` on eight probe
keys.  Sharding, the service and the hierarchy do no work here.

The input is ``BLOCKS`` windows long and is fed round and round, so
every read sees a window that is exactly one block of the input; the
exact answers per block are computed once, untimed, with the program's
own exact window oracle.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.analysis.error_model import memento_sampling_error, total_epsilon
from repro.core.exact import ExactWindowCounter
from repro.engine import SketchSpec, build_engine
from repro.traffic.synth import BACKBONE, generate_trace

from .common import (
    MIN_READS,
    Outcome,
    Result,
    f1_score,
    p50_p90,
    release_free_memory,
    set_counts,
    status_mb,
)
from .spans import Tracer

WINDOW = 131_072
COUNTERS = 512
TAU = 0.1
CHUNK = 4096
BLOCKS = 16
THETA = 0.005
TOP_K = 32
PROBES = 8
SETUP_REPS = 31


def engine_spec(seed: int) -> SketchSpec:
    """The bench-trail geometry: memento, W=131072, 512 counters, τ=0.1."""
    return SketchSpec.from_dict(
        {
            "algorithm": {
                "family": "memento",
                "window": WINDOW,
                "counters": COUNTERS,
                "tau": TAU,
                "seed": seed,
            }
        }
    )


@dataclass
class Inputs:
    """The generated stream, its probe keys and the exact answers."""

    keys: List[int]
    probes: List[int]
    #: exact window count of each probe when the window is block ``b``
    probe_counts: List[List[int]]
    #: exact heavy-hitter set when the window is block ``b``
    heavy: List[Set[int]]


def make_inputs(seed: int) -> Inputs:
    """BACKBONE keys for ``BLOCKS`` windows plus per-block exact answers.

    Probes are the four heaviest flows of the whole input and four keys
    drawn at random from it, so both heavy and light flows are checked.
    """
    keys = generate_trace(BACKBONE, BLOCKS * WINDOW, seed=seed).src
    values, counts = np.unique(np.asarray(keys, dtype=np.int64), return_counts=True)
    heaviest = values[np.argsort(counts, kind="stable")[::-1][:4]]
    rng = np.random.default_rng(seed)
    probes = [int(v) for v in heaviest]
    for index in rng.permutation(len(keys)):
        if len(probes) == PROBES:
            break
        if keys[index] not in probes:
            probes.append(keys[index])
    oracle = ExactWindowCounter(WINDOW)
    probe_counts, heavy = [], []
    for block in range(BLOCKS):
        oracle.update_many(keys[block * WINDOW : (block + 1) * WINDOW])
        probe_counts.append([oracle.query(key) for key in probes])
        heavy.append(set(oracle.heavy_hitters(THETA)))
    return Inputs(keys, probes, probe_counts, heavy)


def setup_engine(spec: SketchSpec, first: List[int]) -> Tuple[object, float, float]:
    """Build an engine and apply one batch.

    Returns the engine, the build time, and the time from the build to
    the first batch applied and flushed.
    """
    began = perf_counter()
    engine = build_engine(spec)
    built = perf_counter()
    engine.update_many(first)
    engine.flush()
    return engine, built - began, perf_counter() - began


def run(seed: int, seconds: float, trace: bool) -> Result:
    outcome = Outcome()
    spec = engine_spec(seed)
    inputs = make_inputs(seed)
    keys, probes = inputs.keys, inputs.probes
    length = len(keys)
    chunks = [keys[i : i + CHUNK] for i in range(0, length, CHUNK)]
    release_free_memory()

    builds, setups = [], []
    for rep in range(SETUP_REPS):
        engine, build_s, setup_s = setup_engine(spec, keys[:CHUNK])
        builds.append(build_s)
        setups.append(setup_s)
        if rep < SETUP_REPS - 1:
            engine.close()
    outcome.attempted += SETUP_REPS

    tracer = Tracer()
    with engine:
        error_bound = WINDOW * total_epsilon(
            engine.epsilon, memento_sampling_error(WINDOW, TAU, spec.algorithm.delta)
        )

        def query_probes() -> List[float]:
            return [engine.query(key) for key in probes]

        plain = (engine.update_many, engine.top_k, engine.heavy_hitters, query_probes)
        traced = (
            tracer.wrap("core.update_many", engine.update_many, len),
            tracer.wrap("engine.read.top_k", engine.top_k),
            tracer.wrap("engine.read.heavy_hitters", engine.heavy_hitters),
            tracer.wrap("engine.read.query", query_probes),
        )
        latencies: List[float] = []
        tp = fp = fn = 0
        walls = [0.0, 0.0]  # untraced, traced
        packets = [0, 0]
        pos = CHUNK
        interval = 0
        rss = 0.0
        began = perf_counter()
        try:
            while True:
                on = bool(trace and interval % 2 == 0)
                update_many, top_k, heavy_hitters, query = traced if on else plain
                start = perf_counter()
                nxt = (pos // WINDOW + 1) * WINDOW
                fed = nxt - pos
                while pos < nxt:
                    update_many(chunks[pos % length // CHUNK])
                    pos += CHUNK
                r0 = perf_counter()
                top_k(TOP_K)
                r1 = perf_counter()
                heavy = heavy_hitters(THETA)
                r2 = perf_counter()
                estimates = query()
                r3 = perf_counter()
                latencies += [r1 - r0, r2 - r1, r3 - r2]
                done = (
                    r3 - began >= seconds and len(latencies) >= MIN_READS and pos >= length
                )
                if done:
                    engine.flush()  # the timed phase ends at a flush barrier
                walls[on] += perf_counter() - start
                packets[on] += fed
                outcome.attempted += fed // CHUNK + 2

                block = (pos // WINDOW - 1) % BLOCKS
                exact = inputs.probe_counts[block]
                worst = max(abs(e - x) for e, x in zip(estimates, exact))
                outcome.check(
                    worst <= error_bound,
                    f"read at {pos}: a probe is off by {worst:.0f} > "
                    f"ε·W = {error_bound:.0f}",
                )
                if pos <= length:
                    hits = set_counts(set(heavy), inputs.heavy[block])
                    tp, fp, fn = tp + hits[0], fp + hits[1], fn + hits[2]
                rss = max(rss, status_mb("self", "VmRSS"))
                interval += 1
                if done:
                    break
        except Exception:
            outcome.crash("bulk-hh timed loop")

    read_p50, read_p90 = p50_p90(latencies)
    metrics: Dict[str, float] = {
        "ingest_pps": sum(packets) / sum(walls),
        "read_p50_ms": 1e3 * read_p50,
        "read_p90_ms": 1e3 * read_p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "hh_f1": f1_score(tp, fp, fn),
        "engine.build_s": statistics.median(builds),
    }
    if trace:
        spans = tracer.summary()
        update = spans["core.update_many"]
        metrics.update(
            {
                "core.update_many.busy_s": update.total_s,
                "core.update_many.calls": update.calls,
                "core.update_many.items": update.items,
                "engine.read.top_k_ms": spans["engine.read.top_k"].p50_ms,
                "engine.read.heavy_hitters_ms": spans["engine.read.heavy_hitters"].p50_ms,
                "engine.read.query_ms": spans["engine.read.query"].p50_ms,
            }
        )
    facts = {
        "counted": {"hh_f1": metrics["hh_f1"]},
        "spec": spec.to_dict(),
        "reads": len(latencies),
        "timed_s": sum(walls),
        "error_bound": error_bound,
        "probes": probes,
    }
    return Result(outcome, metrics, facts, tracer, walls, packets)
