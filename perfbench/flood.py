"""``flood-netwide``: the §6.4 HTTP flood seen by a sharded controller.

Fifty random /8 subnets flood a BACKBONE trace at a 70% share from a
fixed start at 1/6 of the base trace.  Ten ``SamplingPoint``s (round
robin, as in fig10) cut the traffic into Batch reports at a
1 byte/packet budget; ``NetwideSystem`` resolves τ and the batch size.
The reports are built during set-up.

The timed loop feeds the reports, in the order they were sent, to
``SketchController.receive`` of a D-H-Memento controller: window
100000, 12500 counters, the ``src`` hierarchy, 2 shards on the
persistent executor with the ``shm`` transport and a 4096-item pipeline
buffer.  Every 16384 stream packets it calls ``flush()`` and then
``query_point`` on all 50 flood subnets: the fig10 detection rule, run
every time so that every read does the same work.

The trace is replayed pass after pass, each on a freshly built
controller, until the run's time is up; every complete pass must detect
the same subnets at the same instants as the first.  The counted
metrics come from the first pass.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.exact import ExactWindowCounter
from repro.engine import SketchSpec, build_engine
from repro.hierarchy.domain import SRC_HIERARCHY
from repro.hierarchy.prefix import MASKS
from repro.netwide.controller import SketchController
from repro.netwide.messages import BatchReport
from repro.netwide.simulation import NetwideConfig, NetwideSystem
from repro.traffic.flood import FloodSpec, inject_flood
from repro.traffic.synth import BACKBONE, generate_trace

from .common import (
    MIN_READS,
    Outcome,
    Result,
    cpu_seconds,
    f1_score,
    p50_p90,
    pss_mb,
    release_free_memory,
    set_counts,
    worker_pids,
)
from .spans import SpanStats, Tracer

WINDOW = 100_000
COUNTERS = 12_500
POINTS = 10
BASE_LENGTH = 120_000
THETA = 0.005
READ_EVERY = 16_384
SHARDS = 2
BUFFER = 4096

Prefix = Tuple[int, int]


def controller_template(seed: int) -> SketchSpec:
    """The controller's spec before ``NetwideSystem`` pins τ."""
    return SketchSpec.from_dict(
        {
            "algorithm": {
                "family": "h_memento",
                "window": WINDOW,
                "counters": COUNTERS,
                "seed": seed,
            },
            "hierarchy": {"kind": "src"},
            "sharding": {"shards": SHARDS, "executor": "persistent", "transport": "shm"},
            "pipeline": {"buffer_size": BUFFER},
        }
    )


@dataclass
class Inputs:
    """Reports in send order plus the exact (OPT) view of the flood."""

    spec: SketchSpec
    reports: List[BatchReport]
    #: global packet index at which each report was sent
    sent_at: List[int]
    #: index of the report after which each read happens
    read_after: List[int]
    subnets: List[Prefix]
    #: exact window count of each subnet at each read
    exact: List[List[int]]
    #: subnets whose exact window count is over θ·W at each read
    truth: List[Set[Prefix]]
    #: sorted global indices of each subnet's flood packets
    attacks: Dict[Prefix, np.ndarray]
    start: int
    tau: float
    batch_size: int
    #: the paper's bound on |estimate - exact| in packets: Theorem 5.5's
    #: delay and sampling error plus the counters' algorithmic error
    bound: float


def make_inputs(seed: int) -> Inputs:
    base = generate_trace(BACKBONE, BASE_LENGTH, seed=seed)
    flood = inject_flood(
        base.packets_1d(), spec=FloodSpec(), seed=seed + 1, start_index=BASE_LENGTH // 6
    )
    config = NetwideConfig(
        points=POINTS,
        method="batch",
        budget=1.0,
        window=WINDOW,
        counters=COUNTERS,
        hierarchy=SRC_HIERARCHY,
        seed=seed,
        spec=controller_template(seed),
    )
    tagged = []
    with NetwideSystem(config) as system:
        spec, tau, batch_size = system.resolved_spec, system.tau, system.batch_size
        # H-Memento's algorithmic error is 4H/counters of the window per
        # shard, and the controller sums its shards' estimates
        algorithmic = WINDOW * 4 * SRC_HIERARCHY.num_patterns / spec.algorithm.counters
        bound = system.model.total_error(batch_size) + SHARDS * algorithmic
        for p, point in enumerate(system.points):
            seen = 0
            for report in point.observe_many(flood.src[p::POINTS]):
                seen += report.covered
                tagged.append(((seen - 1) * POINTS + p, report))
    tagged.sort(key=lambda pair: pair[0])
    sent_at = [at for at, _ in tagged]
    reports = [report for _, report in tagged]

    read_after, covered, nxt = [], 0, READ_EVERY
    for j, report in enumerate(reports):
        covered += report.covered
        if covered >= nxt:
            read_after.append(j)
            while nxt <= covered:
                nxt += READ_EVERY

    mask = MASKS[8]
    src = np.asarray(flood.src, dtype=np.int64)
    subnet_ids = (src & mask).tolist()
    oracle = ExactWindowCounter(WINDOW)
    exact, truth, done = [], [], 0
    bar = THETA * WINDOW
    for j in read_after:
        upto = sent_at[j] + 1
        oracle.update_many([(s, 8) for s in subnet_ids[done:upto]])
        done = upto
        counts = [oracle.query(s) for s in flood.subnets]
        exact.append(counts)
        truth.append({s for s, c in zip(flood.subnets, counts) if c > bar})

    attack_at = np.flatnonzero(np.asarray(flood.is_attack))
    attack_subnet = src[attack_at] & mask
    attacks = {s: attack_at[attack_subnet == s[0]] for s in flood.subnets}
    return Inputs(
        spec, reports, sent_at, read_after, list(flood.subnets), exact, truth,
        attacks, flood.start_index, tau, batch_size, bound,
    )


def missed_packets(inputs: Inputs, detected: Dict[Prefix, int]) -> int:
    """Flood packets sent before (or at) their subnet's detection."""
    missed = 0
    for subnet, at in inputs.attacks.items():
        when = detected.get(subnet)
        missed += len(at) if when is None else int(np.searchsorted(at, when, side="right"))
    return missed


def first_detections(inputs: Inputs, found: List[Set[Prefix]]) -> Dict[Prefix, int]:
    """Global packet index of the first read that flagged each subnet."""
    detected: Dict[Prefix, int] = {}
    for k, flagged in enumerate(found):
        for subnet in flagged:
            detected.setdefault(subnet, inputs.sent_at[inputs.read_after[k]])
    return detected


class _TimedEngine:
    """The engine a traced ``SketchController`` calls: times each ingest."""

    def __init__(self, engine: object, tracer: Tracer) -> None:
        self.ingest_sample = tracer.wrap(
            "sharding.ingest.samples", engine.ingest_sample, lambda item: 1
        )
        self.ingest_samples = tracer.wrap(
            "sharding.ingest.samples", engine.ingest_samples, len
        )
        self.ingest_gap = tracer.wrap("sharding.ingest.gap", engine.ingest_gap, int)


@dataclass
class Pass:
    """What one pass over the reports measured."""

    found: List[Set[Prefix]]
    latencies: List[float]
    complete: bool
    #: reports, samples and packets the controller received
    counts: Tuple[int, int, int]


def run(seed: int, seconds: float, trace: bool) -> Result:
    outcome = Outcome()
    inputs = make_inputs(seed)
    release_free_memory()
    reports, subnets = inputs.reports, inputs.subnets
    segments = inputs.read_after + [len(reports) - 1]
    bar = THETA * WINDOW

    tracer = Tracer()
    builds, spawns, setups, rss = [], [], [], []
    passes: List[Pass] = []
    walls, packets = [0.0, 0.0], [0, 0]
    cpu = [0.0, 0.0]  # parent, workers; traced intervals only
    interval = 0

    def enough(reads: int = 0) -> bool:
        return (
            bool(passes)
            and passes[0].complete
            and sum(walls) >= seconds
            and reads + sum(len(p.latencies) for p in passes) >= MIN_READS
        )

    while not enough() and not outcome.failed:
        began = perf_counter()
        engine = build_engine(inputs.spec)
        with engine:
            built = perf_counter()
            plain = SketchController(engine)
            timed = SketchController(_TimedEngine(engine, tracer))
            plain.receive(reports[0])
            applied = perf_counter()
            engine.flush()
            done = perf_counter()
            builds.append(built - began)
            spawns.append(done - applied)
            setups.append(done - began)
            outcome.attempted += 1
            workers = worker_pids()

            def detect() -> List[float]:
                engine.flush()
                return [engine.query_point(s) for s in subnets]

            def detect_traced() -> List[float]:
                flush_t()
                first = sync_t(subnets[0])
                return [first] + rest_t()

            flush_t = tracer.wrap("sharding.flush", engine.flush)
            sync_t = tracer.wrap("sharding.sync", engine.query_point)
            rest_t = tracer.wrap(
                "engine.read.query_point",
                lambda: [engine.query_point(s) for s in subnets[1:]],
            )
            ops = {
                False: (plain.receive, engine.flush, detect),
                True: (
                    tracer.wrap("netwide.receive", timed.receive, lambda r: r.covered),
                    flush_t,
                    tracer.wrap("netwide.detect", detect_traced),
                ),
            }
            found: List[Set[Prefix]] = []
            latencies: List[float] = []
            errors: List[float] = []
            j = 1
            try:
                for k, last in enumerate(segments):
                    on = bool(trace and interval % 2 == 0)
                    receive, flush, read = ops[on]
                    if on:
                        cpu_before = (cpu_seconds("self"), sum(map(cpu_seconds, workers)))
                    start = perf_counter()
                    fed = 0
                    while j <= last:
                        receive(reports[j])
                        fed += reports[j].covered
                        j += 1
                    if k < len(inputs.read_after):
                        r0 = perf_counter()
                        estimates = read()
                        latencies.append(perf_counter() - r0)
                        found.append({s for s, e in zip(subnets, estimates) if e > bar})
                        errors.append(max(map(abs, np.subtract(estimates, inputs.exact[k]))))
                    else:
                        flush()  # the end of a pass is a flush barrier
                    walls[on] += perf_counter() - start
                    packets[on] += fed
                    if on:
                        cpu[0] += cpu_seconds("self") - cpu_before[0]
                        cpu[1] += sum(map(cpu_seconds, workers)) - cpu_before[1]
                    interval += 1
                    if enough(len(latencies)):
                        break
            except Exception:
                outcome.crash("flood-netwide timed loop")
            # Proportional set sizes add up without counting twice the
            # pages the forked workers share with the parent.  Freed heap
            # is released first: how much of it glibc keeps varies from
            # run to run by tens of MB.
            release_free_memory()
            rss.append(pss_mb("self") + sum(map(pss_mb, workers)))
            outcome.attempted += j - 1
            for k, error in enumerate(errors):
                outcome.check(
                    error <= inputs.bound,
                    f"read {k}: a subnet estimate is off by {error:.0f} > {inputs.bound:.0f}",
                )
            counts = (
                plain.reports_received + timed.reports_received,
                plain.samples_ingested + timed.samples_ingested,
                plain.packets_covered + timed.packets_covered,
            )
            passes.append(Pass(found, latencies, j == len(reports), counts))

    first = passes[0]
    detected = first_detections(inputs, first.found)
    outcome.check(
        len(detected) == len(subnets),
        f"{len(subnets) - len(detected)} of {len(subnets)} flood subnets never detected",
    )
    missed = missed_packets(inputs, detected)
    opt_missed = missed_packets(inputs, first_detections(inputs, inputs.truth))
    for number, later in enumerate(passes[1:], start=2):
        if later.complete:
            outcome.check(
                later.found == first.found,
                f"pass {number} flagged other subnets than pass 1",
            )
    tp = fp = fn = 0
    for flagged, truth in zip(first.found, inputs.truth):
        hits = set_counts(flagged, truth)
        tp, fp, fn = tp + hits[0], fp + hits[1], fn + hits[2]
    latencies = [x for p in passes for x in p.latencies]
    read_p50, read_p90 = p50_p90(latencies)
    reports_n, samples_n, covered_n = first.counts
    metrics: Dict[str, float] = {
        "ingest_pps": sum(packets) / sum(walls),
        "read_p50_ms": 1e3 * read_p50,
        "read_p90_ms": 1e3 * read_p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss),
        "hh_f1": f1_score(tp, fp, fn),
        "engine.build_s": statistics.median(builds),
        "sharding.spawn_s": statistics.median(spawns),
        "netwide.reports": reports_n,
        "netwide.samples": samples_n,
        "netwide.covered": covered_n,
        "netwide.sample_share": samples_n / covered_n,
        "netwide.missed_flood_pkts": missed,
        "netwide.opt_missed_flood_pkts": opt_missed,
        "netwide.detect_delay_pkts": statistics.median(
            at - inputs.start for at in detected.values()
        ),
    }
    if trace:
        spans = tracer.summary()
        samples = spans.get("sharding.ingest.samples", SpanStats())
        gaps = spans.get("sharding.ingest.gap", SpanStats())
        sync = spans.get("sharding.sync", SpanStats())
        metrics.update(
            {
                "sharding.ingest.busy_s": samples.total_s + gaps.total_s,
                "sharding.ingest.calls": samples.calls + gaps.calls,
                "sharding.ingest.items": samples.items,
                "sharding.ingest.gap_packets": gaps.items,
                "sharding.flush.wait_s": spans.get("sharding.flush", SpanStats()).total_s,
                "sharding.sync.s": sync.total_s,
                "sharding.sync.p50_ms": sync.p50_ms,
                "sharding.cpu.parent_s": cpu[0],
                "sharding.cpu.workers_s": cpu[1],
                "core.replay_pps": replay_pps(inputs),
            }
        )
    facts = {
        "counted": {
            name: value for name, value in metrics.items()
            if name == "hh_f1" or name.startswith("netwide.")
        },
        "spec": inputs.spec.to_dict(),
        "tau": inputs.tau,
        "batch_size": inputs.batch_size,
        "reads": len(latencies),
        "passes": len(passes),
        "timed_s": sum(walls),
    }
    return Result(outcome, metrics, facts, tracer, walls, packets)


def replay_pps(inputs: Inputs) -> float:
    """Stream packets per second of one pass through an unsharded engine.

    Same reports, same algorithm section, no sharding or pipeline: the
    ceiling the sharded controller's ingest is measured against.
    """
    spec = replace(inputs.spec, sharding=None, pipeline=None)
    with build_engine(spec) as engine:
        controller = SketchController(engine)
        began = perf_counter()
        controller.receive_many(inputs.reports)
        engine.flush()
        return controller.packets_covered / (perf_counter() - began)
