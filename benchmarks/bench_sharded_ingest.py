"""Sharded-ingestion benchmark: ShardedSketch vs the raw batch path.

Extends the ``repro-bench/1`` perf trail started by
``bench_micro_updates.py`` to the sharding layer:

* ``python benchmarks/bench_sharded_ingest.py`` — times the bare
  engine's ``update_many`` batch path (the reference), a 1-shard ``ShardedSketch`` (which must not
  regress it — the delegation fast path is gated at
  ``MIN_SINGLE_SHARD_RATIO``), and multi-shard runs (2/4/8 shards,
  serial executor).  Results persist to ``BENCH_sharded_ingest.json`` at
  the repo root.  ``--smoke`` shrinks the workload for CI and skips the
  gate.
* ``pytest benchmarks/bench_sharded_ingest.py`` — pytest-benchmark
  entries for interactive comparison.

Multi-shard serial wall-clock *adds* routing overhead by construction
(every packet is hashed, every shard bookkeeps its gaps); the rows are
reported ungated, for context.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

try:
    import repro  # noqa: F401 - probe for an installed package
except ModuleNotFoundError:  # uninstalled checkout: fall back to src/
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import ShardedSketch, generate_trace
from repro.bench import BenchResult, bench, repo_root, write_results
from repro.engine import SketchSpec, build_engine
from repro.traffic.synth import BACKBONE

WINDOW = 8192
N = 20_000
CHUNK = 4096
SHARD_COUNTS = (1, 2, 4, 8)

#: 1-shard ShardedSketch must retain this share of the raw batch ops/sec.
MIN_SINGLE_SHARD_RATIO = 0.9

#: (case name, algorithm section) — both gated cases of the micro bench,
#: so the two perf trails stay comparable.  Every timed construction goes
#: through ``build_engine`` on a declarative spec, and the spec rides in
#: the persisted row's metadata: any row reproduces from its spec alone.
CASES: List[Tuple[str, Dict[str, object]]] = [
    (
        "memento_tau0.1",
        {
            "family": "memento",
            "window": WINDOW,
            "counters": 512,
            "tau": 0.1,
            "seed": 1,
        },
    ),
    ("space_saving", {"family": "space_saving", "counters": 512}),
]


def case_spec(name: str, shards: Optional[int] = None) -> SketchSpec:
    """The declarative spec of one bench case (optionally sharded)."""
    payload: Dict[str, object] = {"algorithm": dict(dict(CASES)[name])}
    if shards is not None:
        payload["sharding"] = {"shards": shards, "executor": "serial"}
    return SketchSpec.from_dict(payload)


def make_stream(n: int = N) -> list:
    return generate_trace(BACKBONE, n, seed=99).packets_1d()


def drive_batch(algorithm, stream, chunk: int = CHUNK):
    update_many = algorithm.update_many
    for start in range(0, len(stream), chunk):
        update_many(stream[start : start + chunk])
    return algorithm


def run_harness(
    n: int = N, warmup: int = 1, repeats: int = 3
) -> Tuple[List[BenchResult], Dict[str, float]]:
    """Time raw-batch vs sharded ingestion for every case.

    Returns the results and the per-case single-shard ratios (sharded-1
    ops/sec over raw batch ops/sec).
    """
    stream = make_stream(n)
    results: List[BenchResult] = []
    ratios: Dict[str, float] = {}
    for name, _ in CASES:
        bare_spec = case_spec(name)
        raw = bench(
            lambda: drive_batch(build_engine(bare_spec), stream),
            name=f"{name}/batch",
            ops=n,
            warmup=warmup,
            repeats=repeats,
            metadata={
                "path": "batch",
                "case": name,
                "chunk": CHUNK,
                "transport": None,
                "spec": bare_spec.to_dict(),
            },
        )
        results.append(raw)
        for shards in SHARD_COUNTS:
            spec = case_spec(name, shards=shards)
            sharded = bench(
                lambda: drive_batch(build_engine(spec), stream),
                name=f"{name}/sharded{shards}",
                ops=n,
                warmup=warmup,
                repeats=repeats,
                metadata={
                    "path": "sharded",
                    "case": name,
                    "chunk": CHUNK,
                    "shards": shards,
                    "executor": "serial",
                    # resolved plan transport: None outside the
                    # persistent executor (serial applies in-process)
                    "transport": spec.sharding.resolved_transport,
                    "spec": spec.to_dict(),
                },
            )
            results.append(sharded)
            if shards == 1:
                ratios[name] = sharded.ops_per_sec / raw.ops_per_sec
    return results, ratios


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload for CI: fewer packets, no regression gate",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_sharded_ingest.json at repo root)",
    )
    args = parser.parse_args(argv)
    n = 4_000 if args.smoke else N
    # best-of-5 keeps the gate stable against scheduler noise
    repeats = 1 if args.smoke else 5
    results, ratios = run_harness(
        n=n, warmup=0 if args.smoke else 1, repeats=repeats
    )

    out = args.out or (repo_root() / "BENCH_sharded_ingest.json")
    write_results(
        out,
        results,
        extra={
            "workload": {
                "packets": n,
                "window": WINDOW,
                "chunk": CHUNK,
                "shard_counts": list(SHARD_COUNTS),
            },
            "single_shard_ratio": ratios,
            "smoke": args.smoke,
        },
    )

    by_name = {r.name: r for r in results}
    width = max(len(name) for name, _ in CASES)
    print(
        f"{'case'.ljust(width)}  {'batch ops/s':>14}  "
        f"{'sharded1 ops/s':>14}  ratio  sharded ops/s (2/4/8)"
    )
    for name, _ in CASES:
        raw = by_name[f"{name}/batch"]
        one = by_name[f"{name}/sharded1"]
        multi = "/".join(
            f"{by_name[f'{name}/sharded{s}'].ops_per_sec:,.0f}"
            for s in SHARD_COUNTS[1:]
        )
        print(
            f"{name.ljust(width)}  {raw.ops_per_sec:>14,.0f}  "
            f"{one.ops_per_sec:>14,.0f}  {ratios[name]:>5.2f}  {multi}"
        )
    print(f"results -> {out}")

    if not args.smoke:
        failures = [
            name
            for name in ratios
            if ratios[name] < MIN_SINGLE_SHARD_RATIO
        ]
        if failures:
            print(
                f"FAIL: 1-shard ingestion below {MIN_SINGLE_SHARD_RATIO}x "
                f"of the raw batch path on: {', '.join(failures)}",
                file=sys.stderr,
            )
            return 1
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stream():
    return make_stream()


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_memento_update_many(benchmark, stream, shards):
    spec = case_spec("memento_tau0.1", shards=shards)
    result = benchmark(lambda: drive_batch(build_engine(spec), stream))
    assert result.updates == N


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_space_saving_update_many(benchmark, stream, shards):
    spec = case_spec("space_saving", shards=shards)
    result = benchmark(lambda: drive_batch(build_engine(spec), stream))
    assert result.updates == N


if __name__ == "__main__":
    raise SystemExit(main())
