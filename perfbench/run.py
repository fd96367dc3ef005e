"""The repository's benchmark: three workloads, one command.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bulk-hh --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``bulk-hh`` — the bare in-process engine (``perfbench/bulk.py``);
* ``flood-netwide`` — the §6.4 HTTP flood through ten sampling points
  into a 2-shard D-H-Memento controller (``perfbench/flood.py``);
* ``service-mixed`` — ``repro-serve`` in its own process with one
  feeder and one reader connection (``perfbench/service.py``).

The program needs no build: the benchmark imports it from ``src/``.
Inputs are generated from ``--seed``; the program only ever sees them.
With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
it carries the per-layer metrics, taken from spans recorded around the
public calls on every other interval of the timed phase.  A layer that
does no work on a workload reports 0.  Lines before the last one show
every metric with its unit, the run's facts, and what failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bulk-hh", "flood-netwide", "service-mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _derived(result, trace: bool) -> dict:
    """Metrics computed the same way for every workload."""
    metrics = dict(result.metrics)
    if trace:
        (plain_s, traced_s), (plain_n, traced_n) = result.walls, result.packets
        if plain_s > 0 and traced_s > 0 and plain_n > 0:
            metrics["trace.overhead"] = 1.0 - (traced_n / traced_s) / (plain_n / plain_s)
        if traced_s > 0:
            metrics["trace.coverage"] = result.tracer.top_level_s() / traced_s
    return metrics


def _print_ledger(result) -> None:
    """Where the traced intervals' wall time went, span by span.

    Self time is a span's duration minus its children's; the self times
    and the untraced remainder add up to the traced wall time.
    """
    traced_s = result.walls[1]
    spans = result.tracer.summary()
    print(f"{'ledger (main thread)':<36} {'calls':>10} {'total_s':>10} {'self_s':>10}")
    for name, stats in sorted(spans.items()):
        print(f"  {name:<34} {stats.calls:>10} {stats.total_s:>10.4f} {stats.self_s:>10.4f}")
    covered = result.tracer.top_level_s()
    print(f"  {'(outside any span)':<34} {'':>10} {'':>10} {traced_s - covered:>10.4f}")
    print(f"  {'traced wall time':<34} {'':>10} {traced_s:>10.4f}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = config["per_layer" if args.trace else "end_to_end"]

    from perfbench import bulk, common, flood, service

    runner = {"bulk-hh": bulk, "flood-netwide": flood, "service-mixed": service}
    facts = common.run_facts(args.workload, args.seed, args.seconds, bool(args.trace))
    facts["host_probe_ms_before"] = common.host_probe_ms()
    result = runner[args.workload].run(args.seed, args.seconds, bool(args.trace))
    common.check_hygiene(result.outcome)
    common.stop_resource_tracker()
    facts["host_probe_ms_after"] = common.host_probe_ms()
    facts.update(result.facts)
    metrics = _derived(result, bool(args.trace))

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if not args.trace and missing:
        result.outcome.fail(f"end-to-end metrics not measured: {missing}")
    if args.trace:
        result.tracer.save(common.work_dir() / f"spans-{args.workload}-seed{args.seed}.npz")
        _print_ledger(result)
    outcome = result.outcome
    error_rate = outcome.failed / max(1, outcome.attempted)
    for m in wanted:
        print(f"{m['name']:<36} {metrics.get(m['name'], 0.0):>16.6g} {m['unit']}")
    print(f"{'error_rate':<36} {error_rate:>16.6g} ({outcome.failed}/{outcome.attempted})")
    for reason in outcome.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps({"facts": facts}, default=str))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
