"""Short runs of every workload through the benchmark's command line.

Run with ``python -m pytest perfbench/tests`` from the repository root.
Each workload runs once untraced and once traced with the same seed;
the runs must pass their own correctness checks, print every metric
``BENCHMARK.json`` names, and agree exactly on the counted metrics.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
SEED = 5


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload: str, trace: int):
        if (workload, trace) not in cache:
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            cache[workload, trace] = (json.loads(lines[-2])["facts"], json.loads(lines[-1]))
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_named_metric(runs, workload, trace):
    _, result = runs(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = CONFIG["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


#: per-layer metrics of the layers each workload runs; every other
#: layer does no work there and must report 0
OWN_LAYERS = {
    "bulk-hh": ("core.update_many.", "engine."),
    "flood-netwide": ("core.replay_pps", "engine.build_s", "sharding.", "netwide."),
    "service-mixed": ("core.replay_pps", "engine.build_s", "service."),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_report_work_only_where_they_run(runs, workload):
    _, result = runs(workload, 1)
    for name, metric in result["metrics"].items():
        if not name.startswith("trace."):
            assert (metric["value"] != 0) == name.startswith(OWN_LAYERS[workload]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_cover_the_timed_phase(runs, workload):
    _, result = runs(workload, 1)
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9


@pytest.mark.parametrize("workload", ["bulk-hh", "flood-netwide"])
def test_counted_metrics_repeat_for_a_seed(runs, workload):
    untraced, _ = runs(workload, 0)
    traced, _ = runs(workload, 1)
    assert untraced["counted"] == traced["counted"]
    assert untraced["counted"]


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-hh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
