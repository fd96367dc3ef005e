"""Pieces every workload shares: results, /proc readers, run facts."""

from __future__ import annotations

import ctypes
import gc
import multiprocessing
import os
import platform
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sharding.shm import leaked_segments

from .spans import Tracer

ROOT = Path(__file__).resolve().parent.parent

#: every workload keeps its timed phase going until it has made at
#: least this many reads, so p90 has at least ten samples beyond it
MIN_READS = 100

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def work_dir() -> Path:
    """The checkout's scratch directory for span files and daemon state."""
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    return work


@dataclass
class Outcome:
    """Operations attempted and failed, with a reason per failure.

    An operation is one call into the system under test (an ingest
    call, a read) or one correctness or hygiene check.  It fails if it
    raises, times out, or its answer fails a check.
    """

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> bool:
        """Count one check; remember ``reason`` when it fails."""
        self.attempted += 1
        if not ok:
            self.fail(reason)
        return ok

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def crash(self, where: str) -> None:
        """Count the exception being handled as one failed operation."""
        self.attempted += 1
        self.fail(f"{where} raised:\n{traceback.format_exc()}")


@dataclass
class Result:
    """What one run of a workload measured.

    ``walls`` and ``packets`` split the timed phase into its untraced
    (index 0) and traced (index 1) intervals; ``tracer`` holds the
    main thread's spans from the traced ones.
    """

    outcome: Outcome
    metrics: Dict[str, float]
    facts: Dict[str, object]
    tracer: Tracer
    walls: List[float]
    packets: List[int]


def p50_p90(values: Sequence[float]) -> tuple:
    """Median and 90th percentile (``statistics.quantiles``, n=10)."""
    if len(values) < 2:
        value = float(values[0]) if values else 0.0
        return value, value
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def f1_score(tp: int, fp: int, fn: int) -> float:
    """F1 of a detected set; 1.0 when both sets are empty."""
    if tp + fp + fn == 0:
        return 1.0
    return 2 * tp / (2 * tp + fp + fn)


def set_counts(found: set, truth: set) -> tuple:
    """(true positives, false positives, false negatives)."""
    hits = len(found & truth)
    return hits, len(found) - hits, len(truth) - hits


# ----------------------------------------------------------------------
# /proc readers (Linux)
# ----------------------------------------------------------------------
def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def status_mb(pid: object, key: str = "VmHWM") -> float:
    """A ``kB`` field of /proc/<pid>/status, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(key)


def pss_mb(pid: int) -> float:
    """Proportional set size of a process, from smaps_rollup, in MB."""
    with open(f"/proc/{pid}/smaps_rollup") as fh:
        for line in fh:
            if line.startswith("Pss:"):
                return int(line.split()[1]) / 1024.0
    raise KeyError("Pss")


def worker_pids() -> List[int]:
    """PIDs of this process's live ``multiprocessing`` children."""
    return [child.pid for child in multiprocessing.active_children()]


def check_hygiene(outcome: Outcome) -> None:
    """No shm segment and no ``multiprocessing`` child may outlive a run."""
    leaked = leaked_segments()
    outcome.check(not leaked, f"leaked shm segments: {leaked}")
    deadline = time.monotonic() + 5.0
    children = multiprocessing.active_children()
    while children and time.monotonic() < deadline:
        time.sleep(0.05)
        children = multiprocessing.active_children()
    outcome.check(not children, f"multiprocessing children remain: {children}")


def release_free_memory() -> None:
    """Hand memory that set-up freed back to the OS before timing starts.

    Without this, whether glibc keeps the generator's freed heap varies
    from run to run by tens of MB, and the resident size sampled during
    the timed phase varies with it.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: resident size keeps whatever the allocator holds


def stop_resource_tracker() -> None:
    """Stop the resource-tracker process shared memory started, and wait.

    ``multiprocessing`` starts it on first use and otherwise leaves it
    to exit after this process does.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ----------------------------------------------------------------------
# run facts
# ----------------------------------------------------------------------
def host_probe_ms() -> float:
    """Wall time of a fixed pure-Python and numpy loop, in ms.

    The same work every time, so a change in this number between the
    probes before and after a run is a change in the host's speed.
    """
    began = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    values = np.arange(1 << 20, dtype=np.int64)
    np.sort(values * 2654435761 % 1000003)
    return 1e3 * (time.perf_counter() - began)


def git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_facts(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Facts about the host and the code that every run records."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "argv": sys.argv[1:],
    }
