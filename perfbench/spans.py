"""In-memory span recorder for the traced benchmark runs.

A :class:`Tracer` belongs to one thread.  It records a span (name,
start, end, parent, item count) around each call made through a
wrapper from :meth:`Tracer.wrap`.  Spans
nest: a span opened while another is open on the same tracer becomes
its child, so a layer's self time is its duration minus its children's.

Spans live in flat typed arrays so a run of a million calls stays a few
tens of megabytes; :meth:`Tracer.save` writes them out at the end.
Untraced code calls the program directly, never through a disabled
wrapper, so an untraced interval pays nothing for tracing.
"""

from __future__ import annotations

import statistics
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = ["SpanStats", "Tracer"]


def _np(values: array, dtype: type) -> np.ndarray:
    """A numpy copy of a typed array (a live view would pin its size)."""
    return np.frombuffer(values, dtype=dtype).copy()


@dataclass
class SpanStats:
    """Aggregate of every span recorded under one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0
    durations: List[float] = field(default_factory=list)

    @property
    def p50_ms(self) -> float:
        return 1e3 * statistics.median(self.durations) if self.durations else 0.0


class Tracer:
    """Records nested spans for one thread."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._stack: List[int] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.items = array("q")

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    # The clock is read first on open and last on close, so the
    # tracer's own bookkeeping counts inside the span it records rather
    # than in the gaps between spans.
    def _open(self, nid: int) -> int:
        began = perf_counter()
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.items.append(0)
        self._stack.append(idx)
        self.start.append(began)
        return idx

    def _close(self, idx: int, items: int) -> None:
        self.items[idx] = items
        self._stack.pop()
        self.end[idx] = perf_counter()

    def wrap(
        self,
        name: str,
        fn: Callable,
        items: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """A twin of ``fn`` that records one span per call.

        ``items(*args)`` gives the work count stored with the span.
        """
        nid = self._id(name)
        open_, close = self._open, self._close

        def traced(*args):
            idx = open_(nid)
            try:
                return fn(*args)
            finally:
                close(idx, items(*args) if items is not None else 0)

        return traced

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, SpanStats]:
        """Per-name call counts, total and self time, items, durations."""
        start = _np(self.start, np.float64)
        end = _np(self.end, np.float64)
        parent = _np(self.parent, np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        out: Dict[str, SpanStats] = {}
        names = _np(self.name_id, np.int32)
        items = _np(self.items, np.int64)
        for nid, name in enumerate(self._names):
            mask = names == nid
            out[name] = SpanStats(
                calls=int(mask.sum()),
                total_s=float(dur[mask].sum()),
                self_s=float((dur[mask] - child[mask]).sum()),
                items=int(items[mask].sum()),
                durations=dur[mask].tolist(),
            )
        return out

    def top_level_s(self) -> float:
        """Summed duration of the spans with no parent."""
        start = _np(self.start, np.float64)
        end = _np(self.end, np.float64)
        top = _np(self.parent, np.int64) < 0
        return float((end[top] - start[top]).sum())

    def save(self, path: Path) -> None:
        """Write every span to ``path`` as a compressed ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(self._names),
            name_id=_np(self.name_id, np.int32),
            parent=_np(self.parent, np.int64),
            start=_np(self.start, np.float64),
            end=_np(self.end, np.float64),
            items=_np(self.items, np.int64),
        )
