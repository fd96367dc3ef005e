"""RHHH — Randomized HHH with constant-time updates (Ben Basat et al. 2017).

RHHH keeps MST's lattice of per-pattern Space Saving instances but updates
at most **one** of them per packet: it draws ``i`` uniformly from
``[1, V]`` (``V >= H``); if ``i <= H`` the ``i``-th instance receives the
packet's ``i``-th generalization, otherwise the packet is ignored
(Section 2 of the paper).  Estimates scale by ``V`` and the output stage
compensates with ``2 · Z_{1−δ} · sqrt(V · N)``, giving no false negatives
with high probability.

This is the paper's fastest *interval* competitor (Figure 7).  Two details
matter for the reproduction:

* sampling is implemented with a **geometric** skip counter, which is why
  RHHH eventually overtakes H-Memento as ``tau`` shrinks — it does strictly
  nothing for skipped packets, while H-Memento still pays a Window update;
* RHHH does not extend to sliding windows: each instance receives a
  varying number of updates and would track a different window — the gap
  Memento closes (Section 4.2).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set

import numpy as np

from ..analysis.error_model import z_quantile
from ..hierarchy.domain import Hierarchy
from ..hierarchy.hhh_output import compute_hhh
from .api import Entry
from .batching import BatchIngest, as_batch
from .sampling import GeometricSampler
from .space_saving import SpaceSaving

__all__ = ["RHHH"]


class RHHH(BatchIngest):
    """Interval HHH with randomized single-instance updates.

    Parameters
    ----------
    hierarchy:
        The prefix lattice (``H`` patterns).
    counters:
        Counters per Space Saving instance (the "64H" convention of the
        paper's evaluation: 64 per instance).  One of ``counters`` /
        ``epsilon`` is required.
    epsilon:
        Per-instance error; ``counters = ceil(1 / epsilon)``.
    sampling_ratio:
        The paper's ``V >= H``; the per-packet update probability is
        ``H / V``.  Defaults to ``H`` (every packet updates one instance).
    delta:
        Confidence used by the output-stage sampling correction.
    seed:
        RNG seed for the geometric sampler and pattern choice.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        counters: Optional[int] = None,
        epsilon: Optional[float] = None,
        sampling_ratio: Optional[float] = None,
        delta: float = 0.001,
        seed: Optional[int] = None,
    ) -> None:
        if (counters is None) == (epsilon is None):
            raise ValueError("exactly one of counters / epsilon must be given")
        if counters is None:
            if not 0.0 < epsilon < 1.0:
                raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
            counters = math.ceil(1.0 / epsilon)
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        self.hierarchy = hierarchy
        self.counters = int(counters)
        num = hierarchy.num_patterns
        self.sampling_ratio = float(sampling_ratio) if sampling_ratio else float(num)
        if self.sampling_ratio < num:
            raise ValueError(
                f"sampling_ratio must be >= H ({num}), got {self.sampling_ratio}"
            )
        self.delta = float(delta)
        self._instances: List[SpaceSaving] = [
            SpaceSaving(self.counters) for _ in range(num)
        ]
        # P(update) = H / V, realized through geometric skip counting —
        # the implementation detail behind Figure 7's crossover.  The seed
        # is salted so the sampler never replays the trace generator's
        # uniform stream (see the note in repro.core.memento).
        sampler_seed = None if seed is None else seed + 0x85EBCA6B
        self._sampler = GeometricSampler(num / self.sampling_ratio, seed=sampler_seed)
        self._pattern_rng = np.random.default_rng(
            None if seed is None else seed + 0x517CC1B7
        )
        self._pattern_buf = self._pattern_rng.integers(0, num, size=4096).tolist()
        self._pattern_pos = 0
        self._packets = 0
        self._sampled = 0

    def _next_pattern(self) -> int:
        pos = self._pattern_pos
        if pos == len(self._pattern_buf):
            self._pattern_buf = self._pattern_rng.integers(
                0, self.hierarchy.num_patterns, size=4096
            ).tolist()
            pos = 0
        self._pattern_pos = pos + 1
        return self._pattern_buf[pos]

    def update(self, packet) -> None:
        """Process one packet: at most one Space Saving update."""
        self._packets += 1
        if not self._sampler.should_sample():
            return
        self._sampled += 1
        pattern = self._next_pattern()
        prefix = self.hierarchy.prefix_at(packet, pattern)
        self._instances[pattern].add(prefix)

    def update_many(self, packets: Sequence) -> None:
        """Batch update: columnar skip decisions, regroup per pattern.

        Both random streams (the geometric sampler and the pattern
        choices) are consumed in the same order as the scalar loop, so the
        per-instance states are byte-identical under a fixed seed.  The
        decision column comes from ``decision_array`` and only the
        sampled positions (``np.flatnonzero``) are walked — skipped
        packets never materialize as Python objects, matching the
        geometric sampler's do-nothing-between-samples contract.  The
        grouped prefixes then ride ``SpaceSaving.update_many``.
        """
        packets = as_batch(packets)
        n = len(packets)
        self._packets += n
        if n == 0:
            return
        positions = np.flatnonzero(self._sampler.decision_array(n))
        next_pattern = self._next_pattern
        prefix_at = self.hierarchy.prefix_at
        per_pattern: List[List] = [[] for _ in self._instances]
        for i in positions.tolist():
            pattern = next_pattern()
            per_pattern[pattern].append(prefix_at(packets[i], pattern))
        self._sampled += positions.size
        for instance, prefixes in zip(self._instances, per_pattern):
            if prefixes:
                instance.update_many(prefixes)

    def query(self, prefix) -> float:
        """Upper-bound estimate ``f̂+ = X̂+ · V`` since the last reset."""
        idx = self.hierarchy.pattern_index(prefix)
        return self._instances[idx].query(prefix) * self.sampling_ratio

    def query_lower(self, prefix) -> float:
        """Lower-bound estimate ``f̂− = X̂− · V``."""
        idx = self.hierarchy.pattern_index(prefix)
        return self._instances[idx].lower_bound(prefix) * self.sampling_ratio

    def query_point(self, prefix) -> float:
        """Point estimate — RHHH's scaling carries no deliberate shift."""
        return self.query(prefix)

    def sampling_correction(self) -> float:
        """The output-stage slack ``2 · Z_{1−δ} · sqrt(V · N)``."""
        return 2.0 * z_quantile(1.0 - self.delta) * math.sqrt(
            self.sampling_ratio * max(1, self._packets)
        )

    def candidates(self) -> Iterable:
        """All prefixes currently monitored by any instance."""
        for instance in self._instances:
            for prefix, _ in instance.items():
                yield prefix

    def entries(self) -> List[Entry]:
        """Flat mergeable snapshot across instances, in raw (unscaled)
        sampled counts; the ``V`` multiplier is a query-time concern."""
        out: List[Entry] = []
        for instance in self._instances:
            out.extend(instance.entries())
        return out

    def output(self, theta: float, conservative: bool = True) -> Set:
        """Approximate HHH set over the packets since the last reset.

        ``conservative`` controls the ``2·Z·sqrt(V·N)`` coverage slack, as
        in :meth:`repro.core.h_memento.HMemento.output`.
        """
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        return compute_hhh(
            self.hierarchy,
            list(self.candidates()),
            upper=self.query,
            lower=self.query_lower,
            threshold_count=theta * max(1, self._packets),
            correction=self.sampling_correction() if conservative else 0.0,
        )

    def heavy_prefixes(self, theta: float) -> Dict[Hashable, float]:
        """Raw per-prefix estimates above ``theta * N`` (no conditioning)."""
        bar = theta * max(1, self._packets)
        return {
            p: est
            for p in self.candidates()
            if (est := self.query(p)) > bar
        }

    def heavy_hitters(self, theta: float) -> Dict[Hashable, float]:
        """Uniform :class:`~repro.core.api.QueryableSketch` surface:
        same enumeration as :meth:`heavy_prefixes` (keys are prefixes)."""
        return self.heavy_prefixes(theta)

    def reset(self) -> None:
        """Start a new measurement interval."""
        for instance in self._instances:
            instance.flush()
        self._packets = 0
        self._sampled = 0

    @property
    def packets(self) -> int:
        """Packets processed since the last reset."""
        return self._packets

    @property
    def sampled(self) -> int:
        """Packets that actually updated an instance."""
        return self._sampled
