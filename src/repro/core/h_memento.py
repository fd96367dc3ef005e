"""H-Memento — hierarchical heavy hitters on sliding windows (Algorithm 2).

Unlike MST and RHHH, which maintain one heavy-hitter instance per prefix
pattern, H-Memento keeps a **single** Memento instance shared by all ``H``
patterns (Section 4.2).  Each packet:

* with probability ``tau`` — performs a Full update with **one uniformly
  random prefix** of the packet (pattern sampled out of ``H``), so each
  individual pattern is sampled with probability ``tau / H``;
* otherwise — performs a cheap Window update.

Because every packet drives exactly one Memento update, the shared sketch
sees one coherent ``W``-packet window for all prefixes — the property RHHH
lacks on windows (each of its instances would track a different window).

Estimates scale by the per-pattern sampling ratio ``V = H / tau``:
``f̂_p = X̂_p · V`` (Table 1 and Appendix A), and the output computation adds
the ``2 · Z_{1−δ} · sqrt(V · W)`` sampling slack (Algorithm 2, line 8).

The evaluation's configuration rule (Section 6.2) is enforced softly: a
``tau`` below ``H · 2⁻¹⁰`` — i.e. a per-pattern rate below ``2⁻¹⁰``, where
the paper observed accuracy degradation — triggers a warning, not an error.
"""

from __future__ import annotations

import math
import warnings
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set

import numpy as np

from ..analysis.error_model import z_quantile
from ..hierarchy.domain import Hierarchy
from ..hierarchy.hhh_output import compute_hhh
from .api import Entry, WindowedEntries
from .batching import BatchIngest, as_batch
from .kernel import IngestPlan, plan_from_positions
from .memento import Memento
from .sampling import draw_decision_array, make_sampler

__all__ = ["HMemento"]

#: Per-pattern sampling probability below which Section 6.2 saw degradation.
MIN_PER_PATTERN_RATE = 2.0**-10


class HMemento(BatchIngest):
    """Sliding-window hierarchical heavy hitters via one shared Memento.

    Parameters
    ----------
    window:
        Window size ``W`` in packets.
    hierarchy:
        The prefix lattice; ``H = hierarchy.num_patterns``.
    counters:
        Total counters for the shared Memento instance.  The paper's "64H"
        configuration corresponds to ``counters = 64 * H``.  Exactly one of
        ``counters`` / ``epsilon`` must be given.
    epsilon:
        Algorithm error ``eps_a``; translated to
        ``counters = ceil(4 H / epsilon)`` (Algorithm 2 initializes
        Memento with ``H / eps_a`` scale).
    tau:
        Per-packet full-update probability; each pattern is then sampled
        with probability ``tau / H`` and ``V = H / tau``.
    delta:
        Confidence for the output stage's sampling correction.
    sampler / seed:
        Sampling machinery, as in :class:`repro.core.memento.Memento`.

    Examples
    --------
    >>> from repro.hierarchy.domain import SRC_HIERARCHY
    >>> hhh = HMemento(window=1000, hierarchy=SRC_HIERARCHY, counters=320,
    ...                tau=1.0, seed=1)
    >>> for _ in range(100):
    ...     hhh.update(0x01020304)
    >>> (0x01020304, 32) in hhh.output(theta=0.05)
    True
    """

    def __init__(
        self,
        window: int,
        hierarchy: Hierarchy,
        counters: Optional[int] = None,
        epsilon: Optional[float] = None,
        tau: float = 1.0,
        delta: float = 0.001,
        sampler: object = "table",
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {tau}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        self.hierarchy = hierarchy
        self.num_patterns = hierarchy.num_patterns
        if (counters is None) == (epsilon is None):
            raise ValueError("exactly one of counters / epsilon must be given")
        if counters is None:
            counters = math.ceil(4.0 * self.num_patterns / epsilon)
        self.tau = float(tau)
        self.delta = float(delta)
        self.sampling_ratio = self.num_patterns / self.tau  # the paper's V
        if self.tau / self.num_patterns < MIN_PER_PATTERN_RATE:
            warnings.warn(
                f"per-pattern sampling rate {self.tau / self.num_patterns:.2e}"
                f" is below 2^-10; Section 6.2 reports accuracy degradation"
                f" in this regime",
                stacklevel=2,
            )

        # The inner Memento is driven explicitly (full vs window update is
        # H-Memento's decision).  It is configured with the *per-pattern*
        # sampling rate tau/H so that its overflow quantum and its query
        # scaling (1 / (tau/H) = V) are handled natively; its own sampler
        # is never consulted.
        self._memento = Memento(
            window,
            counters=counters,
            tau=self.tau / self.num_patterns,
            sampler="bernoulli",
            seed=seed,
        )
        self.window = self._memento.window

        if isinstance(sampler, str):
            # salted: see the matching note in repro.core.memento
            sampler_seed = None if seed is None else seed + 0x1B873593
            self._sampler = make_sampler(self.tau, method=sampler, seed=sampler_seed)
        else:
            self._sampler = sampler
        self._pattern_rng = np.random.default_rng(
            None if seed is None else seed + 0x9E3779B9
        )
        # pre-drawn uniform pattern indices, refilled in bulk for speed
        self._pattern_buf = self._pattern_rng.integers(
            0, self.num_patterns, size=4096
        ).tolist()
        self._pattern_pos = 0
        self._updates = 0

    # ------------------------------------------------------------------
    # update path
    # ------------------------------------------------------------------
    def _next_pattern(self) -> int:
        pos = self._pattern_pos
        if pos == len(self._pattern_buf):
            self._pattern_buf = self._pattern_rng.integers(
                0, self.num_patterns, size=4096
            ).tolist()
            pos = 0
        self._pattern_pos = pos + 1
        return self._pattern_buf[pos]

    def update(self, packet) -> None:
        """Process one packet (Algorithm 2, UPDATE)."""
        self._updates += 1
        if self._sampler.should_sample():
            pattern = self._next_pattern()
            prefix = self.hierarchy.prefix_at(packet, pattern)
            self._memento.full_update(prefix)
        else:
            self._memento.window_update()

    def update_many(self, packets: Sequence) -> None:
        """Process a batch of packets through the columnar fast path.

        Byte-identical to the scalar :meth:`update` loop under a fixed
        seed: decisions come as a numpy column (``decision_array``, same
        RNG consumption as the scalar calls), pattern draws happen in
        arrival order for exactly the sampled packets, and the sampled
        prefixes ride the shared Memento's span-fused
        ``ingest_plan(..., sampled=True)`` — unsampled stretches never
        touch per-packet Python objects.
        """
        packets = as_batch(packets)
        n = len(packets)
        if n == 0:
            return
        self._updates += n
        decisions = draw_decision_array(self._sampler, n)
        positions = np.flatnonzero(decisions)
        if positions.size == 0:
            self._memento.ingest_gap(n)
            return
        next_pattern = self._next_pattern
        prefix_at = self.hierarchy.prefix_at
        prefixes = [
            prefix_at(packets[i], next_pattern())
            for i in positions.tolist()
        ]
        self._memento.ingest_plan(
            plan_from_positions(prefixes, positions, n), sampled=True
        )

    def ingest_sample(self, packet) -> None:
        """Feed an externally-sampled packet (network-wide controller path).

        The controller receives packets already sampled at rate ``tau`` by
        the measurement points, so no further coin flip happens here — one
        random prefix gets a Full update.
        """
        self._updates += 1
        pattern = self._next_pattern()
        self._memento.full_update(self.hierarchy.prefix_at(packet, pattern))

    def ingest_samples(self, packets: Sequence) -> None:
        """Batch form of :meth:`ingest_sample`: one Full update per packet."""
        packets = as_batch(packets)
        self._updates += len(packets)
        next_pattern = self._next_pattern
        prefix_at = self.hierarchy.prefix_at
        self._memento.full_update_many(
            [prefix_at(packet, next_pattern()) for packet in packets]
        )

    def ingest_plan(self, plan: IngestPlan, *, sampled: bool = False) -> None:
        """Consume a kernel plan; ``sampled=True`` takes the fused path.

        Byte-identical to the generic segment replay (``ingest_samples``
        per segment, ``ingest_gap`` between) under a fixed seed: pattern
        draws happen in item order, the selected packets map to their
        prefixes at the same positions, and the prefix plan rides the
        shared Memento's span-fused ``ingest_plan(..., sampled=True)`` —
        the same shape :meth:`update_many` builds after its coin flips.
        A resident controller shard thereby applies a scattered plan of
        many reports in one call.  ``sampled=False`` keeps the generic
        replay (every owned packet flips its own coin).
        """
        if not sampled:
            super().ingest_plan(plan)
            return
        self._updates += plan.n
        next_pattern = self._next_pattern
        prefix_at = self.hierarchy.prefix_at
        prefixes = [prefix_at(packet, next_pattern()) for packet in plan.items]
        self._memento.ingest_plan(
            IngestPlan(plan.n, plan.positions, prefixes), sampled=True
        )

    def ingest_gap(self, count: int) -> None:
        """Advance the window for ``count`` unsampled packets."""
        self._memento.ingest_gap(count)
        self._updates += count

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def query(self, prefix) -> float:
        """Upper-bound estimate ``f̂+`` of the prefix's window frequency.

        The inner Memento is configured with the per-pattern rate
        ``tau / H``, so its own ``1/tau`` scaling is exactly the paper's
        ``V = H / tau`` multiplier.
        """
        return self._memento.query(prefix)

    def query_lower(self, prefix) -> float:
        """Lower-bound estimate ``f̂−`` (conservative, clamped at zero)."""
        return self._memento.query_lower(prefix)

    def query_point(self, prefix) -> float:
        """Midpoint (bias-removed) estimate, scaled by ``V``.

        See :meth:`repro.core.memento.Memento.query_point`; used by error
        metrics and threshold detection where the conservative ``+2`` block
        shift would inflate every estimate by ``2·sample_block·V``.
        """
        return self._memento.query_point(prefix)

    def sampling_correction(self) -> float:
        """Algorithm 2 line 8: ``2 · Z_{1−δ} · sqrt(V · W)``."""
        if self.tau >= 1.0 and self.num_patterns == 1:
            return 0.0
        return 2.0 * z_quantile(1.0 - self.delta) * math.sqrt(
            self.sampling_ratio * self.window
        )

    def output(self, theta: float, conservative: bool = True) -> Set:
        """The approximate HHH set for threshold ``theta`` (Algorithm 2).

        With ``conservative=True`` (the paper's Algorithm 2) the sampling
        correction ``2·Z·sqrt(V·W)`` is added to every conditioned
        frequency, guaranteeing coverage (no false negatives w.h.p.) at the
        price of false positives — note the correction is ``O(sqrt(V·W))``,
        so undersized windows relative to ``theta`` admit many of them.
        ``conservative=False`` drops the correction and reports the point-
        estimate HHH set (smaller, not coverage-guaranteed).
        """
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        return compute_hhh(
            self.hierarchy,
            list(self._memento.candidates()),
            upper=self.query,
            lower=self.query_lower,
            threshold_count=theta * self.window,
            correction=self.sampling_correction() if conservative else 0.0,
        )

    def candidates(self) -> Iterable:
        """Prefixes currently holding a counter in the shared sketch."""
        return self._memento.candidates()

    def entries(self) -> List[Entry]:
        """Mergeable snapshot of the shared sketch (raw sampled units).

        Rows carry the inner Memento's per-pattern sampling rate
        ``tau / H``, so the merge layer's single ``1/tau`` scaling is
        exactly the paper's ``V = H / tau`` multiplier.
        """
        return self._memento.entries()

    def windowed_entries(self) -> WindowedEntries:
        """Window-annotated snapshot (see ``Memento.windowed_entries``)."""
        return self._memento.windowed_entries()

    def heavy_prefixes(self, theta: float) -> Dict[Hashable, float]:
        """Raw per-prefix estimates above ``theta * W`` (no conditioning).

        This is the plain frequency view used by the accuracy experiments
        (Figure 8); :meth:`output` is the HHH set with coverage semantics.
        """
        bar = theta * self.window
        out: Dict[Hashable, float] = {}
        for prefix in self._memento.candidates():
            est = self.query(prefix)
            if est > bar:
                out[prefix] = est
        return out

    def heavy_hitters(self, theta: float) -> Dict[Hashable, float]:
        """Uniform :class:`~repro.core.api.QueryableSketch` surface:
        same enumeration as :meth:`heavy_prefixes` (keys are prefixes)."""
        return self.heavy_prefixes(theta)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def updates(self) -> int:
        """Total packets processed."""
        return self._updates

    @property
    def full_updates(self) -> int:
        """Packets that resulted in a Full update of the shared sketch."""
        return self._memento.full_updates

    @property
    def counters(self) -> int:
        """Total counters in the shared Memento instance."""
        return self._memento.k

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"HMemento(window={self.window}, H={self.num_patterns}, "
            f"counters={self.counters}, tau={self.tau})"
        )
