"""The :class:`HeavyHitterEngine` facade: one entry point for every mode.

The paper's deployment story (Section 6: a single HAProxy-integrated
measurement service spanning single-device, hierarchical, and
network-wide modes) assumes one coherent surface.  ``build_engine(spec)``
is that surface: it reads a declarative :class:`~repro.engine.spec
.SketchSpec`, resolves the algorithm family through the registry, and
composes the bare sketch, :class:`~repro.sharding.ShardedSketch`
scale-out, and the pipelined front-end internally — callers never thread
constructor arguments through four layers again.

The engine exposes the **unified surface** every deployment scenario
shares::

    update / update_many / extend          # ingestion
    query / heavy_hitters(theta) / top_k(k) / entries
    stats() / flush() / close()            # introspection & lifecycle
    with build_engine(spec) as engine: ...  # context manager

plus capability passthroughs (``ingest_gap`` / ``ingest_samples`` for
windowed families, ``output`` / ``heavy_prefixes`` for hierarchical
ones) and attribute delegation to the wrapped sketch, so the engine is a
drop-in replacement wherever a sketch was hosted before.

Construction is **state-identical** to hand-wiring: an engine-built
``Memento`` / sharded / pipelined deployment is byte-for-byte the same
as the equivalent explicit construction under a fixed seed — pinned by
``tests/engine/test_engine.py``.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.api import Entry
from ..hierarchy.domain import Hierarchy
from ..sharding.executors import PersistentProcessExecutor
from ..sharding.sharded import ShardedSketch
from .registry import AlgorithmInfo, algorithm_info
from .spec import SketchSpec

__all__ = ["HeavyHitterEngine", "build_engine"]

SpecLike = Union[SketchSpec, Dict[str, object], str, Path]


def _coerce_spec(spec: SpecLike) -> SketchSpec:
    """Accept a spec object, a plain dict, or a JSON file path."""
    if isinstance(spec, SketchSpec):
        return spec
    if isinstance(spec, dict):
        return SketchSpec.from_dict(spec)
    if isinstance(spec, (str, Path)):
        return SketchSpec.from_file(spec)
    raise TypeError(
        f"spec must be a SketchSpec, a dict, or a path to a JSON spec "
        f"file, got {type(spec).__name__}"
    )


def build_engine(
    spec: SpecLike, hierarchy: Optional[Hierarchy] = None
) -> "HeavyHitterEngine":
    """Build a :class:`HeavyHitterEngine` from a declarative spec.

    ``spec`` may be a :class:`SketchSpec`, a plain dict, or a path to a
    JSON spec file.  ``hierarchy`` overrides the spec's hierarchy section
    with a ready :class:`Hierarchy` object — required when the spec says
    ``{"kind": "custom"}``, ignored for non-hierarchical families.
    """
    return HeavyHitterEngine.from_spec(spec, hierarchy=hierarchy)


class HeavyHitterEngine:
    """One stable surface over bare, sharded, and pipelined deployments.

    Build through :func:`build_engine` / :meth:`from_spec`; direct
    construction wires a pre-built sketch to its spec and registry entry
    (the escape hatch for tests and custom composition).

    Examples
    --------
    >>> from repro.engine import build_engine
    >>> with build_engine({
    ...     "algorithm": {"family": "space_saving", "counters": 8},
    ... }) as engine:
    ...     engine.update_many(["a", "a", "b"])
    ...     engine.top_k(1)
    [('a', 2)]
    """

    def __init__(
        self, sketch: Any, spec: SketchSpec, info: AlgorithmInfo
    ) -> None:
        self._sketch = sketch
        self._spec = spec
        self._info = info

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls, spec: SpecLike, hierarchy: Optional[Hierarchy] = None
    ) -> "HeavyHitterEngine":
        """Resolve ``spec`` through the registry and compose the stack."""
        spec = _coerce_spec(spec)
        info = algorithm_info(spec.algorithm.family)
        if hierarchy is None and spec.hierarchy is not None:
            hierarchy = spec.hierarchy.resolve()
        if info.hierarchical and hierarchy is None:
            raise ValueError(
                f"{info.name} needs a hierarchy: add a hierarchy section "
                f"or pass build_engine(spec, hierarchy=...)"
            )
        sharding = spec.sharding
        if sharding is None and spec.pipeline is None:
            sketch = info.factory(spec.algorithm, hierarchy, None)
            return cls(sketch, spec, info)
        if sharding is None:
            # a pipeline with no sharding section runs on one shard
            from .spec import ShardingSpec

            sharding = ShardingSpec()
        query_mode = sharding.query_mode
        if query_mode is None:
            # prefix queries span routing shards; flat keys route cleanly
            query_mode = "sum" if info.hierarchical else "route"

        def factory(shard_id: int) -> object:
            return info.factory(spec.algorithm, hierarchy, shard_id)

        executor: Union[str, PersistentProcessExecutor] = sharding.executor
        if sharding.transport is not None:
            # the spec layer guarantees executor == "persistent" here; a
            # ready executor object carries the transport choice down
            executor = PersistentProcessExecutor(transport=sharding.transport)
        sketch = ShardedSketch(
            factory,
            shards=sharding.shards,
            executor=executor,
            query_mode=query_mode,
            merge_counters=sharding.merge_counters,
            pipeline=(
                spec.pipeline.to_config() if spec.pipeline is not None else None
            ),
            windowed=info.windowed,
        )
        return cls(sketch, spec, info)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def spec(self) -> SketchSpec:
        """The declarative spec this engine was built from."""
        return self._spec

    @property
    def sketch(self) -> Any:
        """The composed sketch stack (bare sketch or ShardedSketch)."""
        return self._sketch

    @property
    def capabilities(self) -> FrozenSet[str]:
        """The algorithm family's declared capability set."""
        return self._info.capabilities

    @property
    def family(self) -> str:
        """The algorithm family name."""
        return self._info.name

    @property
    def sharded(self) -> bool:
        """Whether the stack includes the sharding layer."""
        return isinstance(self._sketch, ShardedSketch)

    @property
    def windowed(self) -> bool:
        """Whether the family advances a sliding window."""
        return self._info.windowed

    def stats(self) -> Dict[str, object]:
        """A flat snapshot of what is deployed and how much it has seen."""
        sketch = self._sketch
        out: Dict[str, object] = {
            "family": self._info.name,
            "capabilities": sorted(self._info.capabilities),
            "sharded": self.sharded,
            "shards": getattr(sketch, "num_shards", 1),
            "pipelined": bool(getattr(sketch, "pipelined", False)),
        }
        for attr in ("updates", "packets", "processed"):
            seen = getattr(sketch, attr, None)
            if seen is not None and not callable(seen):
                out["updates"] = int(seen)
                break
        else:
            out["updates"] = None
        if self._spec.algorithm.window is not None:
            out["window"] = self._spec.algorithm.window
        return out

    # ------------------------------------------------------------------
    # unified ingestion surface
    # ------------------------------------------------------------------
    def update(self, item: Hashable) -> None:
        """Ingest one item."""
        self._sketch.update(item)

    def update_many(self, items: Sequence[Hashable]) -> None:
        """Ingest a materialized batch (list/tuple fast path)."""
        self._sketch.update_many(items)

    def extend(
        self, iterable: Iterable[Hashable], chunk_size: int = 4096
    ) -> None:
        """Ingest any iterable in chunks."""
        self._sketch.extend(iterable, chunk_size=chunk_size)

    # ------------------------------------------------------------------
    # unified query surface
    # ------------------------------------------------------------------
    def query(self, key: Hashable) -> float:
        """Frequency estimate for ``key`` (family-native units)."""
        return self._sketch.query(key)

    def heavy_hitters(self, theta: float) -> Dict[Hashable, float]:
        """Keys above the family's ``theta`` threshold convention."""
        return self._sketch.heavy_hitters(theta)

    def top_k(self, k: int) -> List[Tuple[Hashable, float]]:
        """The ``k`` largest tracked keys as ``(key, estimate)`` pairs."""
        return self._sketch.top_k(k)

    def entries(self) -> List[Entry]:
        """The mergeable ``(key, estimate, guaranteed)`` snapshot."""
        return self._sketch.entries()

    # ------------------------------------------------------------------
    # capability passthroughs (windowed / hierarchical families)
    # ------------------------------------------------------------------
    def ingest_gap(self, count: int) -> None:
        """Advance the window for ``count`` uninserted packets."""
        self._sketch.ingest_gap(count)

    def ingest_sample(self, item: Hashable) -> None:
        """Full update for one externally-sampled packet."""
        self._sketch.ingest_sample(item)

    def ingest_samples(self, items: Sequence[Hashable]) -> None:
        """Full updates for a batch of externally-sampled packets."""
        self._sketch.ingest_samples(items)

    def candidates(self) -> List[Hashable]:
        """Keys/prefixes the sketch currently tracks."""
        candidates = getattr(self._sketch, "candidates", None)
        if candidates is not None:
            return candidates()
        return [key for key, _, _ in self._sketch.entries()]

    def query_point(self, key: Hashable) -> float:
        """Midpoint (bias-removed) estimate when the family has one."""
        query_point = getattr(self._sketch, "query_point", None)
        if query_point is not None:
            return query_point(key)
        return self._sketch.query(key)

    def query_lower(self, key: Hashable) -> float:
        """Guaranteed (lower-bound) estimate when the family has one."""
        for name in ("query_lower", "lower_bound"):
            fn = getattr(self._sketch, name, None)
            if fn is not None:
                return fn(key)
        return self._sketch.query(key)

    def heavy_prefixes(self, theta: float) -> Dict[Hashable, float]:
        """Prefix enumeration for hierarchical families; else plain HH."""
        heavy_prefixes = getattr(self._sketch, "heavy_prefixes", None)
        if heavy_prefixes is not None:
            return heavy_prefixes(theta)
        return self._sketch.heavy_hitters(theta)

    def output(self, theta: float) -> Set[Hashable]:
        """The HHH output set (hierarchical) or the heavy-hitter keys."""
        output = getattr(self._sketch, "output", None)
        if output is not None:
            return output(theta)
        return set(self._sketch.heavy_hitters(theta))

    # ------------------------------------------------------------------
    # state snapshot / restore (checkpointing substrate)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Picklable snapshot of the composed sketch stack's state.

        Sharded stacks delegate to
        :meth:`~repro.sharding.ShardedSketch.state_snapshot` (pipeline
        drained, resident worker state pulled back); bare sketches are
        snapshotted whole.  The snapshot references live objects — it is
        meant to be pickled immediately, which is what
        :mod:`repro.service`'s checkpoint writer does.
        """
        if self.sharded:
            return {"kind": "sharded", "state": self._sketch.state_snapshot()}
        return {"kind": "bare", "state": self._sketch}

    def restore_state(self, snapshot: Dict[str, object]) -> None:
        """Adopt a :meth:`snapshot_state` as the engine's current state.

        The engine must have been built from the same spec that produced
        the snapshot (``CheckpointStore.restore`` guarantees this by
        rebuilding via :func:`build_engine` from the checkpointed spec);
        a sharded/bare shape mismatch fails fast.
        """
        kind = snapshot.get("kind")
        expected = "sharded" if self.sharded else "bare"
        if kind != expected:
            raise ValueError(
                f"snapshot kind {kind!r} does not match this engine's "
                f"stack ({expected!r}) — was it taken under the same spec?"
            )
        if self.sharded:
            self._sketch.restore_state(snapshot["state"])
        else:
            self._sketch = snapshot["state"]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Synchronize any pipelined ingestion (no-op when synchronous)."""
        flush = getattr(self._sketch, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> None:
        """Release executors/pipeline threads (idempotent no-op for bare
        sketches); queries keep working on the synced state."""
        close = getattr(self._sketch, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "HeavyHitterEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # compatibility passthrough
    # ------------------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        """Delegate anything else to the wrapped sketch.

        The unified surface above is the stable API; the passthrough
        keeps family-specific extras (``windowed_entries``,
        ``full_update_many``, ``merged_window`` ...) reachable so the
        engine hosts anywhere a bare sketch did.
        """
        if name in ("_sketch", "_spec", "_info"):
            # the engine's own state: absent only mid-(un)pickle/init —
            # delegating would recurse
            raise AttributeError(name)
        return getattr(self._sketch, name)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"HeavyHitterEngine(family={self._info.name!r}, "
            f"sharded={self.sharded}, sketch={self._sketch!r})"
        )
