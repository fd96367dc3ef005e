"""Declarative, serializable sketch configuration: the ``SketchSpec`` tree.

Four PRs of growth scattered deployment knobs across constructors
(``Memento(window, counters, tau, seed)``), wrapper arguments
(``ShardedSketch(factory, shards, executor, pipeline, query_mode, ...)``)
and per-figure CLI flags.  This module collapses them into one frozen
dataclass tree that round-trips through plain dicts / JSON files:

* :class:`AlgorithmSpec` — which algorithm family and its core knobs
  (window, counters/epsilon, tau, seed, ...).  Families are names in the
  :mod:`repro.engine.registry`; adding an algorithm never touches this
  module.
* :class:`HierarchySpec` — a *named* prefix lattice (``src`` /
  ``src_dst``), so hierarchical specs stay serializable.  ``custom``
  marks a spec whose hierarchy object must be supplied at build time.
* :class:`ShardingSpec` — the scale-out section: shard count, executor
  strategy, query discipline, merge budget.
* :class:`PipelineSpec` — the pipelined ingestion front-end's knobs
  (mirrors :class:`repro.sharding.pipeline.PipelineConfig`).
* :class:`ServiceSpec` — the always-on daemon section: listener
  addresses, checkpoint cadence/retention, and the ingest backpressure
  budget consumed by :mod:`repro.service`.
* :class:`SketchSpec` — the root: algorithm + optional hierarchy /
  sharding / pipeline / service sections, with ``from_dict`` /
  ``to_dict`` / ``from_json`` / ``to_json`` / ``from_file`` /
  ``to_file``.

Validation happens **at parse time**: every ``__post_init__`` checks its
own ranges, and :class:`SketchSpec` cross-checks the algorithm section
against the registry's declared requirements (window needed?  hierarchy
needed?  counters vs. epsilon?), so a bad spec fails when it is read,
not deep inside a constructor after shards were already built.

Round-trip contract (pinned by ``tests/engine/test_spec.py``)::

    SketchSpec.from_dict(spec.to_dict()) == spec
    SketchSpec.from_json(spec.to_json()) == spec
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Optional, Type, TypeVar, Union

from ..hierarchy.domain import SRC_DST_HIERARCHY, SRC_HIERARCHY, Hierarchy
from ..sharding.executors import EXECUTORS, TRANSPORTS
from ..sharding.pipeline import PipelineConfig
from ..sharding.sharded import QUERY_MODES

__all__ = [
    "AlgorithmSpec",
    "HierarchySpec",
    "PipelineSpec",
    "ServiceSpec",
    "ShardingSpec",
    "SketchSpec",
    "hierarchy_spec_for",
]

#: The named hierarchies a :class:`HierarchySpec` can resolve on its own.
NAMED_HIERARCHIES: Dict[str, Hierarchy] = {
    "src": SRC_HIERARCHY,
    "src_dst": SRC_DST_HIERARCHY,
}

_SectionT = TypeVar("_SectionT")


def _check_positive(
    name: str, value: Optional[float], allow_none: bool = True
) -> None:
    if value is None:
        if not allow_none:
            raise ValueError(f"{name} is required")
        return
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _from_section(
    cls: Type[_SectionT], payload: object, where: str
) -> _SectionT:
    """Build a section dataclass from a dict, rejecting unknown keys."""
    if not isinstance(payload, dict):
        raise ValueError(f"{where} must be an object, got {type(payload).__name__}")
    known = {f.name for f in fields(cls)}  # type: ignore[arg-type]
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(
            f"unknown {where} key(s) {unknown}; expected a subset of "
            f"{sorted(known)}"
        )
    return cls(**payload)


@dataclass(frozen=True)
class HierarchySpec:
    """A named prefix lattice.

    ``kind`` is ``"src"`` (1-D source hierarchy, H=5), ``"src_dst"``
    (2-D source×destination, H=25), or ``"custom"`` — a marker for specs
    recorded from deployments using an ad-hoc :class:`Hierarchy` object;
    such specs parse and serialize, but :meth:`resolve` requires the
    object to be re-supplied at build time (``build_engine(spec,
    hierarchy=...)``).
    """

    kind: str = "src"

    def __post_init__(self) -> None:
        if self.kind not in (*NAMED_HIERARCHIES, "custom"):
            raise ValueError(
                f"hierarchy kind must be one of "
                f"{sorted((*NAMED_HIERARCHIES, 'custom'))}, got {self.kind!r}"
            )

    def resolve(self) -> Hierarchy:
        """The :class:`Hierarchy` object this spec names."""
        if self.kind == "custom":
            raise ValueError(
                "a 'custom' hierarchy spec cannot be resolved from the spec "
                "alone; pass the Hierarchy object via "
                "build_engine(spec, hierarchy=...)"
            )
        return NAMED_HIERARCHIES[self.kind]


def hierarchy_spec_for(hierarchy: Optional[Hierarchy]) -> Optional[HierarchySpec]:
    """The :class:`HierarchySpec` naming ``hierarchy`` (identity match).

    Returns ``None`` for ``None`` and ``HierarchySpec("custom")`` for a
    hierarchy object that is not one of the named lattices.
    """
    if hierarchy is None:
        return None
    for kind, named in NAMED_HIERARCHIES.items():
        if hierarchy is named:
            return HierarchySpec(kind)
    return HierarchySpec("custom")


@dataclass(frozen=True)
class AlgorithmSpec:
    """The algorithm section: family name plus the family's core knobs.

    Which fields are required/allowed depends on the family's registry
    entry (checked by :class:`SketchSpec`); the ranges below hold for
    every family.  ``seed`` is the *base* seed — sharded builds derive
    per-shard seeds deterministically (``seed + 7919 · shard_id``, the
    network-wide controller convention), so one spec seed pins the whole
    ensemble.
    """

    family: str
    window: Optional[int] = None
    counters: Optional[int] = None
    epsilon: Optional[float] = None
    tau: float = 1.0
    seed: Optional[int] = None
    delta: float = 0.001
    sampler: str = "table"
    sampling_ratio: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.family or not isinstance(self.family, str):
            raise ValueError(f"family must be a non-empty string, got {self.family!r}")
        _check_positive("window", self.window)
        _check_positive("counters", self.counters)
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        _check_positive("sampling_ratio", self.sampling_ratio)


@dataclass(frozen=True)
class ShardingSpec:
    """The scale-out section: how the key space is partitioned and run.

    ``query_mode=None`` means "auto": the engine picks ``sum`` for
    hierarchical families (prefix queries span routing shards) and
    ``route`` otherwise — the same choice the network-wide controller
    hard-coded before this layer existed.

    ``transport`` selects the persistent executor's plan payload
    channel: ``"pipe"`` (the default when omitted) pickles plans into
    the worker pipes, ``"shm"`` ships columnar plans through per-worker
    shared-memory rings (descriptors only on the pipe).  It is a
    persistent-executor knob — naming it with any other executor is a
    parse error, because silently ignoring it would misrecord how a
    benched deployment actually ran.
    """

    shards: int = 1
    executor: str = "serial"
    query_mode: Optional[str] = None
    merge_counters: Optional[int] = None
    transport: Optional[str] = None

    def __post_init__(self) -> None:
        _check_positive("shards", self.shards, allow_none=False)
        # the sharding layer's own vocabulary, so the two cannot drift (a
        # ready executor object is programmatic-API only, not serializable)
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got "
                f"{self.executor!r}"
            )
        if self.query_mode is not None and self.query_mode not in QUERY_MODES:
            raise ValueError(
                f"query_mode must be one of {QUERY_MODES} or null, got "
                f"{self.query_mode!r}"
            )
        _check_positive("merge_counters", self.merge_counters)
        if self.transport is not None:
            if self.transport not in TRANSPORTS:
                raise ValueError(
                    f"transport must be one of {TRANSPORTS} or null, got "
                    f"{self.transport!r}"
                )
            if self.executor != "persistent":
                raise ValueError(
                    f"transport is a persistent-executor knob; remove it or "
                    f"set executor='persistent' (got executor="
                    f"{self.executor!r})"
                )

    @property
    def resolved_transport(self) -> Optional[str]:
        """The transport this spec actually runs with.

        ``None`` for non-persistent executors (no plan channel exists);
        for the persistent executor the explicit knob, defaulting to
        ``"pipe"``.  Bench rows record this so a row's metadata says how
        its plans moved even when the spec left the knob implicit.
        """
        if self.executor != "persistent":
            return None
        return self.transport or "pipe"


@dataclass(frozen=True)
class PipelineSpec:
    """The pipelined ingestion front-end's knobs (serializable mirror of
    :class:`repro.sharding.pipeline.PipelineConfig`)."""

    buffer_size: int = 4096
    depth: int = 2

    def __post_init__(self) -> None:
        _check_positive("buffer_size", self.buffer_size, allow_none=False)
        _check_positive("depth", self.depth, allow_none=False)

    def to_config(self) -> PipelineConfig:
        """The runtime :class:`PipelineConfig` this spec describes."""
        return PipelineConfig(buffer_size=self.buffer_size, depth=self.depth)


@dataclass(frozen=True)
class ServiceSpec:
    """The always-on ingestion daemon section (:mod:`repro.service`).

    A spec carrying this section fully describes a deployable daemon:
    ``repro-serve path/to/spec.json`` builds the engine from the other
    sections and serves it.  ``port`` / ``unix_socket`` name the
    listeners (``port=0`` binds an ephemeral TCP port; at least one
    listener must be configured).  ``checkpoint_dir`` enables periodic
    checkpoint/restore: every ``checkpoint_interval`` ingested items the
    daemon atomically persists a ``repro-ckpt/1`` envelope (resolved
    spec + pickled engine state + stream position), keeping the newest
    ``checkpoint_retain`` files so a torn write can fall back to the
    previous good one.  ``max_inflight_bytes`` bounds the bytes of
    accepted-but-unapplied report frames — once the budget is full the
    server stops reading, so backpressure reaches clients through the
    transport instead of an unbounded queue.
    """

    host: str = "127.0.0.1"
    port: Optional[int] = None
    unix_socket: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    checkpoint_interval: int = 50_000
    checkpoint_retain: int = 2
    max_inflight_bytes: int = 4 * 1024 * 1024

    def __post_init__(self) -> None:
        if not self.host or not isinstance(self.host, str):
            raise ValueError(f"host must be a non-empty string, got {self.host!r}")
        if self.port is not None and not 0 <= self.port <= 65535:
            raise ValueError(
                f"port must be in [0, 65535] or null, got {self.port}"
            )
        if self.port is None and self.unix_socket is None:
            raise ValueError(
                "service needs at least one listener: set port (0 = "
                "ephemeral) and/or unix_socket"
            )
        if self.unix_socket is not None and not self.unix_socket:
            raise ValueError("unix_socket must be a non-empty path or null")
        _check_positive(
            "checkpoint_interval", self.checkpoint_interval, allow_none=False
        )
        _check_positive(
            "checkpoint_retain", self.checkpoint_retain, allow_none=False
        )
        _check_positive(
            "max_inflight_bytes", self.max_inflight_bytes, allow_none=False
        )


@dataclass(frozen=True)
class SketchSpec:
    """The root of the declarative configuration tree.

    ``algorithm`` is mandatory; ``hierarchy``, ``sharding``,
    ``pipeline`` and ``service`` are optional sections.  A spec with no
    sharding and no pipeline section builds a bare sketch; either
    section wraps it in a :class:`repro.sharding.ShardedSketch` (a
    pipeline with no sharding section runs on one shard).  The service
    section does not change what :func:`~repro.engine.facade
    .build_engine` builds — it describes how :mod:`repro.service` hosts
    the engine as a daemon.

    Examples
    --------
    >>> spec = SketchSpec.from_dict({
    ...     "algorithm": {"family": "memento", "window": 1000,
    ...                   "counters": 64, "tau": 1.0, "seed": 7},
    ... })
    >>> SketchSpec.from_dict(spec.to_dict()) == spec
    True
    """

    algorithm: AlgorithmSpec
    hierarchy: Optional[HierarchySpec] = None
    sharding: Optional[ShardingSpec] = None
    pipeline: Optional[PipelineSpec] = None
    service: Optional[ServiceSpec] = None

    def __post_init__(self) -> None:
        # cross-validate against the registry's declared requirements;
        # the import is deferred so spec <-> registry stay acyclic
        from .registry import algorithm_info

        info = algorithm_info(self.algorithm.family)
        info.validate_spec(self)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A plain JSON-serializable dict; absent sections are omitted."""
        out: Dict[str, object] = {"algorithm": dataclasses.asdict(self.algorithm)}
        if self.hierarchy is not None:
            out["hierarchy"] = dataclasses.asdict(self.hierarchy)
        if self.sharding is not None:
            out["sharding"] = dataclasses.asdict(self.sharding)
        if self.pipeline is not None:
            out["pipeline"] = dataclasses.asdict(self.pipeline)
        if self.service is not None:
            out["service"] = dataclasses.asdict(self.service)
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SketchSpec":
        """Parse (and validate) a spec from a plain dict.

        Unknown keys — top-level or inside any section — are an error:
        a typo must not silently fall back to a default.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"spec must be an object, got {type(payload).__name__}"
            )
        unknown = sorted(
            set(payload)
            - {"algorithm", "hierarchy", "sharding", "pipeline", "service"}
        )
        if unknown:
            raise ValueError(
                f"unknown spec section(s) {unknown}; expected a subset of "
                f"['algorithm', 'hierarchy', 'pipeline', 'service', 'sharding']"
            )
        if "algorithm" not in payload:
            raise ValueError("spec is missing the 'algorithm' section")
        algorithm = _from_section(AlgorithmSpec, payload["algorithm"], "algorithm")
        hierarchy = sharding = pipeline = service = None
        if payload.get("hierarchy") is not None:
            hierarchy = _from_section(HierarchySpec, payload["hierarchy"], "hierarchy")
        if payload.get("sharding") is not None:
            sharding = _from_section(ShardingSpec, payload["sharding"], "sharding")
        if payload.get("pipeline") is not None:
            pipeline = _from_section(PipelineSpec, payload["pipeline"], "pipeline")
        if payload.get("service") is not None:
            service = _from_section(ServiceSpec, payload["service"], "service")
        return cls(
            algorithm=algorithm,
            hierarchy=hierarchy,
            sharding=sharding,
            pipeline=pipeline,
            service=service,
        )

    def to_json(self, indent: int = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SketchSpec":
        """Parse (and validate) a spec from a JSON document."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"spec is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    def to_file(self, path: Union[str, Path]) -> Path:
        """Write the spec as a JSON file; returns the path."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SketchSpec":
        """Parse (and validate) a spec from a JSON file."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ValueError(f"cannot read spec file {path}: {exc}") from None
        try:
            return cls.from_json(text)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
