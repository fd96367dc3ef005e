"""Unified engine facade: declarative specs, algorithm registry, one API.

The three pieces, bottom-up:

* :mod:`repro.engine.spec` — the frozen, JSON-round-trippable
  :class:`SketchSpec` configuration tree (algorithm + hierarchy +
  sharding + pipeline + service sections) with parse-time validation.
* :mod:`repro.engine.registry` — named algorithm families with declared
  capability sets keyed on the :mod:`repro.core.api` protocols;
  :func:`register_algorithm` adds new families without touching the
  spec or the facade.
* :mod:`repro.engine.facade` — :func:`build_engine` /
  :class:`HeavyHitterEngine`: reads a spec, composes bare sketch,
  sharding, and pipelining internally, and exposes the one stable
  surface every deployment scenario shares.

Quickstart::

    from repro.engine import build_engine

    with build_engine("specs/sharded_memento.json") as engine:
        engine.update_many(packets)
        heavy = engine.heavy_hitters(theta=0.01)
"""

from .facade import HeavyHitterEngine, build_engine
from .registry import (
    AlgorithmInfo,
    algorithm_info,
    register_algorithm,
    registered_algorithms,
    shard_seed,
)
from .spec import (
    AlgorithmSpec,
    HierarchySpec,
    PipelineSpec,
    ServiceSpec,
    ShardingSpec,
    SketchSpec,
    hierarchy_spec_for,
)

__all__ = [
    "AlgorithmInfo",
    "AlgorithmSpec",
    "HeavyHitterEngine",
    "HierarchySpec",
    "PipelineSpec",
    "ServiceSpec",
    "ShardingSpec",
    "SketchSpec",
    "algorithm_info",
    "build_engine",
    "hierarchy_spec_for",
    "register_algorithm",
    "registered_algorithms",
    "shard_seed",
]
