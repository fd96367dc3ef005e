"""Sharded sliding-window ingestion: hash partitioning + merge-on-query.

Public surface:

* :class:`ShardedSketch` — hash-partitioned ensemble of any
  :class:`repro.core.api.SlidingSketch`, with global-window alignment
  for the Memento family and merge-on-query combining.
* :func:`shard_index` — the deterministic routing hash.
* :class:`PersistentProcessExecutor` — resident shard workers (state
  never round-trips per batch); ``executor="serial"`` runs shards in
  the calling process instead.
* Pipelined front-end — :class:`PipelineConfig` /
  ``ShardedSketch(pipeline=...)``: coalesced write buffering plus a
  background partitioner thread overlapping worker applies.
"""

from .executors import PersistentProcessExecutor
from .pipeline import PipelineConfig, make_pipeline_config
from .sharded import ShardedSketch, shard_index

__all__ = [
    "ShardedSketch",
    "shard_index",
    "PersistentProcessExecutor",
    "PipelineConfig",
    "make_pipeline_config",
]
