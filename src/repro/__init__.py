"""repro — a reproduction of *Memento: Making Sliding Windows Efficient for
Heavy Hitters* (Ben Basat, Einziger, Keslassy, Orda, Vargaftik, Waisbard —
CoNEXT 2018).

The package implements the full Memento family plus every substrate the
paper depends on:

* single-device algorithms — :class:`Memento` (HH), :class:`HMemento`
  (HHH), with :class:`WCSS`, :class:`SpaceSaving`, :class:`MST`,
  :class:`WindowBaseline` and :class:`RHHH` as the paper's baselines;
* prefix hierarchies — :data:`SRC_HIERARCHY` (1-D, H=5) and
  :data:`SRC_DST_HIERARCHY` (2-D, H=25);
* network-wide measurement — measurement points, Sample/Batch/Aggregation
  transports, D-Memento / D-H-Memento controllers, and the Theorem 5.5
  budget optimizer (:class:`BudgetModel`);
* an HAProxy-like load-balancer fleet with subnet ACLs and the
  threshold-based mitigation loop of Section 6.3;
* synthetic traffic (trace profiles, HTTP generator, flood injection) and
  the evaluation metrics used by the paper's figures.

**The front door is the engine facade**: declare a deployment as a
:class:`SketchSpec` (a frozen, JSON-round-trippable configuration tree —
algorithm family, window, sharding, pipelining) and
:func:`build_engine` composes the stack behind one stable surface.

Quickstart::

    from repro import build_engine

    with build_engine({
        "algorithm": {"family": "memento", "window": 100_000,
                      "counters": 512, "tau": 1 / 16, "seed": 1},
    }) as engine:
        engine.update_many(stream)          # or engine.update(packet)
        heavy = engine.heavy_hitters(theta=0.01)
        top = engine.top_k(10)

The same spec scales out declaratively — add ``"sharding": {"shards": 8,
"executor": "persistent"}`` and ``"pipeline": {}`` sections, or load a
checked-in deployment with ``build_engine("specs/....json")`` — and new
algorithm families join via :func:`register_algorithm` without touching
the spec or the facade.  Direct constructors (``Memento(...)`` etc.)
remain available and are what the registry factories call; engine-built
state is byte-identical to hand-wired construction under a fixed seed.

See ``examples/`` for end-to-end scenarios (``examples/engine_spec.py``
walks the spec layer), ``specs/`` for checked-in deployment files, and
``benchmarks/`` for the per-figure reproduction harness.
"""

from .analysis.change_detection import ChangeEvent, HeavyChangeDetector
from .analysis.detection import (
    analytic_detection_time,
    detection_curve,
    simulate_detection_time,
)
from .analysis.error_model import (
    hmemento_min_tau,
    hmemento_sampling_error,
    memento_min_tau,
    memento_sampling_error,
    z_quantile,
)
from .analysis.metrics import (
    RunningRMSE,
    SetQuality,
    hhh_on_arrival_rmse,
    on_arrival_rmse,
    precision_recall,
    throughput,
)
from .core.api import (
    MergeableSketch,
    QueryableSketch,
    SlidingSketch,
    WindowedEntries,
    WindowedSketch,
)
from .engine import (
    AlgorithmSpec,
    HeavyHitterEngine,
    HierarchySpec,
    PipelineSpec,
    ServiceSpec,
    ShardingSpec,
    SketchSpec,
    build_engine,
    register_algorithm,
    registered_algorithms,
)
from .core.exact import ExactIntervalCounter, ExactWindowCounter, ExactWindowHHH
from .core.h_memento import HMemento
from .core.interval import IntervalScheme
from .core.memento import WCSS, Memento
from .core.merge import (
    MergedWindowSketch,
    merge_entry_sets,
    merge_h_memento,
    merge_memento,
    merge_mst,
    merge_space_saving,
    merge_windowed_entry_sets,
)
from .core.mst import MST, WindowBaseline
from .core.rhhh import RHHH
from .core.sampling import (
    BernoulliSampler,
    FixedSampler,
    GeometricSampler,
    TableSampler,
    make_sampler,
)
from .core.space_saving import SpaceSaving
from .core.volumetric import VolumetricMemento, VolumetricSpaceSaving
from .hierarchy.domain import (
    SRC_DST_HIERARCHY,
    SRC_HIERARCHY,
    Hierarchy,
    Hierarchy1D,
    Hierarchy2D,
)
from .hierarchy.hhh_output import compute_hhh
from .hierarchy.prefix import (
    int_to_ip,
    ip_to_int,
    make_prefix,
    parse_prefix,
    prefix_str,
)
from .netwide.budget import BudgetModel, figure4_series
from .netwide.controller import AggregationController, SketchController
from .netwide.measurement_point import AggregatingPoint, SamplingPoint
from .netwide.simulation import NetwideConfig, NetwideSystem, run_error_experiment
from .service import (
    AsyncServiceClient,
    CheckpointStore,
    IngestServer,
    ServiceClient,
    ServiceDaemon,
)
from .sharding import (
    PersistentProcessExecutor,
    PipelineConfig,
    ShardedSketch,
    shard_index,
)
from .traffic.flood import FloodSpec, FloodTrace, inject_flood
from .traffic.http import HttpRequest, HttpTrafficGenerator
from .traffic.packet import Packet
from .traffic.synth import (
    BACKBONE,
    DATACENTER,
    EDGE,
    PROFILES,
    Trace,
    TraceProfile,
    generate_trace,
)

__version__ = "1.0.0"

__all__ = [
    # core algorithms
    "Memento",
    "WCSS",
    "HMemento",
    "SpaceSaving",
    "MST",
    "WindowBaseline",
    "RHHH",
    "IntervalScheme",
    "merge_space_saving",
    "merge_entry_sets",
    "merge_mst",
    "merge_windowed_entry_sets",
    "merge_memento",
    "merge_h_memento",
    "MergedWindowSketch",
    # protocols
    "SlidingSketch",
    "MergeableSketch",
    "QueryableSketch",
    "WindowedSketch",
    "WindowedEntries",
    # engine facade
    "HeavyHitterEngine",
    "build_engine",
    "SketchSpec",
    "AlgorithmSpec",
    "HierarchySpec",
    "ShardingSpec",
    "PipelineSpec",
    "ServiceSpec",
    "register_algorithm",
    "registered_algorithms",
    # service
    "IngestServer",
    "ServiceDaemon",
    "ServiceClient",
    "AsyncServiceClient",
    "CheckpointStore",
    # sharding
    "ShardedSketch",
    "shard_index",
    "PersistentProcessExecutor",
    "PipelineConfig",
    "VolumetricMemento",
    "VolumetricSpaceSaving",
    "ChangeEvent",
    "HeavyChangeDetector",
    "ExactWindowCounter",
    "ExactIntervalCounter",
    "ExactWindowHHH",
    # sampling
    "BernoulliSampler",
    "TableSampler",
    "GeometricSampler",
    "FixedSampler",
    "make_sampler",
    # hierarchies
    "Hierarchy",
    "Hierarchy1D",
    "Hierarchy2D",
    "SRC_HIERARCHY",
    "SRC_DST_HIERARCHY",
    "compute_hhh",
    "ip_to_int",
    "int_to_ip",
    "make_prefix",
    "parse_prefix",
    "prefix_str",
    # network-wide
    "BudgetModel",
    "figure4_series",
    "SamplingPoint",
    "AggregatingPoint",
    "SketchController",
    "AggregationController",
    "NetwideConfig",
    "NetwideSystem",
    "run_error_experiment",
    # traffic
    "Packet",
    "Trace",
    "TraceProfile",
    "generate_trace",
    "BACKBONE",
    "DATACENTER",
    "EDGE",
    "PROFILES",
    "FloodSpec",
    "FloodTrace",
    "inject_flood",
    "HttpRequest",
    "HttpTrafficGenerator",
    # analysis
    "analytic_detection_time",
    "simulate_detection_time",
    "detection_curve",
    "z_quantile",
    "memento_min_tau",
    "memento_sampling_error",
    "hmemento_min_tau",
    "hmemento_sampling_error",
    "RunningRMSE",
    "SetQuality",
    "on_arrival_rmse",
    "hhh_on_arrival_rmse",
    "precision_recall",
    "throughput",
    "__version__",
]
