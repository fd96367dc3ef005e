"""Public-API surface tests: exports, docstrings, doctests, and the
API-stability gate (exported-name + engine-signature snapshots)."""

from __future__ import annotations

import doctest
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.engine import HeavyHitterEngine, SketchSpec, build_engine


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ names missing export: {name}"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackages_importable(self):
        for pkg in (
            "repro.core",
            "repro.engine",
            "repro.hierarchy",
            "repro.traffic",
            "repro.netwide",
            "repro.loadbalancer",
            "repro.analysis",
            "repro.experiments",
            "repro.service",
            "repro.cli",
        ):
            importlib.import_module(pkg)

    def test_subpackage_all_resolve(self):
        for pkg_name in (
            "repro.core",
            "repro.engine",
            "repro.hierarchy",
            "repro.traffic",
            "repro.netwide",
            "repro.loadbalancer",
            "repro.analysis",
            "repro.service",
        ):
            module = importlib.import_module(pkg_name)
            for name in module.__all__:
                assert hasattr(module, name), f"{pkg_name}.{name}"

    def test_console_scripts_resolve(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["repro-serve"] == "repro.service.cli:main"
        for target in scripts.values():
            module_name, func = target.split(":")
            assert callable(getattr(importlib.import_module(module_name), func))


def _all_modules():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name == "repro.__main__":
            continue  # importing it runs the CLI
        out.append(info.name)
    return out


class TestDocumentation:
    @pytest.mark.parametrize("module_name", _all_modules())
    def test_every_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    @pytest.mark.parametrize("module_name", _all_modules())
    def test_doctests_pass(self, module_name):
        module = importlib.import_module(module_name)
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0, f"{module_name}: {results.failed} doctest failures"

    def test_public_classes_have_docstrings(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"{name} lacks a class docstring"


# ----------------------------------------------------------------------
# API-stability gate
# ----------------------------------------------------------------------
#: Snapshot of the top-level export surface.  A failure here means the
#: public API changed: removing or renaming a name is a breaking change
#: (update the snapshot deliberately, with a changelog entry); adding a
#: name means extending the snapshot in the same PR that exports it.
EXPECTED_EXPORTS = (
    "AggregatingPoint",
    "AggregationController",
    "AlgorithmSpec",
    "AsyncServiceClient",
    "BACKBONE",
    "BernoulliSampler",
    "BudgetModel",
    "ChangeEvent",
    "CheckpointStore",
    "DATACENTER",
    "EDGE",
    "ExactIntervalCounter",
    "ExactWindowCounter",
    "ExactWindowHHH",
    "FixedSampler",
    "FloodSpec",
    "FloodTrace",
    "GeometricSampler",
    "HMemento",
    "HeavyChangeDetector",
    "HeavyHitterEngine",
    "Hierarchy",
    "Hierarchy1D",
    "Hierarchy2D",
    "HierarchySpec",
    "HttpRequest",
    "HttpTrafficGenerator",
    "IngestServer",
    "IntervalScheme",
    "MST",
    "Memento",
    "MergeableSketch",
    "MergedWindowSketch",
    "NetwideConfig",
    "NetwideSystem",
    "PROFILES",
    "Packet",
    "PersistentProcessExecutor",
    "PipelineConfig",
    "PipelineSpec",
    "QueryableSketch",
    "RHHH",
    "RunningRMSE",
    "SRC_DST_HIERARCHY",
    "SRC_HIERARCHY",
    "SamplingPoint",
    "ServiceClient",
    "ServiceDaemon",
    "ServiceSpec",
    "SetQuality",
    "ShardedSketch",
    "ShardingSpec",
    "SketchController",
    "SketchSpec",
    "SlidingSketch",
    "SpaceSaving",
    "TableSampler",
    "Trace",
    "TraceProfile",
    "VolumetricMemento",
    "VolumetricSpaceSaving",
    "WCSS",
    "WindowBaseline",
    "WindowedEntries",
    "WindowedSketch",
    "__version__",
    "analytic_detection_time",
    "build_engine",
    "compute_hhh",
    "detection_curve",
    "figure4_series",
    "generate_trace",
    "hhh_on_arrival_rmse",
    "hmemento_min_tau",
    "hmemento_sampling_error",
    "inject_flood",
    "int_to_ip",
    "ip_to_int",
    "make_prefix",
    "make_sampler",
    "memento_min_tau",
    "memento_sampling_error",
    "merge_entry_sets",
    "merge_h_memento",
    "merge_memento",
    "merge_mst",
    "merge_space_saving",
    "merge_windowed_entry_sets",
    "on_arrival_rmse",
    "parse_prefix",
    "precision_recall",
    "prefix_str",
    "register_algorithm",
    "registered_algorithms",
    "run_error_experiment",
    "shard_index",
    "simulate_detection_time",
    "throughput",
    "z_quantile",
)

#: Snapshot of the engine facade's unified surface.  These signatures are
#: the contract every deployment scenario programs against; changing one
#: is an API break.
EXPECTED_ENGINE_SIGNATURES = {
    "update": "(self, item: 'Hashable') -> 'None'",
    "update_many": "(self, items: 'Sequence[Hashable]') -> 'None'",
    "extend": (
        "(self, iterable: 'Iterable[Hashable]', chunk_size: 'int' = 4096) "
        "-> 'None'"
    ),
    "query": "(self, key: 'Hashable') -> 'float'",
    "heavy_hitters": "(self, theta: 'float') -> 'Dict[Hashable, float]'",
    "top_k": "(self, k: 'int') -> 'List[Tuple[Hashable, float]]'",
    "entries": "(self) -> 'List[Entry]'",
    "stats": "(self) -> 'Dict[str, object]'",
    "flush": "(self) -> 'None'",
    "close": "(self) -> 'None'",
    "from_spec": (
        "(spec: 'SpecLike', hierarchy: 'Optional[Hierarchy]' = None) "
        "-> \"'HeavyHitterEngine'\""
    ),
}

EXPECTED_SPEC_FIELDS = (
    "algorithm",
    "hierarchy",
    "sharding",
    "pipeline",
    "service",
)


class TestApiStabilityGate:
    def test_export_snapshot(self):
        assert tuple(sorted(set(repro.__all__))) == EXPECTED_EXPORTS

    def test_engine_method_signatures(self):
        for name, expected in EXPECTED_ENGINE_SIGNATURES.items():
            signature = str(inspect.signature(getattr(HeavyHitterEngine, name)))
            assert signature == expected, (
                f"HeavyHitterEngine.{name}{signature} drifted from the "
                f"snapshot {expected}"
            )

    def test_engine_is_context_manager(self):
        assert hasattr(HeavyHitterEngine, "__enter__")
        assert hasattr(HeavyHitterEngine, "__exit__")

    def test_build_engine_signature(self):
        params = list(inspect.signature(build_engine).parameters)
        assert params == ["spec", "hierarchy"]

    def test_sketch_spec_fields(self):
        import dataclasses

        fields = tuple(f.name for f in dataclasses.fields(SketchSpec))
        assert fields == EXPECTED_SPEC_FIELDS
