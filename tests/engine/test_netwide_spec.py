"""NetwideConfig spec field: the plain default and engine-built controllers."""

from __future__ import annotations

import pickle

import pytest

from repro import (
    HMemento,
    Memento,
    SRC_HIERARCHY,
    NetwideConfig,
    NetwideSystem,
    ShardedSketch,
    generate_trace,
    run_error_experiment,
)
from repro.engine import (
    AlgorithmSpec,
    HierarchySpec,
    ShardingSpec,
    SketchSpec,
    build_engine,
)
from repro.traffic.synth import DATACENTER


@pytest.fixture(scope="module")
def stream():
    return generate_trace(DATACENTER, 9000, seed=17).packets_1d()


def controller_state(system) -> bytes:
    algorithm = system.controller.algorithm
    sketch = algorithm.sketch
    if isinstance(sketch, ShardedSketch):
        return pickle.dumps([pickle.dumps(s) for s in sketch.shards])
    return pickle.dumps(sketch)


def drive(system, stream) -> None:
    for t, packet in enumerate(stream):
        system.offer(t % system.config.points, packet)


def spec_template(shards=None, executor="serial", pipeline=None):
    return SketchSpec(
        algorithm=AlgorithmSpec(
            family="memento", window=2000, counters=128, seed=13
        ),
        sharding=(
            ShardingSpec(shards=shards, executor=executor)
            if shards is not None
            else None
        ),
        pipeline=pipeline,
    )


class TestDeprecationShims:
    """The retired ``shards``/``shard_executor``/``shard_pipeline``
    fields: ``spec=`` is the only way to shard the controller."""

    def test_defaults_do_not_warn(self, recwarn):
        NetwideConfig(window=2000)
        assert not [
            w for w in recwarn.list if w.category is DeprecationWarning
        ]

    def test_legacy_synthesizes_spec(self):
        # a config without a spec synthesizes the plain controller
        # template from its own fields
        config = NetwideConfig(window=2000, counters=64, seed=5)
        spec = config.spec
        assert spec.algorithm.family == "memento"
        assert (spec.algorithm.window, spec.algorithm.counters) == (2000, 64)
        assert spec.algorithm.seed == 5
        assert spec.sharding is None
        assert spec.pipeline is None

    def test_single_shard_legacy_stays_plain(self):
        with NetwideSystem(NetwideConfig(window=2000, seed=1)) as system:
            assert isinstance(system.controller.algorithm.sketch, Memento)
            assert system.resolved_spec.sharding is None

    def test_mixing_spec_and_legacy_knobs_rejected(self):
        for knob, value in (
            ("shards", 8),
            ("shard_executor", "persistent"),
            ("shard_pipeline", True),
        ):
            with pytest.raises(TypeError, match=knob):
                NetwideConfig(
                    window=2000, spec=spec_template(shards=2), **{knob: value}
                )
            with pytest.raises(TypeError, match=knob):
                NetwideConfig(window=2000, **{knob: value})


class TestEngineBuiltControllers:
    def test_resolved_spec_rebuilds_controller(self, stream):
        """A recorded resolved spec alone reproduces the controller state."""
        config = NetwideConfig(
            points=2,
            method="batch",
            window=2000,
            counters=64,
            seed=7,
            spec=spec_template(shards=2),
        )
        with NetwideSystem(config) as system:
            drive(system, stream)
            resolved = system.resolved_spec
            # replay the exact same report stream into a spec-built engine
            with build_engine(resolved) as engine:
                replay = NetwideSystem(config)
                # feed through fresh points so sampling decisions replay
                for t, packet in enumerate(stream):
                    report = replay.points[t % config.points].observe(packet)
                    if report is None:
                        continue
                    samples = report.samples
                    gap = report.covered - len(samples)
                    if len(samples) == 1:
                        engine.ingest_sample(samples[0])
                    elif samples:
                        engine.ingest_samples(samples)
                    if gap > 0:
                        engine.ingest_gap(gap)
                replay.close()
                engine.flush()
                system.controller.algorithm.flush()
                assert [
                    pickle.dumps(s) for s in engine.sketch.shards
                ] == [
                    pickle.dumps(s)
                    for s in system.controller.algorithm.sketch.shards
                ]

    def test_hierarchy_resolution(self, stream):
        config = NetwideConfig(
            points=2,
            method="batch",
            window=2000,
            counters=200,
            hierarchy=SRC_HIERARCHY,
            seed=3,
        )
        with NetwideSystem(config) as system:
            assert system.resolved_spec.algorithm.family == "h_memento"
            assert system.resolved_spec.hierarchy == HierarchySpec("src")
            assert isinstance(system.controller.algorithm.sketch, HMemento)

    def test_plain_memento_resolution(self):
        with NetwideSystem(
            NetwideConfig(points=2, method="sample", window=2000, seed=3)
        ) as system:
            assert system.resolved_spec.algorithm.family == "memento"
            assert system.resolved_spec.algorithm.tau == min(1.0, system.tau)
            assert isinstance(system.controller.algorithm.sketch, Memento)

    def test_counter_budget_split_recorded(self):
        config = NetwideConfig(
            points=2,
            method="batch",
            window=2000,
            counters=100,
            seed=3,
            spec=spec_template(shards=4),
        )
        with NetwideSystem(config) as system:
            assert system.resolved_spec.algorithm.counters == 25
            assert system.controller.algorithm.shards[0].k == 25

    def test_aggregate_has_no_resolved_spec(self):
        with NetwideSystem(
            NetwideConfig(points=2, method="aggregate", window=2000)
        ) as system:
            assert system.resolved_spec is None

    def test_error_experiment_records_spec(self, stream):
        config = NetwideConfig(
            points=2, method="batch", window=2000, counters=64, seed=7
        )
        summary = run_error_experiment(config, stream[:4000], stride=200)
        recorded = SketchSpec.from_dict(summary["spec"])
        assert recorded.algorithm.family == "memento"
        assert recorded.algorithm.tau == summary["tau"] or (
            summary["tau"] > 1 and recorded.algorithm.tau == 1.0
        )
