"""End-to-end network-wide simulation tests."""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import replace

import pytest

from repro import (
    NetwideConfig,
    NetwideSystem,
    SRC_HIERARCHY,
    PipelineSpec,
    ShardedSketch,
    ShardingSpec,
    generate_trace,
    run_error_experiment,
)
from repro.netwide.simulation import _assignment_iter
from repro.traffic.synth import DATACENTER


def sharded_config(shards, executor="serial", pipeline=None, **fields):
    """A config whose controller spec is the plain one sharded
    ``shards`` ways."""
    spec = replace(
        NetwideConfig(**fields).spec,
        sharding=ShardingSpec(shards=shards, executor=executor),
        pipeline=pipeline,
    )
    return NetwideConfig(**fields, spec=spec)


@pytest.fixture(scope="module")
def stream():
    return generate_trace(DATACENTER, 12_000, seed=31).packets_1d()


class TestConfig:
    def test_method_validation(self):
        with pytest.raises(ValueError):
            NetwideConfig(method="carrier-pigeon")
        with pytest.raises(ValueError):
            NetwideConfig(points=0)


class TestSystemWiring:
    def test_sample_method_fixes_batch_one(self):
        system = NetwideSystem(NetwideConfig(method="sample", window=1000))
        assert system.batch_size == 1
        assert 0 < system.tau <= 1.0

    def test_batch_method_uses_optimizer_by_default(self):
        system = NetwideSystem(NetwideConfig(method="batch", window=100_000))
        assert system.batch_size > 1

    def test_explicit_batch_size(self):
        system = NetwideSystem(
            NetwideConfig(method="batch", window=1000, batch_size=7)
        )
        assert system.batch_size == 7

    def test_aggregate_wiring(self):
        system = NetwideSystem(
            NetwideConfig(method="aggregate", window=1000, points=3)
        )
        assert len(system.points) == 3
        assert system.tau == 1.0

    def test_budget_respected_by_all_methods(self, stream):
        """No method may exceed the configured bytes-per-packet budget."""
        for method in ("sample", "batch", "aggregate"):
            config = NetwideConfig(
                points=4,
                method=method,
                budget=1.0,
                window=2000,
                counters=128,
                seed=5,
                aggregate_max_entries=64,
            )
            system = NetwideSystem(config)
            for i, pkt in enumerate(stream[:6000]):
                system.offer(i % 4, pkt)
            bpp = system.bytes_sent / 6000
            assert bpp <= 1.05, (method, bpp)

    def test_offer_reports_and_controller_sees_traffic(self, stream):
        config = NetwideConfig(
            points=2, method="batch", budget=4.0, window=2000, counters=128,
            batch_size=4, seed=3,
        )
        system = NetwideSystem(config)
        any_report = False
        for i, pkt in enumerate(stream[:4000]):
            any_report |= system.offer(i % 2, pkt)
        assert any_report
        assert system.reports_sent > 0
        # the controller saw (covered) most of the stream
        assert system.controller.packets_covered > 3000


class TestLifecycle:
    """Simulations must tear down the executor workers they spawn."""

    def _persistent_config(self, **overrides):
        base = dict(
            points=2,
            method="batch",
            budget=2.0,
            window=1500,
            counters=128,
            seed=7,
            executor="persistent",
        )
        base.update(overrides)
        return sharded_config(2, **base)

    def test_close_releases_worker_processes(self, stream):
        system = NetwideSystem(self._persistent_config())
        for i, pkt in enumerate(stream[:3000]):
            system.offer(i % 2, pkt)
        assert system.query(stream[0]) >= 0.0
        system.close()
        system.close()  # idempotent
        assert mp.active_children() == []
        # queries keep working on the synced-back parent state
        assert system.query(stream[0]) >= 0.0

    def test_context_manager_closes(self, stream):
        with NetwideSystem(self._persistent_config()) as system:
            for i, pkt in enumerate(stream[:2000]):
                system.offer(i % 2, pkt)
        assert mp.active_children() == []

    def test_error_experiment_leaves_no_children(self, stream):
        result = run_error_experiment(
            self._persistent_config(), stream[:4000], stride=200
        )
        assert result["observations"] > 0
        assert mp.active_children() == []

    def test_pipelined_sharded_experiment_matches_serial(self, stream):
        # the pipeline section must not change a single estimate: the
        # whole experiment (reports, gaps, on-arrival queries) is
        # differential
        base = dict(
            points=3,
            method="batch",
            budget=2.0,
            window=1500,
            counters=256,
            seed=7,
        )
        serial = run_error_experiment(
            sharded_config(2, **base), stream[:6000], stride=100
        )
        pipelined = run_error_experiment(
            sharded_config(2, pipeline=PipelineSpec(), **base),
            stream[:6000],
            stride=100,
        )
        assert pipelined["rmse"] == serial["rmse"]
        assert pipelined["observations"] == serial["observations"]
        assert mp.active_children() == []

    def test_system_builds_pipelined_controller(self):
        config = self._persistent_config(
            executor="serial", pipeline=PipelineSpec()
        )
        with NetwideSystem(config) as system:
            algorithm = system.controller.algorithm
            assert isinstance(algorithm.sketch, ShardedSketch)
            assert algorithm.pipelined


class TestDetectedSubnets:
    def test_requires_hierarchy(self):
        system = NetwideSystem(NetwideConfig(method="batch", window=1000))
        with pytest.raises(ValueError):
            system.detected_subnets(theta=0.1)

    def test_detects_dominant_subnet(self):
        config = NetwideConfig(
            points=2,
            method="batch",
            budget=8.0,
            window=2000,
            counters=512,
            hierarchy=SRC_HIERARCHY,
            seed=9,
        )
        system = NetwideSystem(config)
        hot = 0x0A000000
        for i in range(6000):
            system.offer(i % 2, hot | (i % 256))
        detected = system.detected_subnets(theta=0.5)
        assert (hot, 8) in detected


class TestAssignment:
    def test_round_robin(self):
        assert list(_assignment_iter(6, 3, "round_robin", None, None)) == [
            0, 1, 2, 0, 1, 2,
        ]

    def test_uniform_covers_points(self):
        picks = set(_assignment_iter(500, 4, "uniform", None, seed=1))
        assert picks == {0, 1, 2, 3}

    def test_weighted_respects_weights(self):
        picks = list(
            _assignment_iter(4000, 2, "weighted", [0.9, 0.1], seed=2)
        )
        share0 = picks.count(0) / len(picks)
        assert 0.85 < share0 < 0.95

    def test_weighted_needs_matching_weights(self):
        with pytest.raises(ValueError):
            list(_assignment_iter(10, 3, "weighted", [0.5, 0.5], seed=1))

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            list(_assignment_iter(10, 2, "by-vibes", None, None))


class TestErrorExperiment:
    def test_batch_beats_aggregation(self):
        """The Figure 9 headline ordering.

        Needs a window large enough for aggregation's staleness (which
        grows linearly with the report interval) to dominate batch's
        sampling noise (which grows as sqrt) — below that crossover the
        tiny idealized aggregation can still win.
        """
        stream = generate_trace(DATACENTER, 30_000, seed=31).packets_1d()
        results = {}
        for method in ("batch", "aggregate"):
            config = NetwideConfig(
                points=8,
                method=method,
                budget=1.0,
                window=8000,
                counters=512,
                seed=11,
                aggregate_max_entries=256,
            )
            results[method] = run_error_experiment(
                config, stream, stride=40
            )["rmse"]
        assert results["batch"] < results["aggregate"]

    def test_result_keys(self, stream):
        config = NetwideConfig(
            points=2, method="sample", budget=2.0, window=2000, counters=128,
            seed=13,
        )
        result = run_error_experiment(config, stream[:5000], stride=100)
        assert {
            "method",
            "rmse",
            "observations",
            "bytes_sent",
            "reports_sent",
            "bytes_per_packet",
            "tau",
            "batch_size",
        } <= set(result)
        assert result["observations"] > 0


class TestOfferMany:
    """Batch delivery through a point must match scalar offer exactly."""

    @pytest.mark.parametrize("method,batch", [("sample", None), ("batch", 16)])
    def test_single_point_identical_state(self, method, batch):
        stream = generate_trace(DATACENTER, 8000, seed=21).packets_1d()
        config = NetwideConfig(
            points=1, method=method, budget=1.0, window=2000,
            counters=128, batch_size=batch, seed=13,
        )
        a, b = NetwideSystem(config), NetwideSystem(config)
        triggered_scalar = sum(bool(a.offer(0, p)) for p in stream)
        triggered_batch = 0
        for start in range(0, len(stream), 1111):
            triggered_batch += b.offer_many(0, stream[start : start + 1111])
        assert triggered_scalar == triggered_batch
        assert a.now == b.now
        assert a.bytes_sent == b.bytes_sent
        assert a.reports_sent == b.reports_sent
        ca, cb = a.controller, b.controller
        assert ca.samples_ingested == cb.samples_ingested
        assert ca.packets_covered == cb.packets_covered
        ma, mb = ca.algorithm, cb.algorithm
        assert ma.updates == mb.updates
        assert ma.full_updates == mb.full_updates
        assert dict(ma._offsets) == dict(mb._offsets)
        for key in set(stream[:100]):
            assert ma.query(key) == mb.query(key)

    def test_aggregate_falls_back_to_scalar(self):
        stream = generate_trace(DATACENTER, 2000, seed=5).packets_1d()
        config = NetwideConfig(
            points=1, method="aggregate", budget=1.0, window=1000, counters=64,
        )
        a, b = NetwideSystem(config), NetwideSystem(config)
        for p in stream:
            a.offer(0, p)
        b.offer_many(0, stream)
        assert a.now == b.now
        assert a.reports_sent == b.reports_sent
        for key in set(stream[:50]):
            assert a.query(key) == b.query(key)
