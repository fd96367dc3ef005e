"""CLI surface tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.engine import SketchSpec

SHARDED_SPEC = (
    Path(__file__).parent.parent.parent / "specs" / "netwide_sharded_controller.json"
)


class TestParser:
    def test_requires_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_figures_registered(self):
        parser = build_parser()
        for name in ("fig1b", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"):
            args = parser.parse_args([name])
            assert args.figure == name

    def test_fig4_worked_flag(self):
        args = build_parser().parse_args(["fig4", "--worked"])
        assert args.worked


class TestMain:
    def test_fig4_worked_output(self, capsys):
        assert main(["fig4", "--worked"]) == 0
        out = capsys.readouterr().out
        assert "B=1, W=1e6" in out
        assert "total_error" in out

    def test_fig1b_no_simulate(self, capsys):
        assert main(["fig1b", "--no-simulate"]) == 0
        out = capsys.readouterr().out
        assert "improved_interval" in out
        assert "window_sim" not in out


class TestShardsFlag:
    """fig9 takes its controller sharding from ``--spec`` alone."""

    def test_fig9_shards_default(self):
        args = build_parser().parse_args(["fig9"])
        assert args.spec is None  # the plain single-sketch controller
        assert not hasattr(args, "shards")

    def test_fig9_shards_parsed(self):
        args = build_parser().parse_args(["fig9", "--spec", str(SHARDED_SPEC)])
        spec = SketchSpec.from_file(args.spec)
        assert spec.sharding.shards == 2
        assert spec.sharding.executor == "persistent"
        assert spec.pipeline is not None

    def test_other_figures_have_no_shards(self):
        args = build_parser().parse_args(["fig5"])
        assert not hasattr(args, "shards")
        assert not hasattr(args, "spec")
        for flag in ("--shards", "--executor", "--pipeline"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["fig9", flag, "2"])
