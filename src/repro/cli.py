"""Command-line entry point: ``python -m repro <figure> [options]``.

Runs any of the paper-figure experiments and prints the paper-style table.
The same drivers back the pytest benchmarks, so CLI output and bench
output always agree.

Examples
--------
::

    python -m repro fig1b              # detection-time model
    python -m repro fig4 --worked      # the Section 5.2 worked example
    python -m repro fig5               # Memento vs WCSS grid
    REPRO_SCALE=4 python -m repro fig10
    python -m repro fig9 --spec specs/netwide_sharded_controller.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .experiments import fig1b, fig4, fig5, fig6, fig7, fig8, fig9, fig10

_FIGURES = {
    "fig1b": fig1b,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce figures from 'Memento: Making Sliding Windows "
            "Efficient for Heavy Hitters' (CoNEXT 2018)"
        ),
    )
    sub = parser.add_subparsers(dest="figure", required=True)
    for name, module in _FIGURES.items():
        doc = (module.__doc__ or "").strip().splitlines()[0]
        p = sub.add_parser(name, help=doc)
        p.add_argument(
            "--seed", type=int, default=2018, help="experiment seed"
        )
        if name == "fig4":
            p.add_argument(
                "--worked",
                action="store_true",
                help="print the Section 5.2 worked example instead",
            )
        if name == "fig1b":
            p.add_argument(
                "--no-simulate",
                action="store_true",
                help="skip the Monte-Carlo verification columns",
            )
        if name in ("fig9", "fig10"):
            p.add_argument(
                "--spec",
                metavar="PATH",
                default=None,
                help="JSON SketchSpec declaring the controller's "
                "execution strategy (sharding/executor/pipeline "
                "sections). See specs/*.json for checked-in examples",
            )
        if name == "fig10":
            p.add_argument(
                "--timeline",
                action="store_true",
                help="also print the Figures 10a/10b identification-over-"
                "time series",
            )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    module = _FIGURES[args.figure]
    if args.figure == "fig4":
        rows = module.worked_example() if args.worked else module.run()
    elif args.figure == "fig9":
        rows = module.run(seed=args.seed, spec=args.spec)
    elif args.figure == "fig1b":
        rows = module.run(simulate=not args.no_simulate, seed=args.seed)
    elif args.figure == "fig10" and args.timeline:
        results = module.run_detailed(seed=args.seed, spec=args.spec)
        print(module.format_table(module.summarize(results)))
        print()
        print(module.format_timeline(results))
        return 0
    elif args.figure == "fig10":
        rows = module.run(seed=args.seed, spec=args.spec)
    else:
        rows = module.run(seed=args.seed)
    print(module.format_table(rows))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
