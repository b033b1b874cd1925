"""Command-line experiment driver.

Regenerates the paper's tables from the terminal::

    python -m repro.eval.run --experiment tables12
    python -m repro.eval.run --experiment tables34 --steps 300
    python -m repro.eval.run --experiment table5 --tech 130nm
    python -m repro.eval.run --experiment table6 --tech 90nm --circuits c17 c432
    python -m repro.eval.run --experiment accuracy --tech 65nm

The first run per technology characterizes the library (a few minutes);
results are cached on disk afterwards.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import obs
from repro.charlib.characterize import CharacterizationGrid, characterize_library
from repro.gates.library import default_library
from repro.tech.presets import TECHNOLOGIES


def _charlibs(tech, grid=None):
    library = default_library()
    poly = characterize_library(library, tech, grid=grid, model="polynomial",
                                vector_mode="all")
    lut = characterize_library(library, tech, grid=grid, model="lut",
                               vector_mode="default")
    return poly, lut


def _finish(args, result) -> int:
    """Common epilogue: print the experiment text, attach and emit the
    observability snapshot."""
    if isinstance(result, dict):
        result["metrics"] = obs.snapshot()
        print(result["text"])
    else:
        print(result)
    if args.profile:
        print()
        print(obs.tracing.render())
    if args.metrics_json:
        try:
            Path(args.metrics_json).write_text(
                json.dumps(obs.snapshot(), indent=2)
            )
        except OSError as exc:
            print(f"\nerror: cannot write metrics snapshot: {exc}",
                  file=sys.stderr)
            return 1
        print(f"\nwrote metrics snapshot to {args.metrics_json}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--experiment",
        required=True,
        choices=["tables12", "tables34", "fig23", "table5", "table6",
                 "accuracy", "simultaneous", "pvt", "gba", "pruning"],
    )
    parser.add_argument("--tech", default="130nm", choices=list(TECHNOLOGIES))
    parser.add_argument("--circuits", nargs="*", default=None)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink suite circuits for quick runs")
    parser.add_argument("--steps", type=int, default=400,
                        help="transient steps per simulation window")
    parser.add_argument("--paths", type=int, default=6,
                        help="electrically simulated paths per circuit")
    parser.add_argument("--max-dev-paths", type=int, default=20000)
    parser.add_argument("--backtrack-limit", type=int, default=1000)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="shard developed-tool searches across primary "
                             "inputs in N worker processes")
    parser.add_argument("--log-level", default=None,
                        choices=["debug", "info", "warning", "error"],
                        help="enable structured logging at this level")
    parser.add_argument("--profile", action="store_true",
                        help="trace spans and print the span tree")
    parser.add_argument("--metrics-json", default=None, metavar="PATH",
                        help="write the metrics+span snapshot to PATH")
    args = parser.parse_args(argv)

    if args.log_level:
        obs.configure_logging(level=args.log_level)
    if args.profile:
        obs.tracing.enable()

    tech = TECHNOLOGIES[args.tech]

    if args.experiment == "tables12":
        from repro.eval import exp_tables12

        return _finish(args, exp_tables12.run())
    if args.experiment == "tables34":
        from repro.eval import exp_tables34

        return _finish(args, exp_tables34.run(steps_per_window=args.steps))
    if args.experiment == "fig23":
        from repro.eval import exp_fig23

        return _finish(args, exp_fig23.run(tech=tech))
    if args.experiment == "simultaneous":
        from repro.eval import exp_simultaneous

        return _finish(
            args, exp_simultaneous.skew_sweep(tech, steps_per_window=args.steps)
        )
    if args.experiment == "pvt":
        from repro.eval.exp_pvt import characterize_pvt, corner_analysis
        from repro.eval.fig4 import fig4_circuit

        cells = ["INV", "BUF", "NAND2", "AND2", "AO22"]
        charlib = characterize_pvt(tech, cells, steps_per_window=args.steps)
        return _finish(args, corner_analysis(fig4_circuit(), charlib, tech))

    poly, lut = _charlibs(tech)
    if args.experiment == "table5":
        from repro.eval import exp_table5

        return _finish(
            args, exp_table5.run(tech, poly, lut, steps_per_window=args.steps)
        )
    if args.experiment == "table6":
        from repro.eval import exp_table6

        return _finish(
            args,
            exp_table6.run(
                poly,
                lut,
                circuits=args.circuits,
                scale=args.scale,
                backtrack_limit=args.backtrack_limit,
                max_dev_paths=args.max_dev_paths,
            ),
        )
    if args.experiment == "pruning":
        from repro.eval import exp_pruning

        return _finish(
            args,
            exp_pruning.run(
                poly,
                circuits=args.circuits,
                scale=args.scale,
                max_dev_paths=args.max_dev_paths,
                jobs=args.jobs,
            ),
        )
    if args.experiment == "gba":
        from repro.core.graphsta import gba_pessimism
        from repro.core.sta import TruePathSTA
        from repro.eval.iscas import build_circuit
        from repro.eval.tables import render_table

        rows = []
        for name in (args.circuits or ["c432", "c880a"]):
            circuit = build_circuit(name, scale=args.scale)
            sta = TruePathSTA(circuit, poly)
            paths = sta.enumerate_paths(
                max_paths=args.max_dev_paths, jobs=args.jobs
            )
            comparison = gba_pessimism(sta.gba(), paths)
            for endpoint, row in sorted(comparison.items()):
                rows.append([
                    name, endpoint,
                    f"{row['gba'] * 1e12:.1f}",
                    f"{row['true'] * 1e12:.1f}",
                    f"{row['pessimism'] * 100:+.1f}%",
                ])
        return _finish(args, render_table(
            ["circuit", "endpoint", "GBA (ps)", "true worst (ps)",
             "pessimism"], rows,
            title="Graph-based vs true-path endpoint arrivals",
        ))
    if args.experiment == "accuracy":
        from repro.eval import exp_accuracy

        return _finish(
            args,
            exp_accuracy.run(
                tech,
                poly,
                lut,
                circuits=args.circuits,
                scale=args.scale,
                paths_per_circuit=args.paths,
                steps_per_window=args.steps,
            ),
        )
    return 1


if __name__ == "__main__":
    sys.exit(main())
