"""Bench CLI: ``python -m repro.bench <command>``.

Three subcommands (full guide: ``docs/benchmarking.md``):

``run``
    Execute experiments as parallel cells and write tables + CSVs +
    a machine-readable run manifest::

        python -m repro.bench run --all --jobs 4
        python -m repro.bench run 'fig1*' loss --jobs 2 --scale paper
        python -m repro.bench run fig10_33 --nodes 150 --no-cache

``list``
    Show every experiment with its cell count at the chosen scale.

``report``
    Re-render the tables of the last ``run`` from its saved series bundle
    without re-running anything.

Results land under ``--results-dir`` (default ``benchmarks/results``):
``<experiment>.csv`` per experiment, ``series.json`` (the lossless bundle
``report`` reads), ``run_manifest.json`` (per-cell timings and cache hits),
and the result cache under ``.cache/``.  The rendered report goes to
``--out`` (default ``experiment_report_<scale>.txt``, matching the old
``scripts/run_all_experiments.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from ..errors import ReproError
from .cache import ResultCache
from .harness import experiment_specs, run_experiments
from .reporting import ExperimentSeries, render_table, save_csv

DEFAULT_RESULTS_DIR = Path("benchmarks") / "results"
SERIES_BUNDLE = "series.json"
MANIFEST_NAME = "run_manifest.json"


def _resolve_node_count(args: argparse.Namespace) -> int:
    from .. import constants

    if args.nodes is not None:
        if args.nodes < 2:
            raise ValueError(f"--nodes must be >= 2: {args.nodes}")
        return args.nodes
    return constants.PAPER_NODE_COUNT if args.scale == "paper" else 600


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=["bench", "paper"],
        default="bench",
        help="bench = 600 nodes (CI default), paper = 1500 nodes",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="override the node count (takes precedence over --scale)",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    results_dir = Path(args.results_dir)
    cache_dir = results_dir / ".cache"
    if args.clear_cache:
        removed = ResultCache(cache_dir).clear()
        print(f"cache cleared ({removed} entries)")
        if not args.patterns and not args.all:
            return 0
    if not args.patterns and not args.all:
        print(
            "error: select experiments by name/glob or pass --all "
            "(see `python -m repro.bench list`)",
            file=sys.stderr,
        )
        return 2

    node_count = _resolve_node_count(args)
    started = time.perf_counter()
    run = run_experiments(
        args.patterns or None,
        node_count=node_count,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else cache_dir,
        progress=lambda line: print(line, flush=True),
    )
    wall = time.perf_counter() - started

    out_path = Path(args.out or f"experiment_report_{args.scale}.txt")
    lines = [f"# Experiment report ({args.scale} scale, {node_count} nodes)\n"]
    for series in run.series:
        save_csv(series, results_dir)
        lines.append(render_table(series))
        lines.append("")
    out_path.write_text("\n".join(lines))

    run.manifest.update(
        {
            "scale": args.scale,
            "node_count": node_count,
            "wall_seconds": round(wall, 3),
            "report": str(out_path),
            "results_dir": str(results_dir),
        }
    )
    (results_dir / MANIFEST_NAME).write_text(
        json.dumps(run.manifest, indent=2, sort_keys=True) + "\n"
    )
    (results_dir / SERIES_BUNDLE).write_text(
        json.dumps([series.to_dict() for series in run.series], sort_keys=True)
        + "\n"
    )

    cached = run.manifest["cached_cells"]
    total = run.manifest["total_cells"]
    print(
        f"{len(run.series)} experiment(s), {total} cell(s) "
        f"({cached} cached) in {wall:.1f}s wall "
        f"({run.manifest['total_cell_seconds']:.1f}s of cell time); "
        f"report: {out_path}; manifest: {results_dir / MANIFEST_NAME}"
    )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    node_count = _resolve_node_count(args)
    specs = experiment_specs(node_count)
    width = max(len(name) for name in specs)
    print(f"# experiments at {node_count} nodes (cells run in parallel)")
    for name, spec in specs.items():
        cells = f"{len(spec.cells)} cell{'s' if len(spec.cells) != 1 else ''}"
        print(f"{name.ljust(width)}  {cells:>9}  {spec.title}")
    return 0


def _render_profile(manifest_path: Path) -> Optional[str]:
    """One-line profile summary from a run manifest, or None if absent."""
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError):
        return None
    profile = manifest.get("profile")
    if not isinstance(profile, dict):
        return None
    cache = profile.get("cache", {})
    line = (
        f"# cache: {cache.get('hits', 0)} hit(s), "
        f"{cache.get('misses', 0)} miss(es), "
        f"{cache.get('puts', 0)} put(s), "
        f"{cache.get('evictions', 0)} eviction(s)"
    )
    slowest = profile.get("slowest_cells") or []
    if slowest:
        cells = ", ".join(
            f"{entry['label']} {entry['elapsed_s']:.1f}s" for entry in slowest
        )
        line += f"\n# slowest cells: {cells}"
    return line


def _cmd_report(args: argparse.Namespace) -> int:
    bundle = Path(args.results_dir) / SERIES_BUNDLE
    if not bundle.exists():
        print(
            f"error: {bundle} not found — run `python -m repro.bench run` first",
            file=sys.stderr,
        )
        return 2
    try:
        payloads = json.loads(bundle.read_text())
    except OSError as error:
        print(f"error: cannot read {bundle}: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(
            f"error: {bundle} is not valid JSON ({error}) — "
            "re-run `python -m repro.bench run` to regenerate it",
            file=sys.stderr,
        )
        return 2
    if not isinstance(payloads, list):
        print(
            f"error: {bundle} does not hold a series list — "
            "re-run `python -m repro.bench run` to regenerate it",
            file=sys.stderr,
        )
        return 2
    for payload in payloads:
        try:
            series = ExperimentSeries.from_dict(payload)
        except (KeyError, TypeError, AttributeError):
            print(
                f"error: {bundle} holds a malformed series entry — "
                "re-run `python -m repro.bench run` to regenerate it",
                file=sys.stderr,
            )
            return 2
        print(render_table(series))
        print()
    profile = _render_profile(Path(args.results_dir) / MANIFEST_NAME)
    if profile is not None:
        print(profile)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The bench CLI parser (exposed for testing and shell completion)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's §VI evaluation as parallel, "
        "cached experiment cells.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run experiments (parallel cells, cached results)"
    )
    run.add_argument(
        "patterns",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment names or globs, e.g. fig10_33 'fig1*' loss",
    )
    run.add_argument("--all", action="store_true", help="run every experiment")
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = in-process; output is identical)",
    )
    _add_scale_arguments(run)
    run.add_argument(
        "--results-dir",
        default=str(DEFAULT_RESULTS_DIR),
        help="where CSVs, series.json, the manifest and the cache live",
    )
    run.add_argument("--out", default=None, help="report file (default: experiment_report_<scale>.txt)")
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="compute every cell even if a cached result exists",
    )
    run.add_argument(
        "--clear-cache",
        action="store_true",
        help="delete the result cache first (alone: just clear and exit)",
    )
    run.set_defaults(handler=_cmd_run)

    lister = commands.add_parser("list", help="list experiments and cell counts")
    _add_scale_arguments(lister)
    lister.set_defaults(handler=_cmd_list)

    report = commands.add_parser(
        "report", help="re-render tables from the last run's series.json"
    )
    report.add_argument("--results-dir", default=str(DEFAULT_RESULTS_DIR))
    report.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into something that stopped reading (`| head`).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
