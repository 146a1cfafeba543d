"""Parallel experiment harness: cells, fan-out, caching, assembly.

The §VI evaluation is an embarrassingly parallel matrix — every
(experiment, ratio, sweep point, seed) combination is an independent
simulation.  This module decomposes each experiment function of
:mod:`repro.bench.experiments` into picklable **cells**, fans them out over
a :class:`concurrent.futures.ProcessPoolExecutor`, and reassembles the
exact :class:`~repro.bench.reporting.ExperimentSeries` the serial call
would have produced — byte-identical tables and CSVs regardless of worker
count or completion order.

How that identity is achieved:

* a cell re-invokes the *same* experiment function with a single-point
  sweep (e.g. ``fig10_overall("33", fractions=[0.05], ...)``), so each row
  is computed by exactly the code that computes it serially;
* every cell is fully pinned — node counts, seeds and sweep axes are
  resolved in the parent before dispatch, so workers never consult
  environment variables;
* assembly concatenates the single-point series in sweep order (never in
  completion order) and deduplicates notes; experiments whose summary
  note spans the whole sweep (``variance``) or that cross-check rows
  against each other (``loss``) get a custom assembler.

Results are cached on disk, content-addressed by cell parameters plus the
:func:`repro.bench.cache.code_fingerprint`, so warm re-runs skip the
simulations entirely.  See ``docs/benchmarking.md`` for the cache-key and
determinism contract, and :mod:`repro.bench.__main__` for the CLI
(``python -m repro.bench``).
"""

from __future__ import annotations

import fnmatch
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from .. import constants
from ..errors import ProtocolError
from ..obs.metrics import MetricsRegistry
from .cache import CACHE_DIR_ENV, ResultCache, cache_key, code_fingerprint
from .experiments import (
    DEFAULT_FRACTIONS,
    scale_node_counts,
    variance_summary_note,
)
from .reporting import ExperimentSeries
from .workloads import default_node_count

__all__ = [
    "Cell",
    "CellResult",
    "ExperimentSpec",
    "RunResult",
    "experiment_specs",
    "run_experiments",
]

#: Manifest layout version (see :attr:`RunResult.manifest`).
MANIFEST_SCHEMA = 1


@dataclass(frozen=True)
class Cell:
    """One independent unit of work: a pinned experiment-function call.

    ``kwargs`` must be JSON-clean (numbers, strings, lists) — they are both
    the pickled payload sent to workers and the content-addressed cache
    identity.  ``index`` is the cell's position in its experiment's sweep;
    assembly orders by it, never by completion time.
    """

    experiment: str
    func: str
    kwargs: tuple  # canonical ((name, value), ...) pairs, sorted by name
    index: int

    @staticmethod
    def make(experiment: str, func: str, kwargs: Dict[str, Any], index: int) -> "Cell":
        return Cell(experiment, func, tuple(sorted(kwargs.items(), key=lambda kv: kv[0])), index)

    @property
    def call_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments as passed to the experiment function."""
        return {name: _thaw(value) for name, value in self.kwargs}

    @property
    def label(self) -> str:
        """Human-readable progress label, e.g. ``fig10_33[3/8]``."""
        return f"{self.experiment}[{self.index}]"

    def key(self, fingerprint: Optional[str] = None) -> str:
        """Content address of this cell's result."""
        return cache_key(
            {"kind": "cell", "func": self.func, "kwargs": self.call_kwargs},
            fingerprint,
        )


def _freeze(value: Any) -> Any:
    """Lists/tuples -> tuples so cells stay hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _thaw(value: Any) -> Any:
    """Tuples -> lists: the JSON-canonical form cache keys are built from."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


@dataclass
class CellResult:
    """A finished cell: its single-point series plus execution metadata."""

    cell: Cell
    series: ExperimentSeries
    elapsed_s: float
    cached: bool


Assembler = Callable[[List[ExperimentSeries]], ExperimentSeries]


@dataclass
class ExperimentSpec:
    """One named experiment: its cells and how to reassemble them."""

    name: str
    title: str
    cells: List[Cell]
    assemble: Assembler = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.assemble is None:
            self.assemble = _assemble_concat


def _assemble_concat(series_list: List[ExperimentSeries]) -> ExperimentSeries:
    """Default assembly: concatenate rows in cell order, dedupe notes.

    Exactly reproduces a serial run for experiments whose notes are
    constant across sweep points (the per-point series all carry the same
    note, which deduplicates to the single note the serial loop appends).
    """
    if not series_list:
        raise ValueError("cannot assemble an experiment from zero cell series")
    first = series_list[0]
    out = ExperimentSeries(first.experiment, first.title, list(first.columns))
    for part in series_list:
        if part.columns != first.columns:
            raise ProtocolError(
                f"{first.experiment}: cell columns diverged "
                f"({part.columns} vs {first.columns})"
            )
        out.rows.extend(list(row) for row in part.rows)
        for note in part.notes:
            if note not in out.notes:
                out.notes.append(note)
    return out


def _assemble_variance(series_list: List[ExperimentSeries]) -> ExperimentSeries:
    """Variance study: recompute the whole-sweep mean/spread note.

    Per-seed cells each carry a one-seed note; the serial function computes
    the note from the rounded per-row savings, so regenerating it from the
    concatenated ``savings_pct`` column restores byte identity.
    """
    out = _assemble_concat(series_list)
    out.notes = [variance_summary_note([float(v) for v in out.column("savings_pct")])]
    return out


def _assemble_loss(series_list: List[ExperimentSeries]) -> ExperimentSeries:
    """Loss study: re-apply the cross-rate exactness check.

    The serial loop asserts SENS-Join's match count is identical at every
    loss rate; per-rate cells cannot see each other, so the check moves
    here.
    """
    out = _assemble_concat(series_list)
    algorithm = out.columns.index("algorithm")
    matches = out.columns.index("matches")
    sens = {row[matches] for row in out.rows if row[algorithm] == "sens-join"}
    if len(sens) > 1:
        raise ProtocolError(
            f"SENS-Join result changed under loss: match counts {sorted(sens)}"
        )
    return out


def _fig14_node_counts(node_count: int) -> List[int]:
    """Fig. 14's sweep sizes at the requested scale (mirrors the function)."""
    scale = node_count / constants.PAPER_NODE_COUNT
    return [int(round(n * scale)) for n in (1000, 1500, 2000, 2500)]


def experiment_specs(node_count: Optional[int] = None) -> Dict[str, ExperimentSpec]:
    """The full experiment registry at one scale, in canonical order.

    Every cell is fully pinned to ``node_count`` (default:
    :func:`repro.bench.workloads.default_node_count`, i.e. 600 or the
    paper's 1500 under ``REPRO_SCALE=paper``), so the returned specs are
    environment-independent from here on.
    """
    n = node_count if node_count is not None else default_node_count()
    specs: Dict[str, ExperimentSpec] = {}

    def add(
        name: str,
        title: str,
        func: str,
        sweep: Sequence[Dict[str, Any]],
        assemble: Optional[Assembler] = None,
    ) -> None:
        cells = [
            Cell.make(name, func, {k: _freeze(v) for k, v in kwargs.items()}, i)
            for i, kwargs in enumerate(sweep)
        ]
        spec = ExperimentSpec(name, title, cells)
        if assemble is not None:
            spec.assemble = assemble
        specs[name] = spec

    for ratio in ("33", "60"):
        add(
            f"fig10_{ratio}",
            f"overall transmissions vs result fraction ({ratio}% ratio)",
            "fig10_overall",
            [
                {"ratio": ratio, "fractions": [f], "node_count": n, "seed": 0}
                for f in DEFAULT_FRACTIONS
            ],
        )
    for ratio in ("33", "60"):
        add(
            f"fig11_{ratio}",
            f"per-node transmissions vs descendants ({ratio}% ratio)",
            "fig11_per_node",
            [{"ratio": ratio, "node_count": n, "seed": 0}],
        )
    add(
        "fig12",
        "3 join attributes / x attributes overall",
        "fig12_ratio3",
        [{"totals": [t], "node_count": n, "seed": 0} for t in (5, 4, 3)],
    )
    add(
        "fig13",
        "1 join attribute / x attributes overall",
        "fig13_ratio1",
        [{"totals": [t], "node_count": n, "seed": 0} for t in (1, 2, 3, 4, 5)],
    )
    add(
        "fig14",
        "influence of the network size (constant density)",
        "fig14_network_size",
        [{"node_counts": [c], "seed": 0} for c in _fig14_node_counts(n)],
    )
    add(
        "fig15",
        "SENS-Join cost per step vs result fraction",
        "fig15_step_breakdown",
        [
            {"fractions": [f], "node_count": n, "seed": 0}
            for f in (0.03, 0.05, 0.09, 0.25)
        ],
    )
    add(
        "fig16",
        "influence of the quadtree representation",
        "fig16_quadtree_influence",
        [{"node_count": n, "seed": 0}],
    )
    add(
        "compression_table",
        "general-purpose compressors vs the quadtree (§VI-B)",
        "compression_table",
        [{"node_count": n, "seed": 0}],
    )
    add(
        "packet_size",
        "influence of the maximum packet size (§VI-A)",
        "packet_size_study",
        [
            {"packet_sizes": [p], "node_count": n, "seed": 0}
            for p in (
                constants.DEFAULT_MAX_PACKET_BYTES,
                constants.LARGE_MAX_PACKET_BYTES,
            )
        ],
    )
    add(
        "response_time",
        "response time: SENS-Join vs external join (§VII)",
        "response_time_study",
        [
            {"fractions": [f], "node_count": n, "seed": 0}
            for f in (0.05, 0.20, 0.40)
        ],
    )
    add(
        "ablation",
        "ablation of SENS-Join design choices",
        "ablation_study",
        [{"node_count": n, "seed": 0}],
    )
    add(
        "placement",
        "join location after filtering (§IV-E)",
        "placement_study",
        [
            {"fractions": [f], "node_count": n, "seed": 0}
            for f in (0.05, 0.20, 0.60)
        ],
    )
    add(
        "memory",
        "Selective Filter Forwarding memory by depth (§IV-C)",
        "memory_study",
        [{"node_count": n, "seed": 0}],
    )
    add(
        "generality",
        "Requirement 1/2 battery: arbitrary conditions and placements",
        "generality_study",
        [{"node_count": n, "seed": 0}],
    )
    add(
        "related_work",
        "specialised joins: their niche vs the general setting (§II)",
        "related_work_study",
        [{"seed": 3}],
    )
    add(
        "continuous",
        "continuous queries: incremental vs snapshot (E12)",
        "continuous_study",
        [
            {"drift_rates": [d], "node_count": min(n, 600), "seed": 9}
            for d in (0.0001, 0.0005, 0.002)
        ],
    )
    add(
        "variance",
        "savings across deployment/data seeds",
        "variance_study",
        [{"seeds": [s], "node_count": n} for s in (0, 1, 2, 3, 4)],
        assemble=_assemble_variance,
    )
    add(
        "resolution",
        "quantization resolution sweep (§V-B)",
        "resolution_study",
        [
            {"resolutions": [r], "node_count": n, "seed": 0}
            for r in (0.02, 0.05, 0.1, 0.5, 1.0, 2.0, 4.0)
        ],
    )
    add(
        "bs_position",
        "savings vs base-station placement",
        "bs_position_study",
        [{"node_count": n, "seed": 0}],
    )
    add(
        "loss",
        "join methods under lossy links with ARQ (§IV-F)",
        "loss_study",
        [
            {"loss_rates": [r], "node_count": n, "seed": 0}
            for r in (0.0, 0.05, 0.1, 0.2, 0.3)
        ],
        assemble=_assemble_loss,
    )
    add(
        "failure",
        "mid-query crashes: repair cost and completeness (§IV-F)",
        "failure_study",
        [
            {"crash_fractions": [f], "node_count": min(n, 300), "seed": 0}
            for f in (0.0, 0.02, 0.05, 0.1)
        ],
    )
    add(
        "concurrency",
        "multi-query broker: shared-work amortization vs serial",
        "concurrency_study",
        [
            {
                "workloads": [w],
                "concurrency_levels": [c],
                "node_count": min(n, 300),
                "seed": 0,
            }
            for w in ("poisson", "bursty")
            for c in (1, 2, 4, 8)
        ],
    )
    add(
        "churn",
        "continuous churn: self-healing trees and broker degradation",
        "churn_study",
        [
            {
                "churn_rates": [r],
                "concurrency_levels": [c],
                "node_count": min(n, 300),
                "seed": 0,
            }
            for r in (0.0, 0.1, 0.2)
            for c in (1, 8)
        ],
    )
    add(
        "scale",
        "scale ladder: build, tree formation and join cost vs network size",
        "scale_study",
        [
            {"node_counts": [c], "seed": 0}
            for c in scale_node_counts(n)
        ],
    )
    return specs


def select_specs(
    specs: Dict[str, ExperimentSpec], patterns: Optional[Sequence[str]]
) -> List[ExperimentSpec]:
    """Experiments matching any name/glob pattern, in registry order.

    ``None`` (or an empty selection) means *all* experiments.  A pattern
    that matches nothing raises :class:`ValueError` naming the choices.
    """
    if not patterns:
        return list(specs.values())
    for pattern in patterns:
        if not fnmatch.filter(specs, pattern):
            raise ValueError(
                f"no experiment matches {pattern!r}; "
                f"choices: {', '.join(specs)}"
            )
    return [
        spec
        for name, spec in specs.items()
        if any(fnmatch.fnmatch(name, pattern) for pattern in patterns)
    ]


def _execute_cell(func: str, kwargs: Dict[str, Any]):
    """Worker entry point: run one pinned experiment-function call."""
    from . import experiments

    started = time.perf_counter()
    series = getattr(experiments, func)(**kwargs)
    return series, time.perf_counter() - started


@dataclass
class RunResult:
    """Everything one harness run produced."""

    series: List[ExperimentSeries]
    results: List[CellResult] = field(default_factory=list)
    manifest: Dict[str, Any] = field(default_factory=dict)


def run_experiments(
    patterns: Optional[Sequence[str]] = None,
    *,
    node_count: Optional[int] = None,
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> RunResult:
    """Run the selected experiments as parallel cells; reassemble in order.

    Parameters
    ----------
    patterns:
        Experiment names or globs (``fig10*``); None/empty selects all.
    node_count:
        Pin every experiment to this scale; None uses the default scale
        (600 nodes, or the paper's 1500 under ``REPRO_SCALE=paper``).
    jobs:
        Worker processes.  ``1`` runs the cells in-process — the output is
        byte-identical either way, only the wall time changes.
    cache_dir:
        Directory of the content-addressed result cache; None disables
        caching.  The directory is shared with workers (so calibration
        cells are cached too) via ``REPRO_BENCH_CACHE_DIR``.
    progress:
        Optional sink for per-cell progress/ETA lines.

    Returns a :class:`RunResult` whose ``series`` list is in registry
    order and whose ``manifest`` is the machine-readable run record.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    specs = experiment_specs(node_count)
    selected = select_specs(specs, patterns)
    empty = [spec.name for spec in selected if not spec.cells]
    if empty:
        raise ValueError(
            f"experiment(s) selected with zero cells: {', '.join(empty)}"
        )
    cells = [cell for spec in selected for cell in spec.cells]
    fingerprint = code_fingerprint()
    registry = MetricsRegistry()
    cache = (
        ResultCache(cache_dir, registry=registry)
        if cache_dir is not None
        else None
    )

    previous_env = os.environ.get(CACHE_DIR_ENV)
    if cache is not None:
        os.environ[CACHE_DIR_ENV] = str(cache_dir)
    try:
        results = _run_cells(cells, jobs, cache, fingerprint, progress)
    finally:
        if cache is not None:
            if previous_env is None:
                os.environ.pop(CACHE_DIR_ENV, None)
            else:
                os.environ[CACHE_DIR_ENV] = previous_env

    by_cell = {id(result.cell): result for result in results}
    ordered = [by_cell[id(cell)] for cell in cells]
    series = [
        spec.assemble([by_cell[id(cell)].series for cell in spec.cells])
        for spec in selected
    ]
    manifest = _build_manifest(
        selected, ordered, fingerprint, jobs, cache_dir, registry
    )
    return RunResult(series=series, results=ordered, manifest=manifest)


def _run_cells(
    cells: List[Cell],
    jobs: int,
    cache: Optional[ResultCache],
    fingerprint: str,
    progress: Optional[Callable[[str], None]],
) -> List[CellResult]:
    total = len(cells)
    done = 0
    started = time.perf_counter()
    results: List[CellResult] = []

    def emit(result: CellResult) -> None:
        nonlocal done
        done += 1
        results.append(result)
        if progress is None:
            return
        flag = " (cached)" if result.cached else ""
        wall = time.perf_counter() - started
        remaining = total - done
        eta = f", eta {wall / done * remaining:.0f}s" if remaining else ""
        progress(
            f"[{done}/{total}] {result.cell.label} "
            f"{result.elapsed_s:.1f}s{flag}{eta}"
        )

    pending: List[Cell] = []
    cached_results: Dict[int, CellResult] = {}
    for cell in cells:
        entry = cache.get(cell.key(fingerprint)) if cache is not None else None
        if entry is not None:
            cached_results[id(cell)] = CellResult(
                cell,
                ExperimentSeries.from_dict(entry["series"]),
                entry.get("elapsed_s", 0.0),
                cached=True,
            )
        else:
            pending.append(cell)

    def finish(cell: Cell, series: ExperimentSeries, elapsed: float) -> None:
        if cache is not None:
            cache.put(
                cell.key(fingerprint),
                {
                    "func": cell.func,
                    "kwargs": cell.call_kwargs,
                    "series": series.to_dict(),
                    "elapsed_s": elapsed,
                },
            )
        emit(CellResult(cell, series, elapsed, cached=False))

    if jobs == 1 or len(pending) <= 1:
        for cell in cells:
            if id(cell) in cached_results:
                emit(cached_results.pop(id(cell)))
                continue
            series, elapsed = _execute_cell(cell.func, cell.call_kwargs)
            finish(cell, series, elapsed)
    else:
        for result in cached_results.values():
            emit(result)
        cached_results.clear()
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {
                pool.submit(_execute_cell, cell.func, cell.call_kwargs): cell
                for cell in pending
            }
            for future in as_completed(futures):
                cell = futures[future]
                try:
                    series, elapsed = future.result()
                except Exception as error:
                    raise RuntimeError(
                        f"experiment cell {cell.label} "
                        f"({cell.func}{cell.call_kwargs}) failed"
                    ) from error
                finish(cell, series, elapsed)
    for result in cached_results.values():  # jobs == 1 leftovers (none expected)
        emit(result)
    return results


def _build_manifest(
    selected: List[ExperimentSpec],
    results: List[CellResult],
    fingerprint: str,
    jobs: int,
    cache_dir: Optional[Path],
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    by_experiment: Dict[str, List[CellResult]] = {}
    for result in results:
        by_experiment.setdefault(result.cell.experiment, []).append(result)
    profile: Dict[str, Any] = {
        "cache": {
            "hits": int(registry.total("bench_cache_hits_total")) if registry else 0,
            "misses": int(registry.total("bench_cache_misses_total")) if registry else 0,
            "puts": int(registry.total("bench_cache_puts_total")) if registry else 0,
            "evictions": int(registry.total("bench_cache_evictions_total")) if registry else 0,
        },
        "slowest_cells": [
            {"label": r.cell.label, "elapsed_s": round(r.elapsed_s, 3)}
            for r in sorted(results, key=lambda r: r.elapsed_s, reverse=True)[:5]
            if not r.cached
        ],
    }
    return {
        "schema": MANIFEST_SCHEMA,
        "created_unix": time.time(),
        "code_fingerprint": fingerprint,
        "jobs": jobs,
        "cache_dir": str(cache_dir) if cache_dir is not None else None,
        "total_cells": len(results),
        "cached_cells": sum(1 for r in results if r.cached),
        "total_cell_seconds": round(sum(r.elapsed_s for r in results), 3),
        "profile": profile,
        "experiments": [
            {
                "name": spec.name,
                "title": spec.title,
                "cells": len(spec.cells),
                "cached_cells": sum(
                    1 for r in by_experiment.get(spec.name, []) if r.cached
                ),
                "cell_seconds": round(
                    sum(r.elapsed_s for r in by_experiment.get(spec.name, [])), 3
                ),
            }
            for spec in selected
        ],
        "cells": [
            {
                "experiment": r.cell.experiment,
                "func": r.cell.func,
                "kwargs": r.cell.call_kwargs,
                "key": r.cell.key(fingerprint),
                "cached": r.cached,
                "elapsed_s": round(r.elapsed_s, 3),
            }
            for r in results
        ],
    }
