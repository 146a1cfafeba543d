"""ASCII visualisation of deployments, fields, and protocol load.

No plotting stack is assumed; these renderers turn a deployment into
terminal art good enough to *see* the paper's mechanisms at work:

:func:`render_field`
    The spatial structure of a sensor field (Fig. 4's point: nearby nodes
    read similar values) as a character heat map.
:func:`render_node_load`
    Per-node transmission load after an execution — under the external join
    the hot spine toward the base station lights up; under SENS-Join it
    fades.
:func:`render_tree_depths`
    The routing tree as per-cell hop counts.
:func:`render_histogram`
    A quick horizontal bar chart for cost breakdowns.
:func:`render_timeline`
    Node activity over simulated time from ``(time, node_id)`` pairs — the
    view behind ``python -m repro.obs timeline``.
:func:`render_sparkline`
    A one-line min/max-scaled trend strip — the timeline's per-kind lanes.

All renderers rasterise node positions onto a character grid; cells holding
several nodes show the mean value.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..routing.tree import RoutingTree
from ..sim.network import Network

__all__ = [
    "render_field",
    "render_node_load",
    "render_tree_depths",
    "render_histogram",
    "render_timeline",
    "render_sparkline",
]

#: Light-to-dark ramp used for heat maps.
DEFAULT_RAMP = " .:-=+*#%@"


def _rasterise(
    network: Network,
    value_of: Callable[[int], Optional[float]],
    width: int,
    height: int,
) -> np.ndarray:
    """Mean node value per character cell; NaN where no node lies."""
    xs = np.array([node.x for node in network.nodes.values()])
    ys = np.array([node.y for node in network.nodes.values()])
    max_x = float(xs.max()) or 1.0
    max_y = float(ys.max()) or 1.0
    sums = np.zeros((height, width))
    counts = np.zeros((height, width))
    for node_id, node in network.nodes.items():
        value = value_of(node_id)
        if value is None:
            continue
        column = min(int(node.x / max_x * (width - 1)), width - 1)
        row = min(int(node.y / max_y * (height - 1)), height - 1)
        sums[row, column] += value
        counts[row, column] += 1
    with np.errstate(invalid="ignore"):
        grid = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return grid


def _grid_to_text(grid: np.ndarray, ramp: str, legend: str) -> str:
    finite = grid[np.isfinite(grid)]
    if finite.size == 0:
        return "(no nodes to draw)"
    lo, hi = float(finite.min()), float(finite.max())
    span = (hi - lo) or 1.0
    lines = []
    # Row 0 is y=0; print top row (largest y) first, like a map.
    for row in reversed(range(grid.shape[0])):
        cells = []
        for column in range(grid.shape[1]):
            value = grid[row, column]
            if not np.isfinite(value):
                cells.append(" ")
            else:
                index = int((value - lo) / span * (len(ramp) - 1))
                cells.append(ramp[index])
        lines.append("".join(cells))
    lines.append(f"{legend}: '{ramp[0]}'={lo:.2f} ... '{ramp[-1]}'={hi:.2f}")
    return "\n".join(lines)


def render_field(
    network: Network,
    sensor: str,
    width: int = 60,
    height: int = 24,
    ramp: str = DEFAULT_RAMP,
) -> str:
    """Heat map of the current snapshot's readings for one sensor."""

    def value_of(node_id: int) -> Optional[float]:
        node = network.nodes[node_id]
        if node.is_base_station or sensor not in node.readings:
            return None
        return node.readings[sensor]

    grid = _rasterise(network, value_of, width, height)
    return _grid_to_text(grid, ramp, legend=sensor)


def render_node_load(
    network: Network,
    loads: Mapping[int, int],
    width: int = 60,
    height: int = 24,
    ramp: str = DEFAULT_RAMP,
) -> str:
    """Heat map of per-node transmission counts (0 renders as the ramp's
    lightest character, so quiet regions stay visible)."""

    def value_of(node_id: int) -> Optional[float]:
        if network.nodes[node_id].is_base_station:
            return None
        return float(loads.get(node_id, 0))

    grid = _rasterise(network, value_of, width, height)
    return _grid_to_text(grid, ramp, legend="tx packets")


def render_tree_depths(
    network: Network,
    tree: RoutingTree,
    width: int = 60,
    height: int = 24,
) -> str:
    """Hop-count map: digits 0-9, then letters for deeper levels."""
    symbols = "0123456789abcdefghijklmnopqrstuvwxyz"

    def value_of(node_id: int) -> Optional[float]:
        if node_id not in tree:
            return None
        return float(tree.depth(node_id))

    grid = _rasterise(network, value_of, width, height)
    finite = grid[np.isfinite(grid)]
    if finite.size == 0:
        return "(no nodes to draw)"
    lines = []
    for row in reversed(range(grid.shape[0])):
        cells = []
        for column in range(grid.shape[1]):
            value = grid[row, column]
            if not np.isfinite(value):
                cells.append(" ")
            else:
                cells.append(symbols[min(int(round(value)), len(symbols) - 1)])
        lines.append("".join(cells))
    lines.append(f"hop count 0..{int(finite.max())} (base station = 0)")
    return "\n".join(lines)


def render_timeline(
    events: Sequence[Tuple[float, int]],
    width: int = 72,
    height: int = 20,
    ramp: str = DEFAULT_RAMP,
) -> str:
    """Node-activity heat map over time from ``(time, node_id)`` pairs.

    Time is bucketed into ``width`` columns (earliest to latest event) and
    node ids into at most ``height`` row bands (lowest id at the top); each
    cell's character encodes how many events fall into that (band, bucket),
    darkest = busiest.  Events with negative node ids (no specific node) are
    dropped.
    """
    points = [(t, n) for t, n in events if n >= 0]
    if not points:
        return "(no events to draw)"
    times = np.array([t for t, _ in points])
    t_lo, t_hi = float(times.min()), float(times.max())
    t_span = (t_hi - t_lo) or 1.0
    node_ids = sorted({n for _, n in points})
    bands = min(height, len(node_ids))
    band_of = {n: min(i * bands // len(node_ids), bands - 1)
               for i, n in enumerate(node_ids)}
    counts = np.zeros((bands, width))
    for t, n in points:
        column = min(int((t - t_lo) / t_span * (width - 1)), width - 1)
        counts[band_of[n], column] += 1
    peak = float(counts.max()) or 1.0
    # Band labels: the id range each row covers.
    band_members: dict[int, list[int]] = {}
    for n in node_ids:
        band_members.setdefault(band_of[n], []).append(n)
    labels = []
    for band in range(bands):
        members = band_members.get(band, [])
        if not members:
            labels.append("")
        elif len(members) == 1:
            labels.append(f"{members[0]}")
        else:
            labels.append(f"{members[0]}-{members[-1]}")
    label_width = max(len(label) for label in labels)
    lines = []
    for band in range(bands):
        cells = []
        for column in range(width):
            count = counts[band, column]
            if count == 0:
                cells.append(" ")
            else:
                index = int(count / peak * (len(ramp) - 1))
                cells.append(ramp[max(index, 1)])
        lines.append(f"{labels[band].rjust(label_width)} |{''.join(cells)}|")
    lines.append(
        f"{'node'.rjust(label_width)}  t={t_lo:.3f}s ... {t_hi:.3f}s, "
        f"peak {int(peak)} events/cell"
    )
    return "\n".join(lines)


def render_sparkline(
    values: Sequence[float],
    ramp: str = DEFAULT_RAMP,
) -> str:
    """One-line trend strip: each value becomes a ramp character.

    The scale is per-call min..max (a flat sequence renders as the lowest
    rung), which is exactly what a trajectory view wants — the *shape* of
    the series, not its absolute magnitude.  Non-finite values render as a
    space so a gap in the history stays visible.
    """
    if not len(values):
        return "(nothing to plot)"
    finite = [v for v in values if np.isfinite(v)]
    if not finite:
        return " " * len(values)
    lo, hi = min(finite), max(finite)
    span = hi - lo
    chars = []
    for value in values:
        if not np.isfinite(value):
            chars.append(" ")
        elif span == 0.0:
            chars.append(ramp[0])
        else:
            rung = int((value - lo) / span * (len(ramp) - 1))
            chars.append(ramp[rung])
    return "".join(chars)


def render_histogram(
    entries: Sequence[Tuple[str, float]],
    width: int = 50,
    bar: str = "#",
) -> str:
    """Horizontal bar chart: one row per (label, value)."""
    if not entries:
        return "(nothing to plot)"
    label_width = max(len(label) for label, _ in entries)
    peak = max((value for _, value in entries), default=0.0) or 1.0
    lines = []
    for label, value in entries:
        bar_length = int(round(value / peak * width))
        lines.append(
            f"{label.rjust(label_width)} | {bar * bar_length} {value:g}"
        )
    return "\n".join(lines)
