"""Uniform spatial grid index over node positions.

The unit-disk connectivity graph (§VI, "General setting") only ever asks one
geometric question: *which nodes lie within radio range of a point?*  The
seed implementation answered it by materialising the full O(n²) pairwise
distance matrix and rebuilding it from scratch on every crash/rejoin/move,
which caps experiments at a few thousand nodes.  This module replaces that
with the classic uniform-grid spatial hash:

* the plane is partitioned into square cells of side ``cell_m`` (the network
  uses ``cell_m = radio_range_m``);
* every indexed item lives in exactly one cell, found by flooring its
  coordinates — O(1) insert / remove / move;
* a range query with radius ``r <= cell_m`` only has to inspect the 3×3
  block of cells around the query point, so neighbour discovery is O(k) in
  the local population instead of O(n).

Positions are stored in *array-backed columns* (``array('d')`` x/y columns
with swap-remove slot recycling) rather than per-item tuples, so a 100k-node
deployment keeps its geometry in two flat double arrays instead of 100k
boxed pairs.

Float parity
------------
The whole point of the index is to be a pure drop-in for the dense build, so
the membership predicate reproduces the reference computation bit for bit:
``dx*dx + dy*dy <= limit2`` on IEEE doubles, with ``limit2`` computed by the
caller exactly as the dense path did (``radio_range_m**2``).  Subtraction,
multiplication and the single addition happen in the same order as the
vectorised ``einsum`` reference, so the resulting adjacency sets are
set-identical — the property suite in ``tests/test_sim_spatial.py`` pins
this across deployment shapes and churn sequences.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["SpatialGridIndex", "grid_cell"]

Cell = Tuple[int, int]


def grid_cell(x: float, y: float, cell_m: float) -> Cell:
    """Cell coordinates of point ``(x, y)`` on a grid of pitch ``cell_m``."""
    return (math.floor(x / cell_m), math.floor(y / cell_m))


class SpatialGridIndex:
    """Spatial hash of integer-keyed points with O(1) updates.

    Items are integer ids (node ids in practice).  The index answers
    range queries of radius up to ``cell_m`` by scanning the 3×3 cell
    neighbourhood of the query point; larger radii would need a wider
    scan window and are rejected loudly rather than answered wrongly.
    """

    __slots__ = ("cell_m", "_cells", "_slot", "_ids", "_xs", "_ys")

    def __init__(self, cell_m: float):
        if cell_m <= 0:
            raise ValueError(f"cell size must be positive, got {cell_m}")
        self.cell_m = float(cell_m)
        #: cell -> set of item ids resident in that cell
        self._cells: Dict[Cell, set[int]] = {}
        #: item id -> slot in the position columns
        self._slot: Dict[int, int] = {}
        #: slot -> item id (dense, swap-remove keeps it gap-free)
        self._ids: List[int] = []
        self._xs = array("d")
        self._ys = array("d")

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, item: int) -> bool:
        return item in self._slot

    # -- updates -------------------------------------------------------------

    def insert(self, item: int, x: float, y: float) -> None:
        """Add ``item`` at ``(x, y)``.  Re-inserting an indexed item is a bug."""
        if item in self._slot:
            raise ValueError(f"item already indexed: {item}")
        self._slot[item] = len(self._ids)
        self._ids.append(item)
        self._xs.append(float(x))
        self._ys.append(float(y))
        self._cells.setdefault(grid_cell(x, y, self.cell_m), set()).add(item)

    def remove(self, item: int) -> None:
        """Drop ``item`` from the index (swap-remove keeps columns dense)."""
        slot = self._slot.pop(item)
        cell = grid_cell(self._xs[slot], self._ys[slot], self.cell_m)
        members = self._cells[cell]
        members.discard(item)
        if not members:
            del self._cells[cell]
        last = len(self._ids) - 1
        if slot != last:
            moved = self._ids[last]
            self._ids[slot] = moved
            self._xs[slot] = self._xs[last]
            self._ys[slot] = self._ys[last]
            self._slot[moved] = slot
        self._ids.pop()
        self._xs.pop()
        self._ys.pop()

    def discard(self, item: int) -> None:
        """Remove ``item`` if present; no-op otherwise."""
        if item in self._slot:
            self.remove(item)

    def move(self, item: int, x: float, y: float) -> None:
        """Relocate an indexed item (O(1): at most one cell handoff)."""
        slot = self._slot[item]
        old_cell = grid_cell(self._xs[slot], self._ys[slot], self.cell_m)
        new_cell = grid_cell(x, y, self.cell_m)
        self._xs[slot] = float(x)
        self._ys[slot] = float(y)
        if new_cell != old_cell:
            members = self._cells[old_cell]
            members.discard(item)
            if not members:
                del self._cells[old_cell]
            self._cells.setdefault(new_cell, set()).add(item)

    # -- queries -------------------------------------------------------------

    def position(self, item: int) -> Tuple[float, float]:
        """Stored ``(x, y)`` of an indexed item."""
        slot = self._slot[item]
        return (self._xs[slot], self._ys[slot])

    def cell_of(self, item: int) -> Cell:
        """Grid cell an indexed item currently resides in."""
        slot = self._slot[item]
        return grid_cell(self._xs[slot], self._ys[slot], self.cell_m)

    def occupied_cells(self) -> Iterator[Tuple[Cell, frozenset[int]]]:
        """Every non-empty cell with its resident item ids (sorted by cell)."""
        for cell in sorted(self._cells):
            yield cell, frozenset(self._cells[cell])

    def neighbours_within(
        self,
        x: float,
        y: float,
        limit2: float,
        exclude: Optional[int] = None,
    ) -> List[int]:
        """Items within squared distance ``limit2`` of ``(x, y)``.

        ``limit2`` is the *squared* radius, precomputed by the caller so the
        comparison reproduces the reference build's exact float expression.
        The radius must not exceed the cell size — the scan window is the
        3×3 block around the query point.
        """
        if limit2 > self.cell_m * self.cell_m:
            raise ValueError(
                f"query radius exceeds cell size {self.cell_m}; "
                "the 3x3 scan window would miss neighbours"
            )
        cx = math.floor(x / self.cell_m)
        cy = math.floor(y / self.cell_m)
        cells = self._cells
        slot_of = self._slot
        xs = self._xs
        ys = self._ys
        out: List[int] = []
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                members = cells.get((gx, gy))
                if not members:
                    continue
                for item in members:
                    if item == exclude:
                        continue
                    slot = slot_of[item]
                    dx = x - xs[slot]
                    dy = y - ys[slot]
                    if dx * dx + dy * dy <= limit2:
                        out.append(item)
        return out
