"""Join evaluation at the base station.

Two evaluators live here, both driven by the same query AST:

:func:`evaluate_join`
    **Exact** n-way join over full tuples (raw sensor values).  Used for the
    final result computation of every join method and for the lossless
    oracle.  Aliases are bound one at a time, and every join conjunct fires
    as soon as all the aliases it references are bound.  Each binding step
    reuses the §IV-A interval classification on raw tuples: both sides are
    sorted on a join attribute and cut into blocks, each block's
    ``[min, max]`` per attribute is classified with the conjuncts'
    :meth:`~repro.query.expressions.Predicate.masks`, and only tuple pairs
    of *possible* block pairs are evaluated exactly.  The work is
    proportional to the candidates, not to the cross product.

:func:`conservative_semijoin`
    **Conservative** n-way semi-join over quantization-cell intervals.  Used
    to build the join filter (§IV-A step 1a): a point survives iff it
    participates in at least one combination that *possibly* satisfies all
    join predicates (interval semantics — see :mod:`repro.query.intervals`).
    The output per alias is exactly the N-way semi-join reduction [10] of
    the quantized relations.

Both share :class:`Row` — one tuple with its originating node id — and the
conjunct schedule :func:`_conjunct_schedule`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import EvaluationError, QueryError
from .expressions import Aggregate, ArrayEnv, ColumnRef, Predicate
from .query import JoinQuery

__all__ = ["Row", "JoinResult", "evaluate_join", "conservative_semijoin", "CellBounds"]


@dataclass(frozen=True)
class Row:
    """One relation tuple: its source node and its attribute values."""

    node_id: int
    values: Mapping[str, float]

    def project(self, attributes: Sequence[str]) -> "Row":
        """A copy restricted to the given attributes."""
        return Row(self.node_id, {name: self.values[name] for name in attributes})


class JoinResult:
    """Outcome of an exact join evaluation.

    ``rows`` holds the SELECT output (one dict per result row; for aggregate
    queries exactly one row).  ``combinations`` holds, for every result row
    of the underlying join (pre-aggregation), the tuple of contributing node
    ids in FROM-clause alias order — this is the canonical value the
    equivalence tests compare across join algorithms.

    Internally both are backed by numpy arrays and materialised lazily:
    large results (the external join at low selectivity can produce millions
    of matches) stay cheap unless someone actually iterates them.
    """

    def __init__(
        self,
        aliases: Tuple[str, ...],
        node_combos: np.ndarray,
        row_columns: "Dict[str, np.ndarray]",
    ):
        self.aliases = tuple(aliases)
        # (match_count, n_aliases) int array of contributing node ids.
        self._node_combos = np.asarray(node_combos, dtype=int).reshape(-1, len(aliases))
        # SELECT output as column arrays, all of equal length.
        self._row_columns = row_columns
        self._rows_cache: Optional[List[Dict[str, float]]] = None
        self._combos_cache: Optional[List[Tuple[int, ...]]] = None

    @classmethod
    def from_lists(
        cls,
        aliases: Tuple[str, ...],
        rows: List[Dict[str, float]],
        combinations: List[Tuple[int, ...]],
    ) -> "JoinResult":
        """Build from plain Python lists (test convenience)."""
        combo_array = np.array(combinations, dtype=int).reshape(-1, len(aliases))
        labels = list(rows[0]) if rows else []
        columns = {
            label: np.array([row[label] for row in rows], dtype=float) for label in labels
        }
        return cls(aliases, combo_array, columns)

    @property
    def rows(self) -> List[Dict[str, float]]:
        """The SELECT output rows (materialised on first access)."""
        if self._rows_cache is None:
            labels = list(self._row_columns)
            count = len(next(iter(self._row_columns.values()))) if labels else 0
            self._rows_cache = [
                {label: float(self._row_columns[label][i]) for label in labels}
                for i in range(count)
            ]
        return self._rows_cache

    @property
    def combinations(self) -> List[Tuple[int, ...]]:
        """Contributing node-id tuples (materialised on first access)."""
        if self._combos_cache is None:
            self._combos_cache = [tuple(int(v) for v in row) for row in self._node_combos]
        return self._combos_cache

    @property
    def row_count(self) -> int:
        """Number of SELECT output rows."""
        if not self._row_columns:
            return 0
        return len(next(iter(self._row_columns.values())))

    @property
    def match_count(self) -> int:
        """Number of joining tuple combinations (pre-aggregation)."""
        return int(self._node_combos.shape[0])

    def contributing_nodes(self, alias: str) -> Set[int]:
        """Node ids whose tuple (under ``alias``) joins at least once."""
        try:
            position = self.aliases.index(alias)
        except ValueError:
            raise QueryError(f"unknown alias {alias!r}") from None
        if self._node_combos.size == 0:
            return set()
        return {int(v) for v in np.unique(self._node_combos[:, position])}

    def all_contributing_nodes(self) -> Set[int]:
        """Node ids contributing under any alias."""
        if self._node_combos.size == 0:
            return set()
        return {int(v) for v in np.unique(self._node_combos)}

    def signature(self, digits: int = 9) -> tuple:
        """Order-independent fingerprint for cross-algorithm comparison.

        Two algorithms computed the same result iff the signatures match:
        the multiset of contributing node-id combinations plus the multiset
        of (rounded) output rows.
        """
        combos = tuple(sorted(self.combinations))
        rows = tuple(
            sorted(
                tuple(sorted((key, round(value, digits)) for key, value in row.items()))
                for row in self.rows
            )
        )
        return (combos, rows)

    def result_set(self, digits: int = 9) -> frozenset:
        """The result as a comparable set, for differential testing.

        Non-aggregate queries emit one output row per joining combination,
        so elements are ``(node_combo, canonical_row)`` pairs — equality
        means two engines found the same matches *and* computed the same
        values for them, and a partial (faulted) result's set is a subset
        of the oracle's.  Aggregate queries collapse to a single row, so
        combinations and (rounded) rows are keyed separately instead.
        """

        def canonical(row: Mapping[str, float]) -> Tuple[Tuple[str, float], ...]:
            return tuple(sorted((key, round(value, digits)) for key, value in row.items()))

        rows = self.rows
        if len(rows) == self.match_count:
            return frozenset(zip(self.combinations, (canonical(row) for row in rows)))
        elements: set = {("combo", combo) for combo in self.combinations}
        elements |= {("row", canonical(row)) for row in rows}
        return frozenset(elements)


# ---------------------------------------------------------------------------
# Incremental combination expansion (shared by exact and conservative modes)
# ---------------------------------------------------------------------------


def _conjunct_schedule(
    query: JoinQuery, aliases: Sequence[str]
) -> List[Tuple[int, Predicate]]:
    """For each join conjunct, the 1-based binding step where it can fire.

    A conjunct fires at the first step where every alias it references has
    been bound (aliases are bound in FROM order).
    """
    schedule: List[Tuple[int, Predicate]] = []
    for conjunct in query.join_predicates:
        referenced = {alias for alias, _ in conjunct.columns()}
        step = max(aliases.index(alias) for alias in referenced) + 1
        schedule.append((step, conjunct))
    return schedule


def evaluate_join(
    query: JoinQuery,
    tuples_by_alias: Mapping[str, Sequence[Row]],
    apply_selections: bool = True,
) -> JoinResult:
    """Exact n-way join; see the module docstring.

    Parameters
    ----------
    query:
        The bound query; must have at least one relation.
    tuples_by_alias:
        The candidate tuples per alias (full tuples — every attribute the
        query references must be present).
    apply_selections:
        Apply per-alias selection predicates here.  The protocols apply
        them at the nodes already, so they pass ``False``; callers feeding
        raw snapshots leave the default.
    """
    aliases = query.aliases
    select_refs = {ref for item in query.select for ref in item.payload.columns()}
    columns: Dict[str, _Columns] = {}
    for alias in aliases:
        rows = list(tuples_by_alias.get(alias, ()))
        if apply_selections:
            for predicate in query.selection_predicates(alias):
                rows = [
                    row
                    for row in rows
                    if predicate.evaluate(
                        {(alias, name): value for name, value in row.values.items()}
                    )
                ]
        select_attrs = {attr for ref_alias, attr in select_refs if ref_alias == alias}
        columns[alias] = _Columns.of(rows, select_attrs.union(_attrs_needed(query, alias)))

    combos = _expand_exact(query, aliases, columns)
    match_count = combos.shape[0]

    # SELECT evaluation over the surviving combinations, vectorised.  Each
    # index column is gathered from first and then overwritten in place by
    # its node ids, so ``combos`` becomes the node-id matrix without a
    # second (M, n) array.
    env: Dict[ColumnRef, np.ndarray] = {}
    for position, alias in enumerate(aliases):
        indices = combos[:, position]
        for attr, column in columns[alias].values.items():
            if (alias, attr) in select_refs:
                env[(alias, attr)] = column[indices]
        indices[:] = columns[alias].node_ids[indices]

    if query.is_aggregate:
        out_columns: Dict[str, np.ndarray] = {}
        for item in query.select:
            aggregate = item.payload
            assert isinstance(aggregate, Aggregate)
            if aggregate.operand is None:
                out_columns[item.name] = np.array([aggregate.apply([], match_count)])
            else:
                if match_count == 0 and aggregate.func != "COUNT":
                    # Aggregate over empty result: SQL would yield NULL; we
                    # return an empty result set instead of inventing a value.
                    return JoinResult(tuple(aliases), np.zeros((0, len(aliases))), {})
                per_row = aggregate.operand.values(env) if match_count else np.array([])
                out_columns[item.name] = np.array([aggregate.apply(per_row, match_count)])
        return JoinResult(tuple(aliases), combos, out_columns)

    out_columns = {}
    for item in query.select:
        values = np.asarray(item.payload.values(env), dtype=float)
        if values.shape != (match_count,):  # a constant: one value per row
            values = np.broadcast_to(values, (match_count,)).astype(float)
        out_columns[item.name] = values
    return JoinResult(tuple(aliases), combos, out_columns)


@dataclass(frozen=True)
class _Columns:
    """One alias's tuples column-wise: node ids and float attribute arrays.

    Extracted once per alias from the :class:`Row` dicts and shared by the
    join (its join attributes) and the SELECT evaluation (its output ones).
    """

    node_ids: np.ndarray
    values: Dict[str, np.ndarray]

    @classmethod
    def of(cls, rows: Sequence[Row], attrs: Iterable[str]) -> "_Columns":
        return cls(
            np.array([row.node_id for row in rows], dtype=int),
            {attr: np.array([row.values[attr] for row in rows], dtype=float) for attr in attrs},
        )

    def __len__(self) -> int:
        return len(self.node_ids)


#: Tuples per block of the exact join's interval classification.
_BLOCK = 64
#: Most block pairs one classification grid holds; bigger inputs get
#: proportionally bigger blocks, so the grid stays a few MB.
_MAX_BLOCK_PAIRS = 1 << 20
#: Candidate pairs evaluated per vectorised chunk (bounds temporary memory).
_CHUNK_CANDIDATES = 1 << 20
#: Most candidate pairs one binding step may evaluate.  The scale ladder's
#: 10k-node row (11.8M matches out of 100M pairs) needs ~12.4M.
_MAX_CANDIDATES = 32_000_000


def _expand_exact(
    query: JoinQuery,
    aliases: Sequence[str],
    columns: Mapping[str, _Columns],
    max_candidates: int = _MAX_CANDIDATES,
) -> np.ndarray:
    """Index combinations satisfying every join conjunct, shape (M, n).

    Rows come in lexicographic index order (alias 0 major), the order of
    :func:`_reference_expand_exact`'s cross product.  Raises
    :class:`EvaluationError` when a binding step would evaluate more than
    ``max_candidates`` tuple pairs.
    """
    schedule = _conjunct_schedule(query, aliases)
    combos = np.zeros((1, 0), dtype=int)  # one empty combination
    for step, alias in enumerate(aliases, start=1):
        if len(columns[alias]) == 0 or combos.shape[0] == 0:
            return np.zeros((0, len(aliases)), dtype=int)
        conjuncts = [conjunct for fire_step, conjunct in schedule if fire_step == step]
        refs = sorted({ref for conjunct in conjuncts for ref in conjunct.columns()})
        bound = {
            (ref_alias, attr): columns[ref_alias].values[attr][combos[:, aliases.index(ref_alias)]]
            for ref_alias, attr in refs
            if ref_alias != alias
        }
        new = {(alias, attr): columns[alias].values[attr] for ref_alias, attr in refs if ref_alias == alias}
        rows, picks = _bind(
            conjuncts,
            _Side(bound, combos.shape[0]),
            _Side(new, len(columns[alias])),
            max_candidates,
            alias,
        )
        combos = np.concatenate([combos[rows], picks[:, None]], axis=1)
    return combos


@dataclass(frozen=True)
class _Side:
    """One side of a binding step: its columns and its row count."""

    values: Dict[ColumnRef, np.ndarray]
    count: int


@dataclass(frozen=True)
class _Blocks:
    """One side sorted on a key and cut into blocks of consecutive rows."""

    order: np.ndarray  # sorted position -> row index
    sorted_values: Dict[ColumnRef, np.ndarray]
    starts: np.ndarray  # first sorted position of each block
    sizes: np.ndarray
    bounds: Dict[ColumnRef, Tuple[np.ndarray, np.ndarray]]  # per-block [min, max]


def _block_bounds(sorted_column: np.ndarray, starts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each block's ``[min, max]``: the interval every tuple of it lies in."""
    return np.minimum.reduceat(sorted_column, starts), np.maximum.reduceat(sorted_column, starts)


def _sort_keys(side: _Side, block: int) -> List[Optional[ColumnRef]]:
    """The columns worth sorting ``side`` on; ``None`` keeps its row order.

    A side that fits in one block has a single block whatever its order.
    """
    if side.count <= block or not side.values:
        return [None]
    return list(side.values)


def _cut_blocks(side: _Side, key: Optional[ColumnRef], block: int) -> _Blocks:
    order = (
        np.argsort(side.values[key], kind="stable") if key is not None else np.arange(side.count)
    )
    starts = np.arange(0, side.count, block)
    sorted_values = {ref: column[order] for ref, column in side.values.items()}
    return _Blocks(
        order=order,
        sorted_values=sorted_values,
        starts=starts,
        sizes=np.diff(np.append(starts, side.count)),
        bounds={ref: _block_bounds(column, starts) for ref, column in sorted_values.items()},
    )


def _possible_blocks(
    conjuncts: Sequence[Predicate], left: _Blocks, right: _Blocks
) -> np.ndarray:
    """(left blocks, right blocks) mask of pairs some conjunction may hold for."""
    env: Dict[ColumnRef, Tuple[np.ndarray, np.ndarray]] = {}
    for ref, (lo, hi) in left.bounds.items():
        env[ref] = (lo[:, None], hi[:, None])
    for ref, (lo, hi) in right.bounds.items():
        env[ref] = (lo[None, :], hi[None, :])
    possible = np.ones((len(left.starts), len(right.starts)), dtype=bool)
    for conjunct in conjuncts:
        possible &= np.broadcast_to(conjunct.masks(env)[0], possible.shape)
    return possible


def _bind(
    conjuncts: Sequence[Predicate],
    left: _Side,
    right: _Side,
    max_candidates: int,
    alias: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every (left row, right row) pair satisfying all ``conjuncts``.

    Both sides are sorted on one of their columns and cut into blocks; the
    pair of sort keys whose block classification leaves the fewest
    candidate pairs wins.  Only the tuple pairs of possible block pairs are
    evaluated, exactly, so the result needs the ``possible`` mask to be
    conservative and nothing else.  Pairs come back in lexicographic
    (left row, right row) order.

    A zero denominator raises :class:`EvaluationError` only in a candidate
    pair: pairs of block pairs the classification rules out (any conjunct
    impossible) are never divided, whichever conjunct divides.
    """
    block = max(_BLOCK, math.ceil(math.sqrt(left.count * right.count / _MAX_BLOCK_PAIRS)))
    left_blocks = [_cut_blocks(left, key, block) for key in _sort_keys(left, block)]
    right_blocks = [_cut_blocks(right, key, block) for key in _sort_keys(right, block)]
    best: Optional[Tuple[int, _Blocks, _Blocks, np.ndarray]] = None
    for lb in left_blocks:
        for rb in right_blocks:
            possible = _possible_blocks(conjuncts, lb, rb)
            candidates = int(lb.sizes @ possible.astype(np.int64) @ rb.sizes)
            if best is None or candidates < best[0]:
                best = (candidates, lb, rb, possible)
    assert best is not None
    candidates, lb, rb, possible = best
    if candidates > max_candidates:
        raise EvaluationError(
            f"exact join binding alias {alias!r} would evaluate {candidates} "
            f"candidate pairs (> {max_candidates}); reduce the relations or "
            "tighten the predicates"
        )

    block_left, block_right = np.nonzero(possible)
    lanes = np.arange(block)
    per_chunk = max(1, _CHUNK_CANDIDATES // (block * block))
    keys: List[np.ndarray] = []
    for first in range(0, len(block_left), per_chunk):
        chunk_left = lb.starts[block_left[first:first + per_chunk]][:, None] + lanes
        chunk_right = rb.starts[block_right[first:first + per_chunk]][:, None] + lanes
        shape = (len(chunk_left), block, block)
        at_left = np.broadcast_to(chunk_left[:, :, None], shape).ravel()
        at_right = np.broadcast_to(chunk_right[:, None, :], shape).ravel()
        inside = (at_left < left.count) & (at_right < right.count)
        at_left, at_right = at_left[inside], at_right[inside]
        env: ArrayEnv = {
            **{ref: column[at_left] for ref, column in lb.sorted_values.items()},
            **{ref: column[at_right] for ref, column in rb.sorted_values.items()},
        }
        holds = np.ones(at_left.shape, dtype=bool)
        for conjunct in conjuncts:
            holds &= conjunct.values(env)
        keys.append(lb.order[at_left[holds]] * right.count + rb.order[at_right[holds]])
    ordered = np.concatenate(keys) if keys else np.zeros(0, dtype=int)
    keys.clear()  # frees the per-chunk arrays before the in-place sort
    ordered.sort()
    return ordered // right.count, ordered % right.count


def _reference_expand_exact(
    query: JoinQuery,
    aliases: Sequence[str],
    working: Mapping[str, Sequence[Row]],
) -> np.ndarray:
    """The cross-product expansion :func:`_expand_exact` replaced (test oracle)."""
    schedule = _conjunct_schedule(query, aliases)
    # Partial environment: (alias, attr) -> value array over partial combos.
    combos = np.zeros((1, 0), dtype=int)  # one empty combination
    env: Dict[ColumnRef, np.ndarray] = {}
    for step, alias in enumerate(aliases, start=1):
        rows = working[alias]
        count = len(rows)
        if count == 0:
            return np.zeros((0, len(aliases)), dtype=int)
        # Cross product: every partial combo x every tuple of this alias.
        partial = combos.shape[0]
        new_combos = np.empty((partial * count, combos.shape[1] + 1), dtype=int)
        new_combos[:, :-1] = np.repeat(combos, count, axis=0)
        new_combos[:, -1] = np.tile(np.arange(count), partial)
        combos = new_combos
        # Extend the environment to the new shape.
        env = {ref: np.repeat(column, count) for ref, column in env.items()}
        attrs_needed = _attrs_needed(query, alias)
        for attr in attrs_needed:
            column = np.array([row.values[attr] for row in rows], dtype=float)
            env[(alias, attr)] = np.tile(column, partial)
        # Fire every conjunct scheduled at this step.
        mask: Optional[np.ndarray] = None
        for fire_step, conjunct in schedule:
            if fire_step != step:
                continue
            part = np.broadcast_to(conjunct.values(env), (combos.shape[0],))
            mask = part if mask is None else (mask & part)
        if mask is not None:
            combos = combos[mask]
            env = {ref: column[mask] for ref, column in env.items()}
    return combos


def _attrs_needed(query: JoinQuery, alias: str) -> List[str]:
    """Attributes of ``alias`` referenced by any join conjunct."""
    attrs: Set[str] = set()
    for conjunct in query.join_predicates:
        for ref_alias, attr in conjunct.columns():
            if ref_alias == alias:
                attrs.add(attr)
    return sorted(attrs)


# ---------------------------------------------------------------------------
# Conservative semi-join over quantization cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellBounds:
    """One quantized join-attribute tuple as per-attribute value intervals.

    ``lo[attr]``/``hi[attr]`` bound the raw values the cell may contain.
    Produced by :meth:`repro.codec.quantize.Quantizer.cell_bounds`.
    """

    lo: Mapping[str, float]
    hi: Mapping[str, float]


def conservative_semijoin(
    query: JoinQuery,
    cells_by_alias: Mapping[str, Sequence[CellBounds]],
) -> Dict[str, Set[int]]:
    """Indices per alias of cells that possibly join (N-way semi-join).

    A cell of alias X survives iff there is a combination of cells (one per
    other alias) such that **every** join predicate *possibly* holds under
    interval semantics.  Guaranteed no false negatives: if raw tuples
    t1..tn join, then their cells form a possibly-joining combination, so
    each of their cells survives.

    The two-alias case (every experiment in the paper) runs as a single
    vectorised pass without materialising combinations.
    """
    aliases = query.aliases
    if len(aliases) < 2:
        raise QueryError("conservative_semijoin needs at least two relations")
    if len(aliases) == 2:
        return _semijoin_two_way(query, cells_by_alias)
    return _semijoin_n_way(query, cells_by_alias)


def _bounds_env_for(
    alias: str,
    cells: Sequence[CellBounds],
    attrs: Sequence[str],
    orient_rows: bool,
) -> Dict[ColumnRef, Tuple[np.ndarray, np.ndarray]]:
    env: Dict[ColumnRef, Tuple[np.ndarray, np.ndarray]] = {}
    for attr in attrs:
        lo = np.array([cell.lo[attr] for cell in cells], dtype=float)
        hi = np.array([cell.hi[attr] for cell in cells], dtype=float)
        if orient_rows:
            env[(alias, attr)] = (lo[:, None], hi[:, None])
        else:
            env[(alias, attr)] = (lo[None, :], hi[None, :])
    return env


def _semijoin_two_way(
    query: JoinQuery,
    cells_by_alias: Mapping[str, Sequence[CellBounds]],
) -> Dict[str, Set[int]]:
    alias_a, alias_b = query.aliases
    cells_a = list(cells_by_alias.get(alias_a, ()))
    cells_b = list(cells_by_alias.get(alias_b, ()))
    if not cells_a or not cells_b:
        return {alias_a: set(), alias_b: set()}
    env: Dict[ColumnRef, Tuple[np.ndarray, np.ndarray]] = {}
    env.update(_bounds_env_for(alias_a, cells_a, _attrs_needed(query, alias_a), True))
    env.update(_bounds_env_for(alias_b, cells_b, _attrs_needed(query, alias_b), False))
    possible = np.ones((len(cells_a), len(cells_b)), dtype=bool)
    for conjunct in query.join_predicates:
        conjunct_possible, _ = conjunct.masks(env)
        possible &= np.broadcast_to(conjunct_possible, possible.shape)
    survivors_a = {int(i) for i in np.nonzero(possible.any(axis=1))[0]}
    survivors_b = {int(j) for j in np.nonzero(possible.any(axis=0))[0]}
    return {alias_a: survivors_a, alias_b: survivors_b}


def _semijoin_n_way(
    query: JoinQuery,
    cells_by_alias: Mapping[str, Sequence[CellBounds]],
    max_combinations: int = 5_000_000,
) -> Dict[str, Set[int]]:
    """General case: incremental binding with possible-mask pruning."""
    aliases = query.aliases
    schedule = _conjunct_schedule(query, aliases)
    combos = np.zeros((1, 0), dtype=int)
    env: Dict[ColumnRef, Tuple[np.ndarray, np.ndarray]] = {}
    for step, alias in enumerate(aliases, start=1):
        cells = list(cells_by_alias.get(alias, ()))
        count = len(cells)
        if count == 0:
            return {alias: set() for alias in aliases}
        partial = combos.shape[0]
        if partial * count > max_combinations:
            raise EvaluationError(
                f"conservative n-way semi-join would expand to "
                f"{partial * count} combinations (> {max_combinations}); "
                "reduce the relations or tighten the predicates"
            )
        new_combos = np.empty((partial * count, combos.shape[1] + 1), dtype=int)
        new_combos[:, :-1] = np.repeat(combos, count, axis=0)
        new_combos[:, -1] = np.tile(np.arange(count), partial)
        combos = new_combos
        env = {
            ref: (np.repeat(lo, count), np.repeat(hi, count)) for ref, (lo, hi) in env.items()
        }
        for attr in _attrs_needed(query, alias):
            lo = np.array([cell.lo[attr] for cell in cells], dtype=float)
            hi = np.array([cell.hi[attr] for cell in cells], dtype=float)
            env[(alias, attr)] = (np.tile(lo, partial), np.tile(hi, partial))
        mask: Optional[np.ndarray] = None
        for fire_step, conjunct in schedule:
            if fire_step != step:
                continue
            possible, _ = conjunct.masks(env)
            possible = np.broadcast_to(possible, (combos.shape[0],))
            mask = possible if mask is None else (mask & possible)
        if mask is not None:
            combos = combos[mask]
            env = {ref: (lo[mask], hi[mask]) for ref, (lo, hi) in env.items()}
    survivors: Dict[str, Set[int]] = {}
    for position, alias in enumerate(aliases):
        survivors[alias] = {int(i) for i in np.unique(combos[:, position])}
    return survivors
