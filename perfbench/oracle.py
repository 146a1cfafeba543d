"""Result checks that share no code with the program's join evaluator.

The program's own oracle (``repro.joins.base.oracle_result``) runs the same
``evaluate_join`` the engines use, so it cannot catch an evaluator bug, and at
10k nodes it would rebuild a 10^8-row cross product.  These checks compute the
expected ``(A, B)`` node-id pairs straight from the snapshot readings with
numpy, read each pair's SELECT values from the same readings, and compare the
SELECT labels, the row count and an order-independent digest of the rows.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = [
    "READINGS", "Expected", "row_digest", "result_digest", "expected_rows",
    "range_join", "brute_force_join", "snapshot_columns",
]

#: The readings the checks need: the join and SELECT attributes of every
#: template.
READINGS = ("temp", "hum", "pres", "x", "y")

#: (SELECT labels, row count, row digest).
Expected = Tuple[Tuple[str, ...], int, int]

_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _mix(key: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser, element-wise."""
    with np.errstate(over="ignore"):
        key = (key ^ (key >> np.uint64(30))) * _MIX_1
        key = (key ^ (key >> np.uint64(27))) * _MIX_2
    return key ^ (key >> np.uint64(31))


def row_digest(a_ids: np.ndarray, b_ids: np.ndarray, columns: Dict[str, np.ndarray]) -> Expected:
    """Labels, count and order-independent digest of result rows.

    Row ``i`` is the pair ``(a_ids[i], b_ids[i])`` with the value
    ``columns[label][i]`` under each label.  Each row hashes its pair and the
    bit patterns of its values; the hashes are summed modulo 2**64, so any
    order of the same multiset of rows gives one digest.
    """
    key = (np.asarray(a_ids, dtype=np.uint64) << np.uint64(32)) | np.asarray(b_ids, dtype=np.uint64)
    if any(len(values) != len(key) for values in columns.values()):
        return tuple(columns), -1, 0  # ragged: matches no well-formed result
    row = _mix(key)
    for values in columns.values():
        row = _mix(row ^ np.ascontiguousarray(values, dtype=np.float64).view(np.uint64))
    return tuple(columns), int(row.size), int(row.sum(dtype=np.uint64))


def result_digest(result) -> Expected:
    """The digest of a ``JoinResult``'s rows.

    ``JoinResult`` builds on (M, 2) node-id and per-label value arrays but
    exposes them only as lists of tuples and dicts, which take seconds to
    build for 3M rows; the arrays are read instead.
    """
    pairs = result._node_combos
    return row_digest(pairs[:, 0], pairs[:, 1], result._row_columns)


def expected_rows(
    ids: np.ndarray,
    readings: Dict[str, np.ndarray],
    a_index: np.ndarray,
    b_index: np.ndarray,
    labels: Sequence[str],
) -> Expected:
    """The digest of the rows a query with SELECT ``labels`` should return.

    ``a_index``/``b_index`` index the matching pairs into ``ids`` and the
    ``readings`` columns; a label ``"A.hum"`` reads ``hum`` at ``a_index``.
    """
    side = {"A": a_index, "B": b_index}
    columns = {}
    for label in labels:
        alias, attribute = label.split(".")
        columns[label] = readings[attribute][side[alias]]
    return row_digest(ids[a_index], ids[b_index], columns)


def snapshot_columns(world) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Sensor node ids and their current :data:`READINGS`, one array each."""
    ids = None
    columns = {}
    for attribute in READINGS:
        matrix = world.reading_matrix(attribute)
        if ids is None:
            ids = matrix[:, 0].astype(np.int64)
        columns[attribute] = matrix[:, 1]
    return ids, columns


def range_join(temp: np.ndarray, threshold: float) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs with ``A.temp - B.temp > threshold``, by sort and searchsorted."""
    order = np.argsort(temp, kind="stable")
    ordered = temp[order]
    n = len(ordered)
    # fl(a - b) > t is monotone in b, so each A's partners are a prefix of
    # the sorted readings.  a - t is rounded too, so the prefix length from
    # searchsorted is settled against the exact test the query uses.
    cut = np.searchsorted(ordered, temp - threshold, side="left")
    while True:
        back = (cut > 0) & ~(temp - ordered[np.maximum(cut - 1, 0)] > threshold)
        ahead = (cut < n) & (temp - ordered[np.minimum(cut, n - 1)] > threshold)
        if not back.any() and not ahead.any():
            break
        cut = cut - back + ahead
    a_index = np.repeat(np.arange(n), cut)
    starts = np.cumsum(cut) - cut
    b_rank = np.arange(len(a_index)) - np.repeat(starts, cut)
    return a_index, order[b_rank]


def brute_force_join(
    columns: Dict[str, np.ndarray], threshold: float, extra: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs of one broker template over the full n x n cross product.

    ``extra`` names the template's second conjunct: ``""`` (none),
    ``"distance"`` (``distance(A.x, A.y, B.x, B.y) > 100``) or ``"hum"``
    (``|A.hum - B.hum| < 150``).
    """
    temp = columns["temp"]
    mask = temp[:, None] - temp[None, :] > threshold
    if extra == "distance":
        x, y = columns["x"], columns["y"]
        mask &= np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :]) > 100.0
    elif extra == "hum":
        hum = columns["hum"]
        mask &= np.abs(hum[:, None] - hum[None, :]) < 150.0
    elif extra:
        raise ValueError(f"unknown template conjunct {extra!r}")
    return np.nonzero(mask)
