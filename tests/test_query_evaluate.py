"""Join evaluation tests: exact vs brute force, aggregates, conservativeness."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError, QueryError
from repro.query import evaluate
from repro.query.evaluate import (
    CellBounds,
    Row,
    _attrs_needed,
    _Columns,
    _expand_exact,
    _reference_expand_exact,
    conservative_semijoin,
    evaluate_join,
)
from repro.query.parser import parse_query


def make_rows(values, attr="temp", extra=None):
    rows = []
    for index, value in enumerate(values, start=1):
        data = {attr: float(value)}
        if extra:
            data.update({k: v[index - 1] for k, v in extra.items()})
        rows.append(Row(index, data))
    return rows


class TestExactJoin:
    def test_simple_theta_join_matches_brute_force(self):
        query = parse_query(
            "SELECT A.temp, B.temp FROM s A, s B WHERE A.temp - B.temp > 2 ONCE"
        )
        rows = make_rows([1.0, 3.0, 6.0, 10.0])
        result = evaluate_join(query, {"A": rows, "B": rows})
        brute = [
            (a.node_id, b.node_id)
            for a, b in itertools.product(rows, rows)
            if a.values["temp"] - b.values["temp"] > 2
        ]
        assert sorted(result.combinations) == sorted(brute)
        assert result.row_count == len(brute)

    def test_select_values_computed(self):
        query = parse_query(
            "SELECT A.temp - B.temp AS diff FROM s A, s B WHERE A.temp - B.temp > 2 ONCE"
        )
        rows = make_rows([1.0, 5.0])
        result = evaluate_join(query, {"A": rows, "B": rows})
        assert result.rows == [{"diff": 4.0}]

    def test_selection_predicates_applied(self):
        query = parse_query(
            "SELECT A.temp FROM s A, s B WHERE A.temp > 4 AND A.temp - B.temp > 0 ONCE"
        )
        rows = make_rows([1.0, 5.0])
        with_selection = evaluate_join(query, {"A": rows, "B": rows})
        without = evaluate_join(query, {"A": rows, "B": rows}, apply_selections=False)
        assert with_selection.match_count == 1  # only A=5 passes; joins B=1
        # Without the A.temp>4 selection the cross pairs with diff>0 remain.
        assert without.match_count >= with_selection.match_count

    def test_empty_relation_empty_result(self):
        query = parse_query("SELECT A.temp FROM s A, s B WHERE A.temp > B.temp ONCE")
        result = evaluate_join(query, {"A": [], "B": make_rows([1.0])})
        assert result.match_count == 0 and result.rows == []
        assert result.all_contributing_nodes() == set()

    def test_contributing_nodes_per_alias(self):
        query = parse_query("SELECT A.temp FROM s A, s B WHERE A.temp - B.temp > 2 ONCE")
        rows = make_rows([0.0, 5.0])
        result = evaluate_join(query, {"A": rows, "B": rows})
        assert result.contributing_nodes("A") == {2}
        assert result.contributing_nodes("B") == {1}
        assert result.all_contributing_nodes() == {1, 2}
        with pytest.raises(QueryError):
            result.contributing_nodes("Z")

    def test_aggregate_min_distance(self):
        query = parse_query(
            "SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM s A, s B "
            "WHERE A.temp - B.temp > 1 ONCE"
        )
        rows = [
            Row(1, {"temp": 10.0, "x": 0.0, "y": 0.0}),
            Row(2, {"temp": 5.0, "x": 3.0, "y": 4.0}),
            Row(3, {"temp": 5.0, "x": 6.0, "y": 8.0}),
        ]
        result = evaluate_join(query, {"A": rows, "B": rows})
        assert result.row_count == 1
        assert list(result.rows[0].values()) == [pytest.approx(5.0)]

    def test_aggregate_over_empty_result_is_empty(self):
        query = parse_query("SELECT MIN(A.temp) FROM s A, s B WHERE A.temp - B.temp > 99 ONCE")
        rows = make_rows([1.0, 2.0])
        result = evaluate_join(query, {"A": rows, "B": rows})
        assert result.rows == []

    def test_count_star_over_empty_result_is_zero(self):
        query = parse_query("SELECT COUNT(*) FROM s A, s B WHERE A.temp - B.temp > 99 ONCE")
        rows = make_rows([1.0, 2.0])
        result = evaluate_join(query, {"A": rows, "B": rows})
        assert result.rows == [{"COUNT(*)": 0.0}]

    def test_three_way_join(self):
        query = parse_query(
            "SELECT A.temp FROM s A, s B, s C "
            "WHERE A.temp - B.temp > 1 AND B.temp - C.temp > 1 ONCE"
        )
        rows = make_rows([1.0, 3.0, 5.0])
        result = evaluate_join(query, {"A": rows, "B": rows, "C": rows})
        assert sorted(result.combinations) == [(3, 2, 1)]

    def test_signature_is_order_independent(self):
        query = parse_query("SELECT A.temp FROM s A, s B WHERE A.temp != B.temp ONCE")
        rows = make_rows([1.0, 2.0])
        a = evaluate_join(query, {"A": rows, "B": rows})
        b = evaluate_join(query, {"A": list(reversed(rows)), "B": rows})
        assert a.signature() == b.signature()

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=0, max_size=8),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    def test_matches_brute_force_random(self, temps, threshold):
        query = parse_query(
            f"SELECT A.temp FROM s A, s B WHERE |A.temp - B.temp| < {threshold} ONCE"
        )
        rows = make_rows(temps)
        result = evaluate_join(query, {"A": rows, "B": rows})
        brute = sorted(
            (a.node_id, b.node_id)
            for a, b in itertools.product(rows, rows)
            if abs(a.values["temp"] - b.values["temp"]) < threshold
        )
        assert sorted(result.combinations) == brute


#: Conditions over quarter-step readings, so differences land exactly on the
#: thresholds (ties) and values repeat.
TWO_WAY_CONDITIONS = (
    "A.temp - B.temp >= 2",
    "A.temp - B.temp > 2",
    "A.temp - B.temp <= -1.5",
    "A.temp = B.temp",
    "A.temp != B.temp",
    "A.temp - B.temp > 3 OR A.hum = B.hum",
    "NOT (|A.temp - B.temp| < 1)",
    "distance(A.x, A.y, B.x, B.y) <= 5",
    "A.temp - B.temp >= 1 AND distance(A.x, A.y, B.x, B.y) > 4",
    "A.temp / (B.hum + 1) <= 0.6",
)
THREE_WAY_CONDITIONS = (
    "A.temp - B.temp >= 1 AND B.temp - C.temp >= 1",
    "A.temp = C.temp AND NOT (A.hum != B.hum)",
    "A.temp - B.temp > 2 OR distance(B.x, B.y, C.x, C.y) <= 5",
)
#: Relation sizes around the 64-tuple block: empty, single-row, smaller
#: than, equal to and larger than one block.
TWO_WAY_SIZES = ((0, 7), (7, 0), (1, 1), (1, 150), (40, 64), (65, 130), (200, 150))
THREE_WAY_SIZES = ((0, 5, 5), (5, 5, 0), (1, 1, 1), (20, 70, 30), (70, 66, 65))


def seeded_rows(rng, count, start=1):
    return [
        Row(
            start + index,
            {
                "temp": float(rng.integers(0, 48)) / 4,
                "hum": float(rng.integers(0, 6)),
                "x": float(rng.integers(0, 12)),
                "y": float(rng.integers(0, 12)),
            },
        )
        for index in range(count)
    ]


def both_expansions(query, rows_by_alias):
    """(block-classified expansion, cross-product reference) on one input."""
    aliases = query.aliases
    columns = {
        alias: _Columns.of(rows_by_alias[alias], _attrs_needed(query, alias)) for alias in aliases
    }
    return (
        _expand_exact(query, aliases, columns),
        _reference_expand_exact(query, aliases, rows_by_alias),
    )


def reference_cases():
    """Seeded (query, rows by alias) cases covering every condition and size."""
    for conditions, sizes_list, aliases in (
        (TWO_WAY_CONDITIONS, TWO_WAY_SIZES, ("A", "B")),
        (THREE_WAY_CONDITIONS, THREE_WAY_SIZES, ("A", "B", "C")),
    ):
        from_clause = ", ".join(f"s {alias}" for alias in aliases)
        for condition in conditions:
            query = parse_query(f"SELECT A.temp FROM {from_clause} WHERE {condition} ONCE")
            for sizes in sizes_list:
                for seed in range(2):
                    rng = np.random.default_rng([seed, *sizes])
                    rows = {
                        alias: seeded_rows(rng, size, start=1000 * position)
                        for position, (alias, size) in enumerate(zip(aliases, sizes))
                    }
                    yield f"{condition} {sizes} seed {seed}", query, rows


class TestExpandExactMatchesReference:
    """The block-classified join equals the cross product, row for row."""

    @pytest.mark.parametrize("case", list(reference_cases()), ids=lambda case: case[0])
    def test_same_array_same_order(self, case):
        _label, query, rows = case
        got, want = both_expansions(query, rows)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("op", ["<=", ">="])
    def test_division_ties_at_threshold_are_kept(self, op):
        # One row per side, so each block is the point interval of its tuple
        # and the threshold is that pair's exact quotient.
        for temp in (quarter / 4 for quarter in range(48)):
            for hum in range(6):
                query = parse_query(
                    f"SELECT A.temp FROM s A, s B WHERE A.temp / (B.hum + 1) {op} "
                    f"{temp / (hum + 1)!r} ONCE"
                )
                rows = {"A": [Row(1, {"temp": temp})], "B": [Row(2, {"hum": float(hum)})]}
                got, want = both_expansions(query, rows)
                assert got.tolist() == want.tolist() == [[0, 0]], (temp, hum)

    def test_zero_denominator_raises_only_for_candidate_pairs(self):
        query = parse_query(
            "SELECT A.temp FROM s A, s B WHERE A.temp - B.temp > 10 AND A.temp / B.hum > 0 ONCE"
        )
        a = [Row(1, {"temp": 0.0})]
        # The first conjunct rules the only pair out before any division.
        ruled_out = {"A": a, "B": [Row(2, {"temp": 5.0, "hum": 0.0})]}
        assert evaluate_join(query, ruled_out).match_count == 0
        with pytest.raises(EvaluationError, match="division by zero"):
            _reference_expand_exact(query, ("A", "B"), ruled_out)
        candidate = {"A": a, "B": [Row(2, {"temp": -20.0, "hum": 0.0})]}
        with pytest.raises(EvaluationError, match="division by zero"):
            evaluate_join(query, candidate)

    def test_block_bounds_narrowed_by_one_ulp_are_caught(self, monkeypatch):
        exact = evaluate._block_bounds

        def narrowed(sorted_column, starts):
            lo, hi = exact(sorted_column, starts)
            return np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)

        monkeypatch.setattr(evaluate, "_block_bounds", narrowed)
        caught = [
            label
            for label, query, rows in reference_cases()
            if not np.array_equal(*both_expansions(query, rows))
        ]
        assert any(label.startswith("A.temp - B.temp >= 2 ") for label in caught)

    def test_budget_raises_with_candidate_count(self):
        rows = make_rows(range(100))
        unselective = parse_query("SELECT A.temp FROM s A, s B WHERE A.temp != B.temp ONCE")
        columns = {alias: _Columns.of(rows, ["temp"]) for alias in ("A", "B")}
        with pytest.raises(EvaluationError, match="10000 candidate pairs"):
            _expand_exact(unselective, ("A", "B"), columns, max_candidates=5000)
        selective = parse_query("SELECT A.temp FROM s A, s B WHERE A.temp - B.temp > 97 ONCE")
        combos = _expand_exact(selective, ("A", "B"), columns, max_candidates=5000)
        assert combos.tolist() == [[98, 0], [99, 0], [99, 1]]


class TestConservativeSemijoin:
    def cells_for(self, values, width=0.5):
        return [
            CellBounds({"temp": v - width / 2}, {"temp": v + width / 2}) for v in values
        ]

    def test_survivors_cover_exact_joiners(self):
        query = parse_query("SELECT A.temp FROM s A, s B WHERE A.temp - B.temp > 2 ONCE")
        values = [0.0, 1.0, 3.5, 9.0]
        survivors = conservative_semijoin(
            query, {"A": self.cells_for(values), "B": self.cells_for(values)}
        )
        # Exact joiners: A index 3 (9.0) joins B 0,1,2; A index 2 (3.5) joins B 0,1.
        assert {2, 3} <= survivors["A"]
        assert {0, 1} <= survivors["B"]

    def test_definitely_disjoint_pairs_pruned(self):
        query = parse_query("SELECT A.temp FROM s A, s B WHERE |A.temp - B.temp| < 1 ONCE")
        survivors = conservative_semijoin(
            query,
            {"A": self.cells_for([0.0]), "B": self.cells_for([50.0])},
        )
        assert survivors["A"] == set() and survivors["B"] == set()

    def test_empty_side_empty_everything(self):
        query = parse_query("SELECT A.temp FROM s A, s B WHERE A.temp > B.temp ONCE")
        survivors = conservative_semijoin(query, {"A": self.cells_for([1.0]), "B": []})
        assert survivors == {"A": set(), "B": set()}

    def test_single_relation_rejected(self):
        query = parse_query("SELECT temp FROM sensors ONCE")
        with pytest.raises(QueryError):
            conservative_semijoin(query, {"sensors": []})

    def test_three_way_semijoin(self):
        query = parse_query(
            "SELECT A.temp FROM s A, s B, s C "
            "WHERE A.temp - B.temp > 2 AND B.temp - C.temp > 2 ONCE"
        )
        cells = self.cells_for([0.0, 3.0, 6.0], width=0.1)
        survivors = conservative_semijoin(query, {"A": cells, "B": cells, "C": cells})
        assert survivors["A"] == {2}
        assert survivors["B"] == {1}
        assert survivors["C"] == {0}

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=1, max_size=6),
        st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=1, max_size=6),
        st.floats(min_value=0.1, max_value=5, allow_nan=False),
        st.floats(min_value=0.05, max_value=2),
    )
    def test_no_false_negatives_random(self, temps_a, temps_b, threshold, width):
        """Invariant 4 of DESIGN.md: conservative semijoin never prunes a
        cell that contains an actually-joining value."""
        query = parse_query(
            f"SELECT A.temp FROM s A, s B WHERE |A.temp - B.temp| < {threshold} ONCE"
        )
        rows_a, rows_b = make_rows(temps_a), make_rows(temps_b)
        exact = evaluate_join(query, {"A": rows_a, "B": rows_b})
        cells_a = self.cells_for(temps_a, width)
        cells_b = self.cells_for(temps_b, width)
        survivors = conservative_semijoin(query, {"A": cells_a, "B": cells_b})
        for node_id in exact.contributing_nodes("A"):
            assert (node_id - 1) in survivors["A"]
        for node_id in exact.contributing_nodes("B"):
            assert (node_id - 1) in survivors["B"]
