"""ASCII visualisation tests."""

import pytest

from repro.bench.ascii_viz import (
    render_field,
    render_histogram,
    render_node_load,
    render_sparkline,
    render_tree_depths,
)


def test_render_field_shape_and_legend(small_network, small_world):
    text = render_field(small_network, "temp", width=40, height=12)
    lines = text.splitlines()
    assert len(lines) == 13  # 12 rows + legend
    assert all(len(line) == 40 for line in lines[:-1])
    assert "temp" in lines[-1]


def test_render_field_uses_full_ramp_on_gradient(small_network, small_world):
    text = render_field(small_network, "temp", width=40, height=12)
    # Both light and dark ends appear for a spatially varying field.
    body = "".join(text.splitlines()[:-1])
    assert "@" in body or "%" in body
    assert "." in body or ":" in body


def test_render_node_load(small_network, small_world):
    loads = {node_id: node_id % 7 for node_id in small_network.sensor_node_ids}
    text = render_node_load(small_network, loads, width=30, height=10)
    assert "tx packets" in text


def test_render_tree_depths(small_network, small_tree, small_world):
    text = render_tree_depths(small_network, small_tree, width=30, height=10)
    assert "hop count 0.." in text
    # The base-station cell renders depth 0 somewhere.
    assert "0" in text


def test_render_histogram():
    text = render_histogram([("alpha", 10.0), ("beta", 5.0)], width=10)
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].count("#") == 10
    assert lines[1].count("#") == 5
    assert "alpha" in lines[0]


def test_render_histogram_empty():
    assert "nothing" in render_histogram([])


def test_missing_sensor_renders_empty(small_network):
    # No snapshot taken on a fresh copy: readings lack the sensor.
    for node in small_network.nodes.values():
        node.readings = {}
    assert "(no nodes to draw)" in render_field(small_network, "temp")


def test_render_sparkline_scales_min_to_max_and_shows_gaps():
    nan = float("nan")
    assert render_sparkline([0.0, 10.0, nan, 5.0], ramp="abc") == "ac b"
    assert render_sparkline([2.0, 2.0], ramp="abc") == "aa"
    assert render_sparkline([nan, nan], ramp="abc") == "  "
    assert "nothing" in render_sparkline([])
