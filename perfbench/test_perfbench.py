"""Tests of the benchmark itself, on workloads small enough to run in seconds.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import oracle
from perfbench.tracing import LAYERS, TRACED, Tracer, traced
from perfbench.workloads import WORKLOADS, BrokerWorkload, SnapshotWorkload

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "sens-join": SnapshotWorkload("small-sens-join", nodes=300, engine="sens-join", threshold=6.0, snapshots=2, setups=2),
    "des-sensjoin": SnapshotWorkload("small-des", nodes=300, engine="des-sensjoin", threshold=10.0, snapshots=2, setups=1),
    "broker": BrokerWorkload(
        "small-broker", nodes=200, requests=16, streams=1, setups=1,
        templates=(((1, 3), 6.0), ((3, 5), 6.0), ((2, 3), 8.0)),
    ),
}

SETUP = ["sim.deploy_s", "data.world_s", "routing.tree_s", "routing.tree_height"]
PROTOCOL = [
    "sim.radio_s", "sim.radio_calls", "sim.tx_bytes", "data.snapshot_s",
    "codec.size_s", "codec.setops_s", "codec.quantize_s", "codec.calls",
    "query.eval_s", "query.eval_candidates", "query.eval_matches", "query.eval_peak_mb",
    "query.semijoin_s", "joins.filter_s", "joins.self_s",
]
#: Metrics that must be non-zero, per small workload: where the layer works.
EXPECTED = {
    "sens-join": SETUP + PROTOCOL,
    "des-sensjoin": SETUP + PROTOCOL + ["sim.events", "sim.kernel_self_s", "joins.des_process_s"],
    "broker": SETUP + PROTOCOL + [
        "service.self_s", "service.dissemination_s", "service.batches",
        "service.share_groups", "service.piggybacked",
    ],
}


@pytest.fixture(scope="module")
def bindings_before_tracing():
    return _bindings()


@pytest.fixture(scope="module")
def traced_runs(bindings_before_tracing):
    return {key: workload.run(seed=1, seconds=1.0, trace=True) for key, workload in SMALL.items()}


def _bindings():
    """Every module global and class attribute the tracer may replace."""
    found = {}
    for _group, module_name, path, _observe, _peak in TRACED:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            found[(id(owner), attr)] = (owner, attr, owner.__dict__[attr])
        else:
            original = getattr(module, path)
            for other in list(sys.modules.values()):
                namespace = getattr(other, "__dict__", None)
                if isinstance(namespace, dict):
                    for name, value in list(namespace.items()):
                        if value is original:
                            found[(id(other), name)] = (other, name, original)
    return found


@pytest.mark.parametrize("key", sorted(SMALL))
def test_each_layer_records_work_where_expected(traced_runs, key):
    run = traced_runs[key]
    assert run.failed == 0 and run.attempted > 0
    missing = [name for name in EXPECTED[key] if not run.per_layer[name][0] > 0]
    assert not missing


@pytest.mark.parametrize("key", sorted(SMALL))
def test_layer_self_times_sum_to_traced_query_time(traced_runs, key):
    metrics = traced_runs[key].per_layer
    layer_sum = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    assert layer_sum == pytest.approx(metrics["trace.query_s"][0], rel=0.05)
    assert metrics["trace.covered_frac"][0] >= 0.95
    # The entry point's own lines are the rest, up to the wrappers' cost.
    assert layer_sum + metrics["trace.unattributed_s"][0] == pytest.approx(
        metrics["trace.query_s"][0], rel=0.01
    )


def test_code_no_wrapper_covers_is_unattributed(monkeypatch):
    import perfbench.tracing as tracing

    entry_points = tuple(entry for entry in TRACED if entry[2] in ("run_snapshot", "QueryBroker.run"))
    monkeypatch.setattr(tracing, "TRACED", entry_points)
    metrics = SMALL["sens-join"].run(seed=1, seconds=1.0, trace=True).per_layer
    assert metrics["trace.covered_frac"][0] == 0.0
    assert metrics["trace.unattributed_s"][0] == pytest.approx(metrics["trace.query_s"][0], rel=0.01)


def test_wrappers_reach_by_name_imports_and_are_removed_after():
    import repro.joins.base
    import repro.joins.sensjoin
    import repro.query.evaluate
    import repro.service.broker

    before = _bindings()
    original = repro.query.evaluate.evaluate_join
    with traced(Tracer()) as patches:
        for module in (repro.query.evaluate, repro.joins.base, repro.joins.sensjoin, repro.service.broker):
            assert module.evaluate_join is not original
            assert module.evaluate_join.__wrapped__ is original
        assert len(patches) >= len(before)
    after = _bindings()
    assert after.keys() == before.keys()
    for key, (owner, name, value) in before.items():
        current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        assert current is value, f"{owner}.{name} not restored"


def test_untraced_runs_see_the_original_functions(bindings_before_tracing, traced_runs):
    # The traced runs installed and removed the wrappers many times over.
    for owner, name, value in bindings_before_tracing.values():
        current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        assert current is value, f"{owner}.{name} not restored"


def test_untraced_run_reports_every_end_to_end_metric():
    run = SMALL["sens-join"].run(seed=0, seconds=0.1, trace=False)
    metrics = run.end_to_end()
    assert list(metrics) == [metric["name"] for metric in SPEC["end_to_end"]]
    assert all(metrics[m["name"]][1] == m["unit"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value, _unit in metrics.values())
    # The queries' own site, then 2 discarded set-ups before every timed query.
    assert run.failed == 0 and len(run.setup_s) == 1 + 2 * len(run.call_s)


def test_per_layer_metrics_match_the_spec(traced_runs):
    names = [metric["name"] for metric in SPEC["per_layer"]]
    for run in traced_runs.values():
        assert list(run.per_layer) == names
        assert all(run.per_layer[m["name"]][1] == m["unit"] for m in SPEC["per_layer"])
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_simulated_metrics_repeat_exactly():
    first = SMALL["des-sensjoin"].run(seed=2, seconds=0.1, trace=False).end_to_end()
    second = SMALL["des-sensjoin"].run(seed=2, seconds=0.1, trace=False).end_to_end()
    for name in ("tx_packets", "energy_j", "response_s", "latency_p50_s", "latency_p90_s"):
        assert first[name] == second[name]


def test_setup_is_cold_and_bypasses_the_bench_caches():
    from repro.bench import cache, workloads

    assert cache.calibration_cache_dir() is None
    SMALL["sens-join"].run(seed=3, seconds=0.1, trace=False)
    assert workloads._cached_scenario.cache_info().currsize == 0
    assert workloads._cached_calibration.cache_info().currsize == 0


@pytest.mark.parametrize("threshold", [0.0, 1.5, 6.0])
def test_range_join_matches_brute_force(threshold):
    rng = np.random.default_rng(7)
    # Ties and readings exactly ``threshold`` apart exercise the cut.
    temp = np.round(rng.normal(22.0, 4.0, size=400), 1)
    temp[:20] = temp[20:40] + threshold
    ids = np.arange(1, 401, dtype=np.int64)
    readings = {"temp": temp, "pres": rng.normal(1000.0, 5.0, size=400)}
    labels = ["A.pres", "B.pres"]
    assert oracle.expected_rows(ids, readings, *oracle.range_join(temp, threshold), labels) == (
        oracle.expected_rows(ids, readings, *oracle.brute_force_join(readings, threshold, ""), labels)
    )


def test_row_digest_is_order_independent_and_sees_pairs_values_and_labels():
    rng = np.random.default_rng(3)
    pairs = rng.integers(1, 10_000, size=(500, 2))
    values = {"A.hum": rng.normal(50.0, 10.0, size=500), "B.hum": rng.normal(50.0, 10.0, size=500)}
    digest = oracle.row_digest(pairs[:, 0], pairs[:, 1], values)
    shuffle = rng.permutation(len(pairs))
    assert oracle.row_digest(
        pairs[shuffle, 0], pairs[shuffle, 1], {label: v[shuffle] for label, v in values.items()}
    ) == digest
    assert oracle.row_digest(pairs[:, 1], pairs[:, 0], values) != digest
    assert oracle.row_digest(
        pairs[1:, 0], pairs[1:, 1], {label: v[1:] for label, v in values.items()}
    ) != digest
    assert oracle.row_digest(pairs[1:, 0], pairs[1:, 1], values) != digest
    nudged = dict(values, **{"B.hum": values["B.hum"].copy()})
    nudged["B.hum"][7] = np.nextafter(nudged["B.hum"][7], np.inf)
    assert oracle.row_digest(pairs[:, 0], pairs[:, 1], nudged) != digest
    assert oracle.row_digest(pairs[:, 0], pairs[:, 1], {"A.hum": values["A.hum"]}) != digest


def test_check_flags_a_wrong_snapshot_result(monkeypatch):
    import perfbench.workloads as module

    real = module.run_snapshot

    def drop_one_match(*args, **kwargs):
        outcome = real(*args, **kwargs)
        outcome.result._node_combos = outcome.result._node_combos[1:]
        return outcome

    monkeypatch.setattr(module, "run_snapshot", drop_one_match)
    run = SMALL["sens-join"].run(seed=0, seconds=0.1, trace=False)
    assert run.attempted == 3 and run.failed == 3


def test_check_flags_a_wrong_snapshot_value(monkeypatch):
    import perfbench.workloads as module

    real = module.run_snapshot

    def round_one_value(*args, **kwargs):
        outcome = real(*args, **kwargs)
        outcome.result._row_columns["B.pres"][0] = round(outcome.result._row_columns["B.pres"][0], 1)
        return outcome

    monkeypatch.setattr(module, "run_snapshot", round_one_value)
    run = SMALL["sens-join"].run(seed=0, seconds=0.1, trace=False)
    assert run.attempted == 3 and run.failed == 3


def test_check_flags_a_wrong_broker_value(monkeypatch):
    import perfbench.workloads as module

    real = module.QueryBroker.run

    def round_one_value(broker, requests):
        report = real(broker, requests)
        columns = report.outcomes[0].result._row_columns
        label = next(iter(columns))
        columns[label][0] = round(columns[label][0], 1)
        return report

    monkeypatch.setattr(module.QueryBroker, "run", round_one_value)
    run = SMALL["broker"].run(seed=0, seconds=0.1, trace=False)
    # The untimed warm-up stream and the timed stream each lose one outcome.
    assert run.failed == 2


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-5k", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
