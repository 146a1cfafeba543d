"""The benchmark's workloads: inputs from a seed, timed calls, checks.

Inputs.  Every workload runs on one fixed deployment: deployment, routing
and field seed 0.  ``--seed`` draws what changes from query to query.  A
snapshot-workload run queries :data:`SNAPSHOTS` instants drawn uniformly from
the first :data:`QUERY_WINDOW_S` seconds of a slowly drifting field, and
reports medians over them.  ``broker-1k`` draws :data:`BROKER_STREAMS` request
streams and pools their latencies.

The deployment is fixed because the simulated metrics would otherwise be
dominated by it: a 10k-node query's simulated response time moves by +-12%
with its routing tie-breaks alone, and the broker's p50 latency moves
between 10.5 s and 19.1 s over six 1k-node deployments.  Readings drawn per
instant move the 10k response time by +-4%.

Timing.  Set-up (deploy + world + routing tree) is timed cold, with nothing
cached: once for the site the queries run on, then for a second, discarded
site before every timed call, so its samples span the whole run rather than
one burst at its start (the host's speed drifts by +-25% over tens of
seconds).  Queries are timed around the public entry
point (``run_snapshot`` / ``QueryBroker.run``) with garbage collected before
each call, after one untimed warm-up call: the first few queries of a
process run up to 50% slower than the rest.  Every check runs outside the
timed region.
"""

from __future__ import annotations

import gc
import itertools
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.workloads import ratio_query_builder
from repro.data.relations import SensorWorld
from repro.joins.runner import run_snapshot
from repro.routing.ctp import build_tree
from repro.routing.tree import RoutingTree
from repro.service.broker import BrokerConfig, QueryBroker
from repro.service.workloads import WorkloadSpec, generate_workload
from repro.sim.network import DeploymentConfig, Network, deploy_uniform

from . import oracle
from .tracing import LAYERS, Tracer, traced

__all__ = ["WORKLOADS", "Measurement", "build_site"]

#: Deployment, routing and field seed of every workload.
SITE_SEED = 0
#: Query instants per snapshot-workload run, and how many of them the traced
#: run uses (each is queried twice there).
SNAPSHOTS = 6
TRACED_SNAPSHOTS = 3
#: Snapshot queries run at instants in [0, QUERY_WINDOW_S) of a field whose
#: features drift at FIELD_DRIFT_RAD_S (rad/s, standard deviation): readings
#: change by a fraction of their spread within the window, so the 10k match
#: count stays within 114k-121k instead of 48k-327k across whole new fields.
QUERY_WINDOW_S = 600.0
FIELD_DRIFT_RAD_S = 0.001
#: Request streams per broker-1k run, each an open-loop Poisson stream at
#: BROKER_RATE_HZ of simulated time with Zipf(BROKER_ZIPF_S) template choice.
BROKER_STREAMS = 4
BROKER_RATE_HZ = 0.5
BROKER_ZIPF_S = 1.1
#: Cold set-ups timed before each timed query or stream (for setup_s): 10k
#: nodes take ~0.6 s, 1k ~0.035 s.
SNAPSHOT_SETUPS = 1
BROKER_SETUPS = 10

#: The conjunct each ``ratio_query_builder`` template, keyed by (join
#: attributes, attributes overall), adds to ``A.temp - B.temp > threshold``,
#: by its name in :func:`oracle.brute_force_join`.
CONJUNCTS: Dict[Tuple[int, int], str] = {(1, 3): "", (3, 5): "distance", (2, 3): "hum"}


@dataclass
class Site:
    """One deployed, data-bound, routed network."""

    network: Network
    world: SensorWorld
    tree: RoutingTree


def build_site(nodes: int, drift_rate: float = 0.0) -> Site:
    """Deploy ``nodes`` sensors at the paper's density, bind data, route."""
    config = replace(DeploymentConfig().scaled(nodes), seed=SITE_SEED)
    network = deploy_uniform(config)
    world = SensorWorld.homogeneous(
        network, seed=SITE_SEED, area_side_m=config.area_side_m, drift_rate=drift_rate
    )
    tree = build_tree(network, seed=SITE_SEED)
    return Site(network, world, tree)


def _timed(call: Callable[[], object], tracer: Optional[Tracer] = None):
    """``call()`` after a garbage collection: its value and host seconds.

    With ``tracer`` the layer wrappers are installed around the call, so
    ``call`` must look its entry point up when called to reach the wrapper.
    """
    gc.collect()
    with traced(tracer) if tracer is not None else nullcontext():
        start = time.perf_counter()
        value = call()
        elapsed = time.perf_counter() - start
    return value, elapsed


def _set_up(nodes: int, drift_rate: float, out: Measurement, tracer: Optional[Tracer] = None) -> Site:
    """A site built cold; untraced, its set-up time goes to ``out``."""
    site, elapsed = _timed(lambda: build_site(nodes, drift_rate), tracer)
    if tracer is None:
        out.setup_s.append(elapsed)
    return site


def _time_set_ups(nodes: int, drift_rate: float, builds: int, out: Measurement) -> None:
    """Time ``builds`` cold set-ups of a site that is dropped at once.

    The workload's own site stays alive meanwhile; a second 10k site adds
    ~70 MB, well under what a query allocates, so peak_rss_mb is unchanged.
    """
    for _ in range(builds):
        _set_up(nodes, drift_rate, out)


def _report_failure(what: str) -> None:
    print(f"FAILED {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def percentile(values: Sequence[float], percent: int) -> float:
    """Percentile interpolated between the nearest ranks.

    Simulated times come in multiples of the hop latency; interpolating
    keeps one run's percentile from repeating another's by coincidence.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


@dataclass
class Measurement:
    """Everything one run measured, before it is reduced to metrics."""

    attempted: int = 0
    failed: int = 0
    setup_s: List[float] = field(default_factory=list)
    #: Host seconds per timed call (one query, or one broker stream).
    call_s: List[float] = field(default_factory=list)
    #: Queries answered per timed call.
    queries_per_call: int = 1
    tx_packets: List[float] = field(default_factory=list)
    energy_j: List[float] = field(default_factory=list)
    #: Simulated seconds from a query's start to its result.
    response_s: List[float] = field(default_factory=list)
    #: Simulated seconds from a query's arrival to its result.
    latency_s: List[float] = field(default_factory=list)
    #: The per-layer metrics of a traced run: name -> (value, unit).
    per_layer: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        """The end-to-end metrics: name -> (value, unit)."""
        query_s = statistics.median(self.call_s) / self.queries_per_call
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "query_s": (query_s, "s"),
            "queries_per_s": (1.0 / query_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "tx_packets": (statistics.median(self.tx_packets), "count"),
            "energy_j": (statistics.median(self.energy_j), "J"),
            "response_s": (statistics.fmean(self.response_s), "s"),
            "latency_p50_s": (percentile(self.latency_s, 50), "s"),
            "latency_p90_s": (percentile(self.latency_s, 90), "s"),
        }


# -- per-layer reduction --------------------------------------------------------


def layer_metrics(
    setup: Tracer, query: Tracer, queries: int, traced_s: float, untraced_s: float,
    tree_height: float,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced run.

    Times and counts are per query (a broker request counts as one);
    ``setup`` holds the spans of the traced set-ups, one per site.
    """

    def total(tracer: Tracer, *groups: str) -> float:
        return sum(tracer.stats(group).total_s for group in groups)

    def calls(*groups: str) -> float:
        return sum(query.stats(group).calls for group in groups) / queries

    sites = max(1, setup.stats("sim.deploy").calls)
    evals = query.stats("query.eval")
    layer_self = query.layer_self_s()
    codec = ("codec.size", "codec.encode", "codec.setops", "codec.quantize")
    metrics = {
        "sim.deploy_s": (total(setup, "sim.deploy") / sites, "s"),
        "data.world_s": (total(setup, "data.world") / sites, "s"),
        "routing.tree_s": (total(setup, "routing.tree") / sites, "s"),
        "routing.tree_height": (tree_height, "hops"),
        "sim.kernel_self_s": ((query.stats("sim.kernel").self_s + query.stats("sim.run").self_s) / queries, "s"),
        "sim.events": (calls("sim.kernel"), "count"),
        "sim.radio_s": (total(query, "sim.radio") / queries, "s"),
        "sim.radio_calls": (calls("sim.radio"), "count"),
        "sim.tx_bytes": (query.stats("sim.radio").counts["tx_bytes"] / queries, "B"),
        "data.snapshot_s": (total(query, "data.snapshot") / queries, "s"),
        "routing.dissemination_s": (total(query, "routing.dissemination") / queries, "s"),
        "service.dissemination_s": (total(query, "service.dissemination") / queries, "s"),
        "codec.size_s": (total(query, "codec.size") / queries, "s"),
        "codec.encode_s": (total(query, "codec.encode") / queries, "s"),
        "codec.setops_s": (total(query, "codec.setops") / queries, "s"),
        "codec.quantize_s": (total(query, "codec.quantize") / queries, "s"),
        "codec.calls": (calls(*codec), "count"),
        "query.eval_s": (evals.total_s / queries, "s"),
        "query.eval_candidates": (evals.counts["candidates"] / queries, "count"),
        "query.eval_matches": (evals.counts["matches"] / queries, "count"),
        "query.eval_yield": (evals.counts["matches"] / max(1, evals.counts["candidates"]), "frac"),
        "query.eval_peak_mb": (evals.peak_bytes / 2**20, "MB"),
        "query.semijoin_s": (total(query, "query.semijoin") / queries, "s"),
        "joins.filter_s": (total(query, "joins.filter") / queries, "s"),
        "joins.des_process_s": (query.stats("joins.des_process").self_s / queries, "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer] / queries, "s")
    # The broker overwrites these; no other workload batches queries.
    metrics["service.batches"] = (0.0, "count")
    metrics["service.share_groups"] = (0.0, "count")
    metrics["service.piggybacked"] = (0.0, "count")
    metrics["trace.query_s"] = (traced_s / queries, "s")
    metrics["trace.unattributed_s"] = (query.unattributed_s / queries, "s")
    metrics["trace.covered_frac"] = (sum(layer_self.values()) / traced_s, "frac")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
    return metrics


# -- snapshot workloads ------------------------------------------------------------


@dataclass(frozen=True)
class SnapshotWorkload:
    """One ``ONCE`` query at each of a run's instants, repeated."""

    name: str
    nodes: int
    engine: str
    threshold: float
    snapshots: int = SNAPSHOTS
    setups: int = SNAPSHOT_SETUPS

    def run(self, seed: int, seconds: float, trace: bool) -> Measurement:
        query = ratio_query_builder(1, 3)(self.threshold)
        labels = [item.name for item in query.select]
        instants = np.random.default_rng(seed).uniform(0.0, QUERY_WINDOW_S, self.snapshots).tolist()
        if trace:
            instants = instants[:TRACED_SNAPSHOTS]
        out = Measurement()
        setup_tracer = Tracer() if trace else None
        site = _set_up(self.nodes, FIELD_DRIFT_RAD_S, out, setup_tracer)
        expected: Dict[int, oracle.Expected] = {}
        first: Dict[int, Tuple[float, float, float]] = {}

        def one_query(index: int, tracer: Optional[Tracer] = None) -> Optional[float]:
            out.attempted += 1
            try:
                outcome, elapsed = _timed(
                    lambda: run_snapshot(
                        site.network, site.world, query, self.engine, tree=site.tree,
                        snapshot_time=instants[index], tree_seed=SITE_SEED,
                    ),
                    tracer,
                )
            except Exception:
                out.failed += 1
                _report_failure(f"{self.name} query at t={instants[index]:.3f}")
                return None
            got = oracle.result_digest(outcome.result)
            simulated = (
                float(outcome.total_transmissions),
                site.network.total_energy(),
                outcome.response_time_s,
            )
            # The result is dropped before the oracle allocates its arrays,
            # so peak_rss_mb does not count both at once.
            del outcome
            if index not in expected:
                ids, readings = oracle.snapshot_columns(site.world)
                a_index, b_index = oracle.range_join(readings["temp"], self.threshold)
                expected[index] = oracle.expected_rows(ids, readings, a_index, b_index, labels)
            first.setdefault(index, simulated)
            if got != expected[index] or simulated != first[index]:
                out.failed += 1
                print(f"FAILED {self.name}: wrong result at t={instants[index]:.3f}", file=sys.stderr)
            return elapsed

        one_query(0)  # untimed warm-up, see the module docstring
        if trace:
            query_tracer = Tracer()
            plain, with_spans = [], []
            for index in range(len(instants)):
                # Alternate which goes first, so warm-up favours neither.
                for tracing in ((False, True) if index % 2 == 0 else (True, False)):
                    elapsed = one_query(index, query_tracer if tracing else None)
                    if elapsed is not None:
                        (with_spans if tracing else plain).append(elapsed)
            if not plain or not with_spans:
                return out
            out.per_layer = layer_metrics(
                setup_tracer, query_tracer, len(with_spans), sum(with_spans),
                sum(plain) * len(with_spans) / len(plain), float(site.tree.height),
            )
            return out

        # Every instant is queried at least once; after that, queries go on
        # round-robin while one more, with its set-up sample and check, still
        # fits in the run.
        started = time.perf_counter()
        for count in itertools.count(1):
            query_start = time.perf_counter()
            _time_set_ups(self.nodes, FIELD_DRIFT_RAD_S, self.setups, out)
            elapsed = one_query((count - 1) % len(instants))
            if elapsed is not None:
                out.call_s.append(elapsed)
            now = time.perf_counter()
            if count >= len(instants) and now - started + (now - query_start) > seconds:
                break
        for tx, energy, response in first.values():
            out.tx_packets.append(tx)
            out.energy_j.append(energy)
            out.response_s.append(response)
            out.latency_s.append(response)
        return out


# -- broker workload -----------------------------------------------------------------


@dataclass(frozen=True)
class BrokerWorkload:
    """Open-loop Poisson request streams into one shared-path broker."""

    name: str
    nodes: int
    requests: int = 64
    #: (template, threshold), hottest first.
    templates: Tuple[Tuple[Tuple[int, int], float], ...] = (
        ((1, 3), 16.0), ((3, 5), 16.0), ((1, 3), 18.0), ((2, 3), 16.0),
    )
    streams: int = BROKER_STREAMS
    setups: int = BROKER_SETUPS

    def run(self, seed: int, seconds: float, trace: bool) -> Measurement:
        out = Measurement(queries_per_call=self.requests)
        setup_tracer = Tracer() if trace else None
        site = _set_up(self.nodes, 0.0, out, setup_tracer)
        queries = [ratio_query_builder(*template)(threshold) for template, threshold in self.templates]
        config = BrokerConfig(concurrency=8, share_work=True)

        def one_stream(stream_seed: int, tracer: Optional[Tracer] = None, count: Optional[int] = None):
            spec = WorkloadSpec(
                kind="poisson", rate_hz=BROKER_RATE_HZ, count=count or self.requests,
                seed=stream_seed, zipf_s=BROKER_ZIPF_S,
            )
            requests = generate_workload(spec, queries)
            broker = QueryBroker(site.network, site.world, config, tree=site.tree, tree_seed=SITE_SEED)
            out.attempted += len(requests)
            try:
                report, elapsed = _timed(lambda: broker.run(requests), tracer)
            except Exception:
                out.failed += len(requests)
                _report_failure(f"{self.name} stream {stream_seed}")
                return None, None
            out.failed += self._wrong_outcomes(site, queries, report, len(requests))
            return report, elapsed

        # An untimed short stream first (see SnapshotWorkload.run).
        one_stream(seed * self.streams, count=self.requests // 8)
        if trace:
            query_tracer = Tracer()
            _, plain = one_stream(seed * self.streams)
            report, with_spans = one_stream(seed * self.streams, query_tracer)
            if report is None or plain is None:
                return out
            out.per_layer = layer_metrics(
                setup_tracer, query_tracer, self.requests, with_spans, plain,
                float(site.tree.height),
            )
            out.per_layer.update({
                "service.batches": (float(report.batch_count), "count"),
                "service.share_groups": (report.details.get("share_groups", 0.0), "count"),
                "service.piggybacked": (report.details.get("piggybacked_broadcasts", 0.0), "count"),
            })
            return out

        for stream in range(self.streams):
            _time_set_ups(self.nodes, 0.0, self.setups, out)
            report, elapsed = one_stream(seed * self.streams + stream)
            if report is None:
                continue
            out.call_s.append(elapsed)
            out.tx_packets.append(float(report.total_tx_packets))
            out.energy_j.append(report.total_energy_j)
            for outcome in report.outcomes:
                out.response_s.append(outcome.completed_s - outcome.admitted_s)
                out.latency_s.append(outcome.latency_s)
        return out

    def _wrong_outcomes(self, site: Site, queries, report, requests: int) -> int:
        """Outcomes that did not complete or differ from a brute-force join."""
        ids, readings = oracle.snapshot_columns(site.world)
        expected = [
            oracle.expected_rows(
                ids, readings,
                *oracle.brute_force_join(readings, threshold, CONJUNCTS[template]),
                [item.name for item in query.select],
            )
            for (template, threshold), query in zip(self.templates, queries)
        ]
        wrong = 0
        for outcome in report.outcomes:
            if (
                outcome.status != "completed"
                or oracle.result_digest(outcome.result) != expected[outcome.request.template_index]
            ):
                wrong += 1
        missing = requests - len(report.outcomes)
        if wrong or missing:
            print(f"FAILED {self.name}: {wrong} wrong and {missing} missing outcomes", file=sys.stderr)
        return wrong + missing


WIDE_5K = SnapshotWorkload("wide-5k", nodes=5000, engine="sens-join", threshold=6.0)
SELECTIVE_10K_DES = SnapshotWorkload("selective-10k-des", nodes=10000, engine="des-sensjoin", threshold=16.0)
BROKER_1K = BrokerWorkload("broker-1k", nodes=1000)

WORKLOADS = {w.name: w for w in (WIDE_5K, SELECTIVE_10K_DES, BROKER_1K)}
