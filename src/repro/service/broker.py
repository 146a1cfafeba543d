"""The concurrent multi-query broker: admission, batching, work sharing.

The paper runs one query at a time; the broker runs *many* against one
deployment and recovers the redundancy between them:

1.  **Admission.**  Requests queue FIFO by arrival time.  When the network
    is free, the broker admits every already-arrived request up to the
    configured ``concurrency`` limit into one *batch* — one network epoch.

2.  **Share groups.**  A batch is partitioned by
    :func:`sharing_signature`: queries agreeing on aliases, relations,
    join attributes, full-tuple attributes and selection predicates (i.e.
    differing at most in the join predicate) share one quantized domain —
    their phase-1a traffic is *identical*, so the group runs
    Join-Attribute-Collection **once**.  From the one collected point set
    the base station builds each member query's join filter and unites
    them (:func:`~repro.joins.filterbuild.compose_filters`) into a single
    conservative filter: a superset of every per-query filter, so the
    exactness argument of §IV survives — the final join per query discards
    all false positives the wider filter lets through.

3.  **Piggybacked dissemination.**  The composed filters of *different*
    groups ride the same pre-order wave — SensJoin's own Selective Filter
    Forwarding wave (:meth:`~repro.joins.sensjoin.SensJoin._filter_phase`)
    run over every group at once: at each node every group prunes its own
    filter against its SubtreeJoinAtts, and whatever survives is
    concatenated — plus a small per-filter header — into **one** broadcast
    instead of one wave per group.  The final phase then runs once per
    group and each member query is evaluated exactly over the group's
    arrived complete tuples.

With ``share_work=False`` (or ``concurrency=1``) every admitted query runs
through the unmodified single-query path (:func:`repro.joins.runner.run_snapshot`),
serially — byte-identical outcomes to issuing the queries one by one, which
is both the correctness baseline and the denominator of the amortization
numbers reported by the ``concurrency_study`` experiment.

**Resilience under churn.**  With a :class:`~repro.sim.faults.ChurnModel`
(or a pre-materialized :class:`~repro.sim.faults.FaultPlan`) the broker
survives a topology that shifts under its batches.  Readings are sampled
once, pre-churn; due faults are applied as the clock reaches them and the
tree heals incrementally (:func:`~repro.routing.ctp.reattach_tree`, repair
cost in the ledger).  Batches run a *degradation ladder*: shared execution
with bounded, seeded-exponential-backoff retries when an epoch is disrupted
(a fault landed mid-epoch, or the :class:`DeadlinePolicy` timeout expired);
then the share group splits and members re-execute independently; a member
disrupted even then gets one final serial re-run whose result is accepted
as-is.  Every admitted query terminates with status ``"completed"``
(recall 1.0 against the pre-churn lossless oracle), ``"degraded"`` (partial
recall, or its engine raised — wrapped in a typed
:class:`~repro.errors.BrokerError` without aborting the batch) or
``"shed"`` (dropped at admission once the backlog exceeded
``admission_depth``).  With churn disabled every code path above is inert
and the broker's output is byte-identical to the pre-resilience behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import constants
from ..errors import BrokerError
from ..joins.base import (
    ExecutionContext,
    FullTupleRecord,
    TupleFormat,
    evaluate_records,
    oracle_result,
)
from ..joins.filterbuild import build_join_filter, compose_filters
from ..joins.runner import instrumented, make_algorithm, run_snapshot
from ..joins.sensjoin import NodeState, SensJoin
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..obs.timeseries import MetricsSampler, WindowedAggregate
# evaluate_join is bound here by name although members are evaluated
# through evaluate_records: perfbench/tracing.py patches every module
# binding of it, and perfbench/test_perfbench.py checks this one.
from ..query.evaluate import JoinResult, evaluate_join  # noqa: F401
from ..query.query import JoinQuery
from ..routing.ctp import build_tree, reattach_tree
from ..routing.dissemination import flood_batch, flood_query
from ..routing.tree import RoutingTree
from ..sim.faults import (
    ChurnModel,
    Fault,
    FaultPlan,
    LINK_DROP,
    LOSS_BURST,
    NODE_CRASH,
    NODE_MOVE,
    NODE_REJOIN,
)
from ..sim.network import Network
from ..sim.node import BASE_STATION_ID
from ..sim.trace import (
    BROKER_ADMIT,
    BROKER_BATCH,
    BROKER_COMPLETE,
    BROKER_DEGRADED,
    BROKER_GROUP_SPLIT,
    BROKER_RETRY,
    BROKER_SHED,
    FAULT_INJECT,
    FILTER_COMPOSED,
)
from .workloads import QueryRequest

__all__ = [
    "BrokerConfig",
    "DeadlinePolicy",
    "QueryBroker",
    "QueryOutcome",
    "BrokerReport",
    "sharing_signature",
]

#: Recall within this of 1.0 counts as complete (float accumulation guard).
_RECALL_EPSILON = 1e-9

#: Rolling SLO windows span this many sampling periods: wide enough that a
#: single slow wave does not whipsaw the percentiles, narrow enough that a
#: sustained regression surfaces within a handful of ticks.
SLO_WINDOW_PERIODS = 10


def sharing_signature(query: JoinQuery) -> Tuple:
    """What must agree for two queries to share phase-1a work.

    The collected join-attribute points depend on the aliases (flag bits),
    the relations behind them (which nodes hold tuples), the join/full
    attribute sets (the quantized domain and payload sizes) and the
    selection predicates (applied at acquisition time) — but **not** on
    the join predicate, which only enters at the base station when the
    filter is built.  Queries equal under this key therefore produce
    identical phase-1a traffic and may differ in their join condition.
    """
    return (
        tuple(query.aliases),
        tuple(query.relation_of(alias) for alias in query.aliases),
        tuple(tuple(query.join_attributes(alias)) for alias in query.aliases),
        tuple(tuple(query.full_tuple_attributes(alias)) for alias in query.aliases),
        tuple(
            tuple(sorted(p.sql() for p in query.selection_predicates(alias)))
            for alias in query.aliases
        ),
    )


@dataclass(frozen=True)
class DeadlinePolicy:
    """Per-query deadline and retry semantics for churn-resilient batches.

    ``timeout_s`` is the per-epoch simulated-time budget: a shared attempt
    whose simulated duration exceeds it counts as disrupted even if no fault
    landed mid-epoch (``None`` disables the deadline check; mid-epoch
    faults still disrupt).  A disrupted attempt is retried after a seeded
    exponential backoff — ``backoff_s`` scaled by ``backoff_factor`` per
    retry, jittered by a deterministic draw from ``seed`` so two brokers
    with the same seed retry at identical simulated times.  After
    ``max_retries`` shared retries the group splits (degradation ladder,
    see the module docstring).
    """

    timeout_s: Optional[float] = None
    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"negative retry bound: {self.max_retries}")
        if self.backoff_s < 0:
            raise ValueError(f"negative backoff: {self.backoff_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff factor must be >= 1, got {self.backoff_factor}"
            )


@dataclass(frozen=True)
class BrokerConfig:
    """Broker knobs.

    ``concurrency`` caps how many queries one batch admits; ``share_work``
    turns the group/compose/piggyback machinery on (off = the serial
    single-query reference path); ``engine`` picks the snapshot engine for
    the no-sharing path; ``disseminate_queries`` additionally floods the
    admitted queries' text in one piggybacked wave (off by default,
    matching ``run_snapshot``).

    ``deadline`` activates the churn-resilient execution ladder even
    without a churn model; ``admission_depth`` enables overload shedding —
    whenever a batch is formed, arrived-but-waiting requests beyond that
    depth are dropped with status ``"shed"`` instead of queueing without
    bound.
    """

    concurrency: int = 8
    share_work: bool = True
    engine: str = "sens-join"
    disseminate_queries: bool = False
    deadline: Optional[DeadlinePolicy] = None
    admission_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1: {self.concurrency}")
        if self.admission_depth is not None and self.admission_depth < 0:
            raise ValueError(
                f"admission_depth must be >= 0, got {self.admission_depth}"
            )


@dataclass
class QueryOutcome:
    """Per-query completion record.

    ``status`` is terminal: ``"completed"`` (full recall against the
    pre-churn oracle), ``"degraded"`` (partial recall, or the engine raised
    — then ``error`` carries the :class:`~repro.errors.BrokerError`), or
    ``"shed"`` (dropped at admission under overload).  Without churn or a
    deadline policy every outcome keeps the historical defaults.
    """

    request: QueryRequest
    result: JoinResult
    admitted_s: float
    completed_s: float
    latency_s: float
    energy_share_j: float
    tx_share_packets: float
    group_size: int
    batch_index: int
    status: str = "completed"
    #: Fraction of the pre-churn lossless oracle's matches this result
    #: delivered (1.0 when no churn/deadline machinery is active).
    recall: float = 1.0
    #: Execution attempts this query participated in (shared + split runs).
    attempts: int = 1
    error: Optional[BrokerError] = None

    def result_set(self, digits: int = 9) -> frozenset:
        return self.result.result_set(digits)


@dataclass
class BrokerReport:
    """Everything one :meth:`QueryBroker.run` produced."""

    outcomes: List[QueryOutcome]
    total_energy_j: float
    total_tx_packets: int
    batch_count: int
    details: Dict[str, float] = field(default_factory=dict)

    def latency_percentile(self, fraction: float) -> float:
        """Nearest-rank latency percentile over all completed queries."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1]: {fraction}")
        if not self.outcomes:
            raise ValueError("no completed queries")
        ordered = sorted(outcome.latency_s for outcome in self.outcomes)
        rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
        return ordered[rank]


@dataclass
class _GroupWave:
    """One share group's protocol state while its batch executes."""

    requests: List[QueryRequest]
    context: ExecutionContext
    fmt: TupleFormat
    states: Dict[int, NodeState]
    details: Dict[str, float]
    finish_1a: float = 0.0
    energy_j: float = 0.0
    tx_packets: float = 0.0
    #: Set when a protocol phase raised for this group: the wave's members
    #: surface degraded outcomes instead of aborting the batch.
    error: Optional[BrokerError] = None


class QueryBroker:
    """Admit, schedule and execute many queries on one network.

    The broker owns a single routing tree (built once — concurrent queries
    share the converged topology) and a simulated wall clock.  Batches run
    back to back; a query's latency is *completion − arrival*, so time
    spent waiting in the admission queue counts.

    ``churn`` (a :class:`~repro.sim.faults.ChurnModel`, materialized here
    against the deployment, or a ready :class:`~repro.sim.faults.FaultPlan`)
    turns on the resilient execution ladder; under churn a broker is a
    single-shot object — construct a fresh one per ``run()`` so the plan
    replays from the top.  Loss bursts are rejected: the broker's epochs are
    synchronous, only the DES engine can replay a transient loss window.
    """

    def __init__(
        self,
        network: Network,
        world,
        config: BrokerConfig = BrokerConfig(),
        tree: Optional[RoutingTree] = None,
        tree_seed: int = 0,
        telemetry: Optional[Telemetry] = None,
        churn: Optional[Union[ChurnModel, FaultPlan]] = None,
        sampler: Optional[MetricsSampler] = None,
    ):
        self.network = network
        self.world = world
        self.config = config
        self.tree = tree if tree is not None else build_tree(network, seed=tree_seed)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.tracer = self.telemetry.tracer
        self.tree_seed = tree_seed
        #: Optional time-series sampler (docs/observability.md).  The broker
        #: feeds rolling service-level aggregates (latency percentiles,
        #: deadline-miss/retry/shed rates, throughput) and ticks the sampler
        #: as its synchronous clock advances batch to batch; ``None`` (the
        #: default) leaves every run byte-identical to a sampler-free build.
        self._sampler = sampler
        if sampler is not None:
            window_s = sampler.period_s * SLO_WINDOW_PERIODS
            self._lat_window = WindowedAggregate(window_s)
            self._completed_window = WindowedAggregate(window_s)
            self._retry_window = WindowedAggregate(window_s)
            self._miss_window = WindowedAggregate(window_s)
            self._shed_window = WindowedAggregate(window_s)
            # The tree is re-grafted on heal, so the watch needs a live view.
            sampler.watch_tree(lambda: self.tree)
            sampler.add_probe(self._service_probe)
        if isinstance(churn, ChurnModel):
            plan = churn.materialize(network)
        elif churn is not None:
            plan = churn
        else:
            plan = FaultPlan.empty()
        for fault in plan:
            if fault.kind == LOSS_BURST:
                raise ValueError(
                    "loss bursts need the DES engine's in-flight ARQ; "
                    "the broker replays topology churn only"
                )
        self._churn_faults: Tuple[Fault, ...] = tuple(plan)
        self._churn_index = 0
        #: Resilient ladder active: churn scheduled or a deadline configured.
        self._resilient = bool(self._churn_faults) or config.deadline is not None
        self._backoff_rng = random.Random(
            f"broker-backoff-{(config.deadline or DeadlinePolicy()).seed}"
        )
        self._oracles: Dict[str, Tuple[frozenset, int]] = {}
        self._repairs = 0
        self._repair_beacons = 0
        self._repair_energy_j = 0.0
        self._repair_tx_packets = 0.0
        self._orphaned_nodes = 0
        self._aborted_energy_j = 0.0
        self._aborted_tx_packets = 0.0

    # -- time-series sampling ------------------------------------------------

    def _service_probe(self, now: float) -> List[Tuple[str, Dict[str, str], float]]:
        """Rolling SLO aggregates over the last ``SLO_WINDOW_PERIODS`` ticks."""
        for window in (
            self._lat_window, self._completed_window, self._retry_window,
            self._miss_window, self._shed_window,
        ):
            window.advance(now)
        readings: List[Tuple[str, Dict[str, str], float]] = [
            ("broker_throughput_qps", {}, self._completed_window.rate()),
            ("broker_retry_rate", {}, self._retry_window.rate()),
            ("broker_deadline_miss_rate", {}, self._miss_window.rate()),
            ("broker_shed_rate", {}, self._shed_window.rate()),
        ]
        if self._lat_window.count:
            readings.extend([
                ("broker_wave_latency_p50_s", {}, self._lat_window.percentile(0.5)),
                ("broker_wave_latency_p95_s", {}, self._lat_window.percentile(0.95)),
                ("broker_wave_latency_max_s", {}, self._lat_window.maximum),
            ])
        return readings

    def _reset_accounting(self) -> None:
        """Reset per-epoch ledgers, banking cumulative gauges first.

        Every epoch starts from a clean ledger (energy shares are per-epoch
        deltas), but the sampler's per-node gauges are cumulative — the watch
        must fold the current readings into its base offsets before the wipe
        or the time series would saw-tooth back to zero each batch.
        """
        if self._sampler is not None:
            self._sampler.note_network_reset()
        self.network.reset_accounting()

    # -- admission loop ------------------------------------------------------

    def run(self, requests: Sequence[QueryRequest]) -> BrokerReport:
        """Drain the request stream; returns the per-query outcome report."""
        telemetry = self.telemetry if self.telemetry.enabled else None
        # Instrument the whole run, not just the serial path: the shared and
        # resilient epochs (and repair beacons) charge the channel directly,
        # and their per-node/per-phase counters must land in the registry for
        # the energy ledger to reconcile (docs/observability.md).
        with instrumented(self.network, telemetry):
            return self._run(requests)

    def _run(self, requests: Sequence[QueryRequest]) -> BrokerReport:
        pending = sorted(requests, key=lambda r: (r.arrival_s, r.query_id))
        outcomes: List[QueryOutcome] = []
        reg = self.telemetry.registry
        if self._resilient:
            # Sample readings once, pre-churn, and fix the lossless oracle
            # per distinct query: recall is measured against what the full,
            # unchurned deployment would have answered (§IV-F).  Batches
            # must not re-snapshot — churned nodes keep their pre-churn
            # readings, so every delivered result is comparable.
            self.world.take_snapshot(0.0)
            for request in pending:
                key = request.query.sql()
                if key not in self._oracles:
                    oracle = oracle_result(
                        ExecutionContext(
                            network=self.network, tree=self.tree,
                            world=self.world, query=request.query,
                        )
                    )
                    self._oracles[key] = (
                        frozenset(oracle.combinations),
                        oracle.match_count,
                    )
        clock = 0.0
        batch_index = 0
        total_energy = 0.0
        total_tx = 0
        composed_total = 0
        piggyback_total = 0
        group_total = 0
        shed_count = 0
        index = 0
        while index < len(pending):
            start = max(clock, pending[index].arrival_s)
            batch: List[QueryRequest] = []
            while (
                index < len(pending)
                and len(batch) < self.config.concurrency
                and pending[index].arrival_s <= start
            ):
                batch.append(pending[index])
                index += 1
            if self.config.admission_depth is not None:
                # Overload shedding: of the requests already waiting behind
                # this batch, only admission_depth may keep queueing; the
                # newest arrivals beyond that are dropped terminally.
                waiting_end = index
                while (
                    waiting_end < len(pending)
                    and pending[waiting_end].arrival_s <= start
                ):
                    waiting_end += 1
                keep_end = min(index + self.config.admission_depth, waiting_end)
                for request in pending[keep_end:waiting_end]:
                    shed = self._shed_outcome(request, start, batch_index)
                    outcomes.append(shed)
                    shed_count += 1
                    if self._sampler is not None:
                        self._shed_window.observe(start, 1.0)
                    self.tracer.emit(
                        start, BASE_STATION_ID, BROKER_SHED,
                        query=request.query_id,
                        backlog=waiting_end - index,
                        depth=self.config.admission_depth,
                    )
                    if reg.enabled:
                        reg.counter("broker_shed_total").inc()
                pending = pending[:keep_end] + pending[waiting_end:]
            for request in batch:
                self.tracer.emit(
                    start, BASE_STATION_ID, BROKER_ADMIT,
                    query=request.query_id, waited_s=round(start - request.arrival_s, 6),
                )
            share = self.config.share_work and len(batch) > 1
            self.tracer.emit(
                start, BASE_STATION_ID, BROKER_BATCH,
                index=batch_index, size=len(batch), shared=share,
            )
            if self._resilient:
                batch_outcomes, stats = self._execute_batch_resilient(
                    batch, start, batch_index
                )
                composed_total += stats["composed_filters"]
                piggyback_total += stats["piggybacked_broadcasts"]
                group_total += stats["share_groups"]
            elif share:
                batch_outcomes, stats = self._execute_batch_shared(
                    batch, start, batch_index
                )
                composed_total += stats["composed_filters"]
                piggyback_total += stats["piggybacked_broadcasts"]
                group_total += stats["share_groups"]
            else:
                batch_outcomes = self._execute_batch_serial(batch, start, batch_index)
                group_total += len(batch)
            for outcome in batch_outcomes:
                total_energy += outcome.energy_share_j
                total_tx += outcome.tx_share_packets
                clock = max(clock, outcome.completed_s)
                self.tracer.emit(
                    outcome.completed_s, BASE_STATION_ID, BROKER_COMPLETE,
                    query=outcome.request.query_id,
                    latency_s=round(outcome.latency_s, 6),
                )
                if outcome.status == "degraded":
                    self.tracer.emit(
                        outcome.completed_s, BASE_STATION_ID, BROKER_DEGRADED,
                        query=outcome.request.query_id,
                        recall=round(outcome.recall, 6),
                        error=(
                            type(outcome.error.cause).__name__
                            if outcome.error is not None and outcome.error.cause
                            else ""
                        ),
                    )
                    if reg.enabled:
                        reg.counter("broker_degraded_total").inc()
                if reg.enabled:
                    reg.counter("broker_queries_total").inc()
                    reg.histogram("broker_query_latency_seconds").observe(
                        outcome.latency_s
                    )
            outcomes.extend(batch_outcomes)
            if self._sampler is not None:
                # Windows demand time-ordered observations; batch outcomes
                # are ordered by query id, so re-sort by completion.
                for outcome in sorted(batch_outcomes, key=lambda o: o.completed_s):
                    self._lat_window.observe(outcome.completed_s, outcome.latency_s)
                    self._completed_window.observe(outcome.completed_s, 1.0)
                self._sampler.advance_to(clock)
            if reg.enabled:
                reg.counter("broker_batches_total").inc()
            batch_index += 1
        if reg.enabled:
            reg.counter("broker_share_groups_total").inc(group_total)
            reg.counter("broker_composed_filters_total").inc(composed_total)
            reg.counter("broker_piggybacked_broadcasts_total").inc(piggyback_total)
        details = {
            "queries": float(len(outcomes)),
            "batches": float(batch_index),
            "share_groups": float(group_total),
            "composed_filters": float(composed_total),
            "piggybacked_broadcasts": float(piggyback_total),
            "makespan_s": clock,
        }
        if self._resilient or self.config.admission_depth is not None:
            # Churn bookkeeping rides only on resilient runs so the
            # historical report shape stays byte-identical without churn.
            executed = [o for o in outcomes if o.status != "shed"]
            details["completed"] = float(
                sum(1 for o in outcomes if o.status == "completed")
            )
            details["degraded"] = float(
                sum(1 for o in outcomes if o.status == "degraded")
            )
            details["shed"] = float(shed_count)
            details["mean_recall"] = (
                sum(o.recall for o in executed) / len(executed) if executed else 1.0
            )
            details["min_recall"] = (
                min(o.recall for o in executed) if executed else 1.0
            )
            details["churn_faults_applied"] = float(self._churn_index)
            details["repairs"] = float(self._repairs)
            details["repair_beacons"] = float(self._repair_beacons)
            details["repair_energy_j"] = self._repair_energy_j
            details["orphaned_nodes"] = float(self._orphaned_nodes)
            details["aborted_energy_j"] = self._aborted_energy_j
            total_energy += self._repair_energy_j + self._aborted_energy_j
            total_tx += self._repair_tx_packets + self._aborted_tx_packets
        if self._sampler is not None:
            # One off-grid sample at the makespan so the final state of every
            # gauge is in the export even when the run ends between ticks.
            self._sampler.flush(clock)
        return BrokerReport(
            outcomes=outcomes,
            total_energy_j=total_energy,
            total_tx_packets=int(round(total_tx)),
            batch_count=batch_index,
            details=details,
        )

    # -- no-sharing reference path -------------------------------------------

    def _execute_batch_serial(
        self, batch: List[QueryRequest], start: float, batch_index: int
    ) -> List[QueryOutcome]:
        """One query at a time through the unmodified single-query path."""
        outcomes = []
        clock = start
        for request in batch:
            try:
                outcome = run_snapshot(
                    self.network,
                    self.world,
                    request.query,
                    algorithm=self.config.engine,
                    tree=self.tree,
                    disseminate_query=self.config.disseminate_queries,
                    telemetry=self.telemetry if self.telemetry.enabled else None,
                )
            except Exception as exc:
                # One query's engine failing must not abort the batch: wrap
                # the exception and keep executing the remaining queries.
                error = BrokerError(
                    f"engine failed for query {request.query_id}: {exc}",
                    query_id=request.query_id,
                    cause=exc,
                )
                outcomes.append(
                    QueryOutcome(
                        request=request,
                        result=_empty_result(request.query),
                        admitted_s=start,
                        completed_s=clock,
                        latency_s=clock - request.arrival_s,
                        energy_share_j=self.network.total_energy(),
                        tx_share_packets=float(
                            self.network.stats.total_tx_packets()
                        ),
                        group_size=1,
                        batch_index=batch_index,
                        status="degraded",
                        recall=0.0,
                        error=error,
                    )
                )
                continue
            completed = clock + outcome.response_time_s
            outcomes.append(
                QueryOutcome(
                    request=request,
                    result=outcome.result,
                    admitted_s=start,
                    completed_s=completed,
                    latency_s=completed - request.arrival_s,
                    energy_share_j=self.network.total_energy(),
                    tx_share_packets=float(outcome.total_transmissions),
                    group_size=1,
                    batch_index=batch_index,
                )
            )
            clock = completed
        return outcomes

    # -- shared execution ----------------------------------------------------

    def _execute_batch_shared(
        self,
        batch: List[QueryRequest],
        start: float,
        batch_index: int,
        take_snapshot: bool = True,
    ) -> Tuple[List[QueryOutcome], Dict[str, float]]:
        """One network epoch for the whole batch, with work sharing.

        ``take_snapshot=False`` is the resilient path: readings were sampled
        once, pre-churn, and must not be refreshed mid-churn (nodes that
        moved would re-sample the field at their new position and the
        outcome would no longer be comparable to the pre-churn oracle).
        """
        network, tree, world = self.network, self.tree, self.world
        self._reset_accounting()
        energy_mark = 0.0
        tx_mark = 0.0

        def take_delta() -> Tuple[float, float]:
            nonlocal energy_mark, tx_mark
            energy = network.total_energy()
            tx = float(network.stats.total_tx_packets())
            delta = (energy - energy_mark, tx - tx_mark)
            energy_mark, tx_mark = energy, tx
            return delta

        # One piggybacked flood disseminates every admitted query's text.
        if self.config.disseminate_queries:
            flood_batch(
                network, [len(r.query.sql().encode()) for r in batch]
            )
        if take_snapshot:
            world.take_snapshot(start)
        diss_energy, diss_tx = take_delta()

        # One engine drives every group's phases; it keeps no per-query state.
        engine = SensJoin(telemetry=self.telemetry)
        # Partition into share groups, in batch (= admission) order.
        waves: List[_GroupWave] = []
        by_signature: Dict[Tuple, _GroupWave] = {}
        for request in batch:
            key = sharing_signature(request.query)
            wave = by_signature.get(key)
            if wave is None:
                context = ExecutionContext(
                    network=network, tree=tree, world=world, query=request.query
                )
                wave = _GroupWave(
                    requests=[],
                    context=context,
                    fmt=context.tuple_format(),
                    states={nid: NodeState() for nid in tree.node_ids},
                    details={},
                )
                by_signature[key] = wave
                waves.append(wave)
            wave.requests.append(request)

        # Phase 1a once per group; per-query filters composed per group.
        # A group whose protocol raises is quarantined (wave.error): its
        # members surface degraded outcomes, the other groups keep going.
        for wave in waves:
            try:
                bs_points, finish_1a = engine._collection_phase(
                    wave.context, wave.fmt, wave.states, wave.details
                )
                wave.finish_1a = finish_1a
                per_query = [
                    build_join_filter(TupleFormat(r.query, world), bs_points)
                    for r in wave.requests
                ]
                composed = compose_filters(per_query)
                wave.states[BASE_STATION_ID].filter_received = composed
            except Exception as exc:
                wave.error = BrokerError(
                    f"collection phase failed: {exc}", cause=exc
                )
                energy, tx = take_delta()
                wave.energy_j += energy
                wave.tx_packets += tx
                continue
            self.tracer.emit(
                finish_1a, BASE_STATION_ID, FILTER_COMPOSED,
                queries=len(wave.requests), points=len(composed),
            )
            energy, tx = take_delta()
            wave.energy_j += energy
            wave.tx_packets += tx

        # Phase 1b: all groups' filters ride one pre-order wave.
        piggybacked = self._disseminate_filters(engine, waves, start_time=max(
            wave.finish_1a for wave in waves
        ))
        energy, tx = take_delta()
        # Query dissemination + the merged filter wave serve every member
        # of the batch; their cost is split evenly.
        shared_share = (energy + diss_energy) / len(batch)
        shared_tx = (tx + diss_tx) / len(batch)

        # Phase 2 once per group; exact per-query evaluation over the
        # group's arrived complete tuples.
        outcomes: List[QueryOutcome] = []
        for wave in waves:
            arrived: List[FullTupleRecord] = []
            finish = wave.finish_1a
            if wave.error is None:
                try:
                    arrived, finish = engine._final_phase(
                        wave.context, wave.fmt, wave.states, wave.details
                    )
                except Exception as exc:
                    wave.error = BrokerError(
                        f"final phase failed: {exc}", cause=exc
                    )
            energy, tx = take_delta()
            wave.energy_j += energy
            wave.tx_packets += tx
            duration = 3 * tree.height * constants.DEFAULT_LEVEL_SLOT_S + finish
            completed = start + duration
            for request in wave.requests:
                if wave.error is not None:
                    error: Optional[BrokerError] = BrokerError(
                        str(wave.error),
                        query_id=request.query_id,
                        cause=wave.error.cause,
                    )
                    result = _empty_result(request.query)
                else:
                    try:
                        result = evaluate_records(request.query, wave.fmt, arrived)
                        error = None
                    except Exception as exc:
                        error = BrokerError(
                            f"evaluation failed for query {request.query_id}: {exc}",
                            query_id=request.query_id,
                            cause=exc,
                        )
                        result = _empty_result(request.query)
                outcomes.append(
                    QueryOutcome(
                        request=request,
                        result=result,
                        admitted_s=start,
                        completed_s=completed,
                        latency_s=completed - request.arrival_s,
                        energy_share_j=wave.energy_j / len(wave.requests)
                        + shared_share,
                        tx_share_packets=wave.tx_packets / len(wave.requests)
                        + shared_tx,
                        group_size=len(wave.requests),
                        batch_index=batch_index,
                        status="completed" if error is None else "degraded",
                        recall=1.0 if error is None else 0.0,
                        error=error,
                    )
                )
        outcomes.sort(key=lambda o: o.request.query_id)
        stats = {
            "share_groups": float(len(waves)),
            "composed_filters": float(
                sum(1 for wave in waves if len(wave.requests) > 1)
            ),
            "piggybacked_broadcasts": float(piggybacked),
        }
        return outcomes, stats

    def _disseminate_filters(
        self, engine: SensJoin, waves: List[_GroupWave], start_time: float
    ) -> int:
        """Phase 1b for the batch: one SensJoin filter wave over every group.

        Each group's composed filter sits in its base-station state.
        Returns how many broadcasts carried more than one group's filter.
        """
        groups = [(wave.fmt, wave.states, wave.details) for wave in waves]
        _, piggybacked = engine._filter_phase(waves[0].context, groups, start_time)
        return piggybacked

    # -- churn-resilient execution ladder ------------------------------------

    def _execute_batch_resilient(
        self, batch: List[QueryRequest], start: float, batch_index: int
    ) -> Tuple[List[QueryOutcome], Dict[str, float]]:
        """The degradation ladder for one batch under churn.

        Rung 1: shared execution, retried with seeded exponential backoff
        while epochs are disrupted (a churn fault landed mid-epoch, or the
        deadline's simulated-time budget was blown).  Rung 2: the share group
        splits — members re-execute independently, each getting at most one
        extra re-run if churn races its serial epoch too.  Every admitted
        query terminates with a recall-stamped outcome.
        """
        policy = self.config.deadline or DeadlinePolicy()
        reg = self.telemetry.registry
        self._advance_churn(start)
        share = self.config.share_work and len(batch) > 1
        attempts = 0
        clock = start
        if share:
            backoff = policy.backoff_s
            attempt_start = start
            for attempt in range(policy.max_retries + 1):
                attempts += 1
                try:
                    outcomes, stats = self._execute_batch_shared(
                        batch, attempt_start, batch_index, take_snapshot=False
                    )
                except Exception:
                    # An epoch-level failure outside the per-wave isolation:
                    # the attempt's traffic is sunk cost, drop to the split
                    # rung (a deterministic protocol error would only repeat
                    # under retry).
                    self._absorb_aborted_epoch()
                    clock = attempt_start
                    break
                epoch_end = max(o.completed_s for o in outcomes)
                timed_out = (
                    policy.timeout_s is not None
                    and epoch_end - attempt_start > policy.timeout_s
                )
                if not timed_out and not self._churn_between(
                    attempt_start, epoch_end
                ):
                    for outcome in outcomes:
                        outcome.attempts = attempts
                        self._finalize_outcome(outcome)
                    return outcomes, stats
                self._absorb_aborted_epoch()
                clock = epoch_end
                if attempt == policy.max_retries:
                    break
                delay = backoff * (1.0 + self._backoff_rng.random() * 0.5)
                if self._sampler is not None:
                    self._retry_window.observe(epoch_end, 1.0)
                    if timed_out:
                        self._miss_window.observe(epoch_end, 1.0)
                self.tracer.emit(
                    epoch_end, BASE_STATION_ID, BROKER_RETRY,
                    batch=batch_index, attempt=attempt + 1,
                    delay_s=round(delay, 6), timed_out=timed_out,
                )
                if reg.enabled:
                    reg.counter("broker_retries_total").inc()
                attempt_start = epoch_end + delay
                backoff *= policy.backoff_factor
                self._advance_churn(attempt_start)
            self.tracer.emit(
                clock, BASE_STATION_ID, BROKER_GROUP_SPLIT,
                batch=batch_index, size=len(batch),
            )
            if reg.enabled:
                reg.counter("broker_group_splits_total").inc()
        outcomes = self._execute_split(batch, clock, batch_index, attempts)
        stats = {
            "share_groups": float(len(batch)),
            "composed_filters": 0.0,
            "piggybacked_broadcasts": 0.0,
        }
        return outcomes, stats

    def _execute_split(
        self,
        batch: List[QueryRequest],
        start: float,
        batch_index: int,
        prior_attempts: int,
    ) -> List[QueryOutcome]:
        """Members run independently; one disrupted run earns one re-run.

        The final rung of the ladder is bounded: a member whose serial epoch
        races a churn fault is re-executed once over the healed topology and
        that result is accepted as-is (its recall says how partial it is).
        """
        outcomes = []
        clock = start
        for request in batch:
            self._advance_churn(clock)
            attempts = prior_attempts + 1
            result, response_s, energy, tx, error = self._run_single_guarded(
                request
            )
            completed = clock + response_s
            if error is None and self._churn_between(clock, completed):
                self._absorb_aborted_epoch()
                self._advance_churn(completed)
                attempts += 1
                result, response_s, energy, tx, error = (
                    self._run_single_guarded(request)
                )
                completed = completed + response_s
            outcome = QueryOutcome(
                request=request,
                result=result,
                admitted_s=start,
                completed_s=completed,
                latency_s=completed - request.arrival_s,
                energy_share_j=energy,
                tx_share_packets=tx,
                group_size=1,
                batch_index=batch_index,
                attempts=attempts,
                error=error,
            )
            self._finalize_outcome(outcome)
            outcomes.append(outcome)
            clock = completed
        return outcomes

    def _run_single_guarded(
        self, request: QueryRequest
    ) -> Tuple[JoinResult, float, float, float, Optional[BrokerError]]:
        """One query on the current (possibly churned) topology.

        Mirrors :func:`~repro.joins.runner.run_snapshot` minus the snapshot
        (readings stay pre-churn, see :meth:`run`) and never raises: an
        engine exception comes back as a typed
        :class:`~repro.errors.BrokerError` with an empty result.  Returns
        ``(result, response_time_s, energy_j, tx_packets, error)``.
        """
        network = self.network
        self._reset_accounting()
        telemetry = self.telemetry if self.telemetry.enabled else None
        try:
            algo = make_algorithm(self.config.engine)
            if telemetry is not None:
                algo.instrument(telemetry)
            with instrumented(network, telemetry):
                if self.config.disseminate_queries:
                    flood_query(network, len(request.query.sql().encode()))
                context = ExecutionContext(
                    network=network, tree=self.tree,
                    world=self.world, query=request.query,
                )
                join_outcome = algo.execute(context)
        except Exception as exc:
            error = BrokerError(
                f"engine failed for query {request.query_id}: {exc}",
                query_id=request.query_id,
                cause=exc,
            )
            return (
                _empty_result(request.query),
                0.0,
                network.total_energy(),
                float(network.stats.total_tx_packets()),
                error,
            )
        return (
            join_outcome.result,
            join_outcome.response_time_s,
            network.total_energy(),
            float(join_outcome.total_transmissions),
            None,
        )

    # -- churn replay and bookkeeping ----------------------------------------

    def _advance_churn(self, now: float) -> None:
        """Apply every scheduled fault due by ``now``, then heal the tree."""
        applied = False
        while (
            self._churn_index < len(self._churn_faults)
            and self._churn_faults[self._churn_index].time_s <= now
        ):
            self._apply_churn_fault(self._churn_faults[self._churn_index])
            self._churn_index += 1
            applied = True
        if applied:
            self._heal_tree(now)

    def _apply_churn_fault(self, fault: Fault) -> None:
        """One fault onto the live topology; mirrors ``FaultInjector._apply``."""
        if fault.kind == NODE_CRASH:
            node = self.network.nodes.get(fault.node_a)
            if node is not None and node.alive:
                self.network.fail_node(fault.node_a)
        elif fault.kind == LINK_DROP:
            self.network.fail_link(fault.node_a, fault.node_b)
        elif fault.kind == NODE_REJOIN:
            self.network.revive_node(fault.node_a, fault.x, fault.y)
        else:  # NODE_MOVE; LOSS_BURST was rejected at construction
            self.network.move_node(fault.node_a, fault.x, fault.y)
        reg = self.telemetry.registry
        if reg.enabled:
            reg.counter("faults_injected_total", kind=fault.kind).inc()
        detail = {
            "fault": fault.kind,
            "node_b": fault.node_b,
            "duration_s": fault.duration_s,
            "loss_rate": fault.loss_rate,
        }
        if fault.kind in (NODE_REJOIN, NODE_MOVE):
            detail["x"] = fault.x
            detail["y"] = fault.y
        self.tracer.emit(fault.time_s, fault.node_a, FAULT_INJECT, **detail)

    def _heal_tree(self, now: float) -> None:
        """Localized re-attach over the churned topology, cost in the ledger.

        The beacon deltas are banked immediately: the next epoch's
        ``reset_accounting`` wipes the ledgers, so repair cost lives in the
        broker's own accumulators and is added to the report total.
        """
        network = self.network
        energy_before = network.total_energy()
        tx_before = float(network.stats.total_tx_packets())
        heal = reattach_tree(
            network, self.tree, seed=self.tree_seed,
            tracer=self.tracer, time_s=now,
        )
        self.tree = heal.tree
        self._repairs += 1
        self._repair_beacons += heal.beacons
        self._orphaned_nodes += len(heal.orphaned)
        self._repair_energy_j += network.total_energy() - energy_before
        self._repair_tx_packets += (
            float(network.stats.total_tx_packets()) - tx_before
        )

    def _churn_between(self, start_s: float, end_s: float) -> bool:
        """Is any not-yet-applied fault due in ``(start_s, end_s]``?"""
        for fault in self._churn_faults[self._churn_index:]:
            if fault.time_s > end_s:
                return False
            if fault.time_s > start_s:
                return True
        return False

    def _absorb_aborted_epoch(self) -> None:
        """Bank the cost of a disrupted epoch whose results were discarded."""
        self._aborted_energy_j += self.network.total_energy()
        self._aborted_tx_packets += float(self.network.stats.total_tx_packets())

    def _finalize_outcome(self, outcome: QueryOutcome) -> None:
        """Stamp terminal status and recall against the pre-churn oracle."""
        if outcome.status == "shed":
            return
        if outcome.error is not None:
            outcome.status = "degraded"
            outcome.recall = 0.0
            return
        oracle_set, oracle_count = self._oracles[outcome.request.query.sql()]
        if oracle_count == 0:
            outcome.recall = 1.0
        else:
            delivered = set(outcome.result.combinations) & oracle_set
            outcome.recall = len(delivered) / oracle_count
        outcome.status = (
            "completed"
            if outcome.recall >= 1.0 - _RECALL_EPSILON
            else "degraded"
        )

    def _shed_outcome(
        self, request: QueryRequest, start: float, batch_index: int
    ) -> QueryOutcome:
        """Terminal record for a request dropped at admission."""
        return QueryOutcome(
            request=request,
            result=_empty_result(request.query),
            admitted_s=start,
            completed_s=start,
            latency_s=start - request.arrival_s,
            energy_share_j=0.0,
            tx_share_packets=0.0,
            group_size=0,
            batch_index=batch_index,
            status="shed",
            recall=0.0,
            attempts=0,
        )


def _empty_result(query: JoinQuery) -> JoinResult:
    """The zero-match result shape for degraded and shed outcomes."""
    return JoinResult.from_lists(tuple(query.aliases), [], [])

