"""Per-layer spans for the benchmark's traced run.

The program carries no host-time tracing of its own, so the traced run wraps
the public entry points of each ``repro`` layer from outside.  A wrapper
opens a span on entry and closes it on exit; spans nest on one stack, so a
span's *self* time is its duration minus the durations of the spans opened
inside it.  The self time of an entry-point span (one opened with no span
open, such as ``run_snapshot`` around a timed query) is charged to no layer:
it is kept as :attr:`Tracer.unattributed_s`, so code that no wrapper covers
shows up there instead of in a layer.  Spans are folded into per-group
aggregates as they close: the broker run alone closes several hundred
thousand, and only their sums are reported.

Several modules import functions by name (``from ..query.evaluate import
evaluate_join``), which copies the function object into their globals.
Patching only the defining module would miss those call sites, so
:func:`traced` replaces *every* module global in ``sys.modules`` that is the
wrapped function object, and puts each one back on exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "TRACED", "SpanStats", "Tracer", "traced"]

#: The ``repro`` packages the benchmark attributes time to.
LAYERS = ("sim", "data", "routing", "codec", "query", "joins", "service")


def _radio_bytes(stats: "SpanStats", args, kwargs, packets) -> None:
    # Channel.unicast/broadcast(self, sender, receiver(s), payload_bytes, phase)
    if packets:
        stats.counts["tx_bytes"] += kwargs.get("payload_bytes", args[3] if len(args) > 3 else 0)


def _eval_sizes(stats: "SpanStats", args, kwargs, result) -> None:
    # evaluate_join(query, tuples_by_alias, ...): candidates = the cross
    # product the exact join starts from, matches = what survives it.
    query = kwargs.get("query", args[0] if args else None)
    tuples = kwargs.get("tuples_by_alias", args[1] if len(args) > 1 else {})
    candidates = 1
    for alias in query.aliases:
        candidates *= len(tuples.get(alias, ()))
    stats.counts["candidates"] += candidates
    stats.counts["matches"] += result.match_count


#: (span group, defining module, attribute, observer, track peak memory).
#: The group's prefix is the layer the span's self time is charged to.
#: ``Process._resume`` runs a DES process body (the protocol's per-node
#: code in ``joins/des_sensjoin.py``) and is charged to ``joins``, so that
#: ``sim.kernel`` keeps only the event loop itself; ``sim.run`` is the
#: loop's tight drain, which fires events without ``Environment.step``.  The
#: engines' ``execute`` and the SENS-Join phase methods, which the broker
#: calls directly, are wrapped so that only the entry points' own lines stay
#: unattributed; the broker's batch executors and piggybacked filter
#: dissemination are its own code, not ``joins``' or ``routing``'s.
TRACED: Tuple[Tuple[str, str, str, Optional[Callable], bool], ...] = (
    ("sim.deploy", "repro.sim.network", "deploy_uniform", None, False),
    ("sim.kernel", "repro.sim.kernel", "Environment.step", None, False),
    ("sim.run", "repro.sim.kernel", "Environment.run", None, False),
    ("sim.accounting", "repro.sim.network", "Network.reset_accounting", None, False),
    ("sim.radio", "repro.sim.radio", "Channel.unicast", _radio_bytes, False),
    ("sim.radio", "repro.sim.radio", "Channel.broadcast", _radio_bytes, False),
    ("data.world", "repro.data.relations", "SensorWorld.homogeneous", None, False),
    ("data.snapshot", "repro.data.relations", "SensorWorld.take_snapshot", None, False),
    ("routing.tree", "repro.routing.ctp", "build_tree", None, False),
    ("routing.dissemination", "repro.routing.dissemination", "flood_query", None, False),
    ("routing.dissemination", "repro.routing.dissemination", "flood_batch", None, False),
    ("codec.size", "repro.codec.quadtree", "QuadtreeCodec.encoded_size_bits", None, False),
    ("codec.encode", "repro.codec.quadtree", "QuadtreeCodec.encode", None, False),
    ("codec.setops", "repro.codec.setops", "union_points", None, False),
    ("codec.setops", "repro.codec.setops", "intersect_points", None, False),
    ("codec.quantize", "repro.codec.quantize", "Quantizer.encode", None, False),
    ("codec.quantize", "repro.codec.quantize", "Quantizer.cell_bounds", None, False),
    ("query.eval", "repro.query.evaluate", "evaluate_join", _eval_sizes, True),
    ("query.semijoin", "repro.query.evaluate", "conservative_semijoin", None, False),
    ("joins.snapshot", "repro.joins.runner", "run_snapshot", None, False),
    ("joins.engine", "repro.joins.sensjoin", "SensJoin.execute", None, False),
    ("joins.engine", "repro.joins.des_sensjoin", "DesSensJoin.execute", None, False),
    ("joins.phase", "repro.joins.sensjoin", "SensJoin._collection_phase", None, False),
    ("joins.phase", "repro.joins.sensjoin", "SensJoin._filter_phase", None, False),
    ("joins.phase", "repro.joins.sensjoin", "SensJoin._final_phase", None, False),
    ("joins.filter", "repro.joins.filterbuild", "build_join_filter", None, False),
    ("joins.filter", "repro.joins.filterbuild", "compose_filters", None, False),
    ("joins.des_process", "repro.sim.kernel", "Process._resume", None, False),
    ("service.run", "repro.service.broker", "QueryBroker.run", None, False),
    ("service.batch", "repro.service.broker", "QueryBroker._execute_batch_serial", None, False),
    ("service.batch", "repro.service.broker", "QueryBroker._execute_batch_shared", None, False),
    ("service.dissemination", "repro.service.broker", "QueryBroker._disseminate_filters", None, False),
)


@dataclass
class SpanStats:
    """Aggregate of every closed span of one group."""

    calls: int = 0
    #: Wall time of the outermost spans (a span nested in one of its own
    #: group is not counted twice).
    total_s: float = 0.0
    self_s: float = 0.0
    peak_bytes: int = 0
    counts: Counter = field(default_factory=Counter)
    active: int = 0


class Tracer:
    """A span stack plus the per-group aggregates of the spans it closed."""

    def __init__(self) -> None:
        self.spans: Dict[str, SpanStats] = {}
        #: Self time of the entry-point spans.
        self.unattributed_s = 0.0
        self._children: List[float] = []

    def stats(self, group: str) -> SpanStats:
        """The aggregate for ``group`` (empty if no span of it closed)."""
        return self.spans.get(group, SpanStats())

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer, summed over its span groups' inner spans."""
        totals = {layer: 0.0 for layer in LAYERS}
        for group, stats in self.spans.items():
            totals[group.split(".")[0]] += stats.self_s
        return totals

    def wrap(
        self,
        group: str,
        fn: Callable,
        observe: Optional[Callable] = None,
        track_peak: bool = False,
    ) -> Callable:
        """``fn`` inside a span of ``group``."""
        children = self._children
        clock = time.perf_counter

        def span(*args, **kwargs):
            stats = self.spans.get(group)
            if stats is None:
                stats = self.spans[group] = SpanStats()
            started_tracemalloc = track_peak and not tracemalloc.is_tracing()
            if started_tracemalloc:
                tracemalloc.start()
            stats.active += 1
            entry_point = not children
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.active -= 1
                stats.calls += 1
                own = elapsed - children.pop()
                if entry_point:
                    self.unattributed_s += own
                else:
                    stats.self_s += own
                if not stats.active:
                    stats.total_s += elapsed
                if children:
                    children[-1] += elapsed
                if started_tracemalloc:
                    stats.peak_bytes = max(stats.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if observe is not None:
                observe(stats, args, kwargs, result)
            return result

        return functools.wraps(fn)(span)


def _patch_sites(original) -> Iterator[Tuple[object, str]]:
    """Every ``(module, global name)`` whose value is ``original``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if value is original:
                yield module, name


@contextmanager
def traced(tracer: Tracer) -> Iterator[List[Tuple[object, str, object]]]:
    """Install every :data:`TRACED` wrapper; restore the originals on exit.

    Yields the list of ``(owner, attribute, original)`` patches made.
    """
    patches: List[Tuple[object, str, object]] = []
    try:
        for group, module_name, path, observe, track_peak in TRACED:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(tracer.wrap(group, raw.__func__, observe, track_peak))
                else:
                    replacement = tracer.wrap(group, raw, observe, track_peak)
                setattr(owner, attr, replacement)
                patches.append((owner, attr, raw))
            else:
                original = getattr(module, path)
                replacement = tracer.wrap(group, original, observe, track_peak)
                for owner, name in list(_patch_sites(original)):
                    setattr(owner, name, replacement)
                    patches.append((owner, name, original))
        yield patches
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
