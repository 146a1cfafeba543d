"""The external join — the state-of-the-art general-purpose baseline (§VI).

"It sends the complete tuples from the input relations to the base station
where the result is computed."  Despite its simplicity it is the *optimal*
general method when selectivity is low (result larger than input), and the
paper's implementation notes apply here too:

* tuples are **aggregated** (byte-packed) as they move up the routing tree —
  a node forwards its children's payload together with its own tuple in as
  few maximum-size packets as possible;
* **selections and projections happen as early as possible**: a node that
  fails its selection predicates sends nothing of its own, and only the
  attributes the query needs (SELECT ∪ join attributes) are shipped.
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.node import BASE_STATION_ID
from .base import (
    ExecutionContext,
    FullTupleRecord,
    JoinAlgorithm,
    JoinOutcome,
    evaluate_records,
    node_tuple,
)

__all__ = ["ExternalJoin", "EXTERNAL_PHASE"]

EXTERNAL_PHASE = "external-collection"


class ExternalJoin(JoinAlgorithm):
    """Ship every (selected, projected) tuple to the base station."""

    name = "external-join"

    def execute(self, context: ExecutionContext) -> JoinOutcome:
        """One snapshot execution; see the module docstring."""
        network, tree = context.network, context.tree
        fmt = context.tuple_format()
        channel = network.channel

        # Payload accumulated per node (bytes and the actual records), and
        # the critical-path completion time per node.
        carried_bytes: Dict[int, int] = {}
        carried_records: Dict[int, List[FullTupleRecord]] = {}
        finish_time: Dict[int, float] = {}

        for node_id in tree.post_order():
            records: List[FullTupleRecord] = []
            payload = 0
            children_finish = 0.0
            for child in tree.children(node_id):
                payload += carried_bytes.pop(child)
                records.extend(carried_records.pop(child))
                children_finish = max(children_finish, finish_time[child])
            record, _flags = node_tuple(fmt, node_id)
            if record is not None:
                records.append(record)
                payload += fmt.full_tuple_bytes
            if node_id == BASE_STATION_ID:
                carried_bytes[node_id] = payload
                carried_records[node_id] = records
                finish_time[node_id] = children_finish
                continue
            channel.unicast(node_id, tree.parent(node_id), payload, EXTERNAL_PHASE)
            carried_bytes[node_id] = payload
            carried_records[node_id] = records
            finish_time[node_id] = children_finish + channel.last_send_latency_s

        arrived = carried_records[BASE_STATION_ID]
        result = evaluate_records(context.query, fmt, arrived)

        # One epoch-scheduled collection pass (TAG-style level slots) plus
        # the serialisation overflow along the critical path.
        from .. import constants

        phase_overhead = tree.height * constants.DEFAULT_LEVEL_SLOT_S
        return JoinOutcome(
            algorithm=self.name,
            result=result,
            stats=network.stats,
            response_time_s=phase_overhead + finish_time[BASE_STATION_ID],
            details={
                "tuples_shipped": float(len(arrived)),
                "bytes_shipped": float(carried_bytes[BASE_STATION_ID]),
            },
        )
