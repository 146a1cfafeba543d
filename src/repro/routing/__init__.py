"""Routing substrate: collection tree (CTP-style), beaconing, flooding."""

from .beacons import BeaconConfig, BeaconProtocol
from .ctp import RepairReport, build_tree, repair_tree
from .dissemination import QUERY_DISSEMINATION_PHASE, flood_query
from .tree import RoutingTree

__all__ = [
    "BeaconConfig",
    "BeaconProtocol",
    "QUERY_DISSEMINATION_PHASE",
    "RepairReport",
    "RoutingTree",
    "build_tree",
    "flood_query",
    "repair_tree",
]
