"""Distributed building blocks: BFS, Bellman-Ford, trees, transport."""

from repro.primitives.bellman_ford import BellmanFordCollectionMachine
from repro.primitives.bfs import (
    BFSCollectionMachine,
    BFSMachine,
    aggregate_keyed_min,
)
from repro.primitives.global_tree import GlobalTree, build_global_tree, disseminate
from repro.primitives.luby import LubyMISMachine
from repro.primitives.transport import (
    Delivery,
    Packet,
    path_from_root,
    path_to_root,
    route_downcast,
    route_packets,
    route_phases,
    route_upcast,
    tree_depths,
)

__all__ = [
    "BFSCollectionMachine", "BFSMachine", "BellmanFordCollectionMachine",
    "Delivery", "GlobalTree", "LubyMISMachine", "Packet",
    "aggregate_keyed_min", "build_global_tree", "disseminate",
    "path_from_root", "path_to_root", "route_downcast", "route_packets",
    "route_phases", "route_upcast", "tree_depths",
]
