"""Theorem 3.9: the general trade-off simulation over a pruned hierarchy.

Converts any aggregation-based BCONGEST algorithm A into a CONGEST
execution that, per phase (= one round of A):

* **Indirect send** -- every broadcaster sends (id, message) over its
  incident inter-cluster communication edges F* (one message per F edge
  per phase: the Õ(T_A) non-cluster-edge congestion of the theorem).
* **Direct (aggregate) send** -- every broadcaster upcasts its message
  over every cluster tree it belongs to; each center computes, for every
  outside node u with an F* edge into the cluster and a neighbor inside,
  the aggregate of the messages of u's in-cluster broadcasting neighbors
  (Õ(1) bits by Definition 3.1), downcasts it to the F-edge endpoint,
  which forwards it over the F edge.
* **Receive** -- nodes that received indirect messages upcast them to
  their cluster centers; each center aggregates, per member, the
  messages originating from the member's broadcasting neighbors and
  downcasts one packet per member.
* **Compute** -- every node feeds the union of packet contents (plus a
  locally-computed aggregate of its own indirect receipts: its level-0
  singleton cluster) to its machine, which is exact because the
  aggregation is idempotent (see :mod:`repro.core.aggregation` and the
  remark in Lemma 3.14's proof about non-unique packets).

Every hop is metered; cluster-edge vs. non-cluster-edge congestion is
reported separately so tests and benchmark E3/E6 can check Lemmas 3.12,
3.15, and 3.8.  Output equivalence with the direct BCONGEST execution
(Lemma 3.14) is asserted byte-for-byte in ``tests/test_tradeoff_sim.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple

from repro.congest.machine import MachineFactory, MachineSet
from repro.congest.metrics import Metrics
from repro.core.aggregation import get_aggregator
from repro.decomposition.baswana_sen import BaswanaSenHierarchy, _one_shot
from repro.graphs.graph import EdgeKey, Graph
from repro.primitives.transport import (
    Packet,
    path_from_root,
    path_to_root,
    route_packets,
    route_upcast,
)


@dataclass
class ClusterView:
    """What a cluster center knows after preprocessing (§3.2.1 step 2)."""

    level: int
    center: int
    members: List[int]
    member_set: Set[int] = field(default_factory=set)
    # u_outside -> the in-cluster endpoint w of u's F* edge into this
    # cluster (one per outside node by construction).
    incoming_f: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.member_set = set(self.members)


@dataclass
class TradeoffReport:
    """Measured quantities of Theorem 3.9 / 3.10."""

    outputs: Dict[int, Any]
    total: Metrics
    preprocessing: Metrics
    simulation: Metrics
    phases: int
    broadcasts_simulated: int
    cluster_edge_congestion: int
    non_cluster_edge_congestion: int
    mode: str = "general"


def _congestion_split(metrics: Metrics, cluster_edges: Set[EdgeKey],
                      ) -> Tuple[int, int]:
    on_cluster = 0
    off_cluster = 0
    for edge, count in metrics.edge_congestion.items():
        if edge in cluster_edges:
            on_cluster = max(on_cluster, count)
        else:
            off_cluster = max(off_cluster, count)
    return on_cluster, off_cluster


def build_cluster_views(graph: Graph, hierarchy: BaswanaSenHierarchy,
                        ) -> Tuple[Dict[Tuple[int, int], ClusterView],
                                   Dict[int, List[Tuple[int, int]]],
                                   Dict[int, Set[int]]]:
    """Derive the local knowledge structures from the hierarchy.

    Returns (views, clusters_of_node, incident_f):
    * views[(level, center)] -- the ClusterView of each cluster;
    * clusters_of_node[v] -- the (level, center) keys of clusters v is in
      (levels >= 1; the level-0 singleton is handled locally);
    * incident_f[v] -- neighbors connected to v by an F* edge of either
      orientation.
    """
    views: Dict[Tuple[int, int], ClusterView] = {}
    clusters_of_node: Dict[int, List[Tuple[int, int]]] = {
        v: [] for v in graph.nodes()}
    for level in hierarchy.levels:
        if level.index == 0 or not level.cluster_of:
            continue
        for center, members in level.members().items():
            views[(level.index, center)] = ClusterView(
                level=level.index, center=center, members=members)
        for v, c in level.cluster_of.items():
            clusters_of_node[v].append((level.index, c))
    incident_f: Dict[int, Set[int]] = {v: set() for v in graph.nodes()}
    for level in hierarchy.levels:
        if not level.f_edges:
            continue
        prev = hierarchy.levels[level.index - 1]
        for (u, w) in level.f_edges:
            incident_f[u].add(w)
            incident_f[w].add(u)
            key = (level.index - 1, prev.cluster_of.get(w))
            view = views.get(key)
            if view is not None and u not in view.member_set:
                if u not in view.incoming_f:
                    view.incoming_f[u] = w
    return views, clusters_of_node, incident_f


def preprocess_gather(graph: Graph, hierarchy: BaswanaSenHierarchy,
                      ) -> Metrics:
    """§3.2.1 preprocessing step 2, metered: per level, every member
    upcasts its 1-hop neighborhood (one O(1)-word item per incident
    edge, with hierarchy annotations) to its cluster center."""
    metrics = Metrics()
    for level in hierarchy.levels:
        if level.index == 0 or not level.cluster_of:
            continue
        # One (v, u) item per incident edge: 3 words with the destination.
        routes = [(path_to_root(level.parent, v), graph.degree(v), 3)
                  for v, c in level.cluster_of.items() if v != c]
        if routes:
            metrics.merge(route_upcast(graph, routes))
    return metrics


def simulate_aggregation(graph: Graph, hierarchy: BaswanaSenHierarchy,
                         factory: MachineFactory, *,
                         seed: int = 0, message_words: int = 64,
                         max_phases: int = 200_000) -> TradeoffReport:
    """Run the Theorem 3.9 simulation of ``factory`` over ``hierarchy``.

    ``preprocessing`` meters the gather step only: the leader's global
    tree of §3.2.1 is built by the driver, which needs it first for the
    shared randomness (:func:`repro.core.bfs_collections.disseminate_delays`).
    """
    total = Metrics()
    total.merge(preprocess_gather(graph, hierarchy))
    preprocessing = total.snapshot()

    views, clusters_of_node, incident_f = build_cluster_views(
        graph, hierarchy)
    machines = MachineSet(graph, factory, seed=seed,
                          message_words=message_words)
    # Definition 3.1's aggregation; an empty graph never delivers.
    first = next(iter(machines.machines.values()), None)
    aggregate = get_aggregator(first) if first is not None else None

    neighbors = {v: set(graph.neighbors(v)) for v in graph.nodes()}
    up_paths: Dict[Tuple[int, int, int], Tuple[int, ...]] = {}
    down_paths: Dict[Tuple[int, int, int], Tuple[int, ...]] = {}
    for level in hierarchy.levels:
        if level.index == 0:
            continue
        for v in level.cluster_of:
            up_paths[(level.index, level.cluster_of[v], v)] = \
                path_to_root(level.parent, v)
            down_paths[(level.index, level.cluster_of[v], v)] = \
                path_from_root(level.parent, v)

    transport_limit = message_words + 4

    def deliver(_phase: int, broadcasters: Dict[int, Any],
                ) -> Dict[int, List[Tuple[int, Any]]]:
        """One phase's sends; the inboxes feed the next compute step."""
        inboxes: Dict[int, List[Tuple[int, Any]]] = {}
        # ---- (i) Indirect send over incident F* edges.
        spec: Dict[int, dict] = {}
        for v, payload in broadcasters.items():
            sends = [(u, ("i", v, payload)) for u in sorted(incident_f[v])]
            if sends:
                spec[v] = {"sends": sends}
        indirect_received: Dict[int, Dict[int, Any]] = {
            v: {} for v in graph.nodes()}
        if spec:
            heard, m = _one_shot(graph, spec, bcast_only=False,
                                 word_limit=transport_limit)
            total.merge(m)
            for v in graph.nodes():
                for _src, (_t, origin, payload) in heard[v]:
                    indirect_received[v][origin] = payload

        # ---- (ii)+(receive) upcasts over all cluster trees.
        packets: List[Packet] = []
        for v, payload in broadcasters.items():
            for key in clusters_of_node[v]:
                path = up_paths[(key[0], key[1], v)]
                if len(path) > 1:
                    packets.append(Packet(
                        path=path, payload=("b", v, payload), tag=key))
        for v, received in indirect_received.items():
            if not received:
                continue
            for key in clusters_of_node[v]:
                path = up_paths[(key[0], key[1], v)]
                for origin, payload in sorted(received.items()):
                    if len(path) > 1:
                        packets.append(Packet(
                            path=path, payload=("r", origin, payload),
                            tag=key))
        center_known: Dict[Tuple[int, int], Dict[int, Any]] = {}
        if packets:
            deliveries, m = route_packets(graph, packets,
                                          word_limit=transport_limit)
            total.merge(m)
            for d in deliveries:
                _t, origin, payload = d.payload
                center_known.setdefault(d.tag, {})[origin] = payload
        # Items held by the center itself never leave the node.
        for key, view in views.items():
            known = center_known.setdefault(key, {})
            c = view.center
            if c in broadcasters:
                known[c] = broadcasters[c]
            for origin, payload in indirect_received[c].items():
                known[origin] = payload

        # ---- Center-local aggregation; downcast (+ F hop) packets.
        down: List[Packet] = []
        for key, view in views.items():
            known = center_known.get(key, {})
            if not known:
                continue
            level, center = key
            # Receive step: one aggregate packet per member.
            for u in view.members:
                relevant = [(src, known[src]) for src in known
                            if src in neighbors[u]]
                if not relevant:
                    continue
                agg = aggregate(sorted(relevant, key=lambda t: t[0]))
                if u == center:
                    inboxes.setdefault(u, []).extend(agg)
                    continue
                path = down_paths[(level, center, u)]
                down.append(Packet(path=path,
                                   payload=("agg", tuple(agg))))
            # Direct send: one aggregate packet per outside node in
            # R(C), restricted to in-cluster broadcasters.
            for u, w in sorted(view.incoming_f.items()):
                relevant = [(src, known[src]) for src in known
                            if src in neighbors[u]
                            and src in view.member_set
                            and src in broadcasters]
                if not relevant:
                    continue
                agg = aggregate(sorted(relevant, key=lambda t: t[0]))
                path = down_paths[(level, center, w)] + (u,)
                down.append(Packet(path=path,
                                   payload=("agg", tuple(agg))))
        if down:
            deliveries, m = route_packets(graph, down,
                                          word_limit=transport_limit)
            total.merge(m)
            for d in deliveries:
                inboxes.setdefault(d.dest, []).extend(d.payload[1])

        # ---- Level-0 singleton clusters: local aggregation of the
        # node's own indirect receipts.
        for v, received in indirect_received.items():
            relevant = [(src, payload) for src, payload
                        in sorted(received.items())
                        if src in neighbors[v]]
            if relevant:
                inboxes.setdefault(v, []).extend(aggregate(relevant))
        return inboxes

    phases = machines.drive(deliver, max_phases, "simulate_aggregation")

    simulation = total.delta_since(preprocessing)
    cluster_edges = hierarchy.cluster_edges()
    on_c, off_c = _congestion_split(simulation, cluster_edges)
    return TradeoffReport(
        outputs=machines.outputs(),
        total=total,
        preprocessing=preprocessing,
        simulation=simulation,
        phases=phases,
        broadcasts_simulated=machines.broadcasts,
        cluster_edge_congestion=on_c,
        non_cluster_edge_congestion=off_c,
        mode="general",
    )
