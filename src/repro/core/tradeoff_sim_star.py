"""Theorem 3.10: the improved simulation for eps in [1/2, 1].

For eps >= 1/2 the pruned hierarchy has at most three levels: singletons
(C_0), depth-1 *star clusters* (C_1), and the low-degree set L_1 whose
every incident edge is an inter-cluster communication edge (Lemma 3.16).
The send step is restructured so that each phase needs only Õ(n^{1-eps})
congestion on cluster (star) edges:

* an L_1 broadcaster sends its message over all its incident edges
  (they are all in F_1);
* a star-cluster broadcaster sends its message to its center only.  The
  center then computes, for every neighboring star cluster C', a maximal
  matching M(C, C') between its broadcasters and their neighbors in C',
  and pushes two messages along each matched edge e = (w, u): m1(e), the
  identity and message of w (the *indirect* part, which u's cluster will
  redistribute in the receive step), and m2(e), the aggregate of all
  messages from u's broadcasting neighbors inside C (the *direct* part,
  which u consumes itself).  Maximality is what guarantees coverage: an
  unmatched target u must have all its C-neighbors matched elsewhere in
  u's own cluster, so the receive step serves u (Lemma 3.20's case
  analysis).
* star broadcasters additionally serve their L_1 neighbors over those
  neighbors' F_1 edges (every L_1-incident edge is in F_1), which is the
  delivery path Lemma 3.20 uses for its L_1(u) subset.

The receive and compute steps are identical to the general simulation.
With kappa = 1 (eps = 1) there are no star clusters at all and the
simulation degenerates to direct broadcast -- the round-optimal end of
the trade-off.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.congest.machine import MachineFactory, MachineSet
from repro.congest.metrics import Metrics
from repro.core.aggregation import get_aggregator
from repro.core.tradeoff_sim import TradeoffReport, _congestion_split
from repro.decomposition.baswana_sen import BaswanaSenHierarchy, _one_shot
from repro.graphs.graph import Graph
from repro.primitives.transport import Packet, route_packets, route_upcast


def _greedy_maximal_matching(pairs: List[Tuple[int, int]],
                             ) -> List[Tuple[int, int]]:
    """Deterministic greedy maximal matching on an edge list."""
    matched: Set[int] = set()
    out = []
    for w, u in sorted(pairs):
        if w not in matched and u not in matched:
            matched.add(w)
            matched.add(u)
            out.append((w, u))
    return out


def simulate_aggregation_star(graph: Graph, hierarchy: BaswanaSenHierarchy,
                              factory: MachineFactory, *,
                              seed: int = 0, message_words: int = 64,
                              max_phases: int = 200_000) -> TradeoffReport:
    """Run the Theorem 3.10 simulation (requires kappa <= 2).

    As in :func:`~repro.core.tradeoff_sim.simulate_aggregation`, the driver
    builds the global tree, and ``preprocessing`` is the gather.
    """
    if hierarchy.kappa > 2:
        raise ValueError("star simulation requires eps >= 1/2 (kappa <= 2)")
    total = Metrics()
    # Preprocessing gather: every star member sends its neighborhood to
    # its center (depth-1 upcast), one (v, u) item per incident edge:
    # 3 words with the destination.
    level1 = hierarchy.levels[1] if hierarchy.n_levels > 1 else None
    star_of: Dict[int, int] = dict(level1.cluster_of) if level1 else {}
    stars: Dict[int, List[int]] = level1.members() if level1 else {}
    gather = [((v, c), graph.degree(v), 3)
              for v, c in star_of.items() if v != c]
    if gather:
        total.merge(route_upcast(graph, gather))
    preprocessing = total.snapshot()

    low1: Set[int] = set(level1.low_degree) if level1 else set(graph.nodes())
    f1_incident: Dict[int, Set[int]] = {v: set() for v in graph.nodes()}
    if level1:
        for (u, w) in level1.f_edges:
            f1_incident[u].add(w)
            f1_incident[w].add(u)

    machines = MachineSet(graph, factory, seed=seed,
                          message_words=message_words)
    # Definition 3.1's aggregation; an empty graph never delivers.
    first = next(iter(machines.machines.values()), None)
    aggregate = get_aggregator(first) if first is not None else None
    neighbors = {v: set(graph.neighbors(v)) for v in graph.nodes()}

    transport_limit = message_words + 4

    def deliver(_phase: int, broadcasters: Dict[int, Any],
                ) -> Dict[int, List[Tuple[int, Any]]]:
        """One phase's sends; the inboxes feed the next compute step."""
        inboxes: Dict[int, List[Tuple[int, Any]]] = {}
        indirect_received: Dict[int, Dict[int, Any]] = {
            v: {} for v in graph.nodes()}
        direct_received: Dict[int, List[Tuple[int, Any]]] = {
            v: [] for v in graph.nodes()}

        # ---- Send step (i): broadcasts over F_1-incident edges.
        spec: Dict[int, dict] = {}
        for v, payload in broadcasters.items():
            sends = [(u, ("i", v, payload))
                     for u in sorted(f1_incident[v])]
            if sends:
                spec[v] = {"sends": sends}
        # ---- Send step (ii): star members to their centers.
        for v, payload in broadcasters.items():
            c = star_of.get(v)
            if c is not None and c != v:
                spec.setdefault(v, {"sends": []}).setdefault(
                    "sends", []).append((c, ("u", v, payload)))
        if spec:
            heard, m = _one_shot(graph, spec, bcast_only=False,
                                 word_limit=transport_limit)
            total.merge(m)
            for v in graph.nodes():
                for _src, msg in heard[v]:
                    if msg[0] == "i":
                        indirect_received[v][msg[1]] = msg[2]
        # Center knowledge of member broadcasts (local for the
        # center's own broadcast).
        star_broadcasts: Dict[int, Dict[int, Any]] = {}
        for v, payload in broadcasters.items():
            c = star_of.get(v)
            if c is not None:
                star_broadcasts.setdefault(c, {})[v] = payload

        # ---- Send step (iii): per-neighboring-cluster matchings.
        hop1: List[Packet] = []
        for c, bcasts in sorted(star_broadcasts.items()):
            members = set(stars[c])
            # Group the broadcasters' outside star-neighbors by
            # their cluster.
            by_cluster: Dict[int, List[Tuple[int, int]]] = {}
            for w, _m in sorted(bcasts.items()):
                for u in graph.neighbors(w):
                    cu = star_of.get(u)
                    if cu is not None and cu != c:
                        by_cluster.setdefault(cu, []).append((w, u))
            for _cu, pairs in sorted(by_cluster.items()):
                for w, u in _greedy_maximal_matching(pairs):
                    m1 = ("i", w, bcasts[w])
                    senders = [(x, bcasts[x]) for x in sorted(bcasts)
                               if x in neighbors[u]]
                    m2 = ("agg", tuple(aggregate(senders)))
                    path = (c, w, u) if w != c else (c, u)
                    hop1.append(Packet(path=path, payload=m1))
                    hop1.append(Packet(path=path, payload=m2))
        if hop1:
            deliveries, m = route_packets(graph, hop1,
                                          word_limit=transport_limit)
            total.merge(m)
            for d in deliveries:
                if d.payload[0] == "i":
                    indirect_received[d.dest][d.payload[1]] = \
                        d.payload[2]
                else:
                    direct_received[d.dest].extend(d.payload[1])

        # ---- Receive step: indirect receipts go to the receiver's
        # center (stars) or are aggregated locally (L_1 / centers).
        up: List[Packet] = []
        center_known: Dict[int, Dict[int, Any]] = {
            c: dict(b) for c, b in star_broadcasts.items()}
        for v, received in indirect_received.items():
            c = star_of.get(v)
            if c is None or c == v:
                if c == v:
                    center_known.setdefault(c, {}).update(received)
                continue
            for origin, payload in sorted(received.items()):
                up.append(Packet(path=(v, c),
                                 payload=("r", origin, payload)))
        if up:
            deliveries, m = route_packets(graph, up,
                                          word_limit=transport_limit)
            total.merge(m)
            for d in deliveries:
                center_known.setdefault(d.dest, {})[d.payload[1]] = \
                    d.payload[2]
        down: List[Packet] = []
        for c, known in sorted(center_known.items()):
            for u in stars.get(c, [c]):
                relevant = [(src, known[src]) for src in sorted(known)
                            if src in neighbors[u]]
                if not relevant:
                    continue
                agg = aggregate(relevant)
                if u == c:
                    inboxes.setdefault(u, []).extend(agg)
                else:
                    down.append(Packet(path=(c, u),
                                       payload=("agg", tuple(agg))))
        if down:
            deliveries, m = route_packets(graph, down,
                                          word_limit=transport_limit)
            total.merge(m)
            for d in deliveries:
                inboxes.setdefault(d.dest, []).extend(d.payload[1])

        # ---- Compute inputs: direct receipts and local (L_1)
        # aggregation of indirect receipts.
        for v, received in direct_received.items():
            if received:
                inboxes.setdefault(v, []).extend(received)
        for v, received in indirect_received.items():
            if star_of.get(v) is not None and v != star_of.get(v):
                continue  # served through the center above
            relevant = [(src, payload) for src, payload
                        in sorted(received.items())
                        if src in neighbors[v]]
            if relevant and v not in star_of:
                inboxes.setdefault(v, []).extend(aggregate(relevant))
        return inboxes

    phases = machines.drive(deliver, max_phases, "simulate_aggregation_star")

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
        mode="star",
    )
