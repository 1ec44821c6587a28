"""Low Diameter and Communication (LDC) decompositions (Definition 2.3).

An (r, d)-LDC decomposition partitions V into clusters of strong diameter
<= r together with a sparse inter-cluster edge set F such that every node
has at most d outgoing F-edges, one into each neighboring cluster.
Lemma 2.4: running MPX and then letting each node keep one edge per
neighboring cluster yields an (O(log n), O(log n))-LDC decomposition in
O(log n) rounds -- at no extra message cost, because the MPX adoption
broadcasts already tell every node its neighbors' clusters.

This module derives the decomposition from a :class:`Clustering` and
provides the verification predicates used by tests and benchmark E1
(which also regenerates the three quantities depicted in the paper's
Figure 1: cluster count, max strong diameter, max F-out-degree).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (Container, Dict, Iterable, List, Mapping, Optional, Set,
                    Tuple)

from repro.congest.metrics import Metrics
from repro.decomposition.mpx import Clustering, run_mpx
from repro.graphs.graph import Graph


@dataclass
class LDCDecomposition:
    """An (r, d)-LDC decomposition with its spanning cluster trees."""

    clustering: Clustering
    # Directed inter-cluster communication edges: v -> representative
    # neighbor, one per cluster neighboring v (Definition 2.3, second
    # condition).
    out_edges: Dict[int, List[Tuple[int, int]]]  # v -> [(v, u), ...]
    metrics: Metrics

    @property
    def center_of(self) -> Dict[int, int]:
        return self.clustering.center_of

    @property
    def parent(self) -> Dict[int, Optional[int]]:
        return self.clustering.parent

    def members(self) -> Dict[int, List[int]]:
        return self.clustering.members()

    def f_edges(self) -> Set[Tuple[int, int]]:
        """All directed F edges."""
        return {e for edges in self.out_edges.values() for e in edges}

    def max_out_degree(self) -> int:
        """The d of the (r, d) guarantee, as realized."""
        if not self.out_edges:
            return 0
        return max(len(edges) for edges in self.out_edges.values())


def hop_distances(adj: Mapping[int, Iterable[int]], root: int,
                  members: Optional[Container[int]] = None) -> Dict[int, int]:
    """Hop distances from ``root`` over ``adj``, inside ``members`` if given.

    The one BFS of the LDC verifiers: the strong diameter (the induced
    subgraph of a cluster), the padded cover's radius and the spanner's
    stretch (the spanner's own adjacency).
    """
    dist = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist and (members is None or w in members):
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def strong_diameter(graph: Graph, clusters: Iterable[Iterable[int]]) -> int:
    """The largest hop diameter of a cluster's induced subgraph.

    One BFS per member: a cluster's diameter is its members' largest
    eccentricity.  Raises AssertionError if a cluster is disconnected.
    """
    worst = 0
    for cluster in clusters:
        members = set(cluster)
        for u in members:
            dist = hop_distances(graph.adj, u, members)
            if len(dist) != len(members):
                raise AssertionError(
                    "cluster not connected in induced subgraph")
            worst = max(worst, max(dist.values()))
    return worst


def definition_violation(graph: Graph, center_of: Mapping[int, int],
                         out_edges: Mapping[int, List[Tuple[int, int]]]
                         ) -> Optional[Tuple[str, str]]:
    """The first Definition 2.3 violation as ``(check, message)``, or None.

    ``check`` is ``"clusters_partition_v"`` or
    ``"f_edges_cover_neighboring_clusters"``: the clusters must
    partition V, and for every node v each cluster holding a neighbor
    of v must receive one of v's F-edges, each a graph edge leaving
    v's cluster.  (The strong diameter is :func:`strong_diameter`.)
    """
    if set(center_of) != set(graph.nodes()):
        return "clusters_partition_v", "clusters must partition V"
    f_check = "f_edges_cover_neighboring_clusters"
    for v, edges in out_edges.items():
        covered = {center_of[u] for (_v, u) in edges}
        needed = {center_of[u] for u in graph.neighbors(v)
                  if center_of[u] != center_of[v]}
        if not needed <= covered:
            return f_check, (
                f"node {v} misses F-edges into clusters {needed - covered}")
        for (_v, u) in edges:
            if u not in graph.neighbors(v):
                return f_check, "F edge must be a graph edge"
            if center_of[u] == center_of[v]:
                return f_check, "F edge must leave cluster"
    return None


def build_ldc(graph: Graph, *, beta: float = 0.5,
              seed: int = 0) -> LDCDecomposition:
    """Lemma 2.4: MPX + one representative edge per neighboring cluster."""
    clustering = run_mpx(graph, beta=beta, seed=seed)
    out_edges: Dict[int, List[Tuple[int, int]]] = {}
    for v in graph.nodes():
        own = clustering.center_of[v]
        edges = []
        for center, representative in sorted(
                clustering.neighbor_clusters[v].items()):
            if center != own:
                edges.append((v, representative))
        out_edges[v] = edges
    return LDCDecomposition(clustering=clustering, out_edges=out_edges,
                            metrics=clustering.metrics)


def verify_ldc(graph: Graph, ldc: LDCDecomposition) -> Dict[str, int]:
    """Check Definition 2.3 exhaustively; return the realized (r, d).

    Raises AssertionError on any violation:
    * clusters partition V and are connected with bounded strong diameter;
    * for every node v and every cluster containing a neighbor of v,
      some outgoing F-edge of v lands in that cluster.
    """
    violation = definition_violation(graph, ldc.center_of, ldc.out_edges)
    if violation is not None:
        raise AssertionError(violation[1])
    r = strong_diameter(graph, ldc.members().values())
    d = ldc.max_out_degree()
    return {"r": r, "d": d, "clusters": ldc.clustering.num_clusters}
