"""Sequential ground-truth oracles.

Every distributed result in this repository is checked against a plain
sequential computation: BFS / Dijkstra / Bellman-Ford shortest paths,
Floyd-Warshall APSP, and Hopcroft-Karp maximum bipartite matching.
These implementations are deliberately simple and independent of the
distributed code paths.

The APSP oracles of :mod:`repro.baselines.oracles` serve their matrices
from :func:`floyd_warshall`, one numpy relaxation per intermediate
node.  The pure-Python per-source :func:`unweighted_apsp` and
:func:`weighted_apsp` stay as the reference the tests pin it to (and
as the weighted oracle's path for weights outside float64's exact
range); tests additionally cross-check them against networkx and scipy.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.graphs.graph import Graph

INF = float("inf")


def bfs_distances(g: Graph, source: int,
                  max_depth: Optional[int] = None) -> Dict[int, int]:
    """Hop distances from ``source`` (optionally capped at ``max_depth``)."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if max_depth is not None and dist[u] >= max_depth:
            continue
        for v in g.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def unweighted_apsp(g: Graph) -> List[List[float]]:
    """n x BFS; entry [u][v] is the hop distance (inf if unreachable)."""
    out = []
    for u in g.nodes():
        dist = bfs_distances(g, u)
        out.append([dist.get(v, INF) for v in g.nodes()])
    return out


def dijkstra(g: Graph, source: int) -> Dict[int, float]:
    """Non-negative weighted SSSP from ``source`` (directed weights)."""
    dist: Dict[int, float] = {source: 0}
    heap: List[Tuple[float, int]] = [(0, source)]
    done: Set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in g.neighbors(u):
            w = g.weight(u, v)
            if w < 0:
                raise ValueError("dijkstra requires non-negative weights")
            nd = d + w
            if nd < dist.get(v, INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def bellman_ford(g: Graph, source: int) -> Dict[int, float]:
    """Weighted SSSP tolerating negative (directed) weights."""
    dist: Dict[int, float] = {v: INF for v in g.nodes()}
    dist[source] = 0
    for _ in range(g.n - 1):
        changed = False
        for u in g.nodes():
            du = dist[u]
            if du == INF:
                continue
            for v in g.neighbors(u):
                nd = du + g.weight(u, v)
                if nd < dist[v]:
                    dist[v] = nd
                    changed = True
        if not changed:
            break
    # Negative-cycle check: one more relaxation pass must be stable.
    for u in g.nodes():
        if dist[u] == INF:
            continue
        for v in g.neighbors(u):
            if dist[u] + g.weight(u, v) < dist[v]:
                raise ValueError("graph contains a negative cycle")
    return dist


def weighted_apsp(g: Graph) -> List[List[float]]:
    """Exact weighted APSP; uses Dijkstra when possible, else Bellman-Ford."""
    has_negative = g.is_weighted and any(
        g.weight(u, v) < 0 for u in g.nodes() for v in g.neighbors(u))
    out = []
    for u in g.nodes():
        dist = bellman_ford(g, u) if has_negative else dijkstra(g, u)
        out.append([dist.get(v, INF) for v in g.nodes()])
    return out


def floyd_warshall(g: Graph) -> np.ndarray:
    """APSP over ``g``'s directed weights as one float64 n x n matrix.

    Arc ``u -> v`` weighs ``g.weight(u, v)`` (1 on an unweighted graph);
    unreachable pairs are ``inf``.  One vectorized relaxation per
    intermediate node ``k``.  A negative diagonal entry is a negative
    cycle through that node: it raises as soon as it appears, before
    any later sum could leave the exact range.  Exact whenever every
    sum of two simple-path lengths is an exact float64 (integral
    weights with 2 * n * max|w| < 2**53), which is when the APSP
    oracles serve their matrices from here.
    """
    n = g.n
    dist = np.full((n, n), INF)
    src = np.repeat(np.arange(n), np.diff(g._indptr))
    arc_weights = (np.asarray(g._weight_slices()[0], dtype=np.float64)
                   if g.is_weighted else 1.0)
    np.minimum.at(dist, (src, g._indices), arc_weights)
    np.fill_diagonal(dist, 0.0)
    diagonal = dist.diagonal()
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
        if (diagonal < 0).any():
            raise ValueError("graph contains a negative cycle")
    return dist


def hopcroft_karp(g: Graph) -> Set[Tuple[int, int]]:
    """Maximum matching in a bipartite graph, as a set of (u, v), u < v."""
    sides = g.is_bipartite()
    if sides is None:
        raise ValueError("hopcroft_karp requires a bipartite graph")
    left, _right = sides
    left_set = set(left)
    match: Dict[int, Optional[int]] = {v: None for v in g.nodes()}

    def bfs_layers() -> Optional[Dict[int, int]]:
        layer = {}
        queue = deque()
        for u in left:
            if match[u] is None:
                layer[u] = 0
                queue.append(u)
        found = False
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                w = match[v]
                if w is None:
                    found = True
                elif w not in layer:
                    layer[w] = layer[u] + 1
                    queue.append(w)
        return layer if found else None

    def try_augment(u: int, layer: Dict[int, int], visited: Set[int]) -> bool:
        for v in g.neighbors(u):
            if v in visited:
                continue
            w = match[v]
            if w is None:
                visited.add(v)
                match[u] = v
                match[v] = u
                return True
            # Mark v visited only on admissible edges (partner exactly one
            # layer deeper).  Marking it on a rejected edge would let a
            # failed deep exploration block the shortest augmenting path
            # through v, leaving the phase loop spinning forever.
            if layer.get(w) == layer[u] + 1:
                visited.add(v)
                if try_augment(w, layer, visited):
                    match[u] = v
                    match[v] = u
                    return True
        return False

    while True:
        layer = bfs_layers()
        if layer is None:
            break
        visited: Set[int] = set()
        for u in left:
            if match[u] is None:
                try_augment(u, layer, visited)
    return {(min(u, match[u]), max(u, match[u]))
            for u in left_set if match[u] is not None}


def maximum_matching_size(g: Graph) -> int:
    """Size of a maximum matching in a bipartite graph."""
    return len(hopcroft_karp(g))


def is_matching(g: Graph, edges: Set[Tuple[int, int]]) -> bool:
    """True iff ``edges`` is a valid matching in ``g``."""
    used: Set[int] = set()
    for u, v in edges:
        if v not in g.neighbors(u):
            return False
        if u in used or v in used:
            return False
        used.add(u)
        used.add(v)
    return True


def is_maximal_matching(g: Graph, edges: Set[Tuple[int, int]]) -> bool:
    """True iff ``edges`` is a matching with no extendable free edge."""
    if not is_matching(g, edges):
        return False
    used: Set[int] = set()
    for u, v in edges:
        used.add(u)
        used.add(v)
    for u, v in g.edges():
        if u not in used and v not in used:
            return False
    return True
