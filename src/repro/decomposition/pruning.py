"""Pruned Baswana-Sen hierarchies (§3.1, Corollaries 3.5 / 3.6).

The trade-off simulations need every *proper subtree* of every cluster
tree to hold O(n^{1-eps}) nodes, otherwise a single cluster edge would
carry too much upcast traffic.  Pruning repeatedly finds the deepest
node whose subtree has >= n^{1-eps} nodes and splits that subtree off
into its own cluster (the split node becomes a center).  At most O(n^eps)
splits happen per level, so only O(n^eps) clusters are added.

Distributed realization (as the paper sketches): per level, every member
upcasts its (id, parent) pair to the center (O(size * depth) messages
over cluster edges only), the center computes the split points locally,
and downcasts (new_center, new_dist) to reassigned members.  Afterwards
every node re-announces its post-pruning cluster and the low-degree sets
re-select their inter-cluster communication edges F*, since F must point
at the *pruned* clustering.

Lemma 3.7 (an edge is a cluster edge with probability O(kappa n^-eps))
holds a fortiori after pruning because pruning never adds tree edges;
benchmark E5 measures it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.congest.metrics import Metrics
from repro.decomposition.baswana_sen import (
    BaswanaSenHierarchy,
    HierarchyLevel,
    _one_shot,
)
from repro.graphs.graph import Graph
from repro.primitives.transport import (
    path_from_root,
    path_to_root,
    route_downcast,
    route_upcast,
)


def subtree_threshold(n: int, eps: float) -> int:
    return max(2, int(math.ceil(max(n, 2) ** (1.0 - eps))))


def _split_cluster(members: List[int], parent: Dict[int, Optional[int]],
                   dist: Dict[int, int], threshold: int,
                   ) -> Dict[int, Tuple[int, int]]:
    """Center-local pruning of one cluster tree.

    Returns the new assignment ``v -> (new_center, new_dist)`` for every
    member.  Implements the paper's rule: repeatedly split off the
    deepest node whose subtree has >= threshold nodes.
    """
    children: Dict[int, List[int]] = {v: [] for v in members}
    root = None
    member_set = set(members)
    for v in members:
        p = parent[v]
        if p is None or p not in member_set:
            root = v
        else:
            children[p].append(v)
    assert root is not None

    # Post-order for subtree sizes.
    order: List[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    order.reverse()

    assigned_root: Dict[int, int] = {}

    def subtree_nodes(v: int) -> List[int]:
        out = []
        stack = [v]
        while stack:
            x = stack.pop()
            if x in assigned_root:
                continue
            out.append(x)
            stack.extend(children[x])
        return out

    sizes: Dict[int, int] = {}
    while True:
        # Recompute sizes over the not-yet-split-off part.
        sizes.clear()
        for v in order:
            if v in assigned_root:
                continue
            sizes[v] = 1 + sum(sizes.get(c, 0) for c in children[v]
                               if c not in assigned_root)
        candidates = [v for v in sizes
                      if v != root and sizes[v] >= threshold]
        if not candidates:
            break
        # Deepest first; ties by smaller id for determinism.
        deepest = min(candidates, key=lambda v: (-dist[v], v))
        for x in subtree_nodes(deepest):
            assigned_root[x] = deepest

    result: Dict[int, Tuple[int, int]] = {}
    for v in members:
        new_root = assigned_root.get(v, root)
        result[v] = (new_root, dist[v] - dist[new_root])
    return result


def prune_hierarchy(graph: Graph, h: BaswanaSenHierarchy, *,
                    seed: int = 0) -> BaswanaSenHierarchy:
    """Produce the pruned hierarchy (Corollary 3.5) with metered cost."""
    if h.pruned:
        return h
    n = graph.n
    threshold = subtree_threshold(n, h.eps)
    metrics = Metrics()
    new_levels: List[HierarchyLevel] = []

    for level in h.levels:
        if level.index == 0 or not level.cluster_of:
            new_levels.append(HierarchyLevel(
                index=level.index,
                cluster_of=dict(level.cluster_of),
                parent=dict(level.parent),
                dist=dict(level.dist),
                low_degree=set(level.low_degree),
                f_edges=set()))
            continue
        # (i) Upcast tree structure: every member sends (v, parent, dist)
        # to its center over the cluster tree (4 words with the
        # destination).
        routes = [(path_to_root(level.parent, v), 1, 4)
                  for v, c in level.cluster_of.items() if v != c]
        if routes:
            metrics.merge(route_upcast(graph, routes))
        # (ii) Center-local splitting.
        new_level = HierarchyLevel(index=level.index,
                                   low_degree=set(level.low_degree))
        reassigned: List[Tuple[int, int, int]] = []  # (v, new_c, new_d)
        for _c, members in sorted(level.members().items()):
            assignment = _split_cluster(members, level.parent, level.dist,
                                        threshold)
            for v in members:
                new_c, new_d = assignment[v]
                new_level.cluster_of[v] = new_c
                new_level.dist[v] = new_d
                new_level.parent[v] = None if v == new_c else level.parent[v]
                if new_c != level.cluster_of[v] or new_d != level.dist[v]:
                    reassigned.append((v, new_c, new_d))
        # (iii) Downcast new assignments ("r", new_c, new_d: 3 words,
        # plus the destination) over the *old* tree.
        routes = [(path_from_root(level.parent, v), 1, 4)
                  for v, _new_c, _new_d in reassigned
                  if v != level.cluster_of[v]]
        if routes:
            metrics.merge(route_downcast(graph, routes))
        new_levels.append(new_level)

    pruned = BaswanaSenHierarchy(eps=h.eps, kappa=h.kappa,
                                 levels=new_levels, metrics=h.metrics,
                                 pruned=True)
    pruned.metrics = h.metrics.snapshot()
    pruned.metrics.merge(metrics)

    # (iv) Re-announce pruned memberships and re-select F* per level.
    for i in range(1, pruned.n_levels):
        prev = pruned.levels[i - 1]
        level = pruned.levels[i]
        if not level.low_degree:
            continue
        spec = {
            v: {"bcast": ("m", prev.cluster_of[v])}
            for v in prev.cluster_of
        }
        heard, m = _one_shot(graph, spec, bcast_only=True)
        pruned.metrics.merge(m)
        f_sends: List[Tuple[int, int]] = []
        for v in sorted(level.low_degree):
            own = prev.cluster_of.get(v)
            table: Dict[int, int] = {}
            for src, (_t, center) in heard[v]:
                if center != own and (center not in table
                                      or src < table[center]):
                    table[center] = src
            for _center, rep in sorted(table.items()):
                level.f_edges.add((v, rep))
                f_sends.append((v, rep))
        spec = {}
        for v, rep in f_sends:
            spec.setdefault(v, {"sends": []})["sends"].append((rep, ("f", i)))
        if spec:
            _heard, m = _one_shot(graph, spec, bcast_only=False)
            pruned.metrics.merge(m)
    return pruned


def build_pruned_hierarchy(graph: Graph, eps: float, *,
                           seed: int = 0) -> BaswanaSenHierarchy:
    """Corollary 3.6: build and prune in one call."""
    from repro.decomposition.baswana_sen import build_baswana_sen
    h = build_baswana_sen(graph, eps, seed=seed)
    return prune_hierarchy(graph, h, seed=seed)


def max_proper_subtree(graph: Graph, h: BaswanaSenHierarchy) -> int:
    """Largest proper-subtree size over all cluster trees (Cor. 3.5)."""
    worst = 0
    for level in h.levels:
        if not level.cluster_of:
            continue
        children: Dict[int, List[int]] = {v: [] for v in level.cluster_of}
        for v, p in level.parent.items():
            if p is not None:
                children[p].append(v)
        sizes: Dict[int, int] = {}
        for _c, members in level.members().items():
            for v in sorted(members, key=lambda x: -level.dist[x]):
                sizes[v] = 1 + sum(sizes[c] for c in children[v])
            for v in members:
                if level.parent[v] is not None:
                    worst = max(worst, sizes[v])
    return worst


def cluster_edge_probability(graph: Graph, eps: float, *, trials: int,
                             seed: int = 0) -> Dict[str, float]:
    """Monte-Carlo estimate for Lemma 3.7.

    Builds ``trials`` independent pruned hierarchies and returns the
    empirical per-edge cluster-edge probability (averaged over edges)
    together with the lemma's O(kappa * n^-eps) reference scale.
    """
    edges = list(graph.edges())
    hits = 0
    kappa = max(1, math.ceil(1.0 / eps))
    for t in range(trials):
        h = build_pruned_hierarchy(graph, eps, seed=seed + 7919 * t)
        cluster = h.cluster_edges()
        hits += sum(1 for e in edges if undirected_key(e) in cluster)
    prob = hits / (trials * len(edges))
    return {
        "probability": prob,
        "bound_scale": kappa * graph.n ** (-eps),
        "kappa": kappa,
    }


def undirected_key(e: Tuple[int, int]) -> Tuple[int, int]:
    u, v = e
    return (u, v) if u <= v else (v, u)
