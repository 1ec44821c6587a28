"""Ensembles of pruned Baswana-Sen hierarchies (Lemma 3.8).

A single hierarchy concentrates upcast/downcast traffic on its own
cluster edges; executing all components of an ell-decomposable algorithm
over one hierarchy can multiply worst-case cluster-edge congestion by
ell.  The congestion-smoothing lemma: draw zeta = ceil(n^eps) independent
hierarchies, split the components into zeta equal batches
(:func:`repro.core.aggregation.component_batches`), and give each batch
its own hierarchy -- then w.h.p. any fixed edge is a cluster edge
in only O(log n) of the hierarchies (Lemma 3.7 + Chernoff), so the
worst-case cluster-edge congestion drops by a factor ~ zeta / log n.

Benchmark E6 regenerates this effect by measuring max cluster-edge
congestion of n BFS simulations over 1 vs. zeta hierarchies.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Sequence

from repro.decomposition.baswana_sen import BaswanaSenHierarchy
from repro.decomposition.pruning import build_pruned_hierarchy
from repro.graphs.graph import EdgeKey, Graph, undirected


def ensemble_size(n: int, eps: float) -> int:
    return max(1, int(math.ceil(max(n, 2) ** eps)))


def build_ensemble(graph: Graph, eps: float, zeta: int, *,
                   seed: int = 0) -> List[BaswanaSenHierarchy]:
    """zeta independently-constructed pruned hierarchies."""
    return [build_pruned_hierarchy(graph, eps, seed=seed + 104729 * k)
            for k in range(zeta)]


def cluster_edge_multiplicity(graph: Graph,
                              ensemble: Sequence[BaswanaSenHierarchy],
                              ) -> Dict[str, float]:
    """How many hierarchies claim each edge as a cluster edge.

    The quantity driving Lemma 3.8's proof: w.h.p. every edge appears in
    O(log n) of the zeta hierarchies.
    """
    counts: Counter = Counter()
    for h in ensemble:
        for e in h.cluster_edges():
            counts[e] += 1
    if not counts:
        return {"max": 0, "mean": 0.0}
    total_edges = max(1, graph.m)
    return {
        "max": max(counts.values()),
        "mean": sum(counts.values()) / total_edges,
    }
