"""Theorem 1.1: weighted APSP with Õ(n²) messages and Õ(n²) rounds.

The paper obtains this by plugging a round-efficient BCONGEST weighted
APSP algorithm into the Theorem 2.1 simulation.  Here the simulated
algorithm is the multi-source pipelined Bellman-Ford collection, in
place of a round-optimal one: n sources spread by shared random delays
from [1, n], each flooding improved distance estimates; it is exact on
directed weights and negative weights (no negative cycles), covering the
full scope of the theorem's statement.

Driver steps:

1. draw the shared random delays (:func:`repro.congest.scheduler.random_delays`,
   stream ``"delays"``), build the global tree and disseminate them
   (the shared-randomness implementation of §3.3, metered: Õ(n) rounds
   and Õ(n · n) messages);
2. run the Theorem 2.1 simulation of the Bellman-Ford collection;
3. assemble the distance matrix and the parent map from its result.

Benchmark E2 compares the resulting message count against the direct
(round-optimal, message-heavy) execution of the same collection -- the
same delays under the same word budget
(:func:`repro.baselines.apsp_direct.apsp_direct_weighted`) -- which
costs Theta~(n * m) messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.congest.metrics import Metrics
from repro.congest.profile import mark_phase
from repro.congest.scheduler import random_delays
from repro.core.bcongest_sim import SimulationReport, simulate_bcongest
from repro.core.bfs_collections import disseminate_delays
from repro.graphs.graph import Graph
from repro.kernels.plan import INF, CollectionResult
from repro.primitives.bellman_ford import (BellmanFordCollectionMachine,
                                           message_budget)


@dataclass
class APSPResult:
    """Distance matrix plus the full cost breakdown."""

    dist: List[List[float]]
    parents: Dict[int, Dict[int, Optional[int]]]
    metrics: Metrics
    report: Optional[SimulationReport]
    detail: Dict[str, int]

    def distance(self, u: int, v: int) -> float:
        return self.dist[u][v]

    def shortest_path(self, source: int, target: int) -> Optional[List[int]]:
        """Reconstruct a shortest source -> target path from the parent
        pointers the distributed execution left at each node (node v
        knows its predecessor on a shortest path from each source).

        Returns None when target is unreachable or parents were not
        collected for this regime.
        """
        if source == target:
            return [source]
        if self.dist[source][target] == INF or not self.parents:
            return None
        path = [target]
        current = target
        while current != source:
            parent = self.parents.get(current, {}).get(source)
            if parent is None:
                return None
            path.append(parent)
            current = parent
            if len(path) > len(self.dist) + 1:  # pragma: no cover
                raise RuntimeError("parent pointers contain a cycle")
        path.reverse()
        return path


def weighted_apsp(graph: Graph, *, seed: int = 0) -> APSPResult:
    """Message-optimal weighted APSP (Theorem 1.1).

    The simulated algorithm's per-broadcast payload is bounded by
    O(log² n) words (:func:`~repro.primitives.bellman_ford.message_budget`),
    which the random delays guarantee w.h.p.
    """
    n = graph.n

    # Shared randomness: the leader draws the delays and streams them
    # down its BFS tree (§3.3's implementation, metered literally).
    mark_phase("shared-randomness")
    delays = random_delays(range(n), "delays", seed)
    total = disseminate_delays(graph, delays, seed=seed)

    from repro.kernels import relaxation
    report = simulate_bcongest(
        graph, lambda info: BellmanFordCollectionMachine(info, delays),
        seed=seed, message_words=message_budget(n),
        plan=relaxation.bcongest_plan(graph, delays))
    total.merge(report.total)

    result = report.result or CollectionResult.from_outputs(report.outputs)
    detail = {
        "phases": report.phases,
        "broadcasts": report.broadcasts_simulated,
        "sim_messages": report.simulation.messages,
        "pre_messages": report.preprocessing.messages,
    }
    return APSPResult(dist=result.distance_matrix(symmetric=False),
                      parents=result.parents(), metrics=total,
                      report=report, detail=detail)


def weighted_apsp_tradeoff(graph: Graph, eps: float, *,
                           seed: int = 0) -> APSPResult:
    """EXTENSION (the paper's §4 open question): a message-time
    trade-off for *weighted* APSP.

    The ingredients already exist in the paper: the multi-source
    Bellman-Ford collection is aggregation-based (per-source idempotent
    min, Definition 3.1), so for eps in [1/2, 1] it can be fed to the
    Theorem 3.10 star simulation exactly as the BFS collection is in
    Lemma 3.22 -- same Õ(T_A n^{1-eps}) rounds / Õ(T_A n^{1+eps})
    messages conversion, with T_A = Õ(n).  For eps below 1/2 the
    depth-capped batching of Lemma 3.23 does not transfer (a weighted
    shortest path can have many hops but small weight, so a hop cap is
    not a distance cap and the landmark argument needs hop-restricted
    distances); there we fall back to the message-optimal end
    (Theorem 1.1), which is the paper's own eps ~ 0 point.

    The extension is exercised by ``tests/test_extension_weighted.py``
    and measured in benchmark E13.
    """
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    if eps < 0.5:
        return weighted_apsp(graph, seed=seed)

    from repro.core.tradeoff_sim_star import simulate_aggregation_star
    from repro.decomposition.pruning import build_pruned_hierarchy

    n = graph.n
    delays = random_delays(range(n), "delays", seed)
    total = disseminate_delays(graph, delays, seed=seed)
    hierarchy = build_pruned_hierarchy(graph, eps, seed=seed + 17)
    total.merge(hierarchy.metrics)

    # Twice the collection's budget: Theorem 3.10's aggregate packets
    # are keyed by (source, origin), so one can carry more records than
    # any single broadcast, and they ride the transport limit
    # ``message_words + 4``.  At the single budget gnp(n=20) fails with
    # "packet payload of 106 words exceeds limit 100".
    report = simulate_aggregation_star(
        graph, hierarchy,
        lambda info: BellmanFordCollectionMachine(info, delays),
        seed=seed, message_words=2 * message_budget(n))
    total.merge(report.total)

    result = CollectionResult.from_outputs(report.outputs)
    return APSPResult(
        dist=result.distance_matrix(symmetric=False),
        parents=result.parents(), metrics=total, report=None,
        detail={
            "phases": report.phases,
            "broadcasts": report.broadcasts_simulated,
            "cluster_congestion": report.cluster_edge_congestion,
            "mode": report.mode,
        })
