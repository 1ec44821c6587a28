"""Theorem 1.2: the unweighted-APSP message-time trade-off.

For eps in [0, 1], unweighted APSP in Õ(n^{2-eps}) rounds and
Õ(n^{2+eps}) messages:

* eps ~ 0 (below 1/log n): the message-optimal end -- Theorem 2.1
  simulation of the n-BFS collection (a special case of Theorem 1.1
  restricted to unit weights), Õ(n²) messages and rounds.
* eps in (1/log n, 1/2]: Lemma 3.23 computes all pairwise distances up
  to Õ(n^{1-eps}) hops via batched depth-capped BFS over an ensemble of
  pruned hierarchies; distances beyond the cap are completed with
  *landmarks* -- Θ(n^eps log n) sampled nodes run full BFS directly (no
  simulation), upcast their tree edges to the landmark, and the trees
  are broadcast to everyone through the leader's tree, after which
  every node closes far pairs through min_l (depth_l(u) + depth_l(v)).
  W.h.p. every shortest path longer than the cap contains a landmark,
  making the completion exact.
* eps in [1/2, 1]: Lemma 3.22 computes all n full BFS trees through the
  star simulation; depths give all distances directly.

Benchmark E3 sweeps eps and regenerates the trade-off curve (messages
up, rounds down as eps grows); E12 ablates the landmark density.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.congest.machine import run_machines
from repro.congest.metrics import Metrics
from repro.congest.scheduler import random_delays
from repro.core.bcongest_sim import simulate_bcongest
from repro.core.bfs_collections import (
    disseminate_delays,
    n_bfs_trees_batched,
    n_bfs_trees_star,
)
from repro.graphs.graph import Graph
from repro.kernels.plan import CollectionResult
from repro.primitives.bfs import BFSCollectionMachine, message_budget
from repro.primitives.global_tree import build_global_tree, disseminate
from repro.primitives.transport import Packet, route_packets


@dataclass
class TradeoffAPSPResult:
    """Distance matrix plus the regime used and full cost accounting."""

    dist: List[List[float]]
    metrics: Metrics
    regime: str
    detail: Dict[str, float] = field(default_factory=dict)


def sample_landmarks(n: int, eps: float, seed: int, *,
                     boost: float = 3.0) -> List[int]:
    """Theta(n^eps log n) landmarks, sampled uniformly."""
    count = min(n, max(1, int(math.ceil(
        boost * (n ** eps) * math.log(max(n, 2))))))
    from repro.congest.network import stable_seed
    rng = random.Random(stable_seed("landmarks", seed))
    return sorted(rng.sample(range(n), count))


def landmark_completion(graph: Graph, landmarks: List[int], *,
                        seed: int = 0) -> Tuple[CollectionResult, Metrics]:
    """Run full BFS from every landmark directly in CONGEST, upcast each
    tree to its landmark, and broadcast all trees to all nodes.

    Returns (the BFS result, metrics).  The broadcast ships the actual
    tree edges ((root, child, parent) triples), as the paper describes.
    """
    total = Metrics()
    delays = random_delays(landmarks, "bfs-delays", seed + 101)
    budget = message_budget(graph.n)
    from repro.kernels import wavefront
    execution = (wavefront.direct_execution(graph, delays, word_limit=budget)
                 or run_machines(
                     graph, lambda info: BFSCollectionMachine(info, delays),
                     word_limit=budget, seed=seed + 7))
    total.merge(execution.metrics)
    result = CollectionResult.from_outputs(execution.outputs)
    parent = dict(zip(result.sources.tolist(), result.parent.tolist()))
    # Upcast each tree edge (root, child, parent) to its root.
    edges = [(j, v, p) for j in landmarks
             for v, p in enumerate(parent[j]) if p >= 0]
    packets: List[Packet] = []
    for j, v, p in edges:
        path = [v]
        while path[-1] != j:
            path.append(parent[j][path[-1]])
        packets.append(Packet(path=tuple(path), payload=(j, v, p)))
    if packets:
        _d, m = route_packets(graph, packets)
        total.merge(m)

    # Broadcast every tree to every node through the leader's tree.
    tree = build_global_tree(graph, seed=seed + 11)
    total.merge(tree.metrics)
    if edges:
        _received, m = disseminate(graph, tree, edges, seed=seed + 11)
        total.merge(m)
    return result, total


def apsp_tradeoff(graph: Graph, eps: float, *, seed: int = 0,
                  landmark_boost: float = 3.0) -> TradeoffAPSPResult:
    """Solve unweighted APSP at the requested point of the trade-off."""
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    n = graph.n
    log_threshold = 1.0 / max(2.0, math.log2(max(n, 2)))

    if eps <= log_threshold:
        return _apsp_message_optimal(graph, seed=seed)
    if eps >= 0.5:
        result = n_bfs_trees_star(graph, eps, seed=seed)
        dist = result.trees.distance_matrix(symmetric=True)
        return TradeoffAPSPResult(dist=dist, metrics=result.metrics,
                                  regime="star (Lemma 3.22)",
                                  detail=result.detail)
    return _apsp_batched_with_landmarks(graph, eps, seed=seed,
                                        landmark_boost=landmark_boost)


def _apsp_message_optimal(graph: Graph, *, seed: int = 0,
                          ) -> TradeoffAPSPResult:
    """The eps ~ 0 end: Theorem 2.1 simulation of the n-BFS collection."""
    delays = random_delays(graph.nodes(), "bfs-delays", seed)
    total = disseminate_delays(graph, delays, seed=seed)
    from repro.kernels import wavefront
    report = simulate_bcongest(
        graph, lambda info: BFSCollectionMachine(info, delays), seed=seed,
        message_words=message_budget(graph.n),
        plan=wavefront.bcongest_plan(graph, delays))
    total.merge(report.total)
    result = report.result or CollectionResult.from_outputs(report.outputs)
    return TradeoffAPSPResult(
        dist=result.distance_matrix(symmetric=True),
        metrics=total, regime="message-optimal (Theorem 1.1)",
        detail={"phases": report.phases,
                "broadcasts": report.broadcasts_simulated})


def _apsp_batched_with_landmarks(graph: Graph, eps: float, *, seed: int,
                                 landmark_boost: float,
                                 ) -> TradeoffAPSPResult:
    """The eps in (1/log n, 1/2] regime: Lemma 3.23 + landmarks."""
    near = n_bfs_trees_batched(graph, eps, seed=seed)
    total = near.metrics
    dist = near.trees.distance_matrix(symmetric=True)

    landmarks = sample_landmarks(graph.n, eps, seed, boost=landmark_boost)
    far, m = landmark_completion(graph, landmarks, seed=seed)
    total.merge(m)
    for dl, reached in zip(far.dist.tolist(), far.reached):
        nodes = np.flatnonzero(reached).tolist()
        for u in nodes:
            du = dl[u]
            for v in nodes:
                through = du + dl[v]
                if through < dist[u][v]:
                    dist[u][v] = through
                    dist[v][u] = through
    detail = dict(near.detail)
    detail["landmarks"] = len(landmarks)
    return TradeoffAPSPResult(dist=dist, metrics=total,
                              regime="batched+landmarks (Lemma 3.23)",
                              detail=detail)
