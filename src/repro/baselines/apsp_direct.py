"""Direct (round-optimal, message-heavy) APSP baselines.

These are the comparators the paper's introduction measures against:
running the n-source BFS / Bellman-Ford collections *directly* in
CONGEST costs Θ(n·m) messages (each broadcast pays deg(v)), which is
Θ(n³) on dense graphs -- the message complexity of the round-optimal
algorithms, e.g. Bernstein-Nanongkai [7].  Rounds are Õ(n) thanks to
the random-delay scheduling of Theorem 1.4.

Benchmarks E2/E3 plot these against the paper's simulations: same
outputs, opposite cost profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.congest.machine import run_machines
from repro.congest.metrics import Metrics
from repro.core.bfs_collections import _message_budget, shared_delays
from repro.graphs.graph import Graph
from repro.primitives.bellman_ford import BellmanFordCollectionMachine
from repro.primitives.bfs import BFSCollectionMachine
from repro.primitives.global_tree import build_global_tree, disseminate

INF = float("inf")


@dataclass
class DirectAPSPResult:
    dist: List[List[float]]
    metrics: Metrics
    detail: Dict[str, float] = field(default_factory=dict)


def _collect(graph: Graph, outputs: Dict[int, dict],
             symmetric: bool) -> List[List[float]]:
    n = graph.n
    dist = [[INF] * n for _ in range(n)]
    for v in graph.nodes():
        dist[v][v] = 0
        for j, (d, _p) in (outputs[v] or {}).items():
            dist[j][v] = min(dist[j][v], d)
            if symmetric:
                dist[v][j] = min(dist[v][j], d)
    return dist


def apsp_direct_unweighted(graph: Graph, *, seed: int = 0,
                           ) -> DirectAPSPResult:
    """n BFS with shared random delays, run directly (the eps = 1 end)."""
    n = graph.n
    total = Metrics()
    tree = build_global_tree(graph, seed=seed)
    total.merge(tree.metrics)
    delays = shared_delays(list(graph.nodes()), n, seed)
    _r, m = disseminate(graph, tree,
                        [(j, delays[j]) for j in sorted(delays)], seed=seed)
    total.merge(m)
    roots = {j: j for j in graph.nodes()}
    execution = run_machines(
        graph,
        lambda info: BFSCollectionMachine(info, roots=roots, delays=delays),
        word_limit=_message_budget(n), seed=seed)
    total.merge(execution.metrics)
    dist = _collect(graph, execution.outputs, symmetric=True)
    max_ids = max(
        getattr(a.machine, "max_inbox_ids", 0)
        for a in execution.algorithms.values())
    return DirectAPSPResult(
        dist=dist, metrics=total,
        detail={
            "bfs_rounds": execution.rounds,
            "bfs_messages": execution.metrics.messages,
            "broadcasts": execution.metrics.broadcasts,
            "max_distinct_bfs_per_round": max_ids,
        })


def apsp_direct_weighted(graph: Graph, *, seed: int = 0,
                         ) -> DirectAPSPResult:
    """n Bellman-Ford sources run directly (the [7]-style comparator)."""
    n = graph.n
    total = Metrics()
    tree = build_global_tree(graph, seed=seed)
    total.merge(tree.metrics)
    delays = shared_delays(list(graph.nodes()), n, seed)
    _r, m = disseminate(graph, tree,
                        [(j, delays[j]) for j in sorted(delays)], seed=seed)
    total.merge(m)
    sources = {j: j for j in graph.nodes()}
    execution = run_machines(
        graph,
        lambda info: BellmanFordCollectionMachine(
            info, sources=sources, delays=delays),
        word_limit=_message_budget(n) * 2, seed=seed)
    total.merge(execution.metrics)
    dist = _collect(graph, execution.outputs, symmetric=False)
    return DirectAPSPResult(
        dist=dist, metrics=total,
        detail={
            "rounds": execution.rounds,
            "messages": execution.metrics.messages,
            "broadcasts": execution.metrics.broadcasts,
        })
