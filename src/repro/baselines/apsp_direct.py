"""Direct (round-optimal, message-heavy) APSP baselines.

These are the comparators the paper's introduction measures against:
running the n-source BFS / Bellman-Ford collections *directly* in
CONGEST costs Θ(n·m) messages (each broadcast pays deg(v)), which is
Θ(n³) on dense graphs -- the message complexity of the round-optimal
algorithms, e.g. Bernstein-Nanongkai [7].  Rounds are Õ(n) thanks to
the random-delay scheduling of Theorem 1.4.

Benchmarks E2/E3 plot these against the paper's simulations: same
outputs, opposite cost profile.  Each runs its simulated counterpart's
collection -- the same delay draw under the same word budget -- directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.congest.machine import run_machines
from repro.congest.metrics import Metrics
from repro.congest.scheduler import random_delays
from repro.core.bfs_collections import disseminate_delays
from repro.graphs.graph import Graph
from repro.kernels.plan import CollectionResult
from repro.primitives import bellman_ford, bfs
from repro.primitives.bellman_ford import BellmanFordCollectionMachine
from repro.primitives.bfs import BFSCollectionMachine


@dataclass
class DirectAPSPResult:
    dist: List[List[float]]
    metrics: Metrics
    detail: Dict[str, float] = field(default_factory=dict)


def apsp_direct_unweighted(graph: Graph, *, seed: int = 0,
                           ) -> DirectAPSPResult:
    """n BFS with shared random delays, run directly (the eps = 1 end)."""
    n = graph.n
    delays = random_delays(graph.nodes(), "bfs-delays", seed)
    total = disseminate_delays(graph, delays, seed=seed)
    execution = run_machines(
        graph, lambda info: BFSCollectionMachine(info, delays),
        word_limit=bfs.message_budget(n), seed=seed)
    total.merge(execution.metrics)
    dist = CollectionResult.from_outputs(execution.outputs).distance_matrix(
        symmetric=True)
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
    """n Bellman-Ford sources run directly (the [7]-style comparator).

    The collection is :func:`repro.core.weighted_apsp.weighted_apsp`'s:
    the same delays (stream ``"delays"``) under the same word budget, so
    benchmark E2 compares one BCONGEST execution run two ways.
    """
    n = graph.n
    delays = random_delays(range(n), "delays", seed)
    total = disseminate_delays(graph, delays, seed=seed)
    execution = run_machines(
        graph, lambda info: BellmanFordCollectionMachine(info, delays),
        word_limit=bellman_ford.message_budget(n), seed=seed)
    total.merge(execution.metrics)
    dist = CollectionResult.from_outputs(execution.outputs).distance_matrix(
        symmetric=False)
    return DirectAPSPResult(
        dist=dist, metrics=total,
        detail={
            "rounds": execution.rounds,
            "messages": execution.metrics.messages,
            "broadcasts": execution.metrics.broadcasts,
        })
