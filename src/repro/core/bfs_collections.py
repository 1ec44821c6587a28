"""Lemmas 3.22 / 3.23: computing n BFS trees under the trade-off simulations.

Lemma 3.22 (eps in [1/2, 1]): combine the n BFS algorithms into one
aggregation-based machine via shared random delays (Theorem 1.4),
disseminate the delays through the leader's tree (the shared-randomness
implementation of §3.3), and run the Theorem 3.10 star simulation over a
single pruned hierarchy.

Lemma 3.23 (eps in (0, 1/2]): partition the n BFS computations into
b = ceil(n^eps) batches of ~n^{1-eps}, cap their depth at Õ(n^{1-eps}),
give each batch its own independently-built pruned hierarchy (the
ensemble of Lemma 3.8), and run each batch through the Theorem 3.9
general simulation.

On composition: the paper runs the b batch simulations concurrently and
invokes Theorem 1.3 (random-delay scheduling) to bound the combined
round count by Õ(congestion + dilation).  This driver executes the batch
simulations sequentially -- which leaves outputs, message counts, and
per-edge congestion *identical* to the concurrent run -- and reports the
Theorem 1.3 round bound (:func:`repro.congest.scheduler.ghaffari_schedule_bound`)
computed from the measured congestion and dilation
(``rounds_scheduled``) alongside the raw sequential round sum
(``rounds_sequential``).  Benchmark E3 reports both; E6 validates the
congestion-smoothing input to the formula empirically.

Both lemmas draw their delays with :func:`repro.congest.scheduler.random_delays`
(stream ``"bfs-delays"``) and run the collection under the one word
budget :func:`repro.primitives.bfs.message_budget`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.congest.metrics import Metrics
from repro.congest.scheduler import ghaffari_schedule_bound, random_delays
from repro.core.aggregation import component_batches
from repro.core.tradeoff_sim import TradeoffReport, simulate_aggregation
from repro.core.tradeoff_sim_star import simulate_aggregation_star
from repro.decomposition.ensemble import build_ensemble
from repro.decomposition.pruning import build_pruned_hierarchy
from repro.graphs.graph import Graph
from repro.kernels.plan import CollectionResult
from repro.primitives.bfs import BFSCollectionMachine, message_budget
from repro.primitives.global_tree import build_global_tree, disseminate


@dataclass
class BFSTreesResult:
    """The BFS trees (distances and parents) plus the cost breakdown."""

    trees: CollectionResult
    metrics: Metrics
    detail: Dict[str, float] = field(default_factory=dict)
    reports: List[TradeoffReport] = field(default_factory=list)


def disseminate_delays(graph: Graph, delays: Dict[int, int], *,
                       seed: int) -> Metrics:
    """The shared-randomness preamble (§3.3): build the leader's global
    tree and stream ``delays`` down it.  Returns the metered cost of
    both, merged in that order."""
    total = Metrics()
    tree = build_global_tree(graph, seed=seed)
    total.merge(tree.metrics)
    _received, m = disseminate(graph, tree, sorted(delays.items()), seed=seed)
    total.merge(m)
    return total


def n_bfs_trees_star(graph: Graph, eps: float, *,
                     seed: int = 0) -> BFSTreesResult:
    """Lemma 3.22: n full BFS trees, eps in [1/2, 1]."""
    if not 0.5 <= eps <= 1:
        raise ValueError("Lemma 3.22 requires eps in [1/2, 1]")
    budget = message_budget(graph.n)
    delays = random_delays(graph.nodes(), "bfs-delays", seed)
    total = disseminate_delays(graph, delays, seed=seed)

    hierarchy = build_pruned_hierarchy(graph, eps, seed=seed + 13)
    total.merge(hierarchy.metrics)

    from repro.kernels import wavefront
    report = (wavefront.star_report(graph, hierarchy, delays,
                                    message_words=budget)
              or simulate_aggregation_star(
                  graph, hierarchy,
                  lambda info: BFSCollectionMachine(info, delays),
                  seed=seed, message_words=budget))
    total.merge(report.total)
    return BFSTreesResult(
        trees=CollectionResult.from_outputs(report.outputs), metrics=total,
        detail={
            "mode": 1.0,  # star
            "phases": report.phases,
            "cluster_congestion": report.cluster_edge_congestion,
            "non_cluster_congestion": report.non_cluster_edge_congestion,
        },
        reports=[report])


def depth_cap(n: int, eps: float) -> int:
    """The Õ(n^{1-eps}) BFS depth cap of Lemma 3.23."""
    return max(2, int(math.ceil(max(n, 2) ** (1.0 - eps))))


def n_bfs_trees_batched(graph: Graph, eps: float, *,
                        seed: int = 0) -> BFSTreesResult:
    """Lemma 3.23: n BFS trees capped at :func:`depth_cap`, eps in (0, 1/2]."""
    if not 0 < eps <= 0.5:
        raise ValueError("Lemma 3.23 requires eps in (0, 1/2]")
    n = graph.n
    cap = depth_cap(n, eps)
    budget = message_budget(n)
    b = max(1, int(math.ceil(n ** eps)))
    total = Metrics()
    tree = build_global_tree(graph, seed=seed)
    total.merge(tree.metrics)

    batches = component_batches(list(graph.nodes()), b)
    ensemble = build_ensemble(graph, eps, len(batches), seed=seed + 29)
    for h in ensemble:
        total.merge(h.metrics)

    trees: Dict[int, dict] = {v: {} for v in graph.nodes()}
    reports: List[TradeoffReport] = []
    combined_sim = Metrics()
    max_dilation_rounds = 0
    for idx, batch in enumerate(batches):
        if not batch:
            continue
        delays = random_delays(batch, "bfs-delays", seed + idx)
        _received, m = disseminate(graph, tree, sorted(delays.items()),
                                   seed=seed + idx)
        total.merge(m)
        report = simulate_aggregation(
            graph, ensemble[idx],
            lambda info: BFSCollectionMachine(info, delays, max_depth=cap),
            seed=seed, message_words=budget)
        reports.append(report)
        total.merge(report.total)
        combined_sim.merge(report.simulation, parallel=True)
        max_dilation_rounds = max(max_dilation_rounds,
                                  report.simulation.rounds)
        for v, out in report.outputs.items():
            trees[v].update(out or {})

    # Theorem 1.3 composition bound on the concurrent schedule: the
    # sequential execution above has identical messages/congestion.
    congestion = combined_sim.max_edge_congestion
    rounds_scheduled = ghaffari_schedule_bound(congestion,
                                               max_dilation_rounds, n)
    return BFSTreesResult(
        trees=CollectionResult.from_outputs(trees), metrics=total,
        detail={
            "mode": 0.0,  # batched / general
            "batches": len(batches),
            "cap": cap,
            "rounds_sequential": total.rounds,
            "rounds_scheduled": rounds_scheduled,
            "combined_congestion": congestion,
            "max_batch_dilation": max_dilation_rounds,
        },
        reports=reports)
