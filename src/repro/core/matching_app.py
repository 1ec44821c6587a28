"""Corollary 2.8: exact bipartite maximum matching with Õ(n²) messages.

Driver pipeline (Appendix A.1):

1. **Maximal matching** -- run Israeli-Itai [23] directly in BCONGEST
   (O(log n) rounds w.h.p.), giving each node a tentative mate.
2. **Size bound s** -- convergecast the matched-node count up the
   leader's BFS tree and broadcast s = 2|M̂| (an upper bound on the
   maximum matching size by maximality).
3. **Augmenting-path search** -- run the phase-scheduled
   :class:`~repro.matching.augmenting.BipartiteMatchingMachine` through
   the Theorem 2.1 message-efficient simulation.

``maximum_matching_direct`` runs step 3 directly in BCONGEST instead,
for the message-complexity comparison of benchmark E7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.congest.machine import run_machines
from repro.congest.metrics import Metrics
from repro.core.bcongest_sim import SimulationReport, simulate_bcongest
from repro.graphs.graph import Graph
from repro.matching.augmenting import BipartiteMatchingMachine
from repro.matching.israeli_itai import IsraeliItaiMachine, matching_from_outputs
from repro.primitives.global_tree import build_global_tree, disseminate
from repro.primitives.transport import path_to_root, route_upcast


@dataclass
class MatchingResult:
    matching: Set[Tuple[int, int]]
    metrics: Metrics
    s_bound: int
    detail: Dict[str, float] = field(default_factory=dict)
    report: Optional[SimulationReport] = None

    @property
    def size(self) -> int:
        return len(self.matching)


def _size_bound(graph: Graph, seed: int,
                ) -> Tuple[int, Metrics]:
    """Steps 1-2: maximal matching, then s = 2|M̂| known to all nodes."""
    total = Metrics()
    execution = run_machines(graph, IsraeliItaiMachine, seed=seed + 3)
    total.merge(execution.metrics)
    maximal = matching_from_outputs(execution.outputs)

    tree = build_global_tree(graph, seed=seed)
    total.merge(tree.metrics)
    # Convergecast matched bits to the root: one ("matched", v) item
    # each, 3 words with the destination.
    routes = [(path_to_root(tree.parent, v), 1, 3) for v in graph.nodes()
              if execution.outputs[v] is not None and v != tree.root]
    if routes:
        total.merge(route_upcast(graph, routes))
    matched_count = len([v for v in graph.nodes()
                         if execution.outputs[v] is not None])
    s = max(1, matched_count)  # = 2 |M̂|, at least 1 to schedule a phase
    _received, m = disseminate(graph, tree, [("s", s)], seed=seed)
    total.merge(m)
    if len(maximal) * 2 != matched_count:  # pragma: no cover - defensive
        raise AssertionError("inconsistent maximal matching")
    return s, total


def maximum_matching(graph: Graph, *, seed: int = 0) -> MatchingResult:
    """Corollary 2.8 via the Theorem 2.1 simulation."""
    if graph.is_bipartite() is None:
        raise ValueError("maximum_matching requires a bipartite graph")
    s, total = _size_bound(graph, seed)
    inputs = {v: {"s": s} for v in graph.nodes()}
    report = simulate_bcongest(
        graph, BipartiteMatchingMachine, inputs=inputs, seed=seed,
        message_words=16)
    total.merge(report.total)
    matching = matching_from_outputs(report.outputs)
    return MatchingResult(
        matching=matching, metrics=total, s_bound=s, report=report,
        detail={
            "phases": report.phases,
            "broadcasts": report.broadcasts_simulated,
            "sim_messages": report.simulation.messages,
        })


def maximum_matching_direct(graph: Graph, *, seed: int = 0) -> MatchingResult:
    """The same algorithm run directly in BCONGEST (message-heavy)."""
    if graph.is_bipartite() is None:
        raise ValueError("maximum_matching requires a bipartite graph")
    s, total = _size_bound(graph, seed)
    inputs = {v: {"s": s} for v in graph.nodes()}
    execution = run_machines(graph, BipartiteMatchingMachine,
                             inputs=inputs, word_limit=16, seed=seed)
    total.merge(execution.metrics)
    matching = matching_from_outputs(execution.outputs)
    return MatchingResult(
        matching=matching, metrics=total, s_bound=s,
        detail={
            "rounds": execution.rounds,
            "messages": execution.metrics.messages,
            "broadcasts": execution.metrics.broadcasts,
        })
