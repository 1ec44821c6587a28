"""The congestion + dilation framework (§1.4.1, Theorems 1.3 / 1.4).

Random-delay scheduling: to run ell algorithms together, start algorithm
A_j after a uniform delay from [1, ell].  Leighton-Maggs-Rao [26] and
Ghaffari [17] show the composition completes in Õ(congestion + dilation)
rounds; for collections of standard BFS algorithms the paper adds
property (ii): every node receives messages from at most O(log n)
distinct BFS algorithms per round (Theorem 1.4), which is what makes the
combined machine's messages fit in Õ(1) words and the collection
aggregation-based.

This module provides

* :func:`random_delays` -- the one shared random delay draw, uniform on
  [1, ell] for ell algorithm ids, every collection driver's (the shared
  randomness itself is disseminated and metered by the drivers, see
  §3.3 and :func:`repro.core.bfs_collections.disseminate_delays`);
* :func:`ghaffari_schedule_bound` -- the Theorem 1.3 round bound
  O(congestion + dilation * log n) evaluated on measured quantities,
  used when batch simulations are executed sequentially but accounted
  as a concurrent schedule (:func:`repro.core.bfs_collections.n_bfs_trees_batched`);
* :func:`measure_bfs_schedule` -- executes a delayed BFS collection and
  reports the Theorem 1.4 quantities: completion round vs. ell +
  dilation, and the maximum number of distinct BFS ids any node hears
  in one round.  Benchmark E4 regenerates the theorem from this.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.congest.machine import run_machines
from repro.congest.network import stable_seed
from repro.congest.profile import mark_phase
from repro.graphs.graph import Graph
from repro.kernels.plan import CollectionResult
from repro.primitives.bfs import BFSCollectionMachine, message_budget


def random_delays(ids: Iterable[int], stream: str,
                  seed: int) -> Dict[int, int]:
    """Uniform delays from [1, ell], one per algorithm id, in id order.

    ``ell = len(ids)``; ``stream`` names the draw's random stream, so
    collections that share a seed (the BFS trees, the Bellman-Ford
    sources, the composer's components) still draw independently.
    """
    ids = list(ids)
    rng = random.Random(stable_seed(stream, seed))
    spread = max(1, len(ids))
    return {j: rng.randint(1, spread) for j in ids}


def ghaffari_schedule_bound(congestion: int, dilation: int, n: int) -> int:
    """Theorem 1.3: O(congestion + dilation * log n) completion rounds."""
    log_n = max(1, int(math.ceil(math.log2(max(n, 2)))))
    return congestion + dilation * log_n


@dataclass
class ScheduleMeasurement:
    """Theorem 1.4's quantities as measured on a real execution."""

    ell: int
    dilation: int
    completion_round: int
    max_distinct_bfs_per_node_round: int
    max_message_words: int
    messages: int
    max_edge_congestion: int

    @property
    def bound_rounds(self) -> int:
        """The Õ(ell + dilation) reference scale of Theorem 1.4(i)."""
        return self.ell + self.dilation


def measure_bfs_schedule(graph: Graph, roots: Optional[List[int]] = None, *,
                         seed: int = 0,
                         max_depth: Optional[int] = None
                         ) -> ScheduleMeasurement:
    """Run ell delayed BFS algorithms together and measure Theorem 1.4.

    ``dilation`` is the maximum eccentricity-limited running time of any
    single BFS (bounded by the depth cap when one is given).
    """
    root_list = list(graph.nodes()) if roots is None else list(roots)
    ell = len(root_list)
    delays = random_delays(root_list, "sched-delays", seed)
    mark_phase("bfs-schedule")
    execution = run_machines(
        graph,
        lambda info: BFSCollectionMachine(info, delays, max_depth=max_depth),
        word_limit=message_budget(graph.n), seed=seed)
    max_ids = 0
    for adapter in execution.algorithms.values():
        max_ids = max(max_ids, adapter.machine.max_inbox_ids)
    # Dilation: each BFS alone runs for its root's (capped) eccentricity.
    result = CollectionResult.from_outputs(execution.outputs)
    dilation = max(result.dist[result.reached].tolist(), default=0)
    if max_depth is not None:
        dilation = min(dilation, max_depth)

    return ScheduleMeasurement(
        ell=ell,
        dilation=dilation,
        completion_round=execution.rounds,
        max_distinct_bfs_per_node_round=max_ids,
        max_message_words=execution.metrics.max_message_words,
        messages=execution.metrics.messages,
        max_edge_congestion=execution.metrics.max_edge_congestion,
    )
