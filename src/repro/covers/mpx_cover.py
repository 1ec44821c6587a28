"""(k, W)-sparse neighborhood covers in BCONGEST (Corollary 2.9).

Definition (§2.4): a collection of trees C such that (1) every tree has
depth O(W k), (2) each vertex appears in Õ(k n^{1/k}) trees, and (3)
some tree contains the entire W-neighborhood of each vertex.

Construction (an MPX-shift cover in place of Elkin's algorithm [13],
with the same guarantees and the same broadcast-based structure): run
r = Θ(n^{1/k} log n) independent repetitions of exponential-shift ball
carving with rate beta = ln(n) / (2 k W).

* Each repetition partitions V into clusters spanned by trees of depth
  <= 2 * cap ~ O(kW log-ish); since every vertex joins exactly one
  cluster per repetition, the per-vertex overlap is exactly r =
  Õ(n^{1/k})  -- property (2).
* By memorylessness of the shift distribution, a vertex's W-ball lies
  entirely inside its cluster ("W-padded") with probability >=
  e^{-2 beta W} = n^{-1/k} per repetition, so with r repetitions every
  vertex is padded somewhere w.h.p. -- property (3).

Each repetition is one MPX machine run: broadcast complexity exactly n,
so the total broadcast complexity is Õ(n^{1+1/k}) and Theorem 2.1 turns
the construction into an Õ(n²)-message CONGEST algorithm
(:mod:`repro.core.cover_app`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.baselines.reference import bfs_distances
from repro.congest.machine import Machine, next_wake
from repro.congest.metrics import Metrics
from repro.congest.network import NodeInfo
from repro.decomposition.mpx import Clustering, MPXMachine
from repro.graphs.graph import Graph


def cover_beta(n: int, k: int, w: int) -> float:
    return math.log(max(n, 2)) / (2.0 * k * w)


def cover_repetitions(n: int, k: int, *, boost: float = 3.0) -> int:
    return max(1, int(math.ceil(
        boost * (max(n, 2) ** (1.0 / k)) * math.log(max(n, 2)))))


@dataclass
class NeighborhoodCover:
    """The cover: one clustering per repetition, flattened into trees."""

    k: int
    w: int
    clusterings: List[Clustering]
    metrics: Metrics = field(default_factory=Metrics)

    def trees(self) -> List[Dict[int, Optional[int]]]:
        """Each tree as a parent map restricted to one cluster."""
        out = []
        for clustering in self.clusterings:
            for center, members in clustering.members().items():
                out.append({v: clustering.parent[v] for v in members})
        return out

    def trees_of_vertex(self, v: int) -> int:
        """Property (2): the number of trees containing v."""
        return sum(1 for c in self.clusterings if v in c.center_of)

    def max_depth(self) -> int:
        """Property (1): the maximum tree depth."""
        return max((c.max_radius() for c in self.clusterings), default=0)

    def padded_repetition(self, graph: Graph, v: int) -> Optional[int]:
        """Property (3): a repetition whose cluster of v contains the
        whole W-ball of v, or None."""
        ball = set(bfs_distances(graph, v, max_depth=self.w))
        for idx, clustering in enumerate(self.clusterings):
            center = clustering.center_of[v]
            members = {u for u, c in clustering.center_of.items()
                       if c == center}
            if ball <= members:
                return idx
        return None

    def verify(self, graph: Graph) -> Dict[str, float]:
        """Check all three properties; raise on a padding failure."""
        depth = self.max_depth()
        overlap = max(self.trees_of_vertex(v) for v in graph.nodes())
        unpadded = [v for v in graph.nodes()
                    if self.padded_repetition(graph, v) is None]
        if unpadded:
            raise AssertionError(
                f"vertices {unpadded} have no W-padded tree "
                "(w.h.p. event failed; increase repetitions)")
        return {
            "max_depth": depth,
            "max_overlap": overlap,
            "repetitions": len(self.clusterings),
            "depth_bound": 4 * self.k * self.w,   # O(kW) scale, cap-based
            "overlap_bound": cover_repetitions(graph.n, self.k),
        }


class CoverCollectionMachine(Machine):
    """All Õ(n^{1/k}) ball-carving repetitions as ONE BCONGEST machine.

    Repetition r runs in its own round window of T = 2*cap + 4 rounds
    (an MPX run finishes within 2*cap + 2 rounds; two silent rounds
    drain in-flight messages).  Packaging the whole construction as a
    single machine is what lets Corollary 2.9 pay the Theorem 2.1
    preprocessing once, rather than once per repetition.

    Wake rounds: besides mail, the machine acts only at the start round
    of each repetition's MPX sub-machine (mapped into its window) and at
    the final round ``reps * window``, where it halts.
    """

    def __init__(self, info, reps: int, beta: float, cap: int):
        super().__init__(info)
        self.reps = reps
        self.cap = cap
        self.window = 2 * cap + 4
        self.machines = []
        for rep in range(reps):
            sub_info = NodeInfo(
                id=info.id, neighbors=info.neighbors, n=info.n,
                weights=info.weights, in_weights=info.in_weights,
                input=None,
                seed=(info.seed * 1_000_003 + rep * 7919) & 0x7FFFFFFF)
            self.machines.append(MPXMachine(sub_info, beta=beta, cap=cap))
        self._output = [None] * reps

    def wake_round(self, rnd: int) -> Optional[int]:
        for rep in range(rnd // self.window, self.reps):
            offset = rep * self.window
            wake = next_wake(self.machines[rep], rnd - offset)
            if wake is not None:
                return offset + wake
        return self.reps * self.window

    def output(self):
        return list(self._output)

    def on_round(self, rnd: int, inbox):
        if self.halted:
            return None
        rep = (rnd - 1) // self.window
        local = (rnd - 1) % self.window + 1
        if rep >= self.reps:
            self.halted = True
            return None
        machine = self.machines[rep]
        payload = machine.on_round(local, inbox)
        self._output[rep] = machine.output()
        if rnd == self.reps * self.window:
            self.halted = True
        return payload


def build_cover_machine_factory(graph: Graph, k: int, w: int, *,
                                boost: float = 3.0):
    """Factory for the combined construction machine plus its shape."""
    n = graph.n
    beta = cover_beta(n, k, w)
    reps = cover_repetitions(n, k, boost=boost)
    cap = max(1, int(math.ceil(4 * k * w)))

    def factory(info):
        return CoverCollectionMachine(info, reps=reps, beta=beta, cap=cap)

    return factory, reps, beta, cap
