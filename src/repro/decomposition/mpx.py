"""The Miller-Peng-Xu (MPX) low-diameter decomposition [28], distributed.

Each node u draws a shift delta_u from a (discrete) geometric
distribution with rate ``beta`` and starts a cluster-growing flood at
time ``cap - delta_u``; every node joins the cluster whose *shifted
distance* d(u, v) - delta_u is smallest (ties broken by center ID).
With integer shifts the arrival round of u's flood at v is exactly
``cap - delta_u + d(u, v)``, so first-arrival adoption implements the
shifted-distance argmin exactly, and the tie-breaking rule makes every
cluster connected and spanned by the adoption tree (strong diameter
<= 2 * max-shift = O(log n / beta) w.h.p.).

The separation property -- each node neighbors O(log n) clusters w.h.p.
for constant beta (Corollary 3.9 of Haeupler-Wajc [18], used by the
paper's Lemma 2.4) -- follows from the memorylessness of the shift
distribution; benchmark E1 measures it.

The same machine with rate beta = ln(n) / (2kW) is the ball-carving step
of the neighborhood-cover construction (:mod:`repro.covers.mpx_cover`,
which substitutes it for Elkin's cover algorithm); both package their
flood outputs with the one :func:`clustering_from_outputs`.

The machine is BCONGEST with broadcast complexity exactly n (each node
broadcasts once, upon adoption), and runs in O(cap + max cluster radius)
= O(log n / beta) rounds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.congest.machine import Machine, run_machines
from repro.congest.metrics import Metrics
from repro.congest.network import Inbox, NodeInfo
from repro.graphs.graph import Graph


def geometric_shift(rng: random.Random, beta: float, cap: int) -> int:
    """A draw from the discrete analogue of Exp(beta), capped at ``cap``.

    P(delta >= k) = exp(-beta * k); the cap is hit with probability
    exp(-beta * cap), negligible for cap = Theta(log n / beta).
    """
    u = rng.random()
    if u <= 0:
        return cap
    shift = int(-math.log(u) / beta)
    return min(shift, cap)


def shift_cap(n: int, beta: float) -> int:
    """Cap such that P(any of n draws is capped) <= n^-3."""
    return max(1, int(math.ceil(4 * math.log(max(n, 2)) / beta)))


@dataclass
class Clustering:
    """Result of one MPX run.

    ``center_of[v]`` is v's cluster center; ``dist[v]`` its hop distance
    to the center inside the cluster; ``parent[v]`` the tree edge used to
    adopt (None at centers).  ``neighbor_clusters[v]`` maps each center
    of a cluster adjacent to v (its own included) to the lexicographically
    smallest neighbor of v in that cluster -- exactly the local knowledge
    needed to choose the LDC edge set F (Definition 2.3).
    """

    center_of: Dict[int, int]
    dist: Dict[int, int]
    parent: Dict[int, Optional[int]]
    neighbor_clusters: Dict[int, Dict[int, int]]
    metrics: Metrics
    beta: float

    def members(self) -> Dict[int, List[int]]:
        """center -> sorted member list."""
        out: Dict[int, List[int]] = {}
        for v, c in self.center_of.items():
            out.setdefault(c, []).append(v)
        for c in out:
            out[c].sort()
        return out

    @property
    def num_clusters(self) -> int:
        return len(set(self.center_of.values()))

    def max_radius(self) -> int:
        return max(self.dist.values()) if self.dist else 0

    def children(self) -> Dict[int, List[int]]:
        """Tree children map for upcast/downcast over cluster trees."""
        out: Dict[int, List[int]] = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                out[p].append(v)
        return out


class MPXMachine(Machine):
    """One node's part of the MPX flood.

    Broadcast payload: ``(center, dist_from_center)``.  A node adopts the
    first arrival (minimum arrival round = minimum shifted distance),
    breaking same-round ties by smaller center ID; its own candidacy
    counts as an arrival at round ``cap - delta + 1``.
    """

    def __init__(self, info: NodeInfo, beta: float = 0.5,
                 cap: Optional[int] = None):
        super().__init__(info)
        params = info.input or {}
        self.beta = params.get("beta", beta)
        self.cap = params.get("cap", cap) or shift_cap(info.n, self.beta)
        self.delta = geometric_shift(self.rng, self.beta, self.cap)
        self.start = self.cap - self.delta + 1
        self.center: Optional[int] = None
        self.dist: Optional[int] = None
        self.parent: Optional[int] = None
        self.heard: Dict[int, int] = {}  # neighbor -> its center

    def wake_round(self, rnd: int) -> Optional[int]:
        if self.center is None:
            return self.start
        return None

    def on_round(self, rnd: int, inbox: Inbox) -> Optional[Tuple[int, int]]:
        # Record neighbors' adoptions regardless of our own state; this
        # is the "who is in which neighboring cluster" knowledge that the
        # LDC edge set F is built from.
        best: Optional[Tuple[int, int, int]] = None  # (center, dist, src)
        for src, (center, dist) in inbox:
            self.heard[src] = center
            # Deterministic tie-break including the sender, so that the
            # adoption (and hence the cluster tree) is independent of
            # inbox ordering -- required for the execution-mode
            # equivalence of the Theorem 2.1 simulation.
            if best is None or (center, dist, src) < best:
                best = (center, dist, src)
        if self.center is not None:
            self.set_output(self._result())
            return None
        candidates: List[Tuple[int, int, Optional[int]]] = []
        if best is not None:
            candidates.append((best[0], best[1] + 1, best[2]))
        if rnd >= self.start:
            candidates.append((self.info.id, 0, None))
        if not candidates:
            return None
        center, dist, parent = min(candidates)
        self.center, self.dist, self.parent = center, dist, parent
        self.set_output(self._result())
        return (center, dist)

    def _result(self):
        return {
            "center": self.center,
            "dist": self.dist,
            "parent": self.parent,
            "heard": dict(self.heard),
            "delta": self.delta,
        }


def clustering_from_outputs(graph: Graph, outputs: Dict[int, dict],
                            beta: float, metrics: Metrics) -> Clustering:
    """Package one MPX flood's per-node outputs as a :class:`Clustering`.

    Each node's table of neighboring clusters comes from the adoptions
    it heard; a neighbor it never heard from counts in its own cluster.
    """
    center_of: Dict[int, int] = {}
    dist: Dict[int, int] = {}
    parent: Dict[int, Optional[int]] = {}
    for v in graph.nodes():
        out = outputs[v]
        center_of[v] = out["center"]
        dist[v] = out["dist"]
        parent[v] = out["parent"]
    neighbor_clusters: Dict[int, Dict[int, int]] = {}
    for v in graph.nodes():
        heard = outputs[v]["heard"]
        table: Dict[int, int] = {}
        for nbr in graph.neighbors(v):
            c = heard.get(nbr, center_of[nbr])
            if c not in table or nbr < table[c]:
                table[c] = nbr
        neighbor_clusters[v] = table
    return Clustering(center_of=center_of, dist=dist, parent=parent,
                      neighbor_clusters=neighbor_clusters,
                      metrics=metrics, beta=beta)


def run_mpx(graph: Graph, *, beta: float = 0.5, seed: int = 0) -> Clustering:
    """Execute one MPX decomposition on the network and package it."""
    execution = run_machines(
        graph, lambda info: MPXMachine(info, beta=beta),
        word_limit=8, seed=seed)
    for v in graph.nodes():
        out = execution.outputs[v]
        if out is None or out["center"] is None:
            raise RuntimeError(f"MPX left node {v} unclustered")
    return clustering_from_outputs(graph, execution.outputs, beta,
                                   execution.metrics)
