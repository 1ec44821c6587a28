"""Baswana-Sen cluster hierarchies (§3.1, after [5]).

For a parameter eps in (0, 1] and kappa = ceil(1/eps), the hierarchy is a
sequence (C_i, L_i, F_i) for i = 0..kappa:

* C_0 is the clustering into singletons; C_kappa is empty.
* Level i+1 keeps the clusters whose centers survived sampling (each
  center of a level-i cluster survives independently with probability
  n^-eps); every node of a non-sampled cluster either *joins* a
  neighboring sampled cluster through a single edge (which becomes a
  cluster tree edge, giving level-(i+1) trees of radius i+1) or, if it
  has no sampled neighboring cluster, is finalized into the low-degree
  set L_{i+1} and records one inter-cluster communication edge into each
  neighboring level-i cluster other than its own (the set F_{i+1}).

Theorem 3.3's properties -- (a) radius-i clusters, (b) O(n^eps log n)
F-edges per L_i node w.h.p., (c) every edge is served by a shared
cluster or an F-edge -- are verified exhaustively by
:func:`verify_hierarchy` in tests.  Theorem 3.4's construction cost
(O(kappa) rounds, O(kappa m) messages) is measured by benchmark E9; a
byproduct, the (2 kappa - 1)-spanner of [5] (cluster tree edges plus one
F/join edge per adjacent cluster), is exposed by :meth:`spanner_edges`
and its stretch/size bounds are also part of E9.

The construction is executed distributedly: per level, one broadcast
round announcing memberships, a downcast of the centers' coin flips over
the cluster trees, one broadcast round by sampled-cluster members, and
point-to-point join/F notifications.  All of it is metered.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.congest.metrics import Metrics
from repro.congest.network import Algorithm, Inbox, NodeAPI, NodeInfo, run_algorithm
from repro.graphs.graph import EdgeKey, Graph, undirected
from repro.primitives.transport import path_from_root, route_downcast


@dataclass
class HierarchyLevel:
    """One level (C_i, L_i, F_i) of the hierarchy."""

    index: int
    cluster_of: Dict[int, int] = field(default_factory=dict)
    parent: Dict[int, Optional[int]] = field(default_factory=dict)
    dist: Dict[int, int] = field(default_factory=dict)
    low_degree: Set[int] = field(default_factory=set)
    f_edges: Set[Tuple[int, int]] = field(default_factory=set)

    def members(self) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = {}
        for v, c in self.cluster_of.items():
            out.setdefault(c, []).append(v)
        for c in out:
            out[c].sort()
        return out

    def tree_edges(self) -> Set[EdgeKey]:
        return {undirected(v, p) for v, p in self.parent.items()
                if p is not None}

    def max_radius(self) -> int:
        return max(self.dist.values()) if self.dist else 0


@dataclass
class BaswanaSenHierarchy:
    """The full (kappa + 1)-level hierarchy plus construction metrics."""

    eps: float
    kappa: int
    levels: List[HierarchyLevel]
    metrics: Metrics
    pruned: bool = False

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def cluster_edges(self) -> Set[EdgeKey]:
        """Union of all cluster tree edges over all levels (Lemma 3.7)."""
        out: Set[EdgeKey] = set()
        for level in self.levels:
            out |= level.tree_edges()
        return out

    def all_f_edges(self) -> Set[Tuple[int, int]]:
        out: Set[Tuple[int, int]] = set()
        for level in self.levels:
            out |= level.f_edges
        return out

    def clusters_of_node(self, v: int) -> List[Tuple[int, int]]:
        """[(level, center)] for every cluster containing v."""
        out = []
        for level in self.levels:
            if v in level.cluster_of:
                out.append((level.index, level.cluster_of[v]))
        return out

    def finalized_level(self, v: int) -> int:
        """The unique i with v in L_i."""
        for level in self.levels:
            if v in level.low_degree:
                return level.index
        raise KeyError(f"node {v} is in no low-degree set")

    def spanner_edges(self, graph: Graph) -> Set[EdgeKey]:
        """The (2 kappa - 1)-spanner of [5]: tree edges + F/join edges."""
        out = self.cluster_edges()
        for level in self.levels:
            for (v, u) in level.f_edges:
                out.add(undirected(v, u))
        return out

    def max_f_degree(self) -> int:
        """max over v, i of the number of F_i edges incident to v in L_i."""
        worst = 0
        for level in self.levels:
            per_node: Dict[int, int] = {}
            for (v, _u) in level.f_edges:
                per_node[v] = per_node.get(v, 0) + 1
            if per_node:
                worst = max(worst, max(per_node.values()))
        return worst


class _OneShot(Algorithm):
    """Round 1: emit the messages listed in the node's input; round 2:
    record the inbox as output.  The basic metered round used for the
    membership announcements and join/F notifications."""

    def on_round(self, api: NodeAPI, rnd: int, inbox: Inbox) -> None:
        if rnd == 1:
            spec = self.info.input or {}
            if spec.get("bcast") is not None:
                api.broadcast(spec["bcast"])
            for dst, payload in spec.get("sends", []):
                api.send(dst, payload)
            api.wake_at(2)
        else:
            api.halt(list(inbox))


def _one_shot(graph: Graph, spec: Dict[int, dict], *, bcast_only: bool,
              word_limit: int = 8) -> Tuple[Dict[int, list], Metrics]:
    execution = run_algorithm(graph, _OneShot, inputs=spec,
                              bcast_only=bcast_only, word_limit=word_limit)
    return execution.outputs, execution.metrics


def sampling_probability(n: int, eps: float) -> float:
    return min(1.0, max(n, 2) ** (-eps))


def build_baswana_sen(graph: Graph, eps: float, *, seed: int = 0,
                      base: Optional[dict] = None) -> BaswanaSenHierarchy:
    """Construct a (kappa + 1)-level Baswana-Sen hierarchy (Theorem 3.4),
    kappa = ceil(1 / eps).

    With ``base=None`` level 0 is the singleton clustering of [5].
    ``base`` may instead be a decomposition snapshot (the dict of
    :func:`repro.decomposition.pipeline.ldc_snapshot`): level 0 is then
    the snapshot's clustering -- the staged-pipeline composition where
    the LDC decomposition seeds the hierarchy, trading the radius-i
    cluster guarantee for radius i + r (r the base radius, which
    :func:`verify_hierarchy` accounts for).  Level-0 trees come from the
    snapshot's ``parent`` map, so they are BFS trees of the base
    clusters and every structural invariant above level 0 is unchanged.
    """
    n = graph.n
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    kappa = max(1, math.ceil(1.0 / eps))
    p_sample = sampling_probability(n, eps)
    metrics = Metrics()

    # Level 0: singletons, or the supplied base clustering.
    level0 = HierarchyLevel(index=0)
    if base is None:
        for v in graph.nodes():
            level0.cluster_of[v] = v
            level0.parent[v] = None
            level0.dist[v] = 0
    else:
        for v in graph.nodes():
            level0.cluster_of[v] = base["center_of"][v]
            level0.parent[v] = base["parent"][v]
            level0.dist[v] = base["dist"][v]
    levels = [level0]

    for i in range(kappa - 1):
        current = levels[i]
        nxt = HierarchyLevel(index=i + 1)

        # (1) Announce level-i membership: every clustered node
        # broadcasts (center, dist); the rest broadcast nothing.
        spec = {
            v: {"bcast": ("m", current.cluster_of[v], current.dist[v])}
            for v in current.cluster_of
        }
        heard, m = _one_shot(graph, spec, bcast_only=True)
        metrics.merge(m)
        nbr_cluster: Dict[int, Dict[int, Tuple[int, int]]] = {}
        for v in graph.nodes():
            table: Dict[int, Tuple[int, int]] = {}
            for src, (_tag, center, dist) in heard[v]:
                best = table.get(center)
                if best is None or src < best[0]:
                    table[center] = (src, dist)
            nbr_cluster[v] = table

        # (2) Centers flip sampling coins (center-local randomness).
        sampled_centers = set()
        centers = set(current.cluster_of.values())
        for c in sorted(centers):
            from repro.congest.network import stable_seed
            rng = random.Random(stable_seed("sample", seed, i, c))
            if rng.random() < p_sample:
                sampled_centers.add(c)

        # (3) Downcast the sampling bit ("s", 0 or 1: 2 words, plus the
        # destination) over each level-i cluster tree.
        routes = [(path_from_root(current.parent, v), 1, 3)
                  for v, c in current.cluster_of.items() if v != c]
        if routes:
            metrics.merge(route_downcast(graph, routes))

        # (4) Sampled-cluster members announce; others join or finalize.
        spec = {}
        for v, c in current.cluster_of.items():
            if c in sampled_centers:
                spec[v] = {"bcast": ("a", c, current.dist[v])}
        heard, m = _one_shot(graph, spec, bcast_only=True)
        metrics.merge(m)

        joins: List[Tuple[int, int]] = []  # (child, chosen parent)
        f_sends: List[Tuple[int, int]] = []
        for v, c in sorted(current.cluster_of.items()):
            if c in sampled_centers:
                nxt.cluster_of[v] = c
                nxt.parent[v] = current.parent[v]
                nxt.dist[v] = current.dist[v]
                continue
            # Offers from neighbors in sampled clusters.
            offers = [(center, dist, src) for src, (_t, center, dist)
                      in heard[v]]
            if offers:
                center, dist, parent = min(offers)
                nxt.cluster_of[v] = center
                nxt.parent[v] = parent
                nxt.dist[v] = dist + 1
                joins.append((v, parent))
            else:
                nxt.low_degree.add(v)
                for center, (rep, _d) in sorted(nbr_cluster[v].items()):
                    if center != c:
                        nxt.f_edges.add((v, rep))
                        f_sends.append((v, rep))

        # (5) Join / F notifications (point-to-point CONGEST round).
        spec = {}
        for child, parent in joins:
            spec.setdefault(child, {"sends": []})["sends"].append(
                (parent, ("j", i + 1)))
        for v, rep in f_sends:
            spec.setdefault(v, {"sends": []})["sends"].append(
                (rep, ("f", i + 1)))
        if spec:
            _heard, m = _one_shot(graph, spec, bcast_only=False)
            metrics.merge(m)
        levels.append(nxt)

    # Top level kappa: everyone still clustered is finalized.
    current = levels[kappa - 1]
    top = HierarchyLevel(index=kappa)
    if current.cluster_of:
        spec = {
            v: {"bcast": ("m", current.cluster_of[v], current.dist[v])}
            for v in current.cluster_of
        }
        heard, m = _one_shot(graph, spec, bcast_only=True)
        metrics.merge(m)
        f_sends = []
        for v, c in sorted(current.cluster_of.items()):
            top.low_degree.add(v)
            table: Dict[int, int] = {}
            for src, (_t, center, _d) in heard[v]:
                if center != c and (center not in table or src < table[center]):
                    table[center] = src
            for center, rep in sorted(table.items()):
                top.f_edges.add((v, rep))
                f_sends.append((v, rep))
        spec = {}
        for v, rep in f_sends:
            spec.setdefault(v, {"sends": []})["sends"].append((rep, ("f", kappa)))
        if spec:
            _heard, m = _one_shot(graph, spec, bcast_only=False)
            metrics.merge(m)
    levels.append(top)

    return BaswanaSenHierarchy(eps=eps, kappa=kappa, levels=levels,
                               metrics=metrics)


def verify_hierarchy(graph: Graph, h: BaswanaSenHierarchy) -> Dict[str, int]:
    """Exhaustively check Theorem 3.3's properties (a) and (c) plus the
    partition structure; return summary statistics (property (b) is
    probabilistic and measured rather than asserted).
    """
    # Partition: every node is finalized exactly once, and L_{i+1} u
    # V_{i+1} partitions V_i.
    finalized: Dict[int, int] = {}
    for level in h.levels:
        for v in level.low_degree:
            assert v not in finalized, f"{v} finalized twice"
            finalized[v] = level.index
    assert set(finalized) == set(graph.nodes()), "every node must finalize"
    for i in range(1, h.n_levels):
        prev = set(h.levels[i - 1].cluster_of)
        here = set(h.levels[i].cluster_of) | h.levels[i].low_degree
        assert here == prev, f"level {i} does not partition level {i - 1}"
        assert not (set(h.levels[i].cluster_of) & h.levels[i].low_degree)

    # (a) radius-(i + base_r) connected clusters spanned by their trees
    # (base_r = 0 for the singleton base of [5]; a seeded hierarchy adds
    # its level-0 clustering radius at every level).
    base_r = h.levels[0].max_radius()
    for level in h.levels[:-1]:
        for v, c in level.cluster_of.items():
            assert level.dist[v] <= level.index + base_r
            p = level.parent[v]
            if v == c:
                assert p is None
            else:
                assert p is not None and p in graph.neighbors(v)
                assert level.cluster_of[p] == c
                assert level.dist[p] == level.dist[v] - 1

    # (c) every graph edge is served.
    for u, v in graph.edges():
        for a, b in ((u, v), (v, u)):
            i = finalized[a]
            j = finalized[b]
            if i > j:
                continue
            prev = h.levels[i - 1]
            served = prev.cluster_of.get(a) == prev.cluster_of.get(b) \
                and prev.cluster_of.get(a) is not None
            if not served:
                b_cluster = prev.cluster_of[b]
                for (x, w) in h.levels[i].f_edges:
                    if x == a and prev.cluster_of.get(w) == b_cluster:
                        served = True
                        break
            assert served, f"edge ({a},{b}) not served at level {i}"

    return {
        "levels": h.n_levels,
        "max_radius": max(l.max_radius() for l in h.levels[:-1]),
        "f_edges": len(h.all_f_edges()),
        "cluster_edges": len(h.cluster_edges()),
        "max_f_degree": h.max_f_degree(),
    }
