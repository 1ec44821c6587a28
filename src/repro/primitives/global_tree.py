"""Leader election, global BFS tree, and pipelined dissemination.

The preprocessing of both simulation frameworks starts the same way
(§2.2 / §3.2.1): "elect a leader, compute a BFS tree rooted in that
leader, aggregate the number of nodes n, and broadcast n to all nodes".
Section 3.3 additionally uses the tree to implement *shared randomness*:
the leader draws Theta(n log n) random bits and streams them down the
tree in a pipelined manner (Õ(n) rounds, Õ(n^2) messages).

Leader election here is min-ID flooding with suppression fused with BFS
tree construction: nodes adopt the lexicographically smallest
(leader, dist) pair they have heard of and re-broadcast on improvement.
Its message cost is O(m * U) where U is the number of times a node's
best-known leader improves -- O(m) on the low-diameter benchmark graphs
used here and O(m * D) in the worst case.  The paper invokes the
message-optimal election of Kutten et al. [25] for the general bound;
the difference only affects the additive Õ(m) preprocessing term that
every claim already carries (In >= m log n).

Two exact shortcuts serve the default engine, and both step aside
whenever :func:`repro.kernels.config.fallback_reason` names a reason (a
fault plan, a round profiler, or ``engine="reference"``), so those runs
go through the ``Network`` loop exactly as before:

* **Tree memo.**  :func:`build_global_tree` is deterministic in
  ``(graph, seed)``, and an APSP cell builds the same tree twice
  (shared randomness, then the Theorem 2.1 simulation's
  preprocessing).  The result is memoized per :class:`Graph` instance
  (``Graph._global_tree_cache``, never copied to derived graphs).
  Callers merge ``tree.metrics`` on every call, so records still meter
  both builds.
* **Exact dissemination.**  :func:`disseminate` streams words down a
  fixed tree on a fixed pipelined schedule, so its outcome is a closed
  form: every node outputs the whole stream, the run takes
  ``len(stream) + height`` rounds (1 for an empty stream), every tree
  edge carries every word, and congestion keys appear in order of
  sender depth, sender id, then child order.  Sizes, the first
  oversize or unsizable word, and the ``max_rounds`` check raise the
  ``Network`` run's errors with its texts.  A tree that is not a
  spanning tree over the graph's edges (never one this module builds)
  also runs on the ``Network``, which raises whatever it raises.
  ``tests/test_property.py`` checks the two paths equal on generated
  graphs and streams.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.congest.errors import AlgorithmError, MessageTooLarge
from repro.congest.metrics import Metrics, undirected
from repro.congest.network import (
    Algorithm,
    Inbox,
    NodeAPI,
    NodeInfo,
    payload_words,
    run_algorithm,
)
from repro.graphs.graph import Graph
from repro.kernels.config import fallback_reason
from repro.primitives.transport import tree_depths

# The Network's default message budget, which dissemination runs under.
_WORD_LIMIT = 8
# Livelock guard of the election and counting runs.
_TREE_ROUNDS = 1_000_000


@dataclass
class GlobalTree:
    """A rooted spanning tree known to the driver plus per-node locals."""

    root: int
    parent: Dict[int, Optional[int]]
    children: Dict[int, List[int]]
    depth: Dict[int, int]
    n: int
    metrics: Metrics

    @property
    def height(self) -> int:
        return max(self.depth.values()) if self.depth else 0


class _FloodElect(Algorithm):
    """Min-ID flood + BFS layering; re-broadcast on improvement."""

    def __init__(self, info: NodeInfo):
        super().__init__(info)
        self.best: Tuple[int, int] = (info.id, 0)  # (leader, dist)
        self.parent: Optional[int] = None

    def on_round(self, api: NodeAPI, rnd: int, inbox: Inbox) -> None:
        improved = rnd == 1
        for src, (leader, dist) in inbox:
            candidate = (leader, dist + 1)
            if candidate < self.best:
                self.best = candidate
                self.parent = src
                improved = True
        if improved:
            api.broadcast(self.best)
        api.set_output((self.best[0], self.best[1], self.parent))


class _CountAndAck(Algorithm):
    """Children discovery + subtree-size convergecast + n broadcast.

    Round 1: every non-root node tells its parent "I am your child",
    and every node wakes itself for round 2, when the count starts.
    Then each node, once it has subtree sizes from all children, sends
    its own subtree size up.  Finally the root broadcasts n back down.
    Past round 2 a node acts only on mail, so a count that stalls (a
    dropped or duplicated message under faults) ends the run at
    quiescence instead of spinning.
    """

    def __init__(self, info: NodeInfo):
        super().__init__(info)
        params = info.input
        self.parent: Optional[int] = params["parent"]
        self.children: List[int] = []
        self.child_counts: Dict[int, int] = {}
        self.phase = "discover"
        self.n: Optional[int] = None

    def on_round(self, api: NodeAPI, rnd: int, inbox: Inbox) -> None:
        for src, msg in inbox:
            kind, value = msg
            if kind == "child":
                self.children.append(src)
            elif kind == "count":
                self.child_counts[src] = value
            elif kind == "n":
                self.n = value
        if self.phase == "discover":
            if rnd == 1:
                if self.parent is not None:
                    api.send(self.parent, ("child", 0))
                api.wake_at(2)
                return
            self.phase = "count"
            self._maybe_send_count(api)
            if self.n is not None:  # a childless root: announce next round
                api.wake_at(rnd + 1)
            return
        self._maybe_send_count(api)
        if self.n is not None and self.phase != "done":
            self.phase = "done"
            for child in self.children:
                api.send(child, ("n", self.n))
            api.halt((self.n, tuple(sorted(self.children))))

    def _maybe_send_count(self, api: NodeAPI) -> None:
        if self.phase != "count":
            return
        if len(self.child_counts) == len(self.children):
            size = 1 + sum(self.child_counts.values())
            if self.parent is None:
                self.n = size
            else:
                api.send(self.parent, ("count", size))
                self.phase = "wait_n"


class _Disseminate(Algorithm):
    """Pipelined streaming of a word list down a known tree.

    The root emits one word per round; every node forwards the stream to
    its children with one round of latency.  Cost: (#tree edges) * len
    messages and height + len rounds -- the pipelined broadcast the paper
    uses for shared randomness in Section 3.3.
    """

    def __init__(self, info: NodeInfo):
        super().__init__(info)
        params = info.input
        self.children: List[int] = params["children"]
        self.stream: List[Any] = params.get("stream") or []
        self.is_root = params["is_root"]
        self.received: List[Any] = list(self.stream) if self.is_root else []
        self.sent = 0

    def on_round(self, api: NodeAPI, rnd: int, inbox: Inbox) -> None:
        for _src, word in inbox:
            self.received.append(word)
        while self.sent < len(self.received):
            word = self.received[self.sent]
            self.sent += 1
            for child in self.children:
                api.send(child, word)
            break  # one word per round per link
        api.set_output(tuple(self.received))
        if self.sent < len(self.received):
            api.wake_at(rnd + 1)


def build_global_tree(graph: Graph, *, seed: int = 0) -> GlobalTree:
    """Elect a leader and build its BFS tree; aggregate and broadcast n.

    Memoized per graph instance unless :func:`fallback_reason` sends the
    call to the ``Network`` (see the module docstring); callers share
    the returned tree and must not mutate it.
    """
    memo = graph._global_tree_cache if fallback_reason() is None else None
    if memo is not None:
        tree = memo.get(seed)
        if tree is None:
            tree = memo[seed] = _build_global_tree(graph, seed)
        return tree
    return _build_global_tree(graph, seed)


def _build_global_tree(graph: Graph, seed: int) -> GlobalTree:
    flood = run_algorithm(graph, _FloodElect, seed=seed,
                          max_rounds=_TREE_ROUNDS)
    metrics = flood.metrics.snapshot()
    parent = {v: flood.outputs[v][2] for v in graph.nodes()}
    leaders = {flood.outputs[v][0] for v in graph.nodes()}
    if len(leaders) != 1:
        raise RuntimeError("leader election did not converge "
                           "(is the graph connected?)")
    root = leaders.pop()

    count = run_algorithm(
        graph, _CountAndAck,
        inputs={v: {"parent": parent[v]} for v in graph.nodes()},
        seed=seed, max_rounds=_TREE_ROUNDS)
    metrics.merge(count.metrics)
    if any(output is None for output in count.outputs.values()):
        raise AlgorithmError("count aggregation did not converge")
    n_root = count.outputs[root][0]
    if n_root != graph.n:
        raise RuntimeError(f"count aggregation failed: {n_root} != {graph.n}")
    children = {v: list(count.outputs[v][1]) for v in graph.nodes()}
    depth = tree_depths(parent)
    return GlobalTree(root=root, parent=parent, children=children,
                      depth=depth, n=graph.n, metrics=metrics)


def disseminate(graph: Graph, tree: GlobalTree, stream: List[Any], *,
                seed: int = 0,
                max_rounds: int = 5_000_000) -> Tuple[Dict[int, tuple], Metrics]:
    """Stream ``stream`` (a list of one-word payloads) to every node.

    Computed in closed form unless :func:`fallback_reason` sends the
    call to the ``Network`` (see the module docstring).
    """
    levels = _tree_levels(graph, tree) if fallback_reason() is None else None
    if levels is None:
        outputs, metrics = _disseminate_on_network(graph, tree, stream,
                                                   seed, max_rounds)
    else:
        outputs, metrics = _disseminate_exact(graph, tree, stream, levels,
                                              max_rounds)
    for v in graph.nodes():
        if len(outputs[v]) != len(stream):
            raise RuntimeError("dissemination incomplete at node %d" % v)
    return outputs, metrics


def _tree_levels(graph: Graph, tree: GlobalTree) -> Optional[List[List[int]]]:
    """``tree``'s nodes level by level from the root, or None unless it
    is a spanning tree of ``graph`` whose child links are graph edges."""
    if tree.root not in graph.nodes():
        return None
    nbr_sets = graph.nbr_sets()
    seen = {tree.root}
    levels = [[tree.root]]
    while True:
        below: List[int] = []
        for v in levels[-1]:
            kids = tree.children.get(v)
            if kids is None:
                return None
            for c in kids:
                if c in seen or c not in nbr_sets[v]:
                    return None
                seen.add(c)
                below.append(c)
        if not below:
            break
        levels.append(below)
    return levels if len(seen) == graph.n else None


def _disseminate_exact(graph: Graph, tree: GlobalTree, stream: List[Any],
                       levels: List[List[int]], max_rounds: int,
                       ) -> Tuple[Dict[int, tuple], Metrics]:
    """What :class:`_Disseminate` on a ``Network`` yields, in closed form.

    Word ``i`` leaves a depth-``d`` node in round ``i + 1 + d``, so the
    root sends it first (to its first child, in round ``i + 1``): the
    first word that cannot be sent fails there, unless round
    ``max_rounds + 1`` comes first.
    """
    words = list(stream or ())
    children = tree.children
    edges = [(v, c) for level in levels for v in sorted(level)
             for c in children[v]]
    sizes: Counter = Counter()  # first-use order = stream order
    if edges:
        root = tree.root
        for i, word in enumerate(words[:max(max_rounds, 0)]):
            rnd = i + 1
            try:
                size = payload_words(word)
            except TypeError as exc:
                raise AlgorithmError(
                    f"node {root}, round {rnd}: {exc}") from exc
            if size > _WORD_LIMIT:
                raise MessageTooLarge(
                    f"{size} words > limit {_WORD_LIMIT} "
                    f"(node {root} -> {children[root][0]}, round {rnd})")
            sizes[max(1, size)] += 1
    rounds = len(words) + len(levels) - 1 if words else 1
    if rounds > max_rounds:
        raise AlgorithmError(
            f"exceeded max_rounds={max_rounds}; likely livelock")
    metrics = Metrics(rounds=rounds)
    if edges and words:
        k = len(edges)
        metrics.messages = k * len(words)
        metrics.words = k * sum(size * count for size, count in sizes.items())
        metrics.max_message_words = max(sizes)
        for size, count in sizes.items():
            metrics.message_sizes[size] = k * count
        congestion = metrics.edge_congestion
        for v, c in edges:
            congestion[undirected(v, c)] = len(words)
    received = tuple(words)
    return {v: received for v in graph.nodes()}, metrics


def _disseminate_on_network(graph: Graph, tree: GlobalTree,
                            stream: List[Any], seed: int, max_rounds: int,
                            ) -> Tuple[Dict[int, tuple], Metrics]:
    """The reference: one :class:`_Disseminate` per node on a ``Network``."""
    inputs = {
        v: {
            "children": tree.children[v],
            "is_root": v == tree.root,
            "stream": stream if v == tree.root else None,
        }
        for v in graph.nodes()
    }
    execution = run_algorithm(graph, _Disseminate, inputs=inputs, seed=seed,
                              word_limit=_WORD_LIMIT, max_rounds=max_rounds)
    return execution.outputs, execution.metrics
