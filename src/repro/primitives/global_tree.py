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

Three exact shortcuts serve the default engine, and all three step
aside whenever :func:`repro.kernels.config.fallback_reason` names a
reason (a fault plan, a round profiler, or ``engine="reference"``), so
those runs go through the ``Network`` loop exactly as before:

* **Exact election and count.**  Without faults both tree runs are
  deterministic, so :func:`build_global_tree` computes them in closed
  form.  The election is a numpy min-propagation of a per-node key
  over the CSR, one hop per round: the key is the node id (the key
  ``_FloodElect`` floods; a different election rule changes the key in
  the machine and in ``_elect_exact`` together).  A node broadcasts in
  round 1 and again whenever its best key drops, so with ``I_v``
  broadcasts at ``v`` the election sends ``sum(I_v * deg(v))`` two-word
  messages, edge ``{u, v}`` carries ``I_u + I_v`` of them, and the run
  ends one round after the last improvement.  Each node's parent is
  its least-id neighbor one hop nearer the leader.  The count sends
  three two-word messages over each tree edge (child and count up, n
  down) and takes
  ``2 + 2 * height`` rounds (3 for a lone node).  Metrics, congestion
  insertion order and the errors of a disconnected graph or of the
  ``_TREE_ROUNDS`` guard are the ``Network`` runs'.
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

``tests/test_property.py`` checks the exact tree and the exact
dissemination equal to their ``Network`` runs on generated graphs and
streams, disconnected graphs included.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

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

    Computed in closed form and memoized per graph instance unless
    :func:`fallback_reason` sends the call to the ``Network`` (see the
    module docstring); callers share the returned tree and must not
    mutate it.
    """
    if fallback_reason() is not None:
        return _build_global_tree(graph, seed, exact=False)
    memo = graph._global_tree_cache
    tree = memo.get(seed)
    if tree is None:
        tree = memo[seed] = _build_global_tree(graph, seed, exact=True)
    return tree


def _build_global_tree(graph: Graph, seed: int, *,
                       exact: bool) -> GlobalTree:
    if exact:
        root, parent, metrics = _elect_exact(graph)
    else:
        root, parent, metrics = _elect_on_network(graph, seed)
    depth = tree_depths(parent)
    if exact:
        children, count = _count_exact(graph, parent, depth)
    else:
        children, count = _count_on_network(graph, root, parent, seed)
    metrics.merge(count)
    return GlobalTree(root=root, parent=parent, children=children,
                      depth=depth, n=graph.n, metrics=metrics)


def _livelock() -> AlgorithmError:
    """The ``Network``'s error once a tree run passes ``_TREE_ROUNDS``."""
    return AlgorithmError(
        f"exceeded max_rounds={_TREE_ROUNDS}; likely livelock")


def _elect_exact(graph: Graph,
                 ) -> Tuple[int, Dict[int, Optional[int]], Metrics]:
    """What :class:`_FloodElect` on a ``Network`` yields, in closed form.

    A min-propagation over the CSR, one hop per round.  Every node
    broadcasts in round 1 and again in each round its best key drops.
    A pair heard in round ``r`` is ``r - 2`` hops old, so one round's
    candidates all carry the same distance, larger than that of any
    best a node already holds: ``(leader, dist)`` improves exactly when
    the least key heard is below the node's own.  With ``I_v``
    broadcasts at node ``v``, edge ``{u, v}`` carries ``I_u + I_v``
    two-word messages; every edge is first used in round 1, by its
    lower endpoint in ``graph.edge_keys()`` order.
    """
    n = graph.n
    indptr, nbrs = graph._indptr, graph._indices
    sender = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    # _FloodElect floods node ids; another election rule changes this
    # key and the machine's payload together.
    keys = np.arange(n, dtype=np.int64)
    best = keys.copy()
    depth = np.zeros(n, dtype=np.int64)
    sends = np.ones(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    rnd = 1
    while True:
        slots = active[sender]
        if not slots.any():
            break
        rnd += 1  # the receivers act
        heard = np.full(n, np.iinfo(np.int64).max)
        np.minimum.at(heard, nbrs[slots], best[sender[slots]])
        active = heard < best
        if not active.any():
            break
        best[active] = heard[active]
        depth[active] = rnd - 1
        sends += active
    if rnd > _TREE_ROUNDS:
        raise _livelock()
    if n == 0 or (best != best.min()).any():
        raise RuntimeError("leader election did not converge "
                           "(is the graph connected?)")
    root = int(np.argmin(keys))
    # The first of the least-id senders one hop nearer wins: inboxes
    # are sorted by sender and only a strictly smaller pair replaces.
    nearer = depth[nbrs] == depth[sender] - 1
    up = np.full(n, n, dtype=np.int64)
    np.minimum.at(up, sender[nearer], nbrs[nearer])
    parent: Dict[int, Optional[int]] = dict(enumerate(up.tolist()))
    parent[root] = None

    messages = int(sends @ np.diff(indptr))
    metrics = Metrics(rounds=rnd, messages=messages,
                      broadcasts=int(sends.sum()), words=2 * messages)
    if messages:
        metrics.max_message_words = 2
        metrics.message_sizes[2] = messages
        edge_keys = graph.edge_keys()
        load = (sends[sender] + sends[nbrs]).tolist()
        metrics.edge_congestion.update(dict(zip(
            chain.from_iterable(edge_keys[v] for v in range(n)), load)))
    return root, parent, metrics


def _count_exact(graph: Graph, parent: Dict[int, Optional[int]],
                 depth: Dict[int, int],
                 ) -> Tuple[Dict[int, List[int]], Metrics]:
    """What :class:`_CountAndAck` on a ``Network`` yields, in closed form.

    Every tree edge carries three two-word messages (child, count, n),
    first used in round 1 in ascending child id.  A node of subtree
    height ``h`` reports its count in round ``2 + h``, so the root
    learns n in round ``2 + height`` and the deepest leaves hear it in
    round ``2 + 2 * height``; a lone root announces to nobody in round 3.
    """
    rounds = 2 + 2 * max(depth.values()) if graph.n > 1 else 3
    if rounds > _TREE_ROUNDS:
        raise _livelock()
    children: Dict[int, List[int]] = {v: [] for v in graph.nodes()}
    metrics = Metrics(rounds=rounds)
    congestion = metrics.edge_congestion
    for v, p in parent.items():  # ascending v
        if p is not None:
            children[p].append(v)
            congestion[undirected(v, p)] = 3
    messages = 3 * (graph.n - 1)
    if messages:
        metrics.messages = messages
        metrics.words = 2 * messages
        metrics.max_message_words = 2
        metrics.message_sizes[2] = messages
    return children, metrics


def _elect_on_network(graph: Graph, seed: int,
                      ) -> Tuple[int, Dict[int, Optional[int]], Metrics]:
    """The reference election: one :class:`_FloodElect` per node."""
    flood = run_algorithm(graph, _FloodElect, seed=seed,
                          max_rounds=_TREE_ROUNDS)
    parent = {v: flood.outputs[v][2] for v in graph.nodes()}
    leaders = {flood.outputs[v][0] for v in graph.nodes()}
    if len(leaders) != 1:
        raise RuntimeError("leader election did not converge "
                           "(is the graph connected?)")
    return leaders.pop(), parent, flood.metrics.snapshot()


def _count_on_network(graph: Graph, root: int,
                      parent: Dict[int, Optional[int]], seed: int,
                      ) -> Tuple[Dict[int, List[int]], Metrics]:
    """The reference count: one :class:`_CountAndAck` per node."""
    count = run_algorithm(
        graph, _CountAndAck,
        inputs={v: {"parent": parent[v]} for v in graph.nodes()},
        seed=seed, max_rounds=_TREE_ROUNDS)
    if any(output is None for output in count.outputs.values()):
        raise AlgorithmError("count aggregation did not converge")
    n_root = count.outputs[root][0]
    if n_root != graph.n:
        raise RuntimeError(f"count aggregation failed: {n_root} != {graph.n}")
    children = {v: list(count.outputs[v][1]) for v in graph.nodes()}
    return children, count.metrics


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
