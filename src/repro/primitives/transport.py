"""Source-routed packet transport: the engine behind upcast and downcast.

Both of the paper's simulation frameworks move information along cluster
trees: *upcast* (Lemma 1.5) sends items from cluster members to the
center, *downcast* (Lemma 1.6) sends addressed messages from the center
to members, and both simulations append one final hop over an
inter-cluster communication edge (§2.2 step 1, §3.2.1 indirect/direct
send).

All three patterns are instances of one primitive: a set of packets, each
with a fixed path (a walk in the communication graph), delivered under
the CONGEST constraint of one message per edge per direction per round,
FIFO per link.  Every hop of every packet is a metered message, and
rounds advance exactly as the pipelining would.

:func:`route_packets` runs that schedule directly, as an exact per-round
engine over a ``{node: {next_hop: deque}}`` FIFO per link, with no
per-node simulator objects.  Its deliveries, ``Metrics`` (congestion
insertion order and the message-size histogram included) and errors are
those of running :class:`_TransportNode` on a
:class:`~repro.congest.network.Network`, because it follows the rules
that loop implies:

* every node acts in round 1 (so routing nothing still takes one round
  on a non-empty graph), and nodes act in ascending id order;
* a node first enqueues its injections (round 1, input order), then its
  arrivals in sender order; a packet already at its destination is
  delivered in that round, so a zero-hop packet arrives in round 1;
* each non-empty link forwards its head once per round, a node's links
  served in the order they were first used;
* each hop meters one word on the canonical ``undirected`` edge key
  (ordered by ``repr``, like every other metered send);
* the run's round count is the last round in which any node acted; a
  hop over a non-edge fails when the packet reaches the hop's tail, and
  a round past ``max_rounds`` fails before anything happens in it;
* deliveries come back grouped by destination in ``graph.nodes()``
  order, then in arrival order.

The ``Network`` loop stays as the reference and as the only path that
can apply the cell's fault plan or round profiler: it runs whenever
:func:`repro.kernels.config.fallback_reason` names one, or the open
:func:`~repro.congest.cell.cell_context` has ``engine="reference"``.
``tests/test_property.py`` checks the two engines equal on generated
packet sets.

Paths are computed by the driver from tree structure that the involved
nodes genuinely possess locally (parent pointers, and at centers the full
gathered tree), so source routing is an implementation convenience, not
extra distributed knowledge: a real execution would route by destination
using the same local tables.  Message-size accounting therefore counts
the payload plus the destination, not the path.

Sizes are checked once per packet, against ``word_limit``, before any
routing starts.  A caller that has already sized a payload declares the
packet's size in :attr:`Packet.words` (the Theorem 2.1 simulation does
so for every packet it builds), and the check reads that number instead
of walking the payload again; a packet without one is sized by
:func:`_packet_words`.  ``tests/test_bcongest_sim.py`` checks every
declared size equal to the computed one over the tier-1 cells.

A pure downcast has a closed form, and :func:`route_downcast` computes
it without a per-round loop or a :class:`Packet` per item.  Its input is
a list of ``(path, count, words)`` routes: ``count`` packets of ``words``
words each, all injected at the route's origin in round 1 and following
``path`` down a forest.  It applies when no node is entered from two
predecessors and no origin also receives; then every non-root node gets
at most one packet per round, over its parent link, and no link below a
root ever queues.  The ``j``-th packet (in injection order) on the link
from a root to one of its children leaves the root in round ``j`` and
reaches its destination at depth ``d`` in round ``j + d``; every tree
edge carries the packet count of the routes below it.  Congestion keys
enter in ``(first-use round, node, first-use order at that node)``
order, which is the exact engine's insertion order.  Anything else is
rejected with an :class:`AlgorithmError`, and under
:func:`fallback_reason` the routes are expanded into packets for the
``Network`` loop, as :func:`route_packets` does.
``tests/test_property.py`` checks the three agree on generated forests.

:func:`route_upcast` takes the same ``(path, count, words)`` routes for
an upcast (Lemma 1.5), the convergecast every simulation's gather
step is, and meters them through :func:`route_packets` as payload-free
packets, the expansion the downcast's fallback uses too: no caller
reads an upcast's deliveries.

The Theorem 2.1 plan replay routes one small packet set per simulated
phase and needs only the metrics, so :func:`route_phases` takes every
phase at once, as a table of distinct route paths plus one route id,
phase and declared size per packet, and routes them in one array pass.
Messages, words and per-edge congestion follow in closed form from how
often each route is used.  The rounds come from one round-synchronous
numpy loop over all phases at once: the FIFO queues are keyed by
``(phase, directed link)``, a queue's order is ``(enqueue round,
sender, input order)`` with injections first, and a phase's rounds are
its last delivery round, summed over the phases as merging one
:func:`route_packets` call per phase would.  Congestion keys enter in
that merge's order: by the phase that first uses the edge, then by the
``(round, node, sender, packet)`` of that first use, which the loop
records once per edge; a link's first use is in the round its first
packet is enqueued.  The first phase with an oversize packet or a used
route the array pass cannot take is found up front; the phases before
it are routed (a phase whose rounds pass :func:`route_packets`' default
round cap raises its error), and then it goes through
:func:`route_packets`, which raises its error.  Under
:func:`fallback_reason` every phase goes through :func:`route_packets`.
``tests/test_property.py`` checks it against per-phase
:func:`route_packets` on generated plans.

The round and message costs of upcast/downcast proved in Lemmas 1.5/1.6
are validated against this engine in ``tests/test_primitives.py`` and
regenerated in benchmark E10.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.congest.errors import AlgorithmError
from repro.congest.metrics import Metrics, undirected
from repro.congest.network import (
    Algorithm,
    Inbox,
    Network,
    NodeAPI,
    NodeInfo,
    payload_words,
)
from repro.graphs.graph import Graph
from repro.kernels.config import fallback_reason

# The round cap every call here defaults to: a run past it is a livelock.
_MAX_ROUNDS = 5_000_000


@dataclass
class Packet:
    """One routed item.

    ``path`` is the full node sequence, starting at the origin and ending
    at the destination; consecutive entries must be adjacent in the
    communication graph.  ``payload`` is what the destination receives
    (together with the packet's origin).  ``tag`` lets the driver
    demultiplex deliveries (e.g. which cluster tree / which sub-step a
    packet belongs to).  ``words``, when given, is the packet's declared
    size (destination + payload, as :func:`_packet_words` counts it) from
    a caller that has already sized the payload; None means "size it".
    """

    path: Tuple[int, ...]
    payload: Any
    tag: Any = None
    words: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.path) < 1:
            raise AlgorithmError("packet with empty path")

    @property
    def origin(self) -> int:
        return self.path[0]

    @property
    def dest(self) -> int:
        return self.path[-1]


@dataclass
class Delivery:
    """A packet that arrived at its destination."""

    origin: int
    dest: int
    payload: Any
    tag: Any
    round: int


class _TransportNode(Algorithm):
    """Per-node forwarding logic: FIFO queue per outgoing link."""

    def __init__(self, info: NodeInfo):
        super().__init__(info)
        # neighbor -> deque of (packet, next_index)
        self.queues: Dict[int, deque] = {}
        self.delivered: List[Delivery] = []

    def _enqueue(self, packet: Packet, idx: int, rnd: int) -> None:
        """Take custody of ``packet`` currently at position ``idx``."""
        if idx == len(packet.path) - 1:
            self.delivered.append(Delivery(
                origin=packet.origin, dest=packet.dest,
                payload=packet.payload, tag=packet.tag, round=rnd))
            return
        nxt = packet.path[idx + 1]
        if nxt not in self.info.neighbors:
            raise AlgorithmError(
                f"packet path hop {packet.path[idx]}->{nxt} is not an edge")
        self.queues.setdefault(nxt, deque()).append((packet, idx))

    def on_round(self, api: NodeAPI, rnd: int, inbox: Inbox) -> None:
        if rnd == 1 and self.info.input:
            for packet in self.info.input:
                if packet.path[0] != self.info.id:
                    raise AlgorithmError("packet injected at wrong origin")
                self._enqueue(packet, 0, rnd)
        for _src, (packet, idx) in inbox:
            self._enqueue(packet, idx, rnd)
        pending = False
        for nbr, queue in self.queues.items():
            if queue:
                packet, idx = queue.popleft()
                api.send(nbr, (packet, idx + 1))
                if queue:
                    pending = True
        if pending:
            api.wake_at(rnd + 1)


def _packet_words(packet: Packet) -> int:
    """Declared size: destination + payload (route is implicit)."""
    return 1 + payload_words(packet.payload)


def route_packets(graph: Graph, packets: Sequence[Packet], *,
                  word_limit: int = 16,
                  max_rounds: int = _MAX_ROUNDS) -> Tuple[List[Delivery], Metrics]:
    """Deliver all packets; return deliveries and the execution metrics.

    The network-level size check is replaced by a per-packet check of
    destination + payload, since the path is implicit routing state; a
    packet's declared ``words`` stands in for sizing its payload.  Every
    packet is checked before anything is routed.  The exact engine
    routes unless :func:`fallback_reason` sends the call to the
    ``Network`` reference loop.
    """
    for packet in packets:
        size = packet.words
        if size is None:
            size = _packet_words(packet)
        if size > word_limit:
            raise AlgorithmError(
                f"packet payload of {size} words exceeds limit {word_limit}")
    if fallback_reason() is not None:
        deliveries, metrics = _route_on_network(graph, packets, max_rounds)
    else:
        deliveries, metrics = _route_exact(graph, packets, max_rounds)
    if len(deliveries) != len(packets):
        raise AlgorithmError(
            f"transport lost packets: {len(deliveries)}/{len(packets)}")
    return deliveries, metrics


def route_downcast(graph: Graph, routes: Sequence[Tuple[Sequence[int], int, int]],
                   *, word_limit: int = 16,
                   max_rounds: int = _MAX_ROUNDS) -> Metrics:
    """Route a downcast given as ``(path, count, words)`` routes.

    Meters exactly what :func:`route_packets` would on ``count`` packets
    of ``words`` words per route, in route order, with the same size,
    non-edge and ``max_rounds`` errors; the deliveries are not returned.
    Routes that are not a downcast over a forest (a node entered from
    two predecessors, an origin that also receives) and origins that
    are not nodes raise an :class:`AlgorithmError` on both engines.
    """
    live = [(path, count, words) for path, count, words in routes
            if count > 0]
    for path, _count, words in live:
        if not path:
            raise AlgorithmError("packet with empty path")
        if words > word_limit:
            raise AlgorithmError(
                f"packet payload of {words} words exceeds limit {word_limit}")
    links, last, hops = _downcast_links(graph, live)
    if fallback_reason() is not None:
        return _route_as_packets(graph, live, word_limit, max_rounds)
    nbr_sets = graph.nbr_sets()
    # Links in the exact engine's first-use order: by round, then node;
    # the sort is stable, so a root's links keep their route order.
    order = sorted(links, key=lambda link: (links[link][0], link[0]))
    for u, w in order:
        if w not in nbr_sets[u] and links[(u, w)][0] <= max_rounds:
            raise AlgorithmError(f"packet path hop {u}->{w} is not an edge")
    # A later non-edge is past max_rounds, so this raises before it.
    rounds = max(last, 1) if graph.n else 0
    if rounds > max_rounds:
        raise AlgorithmError(
            f"exceeded max_rounds={max_rounds}; likely livelock")
    metrics = Metrics(rounds=rounds)
    congestion = metrics.edge_congestion
    for u, w in order:
        congestion[undirected(u, w)] = links[(u, w)][1]
    if hops:
        metrics.messages = metrics.words = hops
        metrics.max_message_words = 1
        metrics.message_sizes[1] = hops
    return metrics


def route_upcast(graph: Graph, routes: Sequence[Tuple[Sequence[int], int, int]],
                 *, word_limit: int = 16,
                 max_rounds: int = _MAX_ROUNDS) -> Metrics:
    """Route an upcast given as ``(path, count, words)`` routes.

    Meters exactly what :func:`route_packets` does on ``count`` packets
    of ``words`` words per route, in route order, with the same errors,
    since those packets go through it; the deliveries are not returned.
    """
    return _route_as_packets(graph, routes, word_limit, max_rounds)


def _route_as_packets(graph: Graph,
                      routes: Sequence[Tuple[Sequence[int], int, int]],
                      word_limit: int, max_rounds: int) -> Metrics:
    """``count`` payload-free packets of ``words`` words per route, in
    route order, through :func:`route_packets`.

    Payloads reach no metered quantity: the declared sizes are checked
    instead, the ``Network`` loop does not size messages, and faults are
    coordinate-seeded.
    """
    packets = [Packet(path=tuple(path), payload=None, words=words)
               for path, count, words in routes for _ in range(count)]
    return route_packets(graph, packets, word_limit=word_limit,
                         max_rounds=max_rounds)[1]


def route_phases(graph: Graph, paths: Sequence[Tuple[int, ...]],
                 route: Sequence[int], phase: Sequence[int],
                 words: Sequence[int], *, word_limit: int = 16) -> Metrics:
    """Route packets in independent phases, one :func:`route_packets`
    call per phase in effect, and return the merged metrics.

    ``paths`` is the route table; packet ``i`` follows
    ``paths[route[i]]`` in phase ``phase[i]`` and declares ``words[i]``
    words, the packets listed phase by phase in ascending phase order.
    Meters exactly what routing each phase's packets, in input order,
    through :func:`route_packets` at its default round cap and merging
    the metrics in phase order would, congestion order and size
    histogram included, and raises the error of the first failing
    phase, with the same text; the deliveries are not returned.  A
    phase is the set of packets that name it, so a phase with no
    packets costs nothing.
    """
    route, phase, words = (np.asarray(column, dtype=np.int64)
                           for column in (route, phase, words))
    phase = np.unique(phase, return_inverse=True)[1]  # 0, 1, ...
    phases = np.split(np.arange(len(phase)),
                      np.flatnonzero(np.diff(phase, prepend=-1)))[1:]
    if fallback_reason() is not None:
        total = Metrics()
        for packets in phases:
            total.merge(_route_phase(graph, paths, route[packets],
                                     words[packets], word_limit))
        return total
    # An oversize packet, or a path the array pass cannot take (empty,
    # an origin that is no node, a non-edge), fails its phase.
    nbr_sets = graph.nbr_sets()
    unroutable = np.array(
        [not path or path[0] not in nbr_sets
         or any(w not in nbr_sets[u] for u, w in zip(path, path[1:]))
         for path in paths], dtype=bool)
    failing = np.flatnonzero((words > word_limit) | unroutable[route])
    cut = int(phase[failing[0]]) if len(failing) else len(phases)
    end = int(np.searchsorted(phase, cut))
    total = _route_batch(graph, paths, route[:end], phase[:end])
    if cut < len(phases):
        # The earlier phases are routed (their errors come first); the
        # failing one goes through route_packets, which raises its error.
        packets = phases[cut]
        _route_phase(graph, paths, route[packets], words[packets],
                     word_limit)
        raise AssertionError("route_packets routed a failing phase")
    return total


def _route_phase(graph: Graph, paths: Sequence[Tuple[int, ...]],
                 route: np.ndarray, words: np.ndarray,
                 word_limit: int) -> Metrics:
    packets = [Packet(path=paths[r], payload=None, words=size)
               for r, size in zip(route.tolist(), words.tolist())]
    return route_packets(graph, packets, word_limit=word_limit,
                         max_rounds=_MAX_ROUNDS)[1]


def _route_batch(graph: Graph, paths: Sequence[Tuple[int, ...]],
                 route: np.ndarray, phase: np.ndarray) -> Metrics:
    """Route routable phases ``0, 1, ...`` in one round-synchronous
    array pass.

    The routes the packets use are stored once, in flat lists aligned
    with their node sequences: per position, the node, the node before
    it (-1 at the origin: the sender of a packet that arrives there),
    and the undirected edge id and directed link id ``2 * edge + (tail
    is not the edge key's first node)`` of the hop leaving it (-1 at
    the destination).  A packet is a route id.

    Every phase runs from round 1 at once, its FIFO queues keyed by
    ``(phase, directed link)``.  Each round the packets that arrived
    join the back of their queues, ordered by (sender, input order),
    injections first, and every queue's head moves one hop.  A phase's
    rounds are its last delivery round.  The hop and congestion counts
    follow from how often each route is used; the array pass keeps
    only each edge's first use, in its first phase, to order the
    congestion keys as the exact engine inserts them: by first phase,
    then (round, node, sender, input order) of that first use.
    """
    metrics = Metrics()
    if not len(route):
        return metrics
    used, first_packet, route = np.unique(route, return_index=True,
                                          return_inverse=True)
    route_off: List[int] = []  # route -> offset into the flat lists
    n_hops: List[int] = []     # route -> hop count
    flat_nodes: List[int] = []
    flat_prev: List[int] = []
    flat_edges: List[int] = []
    flat_links: List[int] = []
    keys: List[Tuple[int, int]] = []
    edge_of: Dict[Tuple[int, int], int] = {}
    for path in (paths[r] for r in used.tolist()):
        route_off.append(len(flat_nodes))
        n_hops.append(len(path) - 1)
        flat_nodes.extend(path)
        flat_prev.append(-1)
        flat_prev.extend(path[:-1])
        for u, w in zip(path, path[1:]):
            key = undirected(u, w)
            edge = edge_of.get(key)
            if edge is None:
                edge = edge_of[key] = len(keys)
                keys.append(key)
            flat_edges.append(edge)
            flat_links.append(2 * edge + (key[0] != u))
        flat_edges.append(-1)
        flat_links.append(-1)
    off = np.asarray(route_off, dtype=np.int64)
    nodes = np.asarray(flat_nodes, dtype=np.int64)
    prev = np.asarray(flat_prev, dtype=np.int64)
    edges = np.asarray(flat_edges, dtype=np.int64)
    links = np.asarray(flat_links, dtype=np.int64)
    n_edges = len(keys)

    # Closed-form counts: every use of a route crosses each of its
    # hops once; an edge's first phase is its routes' first one.
    uses = np.bincount(route, minlength=len(off))
    hop_route = np.repeat(np.arange(len(off)), n_hops)
    hop_edge = edges[edges >= 0]  # route by route, hop by hop
    count = np.bincount(hop_edge, weights=uses[hop_route],
                        minlength=n_edges).astype(np.int64)
    first_phase = np.full(n_edges, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first_phase, hop_edge, phase[first_packet][hop_route])
    # (round, node, sender, packet) of each edge's first use.
    first_use = np.zeros((4, n_edges), dtype=np.int64)

    span = 2 * n_edges
    last = np.zeros(int(phase[-1]) + 1, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    q_packet = q_at = q_key = empty  # queued, sorted by key then FIFO
    a_packet = np.arange(len(route), dtype=np.int64)  # round's arrivals
    a_at = off[route]  # flat index of each arrival's current node
    rnd = 1
    while len(a_packet) or len(q_packet):
        if len(a_packet):
            done = links[a_at] < 0
            if done.any():
                last[phase[a_packet[done]]] = rnd
                a_packet, a_at = a_packet[~done], a_at[~done]
            key = phase[a_packet] * span + links[a_at]
            order = np.lexsort((a_packet, prev[a_at], key))
            q_packet = np.concatenate((q_packet, a_packet[order]))
            q_at = np.concatenate((q_at, a_at[order]))
            q_key = np.concatenate((q_key, key[order]))
            # Two sorted runs: the stable sort merges them, keeping
            # each queue's earlier arrivals ahead.
            merged = np.argsort(q_key, kind="stable")
            q_packet, q_at, q_key = (q_packet[merged], q_at[merged],
                                     q_key[merged])
        if not len(q_packet):
            break
        head = np.ones(len(q_key), dtype=bool)
        np.not_equal(q_key[1:], q_key[:-1], out=head[1:])
        h_packet, h_at = q_packet[head], q_at[head]
        q_packet, q_at, q_key = (q_packet[~head], q_at[~head],
                                 q_key[~head])
        edge = edges[h_at]
        new = ((first_use[0, edge] == 0)
               & (first_phase[edge] == phase[h_packet]))
        if new.any():
            edge, at, packet = edge[new], h_at[new], h_packet[new]
            node, sender = nodes[at], prev[at]
            # Both directions of an edge may start this round: the
            # smaller node acts first.
            order = np.lexsort((node, edge))
            edge, node = edge[order], node[order]
            sender, packet = sender[order], packet[order]
            lead = np.ones(len(edge), dtype=bool)
            np.not_equal(edge[1:], edge[:-1], out=lead[1:])
            edge = edge[lead]
            first_use[0, edge] = rnd
            first_use[1, edge] = node[lead]
            first_use[2, edge] = sender[lead]
            first_use[3, edge] = packet[lead]
        a_packet, a_at = h_packet, h_at + 1
        rnd += 1

    # Every phase has a packet, so its last delivery round is >= 1.
    if int(last.max()) > _MAX_ROUNDS:
        raise AlgorithmError(
            f"exceeded max_rounds={_MAX_ROUNDS}; likely livelock")
    metrics.rounds = int(last.sum())
    hops = int(count.sum())
    if hops:
        metrics.messages = metrics.words = hops
        metrics.max_message_words = 1
        metrics.message_sizes[1] = hops
    live = np.flatnonzero(count)
    order = live[np.lexsort((first_use[3, live], first_use[2, live],
                             first_use[1, live], first_use[0, live],
                             first_phase[live]))]
    congestion = metrics.edge_congestion
    for edge, hits in zip(order.tolist(), count[order].tolist()):
        congestion[keys[edge]] = hits
    return metrics


def _downcast_links(graph: Graph, routes: Sequence[Tuple[Sequence[int], int, int]],
                    ) -> Tuple[Dict[Tuple[int, int], List[int]], int, int]:
    """A downcast's links, last delivery round and hop count.

    Links map ``(u, w)`` to ``[first-use round, packets]``, in route
    order.  Raises :class:`AlgorithmError` if the routes are not a
    downcast.
    """
    nbr_sets = graph.nbr_sets()
    parent: Dict[int, int] = {}  # node -> the one node it receives from
    roots: set = set()
    fed: Dict[int, int] = {}  # root child -> packets injected for it
    links: Dict[Tuple[int, int], List[int]] = {}
    last = hops = 0
    for path, count, _words in routes:
        origin = path[0]
        if origin not in nbr_sets:
            raise AlgorithmError(f"packet origin {origin} is not a node")
        if origin in parent:
            raise AlgorithmError(
                f"not a downcast: origin {origin} also receives packets")
        roots.add(origin)
        depth = len(path) - 1
        if not depth:
            continue
        # This route's first packet leaves the root in round start + 1
        # and node path[i] in round start + 1 + i: links never queue.
        start = fed.get(path[1], 0)
        fed[path[1]] = start + count
        last = max(last, start + count + depth)
        hops += count * depth
        for i in range(depth):
            link = (path[i], path[i + 1])
            got = links.get(link)
            if got is not None:
                got[1] += count
                continue
            w = path[i + 1]
            if w in roots:
                raise AlgorithmError(
                    f"not a downcast: origin {w} also receives packets")
            if parent.setdefault(w, path[i]) != path[i]:
                raise AlgorithmError(
                    f"not a downcast: node {w} is entered from "
                    f"{parent[w]} and {path[i]}")
            links[link] = [start + 1 + i, count]
    return links, last, hops


def _route_exact(graph: Graph, packets: Sequence[Packet],
                 max_rounds: int) -> Tuple[List[Delivery], Metrics]:
    """The per-round FIFO link schedule, run without a ``Network``."""
    metrics = Metrics()
    nodes = graph.nodes()
    if not nodes:
        return [], metrics
    nbr_sets = graph.nbr_sets()
    # Round 1's inbound items are the injections, in input order; a
    # packet whose origin is not a node is never injected (and so lost).
    inbound: Dict[int, List[Tuple[Packet, int]]] = {}
    for packet in packets:
        if packet.origin in nodes:
            inbound.setdefault(packet.origin, []).append((packet, 0))
    # node -> next hop -> [FIFO of (packet, index at node), edge key]
    links: Dict[int, Dict[int, list]] = {}
    busy: set = set()  # nodes with a non-empty link
    delivered: Dict[int, List[Delivery]] = {}
    congestion = metrics.edge_congestion
    hops = 0
    rnd = 1
    while True:
        if rnd > max_rounds:
            raise AlgorithmError(
                f"exceeded max_rounds={max_rounds}; likely livelock")
        outbound: Dict[int, List[Tuple[Packet, int]]] = {}
        for v in sorted(busy.union(inbound)):
            node_links = links.get(v)
            items = inbound.get(v)
            if items:
                if node_links is None:
                    node_links = links[v] = {}
                for packet, idx in items:
                    path = packet.path
                    if idx == len(path) - 1:
                        got = delivered.get(v)
                        if got is None:
                            got = delivered[v] = []
                        got.append(Delivery(
                            origin=path[0], dest=path[-1],
                            payload=packet.payload,
                            tag=packet.tag, round=rnd))
                        continue
                    nxt = path[idx + 1]
                    link = node_links.get(nxt)
                    if link is None:
                        if nxt not in nbr_sets[v]:
                            raise AlgorithmError(
                                f"packet path hop {path[idx]}->{nxt} "
                                f"is not an edge")
                        link = node_links[nxt] = [deque(), undirected(v, nxt)]
                    link[0].append((packet, idx))
            if not node_links:
                continue
            pending = False
            for nxt, (queue, key) in node_links.items():
                if not queue:
                    continue
                packet, idx = queue.popleft()
                hops += 1
                congestion[key] += 1
                box = outbound.get(nxt)
                if box is None:
                    outbound[nxt] = [(packet, idx + 1)]
                else:
                    box.append((packet, idx + 1))
                if queue:
                    pending = True
            if pending:
                busy.add(v)
            else:
                busy.discard(v)
        if not outbound:
            break
        inbound = outbound
        rnd += 1
    metrics.rounds = rnd
    if hops:
        metrics.messages = metrics.words = hops
        metrics.max_message_words = 1
        metrics.message_sizes[1] = hops
    # Node ids are 0 .. n-1, so sorted order is graph.nodes() order.
    deliveries = [d for v in sorted(delivered) for d in delivered[v]]
    return deliveries, metrics


def _route_on_network(graph: Graph, packets: Sequence[Packet],
                      max_rounds: int) -> Tuple[List[Delivery], Metrics]:
    """The reference: one :class:`_TransportNode` per node on a ``Network``.

    The only path that applies an ambient fault plan or round profiler.
    """
    by_origin: Dict[int, List[Packet]] = {}
    for packet in packets:
        by_origin.setdefault(packet.origin, []).append(packet)
    net = Network(graph, check_sizes=False)
    execution = net.run(_TransportNode, inputs=by_origin,
                        max_rounds=max_rounds)
    deliveries: List[Delivery] = []
    for algo in execution.algorithms.values():
        deliveries.extend(algo.delivered)
    return deliveries, execution.metrics


# ----------------------------------------------------------------------
# Tree-path helpers used by drivers to build packet routes.
# ----------------------------------------------------------------------

def path_to_root(parent: Dict[int, Optional[int]], v: int) -> Tuple[int, ...]:
    """The tree path from ``v`` up to its root (inclusive)."""
    path = [v]
    seen = {v}
    while parent.get(path[-1]) is not None:
        nxt = parent[path[-1]]
        if nxt in seen:
            raise AlgorithmError("parent pointers contain a cycle")
        seen.add(nxt)
        path.append(nxt)
    return tuple(path)


def path_from_root(parent: Dict[int, Optional[int]], v: int) -> Tuple[int, ...]:
    """The tree path from the root of ``v``'s tree down to ``v``."""
    return tuple(reversed(path_to_root(parent, v)))


def tree_depths(parent: Dict[int, Optional[int]]) -> Dict[int, int]:
    """Depth of every node in its tree (roots have depth 0)."""
    depths: Dict[int, int] = {}

    def depth(v: int) -> int:
        if v in depths:
            return depths[v]
        chain = []
        x = v
        while x not in depths and parent.get(x) is not None:
            chain.append(x)
            x = parent[x]
        base = depths.get(x, 0)
        depths.setdefault(x, base)
        for node in reversed(chain):
            base += 1
            depths[node] = base
        return depths[v]

    for v in parent:
        depth(v)
    return depths
