"""An event-driven, metered simulator of the synchronous CONGEST model.

The model (§1.1.1 of the paper): computation proceeds in lockstep rounds;
in each round a node (i) receives the messages sent to it in the previous
round, (ii) performs arbitrary free local computation, and (iii) sends one
O(log n)-bit message per incident edge (possibly different messages to
different neighbors).  The BCONGEST variant (§1.1.2) forces the *same*
message on all incident edges and additionally meters the number of
broadcast operations (broadcast complexity).

The simulator is literal about everything the paper counts:

* every message is actually transmitted and metered (per edge);
* message sizes are measured in words (one word = one ID or one distance,
  i.e. O(log n) bits) and checked against a configurable budget;
* a node may send at most one message per edge per round;
* rounds advance one at a time whenever anything is in flight.  Rounds in
  which the whole network is provably idle (every node is waiting for a
  scheduled future wake-up) are skipped in O(1) time but still *counted*,
  so random-delay schedules (Theorem 1.4) cost the right number of rounds.

Algorithms are written against the :class:`NodeAPI` handle, which exposes
exactly the node's local knowledge: its ID, its incident edges (with
weights), the network size ``n`` (every node knows it, as after the
paper's §2.2 preprocessing), and a private PRNG stream.
"""

from __future__ import annotations

import heapq
import numbers
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.congest.cell import current_cell
from repro.congest.errors import (
    AlgorithmError,
    BroadcastOnly,
    DuplicateSend,
    MessageTooLarge,
    NotANeighbor,
)
from repro.congest.metrics import Metrics
from typing import TYPE_CHECKING
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.graph import Graph

Payload = Any
Inbox = List[Tuple[int, Payload]]


def payload_words(payload: Payload) -> int:
    """Size of a payload in O(log n)-bit words.

    Scalars (IDs, distances, flags) cost one word; containers cost the sum
    of their items (dict entries cost key + value).  ``None`` is free: it
    is only ever a sentinel inside tuples.

    Containers are tested before the ``numbers.Number`` ABC, whose
    ``isinstance`` hook is far slower than a concrete type check; no
    supported container is a ``Number``, so the order changes no result.
    """
    if payload is None:
        return 0
    if isinstance(payload, (int, float, bool, str)):
        return 1
    if isinstance(payload, (tuple, list, frozenset, set)):
        return max(1, sum(payload_words(item) for item in payload))
    if isinstance(payload, dict):
        return max(1, sum(payload_words(k) + payload_words(v)
                          for k, v in payload.items()))
    if isinstance(payload, numbers.Number):  # numpy scalars and friends
        return 1
    raise TypeError(f"unsupported payload type {type(payload)!r}")


@dataclass
class NodeInfo:
    """The local knowledge a node starts with."""

    id: int
    neighbors: Tuple[int, ...]
    n: int
    weights: Optional[Dict[int, float]]  # neighbor -> weight of (self -> nbr)
    input: Any
    seed: int
    in_weights: Optional[Dict[int, float]] = None  # nbr -> weight (nbr -> self)

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    def weight_to(self, nbr: int) -> float:
        if self.weights is None:
            return 1
        return self.weights[nbr]

    def weight_from(self, nbr: int) -> float:
        if self.in_weights is not None:
            return self.in_weights[nbr]
        return self.weight_to(nbr)


class Algorithm:
    """Base class for per-node CONGEST algorithms.

    Subclasses implement :meth:`on_round`.  The node is *activated* in
    round 1, in any round for which it has incoming messages, and in any
    round it requested via :meth:`NodeAPI.wake_at`.  Sends performed
    during an activation are delivered at the start of the next round.
    """

    def __init__(self, info: NodeInfo):
        self.info = info

    def on_round(self, api: "NodeAPI", rnd: int, inbox: Inbox) -> None:
        raise NotImplementedError


class NodeAPI:
    """Capability handle passed to :meth:`Algorithm.on_round`."""

    __slots__ = ("_net", "_id", "info", "rng", "_halted", "_output",
                 "_sent_to", "_wake")

    def __init__(self, net: "Network", info: NodeInfo):
        self._net = net
        self._id = info.id
        self.info = info
        self.rng = random.Random(info.seed)
        self._halted = False
        self._output: Any = None
        self._sent_to: set = set()
        self._wake: Optional[int] = None

    # -- communication -------------------------------------------------
    def send(self, dst: int, payload: Payload) -> None:
        """Send one CONGEST message to a neighbor (delivered next round)."""
        if self._net.bcast_only:
            raise BroadcastOnly(
                f"node {self._id}: point-to-point send in BCONGEST mode")
        self._net._transmit(self._id, dst, payload, self._sent_to)

    def broadcast(self, payload: Payload) -> None:
        """Send the same message to every neighbor; meters one broadcast.

        Outside ``engine="reference"`` the delivery is batched: the
        payload is sized once, the per-edge metering is folded into one
        bulk update, and one shared ``(src, payload)`` record is
        appended to every neighbor inbox -- semantically identical to
        the reference engine's per-edge loop (verified by the
        scalar/batched equivalence tests) but without the
        per-destination overhead that dominates dense executions.
        """
        self._net.metrics.record_broadcast()
        if self._net.batched:
            self._net._broadcast_batch(self._id, self.info.neighbors,
                                       payload, self._sent_to)
        else:
            for dst in self.info.neighbors:
                self._net._transmit(self._id, dst, payload, self._sent_to)

    # -- control -------------------------------------------------------
    def wake_at(self, rnd: int) -> None:
        """Request activation at round ``rnd`` even without messages."""
        if rnd <= self._net.round:
            raise AlgorithmError(
                f"node {self._id}: wake_at({rnd}) is not in the future")
        if self._wake is None or rnd < self._wake:
            self._wake = rnd

    def halt(self, output: Any = None) -> None:
        """Terminate locally with the given output."""
        self._halted = True
        if output is not None:
            self._output = output

    def set_output(self, output: Any) -> None:
        """Record output without halting (for multi-stage algorithms)."""
        self._output = output

    @property
    def round(self) -> int:
        return self._net.round

    @property
    def halted(self) -> bool:
        return self._halted


def stable_seed(*parts: Any) -> int:
    """A process-independent seed derived from the given parts.

    Python's built-in ``hash`` is salted per process for strings
    (PYTHONHASHSEED), which would make "deterministic" executions differ
    between runs; every seed derivation in this library therefore goes
    through this CRC-based stable hash instead.
    """
    return zlib.crc32(repr(parts).encode("utf-8")) & 0x7FFFFFFF


def node_seed(master: int, v: int) -> int:
    """The per-node PRNG seed derived from a master seed.

    Shared between every execution mode (direct run, local oracle, and
    both simulation frameworks) so that a node's machine
    makes identical random choices everywhere -- the precondition for the
    byte-exact output-equivalence tests of Lemmas 2.5 and 3.14.
    """
    return stable_seed("node", master, v)


def make_node_info(graph: "Graph", v: int, *,
                   inputs: Optional[Dict[int, Any]] = None,
                   seed: int = 0) -> NodeInfo:
    """Construct the canonical local view of node ``v``.

    Weight views come from the graph's per-node cache (CSR weight
    slices): on undirected weighted graphs ``weights`` and
    ``in_weights`` are one shared mapping, and repeat executions over
    the same graph instance build no dicts at all.
    """
    weights = None
    in_weights = None
    if graph.is_weighted:
        weights, in_weights = graph.node_weight_views(v)
    return NodeInfo(
        id=v,
        neighbors=graph.neighbors(v),
        n=graph.n,
        weights=weights,
        in_weights=in_weights,
        input=None if inputs is None else inputs.get(v),
        seed=node_seed(seed, v),
    )


@dataclass
class Execution:
    """Result of one :meth:`Network.run`."""

    outputs: Dict[int, Any]
    metrics: Metrics
    algorithms: Dict[int, Algorithm]
    rounds: int
    halted: Dict[int, bool] = field(default_factory=dict)


class Network:
    """A CONGEST (or BCONGEST) network over a :class:`Graph`.

    Parameters
    ----------
    graph:
        The communication graph.
    word_limit:
        Maximum message size in words.  The CONGEST model allows a
        constant number of words per message; composite algorithms that
        legitimately pack O(log n) words (e.g. the combined machines of
        Theorem 1.4) declare a larger limit, and tests verify the limit
        actually used is O(log n).
    bcast_only:
        Enforce the BCONGEST model (broadcast-only sends).
    seed:
        Master seed; each node's private PRNG stream is derived from it.

    The open :func:`~repro.congest.cell.cell_context` (read once, here)
    sets the rest.  Its fault plan is layered into the delivery step
    (``None`` and the inert plan are normalized away, so fault-free
    execution takes exactly the pre-fault-plane code paths); its round
    profiler records a per-round metric time series (unprofiled
    executions pay one ``is not None`` check per round); and unless its
    engine is ``"reference"``, broadcasts take the batched delivery
    path (bulk metering, one shared inbox record).  The reference
    engine keeps the scalar per-edge loop, which the property tests pin
    equal to the batched one.
    """

    # Cap on the payload-size memo; executions reuse a small set of
    # payload shapes, so the cache saturates far below this in practice.
    _SIZE_CACHE_MAX = 65536

    def __init__(self, graph: "Graph", *, word_limit: int = 8,
                 bcast_only: bool = False, seed: int = 0,
                 check_sizes: bool = True):
        self.graph = graph
        self.word_limit = word_limit
        self.bcast_only = bcast_only
        self.seed = seed
        self.check_sizes = check_sizes
        cell = current_cell()
        self.batched = cell.engine != "reference"
        # Null plans are normalized to "no fault plane at all" so the
        # fault-free delivery paths are the untouched originals.
        faults = cell.faults
        self._faults = (faults if faults is not None
                        and not faults.is_null else None)
        self.profiler = cell.profiler
        self._crashed: set = set()
        self.metrics = Metrics()
        self.round = 0
        self._next_inboxes: Dict[int, Inbox] = {}
        # Precomputed adjacency views: O(1) neighbor membership for
        # point-to-point sends, and the per-node list of canonical edge
        # keys in neighbor order for bulk congestion metering.  Both are
        # memoized on the Graph instance (graphs are immutable), so the
        # differential harness and multi-algorithm sweep cells that run
        # several Networks over one graph derive them exactly once.
        self._nbr_sets: Dict[int, frozenset] = graph.nbr_sets()
        self._edge_keys: Dict[int, Tuple[Tuple[int, int], ...]] = (
            graph.edge_keys())
        self._size_cache: Dict[Payload, int] = {}

    # ------------------------------------------------------------------
    def _checked_words(self, payload: Payload,
                       src: Optional[int] = None) -> int:
        """``payload_words`` with the sending node's execution context.

        An unsupported payload type is the *algorithm's* bug, not the
        runner's: surface it as an :class:`AlgorithmError` naming the
        sender and round so it lands in sweep records as an algorithm
        failure instead of crashing the cell with a bare TypeError.
        """
        try:
            return payload_words(payload)
        except TypeError as exc:
            raise AlgorithmError(
                f"node {src}, round {self.round}: {exc}") from exc

    def _payload_size(self, payload: Payload,
                      src: Optional[int] = None) -> int:
        """``payload_words`` with memoization for hashable payloads.

        Equal payloads of the supported scalar/container types always
        have equal word counts, so keying the memo on the payload value
        itself is sound; unhashable payloads (dicts) fall through to the
        plain recursive computation.
        """
        try:
            return self._size_cache[payload]
        except TypeError:
            return self._checked_words(payload, src)
        except KeyError:
            pass
        size = self._checked_words(payload, src)
        if len(self._size_cache) < self._SIZE_CACHE_MAX:
            self._size_cache[payload] = size
        return size

    # ------------------------------------------------------------------
    def _transmit(self, src: int, dst: int, payload: Payload,
                  sent_to: set) -> None:
        if dst not in self._nbr_sets[src]:
            raise NotANeighbor(
                f"node {src}: {src} -> {dst} is not an edge "
                f"(round {self.round})")
        if dst in sent_to:
            raise DuplicateSend(
                f"node {src} sent twice to {dst} in round {self.round} "
                f"(edge {src} -> {dst})")
        sent_to.add(dst)
        if self.check_sizes:
            size = self._payload_size(payload, src)
            if size > self.word_limit:
                raise MessageTooLarge(
                    f"{size} words > limit {self.word_limit} "
                    f"(node {src} -> {dst}, round {self.round})")
        else:
            size = 1
        self.metrics.record_send(src, dst, max(1, size))
        if self._faults is not None:
            copies = self._faults.deliver_copies(
                self.round, src, dst, self.metrics)
            if not copies:
                return
            box = self._next_inboxes.setdefault(dst, [])
            for _ in range(copies):
                box.append((src, payload))
            return
        self._next_inboxes.setdefault(dst, []).append((src, payload))

    # ------------------------------------------------------------------
    def _broadcast_batch(self, src: int, nbrs: Tuple[int, ...],
                         payload: Payload, sent_to: set) -> None:
        """Deliver one broadcast to all neighbors in a single batch.

        Meters exactly what ``len(nbrs)`` scalar :meth:`_transmit` calls
        would: one message of the same word size per incident edge, the
        same duplicate-send and size-limit errors, the same inbox
        ordering (neighbor lists are sorted, matching the scalar loop).
        """
        if not nbrs:
            return
        if sent_to:
            for dst in nbrs:
                if dst in sent_to:
                    raise DuplicateSend(
                        f"node {src} sent twice to {dst} "
                        f"in round {self.round} (edge {src} -> {dst})")
        sent_to.update(nbrs)
        if self.check_sizes:
            size = self._payload_size(payload, src)
            if size > self.word_limit:
                raise MessageTooLarge(
                    f"{size} words > limit {self.word_limit} "
                    f"(node {src} -> {nbrs[0]}, round {self.round})")
        else:
            size = 1
        self.metrics.record_broadcast_sends(self._edge_keys[src],
                                            max(1, size))
        msg = (src, payload)
        inboxes = self._next_inboxes
        if self._faults is not None:
            # Per-destination fault decisions are coordinate-seeded, so
            # this batched path injects exactly what len(nbrs) scalar
            # _transmit calls would (pinned by the equivalence tests).
            faults = self._faults
            for dst in nbrs:
                copies = faults.deliver_copies(
                    self.round, src, dst, self.metrics)
                if not copies:
                    continue
                box = inboxes.setdefault(dst, [])
                for _ in range(copies):
                    box.append(msg)
            return
        for dst in nbrs:
            box = inboxes.get(dst)
            if box is None:
                inboxes[dst] = [msg]
            else:
                box.append(msg)

    # ------------------------------------------------------------------
    def run(self, factory: Callable[[NodeInfo], Algorithm], *,
            inputs: Optional[Dict[int, Any]] = None,
            max_rounds: int = 5_000_000) -> Execution:
        """Execute one algorithm to quiescence and return its results.

        Quiescence: no message is in flight and no node has a pending
        wake-up (or every node has halted).  The driver-visible round
        count is the last round in which any node acted.
        """
        self.round = 0
        self._next_inboxes = {}
        self._crashed = set()
        profiler = self.profiler
        if profiler is not None:
            profiler.begin_execution(self.metrics)
        if self._faults is not None and self._faults.round_limit is not None:
            # Faulted executions can legitimately livelock (a node spins
            # waiting for a dropped message); clamp so they terminate as
            # an AlgorithmError -- i.e. a `diverged` record -- instead
            # of running to the multi-million-round default.
            max_rounds = min(max_rounds, self._faults.round_limit)
        apis: Dict[int, NodeAPI] = {}
        algos: Dict[int, Algorithm] = {}
        for v in self.graph.nodes():
            info = make_node_info(self.graph, v, inputs=inputs, seed=self.seed)
            algos[v] = factory(info)
            apis[v] = NodeAPI(self, info)

        wake_heap: List[Tuple[int, int]] = []  # (round, node)
        wake_pending: Dict[int, int] = {}

        def schedule_wake(v: int, rnd: int) -> None:
            current = wake_pending.get(v)
            if current is None or rnd < current:
                wake_pending[v] = rnd
                heapq.heappush(wake_heap, (rnd, v))

        # Every node is activated in round 1.
        for v in self.graph.nodes():
            schedule_wake(v, 1)

        last_active_round = 0
        while True:
            inboxes = self._next_inboxes
            self._next_inboxes = {}
            next_round = self.round + 1
            if not inboxes:
                # Idle fast-forward: jump to the next scheduled wake-up.
                while wake_heap and (
                        wake_pending.get(wake_heap[0][1]) != wake_heap[0][0]
                        or apis[wake_heap[0][1]].halted):
                    heapq.heappop(wake_heap)
                if not wake_heap:
                    break
                next_round = max(next_round, wake_heap[0][0])
            self.round = next_round
            if self.round > max_rounds:
                raise AlgorithmError(
                    f"exceeded max_rounds={max_rounds}; likely livelock")

            if self._faults is not None:
                # Apply round-boundary faults to the inboxes about to be
                # consumed: register due node crashes and shuffle
                # reordered inboxes.  A crashed node's pending wake-up
                # is discarded so it cannot keep the network alive.
                for v in self._faults.begin_round(
                        self.round, inboxes, self._crashed, self.metrics):
                    wake_pending.pop(v, None)

            active = set(inboxes)
            while wake_heap and wake_heap[0][0] <= self.round:
                rnd, v = heapq.heappop(wake_heap)
                if wake_pending.get(v) == rnd:
                    del wake_pending[v]
                    active.add(v)

            acted = False
            crashed = self._crashed
            if profiler is not None:
                # Nodes can only halt themselves during their own
                # activation, so the pre-loop eligible count equals the
                # number of nodes that will act this round.
                eligible = sum(1 for v in active
                               if not apis[v].halted and v not in crashed)
            for v in sorted(active):
                api = apis[v]
                if api.halted or v in crashed:
                    continue
                acted = True
                api._sent_to = set()
                api._wake = None
                algos[v].on_round(api, self.round, inboxes.get(v, []))
                if api._wake is not None and not api.halted:
                    schedule_wake(v, api._wake)
            if acted:
                last_active_round = self.round
            if profiler is not None:
                profiler.record_round(
                    self.round, self.metrics, acted=eligible,
                    halted=sum(1 for a in apis.values() if a.halted),
                    crashed=len(crashed))
            if not self._next_inboxes and not wake_pending:
                break

        self.metrics.rounds += last_active_round
        if profiler is not None:
            profiler.end_execution(self.metrics)
        outputs = {v: apis[v]._output for v in self.graph.nodes()}
        halted = {v: apis[v].halted for v in self.graph.nodes()}
        return Execution(outputs=outputs, metrics=self.metrics,
                         algorithms=algos, rounds=last_active_round,
                         halted=halted)


def run_algorithm(graph: "Graph", factory: Callable[[NodeInfo], Algorithm], *,
                  inputs: Optional[Dict[int, Any]] = None,
                  word_limit: int = 8, bcast_only: bool = False, seed: int = 0,
                  max_rounds: int = 5_000_000) -> Execution:
    """One-shot convenience wrapper: build a network and run to quiescence."""
    net = Network(graph, word_limit=word_limit, bcast_only=bcast_only,
                  seed=seed)
    return net.run(factory, inputs=inputs, max_rounds=max_rounds)
