"""Distributed Breadth-First Search machines (BCONGEST).

Two forms are provided:

* :class:`BFSMachine` -- the standard single-source BFS the paper's
  Theorem 1.4 assumes: each node broadcasts exactly once, on first
  receiving the exploration (the root broadcasts at its start round).
  Its broadcast complexity is at most n and its dilation is the graph
  eccentricity of the root.

* :class:`BFSCollectionMachine` -- the *combined* machine realizing
  Theorem 1.4: a collection of up to n BFS algorithms given by its
  shared random delays alone -- BFS ``j`` is rooted at node ``j`` and
  starts in round ``delays[j]``, drawn from [1, ell].  A node's
  broadcast in a round carries one entry per BFS that reached it this
  round; Theorem 1.4(ii) guarantees O(log n) entries per message
  w.h.p., which the network's word accounting verifies.  The machine is
  aggregation-based (Definition 3.1): the aggregate of a message set
  keeps, per BFS id, the lexicographically smallest (distance, origin)
  record -- an idempotent min, so overlapping aggregate packets (which
  the Section 3 simulations may produce, cf. the remark in Lemma 3.14's
  proof) are harmless.  :func:`message_budget`
  is the one word budget every driver of the collection runs it under.

Payload format (both machines): ``{bfs_id: (dist, origin)}`` where
``origin`` is the broadcasting node (the single-source machine's id is
0).  Carrying the origin inside the payload keeps direct execution and
aggregated simulation byte-identical, which is what makes the
equivalence tests exact.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.congest.machine import Machine
from repro.congest.network import Inbox, NodeInfo

BFSPayload = Dict[int, Tuple[int, int]]


def aggregate_keyed_min(messages: List[Tuple[int, BFSPayload]],
                        ) -> List[Tuple[int, BFSPayload]]:
    """The aggregation function of Definition 3.1 for BFS collections.

    Returns a single virtual message whose payload keeps, per BFS id, the
    minimal (distance, origin) record.  It is a subset-equivalent,
    idempotent min: f(state, M) = f(state, agg(M_1) u ... u agg(M_k)) for
    any cover of M.  Size: one entry per distinct BFS id, and Theorem
    1.4(ii) bounds the distinct ids per node-round by O(log n).
    """
    best: BFSPayload = {}
    for _src, payload in messages:
        for bfs_id, record in payload.items():
            if bfs_id not in best or record < best[bfs_id]:
                best[bfs_id] = record
    if not best:
        return []
    return [(-1, best)]


class BFSMachine(Machine):
    """Single-source BFS: broadcast once upon first exploration.

    Constructor: ``root``, optional ``delay`` (start round) and
    ``max_depth``.  Output: ``(dist, parent)`` or ``None`` if never
    reached.
    """

    def __init__(self, info: NodeInfo, root: int, delay: int = 1,
                 max_depth: Optional[int] = None):
        super().__init__(info)
        self.root = root
        self.delay = delay
        self.max_depth = max_depth
        self.dist: Optional[int] = None
        self.parent: Optional[int] = None

    def wake_round(self, rnd: int) -> Optional[int]:
        # Message-driven except for the root's scheduled start.
        if self.info.id == self.root and self.dist is None:
            return self.delay
        return None

    def on_round(self, rnd: int, inbox: Inbox) -> Optional[BFSPayload]:
        if self.halted:
            return None
        if self.dist is None and self.info.id == self.root and rnd >= self.delay:
            self.dist = 0
            self.parent = None
            self.set_output((0, None))
            self.halted = True
            return {0: (0, self.info.id)}
        if self.dist is None:
            best: Optional[Tuple[int, int]] = None
            for _src, payload in inbox:
                record = payload.get(0)
                if record is not None and (best is None or record < best):
                    best = record
            if best is not None:
                self.dist = best[0] + 1
                self.parent = best[1]
                self.set_output((self.dist, self.parent))
                self.halted = True
                if self.max_depth is None or self.dist < self.max_depth:
                    return {0: (self.dist, self.info.id)}
        return None


def message_budget(n: int) -> int:
    """Words per broadcast of a :class:`BFSCollectionMachine` on n nodes.

    Theorem 1.4(ii): O(log n) distinct BFS ids per node-round, three
    words per id record; generous constant, verified by benchmark E4.
    """
    return max(32, 12 * max(1, int(math.log2(max(n, 2)))) ** 2)


class BFSCollectionMachine(Machine):
    """Theorem 1.4: ell delayed BFS algorithms combined into one machine.

    delays:
        ``{root: start_round}``, the shared random delays; its keys are
        the collection's roots, each BFS id being its root's node id.
        The paper draws them uniformly from [1, ell] using shared
        randomness; the drivers in :mod:`repro.core.bfs_collections`
        disseminate them through the leader's tree and meter that cost.
    max_depth:
        Depth cap for the partial-BFS form used by Lemma 3.23; ``None``
        means full BFS.

    Output: ``{bfs_id: (dist, parent)}`` for every BFS that reached this
    node within the cap.
    """

    def __init__(self, info: NodeInfo, delays: Dict[int, int],
                 max_depth: Optional[int] = None):
        super().__init__(info)
        self.delays = delays
        self.max_depth = max_depth
        self.dist: Dict[int, int] = {}
        self.parent: Dict[int, int] = {}
        self.own: List[int] = [info.id] if info.id in delays else []
        self.max_inbox_ids = 0  # diagnostic for Theorem 1.4(ii)
        self.set_output({})

    # -- scheduling ------------------------------------------------------
    def _next_start(self) -> Optional[int]:
        starts = [self.delays[j] for j in self.own if j not in self.dist]
        return min(starts) if starts else None

    def wake_round(self, rnd: int) -> Optional[int]:
        return self._next_start()

    # -- aggregation hook (Definition 3.1) -------------------------------
    @staticmethod
    def aggregate(messages: List[Tuple[int, BFSPayload]],
                  ) -> List[Tuple[int, BFSPayload]]:
        return aggregate_keyed_min(messages)

    # -- execution --------------------------------------------------------
    def on_round(self, rnd: int, inbox: Inbox) -> Optional[BFSPayload]:
        updates: BFSPayload = {}
        ids_this_round = set()
        for j in self.own:
            if j not in self.dist and self.delays[j] <= rnd:
                self.dist[j] = 0
                updates[j] = (0, self.info.id)
        best: BFSPayload = {}
        for _src, payload in inbox:
            for j, record in payload.items():
                ids_this_round.add(j)
                if j not in best or record < best[j]:
                    best[j] = record
        self.max_inbox_ids = max(self.max_inbox_ids, len(ids_this_round))
        for j, (d, origin) in best.items():
            if j in self.dist:
                continue
            self.dist[j] = d + 1
            self.parent[j] = origin
            if self.max_depth is None or self.dist[j] < self.max_depth:
                updates[j] = (self.dist[j], self.info.id)
        self.set_output({j: (self.dist[j], self.parent.get(j))
                         for j in self.dist})
        return updates or None
