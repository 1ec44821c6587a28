"""The hop-aligned multi-source sweep behind both kernels, and the
array-native Bellman-Ford engine (the ``bellman-ford`` kernel).

With shared random delays, each source's collection is the same run
shifted by its delay: node ``v`` announces source ``j`` in round
``delay_j + h`` exactly when its estimate for ``j`` improved at hop
``h``.  :func:`hop_sweep` therefore advances all sources together, one
hop at a time, over the graph's CSR arrays, keeping the machines' rule:
a node's new estimate is the least ``announced + w(announcer -> node)``
over the neighbors that announced the source at the previous hop, ties
going to the smallest announcer id -- the per-source lexicographic min
over ``(candidate, origin)`` records of a
:class:`~repro.primitives.bellman_ford.BellmanFordCollectionMachine`.
BFS is the unit-weight case: each (source, node) improves once, at hop
``dist``, with the smallest-id neighbor one hop closer as its parent,
as a :class:`~repro.primitives.bfs.BFSCollectionMachine` adopts it.
Arithmetic is IEEE float64, the Python float the scalar machines
compute with, so every distance comes out bit-identical; integer
weights convert back to exact Python ints (the builder declines graphs
whose weights could leave float64's exact-integer range).

:func:`announcements` folds the improvement events into one broadcast
per announcing (round, node), and :func:`bcongest_plan` turns the APSP
collection (a ``{source: delay}`` map over every node) into a
:class:`~repro.kernels.plan.BcongestPlan` for
:func:`repro.core.bcongest_sim.simulate_bcongest` to replay: each
broadcast is ``3 * k`` words, the size of a ``{j: (d, v)}`` payload
over the ``k`` sources the node improved.  Transport packets are still
routed and metered for real; only the machine stepping is precomputed.
Like every kernel entry point, :func:`bcongest_plan` gates and labels
itself: None when :func:`repro.kernels.config.fallback_reason` names a
reason or the weights defeat exact replay, else the plan, with
``kernel:bellman-ford`` noted on the cell.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.kernels.config import fallback_reason, note_engine
from repro.kernels.plan import BcongestPlan, CollectionResult

# Beyond this, n + 1 chained additions of int weights may leave
# float64's exact-integer range (2^53); the builder declines.
_EXACT_LIMIT = 2 ** 52

# Candidates one step of the sweep relaxes at once: small enough for its
# arrays to stay in cache, large enough to amortize numpy's per-call cost.
_STEP_CANDIDATES = 2 ** 13


def hop_sweep(graph: Graph, sources: np.ndarray, delays: np.ndarray,
              w_out: Optional[np.ndarray] = None,
              last_hop: Optional[np.ndarray] = None,
              ) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]:
    """Relax all sources together, one hop at a time.

    Row ``i`` is the source at node ``sources[i]``, started in round
    ``delays[i]``.  ``w_out`` holds the CSR-aligned sender-side weights
    (slot ``e`` of node ``u`` weighs ``w(u -> indices[e])``); ``None``
    counts hops.  Row ``i`` stops after hop ``last_hop[i]`` (the
    machines' deadline); without it the sweep runs until no estimate
    improves.  Each hop is relaxed in chunks of whole rows of about
    ``_STEP_CANDIDATES`` candidates, so memory stays flat in ``k``.

    Returns ``(dist, parent, events)``: (k, n) float64 distances (inf
    where unreached), int64 parents (-1 for none, as at a source), and
    the improvement events ``(row, node, round)``, hop 0 being each
    source's own start.
    """
    n, k = graph.n, len(sources)
    dist = np.full((k, n), np.inf)
    parent = np.full((k, n), -1, dtype=np.int64)
    least = np.full(k * n, n)
    deg = np.diff(graph._indptr)
    frontier = np.arange(k, dtype=np.int64) * n + sources
    dist.reshape(-1)[frontier] = 0.0
    announced: List[np.ndarray] = [frontier]
    # Under unit weights each node improves once, at its first reach, so
    # a row that has reached every node is done.
    unreached = np.full(k, n - 1)
    hop = 0
    while frontier.size:
        hop += 1
        done = unreached == 0 if w_out is None else np.zeros(k, bool)
        if last_hop is not None:
            done |= last_hop < hop
        rows = frontier // n
        keep = ~done[rows]
        frontier, rows = frontier[keep], rows[keep]
        if not frontier.size:
            break
        edges = _chunk_edges(rows, deg[frontier - rows * n])
        frontier = np.concatenate([
            _step(graph, frontier[a:b], dist, parent, least, w_out)
            for a, b in zip(edges[:-1], edges[1:])])
        unreached -= np.bincount(frontier // n, minlength=k)
        announced.append(frontier)
    keys = np.concatenate(announced)
    rows = keys // n
    hops = np.repeat(np.arange(len(announced)), [len(a) for a in announced])
    return dist, parent, (rows, keys - rows * n, delays[rows] + hops)


def _chunk_edges(rows: np.ndarray, candidates: np.ndarray) -> List[int]:
    """Offsets cutting the frontier into runs of whole rows with about
    ``_STEP_CANDIDATES`` candidates each (a row with more stands alone)."""
    cum = np.cumsum(candidates)
    cut = np.searchsorted(cum, np.arange(_STEP_CANDIDATES, int(cum[-1]),
                                         _STEP_CANDIDATES), side="right")
    cut = np.unique(np.searchsorted(rows, rows[cut]))  # back to row starts
    return [0, *cut[cut > 0].tolist(), len(rows)]


def _step(graph: Graph, frontier: np.ndarray, dist: np.ndarray,
          parent: np.ndarray, least: np.ndarray,
          w_out: Optional[np.ndarray]) -> np.ndarray:
    """Expand each announcing ``row * n + node`` entry over its CSR
    slots and keep the least ``(value, origin)`` per improved target.

    Two scatter-mins do it without a sort: the least value lands in
    ``dist``, then the least origin among the candidates attaining it
    in ``least``, an all-``n`` scratch the size of ``dist`` that is left
    as it was found.  Returns the improved entries, ascending.
    """
    n = graph.n
    indptr, indices = graph._indptr, graph._indices
    row_base = frontier - frontier % n
    nodes = frontier - row_base
    start = indptr[nodes]
    count = indptr[nodes + 1] - start
    slot = np.repeat(start - np.cumsum(count) + count, count)
    slot += np.arange(len(slot))
    target = indices[slot]
    target += np.repeat(row_base, count)
    flat = dist.reshape(-1)
    value = np.repeat(flat[frontier], count)
    value += 1.0 if w_out is None else w_out[slot]
    before = flat[target]
    np.minimum.at(flat, target, value)
    won = (value < before) & (value == flat[target])
    origin = np.where(won, np.repeat(nodes, count), n)
    np.minimum.at(least, target, origin)
    winner = np.flatnonzero(won & (origin == least[target]))
    improved = target[winner]
    parent.reshape(-1)[improved] = origin[winner]
    least[improved] = n
    return np.sort(improved)


def announcements(events: Tuple[np.ndarray, ...], n: int,
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One broadcast per announcing (round, node), in that order.

    Returns ``(node, round, count)``: ``count`` is how many sources the
    node announces in that round -- one broadcast of a ``{j: (dist,
    v)}`` payload, 3 words a source.
    """
    _rows, nodes, rounds = events
    keys, counts = np.unique(rounds * n + nodes, return_counts=True)
    return keys % n, keys // n, counts


def _sender_weights(graph: Graph,
                    ) -> Optional[Tuple[Optional[np.ndarray], bool]]:
    """The sweep's ``w_out`` (``None`` when unweighted) and whether the
    weights are ints, or None when replay is not exact."""
    if not graph.is_weighted:
        return None, True
    w_out = graph._weight_slices()[0]
    if not all(isinstance(w, (int, float)) for w in w_out):
        return None
    int_mode = all(isinstance(w, int) for w in w_out)
    if int_mode and w_out:
        if max(abs(w) for w in w_out) * (graph.n + 1) >= _EXACT_LIMIT:
            return None
    return np.asarray(w_out, dtype=np.float64), int_mode


def bcongest_plan(graph: Graph,
                  delays: Dict[int, int]) -> Optional[BcongestPlan]:
    """The replay plan for the APSP collection (a delay for every node),
    or None when the cell needs the ``Network`` loop or the weights
    defeat exact replay.

    The machines halt ``n`` rounds past the last start, announcing in
    that deadline round if they improve.
    """
    if fallback_reason() is not None:
        return None
    n = graph.n
    if n == 0 or len(delays) != n:
        return None
    weights = _sender_weights(graph)
    if weights is None:
        return None
    w_out, int_mode = weights
    start = np.array([delays[j] for j in range(n)], dtype=np.int64)
    deadline = int(start.max()) + n
    dist, parent, events = hop_sweep(graph, np.arange(n), start, w_out,
                                     last_hop=deadline - start)
    node, rnd, count = announcements(events, n)
    reached = dist < np.inf
    dist = np.where(reached, dist, 0)
    note_engine("kernel:bellman-ford")
    return BcongestPlan(
        phase=rnd, node=node, words=3 * count,
        result=CollectionResult(np.arange(n), dist.astype(np.int64)
                                if int_mode else dist, parent, reached),
        executed_phases=deadline + int(rnd[-1] == deadline))
