"""Array-native Bellman-Ford engine (the ``bellman-ford`` kernel).

Replays the whole execution of a
:class:`~repro.primitives.bellman_ford.BellmanFordCollectionMachine`
collection (sources = {j: j}) as synchronous numpy relaxation sweeps
over the graph's CSR arrays.  Per round, a node's new estimate for a
source is the minimum over neighbors that announced in the previous
round of (announced value + w(neighbor -> node)), ties broken toward the
smallest neighbor id -- exactly the machine's per-source lexicographic
min over ``(candidate, origin)`` records.  Arithmetic is IEEE float64,
which is the Python float the scalar machines compute with, so every
distance comes out bit-identical; integer-weighted graphs additionally
convert back to exact Python ints (and the builder declines graphs whose
weights could exceed float64's exact-integer range).

The output is a :class:`~repro.kernels.plan.BcongestPlan` for
:func:`repro.core.bcongest_sim.simulate_bcongest` to replay: per round,
the broadcast table lists each announcing node with ``3 * k`` words,
the size of its ``{j: (d, v)}`` payload over the ``k`` sources it
improved.  Transport packets are still routed and metered for real;
only the per-node machine stepping is precomputed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.kernels.plan import BcongestPlan, collection_outputs

# Beyond this, n + 1 chained additions of int weights may leave
# float64's exact-integer range (2^53); the builder declines.
_EXACT_LIMIT = 2 ** 52


def _in_weights(graph: Graph) -> Optional[Tuple[np.ndarray, bool]]:
    """CSR-aligned incoming-edge weights, or None when not exact.

    Returns ``(w_in, int_mode)`` where ``w_in[e]`` for edge slot ``e`` of
    node ``u`` is w(neighbor -> u), matching the machine's
    ``_weight_from``.
    """
    if not graph.is_weighted:
        return np.ones(len(graph._indices), dtype=np.float64), True
    w_in = graph._weight_slices()[1]
    if not all(isinstance(w, (int, float)) for w in w_in):
        return None
    int_mode = all(isinstance(w, int) for w in w_in)
    if int_mode and w_in:
        if max(abs(w) for w in w_in) * (graph.n + 1) >= _EXACT_LIMIT:
            return None
    return np.asarray(w_in, dtype=np.float64), int_mode


def bcongest_plan(graph: Graph,
                  delays: Dict[int, int]) -> Optional[BcongestPlan]:
    """The replay plan for APSP sources = {j: j}, or None when declined."""
    n = graph.n
    if n == 0 or len(delays) != n:
        return None
    weights = _in_weights(graph)
    if weights is None:
        return None
    return _relax(graph, delays, *weights)


def _relax(graph: Graph, delays: Dict[int, int], w_in: np.ndarray,
           int_mode: bool) -> BcongestPlan:
    """Relax round by round, collecting each announcing round's
    ``(rnd, nodes, 3 * counts)`` into the plan's broadcast table.  The
    machines' horizon is their default, ``n`` rounds past the last
    start."""
    n = graph.n
    indptr, indices = graph._indptr, graph._indices
    deg = np.diff(indptr)
    reduce_at = np.minimum(indptr[:-1], max(len(indices) - 1, 0))
    inf = np.inf
    dist = np.full((n, n), inf)
    parent = np.full((n, n), -1, dtype=np.int64)  # -1 = "no parent"
    starts_by_round: Dict[int, List[int]] = {}
    for j in range(n):
        starts_by_round.setdefault(delays[j], []).append(j)
    last_start = max(delays.values())
    deadline = last_start + n

    prev_ann = np.zeros((n, n), dtype=bool)
    prev_val = np.zeros((n, n))
    last_ann_round = 0
    empty = np.zeros(0, dtype=np.int64)
    table: List[Tuple[np.ndarray, ...]] = [(empty, empty, empty)]
    for rnd in range(1, deadline + 1):
        ann = np.zeros((n, n), dtype=bool)
        for j in starts_by_round.get(rnd, ()):
            dist[j, j] = 0.0
            ann[j, j] = True
        active = np.nonzero(prev_ann.any(axis=1))[0]
        if active.size and len(indices):
            vals = np.where(prev_ann[active], prev_val[active], inf)
            incoming = vals[:, indices] + w_in
            best = np.minimum.reduceat(incoming, reduce_at, axis=1)
            if (deg == 0).any():
                best[:, deg == 0] = inf
            improve = best < dist[active]
            if improve.any():
                origin_cand = np.where(
                    incoming == np.repeat(best, deg, axis=1), indices, n)
                origin = np.minimum.reduceat(origin_cand, reduce_at, axis=1)
                rows, cols = np.nonzero(improve)
                src_rows = active[rows]
                dist[src_rows, cols] = best[rows, cols]
                parent[src_rows, cols] = origin[rows, cols]
                ann[src_rows, cols] = True
        if not ann.any():
            prev_ann = ann
            if rnd >= last_start:
                break  # quiesced: no estimate can ever improve again
            continue
        last_ann_round = rnd
        prev_val = np.where(ann, dist, 0.0)
        prev_ann = ann
        counts = ann.sum(axis=0)  # sources each node announces
        nodes = np.flatnonzero(counts)
        table.append((np.full(len(nodes), rnd, dtype=np.int64), nodes,
                      3 * counts[nodes]))

    reached = dist < inf
    if int_mode:
        dist = np.where(reached, dist, 0).astype(np.int64)
    outputs, words = collection_outputs(range(n), dist, parent, reached)
    phase, node, sizes = (np.concatenate(column) for column in zip(*table))
    return BcongestPlan(
        phase=phase, node=node, words=sizes, outputs=outputs,
        output_words=words,
        executed_phases=deadline + (1 if last_ann_round == deadline else 0))
