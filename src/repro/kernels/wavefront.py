"""Array-native BFS wavefront engines (the ``bfs-wavefront`` kernel).

A BFS collection, given as its ``{root: delay}`` map, is the
unit-weight case of :func:`repro.kernels.relaxation.hop_sweep`: one
hop-aligned sweep over all roots yields every hop distance, parent and
announcement round, and from those the *entire* metered execution of a
:class:`~repro.primitives.bfs.BFSCollectionMachine` collection follows
in closed form, because the machine's behavior is regular: node ``v``
announces BFS ``j`` exactly once, at phase ``delays[j] + dist_j(v)``,
with the record ``(dist_j(v), v)``, and adopts as parent the smallest-id
neighbor one hop closer to the root.

Three consumers, matching the three execution modes of the scalar path:

* :func:`direct_execution` -- replays ``run_machines`` (the direct
  BCONGEST run): per announcement, one broadcast of ``3·cnt`` words
  over every incident edge.  Used by the landmark completion stage and
  by ``repro bench kernels`` as the metered hot loop.
* :func:`star_report` -- replays ``simulate_aggregation_star`` in its
  kappa = 1 degenerate shape (eps = 1: no star clusters, every edge
  F_1-incident), where each phase is one ``_one_shot`` of
  ``(2 + 3·cnt)``-word point-to-point sends.
* :func:`bcongest_plan` -- returns the same announcements as the
  broadcast table (``(phase, node, 3·cnt)`` rows) for the Theorem 2.1
  simulation to replay (transport is still routed and metered for real;
  see :mod:`repro.kernels.plan`).

Each entry point gates itself: it returns None when
:func:`repro.kernels.config.fallback_reason` names a reason (reference
engine, an active fault plan, a round profiler), so a driver writes
``kernel(...) or stepped(...)``.  :func:`star_report` and
:func:`bcongest_plan` note ``kernel:bfs-wavefront`` on the cell when they
serve; :func:`direct_execution` notes nothing, since it serves one stage
of a larger regime.

All emitted values are Python ints; metering reproduces the scalar
path's :class:`~repro.congest.metrics.Metrics` exactly, including the
first-offender oversize errors in (round, node) order.  Connected
graphs are assumed (every node has degree >= 1), which every scenario
builder guarantees.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.congest.errors import MessageTooLarge
from repro.congest.machine import check_broadcast_words
from repro.congest.metrics import Metrics
from repro.congest.network import Execution
from repro.graphs.graph import Graph
from repro.kernels.config import fallback_reason, note_engine
from repro.kernels.plan import BcongestPlan, CollectionResult
from repro.kernels.relaxation import announcements, hop_sweep


def _first_offender(ev_v: np.ndarray, ev_p: np.ndarray, sizes: np.ndarray,
                    limit: int) -> Optional[Tuple[int, int, int]]:
    """The first oversize event in (round, node) order, or None.

    Both scalar paths step nodes in ascending order within a phase, and
    the events come in that order.
    """
    over = np.flatnonzero(sizes > limit)
    if not over.size:
        return None
    i = int(over[0])
    return int(ev_v[i]), int(ev_p[i]), int(sizes[i])


def _meter_broadcast_events(metrics: Metrics, graph: Graph,
                            ev_v: np.ndarray, ev_cnt: np.ndarray,
                            sizes: np.ndarray) -> None:
    """Fold the per-event edge metering into ``metrics``.

    Equivalent to ``record_broadcast_sends(edge_keys[v], size)`` (resp.
    one ``record_send`` per neighbor, which meters identically) for each
    event: deg(v) messages of ``size`` words, +1 congestion per incident
    edge.
    """
    deg = np.diff(graph._indptr)[ev_v]
    metrics.messages += int(deg.sum())
    metrics.words += int((sizes * deg).sum())
    if len(sizes):
        top = int(sizes.max())
        if top > metrics.max_message_words:
            metrics.max_message_words = top
        uniq, inverse = np.unique(sizes, return_inverse=True)
        per_size = np.bincount(inverse, weights=deg)
        for size, count in zip(uniq.tolist(), per_size.tolist()):
            metrics.message_sizes[int(size)] += int(count)
    edge_keys = graph.edge_keys()
    events_at = np.bincount(ev_v, minlength=graph.n)
    congestion = metrics.edge_congestion
    for v in np.nonzero(events_at)[0].tolist():
        count = int(events_at[v])
        for key in edge_keys[v]:
            congestion[key] += count


def _collection(graph: Graph, delays: Dict[int, int],
                ) -> Tuple[CollectionResult, Tuple[np.ndarray, ...]]:
    """The prologue every consumer shares: one unit-weight
    :func:`~repro.kernels.relaxation.hop_sweep` over the roots (the keys
    of ``delays``), then the result's arrays and the ``(node, phase,
    count)`` announcements in (phase, node) order."""
    js = np.array(sorted(delays), dtype=np.int64)
    dist, parent, events = hop_sweep(
        graph, js, np.array([delays[j] for j in js.tolist()], dtype=np.int64))
    reached = dist < np.inf
    hops = np.where(reached, dist, 0).astype(np.int64)
    return (CollectionResult(js, hops, parent, reached),
            announcements(events, graph.n))


def direct_execution(graph: Graph, delays: Dict[int, int], *,
                     word_limit: int) -> Optional[Execution]:
    """Closed-form replay of ``run_machines`` on a BFS collection, or
    None when the cell needs the ``Network`` loop.  It notes no engine:
    it serves one stage of a larger regime."""
    if fallback_reason() is not None:
        return None
    result, (ev_v, ev_p, ev_cnt) = _collection(graph, delays)
    sizes = 3 * ev_cnt
    offender = _first_offender(ev_v, ev_p, sizes, word_limit)
    if offender is not None:
        v, p, size = offender
        raise MessageTooLarge(
            f"{size} words > limit {word_limit} "
            f"(node {v} -> {graph.neighbors(v)[0]}, round {p})")
    metrics = Metrics()
    metrics.broadcasts += len(ev_v)
    _meter_broadcast_events(metrics, graph, ev_v, ev_cnt, sizes)
    rounds = int(ev_p.max()) + 1 if len(ev_p) else 0
    metrics.rounds += rounds
    return Execution(outputs=result.outputs, metrics=metrics, algorithms={},
                     rounds=rounds, halted={})


def star_report(graph: Graph, hierarchy, delays: Dict[int, int], *,
                message_words: int):
    """Closed-form replay of the kappa = 1 star simulation, or None.

    Declines when the cell needs the ``Network`` loop, and is eligible
    only in the degenerate eps = 1 shape the bfs-collection
    binding uses: no star clusters, every node low-degree, and the F_1
    edge set covering the whole graph -- then each phase is exactly one
    ``_one_shot`` where every broadcaster sends ``("i", v, payload)``
    (2 + 3·cnt words) to each neighbor, costing two metered rounds.
    """
    from repro.core.tradeoff_sim import TradeoffReport, _congestion_split

    if fallback_reason() is not None:
        return None
    if hierarchy.kappa != 1 or hierarchy.n_levels < 2:
        return None
    level1 = hierarchy.levels[1]
    if level1.cluster_of:
        return None
    f_incident: Dict[int, set] = {v: set() for v in graph.nodes()}
    for (u, w) in level1.f_edges:
        f_incident[u].add(w)
        f_incident[w].add(u)
    nbr_sets = graph.nbr_sets()
    if any(f_incident[v] != nbr_sets[v] for v in graph.nodes()):
        return None

    result, (ev_v, ev_p, ev_cnt) = _collection(graph, delays)
    offender = _first_offender(ev_v, ev_p, 3 * ev_cnt, message_words)
    if offender is not None:
        check_broadcast_words(offender[2], message_words)  # raises

    total = Metrics()
    preprocessing = total.snapshot()
    _meter_broadcast_events(total, graph, ev_v, ev_cnt, 2 + 3 * ev_cnt)
    total.rounds += 2 * len(np.unique(ev_p))
    simulation = total.delta_since(preprocessing)
    on_cluster, off_cluster = _congestion_split(simulation,
                                                hierarchy.cluster_edges())
    note_engine("kernel:bfs-wavefront")
    return TradeoffReport(
        outputs=result.outputs,
        total=total,
        preprocessing=preprocessing,
        simulation=simulation,
        phases=int(ev_p.max()) + 1 if len(ev_p) else 1,
        broadcasts_simulated=len(ev_v),
        cluster_edge_congestion=on_cluster,
        non_cluster_edge_congestion=off_cluster,
        mode="star",
    )


def bcongest_plan(graph: Graph,
                  delays: Dict[int, int]) -> Optional[BcongestPlan]:
    """The Theorem 2.1 replay plan for a BFS collection, or None when
    the cell needs the ``Network`` loop.

    The broadcast table is the announcement schedule in (phase, node)
    order, each announcing node's broadcast ``3 * cnt`` words, the size
    of the ``{j: (dist, v)}`` payload the machine would return; the
    simulation re-routes the identical transport packets, so only the
    machine stepping is skipped.  The machines never halt, so the loop
    ends one phase after the last announcement.
    """
    if fallback_reason() is not None:
        return None
    result, (ev_v, ev_p, ev_cnt) = _collection(graph, delays)
    note_engine("kernel:bfs-wavefront")
    return BcongestPlan(
        phase=ev_p, node=ev_v, words=3 * ev_cnt, result=result,
        executed_phases=int(ev_p.max()) + 1 if len(ev_p) else 1)
