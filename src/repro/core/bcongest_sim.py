"""Theorem 2.1: message-efficient CONGEST simulation of BCONGEST algorithms.

Given any BCONGEST algorithm A with round complexity T_A and broadcast
complexity B_A, this driver produces an equivalent CONGEST execution A'
with message complexity Õ(In + Out + B_A) and round complexity
Õ(In + Out + T_A * n) -- the paper's first main result, and the engine
behind Theorem 1.1 (weighted APSP), Corollary 2.8 (bipartite maximum
matching), and Corollary 2.9 (neighborhood covers).

Structure (§2.2):

* **Preprocessing** -- build a global BFS tree (leader election,
  counting, broadcast of n); compute an (O(log n), O(log n))-LDC
  decomposition (Lemma 2.4); and have every cluster center gather its
  members' local inputs (1-hop neighborhoods, via upcast over the
  cluster trees -- Lemma 1.5).

* **Simulation** -- one phase per round of A.  At the start of phase p
  every center knows the state of each member at the start of round p of
  A (the machines literally live at the centers); it locally steps them,
  delivers intra-cluster messages for free (local knowledge), and routes
  each broadcast to every neighboring cluster through exactly one
  packet: downcast to the F-edge endpoint, one hop over the F edge, and
  upcast to the receiving cluster's center (Lemma 1.6 + Lemma 1.5).  The
  receiving center then delivers the message to every member adjacent to
  the broadcaster -- it can, because it knows all edges incident to its
  members.  This is the invariant of Lemma 2.5, and the
  ``tests/test_bcongest_sim.py`` equivalence tests check it end to end:
  the simulated outputs are byte-identical to a direct BCONGEST run.

* **Output delivery** -- after the machines halt, centers downcast each
  member's output, chunked into O(1)-word packets (the O(Out) term).
  Every chunk of one member follows the same tree path, so the driver
  sizes each output once (:func:`output_words`, or a kernel plan's
  sizes, counted from its arrays) and routes ``ceil(words / 4)`` chunks
  per member through :func:`~repro.primitives.transport.route_downcast`,
  the downcast's closed form, instead of one packet per chunk.

Phases in which A is globally silent cost nothing and are skipped; this
only ever lowers the round count relative to the paper's fixed budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.congest.machine import (
    MachineFactory,
    MachineSet,
    check_broadcast_words,
)
from repro.congest.metrics import Metrics
from repro.congest.network import payload_words
from repro.congest.profile import mark_phase
from repro.decomposition.ldc import LDCDecomposition, build_ldc
from repro.graphs.graph import Graph
from repro.kernels.plan import CollectionResult
from repro.primitives.global_tree import build_global_tree
from repro.primitives.transport import (
    Packet,
    path_from_root,
    path_to_root,
    route_downcast,
    route_packets,
    route_phases,
    route_upcast,
)


def output_words(obj: Any) -> int:
    """The size in one-word payloads of an output object.

    Used to meter the O(Out) output-downcast term with the *actual*
    output content: scalars cost one word, containers the sum of their
    items, dict entries key + value, and ``None`` nothing.
    """
    if obj is None:
        return 0
    if isinstance(obj, (int, float, bool, str)):
        return 1
    if isinstance(obj, (tuple, list, set, frozenset)):
        return sum(output_words(item) for item in obj)
    if isinstance(obj, dict):
        return sum(output_words(key) + output_words(value)
                   for key, value in obj.items())
    raise TypeError(f"cannot flatten {type(obj)!r}")


@dataclass
class SimulationReport:
    """Everything Theorem 2.1 talks about, as measured."""

    stepped_outputs: Optional[Dict[int, Any]]
    total: Metrics
    preprocessing: Metrics
    simulation: Metrics
    output_delivery: Metrics
    phases: int                      # T_A as executed
    broadcasts_simulated: int        # B_A as executed
    input_words: int                 # In (graph description at centers)
    output_words: int                # Out
    ldc_stats: Dict[str, int] = field(default_factory=dict)
    result: Optional[CollectionResult] = None  # a replayed plan's

    @property
    def outputs(self) -> Dict[int, Any]:
        """``{node: output}`` at halt (from ``result`` on first read)."""
        return self.result.outputs if self.result else self.stepped_outputs


def gather_member_inputs(graph: Graph,
                         ldc: LDCDecomposition) -> Tuple[int, Metrics]:
    """Preprocessing step 3: upcast every member's 1-hop neighborhood.

    Each incident edge is one O(1)-word item ((v, u) plus weights when
    present); the center ends up knowing all edges incident to its
    cluster, which both delivery steps of the simulation rely on.
    Returns (In in words, metrics).
    """
    parent = ldc.parent
    # (v, u), plus both directions' weights when present.
    edge_words = 4 if graph.is_weighted else 2
    routes: List[Tuple[Tuple[int, ...], int, int]] = []
    input_words = 0
    for v in graph.nodes():
        path = path_to_root(parent, v)
        # v's items: one per incident edge, then one (v, u, "F")
        # annotation per incident edge it chose for F.
        degree, chosen = graph.degree(v), len(ldc.out_edges[v])
        input_words += degree * edge_words + 3 * chosen
        if len(path) > 1:
            # One item per packet: destination plus an O(1)-word item.
            routes += [(path, degree, 1 + edge_words), (path, chosen, 4)]
    if not routes:
        return input_words, Metrics()
    return input_words, route_upcast(graph, routes, word_limit=8)


def simulate_bcongest(graph: Graph, factory: MachineFactory, *,
                      inputs: Optional[Dict[int, Any]] = None,
                      seed: int = 0, beta: float = 0.5,
                      message_words: int = 8,
                      max_phases: int = 1_000_000,
                      plan=None) -> SimulationReport:
    """Run the Theorem 2.1 simulation of the machine collection ``factory``.

    ``message_words`` bounds the size of A's own broadcast payloads (the
    BCONGEST message size); transport packets carry one such payload plus
    the origin ID and destination.

    The machine seeds match :func:`repro.congest.machine.run_machines`
    with the same ``seed``, so a direct execution and this simulation
    are comparable message-for-message and must produce identical
    outputs.

    ``plan`` (a :class:`repro.kernels.plan.BcongestPlan`) replays a
    precomputed execution from its broadcast table (each broadcast's
    phase, node and words): no machines are constructed or stepped, and
    the same transport packets (paths, sizes, order) go to
    :func:`~repro.primitives.transport.route_phases` as packet arrays
    in one call, which meters them as one ``route_packets`` call per
    phase would, so the metrics are byte-identical.  Output delivery
    sizes the plan's result from its arrays, and the report carries
    that result rather than output dicts; preprocessing is unchanged.

    Every packet built here declares its size (``Packet.words``), from
    payload sizes already known here: a broadcast's words plus origin
    and destination; gathered items and output chunks are routed as
    per-member counts.
    """
    total = Metrics()

    # ---------------- Preprocessing ----------------
    mark_phase("preprocessing")
    tree = build_global_tree(graph, seed=seed)
    total.merge(tree.metrics)
    ldc = build_ldc(graph, beta=beta, seed=seed + 1)
    total.merge(ldc.metrics)
    input_words, gather_metrics = gather_member_inputs(graph, ldc)
    total.merge(gather_metrics)
    preprocessing = total.snapshot()

    parent = ldc.parent
    members = ldc.members()
    center_of = ldc.center_of

    down_paths = {v: path_from_root(parent, v) for v in graph.nodes()}
    up_paths = {v: path_to_root(parent, v) for v in graph.nodes()}
    # Per broadcaster, its packets' paths, one per neighboring cluster:
    # downcast to the F-edge endpoint, the F edge, upcast to the
    # receiving cluster's center.
    routes = [[down_paths[v] + (u_ext,) + up_paths[u_ext][1:]
               for (_v, u_ext) in ldc.out_edges[v]]
              for v in graph.nodes()]

    # ---------------- Simulation phases ----------------
    mark_phase("simulation")
    transport_limit = message_words + 3  # payload + origin + dest + slack
    if plan is not None:
        # Kernel replay: the broadcast table is precomputed.  Sizes are
        # checked first: the routes are tree and F edges and every
        # packet fits transport_limit, so no phase before the first
        # oversize broadcast can fail.  The packets (each broadcaster's
        # routes, 2 + words each, phase by phase in node order) go to
        # route_phases, which meters them as one route_packets call per
        # phase would.
        oversize = np.flatnonzero(plan.words > message_words)
        if len(oversize):
            check_broadcast_words(int(plan.words[oversize[0]]),
                                  message_words)  # raises
        fanout = np.array([len(paths) for paths in routes], dtype=np.int64)
        reps = fanout[plan.node]
        # Packet k of broadcast b takes route first[node[b]] + k.
        first = np.cumsum(fanout) - fanout
        route = (np.repeat(first[plan.node] - (np.cumsum(reps) - reps), reps)
                 + np.arange(int(reps.sum())))
        total.merge(route_phases(
            graph, [path for paths in routes for path in paths], route,
            np.repeat(plan.phase, reps), np.repeat(2 + plan.words, reps),
            word_limit=transport_limit))
        broadcasts_simulated = len(plan.node)
        executed_phases = plan.executed_phases
    else:
        # Cluster centers instantiate their members' machines locally (a
        # kernel-plan replay skips the machines entirely).
        machines = MachineSet(graph, factory, inputs=inputs, seed=seed,
                              message_words=message_words)

        def deliver(_phase: int, broadcasters: Dict[int, Any],
                    ) -> Dict[int, List[Tuple[int, Any]]]:
            # Intra-cluster delivery: free, the center knows all.
            inboxes: Dict[int, List[Tuple[int, Any]]] = {}
            for v, payload in broadcasters.items():
                for u in graph.neighbors(v):
                    if center_of[u] == center_of[v]:
                        inboxes.setdefault(u, []).append((v, payload))
            # Inter-cluster delivery: one packet per route, each of
            # dest + origin + the broadcast's words.
            packets = []
            for v, payload in broadcasters.items():
                if routes[v]:
                    words = 2 + payload_words(payload)
                    packets.extend(Packet(path=path, payload=(v, payload),
                                          words=words)
                                   for path in routes[v])
            if packets:
                deliveries, metrics = route_packets(
                    graph, packets, word_limit=transport_limit)
                total.merge(metrics)
                for delivery in deliveries:
                    src, payload = delivery.payload
                    receiving_center = delivery.dest
                    for u in members[receiving_center]:
                        if src in graph.neighbors(u):
                            inboxes.setdefault(u, []).append((src, payload))
            return inboxes

        executed_phases = machines.drive(deliver, max_phases,
                                         "simulate_bcongest")
        broadcasts_simulated = machines.broadcasts
    simulation = total.delta_since(preprocessing)
    simulated = total.snapshot()

    # ---------------- Output delivery ----------------
    mark_phase("output-delivery")
    if plan is not None:
        outputs, sizes = None, plan.result.output_words()
    else:
        outputs = machines.outputs()
        sizes = [output_words(outputs[v]) for v in graph.nodes()]
    chunks: List[Tuple[Tuple[int, ...], int, int]] = []
    for v in graph.nodes():
        words = sizes[v]
        path = down_paths[v]
        if len(path) > 1 and words:
            # ceil(words / 4) chunks of one-word scalars (Lemma 1.6's
            # O(1)-word chunks), plus the destination; the first chunk
            # is the largest.
            chunks.append((path, -(-words // 4), 1 + min(words, 4)))
    if chunks:
        total.merge(route_downcast(graph, chunks, word_limit=8))
    output_delivery = total.delta_since(simulated)

    report = SimulationReport(
        stepped_outputs=outputs,
        total=total,
        preprocessing=preprocessing,
        simulation=simulation,
        output_delivery=output_delivery,
        phases=executed_phases,
        broadcasts_simulated=broadcasts_simulated,
        input_words=input_words,
        output_words=sum(sizes),
        result=plan.result if plan else None,
    )
    report.ldc_stats = {
        "clusters": ldc.clustering.num_clusters,
        "max_out_degree": ldc.max_out_degree(),
        "max_radius": ldc.clustering.max_radius(),
    }
    return report
