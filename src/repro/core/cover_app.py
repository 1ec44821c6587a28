"""Corollary 2.9: (k, W)-sparse neighborhood covers with Õ(n²) messages.

The whole construction -- Õ(n^{1/k}) ball-carving repetitions, each a
BCONGEST flood with broadcast complexity exactly n -- is packaged as a
single BCONGEST machine (:class:`CoverCollectionMachine`), so the
Theorem 2.1 simulation pays its Õ(In) preprocessing once and then
Õ(B) = Õ(n^{1+1/k}) for the phases, giving the corollary's Õ(n²)
message bound.  ``neighborhood_cover_direct`` runs the same machine
directly in BCONGEST for the benchmark comparison (message cost
Õ(m n^{1/k})).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.congest.machine import run_machines
from repro.congest.metrics import Metrics
from repro.core.bcongest_sim import simulate_bcongest
from repro.covers.mpx_cover import NeighborhoodCover, build_cover_machine_factory
from repro.decomposition.mpx import clustering_from_outputs
from repro.graphs.graph import Graph


@dataclass
class CoverResult:
    cover: NeighborhoodCover
    metrics: Metrics
    detail: Dict[str, float] = field(default_factory=dict)


def _package(graph: Graph, outputs: Dict[int, list], reps: int,
             beta: float) -> List:
    clusterings = []
    for rep in range(reps):
        rep_outputs = {v: outputs[v][rep] for v in graph.nodes()}
        clusterings.append(
            clustering_from_outputs(graph, rep_outputs, beta, Metrics()))
    return clusterings


def neighborhood_cover(graph: Graph, k: int, w: int, *, seed: int = 0,
                       boost: float = 3.0) -> CoverResult:
    """Corollary 2.9 via the Theorem 2.1 simulation."""
    factory, reps, beta, _cap = build_cover_machine_factory(
        graph, k, w, boost=boost)
    report = simulate_bcongest(graph, factory, seed=seed, message_words=8)
    clusterings = _package(graph, report.outputs, reps, beta)
    cover = NeighborhoodCover(k=k, w=w, clusterings=clusterings,
                              metrics=report.total)
    return CoverResult(cover=cover, metrics=report.total,
                       detail={"repetitions": reps,
                               "broadcasts": report.broadcasts_simulated,
                               "sim_messages": report.simulation.messages,
                               "pre_messages": report.preprocessing.messages})


def neighborhood_cover_direct(graph: Graph, k: int, w: int, *,
                              seed: int = 0,
                              boost: float = 3.0) -> CoverResult:
    """The same construction run directly in BCONGEST."""
    factory, reps, beta, _cap = build_cover_machine_factory(
        graph, k, w, boost=boost)
    execution = run_machines(graph, factory, seed=seed)
    clusterings = _package(graph, execution.outputs, reps, beta)
    cover = NeighborhoodCover(k=k, w=w, clusterings=clusterings,
                              metrics=execution.metrics)
    return CoverResult(cover=cover, metrics=execution.metrics,
                       detail={"repetitions": reps,
                               "rounds": execution.rounds,
                               "messages": execution.metrics.messages})
