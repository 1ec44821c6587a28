"""repro -- a full reproduction of "Message Optimality and Message-Time
Trade-offs for APSP and Beyond" (Dufoulon, Pai, Pandurangan, Pemmaraju,
Robinson; PODC 2025, arXiv:2504.21781).

Public API highlights
---------------------

* ``repro.weighted_apsp(graph)`` -- Theorem 1.1: exact weighted APSP
  with Õ(n²) messages.
* ``repro.apsp_tradeoff(graph, eps)`` -- Theorem 1.2: unweighted APSP in
  Õ(n^{2-eps}) rounds / Õ(n^{2+eps}) messages for any eps in [0, 1].
* ``repro.simulate_bcongest(graph, machine_factory)`` -- Theorem 2.1:
  message-efficient simulation of any BCONGEST algorithm.
* ``repro.simulate_aggregation(...)`` / ``repro.simulate_aggregation_star``
  -- Theorems 3.9 / 3.10: trade-off simulations of aggregation-based
  algorithms over pruned Baswana-Sen hierarchies.
* ``repro.maximum_matching(graph)`` -- Corollary 2.8.
* ``repro.neighborhood_cover(graph, k, w)`` -- Corollary 2.9.

Everything runs on a literal simulator of the synchronous CONGEST model
(``repro.congest``); all message/round/congestion counts are measured by
actually transmitting the messages.  The paper experiments E1-E14
under ``benchmarks/`` compare the measured counts with the paper's
claims.
"""

from repro.congest import Machine, Metrics, run_algorithm, run_machines
from repro.core import (
    apsp_tradeoff,
    maximum_matching,
    neighborhood_cover,
    simulate_aggregation,
    simulate_aggregation_star,
    simulate_bcongest,
    weighted_apsp,
)
from repro.graphs import Graph, from_edges

__version__ = "1.0.0"

__all__ = [
    "Graph", "Machine", "Metrics", "apsp_tradeoff", "from_edges",
    "maximum_matching", "neighborhood_cover", "run_algorithm",
    "run_machines", "simulate_aggregation", "simulate_aggregation_star",
    "simulate_bcongest", "weighted_apsp", "__version__",
]
