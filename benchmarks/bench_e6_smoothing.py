"""E6 -- Lemma 3.8: congestion smoothing via an ensemble of hierarchies.

Runs the n-BFS batched simulation (Lemma 3.23's engine) twice: all
batches over ONE pruned hierarchy, vs. each batch over its OWN hierarchy
(the ensemble).  Compares the worst cluster-edge congestion of the
combined execution.  Claim shape: the ensemble's maximum cluster-edge
congestion is significantly below the single-hierarchy run's, and every
edge is claimed as a cluster edge by only O(log n) of the zeta
hierarchies.
"""

import math

from conftest import run_once

from repro.analysis import print_table, record_extra_info
from repro.congest.metrics import Metrics
from repro.core import component_batches, simulate_aggregation
from repro.congest.scheduler import random_delays
from repro.core.bfs_collections import depth_cap
from repro.decomposition import build_ensemble, cluster_edge_multiplicity
from repro.primitives.bfs import BFSCollectionMachine
from repro.scenarios import get_scenario

N = 36
EPS = 0.4


def _run(graph, hierarchies, batches, cap, seed):
    """Simulate each batch over its assigned hierarchy; combine."""
    combined = Metrics()
    worst_cluster = 0
    for idx, batch in enumerate(batches):
        h = hierarchies[idx % len(hierarchies)]
        delays = random_delays(batch, "bfs-delays", seed + idx)
        report = simulate_aggregation(
            graph, h,
            lambda info: BFSCollectionMachine(info, delays, max_depth=cap),
            seed=seed, message_words=12 * graph.n)
        combined.merge(report.simulation, parallel=True)
    cluster_edges = set()
    for h in hierarchies:
        cluster_edges |= h.cluster_edges()
    worst_cluster = combined.congestion_over(cluster_edges)
    return worst_cluster, combined.max_edge_congestion


def _experiment():
    g = get_scenario("dense-gnp").graph(N, seed=77)
    cap = depth_cap(N, EPS)
    zeta = max(2, int(math.ceil(N ** EPS)))
    batches = component_batches(list(g.nodes()), zeta)
    rows = []
    worst_mult = 0
    for trial, (s_seed, e_seed) in enumerate(((501, 601), (502, 602),
                                              (503, 603))):
        single = build_ensemble(g, EPS, 1, seed=s_seed)
        ensemble = build_ensemble(g, EPS, zeta, seed=e_seed)
        single_worst, _ = _run(g, single, batches, cap, seed=11 + trial)
        ens_worst, _ = _run(g, ensemble, batches, cap, seed=11 + trial)
        mult = cluster_edge_multiplicity(g, ensemble)
        worst_mult = max(worst_mult, mult["max"])
        rows.append((trial, single_worst, ens_worst,
                     round(single_worst / max(1, ens_worst), 2),
                     mult["max"]))
    mean_ratio = sum(r[3] for r in rows) / len(rows)
    rows.append(("mean", "-", "-", round(mean_ratio, 2), worst_mult))
    return rows, zeta


def test_e6_congestion_smoothing(benchmark):
    rows, zeta = run_once(benchmark, lambda: _experiment())
    table = print_table(
        ["trial", "single: max cluster cong", "ensemble: max cluster cong",
         "smoothing ratio", "edge multiplicity"],
        rows, title=f"E6: congestion smoothing (Lemma 3.8), n={N}, "
                    f"eps={EPS}, zeta={zeta}, 3 trials")
    trials = rows[:-1]
    mean_ratio = rows[-1][3]
    # The ensemble smooths on average and never substantially worsens.
    assert mean_ratio > 1.1, f"mean smoothing ratio {mean_ratio} too small"
    assert all(r[3] > 0.8 for r in trials)
    # Multiplicity: each edge in O(log n) of the zeta hierarchies.
    assert rows[-1][4] <= 4 * math.log2(N)
    record_extra_info(benchmark, table, mean_smoothing=mean_ratio)
