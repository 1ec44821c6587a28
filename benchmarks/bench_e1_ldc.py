"""E1 -- Lemma 2.4: (O(log n), O(log n))-LDC decompositions.

Regenerates the quantities of Definition 2.3 (and the three quantities
depicted in the paper's Figure 1: cluster count, max strong diameter,
max F-out-degree) over an n sweep of registry scenarios spanning the
sparse, expander, hub-skewed, and grid regimes, plus an ablation of the
MPX rate beta that ``build_ldc`` defaults to 0.5.  Claim shape: both
the realized r and d stay O(log n) while n quadruples.  Workloads come
from the scenario registry (no hand-rolled graphs), so the regimes
probed here are the same named entries the differential harness and
the sweep engine run.
"""

import math

from conftest import run_once

from repro.analysis import print_table, record_extra_info
from repro.decomposition import build_ldc, verify_ldc
from repro.scenarios import get_scenario

# scenario -> the n sweep it is decomposed at (n quadruples end to end).
SWEEP = (
    ("sparse-gnp", (16, 32, 64, 128)),
    ("expander-regular", (16, 32, 64, 128)),
    ("power-law", (16, 32, 64, 128)),
    ("grid", (16, 64)),
)


def _sweep():
    rows = []
    for name, sizes in SWEEP:
        scenario = get_scenario(name)
        for n in sizes:
            g = scenario.graph(n, seed=n)
            ldc = build_ldc(g, seed=n)
            stats = verify_ldc(g, ldc)
            rows.append((name, g.n, stats["clusters"], stats["r"],
                         stats["d"], round(math.log2(g.n), 1),
                         ldc.metrics.rounds))
    return rows


def _beta_ablation():
    # Lemma 2.4 holds for any constant rate; build_ldc defaults to
    # beta = 0.5, between few wide clusters (0.25) and many narrow ones
    # (1.0), and this table shows that trade on one graph.
    g = get_scenario("expander-regular").graph(64, seed=9)
    rows = []
    for beta in (0.25, 0.5, 1.0):
        ldc = build_ldc(g, beta=beta, seed=11)
        stats = verify_ldc(g, ldc)
        rows.append((beta, stats["clusters"], stats["r"], stats["d"]))
    return rows


def test_e1_ldc_decomposition(benchmark):
    rows = run_once(benchmark, _sweep)
    table = print_table(
        ["scenario", "n", "clusters", "diam r", "F-deg d", "log2 n",
         "rounds"],
        rows, title="E1: LDC decompositions (Lemma 2.4 / Figure 1)")
    for _name, n, _clusters, r, d, _log, rounds in rows:
        bound = 8 * math.log2(n) + 4
        assert r <= bound, f"strong diameter {r} not O(log n) at n={n}"
        assert d <= bound, f"F-degree {d} not O(log n) at n={n}"
        assert rounds <= 20 * math.log2(n) + 20
    record_extra_info(benchmark, table, max_r=max(r[3] for r in rows),
                      max_d=max(r[4] for r in rows))


def test_e1_beta_ablation(benchmark):
    rows = run_once(benchmark, _beta_ablation)
    table = print_table(
        ["beta", "clusters", "diam r", "F-deg d"], rows,
        title="E1b: MPX rate ablation (diameter vs. communication trade)")
    # Larger beta -> more clusters and smaller diameters.
    clusters = [row[1] for row in rows]
    assert clusters[0] <= clusters[-1]
    record_extra_info(benchmark, table)
