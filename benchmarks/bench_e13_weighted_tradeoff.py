"""E13 (EXTENSION) -- a message-time trade-off for weighted APSP.

The paper's §4 asks whether its framework yields trade-offs for
weighted APSP; this repository answers constructively for eps in
[1/2, 1] by feeding the (aggregation-based) multi-source Bellman-Ford
collection to the Theorem 3.10 star simulation.  The bench sweeps eps,
asserting exactness and the endpoint ordering (messages minimal at the
Theorem 1.1 end, rounds minimal at eps = 1).
"""

from conftest import run_once

from repro.analysis import print_table, record_extra_info
from repro.baselines.oracles import ORACLES
from repro.core.weighted_apsp import weighted_apsp_tradeoff
from repro.scenarios import get_scenario

N = 20


def _sweep():
    g = get_scenario("dense-gnp-weighted").graph(N, seed=131)
    ref = ORACLES["weighted-apsp"].compute(g, 131)
    rows = []
    for eps in (0.0, 0.5, 0.75, 1.0):
        result = weighted_apsp_tradeoff(g, eps, seed=131)
        assert result.dist == ref, f"eps={eps} must be exact"
        regime = "Thm 1.1" if eps < 0.5 else "star (Thm 3.10 + BF)"
        rows.append((eps, regime, result.metrics.messages,
                     result.metrics.rounds))
    return rows


def test_e13_weighted_tradeoff(benchmark):
    rows = run_once(benchmark, _sweep)
    table = print_table(
        ["eps", "regime", "messages", "rounds"],
        rows, title=f"E13 (extension): weighted APSP trade-off, n={N}")
    msg_opt, *_rest, round_opt = rows
    assert round_opt[3] < msg_opt[3], "eps=1 must be the round-frugal end"
    record_extra_info(benchmark, table)
