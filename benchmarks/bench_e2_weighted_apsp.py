"""E2 -- Theorem 1.1: weighted APSP, message-optimal vs. round-optimal.

On dense weighted G(n, 1/2), compares the Theorem 2.1-simulated APSP
(Õ(n²) messages, Õ(n²) rounds) against the direct execution of the same
BCONGEST collection -- the same shared delays under the same word budget
-- (Θ̃(n·m) ~ n³ messages, Õ(n) rounds).  Claim shape:
the simulation wins on messages by a factor that grows with n, and the
message growth exponent sits near 2 against the baseline's near 3;
rounds trade the other way.  Exactness is asserted against the
sequential oracle on every instance.
"""

from conftest import run_once

from repro.analysis import fit_exponent, print_table, record_extra_info
from repro.baselines.apsp_direct import apsp_direct_weighted
from repro.baselines.oracles import ORACLES
from repro.core import weighted_apsp
from repro.scenarios import get_scenario

SCENARIO = get_scenario("dense-gnp-weighted")


def _sweep():
    rows = []
    for n in (12, 16, 24, 32):
        g = SCENARIO.graph(n, seed=n)
        sim = weighted_apsp(g, seed=n)
        direct = apsp_direct_weighted(g, seed=n)
        ref = ORACLES["weighted-apsp"].compute(g, n)
        assert sim.dist == ref, "simulated APSP must be exact"
        assert direct.dist == ref, "direct APSP must be exact"
        rows.append((n, g.m,
                     sim.metrics.messages, direct.metrics.messages,
                     direct.metrics.messages / sim.metrics.messages,
                     sim.metrics.rounds, direct.metrics.rounds))
    return rows


def test_e2_weighted_apsp(benchmark):
    rows = run_once(benchmark, _sweep)
    table = print_table(
        ["n", "m", "sim msgs", "direct msgs", "msg ratio",
         "sim rounds", "direct rounds"],
        rows, title="E2: weighted APSP (Theorem 1.1) vs direct baseline")
    ns = [r[0] for r in rows]
    sim_msgs = [r[2] for r in rows]
    direct_msgs = [r[3] for r in rows]
    fit_sim = fit_exponent(ns, sim_msgs)
    fit_direct = fit_exponent(ns, direct_msgs)
    # Shape: the simulation's message exponent is clearly below the
    # baseline's (Õ(n²) vs Θ̃(n³) on dense graphs).
    assert fit_sim.exponent < fit_direct.exponent, (
        f"simulated exponent {fit_sim.exponent:.2f} !< "
        f"direct {fit_direct.exponent:.2f}")
    # Rounds trade the other way.
    assert all(r[5] > r[6] for r in rows)
    # The message ratio moves in the baseline's disfavor as n grows.
    assert rows[-1][4] > rows[0][4]
    record_extra_info(benchmark, table,
                      sim_msg_exponent=round(fit_sim.exponent, 2),
                      direct_msg_exponent=round(fit_direct.exponent, 2))
