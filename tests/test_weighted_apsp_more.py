"""Additional weighted-APSP coverage: topology sweep, delay spreading,
the report breakdown, and determinism across runs."""

import pytest

from repro.baselines.reference import weighted_apsp as ref_apsp
from repro.core import weighted_apsp
from repro.congest.scheduler import random_delays
from repro.graphs import cycle, gnp, grid, path, random_tree, uniform_weights


@pytest.mark.parametrize("maker", [
    lambda: path(10),
    lambda: cycle(12),
    lambda: grid(3, 5),
    lambda: random_tree(13, seed=320),
])
def test_weighted_apsp_topologies(maker):
    g = uniform_weights(maker(), w_max=8, seed=321)
    result = weighted_apsp(g, seed=1)
    assert result.dist == ref_apsp(g)


def test_weighted_apsp_deterministic_per_seed():
    g = uniform_weights(gnp(14, 0.3, seed=322), w_max=6, seed=322)
    a = weighted_apsp(g, seed=5)
    b = weighted_apsp(g, seed=5)
    assert a.dist == b.dist
    assert a.metrics.messages == b.metrics.messages
    assert a.metrics.rounds == b.metrics.rounds


def test_weighted_apsp_parent_pointers_valid():
    g = uniform_weights(gnp(12, 0.4, seed=323), w_max=5, seed=323)
    result = weighted_apsp(g, seed=2)
    ref = ref_apsp(g)
    for v in g.nodes():
        for j, parent in result.parents[v].items():
            if j == v or parent is None:
                continue
            # The parent certifies the distance: d(j, v) =
            # d(j, parent) + w(parent -> v).
            assert parent in g.neighbors(v)
            assert ref[j][v] == ref[j][parent] + g.weight(parent, v)


def test_make_delays_spread_and_range():
    delays = random_delays(range(40), "delays", seed=3)
    assert set(delays) == set(range(40))
    assert all(1 <= d <= 40 for d in delays.values())
    assert len(set(delays.values())) > 15
    assert random_delays(range(40), "delays", seed=3) == delays
    assert random_delays(range(40), "delays", seed=4) != delays


def test_weighted_apsp_detail_fields():
    g = uniform_weights(gnp(10, 0.5, seed=324), w_max=4, seed=324)
    result = weighted_apsp(g, seed=6)
    assert result.detail["broadcasts"] > 0
    assert result.detail["phases"] > 0
    assert result.detail["sim_messages"] >= 0
    assert result.detail["pre_messages"] > 0
    assert result.report is not None
    assert result.report.broadcasts_simulated == result.detail["broadcasts"]


def test_weighted_apsp_message_words_stay_polylog():
    """The combined Bellman-Ford machine's broadcasts must stay within
    the declared O(log^2 n) word budget -- the Theorem 1.4-style
    spreading at work."""
    g = uniform_weights(gnp(24, 0.4, seed=325), w_max=9, seed=325)
    result = weighted_apsp(g, seed=7)
    assert result.dist == ref_apsp(g)  # and no budget violation raised
