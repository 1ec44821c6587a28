"""Unit-level coverage of the decomposition internals: the pruning
splitter, subtree thresholds, shift sampling, ensemble batching, and the
Lemma 3.7 Monte-Carlo estimator on a tiny budget."""

import math
import random

import pytest

from repro.decomposition.baswana_sen import sampling_probability
from repro.decomposition.mpx import geometric_shift, shift_cap
from repro.decomposition.pruning import (
    _split_cluster,
    cluster_edge_probability,
    subtree_threshold,
)
from repro.core.aggregation import component_batches
from repro.decomposition.ensemble import ensemble_size
from repro.graphs import gnp


def test_geometric_shift_distribution():
    rng = random.Random(3)
    beta = 0.5
    cap = 40
    draws = [geometric_shift(rng, beta, cap) for _ in range(4000)]
    assert all(0 <= d <= cap for d in draws)
    # Mean of the discretized Exp(beta) is ~ 1/beta - 1/2-ish.
    mean = sum(draws) / len(draws)
    assert 1.2 < mean < 2.8
    # P(d >= k) ~ exp(-beta k): check one tail point loosely.
    tail = sum(1 for d in draws if d >= 6) / len(draws)
    assert tail < 2.5 * math.exp(-beta * 6) + 0.02


def test_shift_cap_scales():
    assert shift_cap(16, 0.5) >= shift_cap(16, 1.0)
    assert shift_cap(1024, 0.5) > shift_cap(16, 0.5)


def test_sampling_probability():
    assert sampling_probability(100, 0.5) == pytest.approx(0.1)
    assert sampling_probability(100, 1.0) == pytest.approx(0.01)
    assert sampling_probability(1, 0.5) == pytest.approx(2 ** -0.5)


def test_subtree_threshold():
    assert subtree_threshold(100, 0.5) == 10
    assert subtree_threshold(100, 1.0) == 2  # floor at 2
    assert subtree_threshold(16, 0.25) == 8  # ceil(16^0.75)


# ----------------------------------------------------------------------
# The center-local pruning splitter (§3.1, "Pruning clusters").
# ----------------------------------------------------------------------

def _chain(k):
    """A path-shaped cluster tree 0 - 1 - ... - k-1 rooted at 0."""
    members = list(range(k))
    parent = {0: None, **{i: i - 1 for i in range(1, k)}}
    dist = {i: i for i in range(k)}
    return members, parent, dist


def test_split_cluster_no_split_needed():
    members, parent, dist = _chain(5)
    result = _split_cluster(members, parent, dist, threshold=6)
    assert all(result[v] == (0, v) for v in members)


def test_split_cluster_chain():
    members, parent, dist = _chain(10)
    threshold = 4
    result = _split_cluster(members, parent, dist, threshold)
    roots = {r for r, _d in result.values()}
    assert len(roots) > 1
    # Every new cluster is a contiguous chain segment with correct
    # re-rooted depths.
    for v in members:
        root, depth = result[v]
        assert depth == dist[v] - dist[root]
        assert depth >= 0
    # No proper subtree of any new cluster reaches the threshold: for a
    # chain, segment length <= threshold.
    from collections import Counter
    sizes = Counter(r for r, _d in result.values())
    assert all(size <= threshold for size in sizes.values())


def test_split_cluster_star_tree():
    # Root with many leaves: every proper subtree is a single leaf, so
    # no split ever happens regardless of cluster size.
    members = list(range(9))
    parent = {0: None, **{i: 0 for i in range(1, 9)}}
    dist = {0: 0, **{i: 1 for i in range(1, 9)}}
    result = _split_cluster(members, parent, dist, threshold=3)
    assert all(r == 0 for r, _d in result.values())


def test_split_cluster_deepest_first():
    # A caterpillar: 0-1-2-3 spine, with 3 extra leaves under node 2.
    members = list(range(7))
    parent = {0: None, 1: 0, 2: 1, 3: 2, 4: 2, 5: 2, 6: 2}
    dist = {0: 0, 1: 1, 2: 2, 3: 3, 4: 3, 5: 3, 6: 3}
    result = _split_cluster(members, parent, dist, threshold=5)
    # Node 2's subtree (size 5) must split off, rooted at 2 (deepest
    # node with a big-enough subtree), leaving {0, 1} behind.
    assert result[2] == (2, 0)
    assert result[5] == (2, 1)
    assert result[0] == (0, 0) and result[1] == (0, 1)


def test_ensemble_size_and_batches():
    assert ensemble_size(64, 0.5) == 8
    assert ensemble_size(2, 0.0) == 1
    batches = component_batches(list(range(7)), 3)
    assert [len(b) for b in batches] == [3, 2, 2]


def test_cluster_edge_probability_small_budget():
    g = gnp(16, 0.3, seed=230)
    stats = cluster_edge_probability(g, 0.5, trials=3, seed=230)
    assert 0 <= stats["probability"] <= 1
    assert stats["kappa"] == 2
