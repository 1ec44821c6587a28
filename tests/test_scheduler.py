"""Theorem 1.3 / 1.4 scheduling: measured properties of random delays."""

import math

import pytest

from repro.congest.scheduler import (
    ghaffari_schedule_bound,
    measure_bfs_schedule,
    random_delays,
)
from repro.graphs import gnp, grid, path


def test_random_delays_range_and_determinism():
    ids = list(range(50))
    d1 = random_delays(ids, "sched-delays", seed=1)
    d2 = random_delays(ids, "sched-delays", seed=1)
    d3 = random_delays(ids, "sched-delays", seed=2)
    assert d1 == d2
    assert d1 != d3
    # The stream names an independent draw of the same shape.
    assert random_delays(ids, "bfs-delays", seed=1) != d1
    assert all(1 <= d1[j] <= 50 for j in ids)
    # Delays are spread out, not clumped on one value.
    assert len(set(d1.values())) > 10


def test_ghaffari_bound_formula():
    assert ghaffari_schedule_bound(100, 10, 16) == 100 + 10 * 4
    assert ghaffari_schedule_bound(0, 0, 2) == 0


def test_theorem_1_4_completion_and_distinct_ids():
    g = gnp(40, 0.25, seed=5)
    m = measure_bfs_schedule(g, seed=5)
    assert m.ell == g.n
    # (i): completion within a constant of ell + dilation.
    assert m.completion_round <= 3 * m.bound_rounds + 10
    # (ii): O(log n) distinct BFS per node-round.
    assert m.max_distinct_bfs_per_node_round <= 6 * math.log2(g.n) + 6
    # Message sizes: 3 words per id record.
    assert m.max_message_words <= 3 * m.max_distinct_bfs_per_node_round


def test_theorem_1_4_on_high_diameter_graph():
    g = path(40)
    m = measure_bfs_schedule(g, seed=6)
    assert m.dilation == g.n - 1
    assert m.completion_round <= 3 * (m.ell + m.dilation)
    # Theorem 1.4(ii): distinct ids per node-round stay O(log n); on a
    # path several delayed fronts can coincide, but within the log scale.
    assert m.max_distinct_bfs_per_node_round <= 2 * math.log2(g.n) + 4


def test_depth_cap_limits_dilation():
    g = grid(5, 8)
    m = measure_bfs_schedule(g, seed=7, max_depth=3)
    assert m.dilation <= 3
    full = measure_bfs_schedule(g, seed=7)
    assert m.messages < full.messages


def test_subset_of_roots():
    g = gnp(30, 0.3, seed=8)
    roots = [0, 5, 9]
    m = measure_bfs_schedule(g, roots=roots, seed=8)
    assert m.ell == 3
    assert m.completion_round <= 3 * (3 + m.dilation) + 10
