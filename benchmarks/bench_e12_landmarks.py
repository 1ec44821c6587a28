"""E12 -- §3.3 landmarks: far-pair completion and its density ablation.

On a high-diameter grid with eps < 1/2 (so that the depth cap actually
truncates the batched BFS), measures: correctness of the landmark
completion at the paper's Θ(n^eps log n) density, the message split
between the near (batched BFS) and far (landmark) parts, and an
ablation with under-sampled landmarks quantifying how many pairs a too
sparse landmark set leaves wrong.
"""

from conftest import run_once

from repro.analysis import print_table, record_extra_info
from repro.baselines.reference import unweighted_apsp
from repro.core.bfs_collections import depth_cap, n_bfs_trees_batched
from repro.core.tradeoff_apsp import (
    apsp_tradeoff,
    landmark_completion,
    sample_landmarks,
)
from repro.scenarios import get_scenario

GRID = get_scenario("grid")  # the registry's high-diameter rectangle

EPS = 0.45  # cap = ceil(n^0.55) ~ 9 on n=48, well below the diameter


def _wrong_pairs(dist, ref, n):
    return sum(1 for u in range(n) for v in range(n)
               if dist[u][v] != ref[u][v])


def _experiment():
    g = GRID.graph(48)  # 6x8 grid: diameter 12 >> cap
    n = g.n
    ref = unweighted_apsp(g)
    cap = depth_cap(n, EPS)

    rows = []
    # Near part alone: how many pairs the depth cap leaves uncovered.
    near = n_bfs_trees_batched(g, EPS, seed=9)
    near_dist = near.trees.distance_matrix(symmetric=True)
    rows.append(("near only (cap=%d)" % cap, 0,
                 _wrong_pairs(near_dist, ref, n),
                 near.metrics.messages))

    # Full pipeline at the paper's density and under-sampled.  The
    # Theta(n^eps log n) density needs a constant: sample_landmarks
    # takes ceil(3 * n^eps * ln n) (boost 3.0, enough for every pair on
    # this grid), and boost 0.25 shows what a 12x smaller one costs.
    for boost, label in ((3.0, "landmarks x3 log n (paper)"),
                         (0.25, "landmarks /12 (ablation)")):
        result = apsp_tradeoff(g, EPS, seed=9, landmark_boost=boost)
        landmarks = result.detail.get("landmarks", 0)
        rows.append((label, landmarks,
                     _wrong_pairs(result.dist, ref, n),
                     result.metrics.messages))
    return rows, n


def test_e12_landmark_completion(benchmark):
    rows, n = run_once(benchmark, lambda: _experiment())
    table = print_table(
        ["configuration", "landmarks", "wrong pairs", "messages"],
        rows, title=f"E12: landmark completion (eps={EPS}, grid 4x12, "
                    f"n={n})")
    near_only, paper, ablation = rows
    assert near_only[2] > 0, "the depth cap must leave far pairs open"
    assert paper[2] == 0, "paper-density landmarks must be exact"
    # The ablation uses fewer landmarks; with this seed it may or may
    # not fail pairs, but it must never beat the near-only coverage cost
    # for free -- record the observation either way.
    assert ablation[1] < paper[1]
    record_extra_info(benchmark, table,
                      near_only_wrong=near_only[2],
                      ablation_wrong=ablation[2])


def _landmark_cost_scaling():
    rows = []
    for size in (24, 40, 56):
        g = GRID.graph(size)
        landmarks = sample_landmarks(g.n, EPS, seed=g.n)
        _far, metrics = landmark_completion(g, landmarks, seed=g.n)
        rows.append((g.name, g.n, len(landmarks),
                     metrics.messages,
                     round(metrics.messages / g.n ** (2 + EPS), 3)))
    return rows


def test_e12_landmark_cost(benchmark):
    rows = run_once(benchmark, _landmark_cost_scaling)
    table = print_table(
        ["graph", "n", "landmarks", "messages", "msgs/n^{2+eps}"],
        rows, title="E12b: landmark completion cost vs Õ(n^{2+eps})")
    assert all(row[4] <= 30 for row in rows)
    record_extra_info(benchmark, table)
