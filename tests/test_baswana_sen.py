"""Tests for Baswana-Sen hierarchies, pruning, and ensembles (§3.1)."""

import math

import pytest

from repro.baselines.reference import unweighted_apsp
from repro.core.aggregation import component_batches
from repro.decomposition.baswana_sen import (
    build_baswana_sen,
    verify_hierarchy,
)
from repro.decomposition.ensemble import (
    build_ensemble,
    cluster_edge_multiplicity,
    ensemble_size,
)
from repro.decomposition.pruning import (
    build_pruned_hierarchy,
    max_proper_subtree,
    prune_hierarchy,
    subtree_threshold,
)
from repro.graphs import complete, gnp, grid, path


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.34, 0.25])
def test_hierarchy_properties(eps):
    g = gnp(40, 0.2, seed=21)
    h = build_baswana_sen(g, eps, seed=21)
    stats = verify_hierarchy(g, h)
    kappa = math.ceil(1 / eps)
    assert h.kappa == kappa
    assert stats["levels"] == kappa + 1
    assert stats["max_radius"] <= kappa


def test_hierarchy_eps_1_is_two_levels_all_edges_in_f():
    """eps = 1 (kappa = 1): singletons, then everyone low-degree with an
    F edge to every neighbor -- the degenerate case behind Lemma 3.16."""
    g = gnp(15, 0.3, seed=22)
    h = build_baswana_sen(g, 1.0, seed=22)
    assert h.n_levels == 2
    assert h.levels[1].low_degree == set(g.nodes())
    directed = {(u, v) for u in g.nodes() for v in g.neighbors(u)}
    assert h.levels[1].f_edges == directed


def test_hierarchy_on_structured_graphs():
    for g in (path(12), grid(4, 4), complete(12)):
        for eps in (0.5, 0.34):
            h = build_baswana_sen(g, eps, seed=3)
            verify_hierarchy(g, h)


def test_spanner_stretch_and_size():
    """The [5] byproduct: a (2 kappa - 1)-spanner of O(n^{1+1/kappa}) edges."""
    g = gnp(36, 0.35, seed=23)
    eps = 0.5
    kappa = 2
    h = build_baswana_sen(g, eps, seed=23)
    spanner = h.spanner_edges(g)
    assert len(spanner) <= g.m
    from repro.graphs import from_edges
    sg = from_edges(g.n, spanner)
    dist_g = unweighted_apsp(g)
    dist_s = unweighted_apsp(sg)
    for u in g.nodes():
        for v in g.neighbors(u):
            assert dist_s[u][v] <= 2 * kappa - 1


def test_pruning_bounds_proper_subtrees():
    g = gnp(48, 0.25, seed=24)
    eps = 0.34
    h = build_baswana_sen(g, eps, seed=24)
    pruned = prune_hierarchy(g, h, seed=24)
    assert pruned.pruned
    verify_hierarchy(g, pruned)
    assert max_proper_subtree(g, pruned) < subtree_threshold(g.n, eps)


def test_pruning_never_adds_cluster_edges():
    g = gnp(40, 0.3, seed=25)
    h = build_baswana_sen(g, 0.34, seed=25)
    before = h.cluster_edges()
    pruned = prune_hierarchy(g, h, seed=25)
    assert pruned.cluster_edges() <= before


def test_pruning_metered_cost():
    g = gnp(30, 0.25, seed=26)
    h = build_baswana_sen(g, 0.5, seed=26)
    base = h.metrics.messages
    pruned = prune_hierarchy(g, h, seed=26)
    assert pruned.metrics.messages >= base


def test_finalized_level_partition():
    g = gnp(30, 0.2, seed=27)
    h = build_baswana_sen(g, 0.34, seed=27)
    for v in g.nodes():
        i = h.finalized_level(v)
        assert 1 <= i <= h.kappa
        # v is clustered at exactly levels 0..i-1.
        clustered = [lvl for lvl, _c in h.clusters_of_node(v)]
        assert clustered == list(range(i))


def test_ensemble_and_batches():
    g = gnp(30, 0.25, seed=28)
    eps = 0.5
    zeta = ensemble_size(g.n, eps)
    assert zeta == math.ceil(math.sqrt(30))
    ensemble = build_ensemble(g, eps, 3, seed=28)
    assert len(ensemble) == 3
    # Independence: the hierarchies differ.
    keys = {frozenset(h.cluster_edges()) for h in ensemble}
    assert len(keys) > 1
    mult = cluster_edge_multiplicity(g, ensemble)
    assert mult["max"] <= 3
    batches = component_batches(list(range(10)), 3)
    assert sorted(sum(batches, [])) == list(range(10))
    assert max(len(b) for b in batches) - min(len(b) for b in batches) <= 1


def test_invalid_eps_rejected():
    g = path(4)
    with pytest.raises(ValueError):
        build_baswana_sen(g, 0.0)
    with pytest.raises(ValueError):
        build_baswana_sen(g, 1.5)
