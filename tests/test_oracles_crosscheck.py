"""Cross-check our sequential oracles against networkx and scipy.

The distributed algorithms are validated against
:mod:`repro.baselines.reference`; this module validates the reference
implementations themselves against two independent third-party
libraries, closing the loop.  It also pins the array-backed APSP
oracles (numpy Floyd-Warshall) to the pure-Python per-source reference,
value and type, entry by entry.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import bellman_ford as scipy_bellman_ford
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from repro.baselines.reference import (
    floyd_warshall,
    hopcroft_karp,
    unweighted_apsp,
    weighted_apsp,
)
from repro.baselines.oracles import (
    _exact_in_float64,
    unweighted_apsp_oracle,
    weighted_apsp_oracle,
)
from repro.graphs import from_edges, gnp, random_bipartite, uniform_weights
from repro.graphs.weights import negative_safe_weights


def _to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(g.nodes())
    for u, v in g.edges():
        G.add_edge(u, v)
    return G


def _to_scipy(g):
    n = g.n
    data, rows, cols = [], [], []
    for u in g.nodes():
        for v in g.neighbors(u):
            rows.append(u)
            cols.append(v)
            data.append(g.weight(u, v))
    return csr_matrix((data, (rows, cols)), shape=(n, n))


@pytest.mark.parametrize("seed", range(3))
def test_unweighted_apsp_vs_networkx(seed):
    g = gnp(22, 0.2, seed=240 + seed)
    ours = unweighted_apsp(g)
    theirs = dict(nx.all_pairs_shortest_path_length(_to_nx(g)))
    for u in g.nodes():
        for v in g.nodes():
            assert ours[u][v] == theirs[u][v]


@pytest.mark.parametrize("seed", range(3))
def test_weighted_apsp_vs_scipy_dijkstra(seed):
    g = uniform_weights(gnp(18, 0.3, seed=250 + seed), w_max=9,
                        seed=250 + seed)
    ours = np.array(weighted_apsp(g))
    theirs = scipy_dijkstra(_to_scipy(g), directed=True)
    assert np.allclose(ours, theirs)


def test_negative_weights_vs_scipy_bellman_ford():
    g = negative_safe_weights(gnp(14, 0.3, seed=260), w_max=7, seed=260)
    ours = np.array(weighted_apsp(g))
    theirs = scipy_bellman_ford(_to_scipy(g), directed=True)
    assert np.allclose(ours, theirs)


def test_floyd_warshall_agrees_with_dijkstra_oracle():
    g = uniform_weights(gnp(16, 0.35, seed=270), w_max=6, seed=270)
    assert floyd_warshall(g).tolist() == weighted_apsp(g)


@pytest.mark.parametrize("seed", range(4))
def test_hopcroft_karp_vs_networkx(seed):
    g = random_bipartite(7, 8, 0.3, seed=280 + seed)
    ours = hopcroft_karp(g)
    left, _right = g.is_bipartite()
    theirs = nx.bipartite.maximum_matching(_to_nx(g), top_nodes=left)
    # networkx returns a dict double-counting each edge.
    assert len(ours) == len(theirs) // 2


# ----------------------------------------------------------------------
# The array oracles against the per-source reference
# ----------------------------------------------------------------------

# Weight schemes: the first seven stay on the Floyd-Warshall path, the
# last two ("float", "huge") must fall back to the reference.
WEIGHT_KINDS = ("unweighted", "int-with-zero", "asymmetric", "negative",
                "negative-cycle", "disconnected", "tiny", "float", "huge")


@st.composite
def apsp_cases(draw, kind):
    """A graph on 0..8 nodes (0..1 for "tiny") weighted per ``kind``."""
    n = draw(st.integers(0, 1) if kind == "tiny" else st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "disconnected":
        # No edge across the cut {0..n//2-1} | {n//2..n-1}.
        pairs = [(u, v) for u, v in pairs if (u < n // 2) == (v < n // 2)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)
                 if pairs else st.just([]))
    if kind in ("unweighted", "tiny"):
        return from_edges(n, edges)
    ints = st.integers(0, 9)
    weights = {}
    if kind == "negative":
        # Potential reweighting: every cycle keeps its non-negative total.
        phi = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
        for u, v in edges:
            c = draw(ints)
            weights[(u, v)] = c + phi[u] - phi[v]
            weights[(v, u)] = c + phi[v] - phi[u]
    elif kind == "asymmetric":
        for u, v in edges:
            weights[(u, v)], weights[(v, u)] = draw(ints), draw(ints)
    else:
        values = {"float": st.floats(0.0, 10.0),
                  "huge": st.integers(1, 3).map(lambda k: k * 2 ** 60)
                  }.get(kind, ints)
        for u, v in edges:
            weights[(u, v)] = draw(values)
        if edges and kind == "int-with-zero":
            weights[edges[0]] = 0
        if edges and kind == "negative-cycle":
            weights[edges[0]] = -1  # u -> v -> u weighs -2
    return from_edges(n, edges, weights=weights)


def _same_matrix(got, want):
    assert got == want
    assert [[type(x) for x in row] for row in got] == \
        [[type(x) for x in row] for row in want]


def _outcome(fn, g):
    try:
        return fn(g), None
    except ValueError as exc:
        return None, str(exc)


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_apsp_oracles_match_reference(kind, data):
    g = data.draw(apsp_cases(kind))
    # An arc-free graph has no weight to decline.
    assert _exact_in_float64(g) == (kind not in ("float", "huge")
                                    or g.m == 0)
    _same_matrix(unweighted_apsp_oracle(g, 0), unweighted_apsp(g))
    got, got_error = _outcome(lambda h: weighted_apsp_oracle(h, 0), g)
    want, want_error = _outcome(weighted_apsp, g)
    assert got_error == want_error
    if want_error is None:
        _same_matrix(got, want)
    elif kind == "negative-cycle":
        assert want_error == "graph contains a negative cycle"
