"""The CSR graph core + zero-rebuild cache layer.

Pins the core equivalences:

* executions over a CSR-constructed graph are byte-identical to
  executions over the same graph rebuilt through the validated dict
  constructor (``Graph(adj=..., weights=...)``), under both the
  vectorized and the scalar simulator paths;
* scenario x algorithm binding results (outputs, checks, metrics,
  detail) agree between the two construction paths;
* :func:`from_edges` / :func:`from_edge_arrays` drop self-loops,
  collapse duplicates and sort adjacency like a set-based reference,
  and reject malformed edges;
* ``make_node_info`` weight views: one shared mapping on undirected
  weighted graphs, distinct and correctly-oriented mappings on
  directed/asymmetric ones;
* the per-worker graph LRU serves same-key cells from cache, never
  crosses construction seeds, and leaves records byte-identical.

That the CSR core builds the same graphs as the retired dict-era
generators is pinned by the golden ``tests/golden/graphs.json`` table.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.congest.cell import cell_context
from repro.congest.machine import run_machines
from repro.congest.network import make_node_info
from repro.graphs.graph import Graph, from_edge_arrays, from_edges
from repro.primitives import BFSMachine, LubyMISMachine
from repro.runner import graph_cache
from repro.scenarios import get_binding, get_scenario
from repro.testing import run_differential

# Six registry scenarios spanning the regimes the cache layer touches:
# dense/sparse unweighted, symmetric weighted, directed weights, hub
# degrees, bipartite.
MATRIX_SCENARIOS = (
    "dense-gnp",
    "sparse-gnp",
    "grid-weighted",
    "dense-gnp-asymmetric",
    "power-law",
    "bipartite-balanced",
)

WORKLOADS = (
    ("bfs", lambda info: BFSMachine(info, root=0)),
    ("luby", LubyMISMachine),
)


def execution_signature(execution):
    metrics = execution.metrics
    return (execution.outputs, execution.rounds, execution.halted,
            metrics.as_dict(), dict(metrics.edge_congestion),
            metrics.max_message_words)


def dict_rebuild(graph):
    """``graph`` rebuilt through the validated dict constructor."""
    weights = None if graph.weights is None else dict(graph.weights)
    return Graph(adj=dict(graph.adj), weights=weights, name=graph.name)


def _matrix_case(name, size, seed):
    scenario = get_scenario(name)
    graph = scenario.graph(size, seed=seed)
    rebuilt = dict_rebuild(graph)
    assert rebuilt.adj == graph.adj
    assert rebuilt.weights == graph.weights
    for label, factory in WORKLOADS:
        signatures = []
        for g in (graph, rebuilt):
            for engine in ("auto", "reference"):
                with cell_context(engine=engine):
                    signatures.append(execution_signature(
                        run_machines(g, factory, seed=seed)))
        assert all(sig == signatures[0] for sig in signatures), (
            f"{name} x {label}: CSR/dict x fast/scalar paths diverged")


@pytest.mark.scenario
@pytest.mark.parametrize("name", MATRIX_SCENARIOS)
def test_csr_legacy_fastpath_equivalence(name):
    """Tier 1: the 2x2 construction x simulator-path matrix agrees."""
    _matrix_case(name, size=None, seed=0)


@pytest.mark.slow
@pytest.mark.scenario
@pytest.mark.parametrize("name", MATRIX_SCENARIOS)
def test_csr_legacy_fastpath_equivalence_at_size(name, scenario_size):
    """Tier 2: the same matrix at the operator-chosen workload size."""
    _matrix_case(name, size=scenario_size, seed=1)


@pytest.mark.scenario
@pytest.mark.parametrize("name", ("dense-gnp", "dense-gnp-weighted",
                                  "bipartite-balanced"))
def test_binding_records_identical_across_construction(name):
    """Scenario bindings produce byte-identical records on both paths."""
    scenario = get_scenario(name)
    graph = scenario.graph()
    derived = scenario.seed_for(scenario.default_size)
    for algorithm in scenario.algorithms:
        binding = get_binding(algorithm)
        a = binding.run(graph, derived)
        b = binding.run(dict_rebuild(graph), derived)
        assert (a.ok, a.checks, a.metrics, a.detail) == \
            (b.ok, b.checks, b.metrics, b.detail), f"{name} x {algorithm}"


def _reference_adj(n, edges):
    """Set-based construction: drop self-loops, dedupe, sort."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    return {u: tuple(sorted(nbrs[u])) for u in range(n)}


@st.composite
def edge_lists(draw):
    """n in [0, 12]; self-loops, duplicates, both orientations, and
    isolated nodes all occur."""
    n = draw(st.integers(0, 12))
    if n == 0:
        return n, []
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=3 * n))


@settings(max_examples=150, deadline=None)
@given(edge_lists())
@example((5, [(3, 1), (1, 3), (0, 2), (2, 2), (4, 0), (0, 4)]))
def test_from_edges_matches_legacy_dedupe_and_sort(case):
    n, edges = case
    adj = _reference_adj(n, edges)
    expected_edges = [(u, v) for u in adj for v in adj[u] if u < v]
    us = [u for u, _ in edges]
    vs = [v for _, v in edges]
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    for g in (from_edges(n, edges), from_edges(n, pairs),
              from_edge_arrays(n, us, vs)):
        assert g.adj == adj
        assert g.m == len(expected_edges)
        assert list(g.edges()) == expected_edges


@pytest.mark.parametrize("edges", (
    [(0, 1, 2), (1, 2, 0)],
    [(0, 1, 2), (1,)],
    np.array([[0, 1, 2], [1, 2, 0]]),
    np.array([0, 1, 1, 2]),
), ids=("triples", "mixed-arity", "array-triples", "flat-array"))
def test_from_edges_rejects_non_pairs(edges):
    with pytest.raises(ValueError):
        from_edges(3, edges)


def test_empty_graphs_keep_their_name():
    assert from_edges(0, [], name="x").name == "x"
    assert from_edge_arrays(0, [], [], name="x").name == "x"


# ---------------------------------------------------------------------------
# Weight views (the make_node_info dict fix)
# ---------------------------------------------------------------------------

def test_symmetric_weights_share_one_view():
    g = get_scenario("grid-weighted").graph()
    for v in g.nodes():
        info = make_node_info(g, v)
        assert info.weights is info.in_weights, \
            "undirected weights must reuse one mapping"
        assert info.weights == {u: g.weight(v, u) for u in g.neighbors(v)}
        # Repeat construction serves the same cached view objects.
        again = make_node_info(g, v)
        assert again.weights is info.weights


@pytest.mark.parametrize("name", ("dense-gnp-asymmetric",
                                  "torus-asymmetric",
                                  "dense-gnp-negative"))
def test_asymmetric_weights_keep_distinct_views(name):
    g = get_scenario(name).graph()
    assert not g.weights_symmetric
    saw_direction_gap = False
    for v in g.nodes():
        info = make_node_info(g, v)
        assert info.weights is not info.in_weights
        for u in g.neighbors(v):
            assert info.weight_to(u) == g.weight(v, u)
            assert info.weight_from(u) == g.weight(u, v)
            saw_direction_gap |= g.weight(v, u) != g.weight(u, v)
    assert saw_direction_gap, f"{name} should be genuinely directed"


def test_unweighted_graphs_have_no_views():
    g = get_scenario("dense-gnp").graph()
    info = make_node_info(g, 0)
    assert info.weights is None and info.in_weights is None
    assert info.weight_to(info.neighbors[0]) == 1
    assert info.weight_from(info.neighbors[0]) == 1


# ---------------------------------------------------------------------------
# The per-worker graph LRU
# ---------------------------------------------------------------------------

@pytest.fixture
def fresh_cache():
    graph_cache.configure(graph_cache.DEFAULT_MAXSIZE)
    yield
    graph_cache.configure(graph_cache.DEFAULT_MAXSIZE)


def test_graph_lru_hits_same_key_cells(fresh_cache):
    scenario = get_scenario("dense-gnp")
    first = graph_cache.scenario_graph(scenario, 14, seed=0)
    second = graph_cache.scenario_graph(scenario, 14, seed=0)
    assert second is first, "same-key cells must share one built graph"
    stats = graph_cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_graph_lru_never_crosses_construction_seeds(fresh_cache):
    scenario = get_scenario("dense-gnp")
    base = graph_cache.scenario_graph(scenario, 14, seed=0)
    other_seed = graph_cache.scenario_graph(scenario, 14, seed=1)
    other_size = graph_cache.scenario_graph(scenario, 16, seed=0)
    assert other_seed is not base and other_seed.adj != base.adj
    assert other_size is not base
    assert graph_cache.stats()["hits"] == 0
    # The cached instances equal a fresh uncached build exactly.
    assert base.adj == scenario.graph(14, seed=0).adj


def test_graph_lru_disabled_and_evicting(fresh_cache):
    scenario = get_scenario("dense-gnp")
    graph_cache.configure(0)
    a = graph_cache.scenario_graph(scenario, 14, seed=0)
    b = graph_cache.scenario_graph(scenario, 14, seed=0)
    assert a is not b and a.adj == b.adj
    graph_cache.configure(1)
    graph_cache.scenario_graph(scenario, 14, seed=0)
    graph_cache.scenario_graph(scenario, 16, seed=0)  # evicts size 14
    assert graph_cache.stats()["size"] == 1
    graph_cache.scenario_graph(scenario, 14, seed=0)
    assert graph_cache.stats()["misses"] == 3


def test_differential_records_identical_with_and_without_cache(fresh_cache):
    """The LRU must not change a single recorded byte."""
    graph_cache.configure(0)
    cold = run_differential("dense-gnp", "apsp-unweighted", seed=2)
    graph_cache.configure(graph_cache.DEFAULT_MAXSIZE)
    warm_miss = run_differential("dense-gnp", "apsp-unweighted", seed=2)
    warm_hit = run_differential("dense-gnp", "apsp-unweighted", seed=2)
    assert graph_cache.stats()["hits"] >= 1
    assert cold.canonical_dict() == warm_miss.canonical_dict() \
        == warm_hit.canonical_dict()
