"""Property-based tests (hypothesis) on the core data structures and
invariants: metrics algebra, payload sizing, transport delivery,
aggregation idempotence, decomposition partitions, end-to-end BFS
correctness on random graphs, and the machine scheduling rule."""

import importlib
import math
import pkgutil
import random
import tempfile
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro.baselines.reference import bfs_distances, unweighted_apsp
from repro.congest import (
    FaultPlan,
    LocalRunner,
    Machine,
    Metrics,
    RoundProfiler,
    cell_context,
    current_cell,
    payload_words,
    run_machines,
)
from repro.congest.errors import AlgorithmError, CongestError
from repro.congest.faults import get_fault_profile
from repro.congest.metrics import undirected
from repro.congest.profile import ADDITIVE_COLUMNS
from repro.congest.scheduler import random_delays
from repro.core.aggregation import check_idempotent
from repro.core.bcongest_sim import gather_member_inputs, output_words
from repro.core.tradeoff_apsp import apsp_tradeoff
from repro.core.weighted_apsp import weighted_apsp
from repro.covers.mpx_cover import (
    CoverCollectionMachine,
    build_cover_machine_factory,
)
from repro.decomposition import build_baswana_sen, run_mpx, verify_hierarchy
from repro.decomposition.ldc import build_ldc, strong_diameter
from repro.decomposition.mpx import MPXMachine
from repro.decomposition.pipeline import ldc_snapshot
from repro.graphs import from_edges, gnp, uniform_weights
from repro.kernels import config as kernels_config
from repro.kernels import relaxation, wavefront
from repro.kernels.plan import CollectionResult
from repro.matching.augmenting import BipartiteMatchingMachine
from repro.matching.israeli_itai import IsraeliItaiMachine
from repro.primitives import (
    BFSMachine,
    Packet,
    aggregate_keyed_min,
    build_global_tree,
    disseminate,
    path_from_root,
    path_to_root,
    route_downcast,
    route_packets,
    route_phases,
    route_upcast,
)
from repro.primitives import global_tree, transport
from repro.primitives.bellman_ford import BellmanFordCollectionMachine
from repro.primitives.bfs import BFSCollectionMachine
from repro.primitives.luby import LubyMISMachine
from repro.scenarios import BINDINGS, get_scenario
from repro.store import DECOMPOSITION_FAMILY, GRAPH_FAMILY, FamilyStore
from repro.testing import run_differential
from repro.testing.differential import DIVERGED

# print_blob: a one-off failure prints the @reproduce_failure line
# that replays it.
settings.register_profile(
    "repro", deadline=None, print_blob=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("repro")


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def connected_graphs(draw, max_n: int = 18):
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    p = draw(st.floats(min_value=0.05, max_value=0.6))
    return gnp(n, p, seed=seed)


def _float_weights(g, rng):
    """``g`` with independent positive float weights on its edges."""
    weights = {}
    for u, v in g.edges():
        weights[(u, v)] = weights[(v, u)] = round(rng.uniform(0.1, 20.0), 2)
    return g.reweighted(weights, name=f"{g.name}+float")


def _directed_weights(g, rng, kind):
    """``g`` with directed int weights: ``asymmetric`` (positive, drawn
    per direction), ``potential`` (``base + p(v) - p(u)`` with ``base >=
    0``: negative weights, no negative cycle) or ``cycle`` (asymmetric
    plus one negative two-cycle, so estimates improve to the deadline).
    """
    potential = [rng.randint(0, 10) for _ in g.nodes()]
    weights = {}
    for u, v in g.edges():
        for a, b in ((u, v), (v, u)):
            weights[(a, b)] = (rng.randint(0, 5) + potential[b] - potential[a]
                               if kind == "potential" else rng.randint(1, 20))
    if kind == "cycle":
        u, v = rng.choice(list(g.edges()))
        weights[(u, v)] = -weights[(v, u)] - 1
    return g.reweighted(weights, name=f"{g.name}+{kind}")


def _typed(obj):
    """``obj`` with every scalar paired with its type, so that ``==``
    tells an int ``0`` from a float ``0.0``."""
    if isinstance(obj, dict):
        return {_typed(k): _typed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_typed(item) for item in obj)
    return type(obj), obj


def _nest(children):
    """The containers ``payloads`` builds from smaller payloads (a
    named function: Hypothesis reads a lambda's source to check that it
    uses its argument, and can cut a multi-line lambda short)."""
    return st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=3),
        st.dictionaries(st.integers(0, 9), children, max_size=3))


payloads = st.recursive(
    st.one_of(st.integers(-1000, 1000), st.booleans(),
              st.text(max_size=4), st.none()),
    _nest, max_leaves=8)
# Within route_packets' default 16-word limit (payload + destination).
small_payloads = payloads.filter(lambda p: payload_words(p) < 16)


# ----------------------------------------------------------------------
# payload_words
# ----------------------------------------------------------------------

@given(payloads)
def test_payload_words_nonnegative_and_stable(p):
    w = payload_words(p)
    assert w >= 0
    assert payload_words(p) == w  # deterministic


@given(payloads, payloads)
def test_payload_words_subadditive_for_tuples(a, b):
    combined = payload_words((a, b))
    assert combined <= payload_words(a) + payload_words(b) + 1
    assert combined >= max(payload_words(a), payload_words(b))


# ----------------------------------------------------------------------
# Metrics algebra
# ----------------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.integers(1, 4)), max_size=30))
def test_metrics_delta_inverts_merge(sends):
    m = Metrics()
    for u, v, w in sends:
        if u != v:
            m.record_send(u, v, w)
    snap = m.snapshot()
    extra = [(1, 2, 3), (0, 4, 1)]
    for u, v, w in extra:
        m.record_send(u, v, w)
    delta = m.delta_since(snap)
    assert delta.messages == len(extra)
    restored = snap.snapshot()
    restored.merge(delta)
    assert restored.messages == m.messages
    assert restored.words == m.words
    assert restored.edge_congestion == m.edge_congestion


@given(st.integers(0, 3), st.integers(0, 3))
def test_undirected_key_symmetric(u, v):
    assert undirected(u, v) == undirected(v, u)


# ----------------------------------------------------------------------
# Aggregation (Definition 3.1)
# ----------------------------------------------------------------------

bfs_messages = st.lists(
    st.tuples(st.integers(0, 9),
              st.dictionaries(st.integers(0, 5),
                              st.tuples(st.integers(0, 20),
                                        st.integers(0, 9)),
                              min_size=1, max_size=4)),
    min_size=0, max_size=8)


@given(bfs_messages)
def test_keyed_min_aggregation_idempotent(messages):
    assert check_idempotent(aggregate_keyed_min, messages)


@given(bfs_messages)
def test_keyed_min_keeps_minima(messages):
    merged = aggregate_keyed_min(messages)
    seen = {}
    for _src, payload in messages:
        for key, record in payload.items():
            if key not in seen or record < seen[key]:
                seen[key] = record
    if not messages:
        assert merged == []
    else:
        assert merged[0][1] == seen


@given(bfs_messages)
def test_keyed_min_order_invariant(messages):
    forward = aggregate_keyed_min(messages)
    backward = aggregate_keyed_min(list(reversed(messages)))
    assert forward == backward


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------

@given(connected_graphs(max_n=12), st.integers(0, 10_000),
       st.integers(1, 12))
def test_transport_delivers_every_packet(g, seed, n_packets):
    rng = random.Random(seed)
    apsp = unweighted_apsp(g)
    packets = []
    for i in range(n_packets):
        a = rng.randrange(g.n)
        b = rng.randrange(g.n)
        # Build a shortest path a -> b.
        path = [a]
        while path[-1] != b:
            cur = path[-1]
            nxt = min(u for u in g.neighbors(cur)
                      if apsp[u][b] == apsp[cur][b] - 1)
            path.append(nxt)
        packets.append(Packet(path=tuple(path), payload=("p", i)))
    deliveries, metrics = route_packets(g, packets)
    assert len(deliveries) == n_packets
    assert metrics.messages == sum(len(p.path) - 1 for p in packets)
    got = sorted(d.payload[1] for d in deliveries)
    assert got == list(range(n_packets))


@st.composite
def transport_graphs(draw):
    """A ``connected_graphs`` draw, sometimes padded with isolated nodes."""
    g = draw(connected_graphs(max_n=12))
    extra = draw(st.integers(0, 3))
    if extra:
        g = from_edges(g.n + extra, list(g.edges()))
    return g


@st.composite
def packet_sets(draw, g):
    """Tree paths, revisiting walks, zero-hop packets and link floods."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    parent = bfs_tree_parents(g, draw(st.integers(0, g.n - 1)))
    linked = [v for v in g.nodes() if g.neighbors(v)]
    packets = []
    for kind in draw(st.lists(st.sampled_from(
            ["up", "down", "walk", "zero", "flood"]), max_size=10)):
        tag = draw(st.sampled_from([None, "a", 1]))
        if kind == "zero" or not linked:
            paths = [(rng.randrange(g.n),)]
        elif kind in ("up", "down"):
            path = path_to_root(parent, rng.choice(sorted(parent)))
            paths = [path if kind == "up" else path[::-1]]
        elif kind == "walk":
            walk = [rng.choice(linked)]
            for _ in range(rng.randrange(1, 9)):
                walk.append(rng.choice(g.neighbors(walk[-1])))
            paths = [tuple(walk)]
        else:
            u = rng.choice(linked)
            paths = [(u, rng.choice(g.neighbors(u)))] * rng.randrange(2, 7)
        for path in paths:
            packets.append(Packet(path=path, tag=tag,
                                  payload=draw(small_payloads)))
    return packets


def bfs_tree_parents(g, root):
    """BFS parent pointers over ``root``'s component."""
    dist = bfs_distances(g, root)
    return {v: None if v == root else
            min(u for u in g.neighbors(v) if dist.get(u) == d - 1)
            for v, d in dist.items()}


def _routed(g, packets, **kwargs):
    """``route_packets`` as comparable data: the outcome or the error."""
    try:
        deliveries, m = route_packets(g, packets, **kwargs)
    except AlgorithmError as exc:
        return ("error", str(exc))
    return (deliveries, m.as_dict(), list(m.edge_congestion.items()),
            list(m.message_sizes.items()), m.max_message_words)


def _both_engines(g, packets, **kwargs):
    exact = _routed(g, packets, **kwargs)
    with cell_context(engine="reference"):
        reference = _routed(g, packets, **kwargs)
    return exact, reference


@settings(max_examples=60)
@given(st.data())
def test_transport_engine_matches_network_reference(data):
    g = data.draw(transport_graphs())
    packets = data.draw(packet_sets(g))
    exact, reference = _both_engines(g, packets)
    assert exact == reference
    assert exact[0] != "error"
    rounds = exact[1]["rounds"]
    if all(len(p.path) == 1 for p in packets):
        assert rounds == 1
    # Exactly enough rounds suffice; one fewer raises the same livelock
    # error on both engines.
    assert _routed(g, packets, max_rounds=rounds) == exact
    exact, reference = _both_engines(g, packets, max_rounds=rounds - 1)
    assert exact == reference
    assert exact[0] == "error" and "max_rounds" in exact[1]


@given(transport_graphs(), st.integers(0, 10_000))
def test_transport_engines_reject_non_edges_alike(g, seed):
    rng = random.Random(seed)
    u = rng.randrange(g.n)
    absent = [v for v in g.nodes() if v != u and v not in g.neighbors(u)]
    if not absent:
        return
    ok = [Packet(path=(v,), payload=v) for v in g.nodes()]
    # The bad hop comes second when u has a neighbor to start from.
    start = g.neighbors(u)[:1]
    bad = Packet(path=start + (u, rng.choice(absent)), payload=("x", 1))
    packets = ok[:u] + [bad] + ok[u:]
    exact, reference = _both_engines(g, packets)
    assert exact == reference
    assert exact[0] == "error" and "is not an edge" in exact[1]


def test_transport_engines_agree_on_empty_inputs():
    g = from_edges(3, [(0, 1)])
    exact, reference = _both_engines(g, [])
    assert exact == reference
    assert exact[1]["rounds"] == 1 and exact[1]["messages"] == 0
    empty = from_edges(0, [])
    assert _both_engines(empty, []) == ((
        [], Metrics().as_dict(), [], [], 0),) * 2


# ----------------------------------------------------------------------
# Downcast and upcast: the routes APIs equal both packet engines
# ----------------------------------------------------------------------

@st.composite
def downcast_forests(draw):
    """Routes down a random forest on 11 to 20 nodes (so ``repr`` order
    is not id order), over its edges plus a few chords, or with one of
    its edges missing from the graph.

    Several roots, roots with several children, counts 0 to 4, zero-hop
    routes (to a root) and repeated destinations all occur.
    """
    n = draw(st.integers(11, 20))
    rng = random.Random(draw(st.integers(0, 10_000)))
    order = rng.sample(range(n), n)
    parent = {order[0]: None}
    for i, v in enumerate(order[1:], 1):
        parent[v] = None if rng.random() < 0.2 else order[rng.randrange(i)]
    tree_edges = [(v, p) for v, p in parent.items() if p is not None]
    edges = set(tree_edges)
    for _ in range(rng.randrange(n)):
        edges.add(tuple(rng.sample(range(n), 2)))
    if tree_edges and draw(st.booleans()):
        missing = set(rng.choice(tree_edges))
        edges = {e for e in edges if set(e) != missing}
    routes = [(path_from_root(parent, rng.randrange(n)),
               draw(st.integers(0, 4)), rng.randint(1, 16))
              for _ in range(draw(st.integers(0, 12)))]
    return from_edges(n, sorted(edges)), routes


def _cast_outcome(g, routes, cast=route_downcast, **kwargs):
    """``cast`` (``route_downcast`` or ``route_upcast``) as comparable
    data: the outcome or the error."""
    try:
        m = cast(g, routes, **kwargs)
    except AlgorithmError as exc:
        return ("error", str(exc))
    return (m.as_dict(), list(m.edge_congestion.items()),
            list(m.message_sizes.items()), m.max_message_words)


def _cast_three_ways(g, routes, cast=route_downcast, **kwargs):
    """``cast`` on the default engine, ``_route_exact`` on the expanded
    packets, and ``cast`` on the ``Network`` reference, as comparable
    outcomes."""
    packets = [Packet(path=path, payload=None, words=words)
               for path, count, words in routes for _ in range(count)]
    routed = _routed(g, packets, **kwargs)
    if routed[0] != "error":
        routed = routed[1:]
    closed = _cast_outcome(g, routes, cast, **kwargs)
    with cell_context(engine="reference"):
        reference = _cast_outcome(g, routes, cast, **kwargs)
    return closed, routed, reference


def _check_cast(g, routes, cast, cap):
    closed, routed, reference = _cast_three_ways(g, routes, cast)
    assert closed == routed == reference
    if cap is not None:  # a non-edge against the round cap
        closed_cap, routed_cap, reference_cap = _cast_three_ways(
            g, routes, cast, max_rounds=cap)
        assert closed_cap == routed_cap == reference_cap
    if closed[0] == "error":
        assert "is not an edge" in closed[1]
        # The round the bad hop is first used decides which error wins.
        for cap in range(sum(count for _p, count, _w in routes) + g.n):
            assert _cast_outcome(g, routes, cast, max_rounds=cap) == \
                _cast_three_ways(g, routes, cast, max_rounds=cap)[1]
        return
    rounds = closed[0]["rounds"]
    if all(len(path) == 1 for path, count, _w in routes if count):
        assert rounds == 1
    assert _cast_outcome(g, routes, cast, max_rounds=rounds) == closed
    capped = _cast_three_ways(g, routes, cast, max_rounds=rounds - 1)
    assert capped[0] == capped[1] == capped[2]
    assert capped[0][0] == "error" and "max_rounds" in capped[0][1]


@settings(max_examples=80)
@given(forest=downcast_forests(),
       cap=st.one_of(st.none(), st.integers(0, 30)))
def test_downcast_matches_both_packet_engines(forest, cap):
    """The downcast routes through ``route_downcast``, and the same
    paths reversed, an upcast over the forest, through ``route_upcast``."""
    g, routes = forest
    _check_cast(g, routes, route_downcast, cap)
    _check_cast(g, [(path[::-1], count, words)
                    for path, count, words in routes], route_upcast, cap)


def test_downcast_rejects_what_is_not_a_downcast():
    g = from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 2), (2, 4)])
    merge = [((0, 1, 2), 1, 2), ((0, 3, 2, 4), 2, 2)]
    received_origin = [((0, 1), 1, 2), ((1, 2), 1, 2)]
    for routes in (merge, received_origin, received_origin[::-1],
                   [((0, 1, 0), 1, 2)], [((7,), 1, 2)]):
        for engine in ("auto", "reference"):
            with cell_context(engine=engine), \
                    pytest.raises(AlgorithmError,
                                  match="not a downcast|not a node"):
                route_downcast(g, routes)
    empty = from_edges(0, [])
    closed, routed, reference = _cast_three_ways(empty, [((0, 1), 0, 2)])
    assert closed == routed == reference
    assert closed[0]["rounds"] == 0
    # A route that carries nothing is no route at all.
    assert route_downcast(g, [((0, 1, 2), 1, 2), ((0, 3, 2), 0, 2)]) \
        == route_downcast(g, [((0, 1, 2), 1, 2)])


# ----------------------------------------------------------------------
# Phase batches: one array pass equals per-phase route_packets
# ----------------------------------------------------------------------

@st.composite
def phase_plans(draw):
    """Phases of ``(path, words)`` packets drawn from a small pool of
    routes, so packets queue on links shared within and across phases.

    Pool routes go down a BFS tree, across one edge and back up (the
    Theorem 2.1 shape), up or down the tree or both ways, along walks,
    through the busiest node (so packets from several senders meet on a
    link and then part), or nowhere.  About one plan in five also has a
    route over a non-edge, and one in five an oversize packet.
    """
    g = draw(transport_graphs())
    rng = random.Random(draw(st.integers(0, 10_000)))
    parent = bfs_tree_parents(g, rng.randrange(g.n))
    linked = [v for v in parent if g.neighbors(v)]
    hub = max(linked, key=g.degree, default=None)
    pool = []
    for kind in draw(st.lists(st.sampled_from(
            ["cross", "cross", "up", "down", "both", "walk", "hub", "hub",
             "zero"]),
            min_size=1, max_size=8)):
        v = rng.choice(linked or sorted(parent))
        if kind == "zero" or not linked:
            pool.append((v,))
        elif kind == "cross":
            u = rng.choice(g.neighbors(v))
            pool.append(path_from_root(parent, v) + path_to_root(parent, u))
        elif kind in ("up", "down", "both"):
            path = path_to_root(parent, v)
            if kind != "down":
                pool.append(path)
            if kind != "up":
                pool.append(path[::-1])
        else:
            walk = [rng.choice(g.neighbors(hub)), hub] if kind == "hub" \
                else [v]
            for _ in range(rng.randrange(1, 7)):
                walk.append(rng.choice(g.neighbors(walk[-1])))
            pool.append(tuple(walk))
    if draw(st.integers(0, 4)) == 0:
        v = rng.randrange(g.n)
        absent = [u for u in g.nodes() if u != v and u not in g.neighbors(v)]
        if absent:
            pool.append(path_from_root(parent, v)[-2:] + (rng.choice(absent),)
                        if v in parent else (v, rng.choice(absent)))
    phases = [[(rng.choice(pool), rng.randint(1, 16))
               for _ in range(rng.randrange(13))]
              for _ in range(draw(st.integers(1, 6)))]
    if draw(st.integers(0, 4)) == 0:
        hops = rng.choice(phases)
        if hops:
            k = rng.randrange(len(hops))
            hops[k] = (hops[k][0], 17)
    return g, phases


def _packet_arrays(phases):
    """Per-phase ``(path, words)`` lists as ``route_phases`` takes them:
    the distinct paths, and one route id, phase and size per packet.
    Phase ``k`` is numbered ``2 * k``, so the numbers have gaps."""
    paths, ids, route, phase, words = [], {}, [], [], []
    for k, hops in enumerate(phases):
        for path, size in hops:
            if path not in ids:
                ids[path] = len(paths)
                paths.append(path)
            route.append(ids[path])
            phase.append(2 * k)
            words.append(size)
    return paths, route, phase, words


def _phases_outcome(g, phases):
    """``route_phases`` as comparable data: the outcome or the error."""
    try:
        return _comparable(route_phases(g, *_packet_arrays(phases)))
    except AlgorithmError as exc:
        return ("error", str(exc))


def _comparable(m):
    return (m.as_dict(), list(m.edge_congestion.items()),
            list(m.message_sizes.items()), m.max_message_words)


def _per_phase_outcome(g, phases, **kwargs):
    """One ``route_packets`` call per non-empty phase, merged in phase
    order (a phase with no packets names no packet's phase)."""
    total = Metrics()
    try:
        for hops in filter(None, phases):
            packets = [Packet(path=path, payload=None, words=words)
                       for path, words in hops]
            total.merge(route_packets(g, packets, **kwargs)[1])
    except AlgorithmError as exc:
        return ("error", str(exc))
    return _comparable(total)


# Ties the array pass must break as the exact engine does: both ways
# over edge {0, 3} in round 1 (node 0 uses it first, before node 1 uses
# {1, 2}); two senders meeting on hub 4's link to 2 (the smaller sender
# goes first, so 5 is reached in round 4); and two links new at hub 4
# in round 2, first used in sender order, not input order.
_TIES = (from_edges(4, [(0, 3), (1, 2)]),
         [[((3, 0), 2), ((1, 2), 2), ((0, 3), 2)]])
_HUB = from_edges(6, [(0, 4), (1, 4), (2, 4), (3, 4), (2, 5)])
_MEET = (_HUB, [[((1, 4, 2), 2), ((0, 4, 2, 5), 2)]])
_PART = (_HUB, [[((1, 4, 2), 2), ((0, 4, 3), 2)]])


@settings(max_examples=80)
@given(plan=phase_plans())
@example(plan=_TIES)
@example(plan=_MEET)
@example(plan=_PART)
def test_route_phases_matches_per_phase_route_packets(plan):
    g, phases = plan
    assert _phases_outcome(g, phases) == _per_phase_outcome(g, phases)


@settings(max_examples=20)
@given(plan=phase_plans())
def test_route_phases_matches_per_phase_route_packets_on_reference(plan):
    g, phases = plan
    batched = _phases_outcome(g, phases)
    with cell_context(engine="reference"):
        assert _phases_outcome(g, phases) == batched


def test_route_phases_errors_come_from_the_first_failing_phase():
    """Each error kind, behind a phase that fails differently first; the
    round cap pinned at 5, so the 6-round flood fails on it too."""
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    flood = [((0, 1, 2, 3), 2)] * 3  # 6 rounds
    oversize = [((0, 1), 2), ((1, 2), 17)]
    non_edge = [((0, 1), 2), ((1, 3), 2)]
    for cap in (transport._MAX_ROUNDS, 5):
        with mock.patch.object(transport, "_MAX_ROUNDS", cap):
            for first, later in ((flood, oversize), (flood, non_edge),
                                 (oversize, non_edge), (non_edge, oversize)):
                plan = [[((2, 1), 3)], first, later]
                want = _per_phase_outcome(g, plan, max_rounds=cap)
                assert want[0] == "error"
                assert _phases_outcome(g, plan) == want
                with cell_context(engine="reference"):
                    assert _phases_outcome(g, plan) == want
    with mock.patch.object(transport, "_MAX_ROUNDS", 5):
        assert "max_rounds=5" in _phases_outcome(g, [flood])[1]
    with mock.patch.object(transport, "_MAX_ROUNDS", 6):
        assert _phases_outcome(g, [flood])[0]["rounds"] == 6
    assert _phases_outcome(g, [[], [((3,), 2)]]) == \
        _per_phase_outcome(g, [[], [((3,), 2)]])
    assert _phases_outcome(g, [])[0] == Metrics().as_dict()


# ----------------------------------------------------------------------
# Global tree: the closed-form election and count equal the Network runs
# ----------------------------------------------------------------------

@st.composite
def tree_graphs(draw):
    """A ``connected_graphs`` draw, or now and then the one-node graph."""
    if draw(st.integers(0, 7)) == 0:
        return from_edges(1, [])
    return draw(connected_graphs(max_n=12))


@st.composite
def disconnected_graphs(draw):
    """Two or three ``tree_graphs`` draws side by side, their ids
    shuffled together so that no component holds all the low ids."""
    parts = draw(st.lists(tree_graphs(), min_size=2, max_size=3))
    n = sum(part.n for part in parts)
    ids = draw(st.permutations(range(n)))
    edges, offset = [], 0
    for part in parts:
        edges += [(ids[u + offset], ids[v + offset]) for u, v in part.edges()]
        offset += part.n
    return from_edges(n, edges)


def _tree(g, seed):
    """``build_global_tree`` as comparable data: every field, dicts and
    counters as ordered item lists, or the error."""
    try:
        tree = build_global_tree(g, seed=seed)
    except (CongestError, RuntimeError) as exc:
        return ("error", type(exc).__name__, str(exc))
    m = tree.metrics
    return (tree.root, tree.n, list(tree.parent.items()),
            list(tree.children.items()), list(tree.depth.items()), m,
            list(m.edge_congestion.items()), list(m.message_sizes.items()))


def _trees_both(g, seed):
    exact = _tree(g, seed)
    with cell_context(engine="reference"):
        reference = _tree(g, seed)
    return exact, reference


@settings(max_examples=80)
@example(g=from_edges(1, []), seed=0, cap=None)
@example(g=from_edges(2, [(0, 1)]), seed=0, cap=3)
# Ids falling away from a triangle of the largest ones: the leader
# improves in waves, so nodes broadcast several times.
@example(g=from_edges(7, [(4, 5), (5, 6), (4, 6), (4, 3), (3, 2), (2, 1),
                          (1, 0)]), seed=0, cap=None)
@given(g=tree_graphs(), seed=st.integers(0, 1_000),
       cap=st.one_of(st.none(), st.integers(0, 30)))
def test_global_tree_matches_network_reference(g, seed, cap):
    exact, reference = _trees_both(g, seed)
    assert exact == reference
    assert exact[0] != "error"
    if cap is not None:  # the livelock guard, lowered
        g._global_tree_cache.clear()
        with mock.patch.object(global_tree, "_TREE_ROUNDS", cap):
            exact, reference = _trees_both(g, seed)
        assert exact == reference


@settings(max_examples=40)
@given(g=disconnected_graphs(), seed=st.integers(0, 1_000))
def test_global_tree_rejects_disconnected_graphs_alike(g, seed):
    exact, reference = _trees_both(g, seed)
    assert exact == reference
    assert exact[:2] == ("error", "RuntimeError")
    assert not g._global_tree_cache


# ----------------------------------------------------------------------
# Dissemination: the closed form equals the Network run
# ----------------------------------------------------------------------

# Mostly sendable words (0 to 3 words each); one in 16 is too large for
# the 8-word budget or cannot be sized at all.
sendable_words = st.one_of(
    st.integers(-50, 50), st.text(max_size=3), st.none(),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.integers(0, 9), st.none(), st.text(max_size=2),
              st.booleans()))
unsendable_words = st.sampled_from([tuple(range(9)), b"x", bytearray(b"y")])
stream_words = st.integers(0, 15).flatmap(
    lambda k: unsendable_words if k == 0 else sendable_words)


def _disseminated(g, tree, stream, **kwargs):
    """``disseminate`` as comparable data: the outcome or the error."""
    try:
        received, m = disseminate(g, tree, stream, **kwargs)
    except CongestError as exc:
        return ("error", type(exc).__name__, str(exc))
    return (received, m.as_dict(), list(m.edge_congestion.items()),
            list(m.message_sizes.items()), m.max_message_words)


def _disseminated_both(g, tree, stream, **kwargs):
    exact = _disseminated(g, tree, stream, **kwargs)
    with cell_context(engine="reference"):
        reference = _disseminated(g, tree, stream, **kwargs)
    return exact, reference


@settings(max_examples=80)
# Depth 2 reached as [4, 3] (children of 1, then of 2): congestion keys
# must still come in sender-id order within a depth.
@example(g=from_edges(7, [(0, 1), (0, 2), (1, 4), (2, 3), (4, 5), (3, 6)]),
         seed=0, stream=[1, (2, 3)], cap=None)
@given(g=tree_graphs(), seed=st.integers(0, 1_000),
       stream=st.lists(stream_words, max_size=8),
       cap=st.one_of(st.none(), st.integers(0, 12)))
def test_dissemination_matches_network_reference(g, seed, stream, cap):
    tree = build_global_tree(g, seed=seed)
    exact, reference = _disseminated_both(g, tree, stream)
    assert exact == reference
    if cap is not None:  # a word error against the round cap
        capped, capped_reference = _disseminated_both(g, tree, stream,
                                                      max_rounds=cap)
        assert capped == capped_reference
    if exact[0] == "error":
        return
    rounds = exact[1]["rounds"]
    assert rounds == (len(stream) + tree.height if stream else 1)
    assert _disseminated(g, tree, stream, max_rounds=rounds) == exact
    exact, reference = _disseminated_both(g, tree, stream,
                                          max_rounds=rounds - 1)
    assert exact == reference
    assert exact[0] == "error" and "max_rounds" in exact[2]


class _ScheduleRecorder(LocalRunner):
    """A ``LocalRunner`` that records ``(round, node, payload_words)``
    for every broadcast, in stepping order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.schedule = []

    def step(self, rnd, inboxes):
        sent = super().step(rnd, inboxes)
        self.schedule.extend((rnd, v, payload_words(payload))
                             for v, payload in sent.items())
        return sent


def _dict_distance_matrix(outputs, *, symmetric):
    """The distance matrix read straight off ``{v: {j: (dist, parent)}}``
    outputs, one entry at a time: the least distance reported (first of
    equals), the diagonal an int 0 unless a node reports less for
    itself, and ``inf`` for every unreported pair."""
    n = len(outputs)
    dist = [[math.inf] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
        for j, (d, _p) in (outputs[v] or {}).items():
            if d < dist[j][v]:
                dist[j][v] = d
            if symmetric and d < dist[v][j]:
                dist[v][j] = d
    return dist


@settings(max_examples=30)
@given(g=connected_graphs(max_n=12), seed=st.integers(0, 1_000))
def test_kernel_plan_schedules_match_the_machines(g, seed):
    """A plan's broadcast table is its machine collection's: the
    ``(phase, node, words)`` rows equal the ``(round, node,
    payload_words)`` of every broadcast when the same machines are
    stepped under ``LocalRunner``.  The plan's result arrays equal
    ``CollectionResult.from_outputs`` of the stepped outputs; the
    outputs built from them are the machines' with the machines' types
    (int or float), and every node's output size is ``output_words`` of
    its output.  The distance matrix and the parent map built from
    either record are equal and type-identical, and the matrix is the
    one the dict outputs give directly (:func:`_dict_distance_matrix`).
    The directed cases tell sender-side from receiver-side weights; with
    a negative cycle the machines announce until their deadline."""
    delays = random_delays(range(g.n), "delays", seed)
    weighted = uniform_weights(g, w_max=9, seed=seed)
    floated = _float_weights(g, random.Random(seed))

    def bfs(info):
        return BFSCollectionMachine(info, delays)

    def bellman_ford(info):
        return BellmanFordCollectionMachine(info, delays)

    cases = [(g, wavefront.bcongest_plan(g, delays), bfs),
             (g, relaxation.bcongest_plan(g, delays), bellman_ford),
             (weighted, relaxation.bcongest_plan(weighted, delays),
              bellman_ford),
             (floated, relaxation.bcongest_plan(floated, delays),
              bellman_ford)]
    rng = random.Random(seed)
    for kind in ("asymmetric", "potential", "cycle"):
        directed = _directed_weights(g, rng, kind)
        cases.append((directed, relaxation.bcongest_plan(directed, delays),
                      bellman_ford))
    assert cases[-1][1].phase[-1] == max(delays.values()) + g.n
    for graph, plan, factory in cases:
        runner = _ScheduleRecorder(graph, factory, seed=seed)
        outputs = runner.run()
        assert list(zip(plan.phase.tolist(), plan.node.tolist(),
                        plan.words.tolist())) == runner.schedule
        result, stepped = plan.result, CollectionResult.from_outputs(outputs)
        for field in ("sources", "dist", "parent", "reached"):
            assert np.array_equal(getattr(result, field),
                                  getattr(stepped, field)), field
        assert _typed(result.outputs) == _typed(outputs)
        assert result.output_words() == [output_words(outputs[v])
                                         for v in g.nodes()]
        for symmetric in (False, True):
            matrix = _typed(result.distance_matrix(symmetric=symmetric))
            assert matrix == _typed(
                stepped.distance_matrix(symmetric=symmetric))
            assert matrix == _typed(
                _dict_distance_matrix(outputs, symmetric=symmetric))
        assert _typed(result.parents()) == _typed(stepped.parents())
        assert result.parents() == {
            v: {j: p for j, (_d, p) in out.items()}
            for v, out in outputs.items()}


# ----------------------------------------------------------------------
# Decompositions
# ----------------------------------------------------------------------

@given(connected_graphs(max_n=16), st.integers(0, 500))
def test_mpx_is_partition_with_connected_trees(g, seed):
    clustering = run_mpx(g, beta=0.5, seed=seed)
    assert set(clustering.center_of) == set(g.nodes())
    for v in g.nodes():
        p = clustering.parent[v]
        if p is not None:
            assert p in g.neighbors(v)
            assert clustering.center_of[p] == clustering.center_of[v]


@given(st.data())
def test_strong_diameter_matches_networkx(data):
    """The one-BFS-per-member strong diameter against networkx: the
    largest induced-subgraph diameter over a random partition, raised
    on exactly when some cluster is disconnected in its own subgraph."""
    g = data.draw(connected_graphs(max_n=14))
    parts = data.draw(st.integers(1, 4))
    labels = data.draw(st.lists(st.integers(0, parts - 1),
                                min_size=g.n, max_size=g.n))
    clusters = {}
    for v, label in enumerate(labels):
        clusters.setdefault(label, []).append(v)
    whole = nx.Graph(list(g.edges()))
    whole.add_nodes_from(g.nodes())
    induced = [whole.subgraph(members) for members in clusters.values()]
    if all(nx.is_connected(sub) for sub in induced):
        assert strong_diameter(g, clusters.values()) == max(
            nx.diameter(sub) for sub in induced)
    else:
        with pytest.raises(AssertionError,
                           match="cluster not connected in induced"):
            strong_diameter(g, clusters.values())


@given(connected_graphs(max_n=14), st.sampled_from([1.0, 0.5, 0.34]),
       st.integers(0, 200))
def test_baswana_sen_properties_random(g, eps, seed):
    h = build_baswana_sen(g, eps, seed=seed)
    verify_hierarchy(g, h)


# ----------------------------------------------------------------------
# End-to-end BFS
# ----------------------------------------------------------------------

@given(connected_graphs(max_n=14), st.integers(0, 100))
def test_bfs_machine_matches_reference_random(g, seed):
    root = seed % g.n
    execution = run_machines(g, lambda info: BFSMachine(info, root=root),
                             seed=seed)
    ref = bfs_distances(g, root)
    for v in g.nodes():
        assert execution.outputs[v][0] == ref[v]


# ----------------------------------------------------------------------
# Engines: kernels, exact transport and batching equal the scalar loop
# ----------------------------------------------------------------------

@st.composite
def apsp_graphs(draw):
    """A ``connected_graphs`` draw, unweighted, with integer weights or
    with positive float weights (the relaxation kernel's float branch).

    A "guard" draw puts the heaviest edge right at the relaxation
    kernel's exactness guard (it declines once ``max |w| * (n + 1)``
    reaches 2^52), two below it to one above it.
    """
    g = draw(connected_graphs(max_n=12))
    kind = draw(st.sampled_from(["unweighted", "small", "guard", "float"]))
    if kind == "unweighted":
        return g
    rng = random.Random(draw(st.integers(0, 10_000)))
    if kind == "float":
        return _float_weights(g, rng)
    weights = {}
    for u, v in g.edges():
        weights[(u, v)] = weights[(v, u)] = rng.randint(1, 20)
    if kind == "guard":
        guard = (2 ** 52 + g.n) // (g.n + 1)  # ceil(2^52 / (n + 1))
        u, v = rng.choice(list(g.edges()))
        weights[(u, v)] = weights[(v, u)] = guard + draw(st.integers(-2, 1))
    return g.reweighted(weights, name=f"{g.name}+{kind}")


def _apsp_runs(g, seed, engine):
    """``weighted_apsp`` and ``apsp_tradeoff`` at eps 0, 0.4 (the batched
    regime, whose landmark stage is a direct run) and 1 under one engine
    mode, as comparable data, plus the weighted run's engine note."""
    with cell_context(engine=engine) as cell:
        runs = [weighted_apsp(g, seed=seed)]
        note = cell.engine_note
        runs += [apsp_tradeoff(g, eps, seed=seed) for eps in (0, 0.4, 1)]
    return [(run.dist, getattr(run, "parents", None), run.detail,
             run.metrics.as_dict(), dict(run.metrics.edge_congestion),
             dict(run.metrics.message_sizes)) for run in runs], note


def _gather_reference(graph, ldc):
    """The per-item gather ``gather_member_inputs`` replaced: one packet
    per incident edge and F annotation, carrying the item as its
    payload and sized from it, through ``route_packets``."""
    packets = []
    input_words = 0
    for v in graph.nodes():
        path = path_to_root(ldc.parent, v)
        items = [(v, u, graph.weight(v, u), graph.weight(u, v))
                 if graph.is_weighted else (v, u)
                 for u in graph.neighbors(v)]
        items += [(v, u, "F") for _v, u in ldc.out_edges[v]]
        for item in items:
            input_words += payload_words(item)
            if len(path) > 1:
                packets.append(Packet(path=path, payload=item))
    if not packets:
        return input_words, Metrics()
    return input_words, route_packets(graph, packets, word_limit=8)[1]


def _gathered(input_words, m):
    return (input_words, m.as_dict(), list(m.edge_congestion.items()),
            list(m.message_sizes.items()), m.max_message_words)


@settings(max_examples=40)
@given(g=apsp_graphs(), seed=st.integers(0, 1_000))
def test_gather_member_inputs_matches_per_item_reference(g, seed):
    """``gather_member_inputs`` counts each member's items and routes
    them as ``route_upcast`` routes; its ``input_words`` and metrics,
    congestion order and size histogram included, are the per-item
    packets' on both engines."""
    ldc = build_ldc(g, beta=0.5, seed=seed)
    for engine in ("auto", "reference"):
        with cell_context(engine=engine):
            assert _gathered(*gather_member_inputs(g, ldc)) == \
                _gathered(*_gather_reference(g, ldc))


@settings(max_examples=30)
@given(g=apsp_graphs(), seed=st.integers(0, 1_000))
def test_apsp_engines_match_scalar_reference(g, seed):
    """On generated graphs the default engines (kernels, exact transport,
    batched broadcasts) give the scalar reference loop's outputs,
    ``Metrics``, per-edge congestion and message-size histogram."""
    auto, note = _apsp_runs(g, seed, "auto")
    reference, _note = _apsp_runs(g, seed, "reference")
    assert _typed(auto) == _typed(reference)
    exact = not g.is_weighted or \
        max(g.weights.values()) * (g.n + 1) < 2 ** 52
    assert note == ("kernel:bellman-ford" if exact else None)


# ----------------------------------------------------------------------
# The cell context: fault replay, profile sums, shielding, note scope
# ----------------------------------------------------------------------

def _bfs_run(g, seed):
    execution = run_machines(g, lambda info: BFSMachine(info, root=seed % g.n),
                             seed=seed)
    return (execution.outputs, execution.metrics.as_dict(),
            list(execution.metrics.edge_congestion.items()))


@settings(max_examples=25)
@given(g=connected_graphs(max_n=14), seed=st.integers(0, 1_000))
def test_cell_context_replays_faults_and_sums_profiles(g, seed):
    plan = FaultPlan(drop=0.2, duplicate=0.2, seed=seed)
    runs = []
    for _ in range(2):
        profiler = RoundProfiler()
        with cell_context(faults=plan, profiler=profiler):
            runs.append((_bfs_run(g, seed), profiler.profile()))
    (first, profile), (second, _profile) = runs
    # Fault decisions are coordinate-seeded: the replay is identical.
    assert first == second
    # The additive profile columns sum to the final Metrics exactly.
    final = first[1]
    assert profile.totals() == {name: final.get(name, 0)
                                for name in ADDITIVE_COLUMNS}

    # A nested fault-free, unprofiled context shields the inner run
    # but inherits the engine mode it does not override.
    outer_profiler = RoundProfiler()
    with cell_context(faults=plan, profiler=outer_profiler,
                      engine="reference"):
        with cell_context(faults=None, profiler=None) as inner:
            assert inner.engine == "reference"
            shielded = _bfs_run(g, seed)
    assert shielded == _bfs_run(g, seed)
    assert outer_profiler.profile().segments == []

    # A kernel's note made inside a nested context never leaks outward.
    with cell_context() as outer:
        with cell_context() as nested:
            assert wavefront.bcongest_plan(g, {0: 1}) is not None
            assert current_cell() is nested
        assert nested.engine_note == "kernel:bfs-wavefront"
        assert outer.engine_note is None
        assert kernels_config.cell_engine_source("bfs-collection") \
            == "vectorized:fallback"
    wavefront.bcongest_plan(g, {0: 1})  # outside any context: no note
    assert current_cell().engine_note is None


# One small scenario per differential binding (a binding missing here
# fails its parametrized case below).
BINDING_CELLS = {
    "apsp-unweighted": "dense-gnp", "apsp-weighted": "dense-gnp-weighted",
    "bfs-collection": "dense-gnp", "matching": "bipartite-balanced",
    "cover": "dense-gnp", "ldc": "dense-gnp", "mpx-cover": "dense-gnp",
    "ldc-spanner": "dense-gnp", "bs-hierarchy": "dense-gnp"}
CELL_SIZE = 10
# Fault profiles without node crashes.  Matching draws only the ones
# that lose no message: its Israeli-Itai stage keeps proposing to a
# neighbor whose "matched" or "accept" message was lost, so a lossy
# matching cell can run to the 200,000-round livelock guard (1-3 s).
REPLAY_PROFILES = ("lossy-light", "dup-storm", "reorder-heavy",
                   "flaky-links")
LOSSLESS_PROFILES = ("dup-storm", "reorder-heavy")


@pytest.mark.parametrize("algorithm", sorted(BINDINGS))
@settings(max_examples=6)
@given(data=st.data(), seed=st.integers(0, 1_000),
       fault_seed=st.integers(0, 1_000))
def test_faulted_cells_replay_and_profiles_sum_to_the_record(
        algorithm, data, seed, fault_seed):
    """Every differential binding, run twice under one fault profile
    with a profiler: the records and timelines replay byte for byte,
    and a completed cell's timeline sums to the metrics it records."""
    profile = data.draw(st.sampled_from(
        LOSSLESS_PROFILES if algorithm == "matching" else REPLAY_PROFILES))
    scenario = get_scenario(BINDING_CELLS[algorithm])
    runs = []
    for _ in range(2):
        profiler = RoundProfiler()
        record = run_differential(scenario, algorithm, size=CELL_SIZE,
                                  seed=seed, faults=profile,
                                  fault_seed=fault_seed, profiler=profiler)
        runs.append((record, profiler.profile()))
    (record, timeline), (again, replayed) = runs
    assert record.canonical_dict() == again.canonical_dict()
    assert sorted(timeline.columns) == sorted(replayed.columns)
    for name, column in timeline.columns.items():
        assert np.array_equal(column, replayed.columns[name]), name
    if record.fault_verdict == DIVERGED:
        return  # an aborted execution records no metrics
    billed = dict(record.metrics)
    if algorithm == "bs-hierarchy":
        # It bills only its own construction; under faults the LDC
        # snapshot it builds on is computed inline, inside the profile.
        graph = scenario.graph(CELL_SIZE, seed=seed)
        with cell_context(faults=get_fault_profile(profile).realize(
                graph, fault_seed)):
            inline = ldc_snapshot(build_ldc(
                graph, seed=scenario.seed_for(CELL_SIZE, seed)))["metrics"]
        billed = {name: billed.get(name, 0) + inline.get(name, 0)
                  for name in ADDITIVE_COLUMNS}
    assert timeline.totals() == {name: billed.get(name, 0)
                                 for name in ADDITIVE_COLUMNS}


# ----------------------------------------------------------------------
# Machine scheduling: the direct run, the due rule and lockstep agree
# ----------------------------------------------------------------------

def _machine_classes():
    """Every ``Machine`` subclass under ``src/`` (recursively)."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, todo = set(), [Machine]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro."):
                found.add(sub)
    return sorted(found, key=lambda cls: cls.__name__)


def _delays(graph, seed, k):
    return {j: 1 + (seed + 3 * j) % 5 for j in range(min(k, graph.n))}


# (graph, seed) -> factory, one entry per machine class.
SCHEDULING_FACTORIES = {
    BFSMachine: lambda g, s: (
        lambda info: BFSMachine(info, root=s % g.n, delay=1 + s % 4)),
    BFSCollectionMachine: lambda g, s: (
        lambda info: BFSCollectionMachine(
            info, _delays(g, s, 4), max_depth=None if s % 2 else 2)),
    BellmanFordCollectionMachine: lambda g, s: (
        lambda info: BellmanFordCollectionMachine(info, _delays(g, s, 4))),
    MPXMachine: lambda g, s: lambda info: MPXMachine(info, beta=0.5),
    LubyMISMachine: lambda g, s: LubyMISMachine,
    IsraeliItaiMachine: lambda g, s: IsraeliItaiMachine,
    BipartiteMatchingMachine: lambda g, s: (
        lambda info: BipartiteMatchingMachine(info, s=max(1, g.n // 2))),
    CoverCollectionMachine: lambda g, s: build_cover_machine_factory(
        g, 2, 1, boost=0.5)[0],
}


class _Lockstep:
    """Test-only proxy that wakes every round until it halts: it steps
    its machine every round up to ``horizon`` (the due-rule run's last
    round), where it halts, since some machines never do."""

    def __init__(self, machine, horizon):
        self.machine = machine
        self.horizon = horizon
        self.rnd = 0

    @property
    def halted(self):
        return self.machine.halted or self.rnd >= self.horizon

    def wake_round(self, rnd):
        return None if self.halted else rnd + 1

    def on_round(self, rnd, inbox):
        self.rnd = rnd
        return self.machine.on_round(rnd, inbox)

    def output(self):
        return self.machine.output()


MACHINE_CLASSES = _machine_classes()


def test_every_machine_class_has_a_scheduling_factory():
    missing = [cls.__name__ for cls in MACHINE_CLASSES
               if cls not in SCHEDULING_FACTORIES]
    assert not missing, f"no SCHEDULING_FACTORIES entry for {missing}"


@pytest.mark.parametrize("cls", MACHINE_CLASSES,
                         ids=lambda cls: cls.__name__)
@settings(max_examples=12)
@given(g=connected_graphs(max_n=12), seed=st.integers(0, 1_000))
def test_machine_scheduling_modes_agree(cls, g, seed):
    factory = SCHEDULING_FACTORIES[cls](g, seed)
    direct = run_machines(g, factory, seed=seed, word_limit=10**6)
    due = LocalRunner(g, factory, seed=seed)
    outputs = due.run()
    assert outputs == direct.outputs
    assert due.broadcasts == direct.metrics.broadcasts
    lockstep = LocalRunner(
        g, lambda info: _Lockstep(factory(info), due.round), seed=seed)
    assert lockstep.run() == outputs
    assert (lockstep.round, lockstep.broadcasts) == (due.round,
                                                     due.broadcasts)


@pytest.mark.parametrize("cls", MACHINE_CLASSES,
                         ids=lambda cls: cls.__name__)
@settings(max_examples=12)
@given(g=transport_graphs(), seed=st.integers(0, 1_000))
def test_machine_wake_hint_matches_lockstep_on_network(cls, g, seed):
    """On the network, a machine's own hint meters exactly what stepping
    it every round does: outputs, ``Metrics``, the per-edge congestion
    (in insertion order), the message-size histogram and the round of
    every message."""
    def run(make):
        profiler = RoundProfiler()
        with cell_context(profiler=profiler):
            execution = run_machines(g, make, seed=seed, word_limit=10**6)
        columns = profiler.profile().columns
        sent = columns["messages"] > 0
        return execution, (columns["round"][sent].tolist(),
                           columns["messages"][sent].tolist())

    factory = SCHEDULING_FACTORIES[cls](g, seed)
    woken, woken_sends = run(factory)
    lockstep, lockstep_sends = run(
        lambda info: _Lockstep(factory(info), woken.rounds))
    assert lockstep_sends == woken_sends
    assert lockstep.outputs == woken.outputs
    assert lockstep.metrics.as_dict() == woken.metrics.as_dict()
    assert lockstep.rounds == woken.rounds
    assert (list(lockstep.metrics.edge_congestion.items())
            == list(woken.metrics.edge_congestion.items()))
    assert lockstep.metrics.message_sizes == woken.metrics.message_sizes


# ----------------------------------------------------------------------
# Store codecs: publish -> load gives back the value a fresh build makes
# ----------------------------------------------------------------------

@st.composite
def stored_graphs(draw):
    """A ``transport_graphs`` draw, unweighted or carrying int or float
    weights in a drawn (non-canonical) dict order."""
    g = draw(transport_graphs())
    kind = draw(st.sampled_from(["unweighted", "int", "float"]))
    if kind == "unweighted":
        return g
    values = (st.integers(-2**60, 2**60) if kind == "int"
              else st.floats(-1e12, 1e12, allow_nan=False))
    arcs = draw(st.permutations([arc for u, v in g.edges()
                                 for arc in ((u, v), (v, u))]))
    return g.reweighted({arc: draw(values) for arc in arcs},
                        name=f"{g.name}+{kind}")


@settings(max_examples=30)
@given(g=stored_graphs())
def test_graph_codec_round_trips(g):
    with tempfile.TemporaryDirectory() as root:
        store = FamilyStore(GRAPH_FAMILY, root)
        assert store.publish("prop", g.n, 0, g)
        back = store.load("prop", g.n, 0)
        assert (back.name, back.n, back.m) == (g.name, g.n, g.m)
        for arrays in ((back._indptr, g._indptr),
                       (back._indices, g._indices)):
            assert arrays[0].dtype == arrays[1].dtype
            assert np.array_equal(*arrays)
        if g.weights is None:
            assert back.weights is None
        else:
            assert ([(arc, type(w), w) for arc, w in back.weights.items()]
                    == [(arc, type(w), w) for arc, w in g.weights.items()])


@settings(max_examples=15)
@given(g=transport_graphs(), beta=st.floats(0.2, 2.0),
       seed=st.integers(0, 1_000))
def test_decomposition_codec_round_trips_ldc_snapshots(g, beta, seed):
    snapshot = ldc_snapshot(build_ldc(g, beta=beta, seed=seed))
    with tempfile.TemporaryDirectory() as root:
        store = FamilyStore(DECOMPOSITION_FAMILY, root)
        assert store.publish("prop", g.n, seed, "ldc", snapshot)
        back = store.load("prop", g.n, seed, "ldc")
    assert back == snapshot
    assert repr(back) == repr(snapshot)
