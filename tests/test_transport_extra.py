"""Extra transport coverage: FIFO link discipline, CONGEST capacity,
tags, concurrent flows, and the path helpers."""

import pytest

from repro.congest.errors import AlgorithmError
from repro.congest.cell import cell_context
from repro.congest.faults import FaultPlan
from repro.congest.profile import RoundProfiler
from repro.graphs import cycle, grid, path
from repro.primitives import (
    Packet,
    path_from_root,
    path_to_root,
    route_packets,
)


def test_one_message_per_edge_per_round():
    """CONGEST capacity: k packets over one edge need >= k rounds."""
    g = path(2)
    packets = [Packet(path=(0, 1), payload=i) for i in range(7)]
    deliveries, metrics = route_packets(g, packets)
    assert len(deliveries) == 7
    assert metrics.rounds >= 7
    assert metrics.edge_congestion[(0, 1)] == 7


def test_fifo_per_link():
    g = path(3)
    packets = [Packet(path=(0, 1, 2), payload=i) for i in range(5)]
    deliveries, _ = route_packets(g, packets)
    arrival = sorted((d.round, d.payload) for d in deliveries)
    assert [p for _r, p in arrival] == [0, 1, 2, 3, 4]


def test_opposite_directions_do_not_block():
    """Each direction of an edge has its own unit capacity per round:
    both packets are transmitted in round 1 (delivery is processed in
    round 2), and the undirected congestion counter records both."""
    g = path(2)
    packets = [Packet(path=(0, 1), payload="a"),
               Packet(path=(1, 0), payload="b")]
    _deliveries, metrics = route_packets(g, packets)
    assert metrics.rounds == 2
    assert metrics.edge_congestion[(0, 1)] == 2


def test_crossing_flows_on_grid():
    g = grid(3, 3)
    packets = [Packet(path=(0, 1, 2), payload="east"),
               Packet(path=(2, 1, 0), payload="west"),
               Packet(path=(0, 3, 6), payload="south"),
               Packet(path=(6, 3, 0), payload="north")]
    deliveries, metrics = route_packets(g, packets)
    assert len(deliveries) == 4
    # All four flows are independent: two transmission rounds, with the
    # final deliveries processed in round 3.
    assert metrics.rounds == 3


def test_tags_preserved_and_rounds_recorded():
    g = cycle(5)
    packets = [Packet(path=(0, 1, 2), payload="x", tag=("cluster", 7))]
    deliveries, _ = route_packets(g, packets)
    assert deliveries[0].tag == ("cluster", 7)
    assert deliveries[0].round == 3  # sent r1, relayed r2, delivered r3
    assert deliveries[0].origin == 0 and deliveries[0].dest == 2


def test_zero_length_path_delivers_locally():
    g = path(2)
    deliveries, metrics = route_packets(
        g, [Packet(path=(1,), payload="self")])
    assert deliveries[0].dest == 1
    assert metrics.messages == 0


def test_packet_walks_may_revisit_edges():
    # Down-then-up through the same tree edge (the Thm 2.1 packet shape).
    g = path(3)
    packets = [Packet(path=(0, 1, 2, 1, 0), payload="boomerang")]
    deliveries, metrics = route_packets(g, packets)
    assert deliveries[0].dest == 0
    assert metrics.messages == 4


def test_path_helpers():
    parent = {0: None, 1: 0, 2: 1, 3: 1}
    assert path_to_root(parent, 3) == (3, 1, 0)
    assert path_from_root(parent, 3) == (0, 1, 3)
    assert path_to_root(parent, 0) == (0,)


def test_path_helpers_detect_cycles():
    parent = {0: 1, 1: 0}
    with pytest.raises(AlgorithmError):
        path_to_root(parent, 0)


def test_transport_conservation_under_load():
    """No packet is lost or duplicated under heavy contention."""
    g = grid(4, 4)
    import random
    rng = random.Random(5)
    from repro.baselines.reference import bfs_distances
    packets = []
    for i in range(60):
        a, b = rng.randrange(16), rng.randrange(16)
        dist = bfs_distances(g, a)
        # Greedy shortest path.
        p = [a]
        while p[-1] != b:
            cur = p[-1]
            p.append(min(u for u in g.neighbors(cur)
                         if bfs_distances(g, b)[u] ==
                         bfs_distances(g, b)[cur] - 1))
        packets.append(Packet(path=tuple(p), payload=i))
    deliveries, metrics = route_packets(g, packets)
    assert sorted(d.payload for d in deliveries) == list(range(60))
    assert metrics.messages == sum(len(p.path) - 1 for p in packets)


# ---------------------------------------------------------------------------
# Fallback: fault plans and round profilers route on the Network loop
# ---------------------------------------------------------------------------

def test_profiled_transport_opens_one_segment():
    g = path(4)
    packets = [Packet(path=(0, 1, 2, 3), payload=i) for i in range(3)]
    profiler = RoundProfiler()
    with cell_context(profiler=profiler):
        _deliveries, metrics = route_packets(g, packets)
    (segment,) = profiler.profile().segments
    assert segment["rows"] == metrics.rounds
    assert segment["totals"]["messages"] == metrics.messages == 9


def test_dropping_fault_plan_loses_packets():
    g = path(3)
    packets = [Packet(path=(0, 1, 2), payload="x")]
    with cell_context(faults=FaultPlan(drop=1.0, seed=3)):
        with pytest.raises(AlgorithmError, match="transport lost packets"):
            route_packets(g, packets)
