"""Unit tests for the CONGEST simulator core (model enforcement, metering)."""

import inspect

import numpy as np
import pytest

from repro.congest import (
    Algorithm,
    BroadcastOnly,
    DuplicateSend,
    MessageTooLarge,
    Metrics,
    Network,
    NotANeighbor,
    RoundProfiler,
    cell_context,
    payload_words,
    run_algorithm,
    run_machines,
)
from repro.congest.scheduler import measure_bfs_schedule
from repro.graphs import complete, from_edges, path
from repro.primitives import BFSMachine


class _Ping(Algorithm):
    """Node 0 sends to 1 in round 1; node 1 echoes in round 2."""

    def on_round(self, api, rnd, inbox):
        if rnd == 1 and self.info.id == 0:
            api.send(1, "ping")
        for src, msg in inbox:
            if msg == "ping":
                api.send(src, "pong")
            if msg == "pong":
                api.halt("done")


class _Broadcaster(Algorithm):
    def on_round(self, api, rnd, inbox):
        if rnd == 1:
            api.broadcast(("hello", self.info.id))
            api.wake_at(2)
        else:
            api.halt(len(inbox))


def test_ping_pong_rounds_and_messages():
    g = path(3)
    execution = run_algorithm(g, _Ping)
    assert execution.outputs[0] == "done"
    assert execution.metrics.messages == 2
    # ping in round 1, pong in round 2, received in round 3.
    assert execution.rounds == 3


def test_broadcast_counts_messages_and_broadcasts():
    g = complete(5)
    execution = run_algorithm(g, _Broadcaster)
    # Each of 5 nodes broadcasts once to 4 neighbors.
    assert execution.metrics.broadcasts == 5
    assert execution.metrics.messages == 20
    # Every node then receives 4 messages in round 2.
    assert all(execution.outputs[v] == 4 for v in g.nodes())


def test_edge_congestion_metering():
    g = path(2)

    class TwoRounds(Algorithm):
        def on_round(self, api, rnd, inbox):
            if rnd <= 2 and self.info.id == 0:
                api.send(1, rnd)
                api.wake_at(rnd + 1)

    execution = run_algorithm(g, TwoRounds)
    assert execution.metrics.edge_congestion[(0, 1)] == 2
    assert execution.metrics.max_edge_congestion == 2


def test_duplicate_send_raises():
    g = path(2)

    class Dup(Algorithm):
        def on_round(self, api, rnd, inbox):
            if self.info.id == 0:
                api.send(1, "a")
                api.send(1, "b")

    with pytest.raises(DuplicateSend):
        run_algorithm(g, Dup)


def test_send_to_non_neighbor_raises():
    g = path(3)

    class Bad(Algorithm):
        def on_round(self, api, rnd, inbox):
            if self.info.id == 0:
                api.send(2, "x")

    with pytest.raises(NotANeighbor):
        run_algorithm(g, Bad)


def test_bcongest_rejects_point_to_point():
    g = path(2)

    class P2P(Algorithm):
        def on_round(self, api, rnd, inbox):
            api.send(self.info.neighbors[0], "x")

    with pytest.raises(BroadcastOnly):
        run_algorithm(g, P2P, bcast_only=True)


def test_message_size_enforced():
    g = path(2)

    class Fat(Algorithm):
        def on_round(self, api, rnd, inbox):
            if self.info.id == 0:
                api.send(1, tuple(range(100)))

    with pytest.raises(MessageTooLarge):
        run_algorithm(g, Fat, word_limit=8)
    # A generous limit admits the same message.
    run_algorithm(g, Fat, word_limit=128)


def test_idle_fast_forward_counts_skipped_rounds():
    g = path(2)

    class Sleeper(Algorithm):
        def on_round(self, api, rnd, inbox):
            if rnd == 1:
                api.wake_at(100)
            elif rnd == 100 and self.info.id == 0:
                api.send(1, "late")

    execution = run_algorithm(g, Sleeper)
    # The message lands in round 101; the wait is counted, not elided.
    assert execution.rounds == 101
    assert execution.metrics.messages == 1


def test_payload_words():
    assert payload_words(5) == 1
    assert payload_words((1, 2, 3)) == 3
    assert payload_words({1: (2, 3)}) == 3
    assert payload_words(None) == 0
    assert payload_words("tag") == 1


@pytest.mark.parametrize("payload,words", [
    (np.int64(3), 1),
    (np.float32(1.5), 1),
    (np.float64(2.0), 1),
    (True, 1),
    ((np.int64(1), np.float32(2.0)), 2),
    ([np.int64(1), (np.int64(2), np.float32(3.0))], 3),
    ({np.int64(1): (np.float32(2.0), None)}, 2),
    ({np.int64(1): np.int64(2), 3: (4, 5)}, 5),
    ((None, 7, None), 1),
    ((None,), 1),
    ({None: None}, 1),
    ([True, None, "x"], 2),
    ((), 1),
    ({}, 1),
    (frozenset({1, 2}), 2),
])
def test_payload_words_numpy_scalars_and_containers(payload, words):
    """Pins the sizes the reordered type tests give (containers are
    tested before the ``numbers.Number`` ABC that admits numpy scalars)."""
    assert payload_words(payload) == words


@pytest.mark.parametrize("payload,bad", [
    (b"x", bytes),
    (bytearray(b"x"), bytearray),
    (np.array([1]), np.ndarray),
    (np.bool_(True), np.bool_),  # not a numbers.Number
    ((1, b"x"), bytes),
    ({1: b"x"}, bytes),
    ({b"x": 1}, bytes),
])
def test_payload_words_rejects_unsupported_types(payload, bad):
    with pytest.raises(TypeError) as info:
        payload_words(payload)
    assert str(info.value) == f"unsupported payload type {bad!r}"


def test_metrics_snapshot_delta_merge():
    m = Metrics()
    m.record_send(0, 1, 2)
    snap = m.snapshot()
    m.record_send(1, 0, 1)
    delta = m.delta_since(snap)
    assert delta.messages == 1 and delta.words == 1
    other = Metrics(rounds=5)
    other.record_send(2, 3, 1)
    m.rounds = 7
    m.merge(other)
    assert m.rounds == 12 and m.messages == 3
    m2 = Metrics(rounds=3)
    m2.merge(Metrics(rounds=9), parallel=True)
    assert m2.rounds == 9


def test_metrics_merge_parallel_vs_sequential_round_semantics():
    """Parallel composition maxes rounds; traffic always adds."""
    def build(rounds, words):
        m = Metrics(rounds=rounds)
        m.record_send(0, 1, words)
        return m

    seq = build(5, 2)
    seq.merge(build(3, 7))
    seq.merge(build(9, 1))
    assert seq.rounds == 17                     # sequential: phases add
    par = build(5, 2)
    par.merge(build(3, 7), parallel=True)
    assert par.rounds == 5                      # concurrent: slowest wins
    par.merge(build(9, 1), parallel=True)
    assert par.rounds == 9
    # Bandwidth is physical either way: messages/words/max word width
    # accumulate identically under both compositions.
    for merged in (seq, par):
        assert merged.messages == 3
        assert merged.words == 10
        assert merged.max_message_words == 7


def test_node_info_weights_directed():
    g = from_edges(2, [(0, 1)], weights={(0, 1): 5, (1, 0): 7})

    captured = {}

    class Peek(Algorithm):
        def on_round(self, api, rnd, inbox):
            captured[self.info.id] = (self.info.weight_to(1 - self.info.id),
                                      self.info.weight_from(1 - self.info.id))
            api.halt()

    run_algorithm(g, Peek)
    assert captured[0] == (5, 7)
    assert captured[1] == (7, 5)


def test_path_bfs_wavefront_is_metered_per_edge_and_round():
    """BFS from one end of a path: every node broadcasts once (2m
    messages, one per direction of each edge), the wavefront advances
    one hop per round, and every node acts in round 1."""
    profiler = RoundProfiler()
    with cell_context(profiler=profiler):
        execution = run_machines(path(4),
                                 lambda info: BFSMachine(info, root=0))
    metrics = execution.metrics
    assert metrics.messages == 2 * 3 and metrics.broadcasts == 4
    assert metrics.edge_congestion[(1, 2)] == 2
    assert all(execution.halted.values())
    assert execution.outputs[3] == (3, 2)
    assert execution.rounds == 4
    columns = profiler.profile().columns
    assert list(columns["round"]) == [1, 2, 3, 4]
    # Node 0 sends to its one neighbor in round 1, node 3 in round 4.
    assert list(columns["messages"]) == [1, 2, 2, 1]
    assert columns["active"][0] == 4


def test_cell_context_is_the_only_way_in():
    """Fault plan, profiler and reference engine come only from
    ``cell_context``, and the round profiler is the one observer: no
    entry point takes them (or a tracer) as arguments, and the run
    helpers take no size-check switch."""
    cell_fields = {"faults", "profiler", "fast_path", "tracer"}
    helper_fields = cell_fields | {"check_sizes"}
    for entry, banned in ((Network, cell_fields),
                          (run_algorithm, helper_fields),
                          (run_machines, helper_fields),
                          (measure_bfs_schedule, {"profiler"})):
        params = set(inspect.signature(entry).parameters)
        assert not banned & params, (entry.__name__, banned & params)
