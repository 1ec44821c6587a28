"""Seeded property tests for the vectorized simulator fast path.

The batched broadcast delivery (``Network._broadcast_batch``) and the
payload-size cache (``Network._payload_size``) must agree *exactly* with
the scalar per-edge path of ``cell_context(engine="reference")`` on
every observable: outputs, round counts, message/word/broadcast
metering, per-edge congestion, inbox ordering, and raised errors.
Everything is driven by seeded randomness so a failure reproduces from
the printed parameters."""

import random

import pytest

from repro.congest.cell import cell_context
from repro.congest.errors import DuplicateSend, MessageTooLarge
from repro.congest.machine import Machine, run_machines
from repro.congest.network import (
    Algorithm,
    Network,
    payload_words,
    run_algorithm,
)
from repro.graphs import gnp
from repro.matching.israeli_itai import IsraeliItaiMachine
from repro.primitives import BFSMachine, LubyMISMachine


def delivery(fast):
    """The batched broadcast delivery (``fast``) or the scalar reference."""
    return cell_context(engine="auto" if fast else "reference")


# ---------------------------------------------------------------------------
# Payload-size cache
# ---------------------------------------------------------------------------

def random_payload(rng: random.Random, depth: int = 0):
    """A random payload drawn from every type payload_words supports."""
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        return rng.choice([
            rng.randint(-100, 100), rng.random(), True, False,
            "w" * rng.randint(1, 5), None])
    if roll < 0.60:
        return tuple(random_payload(rng, depth + 1)
                     for _ in range(rng.randint(0, 4)))
    if roll < 0.72:
        return [random_payload(rng, depth + 1)
                for _ in range(rng.randint(0, 4))]
    if roll < 0.84:
        scalars = [rng.randint(0, 50) for _ in range(rng.randint(0, 4))]
        return frozenset(scalars) if rng.random() < 0.5 else set(scalars)
    return {rng.randint(0, 50): random_payload(rng, depth + 1)
            for _ in range(rng.randint(0, 3))}


@pytest.mark.parametrize("seed", range(8))
def test_payload_size_cache_matches_scalar(seed):
    rng = random.Random(seed)
    net = Network(gnp(6, 0.5, seed=1))
    payloads = [random_payload(rng) for _ in range(200)]
    # Query twice: the second pass exercises the cache-hit path for
    # every hashable payload.
    for _ in range(2):
        for payload in payloads:
            assert net._payload_size(payload) == payload_words(payload)


def test_payload_size_cache_is_bounded():
    net = Network(gnp(4, 0.5, seed=1))
    net._SIZE_CACHE_MAX = 10
    for value in range(50):
        net._payload_size(value)
    assert len(net._size_cache) <= 10
    # Values beyond the cap are still sized correctly, just not cached.
    assert net._payload_size((1, 2, 3)) == 3


# ---------------------------------------------------------------------------
# Whole-execution equivalence on standard workloads
# ---------------------------------------------------------------------------

def _assert_equivalent(graph, factory, *, word_limit=8, seed=0):
    fast = run_machines(graph, factory, word_limit=word_limit, seed=seed)
    with delivery(fast=False):
        slow = run_machines(graph, factory, word_limit=word_limit,
                            seed=seed)
    assert fast.outputs == slow.outputs
    assert fast.rounds == slow.rounds
    assert fast.halted == slow.halted
    assert fast.metrics.as_dict() == slow.metrics.as_dict()
    assert fast.metrics.edge_congestion == slow.metrics.edge_congestion
    assert fast.metrics.max_message_words == slow.metrics.max_message_words


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("factory,word_limit", [
    (lambda info: BFSMachine(info, root=0), 8),
    (LubyMISMachine, 8),
    (IsraeliItaiMachine, 8),
], ids=["bfs", "luby", "israeli-itai"])
def test_fast_path_equals_scalar_on_machines(factory, word_limit, seed):
    graph = gnp(14 + seed, 0.25 + 0.1 * seed, seed=seed)
    _assert_equivalent(graph, factory, word_limit=word_limit, seed=seed)


class RandomChatterMachine(Machine):
    """Broadcasts randomly-sized payloads for a few rounds.

    Payload shapes are drawn from the node's private seeded stream, so
    both executions regenerate the identical random traffic.
    """

    ROUNDS = 6

    def on_round(self, rnd, inbox):
        if rnd > self.ROUNDS:
            self.halted = True
            self.set_output(("heard", len(inbox)))
            return None
        if self.rng.random() < 0.25:
            return None  # silent round: inbox-driven wake-ups differ
        size = self.rng.randint(1, 6)
        return tuple(self.rng.randint(0, 9) for _ in range(size))


@pytest.mark.parametrize("seed", range(6))
def test_fast_path_equals_scalar_on_random_chatter(seed):
    graph = gnp(12, 0.4, seed=100 + seed)
    _assert_equivalent(graph, RandomChatterMachine, word_limit=6, seed=seed)


# ---------------------------------------------------------------------------
# Inbox interleaving with mixed point-to-point sends and broadcasts
# ---------------------------------------------------------------------------

class MixedTrafficAlgorithm(Algorithm):
    """CONGEST algorithm mixing send() and broadcast() per round; its
    output is the full ordered transcript of everything it received, so
    any delivery-order difference between the paths is visible."""

    def on_round(self, api, rnd, inbox):
        if rnd == 1:
            self.transcript = []
        self.transcript.extend(inbox)
        if rnd >= 4:
            api.halt(tuple(self.transcript))
            return
        choice = (self.info.id + rnd) % 3
        if choice == 0 and self.info.neighbors:
            api.send(self.info.neighbors[0], ("p2p", self.info.id, rnd))
        elif choice == 1:
            api.broadcast(("bcast", self.info.id, rnd))
        api.wake_at(rnd + 1)


@pytest.mark.parametrize("seed", range(4))
def test_fast_path_preserves_inbox_interleaving(seed):
    graph = gnp(10, 0.5, seed=200 + seed)
    runs = []
    for flag in (True, False):
        with delivery(flag):
            runs.append(run_algorithm(graph, MixedTrafficAlgorithm,
                                      word_limit=8, seed=seed))
    assert runs[0].outputs == runs[1].outputs
    assert runs[0].metrics.as_dict() == runs[1].metrics.as_dict()


# ---------------------------------------------------------------------------
# Error equivalence
# ---------------------------------------------------------------------------

class OversizeBroadcaster(Machine):
    def on_round(self, rnd, inbox):
        return tuple(range(99))


class SendThenBroadcast(Algorithm):
    def on_round(self, api, rnd, inbox):
        if self.info.neighbors:
            api.send(self.info.neighbors[0], "hi")
            api.broadcast("dup")
        api.halt("done")


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "scalar"])
def test_oversize_broadcast_raises_on_both_paths(fast):
    graph = gnp(8, 0.5, seed=3)
    with delivery(fast), \
            pytest.raises(MessageTooLarge, match="99 words > limit 8"):
        run_machines(graph, OversizeBroadcaster, word_limit=8)


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "scalar"])
def test_duplicate_send_raises_on_both_paths(fast):
    graph = gnp(8, 0.5, seed=3)
    with delivery(fast), pytest.raises(DuplicateSend, match="sent twice"):
        run_algorithm(graph, SendThenBroadcast, word_limit=8)
