"""BCONGEST algorithms as per-node state machines.

Both of the paper's simulation frameworks (Theorem 2.1 and Theorems
3.9/3.10) need to *re-execute* a BCONGEST algorithm somewhere other than
on the real network: in Theorem 2.1 each cluster center locally steps the
state machines of all its cluster members; in Section 3 each node steps
its own machine on an *aggregated* inbox.  Both are legal because local
computation is free in the model.

To make this possible, every simulated algorithm in this library is a
:class:`Machine`: a deterministic object (its PRNG stream is fixed by the
node seed) that consumes ``(round, inbox)`` and emits at most one
broadcast payload per round.  A machine can therefore be

* run **directly** on a :class:`~repro.congest.network.Network` through
  :class:`MachineAdapter` -- this measures its true BCONGEST round,
  message, and broadcast complexity; or
* stepped **locally** through a :class:`MachineSet` by a simulation
  driver, with the driver responsible for delivering exactly the
  messages the real execution would deliver.

The equivalence of the two modes is the correctness property of the
paper's simulations (Lemma 2.5 / Lemma 3.14) and is checked in tests.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional

from repro.congest.errors import AlgorithmError
from repro.congest.network import (
    Algorithm,
    Execution,
    Inbox,
    NodeAPI,
    NodeInfo,
    make_node_info,
    payload_words,
    run_algorithm,
)
from typing import TYPE_CHECKING
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.graph import Graph

Broadcast = Optional[Any]
MachineFactory = Callable[[NodeInfo], "Machine"]


class Machine:
    """A per-node BCONGEST state machine.

    Lifecycle: the machine is constructed from a :class:`NodeInfo`; then
    :meth:`on_round` is called for rounds 1, 2, ... in order, with the
    inbox of messages broadcast by neighbors in the previous round.  The
    return value, if not ``None``, is broadcast to all neighbors this
    round.

    ``halted`` means the machine will never broadcast again and its
    ``output`` is final.  :meth:`wake_round` is the one scheduling hint:
    the next round after ``rnd`` in which the machine acts without mail.
    The default is lockstep (every round until halted); a message-driven
    machine overrides it to return its next self-timed round, or None.

    The scheduling rule: in round ``r`` a live machine is stepped iff it
    has mail or ``wake_round(r - 1) == r``.  Every execution mode steps
    machines by this rule, and it has exactly two homes: :func:`next_wake`
    (which :class:`MachineAdapter` schedules on the network) and
    :class:`MachineSet` (which the local drivers step).
    """

    def __init__(self, info: NodeInfo):
        self.info = info
        self.rng = random.Random(info.seed)
        self.halted = False
        self._output: Any = None

    # -- to implement ---------------------------------------------------
    def on_round(self, rnd: int, inbox: Inbox) -> Broadcast:
        raise NotImplementedError

    # -- scheduling hint ------------------------------------------------
    def wake_round(self, rnd: int) -> Optional[int]:
        """The next round after ``rnd`` in which this machine acts
        regardless of messages (e.g. a random start delay); None if it
        then acts only on mail.  Default: lockstep until halted."""
        return None if self.halted else rnd + 1

    # -- results ----------------------------------------------------------
    def output(self) -> Any:
        return self._output

    def set_output(self, value: Any) -> None:
        self._output = value


def next_wake(machine: Machine, rnd: int) -> Optional[int]:
    """The next round after ``rnd`` in which ``machine`` acts without
    mail: its ``wake_round(rnd)`` if that lies ahead; None once it is
    halted or purely message-driven."""
    if machine.halted:
        return None
    wake = machine.wake_round(rnd)
    return wake if wake is not None and wake > rnd else None


def check_broadcast_words(words: int, limit: int) -> None:
    """The one oversize check on a simulated algorithm's broadcast."""
    if words > limit:
        raise AlgorithmError(
            f"simulated algorithm broadcast {words} words > {limit}")


class MachineAdapter(Algorithm):
    """Runs a :class:`Machine` as a node algorithm on a real network,
    woken by incoming messages and by :func:`next_wake`."""

    def __init__(self, info: NodeInfo, machine: Machine):
        super().__init__(info)
        self.machine = machine

    def on_round(self, api: NodeAPI, rnd: int, inbox: Inbox) -> None:
        machine = self.machine
        if machine.halted:
            api.halt(machine.output())
            return
        payload = machine.on_round(rnd, inbox)
        if payload is not None:
            api.broadcast(payload)
        api.set_output(machine.output())
        if machine.halted:
            api.halt(machine.output())
            return
        wake = next_wake(machine, rnd)
        if wake is not None:
            api.wake_at(wake)


def run_machines(graph: "Graph", factory: MachineFactory, *,
                 inputs: Optional[Dict[int, Any]] = None,
                 word_limit: int = 8, seed: int = 0) -> Execution:
    """Execute a BCONGEST machine collection directly on the network.

    This is the reference execution: its metrics give the algorithm's
    true round complexity T_A, broadcast complexity B_A, and message
    complexity (each broadcast costs deg(v) messages).
    """
    machines: Dict[int, Machine] = {}

    def make(info: NodeInfo) -> Algorithm:
        machine = factory(info)
        machines[info.id] = machine
        return MachineAdapter(info, machine)

    execution = run_algorithm(
        graph, make, inputs=inputs, word_limit=word_limit, bcast_only=True,
        seed=seed)
    # Surface machine outputs even for machines that never halted
    # (e.g. depth-limited BFS at unreachable nodes).
    for v, machine in machines.items():
        if execution.outputs[v] is None:
            execution.outputs[v] = machine.output()
    return execution


class MachineSet:
    """Every node's machine, stepped locally under the scheduling rule.

    The drivers that re-execute a machine collection off the network
    (:class:`LocalRunner`, the Theorem 2.1 and Theorem 3.9/3.10
    simulations, the Theorem 1.3 composer) own only their delivery
    scheme; construction, stepping, the broadcast size check, the idle
    fast-forward and the phase loop (:meth:`drive`; the composer, which
    interleaves components one wall round at a time, steps its own) all
    live here.  Machine seeds match :func:`run_machines` with the same
    ``seed``.
    """

    def __init__(self, graph: "Graph", factory: MachineFactory, *,
                 inputs: Optional[Dict[int, Any]] = None, seed: int = 0,
                 message_words: Optional[int] = None):
        self.graph = graph
        self.message_words = message_words
        self.machines: Dict[int, Machine] = {
            v: factory(make_node_info(graph, v, inputs=inputs, seed=seed))
            for v in graph.nodes()}

    def step(self, rnd: int, inboxes: Dict[int, Inbox]) -> Dict[int, Any]:
        """Step the machines due in round ``rnd``, in node order; return
        ``{node: payload}`` for those that broadcast."""
        limit = self.message_words
        prev = rnd - 1
        broadcasts: Dict[int, Any] = {}
        for v, machine in self.machines.items():
            if machine.halted:
                continue
            inbox = inboxes.get(v)
            # The rule of next_wake, inline: this runs per machine per round.
            if inbox or machine.wake_round(prev) == rnd:
                payload = machine.on_round(rnd, inbox or [])
                if payload is not None:
                    if limit is not None:
                        check_broadcast_words(payload_words(payload), limit)
                    broadcasts[v] = payload
        return broadcasts

    def next_round(self, rnd: int, mail: Dict[int, Inbox]) -> Optional[int]:
        """The next round after ``rnd`` in which any machine acts, given
        the ``mail`` for round ``rnd + 1``; None at quiescence."""
        if mail:
            return rnd + 1
        wakes = [w for w in (next_wake(m, rnd) for m in self.machines.values())
                 if w is not None]
        return min(wakes) if wakes else None

    def drive(self, deliver: Callable[[int, Dict[int, Any]],
                                      Dict[int, Inbox]],
              max_rounds: int, name: str) -> int:
        """Step the machines from round 1 to quiescence and return the
        last round run; ``broadcasts`` counts the broadcasts made.

        ``deliver(rnd, broadcasts)`` is the driver's delivery scheme: it
        returns the inboxes of round ``rnd + 1`` and is called only for
        a round in which some machine broadcast."""
        self.broadcasts = 0
        inboxes: Dict[int, Inbox] = {}
        rnd: Optional[int] = 1
        last = 1
        while rnd is not None:
            if rnd > max_rounds:
                raise AlgorithmError(
                    f"{name} exceeded {max_rounds} rounds")
            last = rnd
            sent = self.step(rnd, inboxes)
            self.broadcasts += len(sent)
            inboxes = deliver(rnd, sent) if sent else {}
            rnd = self.next_round(rnd, inboxes)
        return last

    def outputs(self) -> Dict[int, Any]:
        return {v: m.output() for v, m in self.machines.items()}


class LocalRunner(MachineSet):
    """Steps a full collection of machines *locally* (no network), with
    every broadcast delivered to all neighbors in the next round.

    Used as an oracle in tests: the paper's simulations must produce the
    same outputs as this direct execution (Lemmas 2.5 / 3.14).  Also
    used by drivers to pre-compute a machine collection's round
    complexity upper bound T_A where the paper assumes it known.
    """

    def run(self, max_rounds: int = 1_000_000) -> Dict[int, Any]:
        """Run to global quiescence; return outputs.  Afterwards
        ``round`` is the last round run and ``broadcasts`` the number of
        broadcasts made."""
        neighbors = self.graph.neighbors

        def deliver(_rnd: int, sent: Dict[int, Any]) -> Dict[int, Inbox]:
            inboxes: Dict[int, Inbox] = {}
            for v, payload in sent.items():
                for u in neighbors(v):
                    inboxes.setdefault(u, []).append((v, payload))
            return inboxes

        self.round = self.drive(deliver, max_rounds, "LocalRunner")
        return self.outputs()
