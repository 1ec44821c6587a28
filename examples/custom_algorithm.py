#!/usr/bin/env python
"""Scenario: making YOUR broadcast-based algorithm message-optimal.

The paper's Theorem 2.1 is a compiler: write any BCONGEST algorithm as
a per-node state machine, and the simulation runs it with message
complexity proportional to its *broadcast* complexity instead of its
message complexity.  This example defines a new algorithm from scratch
-- distributed k-hop dominating-set voting -- and runs it both ways on
a dense graph.  Run:

    python examples/custom_algorithm.py
"""

from repro import run_machines, simulate_bcongest
from repro.congest import Machine
from repro.graphs import complete, gnp


class GossipMaxMachine(Machine):
    """Each node learns the maximum input value within k hops.

    A textbook aggregation flood: broadcast your current best whenever
    it improves.  Broadcast complexity is O(n * k) while the direct
    message cost is O(m * k) -- exactly the gap Theorem 2.1 closes.

    It runs in lockstep (the default ``wake_round``: every round until
    it halts), so it needs no scheduling hint of its own.
    """

    K = 3

    def __init__(self, info):
        super().__init__(info)
        self.best = (info.input, info.id)  # (value, witness)
        self.hops = 0

    def on_round(self, rnd, inbox):
        if rnd > self.K + 2:
            # The k-hop flood has quiesced: K relaying rounds plus slack.
            self.halted = True
            return None
        improved = self.hops == 0
        for _src, (value, witness, hops) in inbox:
            if (value, witness) > self.best and hops < self.K:
                self.best = (value, witness)
                self.hops = hops + 1
                improved = True
        if self.hops == 0:
            self.hops = 1
        self.set_output(self.best)
        if improved:
            return (*self.best, self.hops)
        return None


def main() -> None:
    graph = gnp(40, 0.5, seed=31)
    inputs = {v: (v * 7919) % 101 for v in graph.nodes()}

    direct = run_machines(graph, GossipMaxMachine, inputs=inputs, seed=2)
    # beta controls the LDC cluster granularity; on very dense graphs the
    # default rate collapses to one giant cluster (making phase traffic
    # trivially zero), so we ask for finer clusters here.
    simulated = simulate_bcongest(graph, GossipMaxMachine, inputs=inputs,
                                  seed=2, beta=1.5)
    assert simulated.outputs == direct.outputs, \
        "Theorem 2.1 guarantees identical outputs"

    print(f"graph: {graph.name} (n={graph.n}, m={graph.m})")
    print(f"k-hop maximum at node 0: value={direct.outputs[0][0]} "
          f"witnessed by node {direct.outputs[0][1]}")
    print("\ncommunication cost of the same algorithm:")
    print(f"  broadcast complexity B_A:     "
          f"{direct.metrics.broadcasts:>8}")
    print(f"  direct BCONGEST messages:     "
          f"{direct.metrics.messages:>8}   (~ B_A x avg degree)")
    print(f"  simulated phase messages:     "
          f"{simulated.simulation.messages:>8}   (~ B_A x polylog)")
    print(f"  one-off preprocessing:        "
          f"{simulated.preprocessing.messages:>8}   (~ m log n, the In term)")
    print("\nWrite the machine once; choose the execution mode to match")
    print("whether rounds or messages are the scarce resource.")


if __name__ == "__main__":
    main()
