"""Machine layer: adapter scheduling, LocalRunner oracle, seed stability,
and the Theorem 2.1 report invariants on small and degenerate inputs."""

import pytest

from repro.congest import (
    LocalRunner,
    Machine,
    make_node_info,
    node_seed,
    run_machines,
)
from repro.congest.errors import AlgorithmError
from repro.core.bcongest_sim import output_words, simulate_bcongest
from repro.core.tradeoff_sim import simulate_aggregation
from repro.core.tradeoff_sim_star import simulate_aggregation_star
from repro.covers.mpx_cover import CoverCollectionMachine
from repro.decomposition.pruning import build_pruned_hierarchy
from repro.graphs import from_edges, gnp, path
from repro.matching.augmenting import BipartiteMatchingMachine
from repro.primitives import BFSMachine, LubyMISMachine
from repro.primitives.bfs import aggregate_keyed_min
from repro.testing.differential import run_differential


class CountdownMachine(Machine):
    """Broadcasts for `k` rounds, then halts with the round it stopped."""

    def __init__(self, info, k: int = 3):
        super().__init__(info)
        self.k = k

    def on_round(self, rnd, inbox):
        if rnd >= self.k:
            self.set_output(rnd)
            self.halted = True
            return None
        return ("tick", rnd)


class SleeperMachine(Machine):
    """Message-driven machine that wakes itself once at round 10."""

    def __init__(self, info):
        super().__init__(info)
        self.fired = None

    def wake_round(self, rnd):
        return 10 if self.fired is None else None

    def on_round(self, rnd, inbox):
        if rnd >= 10 and self.fired is None:
            self.fired = rnd
            self.set_output(rnd)
            self.halted = True
        return None


def test_adapter_lockstep_until_halt():
    g = path(4)
    execution = run_machines(g, lambda info: CountdownMachine(info, k=4))
    assert all(execution.outputs[v] == 4 for v in g.nodes())
    # k-1 broadcasting rounds per node.
    assert execution.metrics.broadcasts == g.n * 3


def test_adapter_respects_wake_round():
    g = path(3)
    execution = run_machines(g, SleeperMachine)
    assert all(execution.outputs[v] == 10 for v in g.nodes())
    assert execution.rounds == 10
    assert execution.metrics.messages == 0


def test_local_runner_equals_network_run():
    g = gnp(18, 0.3, seed=9)
    net = run_machines(g, LubyMISMachine, seed=4)
    local = LocalRunner(g, LubyMISMachine, seed=4).run()
    assert net.outputs == local


def test_local_runner_handles_wake_jumps():
    g = path(3)
    outputs = LocalRunner(g, SleeperMachine).run()
    assert all(v == 10 for v in outputs.values())


def test_node_seed_stability_across_modes():
    g = gnp(10, 0.4, seed=2)
    info_a = make_node_info(g, 3, seed=42)
    info_b = make_node_info(g, 3, seed=42)
    assert info_a.seed == info_b.seed == node_seed(42, 3)
    assert make_node_info(g, 3, seed=43).seed != info_a.seed


def test_simulation_single_edge_graph():
    g = path(2)
    factory = lambda info: BFSMachine(info, root=1)
    sim = simulate_bcongest(g, factory, seed=3)
    assert sim.outputs[1] == (0, None)
    assert sim.outputs[0] == (1, 1)


def test_simulation_star_graph():
    g = from_edges(5, [(0, i) for i in range(1, 5)])
    factory = lambda info: BFSMachine(info, root=2)
    direct = run_machines(g, factory, seed=5)
    sim = simulate_bcongest(g, factory, seed=5)
    assert sim.outputs == direct.outputs


def test_flatten_words_rejects_unknown_types():
    with pytest.raises(TypeError):
        output_words(object())
    with pytest.raises(TypeError):
        output_words({1: [2, object()]})


def test_machine_outputs_surface_for_non_halting_machines():
    # Depth-limited BFS: unreachable nodes never halt but their (empty)
    # outputs must still surface.
    g = path(6)
    execution = run_machines(
        g, lambda info: BFSMachine(info, root=0, max_depth=2))
    assert execution.outputs[5] is None
    assert execution.outputs[2] == (2, 1)


def test_run_machines_word_limit_enforced():
    from repro.congest.errors import MessageTooLarge

    class Fat(Machine):
        def on_round(self, rnd, inbox):
            self.halted = True
            return tuple(range(50))

    with pytest.raises(MessageTooLarge):
        run_machines(path(2), Fat, word_limit=8)


class RestlessMachine(Machine):
    """Lockstep, broadcasts every round and never halts: no driver
    reaches quiescence."""

    aggregate = staticmethod(aggregate_keyed_min)

    def on_round(self, rnd, inbox):
        return {0: (rnd, self.info.id)}


# driver name -> run RestlessMachine on `graph` under a cap of `cap` rounds.
CAPPED_DRIVERS = {
    "LocalRunner": lambda graph, cap: LocalRunner(
        graph, RestlessMachine).run(max_rounds=cap),
    "simulate_bcongest": lambda graph, cap: simulate_bcongest(
        graph, RestlessMachine, max_phases=cap),
    "simulate_aggregation": lambda graph, cap: simulate_aggregation(
        graph, build_pruned_hierarchy(graph, 0.5, seed=1), RestlessMachine,
        max_phases=cap),
    "simulate_aggregation_star": lambda graph, cap: simulate_aggregation_star(
        graph, build_pruned_hierarchy(graph, 0.5, seed=1), RestlessMachine,
        max_phases=cap),
}


@pytest.mark.parametrize("name", sorted(CAPPED_DRIVERS))
def test_driver_round_cap_raises_algorithm_error(name):
    with pytest.raises(AlgorithmError, match=rf"^{name} exceeded 4 rounds$"):
        CAPPED_DRIVERS[name](path(5), 4)


# The tier-1 cells of the two fixed-window machines, and the least
# factor by which their declared wake rounds must cut `on_round` calls
# relative to stepping every node every round.
WAKE_CELLS = [
    ("complete", "cover", 12), ("dense-gnp", "cover", 14),
    ("dumbbell", "cover", 14), ("expander-regular", "cover", 14),
    ("patched-islands", "cover", 16), ("power-law", "cover", 14),
    ("sparse-gnp", "cover", 18),
    ("augmenting-chain", "matching", 12),
    ("bipartite-balanced", "matching", 14),
    ("bipartite-skewed", "matching", 14),
    ("bipartite-sparse", "matching", 14),
]
WAKE_MACHINES = {"cover": (CoverCollectionMachine, 8),
                 "matching": (BipartiteMatchingMachine, 40)}


@pytest.mark.parametrize("scenario, algorithm, size", WAKE_CELLS)
def test_declared_wakes_cut_activations(monkeypatch, scenario, algorithm,
                                        size):
    cls, factor = WAKE_MACHINES[algorithm]
    machines, calls = {}, []
    on_round = cls.on_round

    def counted(self, rnd, inbox):
        machines[self.info.id] = self
        calls.append(self.info.id)
        return on_round(self, rnd, inbox)

    def run():
        """The cell's canonical record, its ``cls`` machines' final
        outputs and their ``on_round`` calls."""
        machines.clear()
        calls.clear()
        record = run_differential(scenario, algorithm, size=size)
        return (record.canonical_dict(),
                {v: m.output() for v, m in machines.items()}, len(calls))

    monkeypatch.setattr(cls, "on_round", counted)
    woken = run()
    monkeypatch.setattr(cls, "wake_round", Machine.wake_round)
    lockstep = run()
    assert lockstep[:2] == woken[:2]
    assert lockstep[2] >= factor * woken[2], (lockstep[2], woken[2])
