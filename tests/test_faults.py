"""The seeded fault-injection plane (src/repro/congest/faults.py).

Coverage contract:

* **byte identity** -- a ``Network`` under the inert plan (or no plan)
  produces byte-identical outputs, metrics, records, and serialized
  key sets for every binding, on both the scalar and the vectorized
  delivery path: the fault plane costs nothing when off;
* **determinism** -- fault decisions are coordinate-seeded, so the
  scalar and fast paths inject identically and the same fault seed
  replays to identical records (including through ``run_sweep``);
* **the knobs** -- drop / duplicate / reorder / link failures / node
  crashes each do what they say, are metered, and are traceable;
* **verdicts** -- faulted differential cells grade as
  correct-under-faults / degraded / diverged with dilated envelopes,
  and carry their fault coordinates in the record;
* **error context** -- model violations and payload typing errors name
  the node, round, and edge involved (satellites of the fault PR).
"""

import dataclasses
import json

import pytest

from repro.congest import (
    FaultPlan,
    FaultProfile,
    cell_context,
    current_cell,
    fault_profile_names,
    get_fault_profile,
)
from repro.congest.errors import AlgorithmError, DuplicateSend, NotANeighbor
from repro.congest.faults import PROFILES
from repro.congest.machine import Machine, run_machines
from repro.congest.metrics import Metrics, undirected
from repro.congest.network import Algorithm, run_algorithm
from repro.graphs import gnp
from repro.primitives import BFSMachine
from repro.runner import RunStore, run_sweep
from repro.runner.graph_cache import scenario_graph_source
from repro.runner.oracle_cache import binding_oracle_source
from repro.scenarios import (
    BINDINGS,
    FAULT_AXIS,
    all_scenarios,
    fault_cells,
    get_binding,
    get_scenario,
)
from repro.testing import (
    CORRECT_UNDER_FAULTS,
    DEGRADED,
    DIVERGED,
    run_differential,
)

# One small compatible scenario per binding, for the byte-identity
# matrix (every binding must be pinned, per the acceptance criteria).
BINDING_SCENARIOS = [
    (binding, next(s.name for s in all_scenarios()
                   if binding in s.algorithms))
    for binding in sorted(BINDINGS)
]


def delivery(fast):
    """The batched broadcast delivery (``fast``) or the scalar reference."""
    return cell_context(engine="auto" if fast else "reference")


# ---------------------------------------------------------------------------
# Byte identity of the inert plan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("binding,scenario", BINDING_SCENARIOS,
                         ids=[b for b, _s in BINDING_SCENARIOS])
def test_null_plan_is_byte_identical_per_binding(binding, scenario):
    clean = run_differential(scenario, binding)
    # run_differential shields its execution from any outer plan, so
    # layer the inert plan around the binding's execution directly.
    spec = get_scenario(scenario)
    size = spec.default_size
    graph, _source = scenario_graph_source(spec, size, seed=0)
    bound = get_binding(binding)
    oracle, _source = binding_oracle_source(spec, size, 0, bound, graph)
    extra = {} if bound.decomposition is None else {"decomposition": None}

    def execute(**fields):
        with cell_context(**fields):
            result = bound.run(graph, spec.seed_for(size, 0),
                               oracle=oracle, **extra)
        return json.dumps(dataclasses.asdict(result), sort_keys=True,
                          default=repr), result

    plain, _result = execute()
    layered, result = execute(faults=FaultPlan.none())
    assert layered == plain
    assert (result.ok, result.checks, result.metrics) \
        == (clean.ok, clean.checks, clean.metrics)
    # ... and the serialized key set is the pre-fault-plane one: no
    # fault keys, no fault meter keys.
    as_dict = clean.as_dict()
    assert not {"fault_profile", "fault_seed", "fault_verdict",
                "fault_source"} & set(as_dict)
    assert not {"faults_dropped", "faults_duplicated",
                "nodes_crashed"} & set(result.metrics)


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "scalar"])
def test_null_plan_is_byte_identical_at_network_level(fast):
    graph = gnp(14, 0.3, seed=5)
    factory = lambda info: BFSMachine(info, root=0)  # noqa: E731
    with delivery(fast):
        plain = run_machines(graph, factory, seed=3)
        with cell_context(faults=FaultPlan.none()):
            inert = run_machines(graph, factory, seed=3)
    assert inert.outputs == plain.outputs
    assert inert.rounds == plain.rounds
    assert inert.metrics.as_dict() == plain.metrics.as_dict()


def test_fault_context_nesting_and_shielding():
    assert current_cell().faults is None
    plan = FaultPlan(drop=0.5, seed=1)
    with cell_context(faults=plan):
        assert current_cell().faults is plan
        # A nested fault-free context shields inner executions.
        with cell_context(faults=None):
            assert current_cell().faults is None
        assert current_cell().faults is plan
    assert current_cell().faults is None


# ---------------------------------------------------------------------------
# The knobs, unit-level
# ---------------------------------------------------------------------------

def test_drop_duplicate_and_link_failures_decide_and_meter():
    metrics = Metrics()
    always_drop = FaultPlan(drop=1.0, seed=1)
    assert always_drop.deliver_copies(3, 0, 1, metrics) == 0
    assert metrics.faults_dropped == 1

    always_dup = FaultPlan(duplicate=1.0, seed=1)
    assert always_dup.deliver_copies(3, 0, 1, metrics) == 2
    assert metrics.faults_duplicated == 1

    flaky = FaultPlan(link_failures={undirected(0, 1): 5}, seed=1)
    assert flaky.deliver_copies(4, 1, 0, metrics) == 1
    assert flaky.deliver_copies(5, 1, 0, metrics) == 0
    assert flaky.deliver_copies(9, 0, 1, metrics) == 0
    assert metrics.faults_dropped == 3

    clean = FaultPlan.none()
    assert clean.is_null and clean.describe() == "none"
    assert clean.deliver_copies(1, 0, 1, metrics) == 1


def test_node_crashes_register_once_and_purge_nothing_else():
    metrics = Metrics()
    plan = FaultPlan(node_crashes={2: 3, 5: 10}, seed=1)
    crashed = set()
    assert plan.begin_round(2, {}, crashed, metrics) == []
    assert plan.begin_round(3, {}, crashed, metrics) == [2]
    # Already crashed: not re-registered, not re-metered.
    assert plan.begin_round(4, {}, crashed, metrics) == []
    assert crashed == {2} and metrics.nodes_crashed == 1
    assert plan.begin_round(10, {}, crashed, metrics) == [5]
    assert metrics.nodes_crashed == 2


def test_reorder_shuffle_is_deterministic_per_coordinates():
    plan = FaultPlan(reorder=1.0, seed=9)
    box_a = [(i, "m") for i in range(8)]
    box_b = list(box_a)
    plan.begin_round(4, {1: box_a}, set(), Metrics())
    plan.begin_round(4, {1: box_b}, set(), Metrics())
    assert box_a == box_b  # same (seed, round, dst) -> same permutation
    assert box_a != [(i, "m") for i in range(8)]
    # A different round draws a different permutation (overwhelmingly).
    box_c = [(i, "m") for i in range(8)]
    plan.begin_round(5, {1: box_c}, set(), Metrics())
    assert box_c != box_a


# ---------------------------------------------------------------------------
# Scalar / fast-path injection identity
# ---------------------------------------------------------------------------

class ChatterMachine(Machine):
    """Broadcasts its round transcript; output = everything it heard,
    in order -- any injection or ordering difference is visible."""

    def on_round(self, rnd, inbox):
        if rnd == 1:
            self.heard = []
        self.heard.extend(inbox)
        if rnd > 5:
            self.halted = True
            self.set_output(tuple(self.heard))
            return None
        return (self.info.id, rnd)


@pytest.mark.parametrize("seed", range(3))
def test_fast_path_equals_scalar_under_faults(seed):
    graph = gnp(12, 0.4, seed=50 + seed)
    plan = FaultPlan(drop=0.3, duplicate=0.2, reorder=0.5,
                     link_failures={undirected(0, 1): 3},
                     node_crashes={2: 4}, seed=seed)
    runs = []
    for flag in (True, False):
        with delivery(flag), cell_context(faults=plan):
            runs.append(run_machines(graph, ChatterMachine, seed=seed))
    assert runs[0].outputs == runs[1].outputs
    assert runs[0].metrics.as_dict() == runs[1].metrics.as_dict()
    metrics = runs[0].metrics.as_dict()
    assert metrics["faults_dropped"] > 0
    assert metrics["nodes_crashed"] == 1


def test_crashed_node_stops_acting():
    graph = gnp(10, 0.5, seed=7)
    plan = FaultPlan(node_crashes={0: 2}, seed=1)
    with cell_context(faults=plan):
        execution = run_machines(graph, ChatterMachine, seed=1)
    # The crashed node never reaches its halting round: no output.
    assert execution.outputs.get(0) is None
    # Nothing it would have sent from round 2 on was heard by anyone.
    for node, heard in execution.outputs.items():
        if node == 0 or heard is None:
            continue
        assert all(not (payload == (0, rnd) and rnd >= 2)
                   for _src, payload in heard
                   for rnd in [payload[1]])


# ---------------------------------------------------------------------------
# Profiles and the scenario fault axis
# ---------------------------------------------------------------------------

def test_profile_realization_is_deterministic():
    graph = gnp(20, 0.3, seed=4)
    profile = get_fault_profile("flaky-links")
    plan_a = profile.realize(graph, seed=3)
    plan_b = profile.realize(graph, seed=3)
    assert plan_a == plan_b
    assert plan_a.profile == "flaky-links"
    assert plan_a.describe() == "profile:flaky-links"
    assert len(plan_a.link_failures) >= 1
    assert all(rnd >= 2 for rnd in plan_a.link_failures.values())
    # A different fault seed realizes a different schedule.
    assert profile.realize(graph, seed=4) != plan_a


def test_churn_profile_schedules_crashes():
    graph = gnp(20, 0.3, seed=4)
    plan = get_fault_profile("churn").realize(graph, seed=0)
    assert 1 <= len(plan.node_crashes) <= graph.n
    assert plan.round_limit == 200_000


def test_profile_registry_and_fault_axis_are_consistent():
    assert set(fault_profile_names()) == set(PROFILES)
    with pytest.raises(KeyError, match="unknown fault profile"):
        get_fault_profile("nope")
    scenario_names = {s.name for s in all_scenarios()}
    for profile, scenarios in FAULT_AXIS.items():
        assert profile in PROFILES
        assert set(scenarios) <= scenario_names
    cells = fault_cells()
    assert len(cells) == sum(len(v) for v in FAULT_AXIS.values())
    assert fault_cells(["lossy-light"]) == [
        ("lossy-light", s) for s in FAULT_AXIS["lossy-light"]]
    with pytest.raises(KeyError):
        fault_cells(["nope"])


# ---------------------------------------------------------------------------
# Fault-aware differential verdicts
# ---------------------------------------------------------------------------

def test_faulted_differential_grades_and_replays():
    record = run_differential("dense-gnp", "bfs-collection", size=16,
                              faults="lossy-light", fault_seed=1)
    assert record.fault_profile == "lossy-light"
    assert record.fault_seed == 1
    assert record.fault_source == "profile:lossy-light"
    assert record.fault_verdict in (CORRECT_UNDER_FAULTS, DEGRADED,
                                    DIVERGED)
    assert record.passed == (record.fault_verdict != DIVERGED)
    # Same coordinates -> byte-identical canonical record.
    replay = run_differential("dense-gnp", "bfs-collection", size=16,
                              faults="lossy-light", fault_seed=1)
    assert replay.canonical_dict() == record.canonical_dict()
    # The record round-trips through JSON with its fault keys.
    as_dict = json.loads(json.dumps(record.as_dict()))
    assert {"fault_profile", "fault_seed", "fault_verdict",
            "fault_source"} <= set(as_dict)


def test_faulted_differential_accepts_profile_objects():
    profile = FaultProfile(name="inline-heavy", description="test",
                           drop=0.9, dilation=2.0, round_limit=2_000)
    record = run_differential("random-tree", "bfs-collection", size=16,
                              faults=profile, fault_seed=0)
    # 90% loss on a tree cannot converge: a diverged record, not a
    # crash, and the failure message names the fault coordinates.
    assert record.fault_verdict == DIVERGED and not record.passed
    message = record.failure_message()
    assert "faults=inline-heavy" in message and "diverged" in message


# ---------------------------------------------------------------------------
# Sweep integration: manifests, counters, replay
# ---------------------------------------------------------------------------

def test_sweep_with_faults_counts_and_replays(tmp_path):
    kwargs = dict(sizes=[16], seeds=[0], faults=["dup-storm"],
                  fault_seed=2)
    first = run_sweep(["cycle"], store=RunStore(tmp_path / "a"), **kwargs)
    # Every cell ran under the profile and carries its coordinates.
    faulted = [r for r in first.results
               if (r.record or {}).get("fault_profile")]
    assert faulted and len(faulted) == len(first.results)
    assert all((r.record or {}).get("fault_seed") == 2 for r in faulted)
    manifest = first.run.manifest
    assert manifest["params"]["faults"] == ["dup-storm"]
    assert manifest["params"]["fault_seed"] == 2
    counters = manifest["fault_counters"]
    assert sum(counters["verdicts"].values()) == len(faulted)
    summary = first.summary()
    assert summary["fault_counters"]["verdicts"] == counters["verdicts"]

    second = run_sweep(["cycle"], store=RunStore(tmp_path / "b"), **kwargs)
    canonical = lambda o: json.dumps(  # noqa: E731
        [r.canonical_record() for r in o.results], sort_keys=True)
    assert canonical(first) == canonical(second)


def test_sweep_rejects_unknown_fault_profile(tmp_path):
    with pytest.raises(KeyError, match="unknown fault profile"):
        run_sweep(["cycle"], sizes=[16], faults=["nope"],
                  store=RunStore(tmp_path / "runs"))


# ---------------------------------------------------------------------------
# Error context (satellites: model violations name their coordinates)
# ---------------------------------------------------------------------------

class RogueSender(Algorithm):
    def on_round(self, api, rnd, inbox):
        stranger = next(v for v in range(self.info.n)
                        if v != self.info.id
                        and v not in self.info.neighbors)
        api.send(stranger, "hi")


class DoubleSender(Algorithm):
    def on_round(self, api, rnd, inbox):
        if self.info.neighbors:
            api.send(self.info.neighbors[0], "one")
            api.send(self.info.neighbors[0], "two")
        api.halt("done")


class UnsizablePayload(Machine):
    def on_round(self, rnd, inbox):
        return object()  # payload_words cannot size this


def test_not_a_neighbor_names_node_round_and_edge():
    graph = gnp(8, 0.3, seed=2)
    with pytest.raises(NotANeighbor, match=r"node \d+: \d+ -> \d+ is not "
                                           r"an edge \(round 1\)"):
        run_algorithm(graph, RogueSender)


def test_duplicate_send_names_the_edge_and_round():
    graph = gnp(8, 0.5, seed=2)
    with pytest.raises(DuplicateSend,
                       match=r"sent twice to \d+ in round 1 "
                             r"\(edge \d+ -> \d+\)"):
        run_algorithm(graph, DoubleSender)


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "scalar"])
def test_unsizable_payload_is_an_algorithm_error_with_context(fast):
    graph = gnp(6, 0.5, seed=2)
    with delivery(fast), \
            pytest.raises(AlgorithmError, match=r"node \d+, round 1:"):
        run_machines(graph, UnsizablePayload)
