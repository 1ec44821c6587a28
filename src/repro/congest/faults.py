"""Seeded, deterministic fault injection for the CONGEST simulator.

The paper's model is a clean synchronous network; the ROADMAP's "messy
regimes" item asks what the algorithms *measurably* do when the network
is not clean: per-edge message loss, duplication and reordering, links
that die mid-execution, and nodes that crash.  This module is the fault
half of that item (latency/asynchrony stays a separate plane).

Design constraints, in order:

* **Fault-free executions must not change by a byte.**  A ``Network``
  without a plan -- or with the inert :meth:`FaultPlan.none` -- draws no
  fault randomness, touches no inbox, and emits no fault meter keys, so
  every existing record and telemetry line is byte-identical to the
  pre-fault-plane code (pinned by ``tests/test_faults.py``).
* **Decisions are coordinate-seeded, not stream-seeded.**  Every
  per-delivery decision derives its own uniform from
  ``stable_seed("faults", plan.seed, round, src, dst, kind)`` -- a pure
  function of the event's coordinates.  Injection therefore does not
  depend on iteration order, which is what makes the scalar and the
  vectorized broadcast path inject *identically*, and what makes the
  same fault seed replay to byte-identical records across processes.
* **Every injected event is metered.**  Drops, duplicates and crashes
  land in :class:`~repro.congest.metrics.Metrics` (``faults_dropped`` /
  ``faults_duplicated`` / ``nodes_crashed``) and, under a
  :class:`~repro.congest.profile.RoundProfiler`, in the round they
  happened.

A :class:`FaultPlan` is graph-specific (its link/crash schedules name
real edges and nodes); the named :class:`FaultProfile` entries in
:data:`PROFILES` are the graph-agnostic templates the scenario axis and
the ``repro sweep --faults <profile>`` knob select, realized per graph
by :meth:`FaultProfile.realize`.

Plans are usually *ambient*: the cell's
:class:`~repro.congest.cell.CellContext` carries one for the duration of
the cell's execution and every ``Network`` constructed inside (the
algorithm under test, its helper phases, an inline decomposition build)
picks it up -- fault injection reaches executions whose call chain
never heard of faults, without threading a parameter through every
algorithm signature.  The graph, oracle and decomposition resolves run
outside that context, so the ground truth stays fault-free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.congest.metrics import Edge, Metrics, undirected as edge_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.graph import Graph

# Livelock guard for faulted executions: an algorithm spinning on a
# message that was dropped (or a peer that crashed) must terminate as a
# *diverged* record, not hang a sweep worker until its 5M-round default.
DEFAULT_ROUND_LIMIT = 200_000


def _stable_seed(*parts) -> int:
    # Local import would be circular at module load (network imports
    # metrics; we import network lazily).  The derivation must match
    # repro.congest.network.stable_seed exactly, so delegate at call
    # time instead of duplicating the CRC recipe.
    from repro.congest.network import stable_seed

    return stable_seed(*parts)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule for one graph.

    ``drop`` / ``duplicate`` are per-delivery probabilities;
    ``reorder`` is a per-inbox-per-round shuffle probability.
    ``link_failures`` maps a canonical undirected edge key to the first
    round in which the link is dead (messages sent on it from that
    round on are dropped -- and metered).  ``node_crashes`` maps a node
    to the first round in which it has crashed: it stops acting, its
    pending wake-ups are discarded, and it never sends again (messages
    already in flight *to* it still arrive; it just never reads them).

    ``seed`` names the dedicated ``stable_seed("faults", ...)`` RNG
    stream all probabilistic decisions derive from; ``round_limit``
    clamps ``max_rounds`` so faulted livelocks terminate; ``profile``
    is the provenance label (which named profile realized this plan).
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    link_failures: Dict[Edge, int] = field(default_factory=dict)
    node_crashes: Dict[int, int] = field(default_factory=dict)
    seed: int = 0
    round_limit: Optional[int] = None
    profile: str = ""

    @classmethod
    def none(cls) -> "FaultPlan":
        """The inert plan: layering it in changes nothing, by a byte."""
        return cls()

    @property
    def is_null(self) -> bool:
        """True when this plan can never inject anything."""
        return (self.drop == 0.0 and self.duplicate == 0.0
                and self.reorder == 0.0 and not self.link_failures
                and not self.node_crashes)

    def describe(self) -> str:
        """The ``fault_source`` provenance string for records."""
        if self.is_null:
            return "none"
        label = self.profile or "plan"
        return f"profile:{label}"

    # ------------------------------------------------------------------
    # Decision streams: pure functions of the event coordinates, so the
    # scalar and batched delivery paths (and any iteration order) make
    # identical choices.
    # ------------------------------------------------------------------
    def _uniform(self, *parts) -> float:
        return random.Random(
            _stable_seed("faults", self.seed, *parts)).random()

    def deliver_copies(self, rnd: int, src: int, dst: int,
                       metrics: Metrics) -> int:
        """How many copies of this send arrive (0 = dropped, 2 = duped).

        The send itself has already been metered by the network -- the
        sender paid its message; faults act on *delivery* only.
        """
        failed_at = self.link_failures.get(edge_key(src, dst))
        if failed_at is not None and rnd >= failed_at:
            metrics.record_fault_drop()
            return 0
        if self.drop and self._uniform(rnd, src, dst, "drop") < self.drop:
            metrics.record_fault_drop()
            return 0
        if (self.duplicate
                and self._uniform(rnd, src, dst, "dup") < self.duplicate):
            metrics.record_fault_duplicate()
            return 2
        return 1

    def begin_round(self, rnd: int, inboxes: Dict[int, list],
                    crashed: set, metrics: Metrics) -> List[int]:
        """Apply round-boundary faults; return the newly crashed nodes.

        Called by the network right after it advances to ``rnd`` with
        the inboxes about to be consumed: registers node crashes whose
        schedule has come due (metered once per node) and shuffles
        inboxes selected by the reorder probability.  The shuffle
        permutation comes from the same coordinate-seeded stream, so
        replays and both delivery paths agree on it.
        """
        newly: List[int] = []
        for v, crash_round in self.node_crashes.items():
            if crash_round <= rnd and v not in crashed:
                crashed.add(v)
                newly.append(v)
                metrics.record_node_crash()
        if self.reorder:
            for dst, box in inboxes.items():
                if len(box) < 2:
                    continue
                rng = random.Random(
                    _stable_seed("faults", self.seed, rnd, dst, "reorder"))
                if rng.random() < self.reorder:
                    rng.shuffle(box)
        return newly


@dataclass(frozen=True)
class FaultProfile:
    """A graph-agnostic fault template, realized per graph + seed.

    ``link_fail_fraction`` / ``crash_fraction`` are the shares of edges
    / nodes scheduled to fail mid-execution (at least one each when the
    fraction is positive).  ``dilation`` is the envelope tolerance for
    fault-aware verdicts: a faulted execution may legitimately take
    longer than the clean envelope, so the differential harness
    evaluates the binding's envelope with its slack multiplied by this
    factor before calling a cell degraded.
    """

    name: str
    description: str
    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    link_fail_fraction: float = 0.0
    crash_fraction: float = 0.0
    dilation: float = 4.0
    round_limit: int = DEFAULT_ROUND_LIMIT

    def realize(self, graph: "Graph", seed: int = 0) -> FaultPlan:
        """The concrete :class:`FaultPlan` for one graph and fault seed.

        Deterministic in ``(profile, seed, graph)``: schedules are
        sampled from a ``stable_seed("faults", ...)``-seeded RNG over
        the *sorted* edge/node lists, so the same cell coordinates
        realize the same plan in every process -- the property the
        byte-identical replay guarantee rests on.
        """
        rng = random.Random(_stable_seed(
            "faults", "realize", self.name, seed, graph.n, graph.m))
        # Fail/crash rounds land early enough to hit tier-1 executions
        # but not all in round 1 (round 1 has no deliveries to fault).
        horizon = max(8, 4 * graph.n)
        link_failures: Dict[Edge, int] = {}
        if self.link_fail_fraction > 0.0 and graph.m:
            edges = sorted(edge_key(u, v) for u, v in graph.edges())
            count = min(len(edges),
                        max(1, round(self.link_fail_fraction * len(edges))))
            for u, v in sorted(rng.sample(edges, count)):
                link_failures[(u, v)] = rng.randint(2, horizon)
        node_crashes: Dict[int, int] = {}
        if self.crash_fraction > 0.0 and graph.n:
            count = min(graph.n,
                        max(1, round(self.crash_fraction * graph.n)))
            for v in sorted(rng.sample(sorted(graph.nodes()), count)):
                node_crashes[v] = rng.randint(2, horizon)
        return FaultPlan(
            drop=self.drop, duplicate=self.duplicate, reorder=self.reorder,
            link_failures=link_failures, node_crashes=node_crashes,
            seed=_stable_seed("faults", self.name, seed),
            round_limit=self.round_limit, profile=self.name)


# The named fault profiles -- the first-class axis the scenario catalog
# (repro.scenarios.catalog.FAULT_AXIS) and `repro sweep --faults` draw
# from.  Rates are tuned for tier-1 sizes: light profiles should leave
# most cells correct-under-faults, heavy ones should visibly degrade.
PROFILES: Dict[str, FaultProfile] = {
    profile.name: profile for profile in (
        FaultProfile(
            name="lossy-light", drop=0.02, dilation=4.0,
            description="2% iid message loss: the benign-lossy regime"),
        FaultProfile(
            name="lossy-heavy", drop=0.15, reorder=0.25, dilation=8.0,
            description="15% loss + frequent reordering: a bad network"),
        FaultProfile(
            name="dup-storm", duplicate=0.15, dilation=4.0,
            description="15% duplicated deliveries: at-least-once links"),
        FaultProfile(
            name="reorder-heavy", reorder=0.75, dilation=4.0,
            description="per-round inbox shuffles: no arrival-order FIFO"),
        FaultProfile(
            name="flaky-links", link_fail_fraction=0.08, dilation=6.0,
            description="8% of links die mid-execution, permanently"),
        FaultProfile(
            name="churn", crash_fraction=0.15, dilation=6.0,
            description="15% of nodes crash mid-execution"),
        FaultProfile(
            name="chaos", drop=0.05, duplicate=0.05, reorder=0.25,
            link_fail_fraction=0.05, crash_fraction=0.1, dilation=8.0,
            description="everything at once: loss + dup + reorder + "
                        "link failures + churn"),
    )
}


def fault_profile_names() -> Tuple[str, ...]:
    """Every registered profile name, sorted."""
    return tuple(sorted(PROFILES))


def get_fault_profile(name: str) -> FaultProfile:
    """Look up a named profile; KeyError lists the known names."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown fault profile {name!r}; known: "
            f"{', '.join(fault_profile_names())}") from None
