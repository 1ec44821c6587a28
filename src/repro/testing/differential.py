"""The differential-oracle harness: simulator vs. sequential reference.

For a scenario x algorithm binding this module builds the scenario
graph, runs the distributed implementation on the literal CONGEST
simulator, cross-checks the outputs against the independent sequential
oracles in :mod:`repro.baselines.reference`, and checks the measured
round/message costs against the binding's declared complexity envelope
(scaled by the scenario's slack).  Everything is seed-deterministic, so
a failing record reproduces exactly from its ``(scenario, algorithm,
size, seed)`` coordinates.

Consumers: ``tests/test_differential_oracles.py`` (one assertion per
matrix cell), the ``repro scenarios run/sweep`` CLI (JSON records), and
``benchmarks/bench_e14_scenarios.py`` (the matrix as a benchmark).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.congest.cell import cell_context
from repro.kernels import config as kernels_config
from repro.scenarios import Scenario, get_binding, get_scenario

# Fault-aware verdicts (recorded in ``fault_verdict`` for faulted cells):
# the fault-free sequential oracle stays the ground truth, and a faulted
# execution is judged against it with tolerance.
CORRECT_UNDER_FAULTS = "correct-under-faults"  # oracle-exact, in envelope
DEGRADED = "degraded"      # completed but wrong/slow vs the clean oracle
DIVERGED = "diverged"      # did not complete (livelock, model violation)


# Every ``*_source`` provenance field of a DifferentialRecord, mapped to
# the family it is counted under in sweep summaries, manifest
# ``store_counters`` and telemetry (``None``: never counted).  The
# fields vary between executions of the same cell at the same revision
# -- where the graph / baseline / input decomposition came from (built
# or computed / lru / store), which profile realized the fault plan,
# where the round profile went, which engine served -- so together with
# ``wall_time`` they are the NONDETERMINISTIC_FIELDS stripped from every
# canonical payload: canonical records stay byte-identical whatever the
# cache state, profiling or engine.
PROVENANCE_FIELDS: Dict[str, Optional[str]] = {
    "graph_source": "graphs",
    "oracle_source": "oracles",
    "decomposition_source": "decompositions",
    "fault_source": None,
    "profile_source": None,
    "engine_source": "engines",
}
NONDETERMINISTIC_FIELDS = ("wall_time",) + tuple(PROVENANCE_FIELDS)


@dataclass
class DifferentialRecord:
    """One scenario x algorithm execution with its verdicts."""

    scenario: str
    algorithm: str
    family: str
    size: int
    seed: int
    n: int
    m: int
    ok: bool                       # outputs equal the sequential oracle
    envelope_ok: bool              # measured cost within declared envelope
    checks: Dict[str, bool]
    metrics: Dict[str, int]
    envelope: Dict[str, float]     # evaluated bounds (with slack applied)
    detail: Dict[str, Any] = field(default_factory=dict)
    derived_seed: int = 0          # the construction seed fed to build()
    wall_time: float = 0.0         # seconds spent building + running the cell
    graph_source: str = "built"    # where the graph came from: built/lru/store
    oracle_source: str = "none"    # baseline origin: computed/lru/store/none
    decomposition_source: str = "none"  # input snapshot origin: same vocab
    fault_profile: str = ""        # named profile injected, "" = fault-free
    fault_seed: int = 0            # the --fault-seed the plan derived from
    fault_verdict: str = ""        # correct-under-faults/degraded/diverged
    fault_source: str = "none"     # plan provenance (nondeterministic field)
    profile_source: str = "none"   # round-profile destination under --profile
    engine_source: str = "none"    # kernel:* / vectorized:* engine served

    @property
    def passed(self) -> bool:
        if self.fault_profile:
            # Under injected faults only divergence fails the cell: a
            # degraded result is the characterization we came for.
            return self.fault_verdict != DIVERGED
        return self.ok and self.envelope_ok

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "scenario": self.scenario,
            "algorithm": self.algorithm,
            "family": self.family,
            "size": self.size,
            "seed": self.seed,
            "derived_seed": self.derived_seed,
            "n": self.n,
            "m": self.m,
            "ok": self.ok,
            "envelope_ok": self.envelope_ok,
            "passed": self.passed,
            "checks": self.checks,
            "metrics": self.metrics,
            "envelope": self.envelope,
            "detail": self.detail,
            "wall_time": self.wall_time,
            "graph_source": self.graph_source,
            "oracle_source": self.oracle_source,
            "decomposition_source": self.decomposition_source,
        }
        # Fault fields only appear on faulted records, so fault-free
        # rows stay byte-identical to the pre-fault-plane format.
        if self.fault_profile:
            out["fault_profile"] = self.fault_profile
            out["fault_seed"] = self.fault_seed
            out["fault_verdict"] = self.fault_verdict
            out["fault_source"] = self.fault_source
        # Likewise: profile provenance appears only on profiled records,
        # and is stripped from canonical payloads either way.
        if self.profile_source != "none":
            out["profile_source"] = self.profile_source
        # Engine provenance is omitted under the reference engine (same
        # pattern: a nondeterministic field, never in canonical payloads).
        if self.engine_source != "none":
            out["engine_source"] = self.engine_source
        return out

    def canonical_dict(self) -> Dict[str, Any]:
        """The deterministic payload: everything except the wall clock.

        Two executions of the same ``(scenario, algorithm, size, seed)``
        cell at the same code revision agree exactly on this dict -- the
        identity the run store's resume logic and the ``--compare``
        regression diff are built on.  The excluded fields are
        :data:`NONDETERMINISTIC_FIELDS` (``wall_time`` plus every
        ``*_source`` field of :data:`PROVENANCE_FIELDS`), shared with
        ``CellResult.canonical_record``.
        """
        payload = self.as_dict()
        for field_name in NONDETERMINISTIC_FIELDS:
            payload.pop(field_name, None)
        return payload

    def failure_message(self) -> str:
        """A reproducible description of what went wrong (or 'passed')."""
        if self.passed:
            return "passed"
        parts = [f"{self.scenario} x {self.algorithm} "
                 f"(size={self.size}, seed={self.seed}, n={self.n}, "
                 f"m={self.m})"]
        if self.fault_profile:
            parts.append(f"faults={self.fault_profile} "
                         f"(fault_seed={self.fault_seed}): "
                         f"{self.fault_verdict or 'no verdict'}")
        failed = [name for name, good in self.checks.items() if not good]
        if failed:
            parts.append(f"failed checks: {', '.join(failed)}")
        # A run that never completed has no meters; quoting a vacuous
        # "rounds 0 vs N" envelope line would bury the real error.
        completed = self.checks.get("execution_completed", True)
        if completed and not self.envelope_ok and self.envelope:
            parts.append(
                f"envelope violated: rounds {self.metrics.get('rounds', 0)} "
                f"vs {self.envelope['max_rounds']:.0f}, messages "
                f"{self.metrics.get('messages', 0)} vs "
                f"{self.envelope['max_messages']:.0f}")
        error = self.detail.get("error") if self.detail else None
        if error:
            parts.append(str(error))
        return "; ".join(parts)


def run_differential(scenario: Scenario | str, algorithm: str, *,
                     size: Optional[int] = None,
                     seed: int = 0,
                     faults: Optional[Any] = None,
                     fault_seed: int = 0,
                     profiler: Optional[Any] = None) -> DifferentialRecord:
    """Run one matrix cell: scenario graph -> simulator -> oracle.

    The scenario graph is served from the cache chain of
    :mod:`repro.runner.graph_cache` (in-process LRU -> on-disk snapshot
    store, when one is configured -> build-and-publish), keyed by the
    derived construction seed: consecutive cells over the same scenario
    x size (one per bound algorithm) reuse one built graph -- and its
    memoized simulator precomputation -- instead of rebuilding it per
    cell.  The binding's sequential baseline resolves through the
    mirror chain of :mod:`repro.runner.oracle_cache` (in-process LRU ->
    oracle store -> compute-and-publish), keyed by the oracle name and
    its source revision on top of the cell coordinates, so cells skip
    recomputing their ground truth the same way they skip rebuilding
    their graph.  Bindings that consume a decomposition snapshot
    (``binding.decomposition``) resolve it through the third chain,
    :mod:`repro.runner.decomposition_cache`, so the staged pipeline's
    downstream cells skip re-running MPX.  All three chains' answers
    are recorded on the record (``graph_source`` / ``oracle_source`` /
    ``decomposition_source`` -- nondeterministic fields: provenance,
    not payload).

    With ``faults`` (a profile name or :class:`FaultProfile`), the cell
    runs under a seeded fault plan and is judged against the *fault-free*
    oracle with the profile's envelope dilation: ``correct-under-faults``
    when still oracle-exact and in the dilated envelope, ``degraded``
    when it completed but is wrong or slow, ``diverged`` when the
    execution itself failed (livelock past the plan's round limit, or a
    model violation provoked by the faults).  The decomposition chain is
    bypassed -- any decomposition the binding needs is computed inline
    under the same faults, never published under fault-free cache keys.

    With ``profiler`` (a :class:`~repro.congest.profile.RoundProfiler`),
    every execution of the binding records into it.  The fault plan and
    the profiler live in one :func:`~repro.congest.cell.cell_context`
    opened around the binding's execution only: graph, oracle and
    decomposition resolve before it opens, so the ground truth stays
    fault-free and the timeline never depends on cache state.
    """
    from repro.runner.decomposition_cache import binding_decomposition_source
    from repro.runner.graph_cache import scenario_graph_source
    from repro.runner.oracle_cache import binding_oracle_source

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if algorithm not in scenario.algorithms:
        raise ValueError(
            f"scenario {scenario.name!r} does not bind {algorithm!r} "
            f"(bindings: {', '.join(scenario.algorithms)})")
    binding = get_binding(algorithm)
    size = scenario.default_size if size is None else size
    derived_seed = scenario.seed_for(size, seed)
    start = time.perf_counter()
    graph, graph_source = scenario_graph_source(scenario, size, seed=seed)
    oracle, oracle_source = binding_oracle_source(scenario, size, seed,
                                                  binding, graph)
    profile = plan = None
    slack = scenario.envelope_slack
    if faults is None:
        snapshot, decomposition_source = binding_decomposition_source(
            scenario, size, seed, binding, graph)
    else:
        from repro.congest.faults import FaultProfile, get_fault_profile

        profile = (faults if isinstance(faults, FaultProfile)
                   else get_fault_profile(faults))
        plan = profile.realize(graph, fault_seed)
        slack *= profile.dilation
        # Bypass the decomposition cache chain: the snapshot must be
        # computed under the same faults as the cell and must never be
        # published under fault-free keys.
        snapshot = None
        decomposition_source = ("none" if binding.decomposition is None
                                else "inline")
    run_kwargs = ({} if binding.decomposition is None
                  else {"decomposition": snapshot})
    result = None
    error: Optional[str] = None
    with cell_context(faults=plan, profiler=profiler):
        try:
            result = binding.run(graph, derived_seed, oracle=oracle,
                                 **run_kwargs)
        except Exception as exc:  # noqa: BLE001 - verdict, not crash
            if profile is None:
                raise
            error = f"{type(exc).__name__}: {exc}"
        engine_source = kernels_config.cell_engine_source(algorithm)
    wall_time = time.perf_counter() - start
    envelope = binding.envelope.evaluate(graph.n, graph.m, slack=slack)
    if result is None:
        ok = envelope_ok = False
        checks: Dict[str, bool] = {"execution_completed": False}
        metrics, detail = {"rounds": 0, "messages": 0}, {"error": error}
    else:
        ok, checks, metrics, detail = (result.ok, result.checks,
                                       result.metrics, result.detail)
        envelope_ok = (metrics["rounds"] <= envelope["max_rounds"]
                       and metrics["messages"] <= envelope["max_messages"])
    fault_fields: Dict[str, Any] = {}
    if profile is not None:
        verdict = DIVERGED
        if result is not None:
            checks = dict(checks, execution_completed=True)
            verdict = (CORRECT_UNDER_FAULTS if ok and envelope_ok
                       else DEGRADED)
        fault_fields = dict(fault_profile=profile.name,
                            fault_seed=fault_seed, fault_verdict=verdict,
                            fault_source=plan.describe())
    return DifferentialRecord(
        scenario=scenario.name, algorithm=algorithm, family=binding.family,
        size=size, seed=seed, n=graph.n, m=graph.m,
        ok=ok, envelope_ok=envelope_ok, checks=checks,
        metrics=metrics, envelope=envelope, detail=detail,
        derived_seed=derived_seed, wall_time=wall_time,
        graph_source=graph_source, oracle_source=oracle_source,
        decomposition_source=decomposition_source,
        engine_source=engine_source, **fault_fields)


def record_from_dict(payload: Dict[str, Any]) -> DifferentialRecord:
    """Rebuild a record from ``as_dict()`` output (e.g. a stored JSONL row)."""
    data = dict(payload)
    data.pop("passed", None)  # derived property, not a field
    return DifferentialRecord(**data)


def run_scenario(name: str, *, size: Optional[int] = None,
                 algorithm: Optional[str] = None,
                 seed: int = 0) -> List[DifferentialRecord]:
    """Run one scenario under all (or one) of its bound algorithms."""
    scenario = get_scenario(name)
    algorithms = scenario.algorithms if algorithm is None else (algorithm,)
    return [run_differential(scenario, alg, size=size, seed=seed)
            for alg in algorithms]


def sweep(names: Optional[Iterable[str]] = None, *,
          sizes: Optional[Iterable[int]] = None,
          seed: int = 0, workers: int = 1,
          timeout: Optional[float] = None) -> List[DifferentialRecord]:
    """The full matrix: scenarios x bound algorithms x sizes.

    ``sizes=None`` runs each scenario at its tier-1 ``default_size``
    only; an explicit size list is applied to every scenario (sizes are
    per-scenario workload sizes, not shared absolute node counts -- a
    grid rounds to the nearest rectangle, a chain to an even length).

    Routed through the :mod:`repro.runner` engine: ``workers=1`` (the
    default) executes in-process exactly as before; ``workers>1`` fans
    the cells out to a worker-process pool.  Both modes return identical
    record payloads (pinned by ``tests/test_runner.py``).  A cell that
    times out or errors raises here -- callers of this in-memory API
    expect a complete record list; use the engine directly for
    failure-tolerant sweeps.
    """
    from repro.runner.engine import run_sweep

    # Validate eagerly (and resolve names) so a typo raises the same
    # KeyError it always has, before any worker process is spawned.
    names = None if names is None else [get_scenario(n).name for n in names]
    sizes = None if sizes is None else list(sizes)
    outcome = run_sweep(names, sizes=sizes, seeds=(seed,),
                        workers=workers, timeout=timeout)
    broken = [r for r in outcome.results if r.record is None]
    if broken:
        first = broken[0]
        raise RuntimeError(
            f"{len(broken)} sweep cell(s) did not produce a record; "
            f"first: {first.spec.identity} "
            f"[{first.status}] {first.error}")
    return outcome.records


def summarize(records: Iterable[DifferentialRecord]) -> Dict[str, Any]:
    """Aggregate verdict counts for reports and CLI output."""
    records = list(records)
    failed = [r for r in records if not r.passed]
    return {
        "cells": len(records),
        "passed": len(records) - len(failed),
        "failed": len(failed),
        "failures": [r.failure_message() for r in failed],
    }
