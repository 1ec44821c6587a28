"""The sweep engine: plan -> (resume) -> execute -> persist -> records.

One call to :func:`run_sweep` is one sweep over the scenario x algorithm
matrix.  The engine builds the deterministic work-list, consults the run
store for an incomplete run with the same parameters at the same git
revision (resuming it and skipping every already-recorded cell), fans
the remaining cells out through :func:`repro.runner.executor.run_cells`,
appends each result to the store the moment it completes, and returns
the merged record set in canonical cell order.

Storeless sweeps (``store=None``) run the same execution path entirely
in memory -- that is what :func:`repro.testing.sweep` and the
``repro scenarios sweep`` CLI use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.runner import config
from repro.runner.chain import all_chains
from repro.runner.executor import OnResult, run_cells
from repro.runner.jobs import CellResult, JobSpec, build_specs
from repro.runner.store import Run, RunStore, git_revision
from repro.testing.differential import PROVENANCE_FIELDS


@dataclass
class SweepOutcome:
    """What one engine invocation did and produced."""

    results: List[CellResult]
    executed: int                  # cells actually run this invocation
    skipped: int                   # cells restored from the store
    run: Optional[Run] = None      # the persisted run, if a store was used
    resumed: bool = False          # True when an incomplete run was continued
    restored_keys: Set[str] = field(default_factory=set)  # resume-skipped

    @property
    def run_id(self) -> Optional[str]:
        return self.run.run_id if self.run is not None else None

    @property
    def records(self):
        """The done cells as DifferentialRecords, in canonical order."""
        from repro.testing.differential import record_from_dict
        return [record_from_dict(result.record) for result in self.results
                if result.record is not None]

    @property
    def ok(self) -> bool:
        return all(result.passed for result in self.results)

    def summary(self) -> Dict[str, Any]:
        by_status: Dict[str, int] = {}
        for result in self.results:
            by_status[result.status] = by_status.get(result.status, 0) + 1
        # Graph/oracle/decomposition provenance is only meaningful for
        # cells executed *this* invocation: restored records carry the
        # source (and cache configuration) of the run that produced
        # them.
        counts = provenance_counts(self.results, skip=self.restored_keys)
        out = {
            "run_id": self.run_id,
            "cells": len(self.results),
            "executed": self.executed,
            "skipped": self.skipped,
            "resumed": self.resumed,
            "passed": sum(1 for r in self.results if r.passed),
            "failed": sum(1 for r in self.results if not r.passed),
            "statuses": by_status,
            # graph_sources, oracle_sources, ... (one per counted field)
            **{f"{field}s": counts[family]
               for field, family in PROVENANCE_FIELDS.items()
               if family is not None},
            # Wall time spent executing cells *this* invocation;
            # restored cells' recorded time (from the runs that actually
            # paid it) only counts toward the cumulative figure.
            "wall_time": sum(r.wall_time for r in self.results
                             if r.key not in self.restored_keys),
            "wall_time_total": sum(r.wall_time for r in self.results),
        }
        # Fault-injection rollups, only when the sweep had any: keeps
        # clean-sweep summaries (and everything rendered from them)
        # unchanged.
        fault = fault_counts(self.results)
        if fault:
            out["fault_counters"] = fault
        poisoned = sum(1 for r in self.results if r.poisoned)
        if poisoned:
            out["poisoned"] = poisoned
        return out


def provenance_counts(results: Sequence[CellResult], *,
                      skip: Optional[Set[str]] = None) -> Dict[str, Any]:
    """Per-family provenance counts over a set of cell results.

    The *single* source of the counting rule, shared by
    :meth:`SweepOutcome.summary` and the manifest ``store_counters``
    stamp (the two copies drifted once -- the PR 6 ``"none"``-row bug):
    cells without a record (timeouts, errors) or whose key is in
    ``skip`` (resume-restored cells, whose provenance belongs to the
    invocation that executed them) are not counted, and ``"none"`` rows
    -- cells with no baseline / no input decomposition / run in the
    reference engine mode -- are dropped (graphs have no ``"none"``
    state, every cell has a graph).  The families are the non-``None``
    values of :data:`repro.testing.differential.PROVENANCE_FIELDS`.
    """
    skip = frozenset() if skip is None else skip
    counted = {name: family for name, family in PROVENANCE_FIELDS.items()
               if family is not None}
    counts: Dict[str, Dict[str, int]] = {
        family: {} for family in counted.values()}
    for result in results:
        if result.record is None or result.key in skip:
            continue
        for name, family in counted.items():
            source = result.record.get(name, "none")
            if source != "none":
                counts[family][source] = counts[family].get(source, 0) + 1
    return counts


def fault_counts(results: Sequence[CellResult]) -> Dict[str, Any]:
    """Fault-injection rollup over a set of cell results.

    Two families, shaped like the ``store_counters`` payload so the
    manifest stamp reuses :func:`_merge_counts` across resumed
    invocations: ``meters`` sums the injected-event counters out of the
    cell metrics, ``verdicts`` counts cells per fault verdict.  Empty
    (falsy) when no cell ran under a fault plan.
    """
    meters: Dict[str, int] = {}
    verdicts: Dict[str, int] = {}
    for result in results:
        record = result.record
        if record is None or not record.get("fault_profile"):
            continue
        verdict = record.get("fault_verdict") or "unknown"
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        metrics = record.get("metrics") or {}
        for name in ("faults_dropped", "faults_duplicated", "nodes_crashed"):
            if metrics.get(name):
                meters[name] = meters.get(name, 0) + metrics[name]
    out: Dict[str, Any] = {}
    if verdicts:
        out["verdicts"] = verdicts
    if meters:
        out["meters"] = meters
    return out


def _merge_counts(base: Optional[Dict[str, Any]],
                  update: Dict[str, Any]) -> Dict[str, Any]:
    """Union of two :func:`provenance_counts` payloads (per-family key sums).

    A resumed run's manifest already carries the counters of the prior
    invocation(s); stamping only the current invocation's counts would
    overwrite them (the resume-accounting bug), so the engine merges
    instead: the stamped counters always cover every executed cell of
    every invocation.
    """
    merged: Dict[str, Any] = {}
    for payload in (base or {}, update):
        for family, counts in payload.items():
            rows = merged.setdefault(family, {})
            for source, count in counts.items():
                rows[source] = rows.get(source, 0) + count
    return merged


def sweep_params(names: Optional[Sequence[str]],
                 sizes: Optional[Sequence[int]],
                 seeds: Sequence[int],
                 faults: Optional[Sequence[str]] = None,
                 fault_seed: int = 0) -> Dict[str, Any]:
    """The manifest/resume identity of a sweep's parameters.

    Fault keys join the identity only for faulted sweeps, so every
    fault-free params payload (and params_key) is byte-stable across
    the introduction of the fault plane.
    """
    params: Dict[str, Any] = {
        "names": None if names is None else list(names),
        "sizes": None if sizes is None else list(sizes),
        "seeds": list(seeds)}
    if faults is not None:
        params["faults"] = list(faults)
        params["fault_seed"] = fault_seed
    return params


def run_sweep(names: Optional[Sequence[str]] = None, *,
              sizes: Optional[Sequence[int]] = None,
              seeds: Sequence[int] = (0,),
              faults: Optional[Sequence[str]] = None,
              fault_seed: int = 0,
              workers: int = 1,
              timeout: Optional[float] = None,
              retries: int = 0,
              store: Optional[RunStore] = None,
              fresh: bool = False,
              revision: Optional[str] = None,
              on_result: Optional[OnResult] = None,
              specs: Optional[Sequence[JobSpec]] = None,
              graph_store_dir: Optional[str] = None,
              oracle_store_dir: Optional[str] = None,
              decomposition_store_dir: Optional[str] = None,
              bench_history_dir: Optional[str] = None) -> SweepOutcome:
    """Run (or resume) one sweep; see the module docstring.

    ``fresh=True`` always starts a new run directory even when an
    incomplete same-params run exists.  ``specs`` overrides the planned
    work-list (the tests use it to inject fault-instrumented specs);
    names/sizes/seeds still name the sweep in the manifest.
    ``retries`` is the per-cell retry budget: timed-out/crashed cells
    are re-queued up to that many extra times before being recorded as
    failures (the cell record carries ``attempts``).  A cell that
    repeatedly kills its worker process is recorded as a *poisoned*
    error result after the budget and skipped by resumed runs (see
    :func:`repro.runner.executor.run_cells`).

    ``faults`` selects named fault profiles
    (:mod:`repro.congest.faults`): every matrix cell runs once per
    profile under a seeded fault plan derived from ``fault_seed``, and
    the manifest gains merged ``fault_counters`` (injected-event meters
    + verdict counts).  Same profiles + same ``fault_seed`` replay to
    byte-identical records.  Unknown profile names raise ``KeyError``
    before any worker is spawned.

    Every other sweep setting (LRU sizes, round profiling, cProfile)
    comes from the process-wide :class:`~repro.runner.config.SweepConfig`
    (set it with :func:`repro.runner.config.update`; pool workers receive
    it at start-up).  ``graph_store_dir`` / ``oracle_store_dir`` /
    ``decomposition_store_dir`` are kept for ``perfbench/run.py``: each
    non-None one updates that family's store root in the config, None
    leaves it as it is.  ``bench_history_dir`` is accepted and ignored,
    for the same caller.  The effective settings are recorded in the run
    manifest, and the run's store hit/miss counters (graphs, oracles,
    and decompositions, from the executed cells) are stamped onto it --
    merged across invocations, so a resumed run's counters cover every
    invocation's executed cells, and stamped even when the invocation
    is interrupted mid-sweep.

    A persisted run writes its cell-lifecycle timeline to
    ``telemetry.jsonl`` beside the records (:mod:`repro.telemetry`);
    events flush as they happen, so an interrupted sweep keeps its
    partial timeline and a resumed run extends it.  Telemetry never
    touches ``records.jsonl``.

    With ``profile_store`` set, every executed cell records its
    per-round metric timeline and publishes it to the profiles artifact
    family under that store root (``repro sweep --profile``), keyed by
    the full cell coordinates plus the run's revision; the cell's
    record gains only the ``profile_source`` provenance label (a
    NONDETERMINISTIC_FIELD), so canonical records are byte-identical
    profile on/off.  ``cprofile`` additionally wraps each cell body in
    ``cProfile`` and attaches the top hot functions to the result
    (``CellResult.hot``), aggregated by ``repro runs report``.

    Eligible cells run their whole metered execution on the array
    kernels (:mod:`repro.kernels`); each record's ``engine_source``
    provenance label (a NONDETERMINISTIC_FIELD) names the engine that
    served it.
    """
    overrides = {"graph_store": graph_store_dir,
                 "oracle_store": oracle_store_dir,
                 "decomposition_store": decomposition_store_dir}
    config.update(**{name: value for name, value in overrides.items()
                     if value is not None})

    if faults is not None:
        from repro.congest.faults import get_fault_profile

        faults = list(faults)
        for name in faults:  # validate before any worker is spawned
            get_fault_profile(name)

    specs = (build_specs(names, sizes=sizes, seeds=seeds,
                         faults=faults, fault_seed=fault_seed)
             if specs is None else list(specs))

    run: Optional[Run] = None
    resumed = False
    cached: Dict[str, CellResult] = {}
    if store is not None:
        params = sweep_params(names, sizes, seeds, faults, fault_seed)
        revision = git_revision() if revision is None else revision
        if not fresh:
            run = store.find_resumable(params, revision)
            resumed = run is not None
        if run is None:
            settings = config.current()
            extra = {name: getattr(settings, name)
                     for chain in all_chains().values()
                     for name in (chain.size_field, chain.store_field)}
            # Profiling knobs appear in the manifest only when on, so
            # plain manifests keep their exact key set.
            if settings.profile_store is not None:
                extra["profile_store"] = settings.profile_store
            if settings.cprofile:
                extra["cprofile"] = True
            run = store.create_run(specs, params, revision=revision,
                                   extra=extra)
        else:
            planned = set(spec.key for spec in specs)
            cached = {result.key: result for result in run.load_results()
                      if result.key in planned}

    todo = [spec for spec in specs if spec.key not in cached]
    # The run's revision stamps captured profiles (workers receive it
    # with the rest of the config instead of asking git themselves).
    config.update(revision=revision)

    # The telemetry timeline rides beside the records of persisted
    # runs: strictly additive (its own file, flushed per event), so an
    # interrupted sweep keeps its partial timeline and the canonical
    # records are the same as a storeless sweep's.
    log = None
    if run is not None:
        from repro.telemetry import RunTelemetry, telemetry_path

        log = RunTelemetry(telemetry_path(run.path))
        log.sweep_begin(run_id=run.run_id, revision=run.revision,
                        resumed=resumed, planned=len(specs),
                        restored=len(cached), todo=len(todo),
                        workers=workers, timeout=timeout, retries=retries,
                        faults=faults, fault_seed=(fault_seed
                                                   if faults else None))
        for spec in todo:
            log.cell_scheduled(spec)

    # Completed results also accumulate through the persist callback
    # (not just run_cells' return value) so the counter stamp below
    # covers whatever actually ran even when the invocation is
    # interrupted mid-sweep.
    completed: List[CellResult] = []

    def persist(result: CellResult) -> None:
        completed.append(result)
        if run is not None:
            run.append(result)
        if log is not None:
            log.cell_completed(result)
        if on_result is not None:
            on_result(result)

    interrupted = True
    try:
        executed = run_cells(todo, workers=workers, timeout=timeout,
                             retries=retries, on_result=persist,
                             on_start=None if log is None
                             else log.cell_started,
                             on_pool_crash=None if log is None
                             else log.pool_crashed)
        interrupted = False
    finally:
        if run is not None:
            # Cache-efficacy provenance: how many graphs / baselines /
            # decompositions were served from the LRU, the disk store,
            # or computed fresh -- merged with any prior invocations'
            # counters so a resumed run's manifest reflects the union
            # of all executed cells.
            stamp = {"store_counters": _merge_counts(
                run.manifest.get("store_counters"),
                provenance_counts(completed))}
            # Fault counters: merged the same way, stamped only when
            # this run has any (this or a prior invocation), so clean
            # runs' manifests keep their pre-fault-plane key set.
            fault_update = fault_counts(completed)
            if fault_update or run.manifest.get("fault_counters"):
                stamp["fault_counters"] = _merge_counts(
                    run.manifest.get("fault_counters"), fault_update)
            run.update_manifest(stamp)
        if log is not None:
            log.sweep_end(executed=len(completed), restored=len(cached),
                          interrupted=interrupted)
            log.close()

    merged = dict(cached)
    for result in executed:
        merged[result.key] = result
    ordered = [merged[spec.key] for spec in specs if spec.key in merged]
    return SweepOutcome(results=ordered, executed=len(executed),
                        skipped=len(cached), run=run, resumed=resumed,
                        restored_keys=set(cached))
