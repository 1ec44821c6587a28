"""The parallel sweep engine + run store (src/repro/runner/, ISSUE 2).

Coverage contract:

* store round trip -- write -> load -> compare equals identity;
* resume -- a re-invoked sweep skips every already-recorded cell, and a
  sweep interrupted after any number of cells continues from its
  well-formed prefix to the uninterrupted run's bytes;
* determinism -- workers=1 and workers=4 produce byte-identical
  canonical record sets on a fixed seed;
* timeouts -- a pathological cell is killed where it runs (both the
  in-process and the worker-pool paths) without sinking the sweep;
* regression comparison -- verdict flips and metered drift are flagged,
  identical runs compare clean;
* the tier-1 smoke sweep -- a real ``--workers 2`` pool over three
  scenarios, so the engine is exercised on every PR.
"""

import json

import pytest

from repro.runner import (
    CellResult,
    JobSpec,
    RunStore,
    build_specs,
    cell_key,
    compare_runs,
    run_sweep,
)
from repro.runner.jobs import DONE, TIMEOUT
from repro.testing import record_from_dict, run_differential

NAMES = ["cycle", "path", "random-tree"]


def _canonical_bytes(results):
    """The deterministic serialization of a record set (wall clock out)."""
    return json.dumps([r.canonical_record() for r in results],
                      sort_keys=True).encode()


# ---------------------------------------------------------------------------
# Specs and keys
# ---------------------------------------------------------------------------

def test_cell_key_is_content_addressed():
    assert (cell_key("path", "apsp-unweighted", 16, 0)
            == JobSpec("path", "apsp-unweighted", 16, 0).key)
    # delay is fault-injection instrumentation, not identity
    assert (JobSpec("path", "apsp-unweighted", 16, 0, delay=1.0).key
            == JobSpec("path", "apsp-unweighted", 16, 0).key)
    assert (cell_key("path", "apsp-unweighted", 16, 0)
            != cell_key("path", "apsp-unweighted", 16, 1))


def test_build_specs_matches_registry_order():
    specs = build_specs(NAMES)
    assert [s.scenario for s in specs] == [
        "cycle", "path", "path", "random-tree", "random-tree"]
    assert all(s.size == 16 for s in specs if s.scenario != "random-tree")


def test_cell_result_dict_round_trip():
    record = run_differential("path", "apsp-unweighted", size=8)
    result = CellResult(spec=JobSpec("path", "apsp-unweighted", 8, 0),
                        status=DONE, wall_time=record.wall_time,
                        record=record.as_dict())
    clone = CellResult.from_dict(json.loads(json.dumps(result.as_dict())))
    assert clone.spec == result.spec
    assert clone.record == result.record
    assert clone.passed
    assert record_from_dict(clone.record) == record


# ---------------------------------------------------------------------------
# Store round trip and resume
# ---------------------------------------------------------------------------

def test_store_round_trip_equals_identity(tmp_path):
    store = RunStore(tmp_path / "runs")
    outcome = run_sweep(NAMES, store=store)
    assert outcome.ok and outcome.executed == 5 and outcome.skipped == 0

    reloaded = store.open_run(outcome.run_id)
    assert reloaded.is_complete()
    assert reloaded.manifest["schema_version"] == 1
    assert {"revision", "python_version", "params",
            "planned_cells"} <= set(reloaded.manifest)
    loaded = reloaded.load_results()
    assert _canonical_bytes(loaded) == _canonical_bytes(outcome.results)
    # ... and the loaded set compares as identical to itself.
    comparison = compare_runs(loaded, outcome.results)
    assert comparison.ok and comparison.cells_compared == 5
    assert comparison.deltas == []


def test_resume_skips_completed_cells(tmp_path):
    """Resume in a store that holds more than one run: a completed
    ``rev-A`` run is never resumed (re-running it starts a fresh one),
    and an interrupted ``rev-B`` run is picked up from its own cut
    although the complete ``rev-A`` run sits beside it.  The cut itself
    is one of ``test_resume_after_every_cut_is_byte_identical``'s, which
    uses a fresh store per cut and so never sees a second revision."""
    store = RunStore(tmp_path / "runs")
    first = run_sweep(NAMES, store=store, revision="rev-A")
    again = run_sweep(NAMES, store=store, revision="rev-A")
    # The first run completed, so the second is a fresh full run ...
    assert not again.resumed and again.executed == 5
    assert again.run_id != first.run_id

    # ... but an *interrupted* run is picked up where it stopped.
    class Stop(Exception):
        pass

    seen = []

    def interrupt(result):
        seen.append(result)
        if len(seen) == 2:
            raise Stop()

    with pytest.raises(Stop):
        run_sweep(NAMES, store=store, revision="rev-B",
                  on_result=interrupt)
    resumed = run_sweep(NAMES, store=store, revision="rev-B")
    assert resumed.resumed
    assert resumed.skipped == 2 and resumed.executed == 3
    assert _canonical_bytes(resumed.results) == _canonical_bytes(
        first.results)


def test_resume_after_every_cut_is_byte_identical(tmp_path, monkeypatch):
    """Stop a persisted sweep after k = 0..N cells, then resume it: every
    resumed record set equals an uninterrupted run's byte for byte.
    The cut after k >= 1 cells is an ``on_result`` that raises on the
    k-th result (the engine persists each result before calling it);
    the cut after 0 cells is an executor that dies before its first
    cell, leaving only the run's manifest."""
    from repro.runner import engine

    reference = _canonical_bytes(
        run_sweep(NAMES, store=RunStore(tmp_path / "ref")).results)
    n_cells = len(json.loads(reference))
    assert n_cells >= 5

    class Stop(Exception):
        pass

    def die_before_first_cell(*args, **kwargs):
        raise Stop()

    for k in range(n_cells + 1):
        store = RunStore(tmp_path / f"cut-{k}")
        seen = []

        def stop_after_k(result, k=k):
            seen.append(result)
            if len(seen) == k:
                raise Stop()

        with monkeypatch.context() as patch:
            if k == 0:
                patch.setattr(engine, "run_cells", die_before_first_cell)
            with pytest.raises(Stop):
                run_sweep(NAMES, store=store, revision="rev-A", workers=1,
                          on_result=stop_after_k)
        (cut,) = store.list_runs()
        assert len(cut.load_results()) == k, k

        resumed = run_sweep(NAMES, store=store, revision="rev-A", workers=1)
        if k < n_cells:
            assert resumed.resumed and resumed.run_id == cut.run_id, k
            assert (resumed.skipped, resumed.executed) == (k, n_cells - k)
        else:
            # Every cell was persisted, so the cut run is complete and
            # the re-invocation starts a new one.
            assert cut.is_complete() and not resumed.resumed
        assert _canonical_bytes(resumed.results) == reference, k
        assert _canonical_bytes(resumed.run.load_results()) == reference, k


def test_torn_trailing_record_is_dropped_and_rerun(tmp_path):
    """A sweep killed mid-write leaves a half line; resume survives it."""
    store = RunStore(tmp_path / "runs")
    first = run_sweep(NAMES, store=store, revision="rev-A")
    records_path = first.run.records_path
    lines = records_path.read_text().splitlines()
    records_path.write_text("\n".join(lines[:-1]) + "\n"
                            + lines[-1][: len(lines[-1]) // 2])

    reopened = store.open_run(first.run_id)
    assert len(reopened.load_results()) == 4  # torn line dropped
    assert not reopened.is_complete()
    resumed = run_sweep(NAMES, store=store, revision="rev-A")
    assert resumed.resumed
    assert resumed.skipped == 4 and resumed.executed == 1
    assert _canonical_bytes(resumed.results) == _canonical_bytes(
        first.results)


def test_parallel_abort_cancels_queue_and_resumes(tmp_path):
    """An on_result failure under workers>1 stops the sweep promptly;
    whatever was persisted before the failure is resumed, the rest
    re-runs."""
    store = RunStore(tmp_path / "runs")
    reference = run_sweep(NAMES, store=RunStore(tmp_path / "ref"))

    class Stop(Exception):
        pass

    def fail_fast(result):
        raise Stop()

    with pytest.raises(Stop):
        run_sweep(NAMES, store=store, revision="rev-A", workers=4,
                  on_result=fail_fast)
    resumed = run_sweep(NAMES, store=store, revision="rev-A")
    # Exactly one cell was persisted before the failing on_result fired
    # (the engine appends to the store first); everything else re-runs.
    assert resumed.skipped == 1 and resumed.executed == 4
    assert _canonical_bytes(resumed.results) == _canonical_bytes(
        reference.results)


def test_bench_history_dir_is_accepted_and_ignored(tmp_path):
    """perfbench/run.py's call shape: the retired keyword still parses,
    and nothing is written under the directory it names."""
    history = tmp_path / "history"
    outcome = run_sweep(specs=build_specs(["path"]),
                        store=RunStore(tmp_path / "runs"), fresh=True,
                        bench_history_dir=str(history))
    assert outcome.ok and outcome.run.is_complete()
    assert not history.exists()


def test_resume_requires_matching_revision(tmp_path):
    store = RunStore(tmp_path / "runs")
    try:
        run_sweep(NAMES, store=store, revision="rev-A",
                  on_result=lambda result: (_ for _ in ()).throw(
                      KeyboardInterrupt))
    except KeyboardInterrupt:
        pass
    other = run_sweep(NAMES, store=store, revision="rev-B")
    assert not other.resumed and other.executed == 5


# ---------------------------------------------------------------------------
# Parallel determinism
# ---------------------------------------------------------------------------

def test_workers_1_and_4_are_byte_identical(tmp_path):
    serial = run_sweep(NAMES, store=RunStore(tmp_path / "serial"))
    parallel = run_sweep(NAMES, workers=4,
                         store=RunStore(tmp_path / "parallel"))
    assert serial.ok and parallel.ok
    assert _canonical_bytes(serial.results) == _canonical_bytes(
        parallel.results)
    # The stored record sets agree too (load order is canonicalized).
    assert _canonical_bytes(serial.run.load_results()) == _canonical_bytes(
        parallel.run.load_results())


def test_testing_sweep_routes_through_engine():
    from repro.testing import sweep

    serial = sweep(["path"], seed=3)
    parallel = sweep(["path"], seed=3, workers=2)
    assert [r.canonical_dict() for r in serial] == [
        r.canonical_dict() for r in parallel]
    assert all(r.wall_time > 0 for r in serial)
    assert all(r.derived_seed for r in serial)


def test_every_source_field_is_registered_and_stripped():
    """One provenance-field table: every ``*_source`` field of the record
    is in it, and both canonical payloads strip every one of them."""
    import dataclasses

    from repro.runner.jobs import NONDETERMINISTIC_FIELDS
    from repro.testing.differential import (
        PROVENANCE_FIELDS,
        DifferentialRecord,
    )

    sources = [f.name for f in dataclasses.fields(DifferentialRecord)
               if f.name.endswith("_source")]
    assert sources == list(PROVENANCE_FIELDS)
    assert NONDETERMINISTIC_FIELDS == ("wall_time",) + tuple(sources)
    # Give every source field a non-default value, so as_dict emits it.
    record = run_differential("path", "apsp-unweighted",
                              faults="lossy-light", fault_seed=1)
    record = dataclasses.replace(
        record, **{name: "probe" for name in sources})
    payload = record.as_dict()
    assert set(NONDETERMINISTIC_FIELDS) <= set(payload)
    result = CellResult(spec=JobSpec("path", "apsp-unweighted", 8),
                        status=DONE, wall_time=0.0, record=payload)
    for canonical in (record.canonical_dict(), result.canonical_record()):
        assert not set(NONDETERMINISTIC_FIELDS) & set(canonical)
        assert canonical == {key: value for key, value in payload.items()
                             if key not in NONDETERMINISTIC_FIELDS}


# ---------------------------------------------------------------------------
# Timeouts and failure containment
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_timeout_kills_pathological_cell(workers):
    slow = JobSpec("path", "apsp-unweighted", 8, 0, delay=30.0)
    fine = JobSpec("cycle", "apsp-unweighted", 8, 0)
    outcome = run_sweep(specs=[slow, fine], workers=workers, timeout=0.4)
    timed_out, completed = outcome.results
    assert timed_out.status == TIMEOUT
    assert timed_out.record is None and not timed_out.passed
    assert "timeout" in timed_out.error
    assert timed_out.wall_time < 10.0, "the cell must die at the alarm"
    # One pathological cell must not sink the rest of the sweep.
    assert completed.status == DONE and completed.passed


def test_timeout_degrades_without_posix_alarm(monkeypatch):
    """Platforms without SIGALRM/setitimer (Windows) run the cell with
    unenforced timeouts -- plain wall-time metering, never a crash."""
    from repro.runner import executor

    class _NoAlarmSignal:
        """A signal module with no POSIX interval-timer machinery."""

    monkeypatch.setattr(executor, "signal", _NoAlarmSignal())
    assert executor._alarm_supported() is False
    result = executor.execute_cell(
        JobSpec("path", "apsp-unweighted", 8, 0), timeout=0.0001)
    assert result.status == DONE and result.passed
    assert result.wall_time > 0


def test_unknown_scenario_is_an_error_result_not_a_crash():
    outcome = run_sweep(specs=[JobSpec("no-such-scenario", "cover", 8, 0)])
    (result,) = outcome.results
    assert result.status == "error"
    assert "unknown scenario" in result.error
    assert not outcome.ok


# ---------------------------------------------------------------------------
# Regression comparison
# ---------------------------------------------------------------------------

def test_compare_flags_verdict_flip_and_meter_drift():
    base = run_sweep(["path"]).results
    doctored = [CellResult.from_dict(json.loads(json.dumps(r.as_dict())))
                for r in base]
    doctored[0].record["passed"] = False
    doctored[0].record["ok"] = False
    doctored[1].record["metrics"]["messages"] += 100

    comparison = compare_runs(base, doctored)
    kinds = {d.kind for d in comparison.regressions}
    assert kinds == {"pass-flip", "messages-drift"}
    assert not comparison.ok

    # Within tolerance, small drift is not a regression.
    lenient = compare_runs(base, doctored, tolerance=1.0)
    assert {d.kind for d in lenient.regressions} == {"pass-flip"}


def test_compare_gates_on_lost_coverage():
    """An incomplete current run must not pass the regression gate."""
    base = run_sweep(["path"]).results
    shrunk = compare_runs(base, base[:1])
    assert not shrunk.ok
    assert {d.kind for d in shrunk.regressions} == {"missing-cell"}
    # Gained coverage is informational: nothing regressed.
    grown = compare_runs(base[:1], base)
    assert grown.ok
    assert {d.kind for d in grown.deltas} == {"new-cell"}


# ---------------------------------------------------------------------------
# The tier-1 smoke sweep: a real pool on every PR
# ---------------------------------------------------------------------------

def test_smoke_parallel_sweep(tmp_path):
    store = RunStore(tmp_path / "runs")
    outcome = run_sweep(["dense-gnp", "torus-asymmetric", "power-law"],
                        workers=2, store=store)
    assert outcome.ok
    assert outcome.run.is_complete()
    summary = outcome.summary()
    assert summary["statuses"] == {"done": summary["cells"]}
    assert summary["wall_time"] > 0


# ---------------------------------------------------------------------------
# The per-cell retry budget (repro sweep --retries N)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_retry_budget_requeues_failed_cells(workers):
    """Timed-out cells are re-attempted up to the budget; attempts and
    the total wall time across attempts land in the cell record."""
    slow = JobSpec("path", "apsp-unweighted", 8, 0, delay=30.0)
    fine = JobSpec("cycle", "apsp-unweighted", 8, 0)
    outcome = run_sweep(specs=[slow, fine], workers=workers,
                        timeout=0.2, retries=2)
    timed_out, completed = outcome.results
    assert timed_out.status == TIMEOUT
    assert timed_out.attempts == 3, "budget of 2 = three executions"
    assert timed_out.wall_time >= 3 * 0.2
    assert completed.status == DONE and completed.attempts == 1


def test_retry_budget_covers_erroring_cells():
    outcome = run_sweep(specs=[JobSpec("no-such-scenario", "cover", 8, 0)],
                        retries=1)
    (result,) = outcome.results
    assert result.status == "error"
    assert result.attempts == 2
    assert "unknown scenario" in result.error


def test_attempts_round_trip_and_default():
    result = CellResult(spec=JobSpec("path", "apsp-unweighted", 8, 0),
                        status=TIMEOUT, wall_time=1.5, error="x", attempts=3)
    payload = json.loads(json.dumps(result.as_dict()))
    assert payload["attempts"] == 3
    assert CellResult.from_dict(payload).attempts == 3
    # Pre-retry-era rows (no attempts field) load as one attempt.
    payload.pop("attempts")
    assert CellResult.from_dict(payload).attempts == 1


def test_retries_do_not_change_healthy_sweep_records():
    base = run_sweep(["path"]).results
    retried = run_sweep(["path"], retries=2).results
    assert _canonical_bytes(base) == _canonical_bytes(retried)
