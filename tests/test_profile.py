"""Round-resolved profiling: the per-round timeline plane end to end.

What is locked down here:

* **the sum property** -- the per-round deltas a profiler records sum
  *exactly* to the execution's final ``Metrics``, per segment, on both
  the scalar and the vectorized delivery path, clean and under
  injected faults, across the differential bindings;
* **the window-max fix** -- ``Metrics.delta_since`` reports the max
  message size seen *within* the window, not the execution-wide
  running max;
* **zero overhead off / byte identity on** -- a Network without a
  profiler takes the untouched path, and a sweep run with
  ``--profile`` / ``--cprofile`` produces canonical records
  byte-identical to an unprofiled sweep;
* **the profiles artifact family** -- publish / load round-trips are
  exact, revisions coexist, ``find`` resolves the newest;
* **hot-function capture** -- cProfile rows ride on ``CellResult.hot``
  and aggregate in ``repro runs report``;
* **the CLI surfaces** -- ``sweep --profile --cprofile``,
  ``profile ls / show / diff``, ``runs watch --once``, and the pinned
  ``runs report --json`` payload.
"""

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.congest import (
    FaultPlan,
    Metrics,
    RoundProfiler,
    cell_context,
    current_cell,
    mark_phase,
    run_machines,
)
from repro.congest.profile import ADDITIVE_COLUMNS, COLUMNS
from repro.graphs import gnp
from repro.primitives import BFSMachine
from repro.runner import RunStore, config, run_sweep
from repro.runner.jobs import CellResult, JobSpec
from repro.store import (
    PROFILE_FAMILY,
    FamilyStore,
    find_profile,
    profile_identity,
)
from repro.testing.differential import run_differential


def _assert_segment_sums_exact(profile):
    """The tentpole invariant: per-round deltas sum to the real totals.

    Segment totals come from ``Metrics.delta_since`` on the live
    metrics object -- the ground truth -- so equality here proves the
    row-by-row accounting lost nothing.
    """
    assert profile.segments, "profiled execution recorded no segment"
    seg_col = profile.columns["segment"]
    for index, segment in enumerate(profile.segments):
        totals = segment["totals"]
        assert totals is not None, f"segment {index} never closed"
        mask = seg_col == index
        assert segment["rows"] == int(mask.sum())
        for name in ("messages", "words", "broadcasts"):
            assert int(profile.columns[name][mask].sum()) == totals[name]
        for column, field in (("faults_dropped", "faults_dropped"),
                              ("faults_duplicated", "faults_duplicated"),
                              ("nodes_crashed", "nodes_crashed")):
            assert int(profile.columns[column][mask].sum()) \
                == totals.get(field, 0)
        if mask.any():
            # The last acting round is always recorded, so the row
            # coverage reaches at least the metered round count.
            assert int(profile.columns["round"][mask].max()) \
                >= totals["rounds"]


# ---------------------------------------------------------------------------
# Satellite: the delta_since window-max fix
# ---------------------------------------------------------------------------

def test_delta_since_max_message_words_is_windowed():
    m = Metrics()
    m.record_send(0, 1, 5)
    snap = m.snapshot()
    m.record_send(0, 1, 2)
    # Before the fix this copied the execution-wide running max (5)
    # into the phase delta; the window only ever saw a 2-word message.
    assert m.delta_since(snap).max_message_words == 2
    assert m.delta_since(m.snapshot()).max_message_words == 0
    assert m.max_message_words == 5


def test_delta_since_window_max_through_broadcast_path():
    m = Metrics()
    m.record_broadcast_sends([(0, 1), (0, 2)], 7)
    snap = m.snapshot()
    m.record_broadcast_sends([(1, 2)], 3)
    delta = m.delta_since(snap)
    assert delta.max_message_words == 3
    assert delta.messages == 1 and delta.words == 3


# ---------------------------------------------------------------------------
# The profiler core and the ambient context
# ---------------------------------------------------------------------------

def test_empty_profiler_compacts_to_empty_profile():
    profile = RoundProfiler().profile()
    assert profile.rounds_executed == 0
    assert sorted(profile.columns) == sorted(COLUMNS)
    assert all(len(profile.columns[c]) == 0 for c in COLUMNS)
    assert profile.peak_congestion() == (0, 0)
    assert profile.totals() == {c: 0 for c in ADDITIVE_COLUMNS}


def test_profile_context_ambient_and_shielding():
    assert current_cell().profiler is None
    mark_phase("outside")  # must be a silent no-op
    profiler = RoundProfiler()
    with cell_context(profiler=profiler):
        assert current_cell().profiler is profiler
        with cell_context(profiler=None):
            # A nested unprofiled context shields inner executions.
            assert current_cell().profiler is None
            mark_phase("shielded")
        assert current_cell().profiler is profiler
        mark_phase("inside")
    assert current_cell().profiler is None
    assert profiler.profile().phases == [(0, "inside")]


def _engine(fast_path):
    """The batched broadcast delivery or the scalar reference loop."""
    return "auto" if fast_path else "reference"


@pytest.mark.parametrize("fast_path", [True, False])
def test_network_sums_exact_on_both_delivery_paths(fast_path):
    g = gnp(18, 0.3, seed=3)
    profiler = RoundProfiler()
    with cell_context(profiler=profiler, engine=_engine(fast_path)):
        execution = run_machines(g, lambda info: BFSMachine(info, root=0))
    profile = profiler.profile()
    _assert_segment_sums_exact(profile)
    totals = profile.segments[0]["totals"]
    final = execution.metrics.as_dict()
    for name in ("rounds", "messages", "words", "broadcasts"):
        assert totals[name] == final[name]


@pytest.mark.parametrize("fast_path", [True, False])
def test_network_sums_exact_under_faults(fast_path):
    g = gnp(16, 0.4, seed=5)
    profiler = RoundProfiler()
    plan = FaultPlan(drop=0.3, duplicate=0.2, node_crashes={3: 4}, seed=7)
    with cell_context(profiler=profiler, faults=plan,
                      engine=_engine(fast_path)):
        run_machines(g, lambda info: BFSMachine(info, root=0))
    profile = profiler.profile()
    _assert_segment_sums_exact(profile)
    totals = profile.totals()
    # The plan above is aggressive enough that every fault kind fired;
    # crash-only rounds must have produced rows of their own.
    assert totals["faults_dropped"] > 0
    assert totals["faults_duplicated"] > 0
    assert totals["nodes_crashed"] == 1


def test_unprofiled_run_measures_identically():
    """Zero overhead when off means zero *effect* when off: the same
    execution with and without a profiler meters identically."""
    g = gnp(14, 0.35, seed=2)
    factory = lambda info: BFSMachine(info, root=0)
    plain = run_machines(g, factory, seed=3)
    profiler = RoundProfiler()
    with cell_context(profiler=profiler):
        profiled = run_machines(g, factory, seed=3)
    assert plain.metrics.as_dict() == profiled.metrics.as_dict()
    assert plain.outputs == profiled.outputs


# ---------------------------------------------------------------------------
# The sum property across the differential bindings
# ---------------------------------------------------------------------------

_CELLS = [
    ("complete", "apsp-unweighted", 8),
    ("complete-weighted", "apsp-weighted", 8),
    ("bipartite-balanced", "matching", 10),
    ("dense-gnp", "cover", 10),
    ("dense-gnp", "bs-hierarchy", 10),
]


@pytest.mark.parametrize("scenario,algorithm,size", _CELLS)
def test_binding_sums_exact(scenario, algorithm, size):
    profiler = RoundProfiler()
    record = run_differential(scenario, algorithm, size=size, seed=0,
                              profiler=profiler)
    assert record.passed
    _assert_segment_sums_exact(profiler.profile())


@pytest.mark.parametrize("scenario,algorithm,size",
                         [("complete", "apsp-unweighted", 8),
                          ("dense-gnp", "cover", 10)])
def test_binding_sums_exact_under_faults(scenario, algorithm, size):
    profiler = RoundProfiler()
    run_differential(scenario, algorithm, size=size, seed=0,
                     faults="lossy-heavy", fault_seed=1, profiler=profiler)
    profile = profiler.profile()
    _assert_segment_sums_exact(profile)
    assert profile.totals()["faults_dropped"] > 0


def test_apsp_timeline_carries_phase_markers():
    profiler = RoundProfiler()
    run_differential("complete", "apsp-unweighted", size=8, seed=0,
                     profiler=profiler)
    profile = profiler.profile()
    names = {name for _row, name in profile.phases}
    assert {"preprocessing", "output-delivery"} <= names
    # phase_of_row resolves the marker covering any recorded row.
    assert profile.rounds_executed > 0
    assert isinstance(profile.phase_of_row(profile.rounds_executed - 1),
                      str)


@pytest.mark.parametrize("algorithm", ["bs-hierarchy", "mpx-cover"])
def test_profile_covers_the_execution_not_the_resolves(algorithm):
    """Regression: the profile used to open before the graph / oracle /
    decomposition resolves, so a cold cell's timeline also held the
    inline decomposition build (bs-hierarchy@dense-gnp recorded 12
    segments and 700 messages cold, 5 segments and 266 messages warm)."""
    config.reset()
    passes = []
    for _ in range(2):  # cold, then LRU-warm
        profiler = RoundProfiler()
        record = run_differential("dense-gnp", algorithm, profiler=profiler)
        passes.append((record, profiler.profile()))
    (cold_record, cold), (warm_record, warm) = passes
    assert (cold_record.decomposition_source,
            warm_record.decomposition_source) == ("computed", "lru")
    assert sorted(cold.columns) == sorted(warm.columns)
    for name in cold.columns:
        assert np.array_equal(cold.columns[name], warm.columns[name]), name
    assert cold.segments == warm.segments
    assert cold.phases == warm.phases
    if algorithm == "bs-hierarchy":
        for record, profile in passes:
            assert profile.totals()["messages"] == record.metrics["messages"]


# ---------------------------------------------------------------------------
# The profiles artifact family
# ---------------------------------------------------------------------------

def _capture_profile():
    profiler = RoundProfiler()
    with cell_context(profiler=profiler):
        run_machines(gnp(12, 0.4, seed=1),
                     lambda info: BFSMachine(info, root=0))
        mark_phase("tail")
    return profiler.profile()


def test_profile_store_roundtrip_exact(tmp_path):
    store = FamilyStore(PROFILE_FAMILY, tmp_path / "store")
    profile = _capture_profile()
    identity = profile_identity("dense-gnp", "apsp-unweighted", 12, 0,
                                revision="rev-A")
    assert not store.contains(identity)
    assert store.publish(identity, profile)
    assert store.contains(identity)
    loaded = store.load(identity)
    assert loaded is not None
    for name in COLUMNS:
        assert np.array_equal(loaded.columns[name], profile.columns[name])
    assert loaded.phases == profile.phases
    assert loaded.segments == profile.segments
    # Same identity, second publish: already present, not overwritten.
    assert store.publish(identity, profile) is False


def test_profile_store_find_prefers_newest_revision(tmp_path):
    store = FamilyStore(PROFILE_FAMILY, tmp_path / "store")
    profile = _capture_profile()
    for revision in ("rev-A", "rev-B"):
        store.publish(
            profile_identity("dense-gnp", "apsp-unweighted", 12, 0,
                             revision=revision), profile)
    exact = find_profile(store, "dense-gnp", "apsp-unweighted", 12, 0,
                         revision="rev-A")
    assert exact is not None and exact["revision"] == "rev-A"
    newest = find_profile(store, "dense-gnp", "apsp-unweighted", 12, 0)
    assert newest is not None and newest["revision"] == "rev-B"
    assert find_profile(store, "dense-gnp", "apsp-unweighted", 99, 0) is None


# ---------------------------------------------------------------------------
# Sweep integration: byte identity, provenance, hot functions
# ---------------------------------------------------------------------------

def _canonical(outcome):
    return json.dumps([r.canonical_record() for r in outcome.results],
                      sort_keys=True).encode()


def test_sweep_records_byte_identical_profile_on_or_off(tmp_path):
    """The profiling plane must never perturb the science."""
    plain = run_sweep(["path"], store=RunStore(tmp_path / "off"),
                      revision="rev-A")
    config.update(profile_store=str(tmp_path / "profiles"), cprofile=True)
    profiled = run_sweep(["path"], store=RunStore(tmp_path / "on"),
                         revision="rev-A")
    assert _canonical(plain) == _canonical(profiled)

    # The profiled run carries provenance + hot rows *outside* the
    # canonical payload; the plain run carries neither key at all.
    for result in profiled.results:
        assert result.record["profile_source"].startswith("store:")
        assert result.hot and len(result.hot[0]) == 3
    for result in plain.results:
        assert "profile_source" not in result.record
        assert result.hot is None

    # And the store actually holds one profile per executed cell,
    # loadable by cell coordinates.
    store = FamilyStore(PROFILE_FAMILY, tmp_path / "profiles")
    entries = store.ls()
    assert len(entries) == len(profiled.results)
    spec = profiled.results[0].spec
    identity = find_profile(store, spec.scenario, spec.algorithm,
                            spec.size, spec.seed)
    assert identity is not None
    _assert_segment_sums_exact(store.load(identity))
    # Profiles are stamped with the run's revision, not the revision
    # each executing process would compute for itself.
    assert identity["revision"] == "rev-A"
    assert find_profile(store, spec.scenario, spec.algorithm, spec.size,
                        spec.seed, revision="rev-A") == identity

    # Manifest: profiling knobs appear only on the profiled run.
    assert "profile_store" in profiled.run.manifest
    assert profiled.run.manifest["cprofile"] is True
    assert "profile_store" not in plain.run.manifest
    assert "cprofile" not in plain.run.manifest


def test_profiled_sweep_with_pool_workers(tmp_path):
    """Workers pick the profile store up from the parent's config."""
    config.update(profile_store=str(tmp_path / "profiles"))
    outcome = run_sweep(["path"], store=RunStore(tmp_path / "runs"),
                        revision="rev-A", workers=2)
    assert outcome.ok
    for result in outcome.results:
        assert result.record["profile_source"].startswith("store:")
    assert FamilyStore(PROFILE_FAMILY, tmp_path / "profiles").ls()


def test_profiled_record_survives_reload(tmp_path):
    config.update(profile_store=str(tmp_path / "profiles"))
    outcome = run_sweep(["path"], store=RunStore(tmp_path / "runs"),
                        revision="rev-A")
    (run,) = RunStore(tmp_path / "runs").list_runs()
    for result in run.load_results():
        assert result.record["profile_source"].startswith("store:")
        assert result.passed
    assert outcome.ok


def test_cell_result_hot_roundtrip():
    spec = JobSpec("path", "apsp-unweighted", 8, 0)
    hot = [["network.py:1:run", 3, 0.5]]
    result = CellResult(spec=spec, status="done", wall_time=0.1,
                        record={"passed": True}, hot=hot)
    reloaded = CellResult.from_dict(result.as_dict())
    assert reloaded.hot == hot
    bare = CellResult(spec=spec, status="done", wall_time=0.1,
                      record={"passed": True})
    assert "hot" not in bare.as_dict()
    assert CellResult.from_dict(bare.as_dict()).hot is None


# ---------------------------------------------------------------------------
# CLI: sweep --profile/--cprofile, profile ls/show/diff, runs watch,
# and the pinned runs report --json payload
# ---------------------------------------------------------------------------

@pytest.fixture
def profiled_cli_run(tmp_path, capsys):
    runs_dir = str(tmp_path / "runs")
    assert main(["sweep", "--names", "path", "--runs-dir", runs_dir,
                 "--profile", "--cprofile"]) == 0
    # The sweep's stdout lands during fixture setup; hand it to the
    # test explicitly (a later readouterr() would come back empty).
    sweep_out = capsys.readouterr().out
    (run,) = RunStore(runs_dir).list_runs()
    return runs_dir, str(tmp_path / "runs" / "store"), run.run_id, \
        sweep_out


def test_cli_profiled_sweep_and_profile_show(profiled_cli_run, capsys):
    runs_dir, store_dir, _run_id, sweep_out = profiled_cli_run
    assert "round profiles:" in sweep_out and "cProfile:" in sweep_out

    assert main(["profile", "ls", "--store-dir", store_dir]) == 0
    out = capsys.readouterr().out
    assert "apsp-unweighted" in out

    assert main(["profile", "show", "path", "apsp-unweighted",
                 "--store-dir", store_dir, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] > 0
    assert payload["totals"]["messages"] > 0
    assert payload["timeline"]

    assert main(["profile", "show", "path", "apsp-unweighted",
                 "--store-dir", store_dir]) == 0
    out = capsys.readouterr().out
    assert "peak congestion:" in out and "round timeline" in out


def test_cli_profile_diff_same_cell(profiled_cli_run, capsys):
    _runs_dir, store_dir, _run_id, _out = profiled_cli_run
    capsys.readouterr()
    # Diff a cell against itself (no --against-* overrides): all-zero
    # deltas, exit 0 -- the degenerate but always-available diff.
    assert main(["profile", "diff", "path", "apsp-unweighted",
                 "--store-dir", store_dir, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"]["delta"] == 0
    assert all(cell["delta"] == 0 for cell in payload["totals"].values())


def test_cli_profile_show_missing_cell_errors(tmp_path, capsys):
    assert main(["profile", "show", "path", "apsp-unweighted",
                 "--store-dir", str(tmp_path / "empty")]) == 2
    assert "no stored profile" in capsys.readouterr().err


def test_cli_runs_watch_once(profiled_cli_run, capsys):
    runs_dir, _store_dir, run_id, _out = profiled_cli_run
    capsys.readouterr()
    assert main(["runs", "watch", run_id, "--runs-dir", runs_dir,
                 "--once"]) == 0
    out = capsys.readouterr().out
    assert run_id in out and "cells" in out and "[ended]" in out
    assert "cache hits:" in out


def test_cli_runs_report_aggregates_hot_functions(profiled_cli_run,
                                                 capsys):
    runs_dir, _store_dir, run_id, _out = profiled_cli_run
    capsys.readouterr()
    assert main(["runs", "report", run_id, "--runs-dir", runs_dir,
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["run_id"] == run_id
    assert payload["hot_functions"]
    top = payload["hot_functions"][0]
    assert set(top) == {"function", "cells", "calls", "seconds"}

    assert main(["runs", "report", run_id, "--runs-dir", runs_dir]) == 0
    assert "hot functions across cProfiled cells" \
        in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The watch snapshot/render pipeline on a synthetic timeline
# ---------------------------------------------------------------------------

def test_watch_snapshot_counts_lifecycle():
    from repro.telemetry.watch import render_watch, watch_snapshot

    events = [
        {"event": "sweep_begin", "planned": 3},
        {"event": "scheduled", "key": "a"},
        {"event": "scheduled", "key": "b"},
        {"event": "scheduled", "key": "c"},
        {"event": "started", "key": "a"},
        {"event": "started", "key": "b"},
        {"event": "finished", "key": "a", "status": "done",
         "passed": True, "wall_time": 1.5, "scenario": "path",
         "algorithm": "apsp-unweighted", "size": 8, "seed": 0,
         "graph_source": "store", "oracle_source": "computed"},
        {"event": "timed_out", "key": "b", "status": "timeout",
         "passed": False, "wall_time": 0.4, "scenario": "cycle",
         "algorithm": "apsp-unweighted", "size": 8, "seed": 0,
         "graph_source": "lru"},
        {"event": "started", "key": "c"},
    ]
    snapshot = watch_snapshot(events, planned=3)
    assert snapshot["done"] == 2 and snapshot["running"] == ["c"]
    assert snapshot["passed"] == 1 and snapshot["failed"] == 1
    assert not snapshot["ended"]
    assert snapshot["hit_shares"]["graphs"] == 1.0
    assert snapshot["hit_shares"]["oracles"] == 0.0
    assert snapshot["hit_shares"]["decompositions"] is None
    assert snapshot["slowest"][0]["wall_time"] == 1.5

    text = render_watch(snapshot, run_id="run-X")
    assert "run run-X" in text and "2/3 cells" in text
    assert "1 passed, 1 failed, 1 running" in text
    assert "slowest so far:" in text and "running cells:" in text


def test_watch_run_once_writes_one_panel(tmp_path):
    from repro.telemetry.watch import watch_run

    run_sweep(["path"], store=RunStore(tmp_path / "runs"),
              revision="rev-A")
    (run,) = RunStore(tmp_path / "runs").list_runs()
    stream = io.StringIO()
    snapshot = watch_run(run, once=True, stream=stream)
    assert snapshot["ended"] and snapshot["done"] == snapshot["planned"]
    assert run.run_id in stream.getvalue()


# ---------------------------------------------------------------------------
# The analysis layer: show / diff payloads
# ---------------------------------------------------------------------------

def test_profile_show_payload_buckets_long_timelines():
    from repro.analysis.profiles import (
        format_profile_show,
        profile_show_payload,
    )

    profile = _capture_profile()
    payload = profile_show_payload(profile, {"scenario": "dense-gnp"},
                                   limit=3)
    assert payload["rows"] == profile.rounds_executed
    if payload["rows"] > 3:
        assert len(payload["timeline"]) == 3
    # Bucketed or not, the timeline never loses additive mass.
    assert sum(t["messages"] for t in payload["timeline"]) \
        == payload["totals"]["messages"]
    peak = payload["peak_congestion"]
    assert peak["congestion"] == profile.peak_congestion()[1]
    text = format_profile_show(payload)
    assert "peak congestion:" in text


def test_profile_diff_payload_tracks_deltas():
    from repro.analysis.profiles import (
        format_profile_diff,
        profile_diff_payload,
    )

    a = _capture_profile()
    profiler = RoundProfiler()
    with cell_context(profiler=profiler):
        mark_phase("head")
        run_machines(gnp(16, 0.4, seed=2),
                     lambda info: BFSMachine(info, root=0))
    b = profiler.profile()
    payload = profile_diff_payload(a, b, {"revision": "A"},
                                   {"revision": "B"})
    assert payload["rows"]["delta"] \
        == b.rounds_executed - a.rounds_executed
    assert payload["totals"]["messages"]["delta"] \
        == b.totals()["messages"] - a.totals()["messages"]
    names = {p["phase"] for p in payload["phases"]}
    assert "head" in names
    text = format_profile_diff(payload)
    assert "recorded rounds:" in text and "additive meters:" in text


# ---------------------------------------------------------------------------
# The capture plane
# ---------------------------------------------------------------------------

def test_profile_capture_env_propagation(tmp_path, monkeypatch):
    """A worker captures profiles from the parent's config, not the env.

    ``--profile`` / ``--cprofile`` reach a worker as part of the sweep
    config the pool initializer installs; no environment variable
    carries them.
    """
    import os

    from repro.runner import SweepConfig, executor

    before = dict(os.environ)
    config.update(profile_store=str(tmp_path / "profiles"), cprofile=True,
                  revision="rev-A")
    parent = config.current()
    assert dict(os.environ) == before

    # Simulate a freshly-started worker: pristine config until the pool
    # initializer installs the parent's.
    monkeypatch.setattr(executor, "_IN_WORKER", False)
    config.install(SweepConfig())
    spec = JobSpec("path", "apsp-unweighted", 8, 0)
    plain = executor.execute_cell(spec)
    assert "profile_source" not in plain.record and plain.hot is None

    executor._init_worker(parent)
    profiled = executor.execute_cell(spec)
    assert profiled.record["profile_source"].startswith("store:")
    assert profiled.hot
    store = FamilyStore(PROFILE_FAMILY, tmp_path / "profiles")
    assert find_profile(store, "path", "apsp-unweighted", 8, 0,
                        revision="rev-A") is not None

    config.update(profile_store=None, cprofile=False)
    unprofiled = executor.execute_cell(spec)
    assert "profile_source" not in unprofiled.record
    assert unprofiled.hot is None
    assert dict(os.environ) == before


def test_hot_rows_shape():
    import cProfile

    from repro.runner.profile_capture import hot_rows

    profiler = cProfile.Profile()
    profiler.enable()
    sum(range(1000))
    profiler.disable()
    rows = hot_rows(profiler, limit=5)
    assert 0 < len(rows) <= 5
    for label, calls, seconds in rows:
        assert label.count(":") >= 2 and "/" not in label.split(":")[0]
        assert calls >= 1 and seconds >= 0.0
    # Sorted by cumulative time, descending.
    assert [r[2] for r in rows] == sorted((r[2] for r in rows),
                                          reverse=True)
