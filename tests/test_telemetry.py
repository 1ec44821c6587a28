"""Per-run sweep telemetry: the timeline file and its report.

What is locked down here:

* **the byte-identity contract** -- telemetry on or off, the canonical
  cell records are identical; the timeline lives in its own
  ``telemetry.jsonl`` beside the records and never touches them;
* **the event stream** -- one ``sweep_begin`` per invocation, one
  ``scheduled`` per todo cell, ``started``/``finished`` per executed
  cell carrying provenance and meters, a terminal ``sweep_end``; the
  per-file ``seq`` is strictly monotone and *continues across resumed
  invocations* (the file is append-only, like the records);
* **interruption** -- events flush as they happen, so a sweep killed
  mid-flight keeps its partial timeline and stamps
  ``sweep_end interrupted=true`` on the way out;
* **the executor hook** -- ``on_start`` fires in the submitting
  process once per attempt, feeding the ``started``/``retried``
  events;
* **the CLI** -- ``repro runs report`` renders the timeline (or a
  clear fallback when telemetry was off).
"""

import json

import pytest

from repro.cli import main
from repro.runner import RunStore, run_sweep
from repro.runner.executor import run_cells
from repro.runner.jobs import JobSpec
from repro.telemetry import load_events, telemetry_path
from repro.telemetry.events import (
    FINISHED,
    RETRIED,
    SCHEDULED,
    STARTED,
    SWEEP_BEGIN,
    SWEEP_END,
    TIMED_OUT,
)


def _kinds(events):
    return [e["event"] for e in events]


# ---------------------------------------------------------------------------
# The event stream of one complete sweep
# ---------------------------------------------------------------------------

def test_sweep_writes_timeline_beside_records(tmp_path):
    outcome = run_sweep(["path"], store=RunStore(tmp_path / "runs"),
                        revision="rev-A")
    path = telemetry_path(outcome.run.path)
    assert path.parent == outcome.run.records_path.parent
    events = load_events(path)
    kinds = _kinds(events)
    assert kinds[0] == SWEEP_BEGIN and kinds[-1] == SWEEP_END
    cells = outcome.executed
    assert kinds.count(SCHEDULED) == cells
    assert kinds.count(STARTED) == cells
    assert kinds.count(FINISHED) == cells
    # seq is per-file monotone from 1, ts stamps every line.
    assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
    assert all(e["ts"] > 0 for e in events)

    begin = events[0]
    assert begin["run_id"] == outcome.run_id
    assert begin["planned"] == cells and begin["resumed"] is False
    for done in (e for e in events if e["event"] == FINISHED):
        assert done["status"] == "done" and done["passed"] is True
        assert done["wall_time"] > 0 and done["attempts"] == 1
        # Provenance + meters ride along for the cache-efficacy report.
        assert done["graph_source"] in ("built", "lru", "store")
        assert done["rounds"] > 0 and done["messages"] > 0
    end = events[-1]
    assert end["executed"] == cells and end["interrupted"] is False


def test_canonical_records_identical_telemetry_on_or_off(tmp_path):
    """The observability plane must never perturb the science: a
    persisted run (which always writes telemetry) records the same
    canonical bytes as a storeless sweep (which writes none)."""
    on = run_sweep(["path"], store=RunStore(tmp_path / "on"),
                   revision="rev-A")
    off = run_sweep(["path"])
    assert telemetry_path(on.run.path).exists()
    assert off.run is None
    canonical = lambda o: json.dumps(
        [r.canonical_record() for r in o.results], sort_keys=True).encode()
    assert canonical(on) == canonical(off)


def test_unpersisted_sweep_writes_no_telemetry():
    outcome = run_sweep(["path"])  # no run store: nothing to sit beside
    assert outcome.run is None and outcome.ok


# ---------------------------------------------------------------------------
# Interruption and resume: one append-only timeline per run
# ---------------------------------------------------------------------------

def test_interrupted_then_resumed_run_continues_one_timeline(tmp_path):
    store = RunStore(tmp_path / "runs")

    class Stop(Exception):
        pass

    seen = []

    def interrupt(result):
        seen.append(result)
        if len(seen) == 2:
            raise Stop()

    with pytest.raises(Stop):
        run_sweep(["cycle", "path", "random-tree"], store=store,
                  revision="rev-A", on_result=interrupt)
    (run,) = store.list_runs()
    partial = load_events(telemetry_path(run.path))
    # The partial timeline survived: flushed per event, closed with an
    # interrupted sweep_end.
    assert _kinds(partial).count(FINISHED) == 2
    assert partial[-1]["event"] == SWEEP_END
    assert partial[-1]["interrupted"] is True

    resumed = run_sweep(["cycle", "path", "random-tree"], store=store,
                        revision="rev-A")
    assert resumed.resumed and resumed.skipped == 2
    events = load_events(telemetry_path(resumed.run.path))
    begins = [e for e in events if e["event"] == SWEEP_BEGIN]
    assert len(begins) == 2
    assert begins[1]["resumed"] is True and begins[1]["restored"] == 2
    # One file, one monotone seq across both invocations.
    assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
    assert events[-1]["interrupted"] is False


def test_torn_telemetry_line_is_skipped_on_load(tmp_path):
    outcome = run_sweep(["path"], store=RunStore(tmp_path / "runs"),
                        revision="rev-A")
    path = telemetry_path(outcome.run.path)
    whole = load_events(path)
    with path.open("a") as handle:
        handle.write('{"seq": 999, "event": "torn')  # no newline, no close
    assert load_events(path) == whole
    assert load_events(tmp_path / "nowhere.jsonl") == []


# ---------------------------------------------------------------------------
# The executor on_start hook and timeout/retry events
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_on_start_fires_once_per_attempt(workers):
    bad = JobSpec("no-such-scenario", "cover", 8, 0)
    fine = JobSpec("path", "apsp-unweighted", 8, 0)
    calls = []
    results = run_cells([bad, fine], workers=workers, retries=1,
                        on_start=lambda spec, attempt:
                        calls.append((spec.scenario, attempt)))
    assert results[0].attempts == 2 and results[1].attempts == 1
    assert sorted(calls) == [("no-such-scenario", 1),
                             ("no-such-scenario", 2),
                             ("path", 1)]


def test_timeout_and_retry_events_in_timeline(tmp_path):
    slow = JobSpec("path", "apsp-unweighted", 8, 0, delay=30.0)
    outcome = run_sweep(specs=[slow], store=RunStore(tmp_path / "runs"),
                        revision="rev-A", timeout=0.4, retries=1)
    assert outcome.results[0].status == "timeout"
    kinds = _kinds(load_events(telemetry_path(outcome.run.path)))
    assert kinds.count(STARTED) == 1   # attempt 1
    assert kinds.count(RETRIED) == 1   # attempt 2
    assert kinds.count(TIMED_OUT) == 1  # one terminal event per cell


# ---------------------------------------------------------------------------
# CLI: repro runs report
# ---------------------------------------------------------------------------

@pytest.fixture
def cli_run(tmp_path):
    runs_dir = str(tmp_path / "runs")
    assert main(["sweep", "--names", "path", "--runs-dir", runs_dir]) == 0
    (run,) = RunStore(runs_dir).list_runs()
    return runs_dir, run.run_id


def test_cli_runs_report_renders_timeline(cli_run, capsys):
    runs_dir, run_id = cli_run
    capsys.readouterr()
    assert main(["runs", "report", run_id, "--runs-dir", runs_dir]) == 0
    out = capsys.readouterr().out
    assert run_id in out and "slowest cells" in out
    assert "apsp-unweighted" in out


def test_cli_runs_report_json_payload(cli_run, capsys):
    runs_dir, run_id = cli_run
    capsys.readouterr()
    assert main(["runs", "report", run_id, "--runs-dir", runs_dir,
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["run_id"] == run_id
    assert payload["invocations"] == 1
    assert payload["telemetry_events"] > 0
    assert payload["slowest"] and payload["cache_efficacy"]


def test_cli_runs_report_unknown_run_errors(tmp_path, capsys):
    assert main(["runs", "report", "no-such-run",
                 "--runs-dir", str(tmp_path / "runs")]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_runs_report_without_telemetry_falls_back(tmp_path, capsys):
    runs_dir = str(tmp_path / "runs")
    assert main(["sweep", "--names", "path", "--runs-dir", runs_dir]) == 0
    (run,) = RunStore(runs_dir).list_runs()
    telemetry_path(run.path).unlink()
    capsys.readouterr()
    assert main(["runs", "report", run.run_id, "--runs-dir", runs_dir]) == 0
    assert "no telemetry.jsonl recorded" in capsys.readouterr().out
