"""The on-disk content-addressed graph snapshot store (ISSUE 4).

Pins the tentpole contract:

* **byte identity** -- a store-loaded (mmap'd) graph is
  indistinguishable from a fresh build across 4 scenarios spanning the
  snapshot formats (unweighted, symmetric weights, directed weights,
  bipartite): same adjacency, same weight mapping *including dict
  insertion order and Python value types*, and byte-identical
  differential records;
* **fall-through chain** -- LRU -> disk store -> build-and-publish,
  with the per-cell provenance (``graph_source``) recorded as a
  nondeterministic field that never changes a canonical record byte;
* **concurrent-writer safety** -- racing publishers of one key land
  exactly one valid snapshot (atomic write-then-rename);
* **corruption fallback** -- truncated arrays and mangled manifests
  are quarantined and rebuilt, never crash a sweep;
* **maintenance** -- ``gc --keep-last/--max-bytes``, ``ls``/``stat``,
  and the ``repro store`` CLI family;
* **engine integration** -- run manifests record the effective graph
  cache size + store root, and a second sweep over a warm store serves
  its graphs from disk with identical canonical records.
"""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.cli import main
from repro.congest.cell import current_cell
from repro.runner import RunStore, SweepConfig, config, executor, \
    graph_cache, run_sweep
from repro.scenarios import get_scenario
from repro.runner.chain import warm
from repro.store import (
    GRAPH_FAMILY,
    ORACLE_FAMILY,
    PROFILE_FAMILY,
    ArtifactStore,
    FamilyStore,
    graph_key,
    profile_identity,
)
from repro.store.artifacts import MANIFEST_NAME, TMP_PREFIX
from repro.store.graphs import GRAPH_KIND

# Unweighted dense, symmetric weighted, directed weights, bipartite:
# every snapshot shape the store serializes.
IDENTITY_SCENARIOS = ("dense-gnp", "grid-weighted",
                      "dense-gnp-asymmetric", "bipartite-balanced")


@pytest.fixture
def chain(tmp_path):
    """A fresh cache chain connected to a tmp store."""
    graph_cache.configure_store(tmp_path / "graph-store")
    return FamilyStore(GRAPH_FAMILY, tmp_path / "graph-store")


def _publish(store, name, size=None, seed=0):
    scenario = get_scenario(name)
    size = scenario.default_size if size is None else size
    derived = scenario.seed_for(size, seed)
    graph = scenario.graph(size, seed=seed)
    assert store.publish(scenario.name, size, derived, graph)
    return scenario, size, derived, graph


# ---------------------------------------------------------------------------
# Snapshot round trip: byte identity vs a fresh build
# ---------------------------------------------------------------------------

@pytest.mark.scenario
@pytest.mark.parametrize("name", IDENTITY_SCENARIOS)
def test_snapshot_round_trip_is_byte_identical(name, tmp_path):
    store = FamilyStore(GRAPH_FAMILY, tmp_path)
    scenario, size, derived, fresh = _publish(store, name)
    loaded = store.load(scenario.name, size, derived)
    assert loaded is not None
    # The topology arrays stay memory-mapped, never copied.
    assert isinstance(loaded._indptr, np.memmap)
    assert isinstance(loaded._indices, np.memmap)
    assert loaded.name == fresh.name
    assert loaded.adj == fresh.adj
    assert loaded.weights == fresh.weights
    if fresh.weights is not None:
        # Insertion order and Python value types survive the round
        # trip -- a restored graph must be indistinguishable from a
        # fresh build, not merely equal.
        assert list(loaded.weights.items()) == list(fresh.weights.items())
        assert all(type(v) is type(w) for v, w in
                   zip(loaded.weights.values(), fresh.weights.values()))


@pytest.mark.scenario
@pytest.mark.parametrize("name", IDENTITY_SCENARIOS)
def test_differential_records_identical_from_store(name, chain):
    """Store-served cells produce byte-identical canonical records."""
    from repro.testing import run_differential

    scenario = get_scenario(name)
    algorithm = scenario.algorithms[0]
    graph_cache.configure_store(None)
    graph_cache.configure(0)
    built = run_differential(name, algorithm, seed=3)
    graph_cache.configure_store(chain.root)
    graph_cache.configure(0)          # LRU off: force the store path
    publish_pass = run_differential(name, algorithm, seed=3)
    store_pass = run_differential(name, algorithm, seed=3)
    assert built.graph_source == "built"
    assert publish_pass.graph_source == "built"   # miss: built + published
    assert store_pass.graph_source == "store"     # hit: mmap'd snapshot
    assert built.canonical_dict() == publish_pass.canonical_dict() \
        == store_pass.canonical_dict()
    # Provenance and wall time are the *only* fields allowed to differ.
    full = store_pass.as_dict()
    assert full["graph_source"] == "store"
    assert "graph_source" not in store_pass.canonical_dict()


# ---------------------------------------------------------------------------
# The fall-through chain
# ---------------------------------------------------------------------------

def test_chain_falls_through_lru_store_build(chain):
    scenario = get_scenario("dense-gnp")
    g1, src1 = graph_cache.scenario_graph_source(scenario, 14)
    assert src1 == "built"
    g2, src2 = graph_cache.scenario_graph_source(scenario, 14)
    assert src2 == "lru" and g2 is g1
    graph_cache.configure(graph_cache.DEFAULT_MAXSIZE)  # clears the LRU
    graph_cache.configure_store(chain.root)
    g3, src3 = graph_cache.scenario_graph_source(scenario, 14)
    assert src3 == "store"
    assert g3 is not g1 and g3.adj == g1.adj
    stats = graph_cache.stats()
    assert stats["store_hits"] == 1 and stats["publishes"] == 0
    assert chain.contains("dense-gnp", 14, scenario.seed_for(14, 0))


def test_chain_publishes_on_build(chain):
    scenario = get_scenario("path")
    graph_cache.scenario_graph(scenario, 12)
    assert graph_cache.stats()["publishes"] == 1
    assert chain.contains("path", 12, scenario.seed_for(12, 0))
    # A second process-fresh chain (simulated: wipe the LRU) store-hits.
    graph_cache.configure(graph_cache.DEFAULT_MAXSIZE)
    graph_cache.configure_store(chain.root)
    _, source = graph_cache.scenario_graph_source(scenario, 12)
    assert source == "store"


def test_store_config_propagates_through_environment(chain, monkeypatch):
    """Worker processes resolve the store from the parent's sweep config.

    The config reaches a worker as the pool initializer's argument; no
    environment variable carries it.
    """
    before = dict(os.environ)
    parent = config.current()
    # Simulate a freshly-started worker: pristine config until the pool
    # initializer installs the parent's.
    monkeypatch.setattr(executor, "_IN_WORKER", False)
    config.install(SweepConfig())
    assert graph_cache.effective_store() is None
    executor._init_worker(parent)
    resolved = graph_cache.effective_store()
    assert resolved is not None and str(resolved.root) == str(chain.root)
    graph_cache.configure_store(None)
    assert graph_cache.effective_store() is None
    assert dict(os.environ) == before


def test_degenerate_size_still_raises_with_store(chain):
    with pytest.raises(ValueError, match="size must be >= 3"):
        graph_cache.scenario_graph(get_scenario("path"), 2)


# ---------------------------------------------------------------------------
# Concurrent-writer safety
# ---------------------------------------------------------------------------

def _race_publish(args):
    root, barrier_unused = args
    store = FamilyStore(GRAPH_FAMILY, root)
    scenario = get_scenario("dense-gnp")
    size = 16
    derived = scenario.seed_for(size, 0)
    graph = scenario.graph(size)
    return store.publish(scenario.name, size, derived, graph)


def test_concurrent_publishers_land_one_valid_snapshot(tmp_path):
    """Racing pool workers: exactly one entry, every loser unharmed."""
    root = str(tmp_path / "store")
    with multiprocessing.Pool(2) as pool:
        outcomes = pool.map(_race_publish, [(root, None)] * 4)
    # At least one publisher won; the store holds exactly one complete,
    # loadable entry and no leftover temp directories.
    assert any(outcomes)
    store = FamilyStore(GRAPH_FAMILY, root)
    entries = store.ls()
    assert len(entries) == 1
    scenario = get_scenario("dense-gnp")
    loaded = store.load("dense-gnp", 16, scenario.seed_for(16, 0))
    assert loaded is not None and loaded.adj == scenario.graph(16).adj
    leftovers = [p for p in (tmp_path / "store").rglob("*")
                 if p.name.startswith(TMP_PREFIX)]
    assert leftovers == []


def test_lost_race_in_process_returns_false(tmp_path):
    store = FamilyStore(GRAPH_FAMILY, tmp_path)
    scenario, size, derived, graph = _publish(store, "cycle")
    assert store.publish(scenario.name, size, derived, graph) is False
    assert len(store.ls()) == 1


# ---------------------------------------------------------------------------
# Corruption: quarantine + rebuild, never a crash
# ---------------------------------------------------------------------------

def _entry_path(store, scenario, size, derived):
    return store.artifacts.entry_path(
        GRAPH_KIND, graph_key(scenario.name, size, derived))


def test_truncated_array_falls_back_to_rebuild(chain):
    scenario, size, derived, _ = _publish(chain, "dense-gnp", size=18)
    indices = _entry_path(chain, scenario, size, derived) / "indices.npy"
    indices.write_bytes(indices.read_bytes()[: indices.stat().st_size // 2])
    assert chain.load(scenario.name, size, derived) is None
    # The corrupt entry is quarantined...
    assert not chain.contains(scenario.name, size, derived)
    # ... and the chain rebuilds and republishes as if it never existed.
    graph, source = graph_cache.scenario_graph_source(scenario, 18)
    assert source == "built"
    assert graph.adj == scenario.graph(18).adj
    assert chain.contains(scenario.name, size, derived)


def test_mangled_manifest_falls_back_to_rebuild(chain):
    scenario, size, derived, _ = _publish(chain, "path", size=12)
    manifest = _entry_path(chain, scenario, size, derived) / MANIFEST_NAME
    manifest.write_text("{ not json")
    assert chain.load(scenario.name, size, derived) is None
    assert not chain.contains(scenario.name, size, derived)


def test_transient_oserror_is_a_miss_without_quarantine(tmp_path,
                                                        monkeypatch):
    """Resource blips (EMFILE, EACCES...) must not destroy valid
    snapshots: the read is a miss, the entry survives for next time."""
    from repro.store import artifacts as artifacts_mod

    store = FamilyStore(GRAPH_FAMILY, tmp_path)
    scenario, size, derived, _ = _publish(store, "cycle")

    def exhausted(*args, **kwargs):
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(artifacts_mod.np, "load", exhausted)
    assert store.load(scenario.name, size, derived) is None
    monkeypatch.undo()
    # The entry is intact and loads fine once the blip passes.
    assert store.contains(scenario.name, size, derived)
    assert store.load(scenario.name, size, derived) is not None


def test_mixed_int_float_weights_are_not_storable(tmp_path):
    """A heterogeneous weight dict would coerce ints to floats on the
    round trip; publish must refuse rather than corrupt a value."""
    from repro.graphs.graph import from_edges

    store = FamilyStore(GRAPH_FAMILY, tmp_path)
    mixed = from_edges(3, [(0, 1), (1, 2)],
                       weights={(0, 1): 1, (1, 2): 2.5})
    assert store.publish("mixed", 3, 0, mixed) is False
    assert store.ls() == []
    # Homogeneous floats remain storable.
    floats = from_edges(3, [(0, 1), (1, 2)],
                        weights={(0, 1): 1.5, (1, 2): 2.5})
    assert store.publish("floats", 3, 0, floats) is True
    loaded = store.load("floats", 3, 0)
    assert loaded.weights == floats.weights
    assert all(type(v) is float for v in loaded.weights.values())
    # Ints beyond int64 cannot round-trip either: refuse, don't wrap.
    huge = from_edges(3, [(0, 1), (1, 2)],
                      weights={(0, 1): 2 ** 70, (1, 2): 1})
    assert store.publish("huge", 3, 0, huge) is False


def test_wrong_schema_version_is_a_miss(tmp_path):
    store = FamilyStore(GRAPH_FAMILY, tmp_path)
    scenario, size, derived, _ = _publish(store, "cycle")
    manifest_path = _entry_path(store, scenario, size, derived) / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["schema_version"] = 999
    manifest_path.write_text(json.dumps(manifest))
    assert store.load(scenario.name, size, derived) is None


def test_inconsistent_csr_is_quarantined(tmp_path):
    """Arrays that parse but contradict the manifest are corruption too."""
    store = FamilyStore(GRAPH_FAMILY, tmp_path)
    scenario, size, derived, graph = _publish(store, "path", size=14)
    entry = _entry_path(store, scenario, size, derived)
    manifest_path = entry / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    # Shrink indptr while keeping its file/manifest shape in agreement.
    bad = np.asarray(graph._indptr[:-2])
    np.save(entry / "indptr.npy", bad)
    manifest["arrays"]["indptr"] = {
        "dtype": str(bad.dtype), "shape": list(bad.shape),
        "nbytes": int(bad.nbytes),
        "file_bytes": (entry / "indptr.npy").stat().st_size}
    manifest_path.write_text(json.dumps(manifest))
    assert store.load(scenario.name, size, derived) is None
    assert not store.contains(scenario.name, size, derived)


# ---------------------------------------------------------------------------
# Maintenance: warm, ls, stat, gc
# ---------------------------------------------------------------------------

def test_warm_then_gc_keep_last_and_max_bytes(tmp_path):
    store = FamilyStore(GRAPH_FAMILY, tmp_path)
    counts = warm(store.root, [get_scenario(n)
                               for n in ("path", "cycle", "dense-gnp")],
                  families=("graphs",))
    assert counts == {"published": 3, "skipped": 0}
    assert warm(store.root, [get_scenario("path")],
                families=("graphs",)) == {"published": 0, "skipped": 1}
    entries = store.ls()
    assert len(entries) == 3
    assert store.stat()["entries"] == 3
    assert store.stat()["bytes"] == sum(e.nbytes for e in entries)

    removed = store.gc(keep_last=2)
    assert len(removed) == 1 and len(store.ls()) == 2
    # max_bytes=0 clears everything that's left.
    removed = store.gc(max_bytes=0)
    assert len(removed) == 2 and store.ls() == []


def test_graph_view_gc_is_scoped_to_its_family(tmp_path):
    """Regression: graph-view gc used to prune every family at the root,
    deleting oracle and profile entries published beside the graph."""
    from repro.baselines.oracles import ORACLES
    from repro.congest.profile import RoundProfiler
    from repro.testing import run_differential

    graphs = FamilyStore(GRAPH_FAMILY, tmp_path)
    oracles = FamilyStore(ORACLE_FAMILY, tmp_path)
    profiles = FamilyStore(PROFILE_FAMILY, tmp_path)
    scenario = get_scenario("path")
    size = scenario.default_size
    derived = scenario.seed_for(size, 0)
    graph = scenario.graph(size)
    spec = ORACLES["unweighted-apsp"]
    assert graphs.publish("path", size, derived, graph)
    assert oracles.publish("path", size, derived, spec,
                           spec.compute(graph, derived))
    profiler = RoundProfiler()
    run_differential("path", "apsp-unweighted", profiler=profiler)
    identity = profile_identity("path", "apsp-unweighted", size, 0)
    assert profiles.publish(identity, profiler.profile())

    assert graphs.gc(keep_last=1) == []
    assert graphs.stat()["families"] == {
        "graphs": {"entries": 1, "bytes": graphs.ls()[0].nbytes}}
    assert len(graphs.ls()) == len(oracles.ls()) == len(profiles.ls()) == 1
    assert graphs.gc(keep_last=0) and graphs.ls() == []
    assert len(oracles.ls()) == len(profiles.ls()) == 1


def test_gc_sweeps_only_abandoned_temp_dirs(tmp_path):
    """gc removes crashed publishers' leftovers (old tmp dirs) but must
    never touch a live concurrent publisher's fresh tmp dir."""
    import time

    from repro.store.artifacts import TMP_SWEEP_AGE_SECONDS

    store = FamilyStore(GRAPH_FAMILY, tmp_path)
    _publish(store, "path")
    bucket = tmp_path / GRAPH_KIND / "ab"
    abandoned = bucket / f"{TMP_PREFIX}abandoned-123-dead"
    abandoned.mkdir(parents=True)
    (abandoned / "indptr.npy").write_bytes(b"partial")
    stale = time.time() - TMP_SWEEP_AGE_SECONDS - 60
    os.utime(abandoned, (stale, stale))
    live = bucket / f"{TMP_PREFIX}inflight-456-beef"
    live.mkdir()
    assert store.gc(keep_last=10) == []
    assert not abandoned.exists()
    assert live.exists(), "a live publisher's tmp dir must survive gc"
    assert len(store.ls()) == 1


def test_gc_rejects_negative_budgets(tmp_path):
    store = ArtifactStore(tmp_path)
    with pytest.raises(ValueError):
        store.gc(keep_last=-1)
    with pytest.raises(ValueError):
        store.gc(max_bytes=-1)


# ---------------------------------------------------------------------------
# Engine + CLI integration
# ---------------------------------------------------------------------------

def test_sweep_manifest_records_cache_and_store(tmp_path):
    runs = RunStore(tmp_path / "runs")
    store_dir = str(tmp_path / "graph-store")
    config.update(graph_store=store_dir, graph_cache_size=0)
    first = run_sweep(["path", "cycle"], store=runs)
    assert first.run.manifest["graph_cache_size"] == 0
    assert first.run.manifest["graph_store"] == store_dir
    # With the LRU off, path's first cell builds + publishes and its
    # second same-key cell already hits the store; cycle builds.
    sources = first.summary()["graph_sources"]
    assert sources == {"built": 2, "store": 1}
    assert FamilyStore(GRAPH_FAMILY, store_dir).ls()  # the sweep warmed the store

    # A second sweep over the warm store serves every graph from
    # disk -- with byte-identical canonical records.
    second = run_sweep(["path", "cycle"], store=runs, fresh=True)
    assert second.summary()["graph_sources"] == {"store": 3}
    assert [r.canonical_record() for r in first.results] == \
        [r.canonical_record() for r in second.results]


def test_parallel_sweep_workers_share_the_store(tmp_path):
    """Pool workers publish into and read from one shared store."""
    store_dir = str(tmp_path / "graph-store")
    config.update(graph_store=store_dir, graph_cache_size=0)
    cold = run_sweep(["dense-gnp", "power-law"], workers=2)
    assert cold.ok
    store = FamilyStore(GRAPH_FAMILY, store_dir)
    assert len(store.ls()) == 2  # one snapshot per scenario x size
    warm_run = run_sweep(["dense-gnp", "power-law"], workers=2)
    assert warm_run.ok
    assert warm_run.summary()["graph_sources"] == {
        "store": len(warm_run.results)}
    assert [r.canonical_record() for r in cold.results] == \
        [r.canonical_record() for r in warm_run.results]


def test_restored_cells_do_not_pollute_graph_source_summary(tmp_path):
    """A resumed sweep reports provenance for *its* cells only: records
    restored from a store-era run must not claim disk hits in a
    storeless re-invocation (they carry the old run's cache state)."""
    runs = RunStore(tmp_path / "runs")
    store_dir = str(tmp_path / "graph-store")

    class Stop(Exception):
        pass

    seen = []

    def interrupt(result):
        seen.append(result)
        if len(seen) == 2:
            raise Stop()

    config.update(graph_store=store_dir, graph_cache_size=0)
    with pytest.raises(Stop):
        run_sweep(["path", "cycle"], store=runs, revision="rev-A",
                  on_result=interrupt)
    graph_cache.configure_store(None)
    resumed = run_sweep(["path", "cycle"], store=runs,
                        revision="rev-A")
    assert resumed.resumed and resumed.skipped == 2
    sources = resumed.summary()["graph_sources"]
    assert sum(sources.values()) == resumed.executed == 1
    assert "store" not in sources


def test_cli_store_family(tmp_path, capsys):
    """warm/ls/stat/gc over both families, with --family scoping."""
    store_dir = str(tmp_path / "store")
    # warm defaults to graphs + oracles: path and cycle each publish one
    # graph snapshot and one unweighted-apsp baseline.
    assert main(["store", "warm", "--names", "path", "cycle",
                 "--store-dir", store_dir]) == 0
    assert "4 published" in capsys.readouterr().out
    assert main(["store", "ls", "--store-dir", store_dir]) == 0
    out = capsys.readouterr().out
    assert "path" in out and "cycle" in out and "4 artifact(s)" in out
    assert "graphs" in out and "oracles" in out
    # --family filters the listing to one family.
    assert main(["store", "ls", "--store-dir", store_dir,
                 "--family", "graphs", "--json"]) == 0
    graphs = json.loads(capsys.readouterr().out)
    assert len(graphs) == 2
    assert all(entry["family"] == "graphs" for entry in graphs)
    assert main(["store", "stat", "--store-dir", store_dir, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 4 and stats["bytes"] > 0
    assert set(stats["families"]) == {"graphs", "oracles"}
    assert all(bucket == {"entries": 2, "bytes": bucket["bytes"]}
               for bucket in stats["families"].values())
    # Family-scoped gc prunes oracles only; the graph snapshots survive.
    assert main(["store", "gc", "--keep-last", "1",
                 "--family", "oracles", "--store-dir", store_dir]) == 0
    assert "1 artifact(s) removed" in capsys.readouterr().out
    assert main(["store", "stat", "--store-dir", store_dir, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["families"]["graphs"]["entries"] == 2
    assert stats["families"]["oracles"]["entries"] == 1
    # A store written before a family was retired keeps that family's
    # directory: ls/stat still list its entry, --family rejects the
    # name, and only an unscoped gc prunes it.
    legacy = tmp_path / "store" / "retired" / "ab" / "ab0123456789abcdef0123"
    legacy.mkdir(parents=True)
    (legacy / MANIFEST_NAME).write_text(json.dumps({
        "kind": "retired", "key": legacy.name, "arrays": {},
        "identity": {"name": "sweep-0123", "sequence": 1},
        "created_at": 1.0}))
    assert main(["store", "ls", "--store-dir", store_dir]) == 0
    assert "4 artifact(s)" in capsys.readouterr().out
    assert main(["store", "ls", "--store-dir", store_dir, "--json"]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert listed[0] == {"key": legacy.name, "family": "retired",
                         "name": "sweep-0123", "sequence": 1,
                         "bytes": 0, "created_at": 1.0}
    assert len(listed) == 4
    assert main(["store", "stat", "--store-dir", store_dir, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 4
    assert stats["families"]["retired"] == {"entries": 1, "bytes": 0}
    assert main(["store", "ls", "--family", "retired",
                 "--store-dir", store_dir]) == 2
    assert "unknown artifact family" in capsys.readouterr().err
    assert main(["store", "gc", "--keep-last", "0", "--dry-run",
                 "--store-dir", store_dir, "--json"]) == 0
    preview = json.loads(capsys.readouterr().out)
    assert legacy.name in preview["removed"] and len(preview["removed"]) == 4
    assert legacy.is_dir()
    assert main(["store", "gc", "--keep-last", "0",
                 "--store-dir", store_dir]) == 0
    assert "4 artifact(s) removed" in capsys.readouterr().out
    assert not legacy.exists()
    assert main(["store", "ls", "--store-dir", store_dir, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_cli_store_rejects_unknown_family(tmp_path, capsys):
    assert main(["store", "ls", "--family", "no-such-family",
                 "--store-dir", str(tmp_path / "gs")]) == 2
    assert "unknown artifact family" in capsys.readouterr().err


def test_cli_store_gc_requires_a_budget(tmp_path, capsys):
    assert main(["store", "gc",
                 "--store-dir", str(tmp_path / "gs")]) == 2
    assert "--keep-last and/or --max-bytes" in capsys.readouterr().err


def test_cli_store_gc_negative_budget_is_clean_error(tmp_path, capsys):
    assert main(["store", "gc", "--keep-last", "-1",
                 "--store-dir", str(tmp_path / "gs")]) == 2
    assert "keep_last must be >= 0" in capsys.readouterr().err


def test_cli_store_warm_unknown_scenario_is_clean_error(tmp_path, capsys):
    assert main(["store", "warm", "--names", "no-such-scenario",
                 "--store-dir", str(tmp_path / "gs")]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_sweep_store_flags(tmp_path, capsys):
    runs_dir = str(tmp_path / "runs")
    base = ["sweep", "--runs-dir", runs_dir, "--names", "path"]
    assert main(base) == 0
    out = capsys.readouterr().out
    # Every sweep starts with empty LRUs: path's first cell builds +
    # publishes, the second cell of the same key is served from the
    # LRU -- for the graph and the shared unweighted-apsp baseline
    # alike.
    assert "graph sources: 1 built, 1 lru" in out
    assert "oracle sources: 1 computed, 1 lru" in out
    # Default --store-dir co-locates the artifacts with the runs.
    assert (tmp_path / "runs" / "store").is_dir()
    assert main(base + ["--fresh"]) == 0
    out = capsys.readouterr().out
    assert "graph sources: 1 lru, 1 store" in out
    assert "oracle sources: 1 lru, 1 store" in out
    # --no-store disconnects every chain.
    assert main(base + ["--no-store", "--fresh"]) == 0
    out = capsys.readouterr().out
    assert "graph sources: 1 built, 1 lru" in out
    assert "graph store off" in out
    assert ("oracle sources: 1 computed, 1 lru" in out
            and "oracle store off" in out)


STORE_BENCHES = [("graph-store", "BENCH_graph_store.json",
                  "sweep_construction_warm_vs_cold"),
                 ("oracle-store", "BENCH_oracle_store.json",
                  "sweep_baselines_warm_vs_cold"),
                 ("decomposition-pipeline",
                  "BENCH_decomposition_pipeline.json",
                  "pipeline_inputs_warm_vs_cold")]


@pytest.mark.parametrize("name, json_name, headline", STORE_BENCHES,
                         ids=[name for name, *_ in STORE_BENCHES])
def test_bench_cli_store_smoke(tmp_path, capsys, name, json_name, headline):
    assert main(["bench", name, "--smoke", "--json",
                 "--out", str(tmp_path)]) == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert report["benchmark"] == name
    assert report["metadata"]["extra"]["smoke"] is True
    assert (tmp_path / json_name).is_file()
    assert headline in report["speedup"]


@pytest.mark.parametrize("name", [name for name, *_ in STORE_BENCHES])
def test_store_bench_raises_before_timing_on_a_diverged_load(monkeypatch,
                                                             name):
    """A published artifact that does not load back equal stops the
    benchmark before anything is timed (an explicit raise, not an
    assert, so it holds under ``python -O``)."""
    from repro import bench
    from repro.store import FamilyStore

    def never_timed(*args, **kwargs):
        raise AssertionError("timed before the load-back check")

    monkeypatch.setattr(bench, "best_of", never_timed)
    monkeypatch.setattr(FamilyStore, "load", lambda self, *coords: None)
    with pytest.raises(RuntimeError, match="diverged"):
        bench.run_benchmark(name, smoke=True)


def test_fastpath_bench_smoke_runs_a_small_graph(tmp_path, capsys):
    assert main(["bench", "simulator-fastpath", "--smoke", "--json",
                 "--out", str(tmp_path)]) == 0
    (report,) = json.loads(capsys.readouterr().out)
    extra = report["metadata"]["extra"]
    assert extra["smoke"] is True and extra["n"] < 200
    assert set(report["timings_seconds"]) == {
        f"{label}.{path}" for label in ("bfs_flood", "luby_mis")
        for path in ("seed_scalar_path", "vectorized_fast_path")}
    assert (tmp_path / "BENCH_simulator_fastpath.json").is_file()


def test_fastpath_bench_raises_on_a_diverging_run(monkeypatch):
    """The simulator-fastpath exactness check is an explicit raise too."""
    import repro.congest.machine
    import repro.graphs
    from repro import bench

    small = repro.graphs.gnp(12, 0.5, seed=7)
    monkeypatch.setattr(repro.graphs, "gnp", lambda *args, **kw: small)
    run_machines = repro.congest.machine.run_machines

    def diverging(graph, factory, **kwargs):
        report = run_machines(graph, factory, **kwargs)
        if current_cell().engine == "reference":
            report.metrics.messages += 1
        return report

    monkeypatch.setattr(repro.congest.machine, "run_machines", diverging)
    with pytest.raises(RuntimeError, match="diverged"):
        bench.run_benchmark("simulator-fastpath")


# ---------------------------------------------------------------------------
# Quarantine inventory + gc --dry-run (the fault-plane maintenance PR)
# ---------------------------------------------------------------------------

def test_quarantined_entry_is_held_counted_and_drained(tmp_path):
    """A corrupt entry moves to .quarantine/<kind>/ (post-mortem held,
    out of the addressable namespace), shows up in stat, and is drained
    by a real gc -- but never by a dry run."""
    store = FamilyStore(GRAPH_FAMILY, tmp_path)
    scenario, size, derived, _ = _publish(store, "path")
    entry = store.artifacts.entry_path(
        GRAPH_KIND, graph_key(scenario.name, size, derived))
    (entry / MANIFEST_NAME).write_text("{ not json")

    assert store.load(scenario.name, size, derived) is None
    assert not entry.exists()
    from repro.store import QUARANTINE_DIR
    held = list((tmp_path / QUARANTINE_DIR / GRAPH_KIND).iterdir())
    assert len(held) == 1 and (held[0] / "indptr.npy").is_file()

    arts = store.artifacts
    assert arts.quarantined_counts() == {GRAPH_KIND: 1}
    assert arts.quarantined_counts("oracles") == {}
    stats = arts.stat()
    assert stats["quarantined"] == 1
    assert stats["families"][GRAPH_KIND]["quarantined"] == 1
    # The quarantined entry is invisible to ls (no phantom families).
    assert arts.ls() == []

    # Dry run: nothing is deleted, neither entries nor quarantine.
    assert arts.gc(keep_last=0, dry_run=True) == []
    assert arts.quarantined_counts() == {GRAPH_KIND: 1}
    # Real gc drains the quarantine even when no entry is removed.
    assert arts.gc(keep_last=10) == []
    assert arts.quarantined_counts() == {}
    assert arts.stat()["quarantined"] == 0


def test_gc_dry_run_reports_without_removing(tmp_path):
    store = FamilyStore(GRAPH_FAMILY, tmp_path)
    for name in ("path", "cycle", "dense-gnp"):
        _publish(store, name)
    arts = store.artifacts
    would = arts.gc(keep_last=1, dry_run=True)
    assert len(would) == 2
    assert arts.stat()["entries"] == 3  # nothing was touched
    removed = arts.gc(keep_last=1)
    assert [e.key for e in removed] == [e.key for e in would]
    assert arts.stat()["entries"] == 1


def test_gc_quarantine_drain_respects_family_scope(tmp_path):
    """gc --family graphs must not drain another family's quarantine."""
    from repro.store import QUARANTINE_DIR

    arts = ArtifactStore(tmp_path)
    for kind in ("graphs", "oracles"):
        victim = tmp_path / QUARANTINE_DIR / kind / "deadbeef-0"
        victim.mkdir(parents=True)
        (victim / "junk").write_text("x")
    arts.gc(keep_last=0, kind="graphs")
    assert arts.quarantined_counts() == {"oracles": 1}
    arts.gc(keep_last=0)
    assert arts.quarantined_counts() == {}


def test_cli_store_stat_and_gc_surface_quarantine(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    assert main(["store", "warm", "--names", "path",
                 "--store-dir", store_dir]) == 0
    capsys.readouterr()
    # Corrupt the graph snapshot so the next read quarantines it.
    store = FamilyStore(GRAPH_FAMILY, store_dir)
    scenario = get_scenario("path")
    derived = scenario.seed_for(scenario.default_size, 0)
    entry = store.artifacts.entry_path(
        GRAPH_KIND, graph_key("path", scenario.default_size, derived))
    (entry / MANIFEST_NAME).write_text("{ not json")
    assert store.load("path", scenario.default_size, derived) is None

    assert main(["store", "stat", "--store-dir", store_dir]) == 0
    out = capsys.readouterr().out
    assert "quarantined: 1 corrupt entry" in out
    assert "1 quarantined" in out
    assert main(["store", "stat", "--store-dir", store_dir,
                 "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["quarantined"] == 1
    assert stats["families"]["graphs"]["quarantined"] == 1

    # Dry run previews; the store (and quarantine) are untouched.
    assert main(["store", "gc", "--keep-last", "0", "--dry-run",
                 "--store-dir", store_dir]) == 0
    out = capsys.readouterr().out
    assert "would be removed (dry run)" in out and "freeable" in out
    assert store.artifacts.quarantined_counts() == {"graphs": 1}
    # A real gc drains it.
    assert main(["store", "gc", "--keep-last", "0",
                 "--store-dir", store_dir]) == 0
    capsys.readouterr()
    assert store.artifacts.quarantined_counts() == {}
