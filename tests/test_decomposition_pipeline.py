"""The decomposition plane on the sweep path (ISSUE 6).

Mirror of ``tests/test_oracle_store.py`` for the third artifact family
and the first real multi-stage pipeline through the store: the ``ldc``
producer cell realizes the Lemma 2.4 decomposition, publishes its
snapshot, and the staged MPX-cover / LDC-spanner / Baswana-Sen cells
consume it through :mod:`repro.runner.decomposition_cache`.  Pins:

* **byte identity** -- records of every pipeline cell are identical
  with the decomposition store enabled vs disabled;
  ``decomposition_source`` is provenance (a ``NONDETERMINISTIC_FIELD``)
  and never a canonical record byte;
* **fall-through chain** -- LRU -> disk store -> compute-and-publish,
  sibling cells sharing one snapshot;
* **store edge cases** -- empty F-edge sets round-trip, length-mangled
  entries are quarantined, racing publishers land one valid entry;
* **engine integration** -- warm parallel sweeps serve every
  downstream cell's input from disk, and manifests record the
  decomposition settings + per-family counters;
* **sweep accounting regressions** -- resumed runs *merge* (not
  overwrite) ``store_counters`` across invocations, ``"none"`` rows
  are dropped consistently by the summary and the manifest,
  ``wall_time`` covers executed cells only, and negative cache sizes
  clamp at ``configure`` in all three chains.
"""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.runner import (
    RunStore,
    SweepConfig,
    config,
    decomposition_cache,
    executor,
    graph_cache,
    oracle_cache,
    run_sweep,
)
from repro.runner.engine import SweepOutcome
from repro.scenarios import get_scenario
from repro.scenarios.bindings import BINDINGS
from repro.runner.chain import warm
from repro.store import DECOMPOSITION_FAMILY, FamilyStore, decomposition_key
from repro.store.decompositions import DECOMPOSITION_KIND
from repro.testing import run_differential

# Every staged consumer plus the producer, across the scenarios that
# carry them: the byte-identity matrix the acceptance criteria name.
PIPELINE_CELLS = (
    ("dense-gnp", "ldc"),
    ("dense-gnp", "mpx-cover"),
    ("dense-gnp", "ldc-spanner"),
    ("grid", "bs-hierarchy"),
    ("sparse-gnp", "mpx-cover"),
)


@pytest.fixture
def dchain(tmp_path):
    """A fresh decomposition chain on a tmp store."""
    decomposition_cache.configure_store(tmp_path / "store")
    return FamilyStore(DECOMPOSITION_FAMILY, tmp_path / "store")


def _cell_coords(name, size=None, seed=0):
    scenario = get_scenario(name)
    size = scenario.default_size if size is None else size
    return scenario, size, scenario.seed_for(size, seed)


def _grid_snapshot(size=16, seed=0):
    scenario, size, derived = _cell_coords("grid", size, seed)
    graph = scenario.graph(size, seed=seed)
    return derived, decomposition_cache.compute_snapshot("ldc", graph,
                                                         derived)


# ---------------------------------------------------------------------------
# Byte identity: store on/off must not change a canonical record byte
# ---------------------------------------------------------------------------

@pytest.mark.scenario
@pytest.mark.parametrize("name,algorithm", PIPELINE_CELLS,
                         ids=[f"{n}-{a}" for n, a in PIPELINE_CELLS])
def test_records_identical_from_decomposition_store(name, algorithm,
                                                    dchain):
    decomposition_cache.configure_store(None)
    decomposition_cache.configure(0)
    computed = run_differential(name, algorithm, seed=3)
    decomposition_cache.configure_store(dchain.root)
    decomposition_cache.configure(0)  # LRU off: force the store path
    publish_pass = run_differential(name, algorithm, seed=3)
    store_pass = run_differential(name, algorithm, seed=3)
    assert computed.decomposition_source == "computed"
    assert publish_pass.decomposition_source == "computed"  # + published
    assert store_pass.decomposition_source == "store"
    assert computed.canonical_dict() == publish_pass.canonical_dict() \
        == store_pass.canonical_dict()
    # Provenance is excluded from the canonical payload by
    # NONDETERMINISTIC_FIELDS, like wall_time and the sibling sources.
    assert store_pass.as_dict()["decomposition_source"] == "store"
    assert "decomposition_source" not in store_pass.canonical_dict()


def test_non_pipeline_cell_records_none():
    record = run_differential("dense-gnp", "apsp-unweighted")
    assert record.decomposition_source == "none"
    assert BINDINGS["apsp-unweighted"].decomposition is None
    for algorithm in ("ldc", "mpx-cover", "ldc-spanner", "bs-hierarchy"):
        assert BINDINGS[algorithm].decomposition == "ldc"


def test_one_snapshot_serves_every_sibling_cell_from_lru(dchain):
    """The staged pipeline: the producer computes (and publishes) once,
    every downstream cell of the scenario x size LRU-hits it."""
    sources = {a: run_differential("dense-gnp", a, seed=5)
               .decomposition_source
               for a in ("ldc", "mpx-cover", "ldc-spanner", "bs-hierarchy")}
    assert sources == {"ldc": "computed", "mpx-cover": "lru",
                       "ldc-spanner": "lru", "bs-hierarchy": "lru"}
    assert len(dchain.ls()) == 1  # one artifact for all four bindings


# ---------------------------------------------------------------------------
# The fall-through chain
# ---------------------------------------------------------------------------

def test_chain_falls_through_lru_store_compute(dchain):
    scenario, size, derived = _cell_coords("grid", size=16)
    graph = scenario.graph(size)
    v1, src1 = decomposition_cache.decomposition_value_source(
        scenario.name, size, derived, "ldc", graph)
    assert src1 == "computed"
    v2, src2 = decomposition_cache.decomposition_value_source(
        scenario.name, size, derived, "ldc", graph)
    assert src2 == "lru" and v2 is v1
    decomposition_cache.configure(
        decomposition_cache.DEFAULT_MAXSIZE)  # clears the LRU
    decomposition_cache.configure_store(dchain.root)
    v3, src3 = decomposition_cache.decomposition_value_source(
        scenario.name, size, derived, "ldc", graph)
    assert src3 == "store"
    assert v3 is not v1 and v3 == v1
    stats = decomposition_cache.stats()
    assert stats["store_hits"] == 1 and stats["publishes"] == 0
    assert dchain.contains(scenario.name, size, derived, "ldc")


def test_unknown_decomposition_algorithm_is_an_error():
    scenario, size, derived = _cell_coords("grid", size=16)
    with pytest.raises(KeyError, match="unknown decomposition"):
        decomposition_cache.compute_snapshot("no-such", scenario.graph(size),
                                             derived)


def test_store_config_propagates_through_environment(dchain, monkeypatch):
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
    assert decomposition_cache.effective_store() is None
    executor._init_worker(parent)
    resolved = decomposition_cache.effective_store()
    assert resolved is not None and str(resolved.root) == str(dchain.root)
    decomposition_cache.configure_store(None)
    assert decomposition_cache.effective_store() is None
    assert dict(os.environ) == before


def test_configure_clamps_negative_sizes_in_every_chain():
    """Regression: `configure` used to accept a negative capacity
    verbatim, so the parent and its pool could disagree about the
    effective LRU size (and the manifest recorded the unclamped
    value).  The config clamps it once, for everyone."""
    for chain in (graph_cache, oracle_cache, decomposition_cache):
        chain.configure(-5)
        assert chain.effective_maxsize() == 0


# ---------------------------------------------------------------------------
# Store edge cases: empty F, mangled lengths, racing publishers
# ---------------------------------------------------------------------------

def test_empty_f_edge_set_round_trips(tmp_path):
    """A decomposition whose clusters absorb every edge publishes an
    empty (0, 2) F array and loads back exactly."""
    derived, snapshot = _grid_snapshot()
    lone = dict(snapshot, f_edges=[])
    store = FamilyStore(DECOMPOSITION_FAMILY, tmp_path)
    assert store.publish("grid", 16, derived, "ldc", lone)
    loaded = store.load("grid", 16, derived, "ldc")
    assert loaded == lone
    assert loaded["f_edges"] == []


def test_length_mismatch_is_quarantined(tmp_path):
    """center/parent arrays shorter than the manifest's n are
    corruption: the entry is dropped and the chain recomputes."""
    derived, snapshot = _grid_snapshot()
    store = FamilyStore(DECOMPOSITION_FAMILY, tmp_path)
    assert store.publish("grid", 16, derived, "ldc", snapshot)
    entry = store.artifacts.entry_path(
        DECOMPOSITION_KIND, decomposition_key("grid", 16, derived, "ldc"))
    for mangled in ("center.npy", "parent.npy"):
        np.save(entry / mangled, np.arange(3, dtype=np.int64))
        assert store.load("grid", 16, derived, "ldc") is None
        assert not store.contains("grid", 16, derived, "ldc")
        assert store.publish("grid", 16, derived, "ldc", snapshot)
    assert store.load("grid", 16, derived, "ldc") == snapshot


def _race_publish(root):
    derived, snapshot = _grid_snapshot()
    return FamilyStore(DECOMPOSITION_FAMILY, root).publish("grid", 16, derived, "ldc",
                                            snapshot)


def test_concurrent_publishers_land_one_valid_entry(tmp_path):
    """Racing pool workers: exactly one entry, every loser unharmed."""
    root = str(tmp_path / "store")
    with multiprocessing.Pool(2) as pool:
        outcomes = pool.map(_race_publish, [root] * 4)
    assert any(outcomes)
    store = FamilyStore(DECOMPOSITION_FAMILY, root)
    assert len(store.ls()) == 1
    derived, snapshot = _grid_snapshot()
    assert store.load("grid", 16, derived, "ldc") == snapshot


# ---------------------------------------------------------------------------
# Maintenance: warm (decomposition family)
# ---------------------------------------------------------------------------

def test_warm_decompositions_counts(tmp_path):
    store = FamilyStore(DECOMPOSITION_FAMILY, tmp_path)
    scenarios = [get_scenario(n) for n in ("dense-gnp", "grid", "path")]
    # dense-gnp's four pipeline bindings and grid's two all name the one
    # "ldc" producer -> one snapshot per scenario; path has none.
    assert warm(store.root, scenarios, families=("decompositions",)) == {
        "published": 2, "skipped": 0}
    assert warm(store.root, scenarios, families=("decompositions",)) == {
        "published": 0, "skipped": 2}
    assert len(store.ls()) == 2


def test_warm_cli_family_decompositions(tmp_path, capsys):
    from repro.cli import main

    assert main(["store", "warm", "--family", "decompositions",
                 "--names", "grid", "--store-dir", str(tmp_path),
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["published"] == 1
    assert payload["families"] == ["decompositions"]
    assert len(FamilyStore(DECOMPOSITION_FAMILY, tmp_path).ls()) == 1


# ---------------------------------------------------------------------------
# Engine integration + the sweep accounting regressions
# ---------------------------------------------------------------------------

def _every_store_no_lru(store_dir):
    """Connect every chain to ``store_dir`` with its LRU off."""
    config.update(graph_store=store_dir, graph_cache_size=0,
                  oracle_store=store_dir, oracle_cache_size=0,
                  decomposition_store=store_dir, decomposition_cache_size=0)


def test_sweep_manifest_records_decomposition_settings_and_counters(
        tmp_path):
    runs = RunStore(tmp_path / "runs")
    store_dir = str(tmp_path / "store")
    _every_store_no_lru(store_dir)
    cold = run_sweep(["dense-gnp"], store=runs)
    assert cold.run.manifest["decomposition_cache_size"] == 0
    assert cold.run.manifest["decomposition_store"] == store_dir
    # LRU off: the ldc cell computes + publishes the snapshot, the
    # three staged cells load it from disk.
    assert cold.summary()["decomposition_sources"] == {"computed": 1,
                                                       "store": 3}
    counters = cold.run.manifest["store_counters"]
    assert counters["decompositions"] == {"computed": 1, "store": 3}
    warm_run = run_sweep(["dense-gnp"], store=runs, fresh=True)
    assert warm_run.summary()["decomposition_sources"] == {"store": 4}
    assert warm_run.run.manifest["store_counters"]["decompositions"] \
        == {"store": 4}
    assert [r.canonical_record() for r in cold.results] == \
        [r.canonical_record() for r in warm_run.results]


def test_parallel_sweep_workers_share_the_decomposition_store(tmp_path):
    """Pool workers resolve the store from the env and serve every
    downstream cell's input snapshot from disk on the warm pass."""
    store_dir = str(tmp_path / "store")
    _every_store_no_lru(store_dir)
    cold = run_sweep(["dense-gnp", "grid"], workers=2)
    assert cold.ok
    assert len(FamilyStore(DECOMPOSITION_FAMILY, store_dir).ls()) == 2  # one each
    warm_run = run_sweep(["dense-gnp", "grid"], workers=2)
    assert warm_run.ok
    assert set(warm_run.summary()["decomposition_sources"]) == {"store"}
    assert [r.canonical_record() for r in cold.results] == \
        [r.canonical_record() for r in warm_run.results]


class _Interrupt(Exception):
    pass


def test_resumed_sweep_merges_store_counters_across_invocations(tmp_path):
    """Regression: resuming used to stamp only the resumed invocation's
    counts over the manifest, erasing the first invocation's.  The
    stamped counters must equal the union of both invocations'
    executed cells."""
    runs = RunStore(tmp_path / "runs")
    store_dir = str(tmp_path / "store")
    seen = []

    def interrupt(result):
        seen.append(result)
        if len(seen) == 5:  # through dense-gnp's mpx-cover cell
            raise _Interrupt()

    _every_store_no_lru(store_dir)
    with pytest.raises(_Interrupt):
        run_sweep(["dense-gnp"], store=runs, on_result=interrupt)
    (partial_run,) = runs.list_runs()
    partial = partial_run.manifest
    # Interrupted mid-sweep, the manifest still covers what ran:
    # ldc computed + published, mpx-cover loaded.
    assert partial["store_counters"]["decompositions"] == {
        "computed": 1, "store": 1}

    resumed = run_sweep(["dense-gnp"], store=runs)
    assert resumed.resumed and resumed.executed == 2
    assert resumed.skipped == 5
    counters = resumed.run.manifest["store_counters"]
    # The union of both invocations' executed cells -- invocation
    # one's computed/built rows must survive the resume stamp.
    assert counters["decompositions"] == {"computed": 1, "store": 3}
    assert counters["graphs"] == {"built": 1, "store": 6}
    assert counters["oracles"] == {"computed": 5, "store": 1}
    assert sum(counters["graphs"].values()) == 7  # every executed cell

    # wall_time regression: the resumed invocation's summary bills
    # only its own two executed cells; the restored five count only
    # toward the cumulative figure.
    summary = resumed.summary()
    executed_time = sum(r.wall_time for r in resumed.results
                        if r.key not in resumed.restored_keys)
    total_time = sum(r.wall_time for r in resumed.results)
    assert summary["wall_time"] == executed_time
    assert summary["wall_time_total"] == total_time
    assert executed_time < total_time


def test_summary_and_manifest_drop_none_rows_consistently(tmp_path):
    """Regression: the manifest counters used to include a ``"none"``
    row (cover's missing oracle, non-pipeline cells' missing
    decomposition) that the summary excluded, so the two disagreed
    about the same sweep."""
    runs = RunStore(tmp_path / "runs")
    outcome = run_sweep(["dense-gnp"], store=runs)
    summary = outcome.summary()
    counters = outcome.run.manifest["store_counters"]
    assert counters["oracles"] == summary["oracle_sources"]
    assert counters["decompositions"] == summary["decomposition_sources"]
    for family in ("graphs", "oracles", "decompositions"):
        assert "none" not in counters[family]
    # 7 cells; cover carries no oracle; only the 4 pipeline cells
    # carry a decomposition.
    assert sum(counters["oracles"].values()) == 6
    assert sum(counters["decompositions"].values()) == 4


def test_wall_time_splits_executed_from_restored():
    """Unit form of the wall_time regression: restored cells move to
    the cumulative figure only."""
    outcome = run_sweep(["path"])
    assert outcome.results
    split = SweepOutcome(results=outcome.results, executed=0,
                         skipped=len(outcome.results),
                         restored_keys={r.key for r in outcome.results})
    assert split.summary()["wall_time"] == 0.0
    assert split.summary()["wall_time_total"] == \
        outcome.summary()["wall_time"]
