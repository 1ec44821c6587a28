"""The oracle artifact family + cache chain (ISSUE 5).

Mirror of ``tests/test_store.py`` for the second artifact family.
Pins the tentpole contract:

* **byte identity** -- differential cell records are byte-identical
  with the oracle store enabled vs disabled, across algorithm families
  (apsp, bfs, matching, decomposition); ``oracle_source`` is
  provenance (a ``NONDETERMINISTIC_FIELD``) and never changes a
  canonical record byte;
* **codec exactness** -- ``decode(encode(v)) == v`` for every
  registered oracle, down to Python value types;
* **fall-through chain** -- LRU -> disk store -> compute-and-publish;
* **revision rotation** -- the baseline's source hash is part of the
  key, so editing an oracle function misses the cache instead of
  serving a stale ground truth;
* **concurrent-writer safety** and **corruption fallback** -- racing
  publishers land one valid entry; truncated arrays, mangled
  manifests, and values that decode to garbage are quarantined and
  recomputed;
* **family registry** -- identity schemas are validated, families
  enumerate generically (including the decomposition family, whose
  pipeline behavior lives in ``tests/test_decomposition_pipeline.py``);
* **engine integration** -- manifests record the oracle cache/store
  settings plus per-family store hit/miss counters, and warm parallel
  sweeps serve every baseline from disk.
"""

import dataclasses
import json
import multiprocessing
import os
import sys

import numpy as np
import pytest

from repro.baselines import reference
from repro.baselines.oracles import (
    ORACLES,
    OracleSpec,
    oracle_revision,
)
from repro.runner import RunStore, SweepConfig, config, executor, \
    oracle_cache, run_sweep
from repro.scenarios import get_scenario
from repro.scenarios.bindings import BINDINGS
from repro.runner.chain import warm
from repro.store import (
    DECOMPOSITION_FAMILY,
    GRAPH_FAMILY,
    ArtifactStore,
    FamilyStore,
    family_names,
    get_family,
    oracle_key,
)
from repro.store.artifacts import MANIFEST_NAME, TMP_PREFIX
from repro.store.oracles import ORACLE_FAMILY, ORACLE_KIND
from repro.testing import run_differential

# One cell per algorithm family with a sequential baseline: the byte-
# identity matrix the acceptance criteria name.
ORACLE_CELLS = (
    ("dense-gnp", "apsp-unweighted"),
    ("grid-weighted", "apsp-weighted"),
    ("dense-gnp", "bfs-collection"),
    ("bipartite-balanced", "matching"),
    ("grid", "ldc"),
)


@pytest.fixture
def ochain(tmp_path):
    """A fresh oracle chain connected to a tmp store."""
    oracle_cache.configure_store(tmp_path / "store")
    return FamilyStore(ORACLE_FAMILY, tmp_path / "store")


def _cell_coords(name, algorithm, size=None, seed=0):
    scenario = get_scenario(name)
    size = scenario.default_size if size is None else size
    return scenario, size, scenario.seed_for(size, seed)


def _publish_oracle(store, name, algorithm, size=None, seed=0):
    scenario, size, derived = _cell_coords(name, algorithm, size, seed)
    spec = BINDINGS[algorithm].oracle
    graph = scenario.graph(size, seed=seed)
    value = spec.compute(graph, derived)
    assert store.publish(scenario.name, size, derived, spec, value)
    return scenario, size, derived, spec, value


# ---------------------------------------------------------------------------
# Codec exactness and the family registry
# ---------------------------------------------------------------------------

@pytest.mark.scenario
@pytest.mark.parametrize("name,algorithm", ORACLE_CELLS,
                         ids=[f"{n}-{a}" for n, a in ORACLE_CELLS])
def test_codec_round_trip_is_exact(name, algorithm, tmp_path):
    store = FamilyStore(ORACLE_FAMILY, tmp_path)
    scenario, size, derived, spec, value = _publish_oracle(
        store, name, algorithm)
    loaded = store.load(scenario.name, size, derived, spec)
    assert loaded == value
    if isinstance(value, list):  # distance matrices: value types too
        for fresh_row, loaded_row in zip(value, loaded):
            assert [type(x) for x in fresh_row] == \
                [type(x) for x in loaded_row]


def test_every_registered_family_validates_its_identity():
    assert family_names() == ["decompositions", "graphs", "oracles",
                              "profiles"]
    family = get_family("oracles")
    with pytest.raises(ValueError, match="missing.*revision"):
        family.identity(scenario="x", size=8, derived_seed=1, oracle="o")
    with pytest.raises(ValueError, match="unexpected.*bogus"):
        family.identity(scenario="x", size=8, derived_seed=1, oracle="o",
                        revision="r", bogus=3)
    with pytest.raises(KeyError, match="unknown artifact family"):
        get_family("no-such-family")


def test_family_schema_version_is_part_of_the_key():
    base = get_family("oracles")
    bumped = dataclasses.replace(base, schema_version=base.schema_version + 1)
    identity = base.identity(scenario="x", size=8, derived_seed=1,
                             oracle="o", revision="r")
    assert base.key(identity) != bumped.key(identity)


# ---------------------------------------------------------------------------
# Byte identity: store on/off must not change a canonical record byte
# ---------------------------------------------------------------------------

@pytest.mark.scenario
@pytest.mark.parametrize("name,algorithm", ORACLE_CELLS,
                         ids=[f"{n}-{a}" for n, a in ORACLE_CELLS])
def test_differential_records_identical_from_oracle_store(name, algorithm,
                                                          ochain):
    oracle_cache.configure_store(None)
    oracle_cache.configure(0)
    computed = run_differential(name, algorithm, seed=3)
    oracle_cache.configure_store(ochain.root)
    oracle_cache.configure(0)         # LRU off: force the store path
    publish_pass = run_differential(name, algorithm, seed=3)
    store_pass = run_differential(name, algorithm, seed=3)
    assert computed.oracle_source == "computed"
    assert publish_pass.oracle_source == "computed"  # miss: + published
    assert store_pass.oracle_source == "store"       # hit: loaded value
    assert computed.canonical_dict() == publish_pass.canonical_dict() \
        == store_pass.canonical_dict()
    # Provenance is excluded from the canonical payload by
    # NONDETERMINISTIC_FIELDS, like wall_time and graph_source.
    full = store_pass.as_dict()
    assert full["oracle_source"] == "store"
    assert "oracle_source" not in store_pass.canonical_dict()


def test_cover_has_no_oracle_and_records_none():
    record = run_differential("dense-gnp", "cover")
    assert record.oracle_source == "none"
    assert BINDINGS["cover"].oracle is None


def test_shared_oracle_serves_sibling_bindings_from_lru(ochain):
    """apsp-unweighted and bfs-collection share one unweighted-apsp
    artifact: the second cell of a scenario LRU-hits the first's."""
    first = run_differential("dense-gnp", "apsp-unweighted", seed=5)
    second = run_differential("dense-gnp", "bfs-collection", seed=5)
    assert first.oracle_source == "computed"
    assert second.oracle_source == "lru"
    assert len(ochain.ls()) == 1  # one artifact for both bindings


# ---------------------------------------------------------------------------
# The fall-through chain
# ---------------------------------------------------------------------------

def test_chain_falls_through_lru_store_compute(ochain):
    scenario, size, derived = _cell_coords("dense-gnp", "apsp-unweighted",
                                           size=14)
    spec = BINDINGS["apsp-unweighted"].oracle
    graph = scenario.graph(size)
    v1, src1 = oracle_cache.oracle_value_source(
        scenario.name, size, derived, spec, graph)
    assert src1 == "computed"
    v2, src2 = oracle_cache.oracle_value_source(
        scenario.name, size, derived, spec, graph)
    assert src2 == "lru" and v2 is v1
    oracle_cache.configure(oracle_cache.DEFAULT_MAXSIZE)  # clears the LRU
    oracle_cache.configure_store(ochain.root)
    v3, src3 = oracle_cache.oracle_value_source(
        scenario.name, size, derived, spec, graph)
    assert src3 == "store"
    assert v3 is not v1 and v3 == v1
    stats = oracle_cache.stats()
    assert stats["store_hits"] == 1 and stats["publishes"] == 0
    assert ochain.contains(scenario.name, size, derived, spec)


def test_store_config_propagates_through_environment(ochain, monkeypatch):
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
    assert oracle_cache.effective_store() is None
    executor._init_worker(parent)
    resolved = oracle_cache.effective_store()
    assert resolved is not None and str(resolved.root) == str(ochain.root)
    oracle_cache.configure_store(None)
    assert oracle_cache.effective_store() is None
    assert dict(os.environ) == before


# ---------------------------------------------------------------------------
# Revision rotation: editing the oracle function must miss the cache
# ---------------------------------------------------------------------------

def _edited_unweighted_apsp(g, seed):
    """An 'edited' baseline: same value, different source text."""
    matrix = reference.unweighted_apsp(g)
    return [list(row) for row in matrix]


def test_revision_hashes_the_source_text():
    spec = ORACLES["unweighted-apsp"]
    assert oracle_revision(spec) == oracle_revision(spec)  # stable
    edited = dataclasses.replace(spec, compute=_edited_unweighted_apsp)
    assert oracle_revision(edited) != oracle_revision(spec)
    # A dependency edit rotates the revision too...
    trimmed = dataclasses.replace(spec, depends=spec.depends[:-1])
    assert oracle_revision(trimmed) != oracle_revision(spec)
    # ... and so does a codec edit: a cached value inherits the
    # encode/decode behavior as much as the compute function's.
    recoded = dataclasses.replace(spec, decode=_edited_unweighted_apsp)
    assert oracle_revision(recoded) != oracle_revision(spec)
    # ... and the revision lands in the artifact key.
    assert oracle_key("s", 8, 1, spec) != oracle_key("s", 8, 1, edited)


def test_staged_revisions_hash_the_ldc_verifiers_and_builder():
    """An edit to the one BFS, the Definition 2.3 predicates or the
    snapshot builder rotates every staged oracle's revision: each one's
    ``depends`` holds the modules that define them."""
    from repro.decomposition import ldc, pipeline

    held = {sys.modules[fn.__module__] for fn in (
        ldc.hop_distances, ldc.strong_diameter, ldc.definition_violation,
        pipeline.build_ldc_snapshot)}
    staged = [b.oracle for b in BINDINGS.values() if b.decomposition]
    assert {spec.name for spec in staged} == {
        "ldc-reference", "mpx-cover", "ldc-spanner", "bs-hierarchy"}
    for spec in staged:
        assert held <= set(spec.depends), spec.name


def test_edited_oracle_misses_the_cache(ochain, monkeypatch):
    """The integration contract: after 'editing' the baseline, a warm
    store must NOT serve the old value -- the cell recomputes under the
    rotated key and both revisions coexist until gc."""
    oracle_cache.configure(0)
    warm = run_differential("dense-gnp", "apsp-unweighted", seed=7)
    hit = run_differential("dense-gnp", "apsp-unweighted", seed=7)
    assert warm.oracle_source == "computed" and hit.oracle_source == "store"

    binding = BINDINGS["apsp-unweighted"]
    edited = dataclasses.replace(
        binding, oracle=dataclasses.replace(
            binding.oracle, compute=_edited_unweighted_apsp))
    monkeypatch.setitem(BINDINGS, "apsp-unweighted", edited)
    recomputed = run_differential("dense-gnp", "apsp-unweighted", seed=7)
    assert recomputed.oracle_source == "computed"  # rotated key: a miss
    assert recomputed.canonical_dict() == warm.canonical_dict()
    revisions = {e.identity["revision"] for e in ochain.ls()}
    assert len(revisions) == 2


# ---------------------------------------------------------------------------
# Concurrent-writer safety
# ---------------------------------------------------------------------------

def _race_publish(root):
    store = FamilyStore(ORACLE_FAMILY, root)
    scenario = get_scenario("dense-gnp")
    size = 16
    derived = scenario.seed_for(size, 0)
    spec = ORACLES["unweighted-apsp"]
    value = spec.compute(scenario.graph(size), derived)
    return store.publish(scenario.name, size, derived, spec, value)


def test_concurrent_publishers_land_one_valid_entry(tmp_path):
    """Racing pool workers: exactly one entry, every loser unharmed."""
    root = str(tmp_path / "store")
    with multiprocessing.Pool(2) as pool:
        outcomes = pool.map(_race_publish, [root] * 4)
    assert any(outcomes)
    store = FamilyStore(ORACLE_FAMILY, root)
    assert len(store.ls()) == 1
    scenario = get_scenario("dense-gnp")
    derived = scenario.seed_for(16, 0)
    spec = ORACLES["unweighted-apsp"]
    loaded = store.load("dense-gnp", 16, derived, spec)
    assert loaded == spec.compute(scenario.graph(16), derived)
    leftovers = [p for p in (tmp_path / "store").rglob("*")
                 if p.name.startswith(TMP_PREFIX)]
    assert leftovers == []


def test_lost_race_in_process_returns_false(tmp_path):
    store = FamilyStore(ORACLE_FAMILY, tmp_path)
    scenario, size, derived, spec, value = _publish_oracle(
        store, "bipartite-balanced", "matching")
    assert store.publish(scenario.name, size, derived, spec, value) is False
    assert len(store.ls()) == 1


# ---------------------------------------------------------------------------
# Corruption: quarantine + recompute, never a crash
# ---------------------------------------------------------------------------

def _entry_path(store, scenario, size, derived, spec):
    return store.artifacts.entry_path(
        ORACLE_KIND, oracle_key(scenario.name, size, derived, spec))


def test_truncated_array_falls_back_to_recompute(ochain):
    scenario, size, derived, spec, _value = _publish_oracle(
        ochain, "dense-gnp", "apsp-unweighted", size=18)
    dist = _entry_path(ochain, scenario, size, derived, spec) / "dist.npy"
    dist.write_bytes(dist.read_bytes()[: dist.stat().st_size // 2])
    assert ochain.load(scenario.name, size, derived, spec) is None
    # The corrupt entry is quarantined...
    assert not ochain.contains(scenario.name, size, derived, spec)
    # ... and the chain recomputes + republishes as if it never existed.
    oracle_cache.configure(0)
    record = run_differential("dense-gnp", "apsp-unweighted", size=18)
    assert record.oracle_source == "computed" and record.passed
    assert ochain.contains(scenario.name, size, derived, spec)


def test_mangled_manifest_falls_back_to_recompute(ochain):
    scenario, size, derived, spec, _value = _publish_oracle(
        ochain, "grid-weighted", "apsp-weighted")
    manifest = _entry_path(ochain, scenario, size, derived,
                           spec) / MANIFEST_NAME
    manifest.write_text("{ not json")
    assert ochain.load(scenario.name, size, derived, spec) is None
    assert not ochain.contains(scenario.name, size, derived, spec)


def test_undecodable_value_is_quarantined(tmp_path):
    """An entry that passes the byte layer but decodes to garbage for
    its oracle is corruption too: dropped, then recomputed."""
    store = FamilyStore(ORACLE_FAMILY, tmp_path)
    spec = ORACLES["matching-size"]
    identity = {"scenario": "s", "size": 8, "derived_seed": 1,
                "oracle": spec.name, "revision": oracle_revision(spec)}
    assert store.artifacts.publish(
        ORACLE_FAMILY, identity,
        {"value": np.asarray([3, 4], dtype=np.int64)})  # wrong shape
    assert store.load("s", 8, 1, spec) is None
    assert not store.contains("s", 8, 1, spec)


def test_wrong_family_schema_version_is_a_miss(tmp_path):
    store = FamilyStore(ORACLE_FAMILY, tmp_path)
    scenario, size, derived, spec, _value = _publish_oracle(
        store, "bipartite-balanced", "matching")
    manifest_path = _entry_path(store, scenario, size, derived,
                                spec) / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["family_schema"] = 999
    manifest_path.write_text(json.dumps(manifest))
    assert store.load(scenario.name, size, derived, spec) is None


# ---------------------------------------------------------------------------
# Maintenance: warm + family-scoped gc
# ---------------------------------------------------------------------------

def test_warm_oracles_then_family_scoped_gc(tmp_path):
    store = FamilyStore(ORACLE_FAMILY, tmp_path)
    scenarios = [get_scenario(n) for n in ("path", "cycle", "dense-gnp")]
    counts = warm(store.root, scenarios, families=("oracles",))
    # path/cycle: one shared unweighted-apsp each; dense-gnp adds the
    # ldc-reference and the staged-pipeline references (mpx-cover,
    # ldc-spanner, bs-hierarchy) on top of its unweighted-apsp.
    assert counts == {"published": 7, "skipped": 0}
    assert warm(store.root, [get_scenario("path")],
                families=("oracles",)) == {
        "published": 0, "skipped": 1}
    assert len(store.ls()) == 7
    assert store.stat()["families"] == {
        "oracles": {"entries": 7,
                    "bytes": sum(e.nbytes for e in store.ls())}}

    # A graph snapshot in the same root survives oracle-scoped gc.
    graphs = FamilyStore(GRAPH_FAMILY, tmp_path)
    scenario = get_scenario("path")
    graphs.publish("path", scenario.default_size,
                   scenario.seed_for(scenario.default_size, 0),
                   scenario.graph())
    removed = store.gc(keep_last=1)
    assert len(removed) == 6
    assert len(store.ls()) == 1 and len(graphs.ls()) == 1


def test_warm_skips_scenarios_without_oracles(tmp_path):
    # Every binding of this synthetic selection is oracle-less only if
    # none exist; all registered scenarios bind at least one oracle
    # through apsp/bfs/matching, so warm the smallest and check counts
    # stay consistent on re-run.
    store = FamilyStore(ORACLE_FAMILY, tmp_path)
    counts = warm(store.root, [get_scenario("cycle")],
                  families=("oracles",))
    assert counts["published"] == len(store.ls()) == 1


# ---------------------------------------------------------------------------
# The decomposition family (chain + pipeline coverage lives in
# tests/test_decomposition_pipeline.py)
# ---------------------------------------------------------------------------

def test_decomposition_snapshot_round_trip(tmp_path):
    from repro.decomposition.ldc import build_ldc
    from repro.decomposition.pipeline import ldc_snapshot

    scenario = get_scenario("grid")
    derived = scenario.seed_for(16, 0)
    graph = scenario.graph(16)
    snapshot = ldc_snapshot(build_ldc(graph, seed=derived))
    store = FamilyStore(DECOMPOSITION_FAMILY, tmp_path)
    assert store.publish("grid", 16, derived, "ldc", snapshot)
    assert store.contains("grid", 16, derived, "ldc")
    loaded = store.load("grid", 16, derived, "ldc")
    assert loaded == snapshot
    assert loaded is not snapshot  # a rebuilt value, not the instance
    # The family shows up in the generic inventory alongside the rest.
    stats = ArtifactStore(tmp_path).stat()
    assert set(stats["families"]) == {"decompositions"}


# ---------------------------------------------------------------------------
# Engine + CLI integration
# ---------------------------------------------------------------------------

def test_sweep_manifest_records_oracle_settings_and_counters(tmp_path):
    runs = RunStore(tmp_path / "runs")
    store_dir = str(tmp_path / "store")
    config.update(graph_store=store_dir, graph_cache_size=0,
                  oracle_store=store_dir, oracle_cache_size=0)
    first = run_sweep(["path", "cycle"], store=runs)
    assert first.run.manifest["oracle_cache_size"] == 0
    assert first.run.manifest["oracle_store"] == store_dir
    # LRUs off: path's first cell computes + publishes the shared
    # unweighted-apsp, its second cell store-hits; cycle computes.
    sources = first.summary()["oracle_sources"]
    assert sources == {"computed": 2, "store": 1}
    counters = first.run.manifest["store_counters"]
    assert counters["graphs"] == {"built": 2, "store": 1}
    assert counters["oracles"] == {"computed": 2, "store": 1}
    # The counters survive a manifest reload from disk.
    assert runs.open_run(first.run_id).manifest["store_counters"] \
        == counters

    second = run_sweep(["path", "cycle"], store=runs, fresh=True)
    assert second.summary()["oracle_sources"] == {"store": 3}
    assert second.run.manifest["store_counters"]["oracles"] == {
        "store": 3}
    assert [r.canonical_record() for r in first.results] == \
        [r.canonical_record() for r in second.results]


def test_parallel_sweep_workers_share_the_oracle_store(tmp_path):
    """Pool workers publish into and read from one shared store."""
    store_dir = str(tmp_path / "store")
    config.update(graph_store=store_dir, graph_cache_size=0,
                  oracle_store=store_dir, oracle_cache_size=0)
    cold = run_sweep(["dense-gnp", "power-law"], workers=2)
    assert cold.ok
    store = FamilyStore(ORACLE_FAMILY, store_dir)
    # dense-gnp: unweighted-apsp + ldc-reference + the staged
    # mpx-cover/ldc-spanner/bs-hierarchy references; power-law:
    # unweighted-apsp.  (cover binds no oracle.)
    assert len(store.ls()) == 6
    warm_run = run_sweep(["dense-gnp", "power-law"], workers=2)
    assert warm_run.ok
    assert set(warm_run.summary()["oracle_sources"]) == {"store"}
    assert [r.canonical_record() for r in cold.results] == \
        [r.canonical_record() for r in warm_run.results]
