"""The one process-wide sweep config (``repro.runner.config``).

Pins:

* **one object, no environment** -- every store / cache / profiling
  setting lives in one frozen :class:`SweepConfig`; a sweep with all
  of them on leaves ``os.environ`` exactly as it found it;
* **isolation** -- ``config.reset()`` restores the defaults and empties
  every artifact chain's LRU, so one call isolates tests;
* **one way in** -- ``run_sweep`` takes no LRU-size, telemetry or
  profiling argument and ``repro sweep`` no per-family store, LRU-size
  or telemetry flag; only the store-root keywords ``perfbench/run.py``
  passes remain;
* **workers see the parent's config under spawn** -- the executor hands
  the config to each pool worker through the pool initializer, so a
  spawn-started pool resolves the same stores, cache sizes and profile
  capture as the parent, and serves eligible cells on the kernels.
"""

import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.runner import RunStore, SweepConfig, config, graph_cache, \
    run_sweep
from repro.scenarios import get_scenario


def test_config_clamps_sizes_and_normalizes_roots(tmp_path):
    settings = SweepConfig(graph_cache_size=-3,
                           oracle_store=tmp_path / "store" / "")
    assert settings.graph_cache_size == 0
    assert settings.oracle_store == str(tmp_path / "store")
    assert SweepConfig(cprofile=True) == SweepConfig(cprofile=True)


def test_reset_restores_defaults_and_empties_every_lru():
    config.update(graph_cache_size=5, cprofile=True, revision="rev-A")
    graph_cache.scenario_graph(get_scenario("path"))
    assert graph_cache.stats()["size"] == 1
    config.reset()
    assert config.current() == SweepConfig()
    assert graph_cache.stats() == {
        "hits": 0, "misses": 0, "size": 0,
        "maxsize": SweepConfig().graph_cache_size, "store_hits": 0,
        "store_misses": 0, "publishes": 0}


def test_preserved_restores_the_config(tmp_path):
    config.update(graph_store=str(tmp_path))
    with config.preserved() as saved:
        config.update(graph_store=None, cprofile=True)
        assert config.current() != saved
    assert config.current() == saved


def test_run_sweep_leaves_no_repro_env(tmp_path):
    before = dict(os.environ)
    store_dir = str(tmp_path / "store")
    config.update(graph_store=store_dir, graph_cache_size=4,
                  oracle_store=store_dir, oracle_cache_size=4,
                  decomposition_store=store_dir, decomposition_cache_size=4,
                  profile_store=store_dir, cprofile=True)
    outcome = run_sweep(["path"], store=RunStore(tmp_path / "runs"),
                        revision="rev-A")
    assert outcome.ok
    assert dict(os.environ) == before


# What perfbench/run.py passes to run_sweep; its README lists these as
# entry points a refactor must keep callable.
PERFBENCH_KEYWORDS = {"specs", "store", "revision", "fresh", "on_result",
                      "graph_store_dir", "oracle_store_dir",
                      "decomposition_store_dir", "bench_history_dir"}


def test_sweep_settings_come_only_from_the_config():
    """LRU sizes, telemetry and profiling are not sweep arguments or
    ``repro sweep`` flags: the config (and ``--store`` / ``--profile`` /
    ``--cprofile``) is the one way to set them."""
    params = set(inspect.signature(run_sweep).parameters)
    removed = {"graph_cache_size", "oracle_cache_size",
               "decomposition_cache_size", "profile_store_dir", "cprofile",
               "telemetry"}
    assert not removed & params, removed & params
    assert PERFBENCH_KEYWORDS <= params, PERFBENCH_KEYWORDS - params
    parser = build_parser()
    for flag in ("--oracle-store", "--no-oracle-store",
                 "--decomposition-store", "--no-decomposition-store",
                 "--graph-cache-size=0", "--oracle-cache-size=0",
                 "--decomposition-cache-size=0", "--telemetry",
                 "--no-telemetry"):
        with pytest.raises(SystemExit) as exited:
            parser.parse_args(["sweep", flag])
        assert exited.value.code == 2, flag


# A spawn-started pool shares no memory with the parent: whatever the
# workers know about stores, cache sizes and profiling arrived through
# the pool initializer, and kernels serve them by default.  LRUs are
# sized 0 so every resolve goes to the store, which also shows the sizes
# reached the workers.
SPAWN_SWEEP = textwrap.dedent("""
    import json
    import multiprocessing
    import sys

    from repro.runner import RunStore, config, run_sweep


    def sweep(root):
        outcome = run_sweep(
            ["path", "grid"], workers=2, store=RunStore(root + "/runs"),
            revision="rev-A", fresh=True)
        assert outcome.ok
        return [result.record for result in outcome.results]


    if __name__ == "__main__":
        multiprocessing.set_start_method("spawn")
        root = sys.argv[1]
        store = root + "/store"
        config.update(graph_store=store, oracle_store=store,
                      decomposition_store=store, graph_cache_size=0,
                      oracle_cache_size=0, decomposition_cache_size=0,
                      profile_store=store)
        cold = sweep(root)
        config.update(profile_store=None)
        warm = sweep(root)
        print(json.dumps({"cold": cold, "warm": warm}))
""")


def test_spawned_workers_receive_the_parent_config(tmp_path):
    from repro.kernels import REGISTRY
    from repro.store import PROFILE_FAMILY, FamilyStore, find_profile

    script = tmp_path / "spawn_sweep.py"
    script.write_text(SPAWN_SWEEP)
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, str(script), str(tmp_path)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    records = json.loads(done.stdout.splitlines()[-1])

    profiles = FamilyStore(PROFILE_FAMILY, tmp_path / "store")
    for record in records["cold"]:
        # Profiling reached the workers (and keeps kernels off the
        # profiled executions).
        assert record["profile_source"].startswith("store:")
        assert find_profile(profiles, record["scenario"],
                            record["algorithm"], record["size"],
                            record["seed"], revision="rev-A") is not None
        if record["algorithm"] in REGISTRY:
            assert record["engine_source"] == "vectorized:profile"
    for record in records["warm"]:
        assert "profile_source" not in record
        assert record["graph_source"] == "store"
        assert record["oracle_source"] in ("store", "none")
        assert record["decomposition_source"] in ("store", "none")
        if record["algorithm"] in REGISTRY:
            # The kernel default holds in spawned workers too.
            assert record["engine_source"].startswith("kernel:")
    assert any(r["decomposition_source"] == "store"
               for r in records["warm"])


def test_sweep_cli_sizes_do_not_leak_into_the_next_sweep(tmp_path):
    """``repro sweep`` runs on the SweepConfig defaults, not on whatever
    an earlier ``config.update`` in the same process configured."""
    elsewhere = str(tmp_path / "elsewhere")
    config.update(graph_cache_size=0, oracle_cache_size=1,
                  decomposition_cache_size=2, oracle_store=elsewhere,
                  profile_store=elsewhere, cprofile=True)
    runs_dir = tmp_path / "runs"
    assert main(["sweep", "--names", "path", "--runs-dir",
                 str(runs_dir)]) == 0
    (run,) = RunStore(runs_dir).list_runs()
    manifest = run.manifest
    defaults = SweepConfig()
    assert (manifest["graph_cache_size"], manifest["oracle_cache_size"],
            manifest["decomposition_cache_size"]) == (
        defaults.graph_cache_size, defaults.oracle_cache_size,
        defaults.decomposition_cache_size)
    store_dir = str(runs_dir / "store")
    assert (manifest["graph_store"], manifest["oracle_store"],
            manifest["decomposition_store"]) == (store_dir,) * 3
    assert "profile_store" not in manifest
    assert "cprofile" not in manifest


# Each cache module builds its chain on import; whichever comes first,
# the chains, `repro store warm` and the store benchmarks list the
# families in the one chain order.
CHAIN_ORDER = textwrap.dedent("""
    import importlib
    import json
    import sys

    for module in sys.argv[1].split(","):
        importlib.import_module("repro.runner." + module)
    from repro.runner.chain import CHAINS, all_chains

    first = list(CHAINS)
    chains = list(all_chains())
    from repro import bench
    from repro.cli import main

    benches = [[kind, spec.name]
               for kind, spec in bench.STORE_BENCHMARKS.items()]
    print(json.dumps({"first": first, "chains": chains,
                      "benches": benches}))
    main(["store", "warm", "--names", "path", "--store-dir", sys.argv[2],
          "--json"])
""")


def test_chain_order_is_independent_of_import_order(tmp_path):
    script = tmp_path / "chain_order.py"
    script.write_text(CHAIN_ORDER)
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    order = ["graphs", "oracles", "decompositions"]
    for index, (modules, first) in enumerate((
            ("decomposition_cache,oracle_cache",
             ["oracles", "decompositions"]),
            ("oracle_cache,graph_cache", ["graphs", "oracles"]),
            ("decomposition_cache,graph_cache",
             ["graphs", "decompositions"]))):
        done = subprocess.run(
            [sys.executable, str(script), modules,
             str(tmp_path / f"store-{index}")],
            capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        listed, end = json.JSONDecoder().raw_decode(done.stdout)
        warmed = json.loads(done.stdout[end:])
        assert listed["first"] == first
        assert listed["chains"] == order
        assert listed["benches"] == [
            ["graphs", "graph-store"], ["oracles", "oracle-store"],
            ["decompositions", "decomposition-pipeline"]]
        assert warmed["families"] == order
        assert warmed["published"] > 0
