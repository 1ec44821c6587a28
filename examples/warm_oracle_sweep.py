"""Walkthrough of the oracle artifact family (``src/repro/store``).

The full flow behind ``repro sweep``'s cached baselines and
``repro store --family oracles``:

1. pre-warm a store with ``repro store warm --family oracles``'s API:
   every distinct baseline of the selected scenarios (the shared
   ``unweighted-apsp`` matrix, ``weighted-apsp``, ``matching-size``,
   the exhaustive ``ldc-reference`` realization) is computed once and
   published, content-addressed by ``(scenario, size, derived seed,
   oracle name, baseline source revision)``;
2. run a sweep against the warm store with the in-process oracle LRU
   disabled and watch every oracle-bound cell serve its ground truth
   from disk (``oracle_source == "store"`` in the run records) -- this
   is what a fresh pool worker or a re-invoked sweep pays instead of
   re-running BFS / Dijkstra / Hopcroft-Karp / the LDC verifier;
3. verify the regression contract: canonical records of a store-served
   sweep are byte-identical to a storeless one (``oracle_source`` is
   provenance, never payload);
4. inspect the store per family and prune just the oracle family
   (``ls`` / ``stat`` / ``gc --family oracles``).

The store lives in a temporary directory here so the walkthrough
leaves nothing behind; real sweeps default to ``runs/store``
(gitignored, co-located with the run store, shared with the graph
snapshot family).
"""

import json
import tempfile

from repro.analysis import format_table
from repro.runner import config, oracle_cache, run_sweep
from repro.runner.chain import warm
from repro.scenarios import get_scenario
from repro.store import GRAPH_FAMILY, ORACLE_FAMILY, FamilyStore

SCENARIOS = ["dense-gnp", "grid-weighted", "bipartite-balanced"]


def main() -> int:
    with config.preserved(), tempfile.TemporaryDirectory() as tmp:
        store = FamilyStore(ORACLE_FAMILY, tmp + "/store")

        # 1. Pre-warm: compute + publish every baseline once.
        counts = warm(store.root, [get_scenario(n) for n in SCENARIOS],
                      families=("oracles",))
        rows = [(e.identity["scenario"], e.identity["size"],
                 e.identity["oracle"], e.identity["revision"][:8],
                 e.nbytes)
                for e in store.ls()]
        print(format_table(
            ["scenario", "size", "oracle", "revision", "bytes"],
            rows, title=f"warmed oracle family "
                        f"({counts['published']} published)"))

        # 2. A sweep over the warm store, oracle LRU off to make
        # the disk path visible: every oracle-bound cell loads its
        # baseline instead of recomputing it.
        config.update(oracle_store=str(store.root), oracle_cache_size=0)
        outcome = run_sweep(SCENARIOS)
        sources = outcome.summary()["oracle_sources"]
        print(f"\nwarm sweep oracle sources: {json.dumps(sources)}")
        assert outcome.ok
        assert set(sources) == {"store"}, sources

        # 3. Byte-identity: cached baselines must never change a
        # recorded byte vs a storeless in-memory sweep.
        oracle_cache.configure_store(None)
        oracle_cache.configure(oracle_cache.DEFAULT_MAXSIZE)
        baseline = run_sweep(SCENARIOS)
        assert [r.canonical_record() for r in baseline.results] == \
            [r.canonical_record() for r in outcome.results]
        print("store-served records == storeless records "
              f"({len(outcome.results)} cells, byte-identical)")

        # 4. Maintenance: the oracle family prunes independently --
        # graph snapshots in the same root are untouched.
        graphs = FamilyStore(GRAPH_FAMILY, store.root)
        scenario = get_scenario("dense-gnp")
        graphs.publish(
            "dense-gnp", scenario.default_size,
            scenario.seed_for(scenario.default_size, 0),
            scenario.graph())
        removed = store.gc(keep_last=1)
        stats = store.artifacts.stat()
        print(f"gc --family oracles --keep-last 1: removed "
              f"{len(removed)} oracle artifact(s); families now: "
              f"{json.dumps(stats['families'])}")
        assert stats["families"]["oracles"]["entries"] == 1
        assert stats["families"]["graphs"]["entries"] == 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
