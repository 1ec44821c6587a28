"""Walkthrough of the on-disk graph snapshot store (``src/repro/store``).

The full flow behind ``repro sweep --store`` and ``repro store``:

1. pre-warm a store with ``repro store warm``'s API: scenario graphs
   are built once and published as mmap-able CSR snapshots,
   content-addressed by ``(scenario, size, derived construction seed)``;
2. run a sweep against the warm store with the in-process LRU disabled
   and watch every cell serve its graph from disk (``graph_source ==
   "store"`` in the run records) -- this is what a fresh pool worker or
   a re-invoked sweep pays instead of re-running the generators;
3. verify the regression contract: canonical records of a store-served
   sweep are byte-identical to a storeless one;
4. inspect and prune the store (``ls`` / ``stat`` / ``gc``).

The store lives in a temporary directory here so the walkthrough
leaves nothing behind; real sweeps default to ``runs/graph-store``
(gitignored, co-located with the run store).
"""

import json
import tempfile

from repro.analysis import format_table
from repro.runner import config, graph_cache, run_sweep
from repro.runner.chain import warm
from repro.scenarios import get_scenario
from repro.store import GRAPH_FAMILY, FamilyStore

SCENARIOS = ["dense-gnp", "grid-weighted", "power-law"]


def main() -> int:
    with config.preserved(), tempfile.TemporaryDirectory() as tmp:
        store = FamilyStore(GRAPH_FAMILY, tmp + "/graph-store")

        # 1. Pre-warm: build + publish every scenario graph once.
        counts = warm(store.root, [get_scenario(n) for n in SCENARIOS],
                      families=("graphs",))
        rows = [(e.identity["scenario"], e.identity["size"],
                 e.manifest["graph"]["n"], e.manifest["graph"]["m"],
                 "yes" if e.manifest["graph"]["weighted"] else "no",
                 e.nbytes)
                for e in store.ls()]
        print(format_table(
            ["scenario", "size", "n", "m", "weighted", "bytes"],
            rows, title=f"warmed store ({counts['published']} published)"))

        # 2. A sweep over the warm store, LRU off to make the disk
        # path visible: every cell mmaps its graph.
        config.update(graph_store=str(store.root), graph_cache_size=0)
        outcome = run_sweep(SCENARIOS)
        sources = outcome.summary()["graph_sources"]
        print(f"\nwarm sweep graph sources: {json.dumps(sources)}")
        assert outcome.ok
        assert sources == {"store": len(outcome.results)}, sources

        # 3. Byte-identity: the store must never change a recorded
        # byte vs a storeless in-memory sweep.
        graph_cache.configure_store(None)
        graph_cache.configure(graph_cache.DEFAULT_MAXSIZE)
        baseline = run_sweep(SCENARIOS)
        assert [r.canonical_record() for r in baseline.results] == \
            [r.canonical_record() for r in outcome.results]
        print("store-served records == storeless records "
              f"({len(outcome.results)} cells, byte-identical)")

        # 4. Maintenance: prune to the newest snapshot.
        removed = store.gc(keep_last=1)
        stats = store.stat()
        print(f"gc --keep-last 1: removed {len(removed)} snapshot(s), "
              f"{stats['entries']} left ({stats['bytes']} bytes)")
        assert stats["entries"] == 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
