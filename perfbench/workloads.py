"""The benchmark's workloads: the cells of a pass, the store it starts from.

The benchmark seed shifts every cell seed; the program only ever sees the
resulting ``JobSpec`` cells.  See ``perfbench/README.md`` for why each
workload was chosen and which layers it stresses or bypasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from layers import APSP, MATRIX, PIPELINE

# (scenario, size) pairs of the decomposition-pipeline bench, and the
# snapshot-served cells bound on them (bs-hierarchy is left out: it
# meters its own construction, and matrix-cold covers it).
PIPELINE_GRAPHS = (("dense-gnp", 64), ("grid", 100), ("sparse-gnp", 128))
PIPELINE_CELLS = ("ldc", "mpx-cover", "ldc-spanner")
APSP_CELLS = (("grid-weighted", "apsp-weighted"),
              ("sparse-gnp", "apsp-unweighted"))


@dataclass(frozen=True)
class Workload:
    name: str
    seeds: int          # caller seeds per pass: --seed, --seed + 1, ...
    pass_s: float       # nominal pass time; passes = --seconds / pass_s
    cold: bool          # True: every pass starts from a fresh, empty store
    plan: Callable[[int, int], List]  # (seed, seeds) -> JobSpec cells

    def cells(self, seed: int) -> List:
        return self.plan(seed, self.seeds)

    def passes(self, seconds: float) -> int:
        """Timed passes per run: set by --seconds, the same on every commit."""
        return max(2, round(seconds / self.pass_s))


def _matrix(seed: int, seeds: int) -> List:
    from repro.runner.jobs import build_specs

    return build_specs(None, seeds=range(seed, seed + seeds))


def _apsp(seed: int, seeds: int) -> List:
    from repro.runner.jobs import JobSpec

    return [JobSpec(scenario, algorithm, 128, cell_seed)
            for scenario, algorithm in APSP_CELLS
            for cell_seed in range(seed, seed + seeds)]


def _pipeline(seed: int, seeds: int) -> List:
    from repro.runner.jobs import build_specs

    cells = []
    for scenario, size in PIPELINE_GRAPHS:
        cells += [spec for spec in build_specs(
                      [scenario], sizes=[size],
                      seeds=range(seed, seed + seeds))
                  if spec.algorithm in PIPELINE_CELLS]
    return cells


WORKLOADS = {w.name: w for w in (
    Workload(MATRIX, seeds=1, pass_s=1.9, cold=True, plan=_matrix),
    Workload(APSP, seeds=3, pass_s=11.4, cold=False, plan=_apsp),
    Workload(PIPELINE, seeds=12, pass_s=0.21, cold=False, plan=_pipeline),
)}


def populate(store_root: str, cells: List,
             on_cell: Optional[Callable[[], None]] = None) -> None:
    """Bring a store to a workload's starting state: compute and publish.

    Every cell's graph, baseline and input decomposition is resolved
    through the program's own cache chains against an empty store, so
    each artifact is built once and published -- the write path a first
    ``repro sweep`` pays.  The in-process LRUs are emptied afterwards.
    ``on_cell`` is called after each cell (the host probe hook).
    """
    from repro.runner import decomposition_cache, graph_cache, oracle_cache
    from repro.scenarios import get_binding, get_scenario

    chains = (graph_cache, oracle_cache, decomposition_cache)
    for chain in chains:
        chain.clear()
        chain.configure_store(store_root)
    for spec in cells:
        scenario = get_scenario(spec.scenario)
        binding = get_binding(spec.algorithm)
        graph, _ = graph_cache.scenario_graph_source(scenario, spec.size,
                                                     seed=spec.seed)
        oracle_cache.binding_oracle_source(scenario, spec.size, spec.seed,
                                           binding, graph)
        decomposition_cache.binding_decomposition_source(
            scenario, spec.size, spec.seed, binding, graph)
        if on_cell is not None:
            on_cell()
    for chain in chains:
        chain.clear()
        chain.configure_store(None)
