"""The parallel sweep engine and persistent run store.

The scenario x algorithm matrix is embarrassingly parallel: every cell
``(scenario, algorithm, size, seed)`` is seed-deterministic and
independent.  This package turns that matrix into a scalable, resumable,
regression-tracked workload:

* :mod:`repro.runner.jobs` -- picklable :class:`JobSpec` /
  :class:`CellResult` records and content-addressed cell keys;
* :mod:`repro.runner.executor` -- the multiprocess worker pool with
  per-cell wall-time metering and in-worker ``SIGALRM`` timeouts
  (``workers=1`` stays fully in-process for debuggability);
* :mod:`repro.runner.store` -- JSONL run records plus a manifest
  (schema version, git revision, python version, planned cell keys)
  under a ``runs/`` directory; interrupted sweeps resume by key;
* :mod:`repro.runner.compare` -- cell-by-cell regression diff between
  two runs (verdict flips, metered drift, wall-time ratios);
* :mod:`repro.runner.engine` -- the high-level
  plan -> resume -> execute -> persist pipeline;
* :mod:`repro.runner.config` -- the one frozen :class:`SweepConfig`
  (store roots, LRU sizes, ``cprofile``, the run's revision),
  process-wide and handed to pool workers by the executor's pool
  initializer;
* :mod:`repro.runner.chain` -- the artifact chain every cell resolves
  its inputs through (per-worker LRU -> shared on-disk store of
  :mod:`repro.store` -> compute-and-publish), built once per family:
  :mod:`repro.runner.graph_cache` (scenario graphs, keyed by derived
  construction seed), :mod:`repro.runner.oracle_cache` (sequential
  baselines, keyed additionally by the oracle's name and source
  revision) and :mod:`repro.runner.decomposition_cache` (the LDC
  snapshot the staged cover/spanner/hierarchy cells consume).

Consumers: the ``repro sweep`` CLI command, ``repro scenarios sweep``,
:func:`repro.testing.sweep`, and ``examples/parallel_sweep.py``.
"""

from repro.runner.compare import CellDelta, RunComparison, compare_runs
from repro.runner.config import SweepConfig
from repro.runner.engine import (
    SweepOutcome,
    fault_counts,
    run_sweep,
    sweep_params,
)
from repro.runner.executor import execute_cell, run_cells
from repro.runner.jobs import CellResult, JobSpec, build_specs, cell_key
from repro.runner.store import Run, RunStore, git_revision

__all__ = [
    "CellDelta", "CellResult", "JobSpec", "Run", "RunComparison",
    "RunStore", "SweepConfig", "SweepOutcome", "build_specs", "cell_key", "compare_runs",
    "execute_cell", "fault_counts", "git_revision", "run_cells",
    "run_sweep", "sweep_params",
]
