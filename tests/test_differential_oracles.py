"""Differential oracles: for each scenario x algorithm binding, the
simulator's output equals the sequential reference and the metered
rounds/messages stay inside the declared complexity envelope."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.baselines.reference import hopcroft_karp
from repro.graphs import from_edges
from repro.scenarios import all_scenarios, get_binding
from repro.testing import (
    DifferentialRecord,
    run_differential,
    run_scenario,
    summarize,
    sweep,
)

MATRIX = [(s.name, algorithm)
          for s in all_scenarios() for algorithm in s.algorithms]


@pytest.mark.scenario
@pytest.mark.parametrize("name,algorithm", MATRIX,
                         ids=[f"{n}-{a}" for n, a in MATRIX])
def test_matrix_cell_passes(name, algorithm):
    record = run_differential(name, algorithm)
    assert record.ok, record.failure_message()
    assert record.envelope_ok, record.failure_message()


def test_matrix_covers_five_algorithm_families():
    families = {get_binding(a).family for _n, a in MATRIX}
    assert {"apsp", "bfs", "matching", "cover", "decomposition"} <= families


def test_run_scenario_runs_every_binding():
    records = run_scenario("dense-gnp")
    assert [r.algorithm for r in records] == [
        "apsp-unweighted", "bfs-collection", "cover", "ldc",
        "mpx-cover", "ldc-spanner", "bs-hierarchy"]
    assert all(r.scenario == "dense-gnp" for r in records)


def test_run_differential_rejects_unbound_algorithm():
    with pytest.raises(ValueError, match="does not bind"):
        run_differential("path", "matching")


def test_record_serializes_and_reports_failures():
    record = run_differential("random-tree", "apsp-unweighted")
    as_dict = record.as_dict()
    assert as_dict["passed"] and as_dict["metrics"]["messages"] > 0
    assert record.failure_message() == "passed"

    broken = DifferentialRecord(
        scenario="x", algorithm="y", family="apsp", size=8, seed=0,
        n=8, m=10, ok=False, envelope_ok=False,
        checks={"dist_equals_oracle": False},
        metrics={"rounds": 99, "messages": 999},
        envelope={"max_rounds": 10.0, "max_messages": 100.0})
    message = broken.failure_message()
    assert "dist_equals_oracle" in message and "envelope violated" in message
    stats = summarize([record, broken])
    assert stats["cells"] == 2 and stats["failed"] == 1


def test_sweep_restricted_to_names_and_sizes():
    records = sweep(["path", "cycle"], sizes=[16])
    assert {r.scenario for r in records} == {"path", "cycle"}
    assert all(r.size == 16 for r in records)
    assert all(r.passed for r in records)


def test_hopcroft_karp_livelock_regression():
    """The scenario matrix exposed a livelock in the reference oracle:
    ``try_augment`` marked a right vertex visited even when the layer
    check rejected the edge, so a failed deep exploration blocked the
    only shortest augmenting path and the phase loop never progressed.
    This is the exact 14-node instance (bipartite-balanced at its tier-1
    size) that used to hang; the maximum matching is perfect."""
    edges = [(0, 8), (0, 10), (0, 12), (1, 11), (1, 12), (2, 8), (2, 9),
             (2, 11), (3, 8), (3, 11), (3, 12), (4, 7), (4, 9), (4, 11),
             (4, 13), (5, 7), (5, 9), (6, 13)]
    g = from_edges(14, edges)
    assert len(hopcroft_karp(g)) == 7


@pytest.mark.slow
@pytest.mark.scenario
def test_full_matrix_at_requested_size(scenario_size):
    """Tier 2: the whole matrix at the operator-chosen workload size."""
    records = sweep(sizes=[scenario_size])
    stats = summarize(records)
    assert stats["failed"] == 0, "\n".join(stats["failures"])


SCIPY_FREE = """
import sys
import repro.runner.engine
import repro.testing.differential
from repro.baselines.oracles import ORACLES
from repro.graphs import gnp, uniform_weights
g = uniform_weights(gnp(12, 0.4, seed=3), w_max=9, seed=3)
for name in ("unweighted-apsp", "weighted-apsp"):
    ORACLES[name].compute(g, 0)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_sweep_path_and_apsp_oracles_import_no_scipy():
    """The sweep path and both APSP oracles never load scipy.

    Importing ``scipy.sparse.csgraph`` on top of the sweep path raises
    the process's max RSS by about 27 MB (35.4 -> 62.4 MB), against the
    10% bound perfbench puts on ``peak_rss_mb`` (about 51 MB): the
    oracles stay on numpy.  Run in a fresh interpreter, since this test
    process imports scipy for the cross-checks.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", SCIPY_FREE],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
