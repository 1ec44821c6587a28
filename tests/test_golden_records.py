"""The golden tables under ``tests/golden/``.

* Every cell of the default sweep must reproduce the canonical-record
  digest pinned in ``tier1_records.json``, which is generated on the
  reference engine (the scalar per-edge ``Network`` loop); the
  kernel-eligible cells must actually be served by a kernel.
* Every registry scenario graph, at its default size and at size 128,
  must reproduce the digest pinned in ``graphs.json``.  That table was
  generated from the dict-era construction path, so it pins that the
  CSR core builds byte-identical graphs (node ids as ``int``, weight
  types and dict order included).
* The ``flaky-links`` / ``reorder-heavy`` fault cells at fault seed 7
  must reproduce ``fault_records.json`` (verdicts included), and none
  of them may end at the fault plan's round limit: that guard is a last
  resort against livelock, not how a faulted run normally stops.

Regenerate the tables with ``tests/golden/regenerate.py`` only when a
change is meant to alter canonical records or graphs.
"""

import json

from golden.regenerate import (
    FAULT_TABLE,
    GRAPH_TABLE,
    TABLE,
    fault_digests,
    fault_outcomes,
    graph_digests,
    tier1_digests,
)

from repro.congest.faults import DEFAULT_ROUND_LIMIT
from repro.kernels import REGISTRY
from repro.runner import run_sweep


def test_tier1_records_match_the_golden_table():
    outcome = run_sweep()
    assert outcome.ok
    assert tier1_digests(outcome) == json.loads(TABLE.read_text())
    eligible = [result for result in outcome.results
                if result.spec.algorithm in REGISTRY]
    assert len(eligible) == 31
    for result in eligible:
        assert result.record["engine_source"].startswith("kernel:"), \
            result.spec.identity


def test_scenario_graphs_match_the_golden_table():
    expected = json.loads(GRAPH_TABLE.read_text())
    assert len(expected) == 54
    assert graph_digests() == expected


def test_fault_cells_match_the_golden_table():
    expected = json.loads(FAULT_TABLE.read_text())
    assert len(expected) == 14
    assert fault_digests() == expected


def test_no_golden_fault_cell_ends_at_the_round_limit():
    guard = f"max_rounds={DEFAULT_ROUND_LIMIT}"
    for outcome in fault_outcomes().values():
        for record in outcome.records:
            error = (record.detail or {}).get("error") or ""
            assert guard not in error, (record.scenario, record.algorithm,
                                        error)
