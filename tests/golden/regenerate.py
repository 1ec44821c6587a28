"""Regenerate the golden tables under ``tests/golden/``.

* ``tier1_records.json`` -- one digest per tier-1 matrix cell: the
  default sweep's cells (``scenario/algorithm/size/seed``) mapped to
  the sha256 of their canonical records, serialized as
  ``json.dumps(record, sort_keys=True, separators=(",", ":"))``.  The
  records come from the reference engine (the scalar per-edge
  ``Network`` loop), so the table pins what every engine must
  reproduce.
* ``graphs.json`` -- one digest per registry scenario graph at its
  default size and at size 128 (``scenario/size``): the sha256 of the
  node count, the adjacency and the weights in dict order, with every
  node id cast to ``int`` and every weight kept as its type name plus
  ``repr``.  The table was first generated from the dict-era
  construction path, so it pins that the CSR core builds the same
  graphs down to weight types and order.
* ``fault_records.json`` -- canonical-record digests of the fault
  cells of the ``flaky-links`` and ``reorder-heavy`` profiles (their
  ``FAULT_AXIS`` scenarios x bindings at fault seed 7), labelled
  ``profile/scenario/algorithm/size/seed``.

Run from the repo root, only when a change is meant to alter records
or graphs::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Dict

from repro.congest.cell import cell_context
from repro.runner import run_sweep
from repro.scenarios import FAULT_AXIS, all_scenarios

GOLDEN = pathlib.Path(__file__).parent
TABLE = GOLDEN / "tier1_records.json"
GRAPH_TABLE = GOLDEN / "graphs.json"
FAULT_TABLE = GOLDEN / "fault_records.json"

GRAPH_SIZE = 128
FAULT_PROFILES = ("flaky-links", "reorder-heavy")
FAULT_SEED = 7


def _sha256(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tier1_digests(outcome) -> Dict[str, str]:
    """``{cell label: canonical-record sha256}`` over a sweep outcome."""
    return {"/".join(str(part) for part in result.spec.identity):
            _sha256(result.canonical_record())
            for result in outcome.results}


def graph_digest(graph) -> str:
    """sha256 of ``graph``'s node count, adjacency and weights."""
    weights = graph.weights
    return _sha256([
        graph.n,
        [[int(u), [int(v) for v in nbrs]] for u, nbrs in graph.adj.items()],
        None if weights is None else
        [[int(u), int(v), type(w).__name__, repr(w)]
         for (u, v), w in weights.items()]])


def graph_digests() -> Dict[str, str]:
    """``{"scenario/size": graph sha256}`` over every registry scenario."""
    digests = {}
    for scenario in all_scenarios():
        for size in (scenario.default_size, GRAPH_SIZE):
            digests[f"{scenario.name}/{size}"] = graph_digest(
                scenario.graph(size))
    return digests


def fault_outcomes() -> Dict[str, Any]:
    """``{profile: sweep outcome}`` over the golden fault cells."""
    return {profile: run_sweep(FAULT_AXIS[profile], faults=[profile],
                               fault_seed=FAULT_SEED)
            for profile in FAULT_PROFILES}


def fault_digests() -> Dict[str, str]:
    """``{"profile/cell label": canonical-record sha256}`` per fault cell."""
    return {f"{profile}/{label}": digest
            for profile, outcome in fault_outcomes().items()
            for label, digest in tier1_digests(outcome).items()}


def _write(path: pathlib.Path, digests: Dict[str, str]) -> None:
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {path}")


def main() -> int:
    with cell_context(engine="reference"):
        _write(TABLE, tier1_digests(run_sweep()))
    _write(GRAPH_TABLE, graph_digests())
    _write(FAULT_TABLE, fault_digests())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
