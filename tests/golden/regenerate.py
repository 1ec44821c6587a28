"""Regenerate ``tier1_records.json``: one digest per tier-1 matrix cell.

The table maps each cell of the default sweep (``scenario/algorithm/
size/seed``) to the sha256 of its canonical record serialized as
``json.dumps(record, sort_keys=True, separators=(",", ":"))``.  The
records come from the vectorized reference engine, so the table pins
what every engine must reproduce.  Run from the repo root::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict

from repro.kernels import reference_engine
from repro.runner import run_sweep

TABLE = pathlib.Path(__file__).with_name("tier1_records.json")


def tier1_digests(outcome) -> Dict[str, str]:
    """``{cell label: canonical-record sha256}`` over a sweep outcome."""
    digests = {}
    for result in outcome.results:
        payload = json.dumps(result.canonical_record(), sort_keys=True,
                             separators=(",", ":"))
        label = "/".join(str(part) for part in result.spec.identity)
        digests[label] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return digests


def main() -> int:
    with reference_engine():
        outcome = run_sweep()
    TABLE.write_text(json.dumps(tier1_digests(outcome), indent=1,
                                sort_keys=True) + "\n")
    print(f"wrote {len(outcome.results)} digests to {TABLE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
