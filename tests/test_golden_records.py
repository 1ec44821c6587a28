"""The golden tier-1 record table (``tests/golden/tier1_records.json``).

Every cell of the default sweep must reproduce the canonical-record
digest pinned in the table, which was generated on the vectorized
reference engine; the kernel-eligible cells must actually be served by
a kernel.  Regenerate the table with ``tests/golden/regenerate.py`` only
when a change is meant to alter canonical records.
"""

import json

from golden.regenerate import TABLE, tier1_digests

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
