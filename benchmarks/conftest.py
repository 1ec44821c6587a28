"""Shared helpers for the experiment benchmarks (E1-E14).

Each benchmark runs its experiment once under ``benchmark.pedantic``
(the interesting outputs are message/round counts, which are
deterministic given the seed -- wall time is incidental), prints its
table to stdout (shown with ``pytest -s``), and attaches the table and
the headline numbers to the pytest-benchmark report via ``extra_info``
(written out with ``--benchmark-json``).
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
