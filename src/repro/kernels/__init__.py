"""Whole-execution array kernels for regular algorithm families.

Opt-in (``repro sweep --kernels``): when a binding's execution is
regular enough to resolve in closed form, the per-node/per-round Python
machine loop is replaced by numpy sweeps over the graph's CSR arrays
with *exact* metering replication -- canonical differential records are
byte-identical kernels on vs off.  See :mod:`repro.kernels.config` for
the knob, the eligibility registry, and the ``engine_source`` labels;
:mod:`repro.kernels.wavefront` and :mod:`repro.kernels.relaxation` for
the engines.
"""

from repro.kernels.config import (
    REGISTRY,
    cell_engine_source,
    clear_note,
    engine_ready,
    kernels_enabled,
    note_engine,
)
from repro.kernels.plan import BcongestPlan

__all__ = [
    "REGISTRY",
    "BcongestPlan",
    "cell_engine_source",
    "clear_note",
    "engine_ready",
    "kernels_enabled",
    "note_engine",
]
