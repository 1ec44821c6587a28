"""Whole-execution array kernels for regular algorithm families.

When a binding's execution is regular enough to resolve in closed form,
the per-node/per-round Python machine loop is replaced by numpy sweeps
over the graph's CSR arrays with *exact* metering replication --
canonical differential records are byte-identical to the vectorized
machine loop's.  See :mod:`repro.kernels.config` for the eligibility
registry, the fallbacks, and the ``engine_source`` labels;
:mod:`repro.kernels.wavefront` and :mod:`repro.kernels.relaxation` for
the engines.
"""

from repro.kernels.config import REGISTRY
from repro.kernels.plan import BcongestPlan

__all__ = ["REGISTRY", "BcongestPlan"]
