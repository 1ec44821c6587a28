"""The kernel plane's eligibility registry, fallbacks, and provenance notes.

Kernels serve every eligible execution: the core drivers consult
:func:`engine_ready` before each one.  Eligibility is explicit data:
:data:`REGISTRY` maps binding name to the kernel family that can replay
it.  Four cases fall through to the vectorized machine loop, and the
reason lands in the cell's ``engine_source`` record field (a
NONDETERMINISTIC field, stripped from canonical payloads, so records
are byte-identical whichever engine served):

* ``kernel:bfs-wavefront`` / ``kernel:bellman-ford`` -- a kernel ran,
* ``vectorized:ineligible`` -- binding not in :data:`REGISTRY`,
* ``vectorized:profile`` -- a round profiler needs the per-round loop,
* ``vectorized:faults`` -- an active fault plan perturbs delivery,
* ``vectorized:fallback`` -- eligible but the plan builder declined
  (e.g. integer weights too large for exact float64 replay).

:func:`reference_engine` runs a block on the vectorized loop alone --
the differential reference the kernel tests compare against; cells run
inside it report ``none`` (and omit the field from their records).

:func:`fallback_reason` is the pure predicate behind :func:`engine_ready`:
it names the reason without noting it.  The exact transport engine
(:func:`repro.primitives.transport.route_packets`) consults only the
predicate, so a transport call never relabels a cell's ``engine_source``.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, Optional

# binding name -> kernel family able to replay its metered execution.
REGISTRY: Dict[str, str] = {
    "bfs-collection": "bfs-wavefront",
    "apsp-unweighted": "bfs-wavefront",
    "apsp-weighted": "bellman-ford",
}

_note: Optional[str] = None
_reference = False


@contextlib.contextmanager
def reference_engine() -> Iterator[None]:
    """Run every execution in the block on the vectorized machine loop."""
    global _reference
    saved = _reference
    _reference = True
    try:
        yield
    finally:
        _reference = saved


def fallback_reason() -> Optional[str]:
    """Why the execution about to start must run on the reference loop.

    ``None`` when an exact engine may serve it.  Otherwise the label the
    cell reports: ``none`` under :func:`reference_engine`, else
    ``vectorized:profile`` or ``vectorized:faults`` when an ambient round
    profiler or fault plan needs the per-round loop.  Side-effect free,
    so the transport engine can consult it without relabelling a cell.
    """
    if _reference:
        return "none"
    from repro.congest.profile import active_profiler
    if active_profiler() is not None:
        return "vectorized:profile"
    from repro.congest.faults import active_plan
    plan = active_plan()
    if plan is not None and not plan.is_null:
        return "vectorized:faults"
    return None


def engine_ready() -> bool:
    """Whether a kernel may replay the execution about to start.

    Kernels replicate fault-free, unprofiled metering only; when they
    may not, the :func:`fallback_reason` is noted so the cell's
    ``engine_source`` says why it fell back.
    """
    reason = fallback_reason()
    if reason is not None and reason != "none":
        note_engine(reason)
    return reason is None


def note_engine(label: str) -> None:
    """Record which engine served (part of) the current cell.

    A ``kernel:`` note is never downgraded by a later fallback note from
    another stage of the same cell: one kernel execution is enough for
    the cell to count as kernel-served.
    """
    global _note
    if (_note is not None and _note.startswith("kernel:")
            and not label.startswith("kernel:")):
        return
    _note = label


def consume_note() -> Optional[str]:
    """Take (and clear) the pending note."""
    global _note
    note = _note
    _note = None
    return note


def cell_engine_source(algorithm: str) -> str:
    """The ``engine_source`` label for a just-finished cell."""
    note = consume_note()
    if _reference:
        return "none"
    if note:
        return note
    if algorithm not in REGISTRY:
        return "vectorized:ineligible"
    return "vectorized:fallback"
