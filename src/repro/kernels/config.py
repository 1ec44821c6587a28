"""The kernel plane's eligibility registry, fallbacks, and provenance labels.

Kernels gate and label themselves.  Each kernel entry point
(``wavefront.direct_execution`` / ``star_report`` / ``bcongest_plan``
and ``relaxation.bcongest_plan``) returns None when
:func:`fallback_reason` names a reason, and otherwise serves; the two
plan builders and the star replay then leave their label on the cell
with :func:`note_engine` (the direct replay serves one stage of a larger
regime and leaves none).  A driver only writes ``kernel(...) or
stepped(...)``.  Eligibility is explicit data: :data:`REGISTRY` maps
binding name to the kernel family that can replay it.  Everything else
falls through to the ``Network`` round loop (batched broadcasts; the
scalar per-edge loop in reference mode).  At the end of a cell,
:func:`cell_engine_source` derives the cell's ``engine_source`` record
field (a NONDETERMINISTIC field, stripped from canonical payloads, so
records are byte-identical whichever engine served) from the open
:class:`~repro.congest.cell.CellContext` by one ordered rule:

1. ``none`` -- the context's engine mode is ``"reference"`` (the
   scalar per-edge ``Network`` loop the kernel tests compare against;
   the field is then omitted from the record);
2. ``kernel:bfs-wavefront`` / ``kernel:bellman-ford`` -- a kernel ran;
3. ``vectorized:faults`` -- a non-null fault plan perturbs delivery;
4. ``vectorized:ineligible`` -- binding not in :data:`REGISTRY`;
5. ``vectorized:profile`` -- a round profiler needs the per-round loop;
6. ``vectorized:fallback`` -- eligible but the plan builder declined
   (e.g. integer weights too large for exact float64 replay).

The exact transport engine (:func:`repro.primitives.transport.route_packets`)
consults the pure :func:`fallback_reason` too, and notes nothing, so a
transport call never relabels a cell.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.congest.cell import current_cell, note_engine  # noqa: F401

# binding name -> kernel family able to replay its metered execution.
REGISTRY: Dict[str, str] = {
    "bfs-collection": "bfs-wavefront",
    "apsp-unweighted": "bfs-wavefront",
    "apsp-weighted": "bellman-ford",
}


def fallback_reason() -> Optional[str]:
    """Why the execution about to start must run on the ``Network`` loop.

    ``None`` when an exact engine may serve it; otherwise ``none`` in
    reference mode, else ``vectorized:faults`` or ``vectorized:profile``
    when the cell's fault plan or round profiler needs the per-round
    loop.
    """
    cell = current_cell()
    if cell.engine == "reference":
        return "none"
    if cell.faults is not None and not cell.faults.is_null:
        return "vectorized:faults"
    if cell.profiler is not None:
        return "vectorized:profile"
    return None


def cell_engine_source(algorithm: str) -> str:
    """The ``engine_source`` label of the cell whose context is open."""
    cell = current_cell()
    if cell.engine == "reference":
        return "none"
    if cell.engine_note:
        return cell.engine_note
    if cell.faults is not None and not cell.faults.is_null:
        return "vectorized:faults"
    if algorithm not in REGISTRY:
        return "vectorized:ineligible"
    if cell.profiler is not None:
        return "vectorized:profile"
    return "vectorized:fallback"
