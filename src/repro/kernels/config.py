"""The kernel plane's knob, eligibility registry, and provenance notes.

The ``--kernels`` sweep flag is the ``kernels`` setting of the
process-wide :class:`~repro.runner.config.SweepConfig` (pool workers
receive it through the executor's pool initializer), and the core
drivers consult :func:`engine_ready` before every eligible execution.
With the knob off the consult is one attribute read and the cell runs
the untouched vectorized path.

Eligibility is explicit data: :data:`REGISTRY` maps binding name to the
kernel family that can replay it.  Anything else -- an unlisted binding,
an active fault plan, an attached round profiler -- falls through to the
vectorized path, and the reason lands in the cell's ``engine_source``
record field (a NONDETERMINISTIC field, stripped from canonical
payloads, so records stay byte-identical kernels on vs off):

* ``none`` -- kernels disabled (the default; omitted from records),
* ``kernel:bfs-wavefront`` / ``kernel:bellman-ford`` -- a kernel ran,
* ``vectorized:ineligible`` -- binding not in :data:`REGISTRY`,
* ``vectorized:profile`` -- a round profiler needs the per-round loop,
* ``vectorized:faults`` -- an active fault plan perturbs delivery,
* ``vectorized:fallback`` -- eligible but the plan builder declined
  (e.g. integer weights too large for exact float64 replay).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.runner import config

# binding name -> kernel family able to replay its metered execution.
REGISTRY: Dict[str, str] = {
    "bfs-collection": "bfs-wavefront",
    "apsp-unweighted": "bfs-wavefront",
    "apsp-weighted": "bellman-ford",
}

_note: Optional[str] = None


def kernels_enabled() -> bool:
    """Whether eligible cells run on kernels (the config's setting)."""
    return config.current().kernels


def engine_ready() -> bool:
    """Whether a kernel may replay the execution about to start.

    Kernels replicate fault-free, unprofiled metering only; when an
    ambient fault plan or round profiler is installed the reason is
    noted so the cell's ``engine_source`` says why it fell back.
    """
    if not kernels_enabled():
        return False
    from repro.congest.profile import active_profiler
    if active_profiler() is not None:
        note_engine("vectorized:profile")
        return False
    from repro.congest.faults import active_plan
    plan = active_plan()
    if plan is not None and not plan.is_null:
        note_engine("vectorized:faults")
        return False
    return True


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


def clear_note() -> None:
    global _note
    _note = None


def consume_note() -> Optional[str]:
    global _note
    note = _note
    _note = None
    return note


def cell_engine_source(algorithm: str) -> str:
    """The ``engine_source`` label for a just-finished cell."""
    note = consume_note()
    if not kernels_enabled():
        return "none"
    if note:
        return note
    if algorithm not in REGISTRY:
        return "vectorized:ineligible"
    return "vectorized:fallback"
