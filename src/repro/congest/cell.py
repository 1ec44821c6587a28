"""The per-cell execution context: the one holder of per-cell state.

A differential cell's costs are the metered rounds and messages of one
execution, so everything that observes or perturbs that execution lives
in one :class:`CellContext`:

* ``faults`` -- the :class:`~repro.congest.faults.FaultPlan` layered
  into every ``Network`` built inside (``None`` = fault-free);
* ``profiler`` -- the :class:`~repro.congest.profile.RoundProfiler`
  every ``Network`` built inside records into (``None`` = unprofiled);
* ``engine`` -- ``"auto"`` (kernels, the exact transport engine and
  the batched broadcast serve what they can) or ``"reference"`` (every
  execution runs on the ``Network`` round loop with the scalar
  per-edge delivery -- the differential reference);
* ``engine_note`` -- the kernel label a kernel engine left on the
  cell (see :func:`repro.kernels.config.cell_engine_source`).

:func:`cell_context` pushes a copy of the current context with the given
fields overridden and a fresh ``engine_note``: nested contexts inherit
every field they do not override (an outer ``engine="reference"``
reaches an inner ``cell_context(faults=None)``), and a note made inside
never leaks outward.  Outside any context :func:`current_cell` is an
empty default and :func:`note_engine` records nothing.

The context is the only way to set these: ``Network``,
``run_algorithm`` and ``run_machines`` take no fault, profiler or
engine argument, and read :func:`current_cell` when a network is built.

``repro.testing.run_differential`` opens one context around the
binding's execution only, after the graph, oracle and decomposition have
resolved: the profile and the fault plan cover the execution, never the
resolves, so a profiled cell's timeline does not depend on cache state.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import TYPE_CHECKING, Iterator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congest.faults import FaultPlan
    from repro.congest.profile import RoundProfiler


@dataclasses.dataclass
class CellContext:
    """What the execution of one cell runs under (see module docstring)."""

    faults: Optional["FaultPlan"] = None
    profiler: Optional["RoundProfiler"] = None
    engine: str = "auto"
    engine_note: Optional[str] = None


_EMPTY = CellContext()
_STACK: List[CellContext] = []


def current_cell() -> CellContext:
    """The innermost open context, or the empty default outside any."""
    return _STACK[-1] if _STACK else _EMPTY


@contextlib.contextmanager
def cell_context(**fields) -> Iterator[CellContext]:
    """Run the block under the current context with ``fields`` overridden."""
    cell = dataclasses.replace(current_cell(), engine_note=None, **fields)
    _STACK.append(cell)
    try:
        yield cell
    finally:
        _STACK.pop()


def note_engine(label: str) -> None:
    """Record which engine served the current cell (no-op outside one)."""
    if _STACK:
        _STACK[-1].engine_note = label
