"""Per-cell profile capture: what --profile / --cprofile do per cell.

Both knobs are :class:`~repro.runner.config.SweepConfig` settings, so
pool workers see them through the executor's pool initializer;
``execute_cell`` consults the config on every cell.  With neither set
the consult is two attribute reads and the cell runs the untouched
code path.

* ``profile_store`` points at the artifact-store root whose
  ``profiles/`` family receives each cell's
  :class:`~repro.congest.profile.RoundProfile`, keyed by the full cell
  coordinates plus the run's revision.
* ``cprofile`` turns on ``cProfile`` around the cell body; the top hot
  functions ride back on ``CellResult.hot`` and are aggregated across
  cells by ``repro runs report``.

Neither knob touches the cell's canonical record: the only trace a
profiled record carries is the ``profile_source`` provenance label,
a NONDETERMINISTIC_FIELD stripped from every canonical payload.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import TYPE_CHECKING, Any, List, Optional

from repro.runner import config

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congest.profile import RoundProfile
    from repro.runner.jobs import JobSpec

# How many hot functions each cell reports (by cumulative time).
HOT_LIMIT = 40

_revision: Optional[str] = None


def cell_revision() -> str:
    """The revision stamped into profile identities.

    The run's revision from the config; outside a run that set one
    (storeless sweeps, direct calls) the current git revision, cached.
    """
    global _revision
    revision = config.current().revision
    if revision is not None:
        return revision
    if _revision is None:
        from repro.runner.store import git_revision

        _revision = git_revision() or "unknown"
    return _revision


def publish_profile(spec: "JobSpec", profile: "RoundProfile") -> str:
    """Persist one cell's timeline; return its ``profile_source`` label.

    ``store:<key prefix>`` when the profiles store holds it (already
    present counts -- same cell, same revision, same bytes), plain
    ``"captured"`` when no store is configured (the profile was
    recorded but has nowhere durable to go).
    """
    root = config.current().profile_store
    if root is None:
        return "captured"
    from repro.store.artifacts import FamilyStore
    from repro.store.profiles import PROFILE_FAMILY, profile_identity

    identity = profile_identity(
        spec.scenario, spec.algorithm, spec.size, spec.seed,
        faults=spec.faults or "", fault_seed=spec.fault_seed,
        revision=cell_revision())
    FamilyStore(PROFILE_FAMILY, root).publish(identity, profile)
    return f"store:{PROFILE_FAMILY.key(identity)[:12]}"


def hot_rows(profiler: cProfile.Profile,
             limit: int = HOT_LIMIT) -> List[List[Any]]:
    """The top functions by cumulative time: [label, calls, seconds].

    Labels are ``file:line:function`` with the path reduced to its
    basename -- stable across checkouts, which is what lets
    ``repro runs report`` aggregate rows from many worker processes.
    """
    stats = pstats.Stats(profiler)
    rows = []
    for (filename, lineno, name), entry in stats.stats.items():
        _cc, calls, _tt, cumulative, _callers = entry
        label = f"{os.path.basename(filename)}:{lineno}:{name}"
        rows.append([label, int(calls), float(cumulative)])
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows[:limit]
