"""Round profiles: the per-round execution timelines artifact family.

A profile captured by :class:`repro.congest.profile.RoundProfiler`
under ``repro sweep --profile`` is keyed by the *full* cell
coordinates::

    (scenario, algorithm, size, seed, faults, fault_seed, revision)

``faults`` is the fault profile name (``""`` for a clean cell) and
``revision`` the code revision that produced the timeline -- profiles
are observations of a particular build, not recomputable caches, so
unlike the graph/oracle/decomposition families the revision is part of
the identity and two revisions of the same cell coexist (that is what
``repro profile diff`` compares).

The stored value is the column-array timeline (one int64/float64 array
per :data:`repro.congest.profile.COLUMNS` entry) with the phase markers
and per-segment totals in the manifest.  Canonical sweep records never
reference these bytes by content -- only the ``profile_source``
NONDETERMINISTIC_FIELD names the store, keeping records byte-identical
profile on/off.

The view's one coordinate is the identity dict itself
(:func:`profile_identity`).  Like the sibling families, a truncated or
inconsistent entry is quarantined on load, never an error.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

import numpy as np

from repro.congest.profile import COLUMNS, RoundProfile
from repro.store.families import ArtifactFamily, register_family

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.artifacts import ArtifactEntry, FamilyStore

PROFILE_KIND = "profiles"


def _encode(profile: RoundProfile, _identity: Dict[str, Any]
            ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    return ({name: profile.columns[name] for name in COLUMNS},
            {"profile": {
                "rows": profile.rounds_executed,
                "phases": [[int(row), str(name)]
                           for row, name in profile.phases],
                "segments": profile.segments,
            }})


def _decode(manifest: Dict[str, Any], arrays: Dict[str, np.ndarray],
            _identity: Dict[str, Any]) -> RoundProfile:
    columns = {name: np.asarray(arrays[name]) for name in COLUMNS}
    meta = manifest["profile"]
    rows = int(meta["rows"])
    if any(len(column) != rows for column in columns.values()):
        raise ValueError("profile columns inconsistent")
    phases = [(int(row), str(name)) for row, name in meta["phases"]]
    segments = [dict(segment) for segment in meta["segments"]]
    return RoundProfile(columns=columns, phases=phases, segments=segments)


PROFILE_FAMILY = register_family(ArtifactFamily(
    kind=PROFILE_KIND,
    key_fields=("scenario", "algorithm", "size", "seed", "faults",
                "fault_seed", "revision"),
    schema_version=1,
    description="per-round execution timelines (metric deltas, phase "
                "markers, segment totals) captured by sweep --profile",
    coords=lambda identity: PROFILE_FAMILY.identity(**identity),
    encode=_encode, decode=_decode))


def profile_identity(scenario: str, algorithm: str, size: int, seed: int,
                     *, faults: str = "", fault_seed: int = 0,
                     revision: str = "unknown") -> Dict[str, Any]:
    return PROFILE_FAMILY.identity(
        scenario=scenario, algorithm=algorithm, size=size, seed=seed,
        faults=faults or "", fault_seed=fault_seed, revision=revision)


def profile_key(scenario: str, algorithm: str, size: int, seed: int, *,
                faults: str = "", fault_seed: int = 0,
                revision: str = "unknown") -> str:
    """The content address of one stored profile."""
    return PROFILE_FAMILY.key(profile_identity(
        scenario, algorithm, size, seed, faults=faults,
        fault_seed=fault_seed, revision=revision))


def find_profile(store: "FamilyStore", scenario: str, algorithm: str,
                 size: int, seed: int, *, faults: str = "",
                 fault_seed: int = 0,
                 revision: Optional[str] = None
                 ) -> Optional[Dict[str, Any]]:
    """The identity of the newest stored profile matching the cell.

    With ``revision`` the match is exact; without, entries from all
    revisions compete and the most recently published wins -- the
    CLI's "show me this cell" default.
    """
    if revision is not None:
        identity = profile_identity(
            scenario, algorithm, size, seed, faults=faults,
            fault_seed=fault_seed, revision=revision)
        return identity if store.contains(identity) else None
    want = dict(profile_identity(
        scenario, algorithm, size, seed, faults=faults,
        fault_seed=fault_seed))
    del want["revision"]
    best: Optional["ArtifactEntry"] = None
    for entry in store.ls():
        identity = entry.identity
        if any(identity.get(field) != value
               for field, value in want.items()):
            continue
        if best is None or entry.created_at > best.created_at:
            best = entry
    return None if best is None else dict(best.identity)
