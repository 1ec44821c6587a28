"""The typed artifact-family registry: what kinds of artifacts exist.

The byte layer (:mod:`repro.store.artifacts`) knows how to publish and
read *directories of numpy arrays* safely; it deliberately knows nothing
about what the arrays mean.  An :class:`ArtifactFamily` is the typing on
top: one registered family per artifact kind, declaring

* the **kind** -- the subtree name under the store root (``graphs/``,
  ``oracles/``, ``decompositions/``);
* the **key schema** -- the exact identity coordinates that content-
  address one artifact (``publish``/``open`` reject wrong or missing
  coordinates instead of silently hashing garbage into a key);
* the **schema version** -- per-family payload version, hashed into the
  content key, so a family can change its serialization without ever
  serving old bytes to new readers (stale entries just stop being
  addressed and age out via ``gc``).

A family served through :class:`repro.store.artifacts.FamilyStore` (the
one family-scoped view over a store root) also declares its **codec**
-- how a value becomes arrays and back -- so the view stays generic:
``coords`` maps the view's positional coordinates to an identity
(default: the key fields, in order), ``encode(value, *coords)`` returns
``(arrays, manifest extra)``, and ``decode(manifest, arrays, *coords)``
rebuilds the value.  The ``repro store`` CLI (``ls``/``stat``/``gc
--family``) and :func:`repro.store.ArtifactStore.stat` enumerate
families generically through this registry.

Families registered today:

==================  ========================================================
kind                identity coordinates
==================  ========================================================
graphs              (scenario, size, derived_seed)
oracles             (scenario, size, derived_seed, oracle, revision)
decompositions      (scenario, size, derived_seed, algorithm)
profiles            (scenario, algorithm, size, seed, faults, fault_seed,
                    revision)
==================  ========================================================

Unlike the first three (immutable caches of recomputable values), the
profiles family holds *observations* of one build (per-round execution
timelines from ``sweep --profile``), so its identity includes the code
revision and entries from different revisions coexist for ``repro
profile diff``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class ArtifactFamily:
    """One typed artifact kind: key schema, payload version, codec."""

    kind: str
    key_fields: Tuple[str, ...]
    schema_version: int
    description: str = ""
    coords: Optional[Callable[..., Dict[str, Any]]] = None
    encode: Optional[Callable[..., Tuple[Dict[str, Any],
                                         Dict[str, Any]]]] = None
    decode: Optional[Callable[..., Any]] = None

    def identity(self, **coords: Any) -> Dict[str, Any]:
        """Validate ``coords`` against the key schema; return the identity.

        The returned dict is ordered by ``key_fields`` for readability;
        the content key itself is order-independent (canonical JSON).
        """
        given = set(coords)
        declared = set(self.key_fields)
        if given != declared:
            missing = sorted(declared - given)
            extra = sorted(given - declared)
            problems = []
            if missing:
                problems.append(f"missing {missing}")
            if extra:
                problems.append(f"unexpected {extra}")
            raise ValueError(
                f"{self.kind} identity must be exactly "
                f"{list(self.key_fields)}: {'; '.join(problems)}")
        return {field: coords[field] for field in self.key_fields}

    def identify(self, *coords: Any) -> Dict[str, Any]:
        """The identity addressed by a view call's positional coordinates."""
        if self.coords is not None:
            return self.coords(*coords)
        return self.identity(**dict(zip(self.key_fields, coords)))

    def key(self, identity: Dict[str, Any]) -> str:
        """The content address of one artifact of this family."""
        from repro.store.artifacts import artifact_key

        return artifact_key(self.kind, identity,
                            family_schema=self.schema_version)


_FAMILIES: Dict[str, ArtifactFamily] = {}


def register_family(family: ArtifactFamily) -> ArtifactFamily:
    """Add a family to the registry; duplicate kinds are a bug."""
    if family.kind in _FAMILIES:
        raise ValueError(f"artifact family {family.kind!r} already registered")
    _FAMILIES[family.kind] = family
    return family


def get_family(kind: str) -> ArtifactFamily:
    try:
        return _FAMILIES[kind]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES)) or "none"
        raise KeyError(
            f"unknown artifact family {kind!r}; known: {known}") from None


def family_names() -> List[str]:
    return sorted(_FAMILIES)


def all_families() -> List[ArtifactFamily]:
    return [_FAMILIES[kind] for kind in sorted(_FAMILIES)]
