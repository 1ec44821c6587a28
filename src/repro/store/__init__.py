"""The on-disk content-addressed artifact store.

One gitignored store root holds every immutable artifact the sweep
path can reuse instead of recompute, organized as typed **artifact
families** over a shared byte layer:

* :mod:`repro.store.artifacts` -- the byte layer: content keys, atomic
  write-then-rename publication (safe under racing pool workers),
  mmap'd reads with corruption quarantine, ``ls``/``stat``/``gc``
  maintenance with per-family scoping -- plus :class:`FamilyStore`,
  the one family-scoped view every family is read and written through;
* :mod:`repro.store.families` -- the typed registry: each family
  declares its kind, key schema, payload schema version (both schema
  versions are hashed into every content key) and codec;
* :mod:`repro.store.graphs` -- CSR graph snapshots keyed by
  ``(scenario, size, derived construction seed)``;
* :mod:`repro.store.oracles` -- differential baseline outputs keyed by
  ``(scenario, size, derived seed, oracle name, baseline source
  revision)``, so cells skip recomputing their ground truth;
* :mod:`repro.store.decompositions` -- LDC decomposition snapshots
  keyed by ``(scenario, size, derived seed, algorithm)``, the input
  artifact of the staged cover/spanner/hierarchy cells;
* :mod:`repro.store.profiles` -- per-round execution timelines captured
  by ``repro sweep --profile``, keyed by the full cell coordinates
  ``(scenario, algorithm, size, seed, faults, fault_seed, revision)``
  and rendered by ``repro profile show`` / ``diff``.

Consumers: the artifact chains of :mod:`repro.runner.chain` (in-process
LRU -> this store -> compute-and-publish, one per family, listed in
``CHAINS`` in graph -> oracle -> decomposition order), the ``repro
store`` CLI family (``ls``/``stat``/``gc``/``warm``, all
``--family``-aware; ``warm`` walks ``CHAINS``), and the one store
benchmark body of :mod:`repro.bench`, registered per chain as
``graph-store`` / ``oracle-store`` / ``decomposition-pipeline``.
"""

from repro.store.artifacts import (
    DEFAULT_STORE_DIR,
    QUARANTINE_DIR,
    SCHEMA_VERSION,
    ArtifactEntry,
    ArtifactStore,
    FamilyStore,
    artifact_key,
)
from repro.store.families import (
    ArtifactFamily,
    all_families,
    family_names,
    get_family,
    register_family,
)
from repro.store.graphs import GRAPH_FAMILY, graph_key
from repro.store.oracles import ORACLE_FAMILY, oracle_key
from repro.store.decompositions import DECOMPOSITION_FAMILY, decomposition_key
from repro.store.profiles import (
    PROFILE_FAMILY,
    find_profile,
    profile_identity,
    profile_key,
)

__all__ = [
    "ArtifactEntry", "ArtifactFamily", "ArtifactStore",
    "DECOMPOSITION_FAMILY", "DEFAULT_STORE_DIR", "FamilyStore",
    "GRAPH_FAMILY", "ORACLE_FAMILY", "PROFILE_FAMILY",
    "QUARANTINE_DIR", "SCHEMA_VERSION", "all_families", "artifact_key",
    "decomposition_key", "family_names", "find_profile", "get_family",
    "graph_key", "oracle_key", "profile_identity", "profile_key",
    "register_family",
]
