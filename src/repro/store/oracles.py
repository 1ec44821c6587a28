"""Oracle-output artifacts: cached differential baselines.

The second artifact family.  A differential cell's ground truth -- the
sequential reference a simulator output is checked against -- is a pure
function of ``(scenario graph, derived seed)`` and of the *baseline's
own source code*, so its identity coordinates are::

    (scenario, size, derived_seed, oracle, revision)

where ``oracle`` names an :class:`repro.baselines.oracles.OracleSpec`
and ``revision`` is the content hash of that spec's source
(:func:`repro.baselines.oracles.oracle_revision`).  Hashing the
revision into the key is what makes the cache safe across edits:
touching a baseline function rotates every affected key, so new code
can never be validated against an old baseline's cached output.

The graph itself is represented in the key only through ``(scenario,
size, derived_seed)`` -- the same seed-determinism invariant the graph
family relies on.  Editing a scenario *generator* therefore requires
clearing the store (both families go stale identically: the graph
family would keep serving the old topology), exactly as it already
does for graph snapshots; the run store's git-revision gate is what
keeps cross-revision records from mixing.

The value serialization is owned by the spec's ``encode``/``decode``
pair (a distance matrix, a matching cardinality, LDC realization
stats...); this module only threads it through the shared byte layer --
atomic write-then-rename publication, mmap'd reads, corruption
quarantine-and-recompute.  A cached entry that decodes to garbage is
treated exactly like a truncated array: the entry is dropped and the
caller recomputes.

The view's coordinates are ``(scenario, size, derived_seed, spec)``:
the spec itself (not just its name) is what the codec runs, so a
replaced or edited spec is encoded and decoded by its own functions.

Consumers: the fall-through chain in :mod:`repro.runner.oracle_cache`
(in-process LRU -> this family -> compute-and-publish), ``repro store
ls/stat/gc --family oracles``, ``repro store warm --family oracles``,
and the ``oracle-store`` benchmark.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.baselines.oracles import OracleSpec, oracle_revision
from repro.store.families import ArtifactFamily, register_family

ORACLE_KIND = "oracles"


def oracle_identity(scenario: str, size: int, derived_seed: int,
                    spec: OracleSpec) -> Dict[str, Any]:
    return ORACLE_FAMILY.identity(
        scenario=scenario, size=size, derived_seed=derived_seed,
        oracle=spec.name, revision=oracle_revision(spec))


def _encode(value: Any, scenario: str, size: int, derived_seed: int,
            spec: OracleSpec) -> Tuple[Dict[str, np.ndarray],
                                       Dict[str, Any]]:
    return spec.encode(value), {"oracle": {
        "name": spec.name, "description": spec.description}}


def _decode(manifest: Dict[str, Any], arrays: Dict[str, np.ndarray],
            scenario: str, size: int, derived_seed: int,
            spec: OracleSpec) -> Any:
    return spec.decode(arrays)


ORACLE_FAMILY = register_family(ArtifactFamily(
    kind=ORACLE_KIND,
    key_fields=("scenario", "size", "derived_seed", "oracle", "revision"),
    schema_version=1,
    description="differential baseline outputs (distance matrices, "
                "matching sizes, LDC realizations), keyed by oracle "
                "name + source revision",
    coords=oracle_identity, encode=_encode, decode=_decode))


def oracle_key(scenario: str, size: int, derived_seed: int,
               spec: OracleSpec) -> str:
    """The content address of one cached baseline output."""
    return ORACLE_FAMILY.key(
        oracle_identity(scenario, size, derived_seed, spec))
