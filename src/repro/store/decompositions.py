"""Decomposition snapshots: the third artifact family.

A seed-deterministic decomposition (today: the LDC decomposition of
Lemma 2.4) is as content-addressable as the graph it was built from,
keyed by::

    (scenario, size, derived_seed, algorithm)

The stored value is the plain-dict **snapshot** of
:func:`repro.decomposition.pipeline.ldc_snapshot` -- the cluster map
(``center_of``/``dist``/``parent`` as dense per-node arrays), the
directed inter-cluster edge set F, and the construction metrics /
``beta`` / cluster count in the manifest -- so a load returns exactly
what a fresh computation would, including the metered construction
bill.  That exactness is what lets downstream cells (the MPX cover,
the LDC spanner, the Baswana-Sen hierarchy) consume a stored snapshot
through :mod:`repro.runner.decomposition_cache` and still produce
byte-identical records with the store on or off.

Like the sibling families, a truncated or inconsistent entry is
quarantined and recomputed, never an error.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.store.families import ArtifactFamily, register_family

DECOMPOSITION_KIND = "decompositions"

# The construction-metrics keys a snapshot round-trips (the manifest is
# JSON, so ints survive exactly).
_METRIC_FIELDS = ("rounds", "messages", "broadcasts", "words",
                  "max_edge_congestion")


def _encode(snapshot: Dict[str, Any], *_coords: Any
            ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    nodes = sorted(snapshot["center_of"])
    center = np.asarray([snapshot["center_of"][v] for v in nodes],
                        dtype=np.int64)
    dist = np.asarray([snapshot["dist"][v] for v in nodes], dtype=np.int64)
    parent = np.asarray(
        [-1 if snapshot["parent"][v] is None else snapshot["parent"][v]
         for v in nodes],
        dtype=np.int64)
    edges = np.asarray(sorted(snapshot["f_edges"]),
                       dtype=np.int64).reshape(-1, 2)
    return ({"center": center, "dist": dist, "parent": parent,
             "f_edges": edges},
            {"decomposition": {
                "n": len(nodes),
                "clusters": int(snapshot["clusters"]),
                "beta": snapshot["beta"],
                "metrics": {name: int(snapshot["metrics"][name])
                            for name in _METRIC_FIELDS},
            }})


def _decode(manifest: Dict[str, Any], arrays: Dict[str, np.ndarray],
            *_coords: Any) -> Dict[str, Any]:
    """Exactly the :func:`~repro.decomposition.pipeline.ldc_snapshot`
    shape -- ``parent`` maps centers to None, ``f_edges`` is the sorted
    (u, v) list, ``metrics`` the original int construction meters -- so
    consumers cannot tell a load from a fresh computation."""
    center = arrays["center"].tolist()
    dist = arrays["dist"].tolist()
    parent = arrays["parent"].tolist()
    edges = arrays["f_edges"]
    meta = manifest["decomposition"]
    n = int(meta["n"])
    metrics = {name: int(meta["metrics"][name]) for name in _METRIC_FIELDS}
    if not (len(center) == len(dist) == len(parent) == n
            and edges.ndim == 2 and edges.shape[1:] == (2,)):
        raise ValueError("decomposition arrays inconsistent")
    return {
        "center_of": {v: center[v] for v in range(n)},
        "dist": {v: dist[v] for v in range(n)},
        "parent": {v: (None if parent[v] < 0 else parent[v])
                   for v in range(n)},
        "f_edges": [tuple(edge) for edge in edges.tolist()],
        "metrics": metrics,
        "beta": meta["beta"],
        "clusters": int(meta["clusters"]),
        "n": n,
    }


DECOMPOSITION_FAMILY = register_family(ArtifactFamily(
    kind=DECOMPOSITION_KIND,
    key_fields=("scenario", "size", "derived_seed", "algorithm"),
    schema_version=2,
    description="decomposition snapshots (cluster maps + inter-cluster "
                "edge sets + construction metrics), consumed by the "
                "staged cover/spanner/hierarchy cells",
    encode=_encode, decode=_decode))


def decomposition_key(scenario: str, size: int, derived_seed: int,
                      algorithm: str) -> str:
    """The content address of one stored decomposition snapshot."""
    return DECOMPOSITION_FAMILY.key(DECOMPOSITION_FAMILY.identify(
        scenario, size, derived_seed, algorithm))
