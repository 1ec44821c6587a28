"""CSR graph snapshots: the store's first artifact family.

A scenario graph is fully determined by ``(scenario name, size, derived
construction seed)`` -- the same content address the in-process LRU of
:mod:`repro.runner.graph_cache` uses -- and its storage form is already
a pair of CSR numpy arrays plus (optionally) a weight mapping.  That
makes it the ideal first family: publish the arrays once, and every
pool worker, repeated sweep, and future revision mmaps them back
instead of re-running the generator.

Snapshot layout (one store entry)::

    indptr.npy        # int64, length n+1
    indices.npy       # int64, length 2m (every directed arc's head)
    weight_keys.npy   # int64 (k, 2) -- ordered (u, v) pairs  [weighted only]
    weight_vals.npy   # int64/float64, length k               [weighted only]

Weights are stored as *ordered key/value arrays in the weight dict's
insertion order*, not re-derived from the CSR arrays: the dict a fresh
generator builds has a specific iteration order, and a restored graph
must be indistinguishable from a fresh build down to that order (the
byte-identity contract ``tests/test_store.py`` pins, the same way the
golden ``tests/golden/graphs.json`` digests pin construction).
``.tolist()`` on the value array round-trips numpy scalars back to the
Python ints (or floats) the generators produced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

import numpy as np

from repro.store.families import ArtifactFamily, register_family

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.graph import Graph

GRAPH_KIND = "graphs"


def _encode(graph: "Graph", *_coords: Any
            ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """CSR arrays + ordered weight arrays.

    Graphs whose weight values do not fit a numeric numpy dtype are not
    storable (ValueError) -- nothing in the repository produces such
    weights, but the store must never corrupt a value to fit.
    """
    arrays: Dict[str, np.ndarray] = {
        "indptr": graph._indptr,
        "indices": graph._indices,
    }
    weighted = graph.weights is not None
    if weighted:
        values = list(graph.weights.values())
        keys = np.asarray(list(graph.weights), dtype=np.int64)
        vals = np.asarray(values)  # ints beyond int64 raise OverflowError
        if vals.dtype.kind not in "if":
            raise ValueError("non-numeric weights")
        if (vals.dtype.kind == "f"
                and any(isinstance(v, int) for v in values)):
            # A mixed int/float dict would coerce the ints to floats on
            # the round trip (1 -> 1.0), breaking byte identity of
            # weight-derived payloads.
            raise ValueError("mixed int/float weights")
        arrays["weight_keys"] = keys.reshape(-1, 2)
        arrays["weight_vals"] = vals
    return arrays, {"graph": {"name": graph.name, "n": graph.n,
                              "m": graph.m, "weighted": weighted}}


def _decode(manifest: Dict[str, Any], arrays: Dict[str, np.ndarray],
            *_coords: Any) -> "Graph":
    """The snapshot as a :class:`Graph` over the mmap'd arrays.

    The CSR arrays stay memory-mapped read-only (graphs are immutable
    by contract, so nothing ever writes into them); the weight dict is
    rebuilt eagerly from the ordered key/value arrays so values come
    back as plain Python numbers.  Structural inconsistencies beyond
    what the artifact layer checks (indptr not matching indices,
    dangling weight keys) raise, which the view treats as corruption.
    """
    from repro.graphs.graph import Graph

    indptr = arrays["indptr"]
    indices = arrays["indices"]
    meta = manifest["graph"]
    n, name = int(meta["n"]), str(meta["name"])
    if (indptr.ndim != 1 or indices.ndim != 1
            or len(indptr) != n + 1 or indptr[0] != 0
            or int(indptr[-1]) != len(indices)):
        raise ValueError("CSR arrays inconsistent with manifest")
    weights = None
    if meta.get("weighted"):
        keys = arrays["weight_keys"]
        vals = arrays["weight_vals"]
        if keys.ndim != 2 or keys.shape != (len(vals), 2):
            raise ValueError("weight arrays inconsistent")
        weights = {(u, v): w
                   for (u, v), w in zip(keys.tolist(), vals.tolist())}
    graph = Graph._from_csr(indptr, indices, name=name)
    if weights is not None:
        # Trusted snapshot of an already-validated graph: attach the
        # weights directly instead of re-validating edge membership,
        # which would materialize the whole adjacency on every load.
        graph._weights = weights
    return graph


GRAPH_FAMILY = register_family(ArtifactFamily(
    kind=GRAPH_KIND,
    key_fields=("scenario", "size", "derived_seed"),
    schema_version=1,
    description="CSR scenario-graph snapshots (indptr/indices + ordered "
                "weight arrays), mmap'd back as Graph instances",
    encode=_encode, decode=_decode))


def graph_key(scenario: str, size: int, derived_seed: int) -> str:
    """The content address of one scenario graph snapshot."""
    return GRAPH_FAMILY.key(GRAPH_FAMILY.identify(scenario, size,
                                                  derived_seed))
