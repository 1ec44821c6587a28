"""The named-oracle catalog: cacheable ground-truth functions.

Every differential cell checks the simulator's output against a
sequential baseline (:mod:`repro.baselines.reference`, plus the LDC
reference decomposition).  Those baselines are pure functions of
``(scenario graph, derived seed)`` -- which makes their outputs
content-addressable artifacts, exactly like the graphs themselves.
An :class:`OracleSpec` packages one such function for the oracle
artifact family (:mod:`repro.store.oracles`):

* ``compute`` -- the baseline itself, ``(graph, derived_seed) -> value``
  (seed-deterministic; most references ignore the seed entirely);
* ``encode``/``decode`` -- the numpy codec: how the value becomes the
  store's arrays and back.  ``decode(encode(v)) == v`` must hold
  exactly, so a cache hit feeds the differential check the same value
  a fresh computation would (the byte-identity contract
  ``tests/test_oracle_store.py`` pins);
* ``depends`` -- every helper whose behavior the baseline inherits.

The **code revision** of a spec -- part of the artifact key -- is a
content hash over the *source text* of ``compute`` and everything in
``depends``.  Editing an oracle function (or any named dependency)
therefore rotates the key: stale cached baselines can never be served
against new oracle code; the old entries simply age out via ``gc``.

Registered oracles:

==================  =====================================================
name                value
==================  =====================================================
unweighted-apsp     n x n hop-distance matrix (``INF`` if unreachable;
                    numpy Floyd-Warshall); shared by the
                    ``apsp-unweighted`` and ``bfs-collection`` bindings,
                    so one artifact serves both cells of a scenario
weighted-apsp       n x n weighted-distance matrix (numpy Floyd-Warshall
                    when its float64 sums are exact: int weights with
                    2 * n * max|w| < 2**53; otherwise Dijkstra, or
                    Bellman-Ford under negative weights)
matching-size       maximum bipartite matching cardinality
                    (Hopcroft-Karp)
ldc-reference       the exhaustively-verified (r, d) realization of the
                    seed-deterministic LDC decomposition (the strong
                    diameter: one BFS per cluster member)
mpx-cover           verified stats of the padded neighborhood cover
                    derived from the LDC snapshot (clusters, overlap,
                    realized radius)
ldc-spanner         verified stats of the cluster spanner derived from
                    the LDC snapshot (size, exact max stretch -- one
                    BFS per node over the spanner)
bs-hierarchy        verified stats of the Baswana-Sen hierarchy seeded
                    at level 0 by the LDC snapshot (levels, radius,
                    F/cluster edge counts)
==================  =====================================================

The last three are the **staged pipeline** oracles: each recomputes the
full chain (``build_ldc`` -> snapshot -> derive/build -> exhaustive
verify) sequentially, independent of the sweep-side decomposition
cache, so a cached oracle stays valid ground truth whether the cell it
checks consumed a stored snapshot or recomputed one.
"""

from __future__ import annotations

import hashlib
import inspect
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.baselines import reference
from repro.baselines.reference import INF
from repro.graphs.graph import Graph


@dataclass(frozen=True)
class OracleSpec:
    """One named, cacheable baseline; see the module docstring."""

    name: str
    compute: Callable[["Graph", int], Any]
    encode: Callable[[Any], Dict[str, np.ndarray]]
    decode: Callable[[Dict[str, np.ndarray]], Any]
    depends: Tuple[Any, ...] = ()
    description: str = ""


# Revision memo: hashing sources is cheap but not free, and every cell
# resolution asks for it.  Keyed by the functions themselves so a
# monkeypatched / replaced spec never reuses a stale hash.
_REVISIONS: Dict[Tuple[Any, ...], str] = {}


def _source_chunk(obj: Any) -> str:
    """The revision ingredient for one object: its source text.

    Objects without retrievable source (pyc-only installs, builtins)
    fall back to their qualified name -- stable across processes, so a
    degraded environment still shares one store key per oracle rather
    than minting a fresh never-hitting key per process (a bare
    ``repr`` would embed the memory address).
    """
    try:
        return inspect.getsource(obj)
    except (OSError, TypeError):
        module = getattr(obj, "__module__", "")
        name = getattr(obj, "__qualname__", None) or getattr(
            obj, "__name__", None)
        return f"{module}.{name}" if name else repr(obj)


def oracle_revision(spec: OracleSpec) -> str:
    """Content hash of the oracle's source (compute + codec + depends).

    This is the ``revision`` coordinate of the oracle artifact key:
    two processes at the same code agree on it, and any edit to the
    baseline's source text -- the compute function, its declared
    helpers, or the encode/decode codec (whose behavior a cached value
    equally inherits) -- changes it: the cache-rotation contract.
    """
    memo_key = (spec.name, spec.compute, spec.encode, spec.decode,
                spec.depends)
    revision = _REVISIONS.get(memo_key)
    if revision is None:
        parts = (spec.compute, spec.encode, spec.decode) + \
            tuple(spec.depends)
        chunks: List[str] = [_source_chunk(obj) for obj in parts]
        digest = hashlib.sha256("\n".join(chunks).encode("utf-8"))
        revision = digest.hexdigest()[:12]
        _REVISIONS[memo_key] = revision
    return revision


# ---------------------------------------------------------------------------
# Codecs
# ---------------------------------------------------------------------------

def _encode_matrix(value: List[List[float]]) -> Dict[str, np.ndarray]:
    return {"dist": np.asarray(value, dtype=np.float64)}


def _decode_matrix(arrays: Dict[str, np.ndarray]) -> List[List[float]]:
    """Back to the reference representation: int entries, float INF.

    The one conversion of a distance matrix, for a fresh Floyd-Warshall
    result and a store hit alike, so both are ``==`` and type-identical
    to ``reference.unweighted_apsp``/``weighted_apsp``: Python ints for
    finite distances (every registered weight scheme is integral) and
    ``float('inf')`` for unreachable pairs.  A non-integral float
    (float weights, which the oracles compute on the reference path)
    round-trips as the float it was.  The common matrix, every entry
    finite, integral and exactly representable (below 2**53), converts
    in one array cast.
    """
    dist = arrays["dist"]
    if dist.ndim != 2:
        raise ValueError("oracle matrix must be 2-D")
    if ((np.abs(dist) < 2.0 ** 53) & (dist == np.trunc(dist))).all():
        return dist.astype(np.int64).tolist()
    out: List[List[float]] = []
    for row in dist.tolist():
        out.append([INF if math.isinf(x)
                    else (int(x) if x == int(x) else x) for x in row])
    return out


def _encode_scalar(value: int) -> Dict[str, np.ndarray]:
    return {"value": np.asarray([int(value)], dtype=np.int64)}


def _decode_scalar(arrays: Dict[str, np.ndarray]) -> int:
    value = arrays["value"]
    if value.shape != (1,):
        raise ValueError("oracle scalar must have shape (1,)")
    return int(value[0])


def _stats_codec(fields: Tuple[str, ...], label: str):
    """An int-stats codec over ``fields`` (first field a validity bit).

    The LDC and pipeline-stage oracles all produce small all-int stat
    dicts; this factory builds their encode/decode pairs.  (The closures
    share one source text, which is fine for revision hashing:
    ``compute`` and ``depends`` -- where the behavior actually lives --
    still differ per spec.)
    """
    def encode(value: Dict[str, int]) -> Dict[str, np.ndarray]:
        return {"stats": np.asarray(
            [int(value[name]) for name in fields], dtype=np.int64)}

    def decode(arrays: Dict[str, np.ndarray]) -> Dict[str, int]:
        stats = arrays["stats"]
        if stats.shape != (len(fields),):
            raise ValueError(
                f"{label} oracle stats must have shape ({len(fields)},)")
        out = dict(zip(fields, (int(x) for x in stats.tolist())))
        out["valid"] = bool(out["valid"])
        return out

    return encode, decode


_LDC_FIELDS = ("valid", "r", "d", "clusters")
_COVER_FIELDS = ("valid", "clusters", "max_overlap", "radius")
_SPANNER_FIELDS = ("valid", "size", "stretch")
_HIERARCHY_FIELDS = ("valid", "levels", "max_radius", "f_edges",
                     "cluster_edges", "max_f_degree")

_encode_ldc, _decode_ldc = _stats_codec(_LDC_FIELDS, "LDC")
_encode_cover, _decode_cover = _stats_codec(_COVER_FIELDS, "cover")
_encode_spanner, _decode_spanner = _stats_codec(_SPANNER_FIELDS, "spanner")
_encode_hierarchy, _decode_hierarchy = _stats_codec(_HIERARCHY_FIELDS,
                                                    "hierarchy")


# ---------------------------------------------------------------------------
# Oracle functions
# ---------------------------------------------------------------------------

def unweighted_apsp_oracle(g: "Graph", seed: int) -> List[List[float]]:
    """Hop-distance matrix: Floyd-Warshall, every arc weighing 1.

    Seed-independent.  A weighted graph's weights are dropped (the
    topology arrays are shared, not copied), so the matrix is
    ``reference.unweighted_apsp``'s on any input.
    """
    if g.is_weighted:
        g = Graph._from_csr(g._indptr, g._indices, name=g.name)
    return _decode_matrix({"dist": reference.floyd_warshall(g)})


def _exact_in_float64(g: "Graph") -> bool:
    """Whether Floyd-Warshall reproduces the reference matrix exactly.

    True when every weight is a Python ``int`` and 2 * n * max|w| <
    2**53: every candidate sum (two simple-path lengths) is then an
    exact float64, and the decode hands back the Python ints that the
    reference's left-to-right sums produce.  Float weights round
    differently and come back as floats, so they stay on the reference.
    """
    if not g.is_weighted:
        return True
    arc_weights = g._weight_slices()[0]
    return (all(type(w) is int for w in arc_weights)
            and 2 * g.n * max(map(abs, arc_weights), default=0) < 2 ** 53)


def weighted_apsp_oracle(g: "Graph", seed: int) -> List[List[float]]:
    """Weighted distance matrix (seed-independent).

    Floyd-Warshall when its float64 sums are exact
    (:func:`_exact_in_float64`, every catalog weight scheme); otherwise
    Dijkstra, or Bellman-Ford under negative weights, per source.
    Either way a negative cycle raises ``ValueError``.
    """
    if _exact_in_float64(g):
        return _decode_matrix({"dist": reference.floyd_warshall(g)})
    return reference.weighted_apsp(g)


def matching_size_oracle(g: "Graph", seed: int) -> int:
    """Maximum bipartite matching cardinality via Hopcroft-Karp."""
    return reference.maximum_matching_size(g)


def ldc_reference_oracle(g: "Graph", seed: int) -> Dict[str, int]:
    """The exhaustively-verified realization of the LDC decomposition.

    ``build_ldc`` is seed-deterministic given ``(graph, seed)``, so its
    realized ``(r, d, clusters)`` -- including the expensive per-cluster
    strong-diameter check of ``verify_ldc`` -- is a pure function of the
    cell coordinates and cacheable like any other baseline.  A
    decomposition that violates Definition 2.3 is reported as
    ``valid=False`` rather than raised, so the differential cell records
    a failed check instead of crashing the sweep.
    """
    from repro.decomposition.ldc import build_ldc, verify_ldc

    ldc = build_ldc(g, seed=seed)
    try:
        stats = verify_ldc(g, ldc)
    except AssertionError:
        return {"valid": False, "r": -1, "d": -1, "clusters": -1}
    return {"valid": True, "r": int(stats["r"]), "d": int(stats["d"]),
            "clusters": int(stats["clusters"])}


def mpx_cover_reference_oracle(g: "Graph", seed: int) -> Dict[str, int]:
    """Verified stats of the LDC-derived padded neighborhood cover.

    Recomputes the full stage chain sequentially (see the module
    docstring); a cover violating the padding/connectivity properties
    is reported as ``valid=False`` rather than raised.
    """
    from repro.decomposition.pipeline import (
        build_ldc_snapshot,
        derive_mpx_cover,
        verify_mpx_cover,
    )

    snapshot = build_ldc_snapshot(g, seed)
    cover = derive_mpx_cover(snapshot)
    try:
        stats = verify_mpx_cover(g, cover, snapshot)
    except AssertionError:
        return {"valid": False, "clusters": -1, "max_overlap": -1,
                "radius": -1}
    return {"valid": True, "clusters": int(stats["clusters"]),
            "max_overlap": int(stats["max_overlap"]),
            "radius": int(stats["radius"])}


def ldc_spanner_reference_oracle(g: "Graph", seed: int) -> Dict[str, int]:
    """Verified (size, exact max stretch) of the LDC cluster spanner."""
    from repro.decomposition.pipeline import (
        build_ldc_snapshot,
        derive_ldc_spanner,
        verify_ldc_spanner,
    )

    snapshot = build_ldc_snapshot(g, seed)
    edges = derive_ldc_spanner(snapshot)
    try:
        stats = verify_ldc_spanner(g, edges)
    except AssertionError:
        return {"valid": False, "size": -1, "stretch": -1}
    return {"valid": True, "size": int(stats["size"]),
            "stretch": int(stats["stretch"])}


def bs_hierarchy_reference_oracle(g: "Graph", seed: int) -> Dict[str, int]:
    """Verified stats of the LDC-seeded Baswana-Sen hierarchy."""
    from repro.decomposition.baswana_sen import (
        build_baswana_sen,
        verify_hierarchy,
    )
    from repro.decomposition.pipeline import BS_EPS, build_ldc_snapshot

    snapshot = build_ldc_snapshot(g, seed)
    hierarchy = build_baswana_sen(g, BS_EPS, seed=seed, base=snapshot)
    try:
        stats = verify_hierarchy(g, hierarchy)
    except AssertionError:
        return {"valid": False, "levels": -1, "max_radius": -1,
                "f_edges": -1, "cluster_edges": -1, "max_f_degree": -1}
    return {"valid": True,
            **{name: int(stats[name]) for name in _HIERARCHY_FIELDS[1:]}}


def _pipeline_depends() -> Tuple[Any, ...]:
    """What every staged oracle inherits: MPX, LDC and the pipeline.

    ``ldc`` holds the one BFS and the Definition 2.3 predicates, and
    ``pipeline`` the snapshot builder and the derivations.
    """
    from repro.decomposition import ldc as ldc_mod
    from repro.decomposition import mpx as mpx_mod
    from repro.decomposition import pipeline as pipeline_mod

    return (pipeline_mod, ldc_mod, mpx_mod)


def _hierarchy_depends() -> Tuple[Any, ...]:
    """The hierarchy oracle additionally inherits Baswana-Sen."""
    from repro.decomposition import baswana_sen as baswana_sen_mod

    return _pipeline_depends() + (baswana_sen_mod,)


ORACLES: Dict[str, OracleSpec] = {spec.name: spec for spec in (
    OracleSpec(
        name="unweighted-apsp",
        compute=unweighted_apsp_oracle,
        encode=_encode_matrix, decode=_decode_matrix,
        depends=(reference.floyd_warshall,),
        description="n x n hop-distance matrix (Floyd-Warshall)"),
    OracleSpec(
        name="weighted-apsp",
        compute=weighted_apsp_oracle,
        encode=_encode_matrix, decode=_decode_matrix,
        depends=(reference.floyd_warshall, _exact_in_float64,
                 reference.weighted_apsp, reference.dijkstra,
                 reference.bellman_ford),
        description="n x n weighted distance matrix (Floyd-Warshall; "
                    "Dijkstra / Bellman-Ford off the exact range)"),
    OracleSpec(
        name="matching-size",
        compute=matching_size_oracle,
        encode=_encode_scalar, decode=_decode_scalar,
        depends=(reference.maximum_matching_size, reference.hopcroft_karp),
        description="maximum bipartite matching cardinality "
                    "(Hopcroft-Karp)"),
    OracleSpec(
        name="ldc-reference",
        compute=ldc_reference_oracle,
        encode=_encode_ldc, decode=_decode_ldc,
        depends=_pipeline_depends(),
        description="verified (r, d, clusters) realization of the "
                    "seed-deterministic LDC decomposition"),
    OracleSpec(
        name="mpx-cover",
        compute=mpx_cover_reference_oracle,
        encode=_encode_cover, decode=_decode_cover,
        depends=_pipeline_depends(),
        description="verified (clusters, overlap, radius) of the "
                    "LDC-derived padded neighborhood cover"),
    OracleSpec(
        name="ldc-spanner",
        compute=ldc_spanner_reference_oracle,
        encode=_encode_spanner, decode=_decode_spanner,
        depends=_pipeline_depends(),
        description="verified (size, exact stretch) of the LDC cluster "
                    "spanner"),
    OracleSpec(
        name="bs-hierarchy",
        compute=bs_hierarchy_reference_oracle,
        encode=_encode_hierarchy, decode=_decode_hierarchy,
        depends=_hierarchy_depends(),
        description="verified level/radius/edge stats of the LDC-seeded "
                    "Baswana-Sen hierarchy"),
)}
