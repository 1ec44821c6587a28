"""The decomposition pipeline: one LDC snapshot, many consumers.

The staged-pipeline contract behind the decomposition artifact family
(:mod:`repro.store.decompositions`): the Lemma 2.4 LDC decomposition is
the *input artifact* of every downstream structure the paper builds on
it -- the MPX-padded neighborhood cover, the (2r+1) cluster spanner,
and the Baswana-Sen hierarchy seeded at level 0 by the clustering.
This module owns the plain-data **snapshot** those consumers share:

* :func:`ldc_snapshot` -- an :class:`~repro.decomposition.ldc.
  LDCDecomposition` as a deterministic plain dict (``center_of`` /
  ``dist`` / ``parent`` per-node maps, the sorted ``f_edges`` list, the
  construction :class:`~repro.congest.metrics.Metrics` as ints, plus
  ``beta`` / ``clusters`` / ``n``).  The dict is exactly what the
  decomposition store round-trips, so a consumer cannot tell a loaded
  snapshot from a freshly computed one -- the byte-identity contract of
  the ``decomposition_source`` provenance field.
  :func:`build_ldc_snapshot` is the one place a snapshot is built;
* :func:`derive_mpx_cover` / :func:`verify_mpx_cover` -- each cluster
  padded by the F-edge sources pointing into it.  For a valid LDC this
  covers every closed neighborhood (a neighbor in another cluster owns
  an F-edge into ours) with radius <= r + 1 and overlap <= 1 + d;
* :func:`derive_ldc_spanner` / :func:`verify_ldc_spanner` -- cluster
  tree edges plus all F-edges: a connectivity-preserving subgraph with
  stretch <= 2r + 1 (same cluster: through the tree; across: one
  F-edge plus a tree walk);
* :data:`BS_EPS` -- the pipeline's Baswana-Sen parameter (kappa = 2):
  the hierarchy cell seeds ``build_baswana_sen`` with the snapshot as
  its level-0 clustering instead of singletons.

Everything else here is a pure function of the snapshot (and the graph
for the verifiers): no RNG, no simulator, no I/O.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.decomposition.ldc import LDCDecomposition, build_ldc, hop_distances
from repro.graphs.graph import Graph

# The Baswana-Sen parameter of the staged pipeline: kappa = 2, so the
# hierarchy on top of the LDC base has three levels (base, one sampled
# level, the finalizing top).
BS_EPS = 0.5

Snapshot = Dict[str, Any]


def ldc_snapshot(ldc: LDCDecomposition) -> Snapshot:
    """The decomposition as a deterministic plain dict (see module doc).

    Keys and iteration orders are canonical (nodes ascending, F-edges
    sorted), so two snapshots of the same decomposition -- or one
    computed and one loaded from the store -- compare equal with ``==``
    and drive byte-identical consumer records.
    """
    nodes = sorted(ldc.center_of)
    return {
        "center_of": {v: ldc.center_of[v] for v in nodes},
        "dist": {v: ldc.clustering.dist[v] for v in nodes},
        "parent": {v: ldc.parent[v] for v in nodes},
        "f_edges": sorted(ldc.f_edges()),
        "metrics": ldc.metrics.as_dict(),
        "beta": ldc.clustering.beta,
        "clusters": ldc.clustering.num_clusters,
        "n": len(nodes),
    }


def build_ldc_snapshot(graph: Graph, seed: int) -> Snapshot:
    """The snapshot of ``build_ldc(graph, seed=seed)`` (Lemma 2.4).

    The decomposition chain, the staged bindings' inline fallback and
    the staged oracles all build their input through it.
    """
    return ldc_snapshot(build_ldc(graph, seed=seed))


def snapshot_out_edges(snapshot: Snapshot) -> Dict[int, List[Tuple[int, int]]]:
    """Per-node outgoing F-edge lists, every node present (possibly [])."""
    out: Dict[int, List[Tuple[int, int]]] = {
        v: [] for v in snapshot["center_of"]}
    for (u, w) in snapshot["f_edges"]:
        out[u].append((u, w))
    return out


# ---------------------------------------------------------------------------
# MPX cover: clusters padded by their incoming F-edge sources
# ---------------------------------------------------------------------------

def derive_mpx_cover(snapshot: Snapshot) -> Dict[int, List[int]]:
    """center -> sorted augmented member list (members + F sources in).

    Local per-node work only: each F-edge source joins the set of the
    cluster its edge lands in.  For a valid LDC decomposition the
    result covers every closed neighborhood (see the module docstring).
    """
    center_of = snapshot["center_of"]
    sets: Dict[int, set] = {c: set() for c in set(center_of.values())}
    for v, c in center_of.items():
        sets[c].add(v)
    for (u, w) in snapshot["f_edges"]:
        sets[center_of[w]].add(u)
    return {c: sorted(members) for c, members in sorted(sets.items())}


def verify_mpx_cover(graph: Graph, cover: Dict[int, List[int]],
                     snapshot: Snapshot) -> Dict[str, int]:
    """Exhaustively check the padded-cover properties; return stats.

    Raises AssertionError on any violation:
    * one set per cluster center, containing the cluster's members;
    * padding: every node's closed neighborhood is inside its home set;
    * every set is connected in its induced subgraph, rooted at the
      cluster center (the realized radius is measured from it).
    """
    center_of = snapshot["center_of"]
    centers = set(center_of.values())
    assert set(cover) == centers, "one cover set per cluster center"
    membership: Dict[int, int] = {}
    for c, members in cover.items():
        member_set = set(members)
        assert c in member_set, f"set of center {c} must contain it"
        for v in members:
            membership[v] = membership.get(v, 0) + 1
        for v, home in center_of.items():
            if home == c:
                assert v in member_set, (
                    f"cluster member {v} missing from set {c}")
    for v in graph.nodes():
        home = cover[center_of[v]]
        assert set(graph.neighbors(v)) | {v} <= set(home), (
            f"closed neighborhood of {v} not padded by its home set")
    radius = 0
    for c, members in cover.items():
        dist = hop_distances(graph.adj, c, set(members))
        assert set(dist) == set(members), (
            f"cover set {c} disconnected in its induced subgraph")
        radius = max(radius, max(dist.values()))
    return {"clusters": len(cover),
            "max_overlap": max(membership.values()),
            "radius": radius}


# ---------------------------------------------------------------------------
# LDC spanner: cluster tree edges + all F-edges
# ---------------------------------------------------------------------------

def derive_ldc_spanner(snapshot: Snapshot) -> List[Tuple[int, int]]:
    """The sorted undirected edge list of the cluster spanner."""
    edges = set()
    for v, p in snapshot["parent"].items():
        if p is not None:
            edges.add((min(v, p), max(v, p)))
    for (u, w) in snapshot["f_edges"]:
        edges.add((min(u, w), max(u, w)))
    return sorted(edges)


def verify_ldc_spanner(graph: Graph,
                       edges: List[Tuple[int, int]]) -> Dict[str, int]:
    """Exhaustively check the spanner is a bounded-stretch subgraph.

    Raises AssertionError on any violation: every spanner edge is a
    graph edge, and every graph edge's endpoints stay connected in the
    spanner (finite stretch).  Returns the realized size and the exact
    max stretch over all graph edges.
    """
    adj: Dict[int, List[int]] = {v: [] for v in graph.nodes()}
    for (u, w) in edges:
        assert w in graph.neighbors(u), (
            f"spanner edge ({u},{w}) is not a graph edge")
        adj[u].append(w)
        adj[w].append(u)
    stretch = 0
    # One BFS per node over the (sparse) spanner adjacency gives every
    # pairwise spanner distance a graph edge could need.
    sp_dist = {root: hop_distances(adj, root) for root in graph.nodes()}
    for (u, w) in graph.edges():
        d = sp_dist[u].get(w)
        assert d is not None, (
            f"graph edge ({u},{w}) disconnected in the spanner")
        stretch = max(stretch, d)
    return {"size": len(edges), "stretch": stretch}
