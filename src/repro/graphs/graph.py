"""The input graph abstraction shared by every algorithm in the library.

A :class:`Graph` is the communication network of the CONGEST model
(§1.1.1): undirected, connected (for most algorithms), with nodes named
``0 .. n-1``.  Edge weights are optional and may be asymmetric (the
weighted-APSP result, Theorem 1.1, holds "even on directed graphs and
even if the edge weights are negative"; directedness affects only the
*weights*, never the communication links, which are always two-way).

Storage model
-------------
The core representation is CSR (compressed sparse row): an ``indptr``
array of length n+1 and an ``indices`` array holding every directed
arc's head, so node ``u``'s neighbors are
``indices[indptr[u]:indptr[u+1]]``.  The dict-shaped views the rest of
the library was written against -- ``adj`` (node -> sorted neighbor
tuple) and ``weights`` (ordered pair -> weight) -- are materialized
lazily from the CSR arrays and cached, so existing callers see the
exact same objects they always did while bulk consumers (generators,
structure checks, the simulator's per-network precomputation) work on
the arrays.

Graphs are immutable once built, which is what makes the per-instance
caches sound: the simulator's neighbor sets and canonical edge keys
(:meth:`Graph.nbr_sets` / :meth:`Graph.edge_keys`) and the per-node
weight views (:meth:`Graph.node_weight_views`) are derived once per
graph and shared by every :class:`repro.congest.network.Network` and
execution over it -- the "zero-rebuild" layer the differential harness
and multi-algorithm sweep cells lean on.  The same holds for the
preprocessing's global BFS tree, which
:func:`repro.primitives.global_tree.build_global_tree` memoizes per
seed outside fault, profiler and reference runs.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

EdgeKey = Tuple[int, int]


def undirected(u: int, v: int) -> EdgeKey:
    """Canonical key for the undirected edge {u, v}.

    Kept consistent with :func:`repro.congest.metrics.undirected` (the
    metrics module avoids importing this one to keep the dependency
    graph acyclic: graphs is the bottom layer).
    """
    return (u, v) if repr(u) <= repr(v) else (v, u)


class Graph:
    """An undirected communication graph with optional (directed) weights.

    Parameters
    ----------
    adj:
        Adjacency map ``node -> sorted tuple of neighbors``.  Node names
        must be ``0 .. n-1``.  This is the fully validated dict
        construction route; bulk construction goes through
        :func:`from_edges` / :func:`from_edge_arrays`, which build the
        CSR arrays directly and materialize ``adj`` on demand.
    weights:
        Optional map from *ordered* pair ``(u, v)`` to the weight of the
        directed edge u->v.  For undirected weighted graphs both
        orientations carry the same value.  ``None`` means unweighted
        (every edge has weight 1).
    """

    def __init__(self, adj: Optional[Dict[int, Tuple[int, ...]]] = None,
                 weights: Optional[Dict[EdgeKey, float]] = None,
                 name: str = "graph"):
        self.name = name
        self._adj: Optional[Dict[int, Tuple[int, ...]]] = None
        self._weights: Optional[Dict[EdgeKey, float]] = None
        # CSR-aligned weight values (python numbers, built lazily from
        # the weights dict so numeric types survive round-trips).
        self._w_out: Optional[list] = None
        self._w_in: Optional[list] = None
        self._symmetric: Optional[bool] = None
        # Zero-rebuild caches (see module docstring).
        self._nbr_set_cache: Optional[Dict[int, frozenset]] = None
        self._edge_key_cache: Optional[Dict[int, Tuple[EdgeKey, ...]]] = None
        self._weight_view_cache: Dict[int, tuple] = {}
        # seed -> GlobalTree, kept by build_global_tree.
        self._global_tree_cache: Dict[int, Any] = {}
        if adj is None:
            # Filled in by _from_csr; a bare Graph() is not public API.
            self._indptr = np.zeros(1, dtype=np.int64)
            self._indices = np.zeros(0, dtype=np.int64)
            return
        self._init_from_dict(adj, weights)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _init_from_dict(self, adj: Dict[int, Tuple[int, ...]],
                        weights: Optional[Dict[EdgeKey, float]]) -> None:
        """The dict route: validate adjacency, then build the CSR arrays."""
        expected = set(range(len(adj)))
        if set(adj) != expected:
            raise ValueError("graph nodes must be named 0..n-1")
        for u, nbrs in adj.items():
            for v in nbrs:
                if v == u:
                    raise ValueError(f"self-loop at node {u}")
                if u not in adj[v]:
                    raise ValueError(f"adjacency not symmetric on edge ({u},{v})")
        self._adj = adj
        n = len(adj)
        degrees = np.fromiter((len(adj[u]) for u in range(n)),
                              dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        total = int(indptr[-1])
        self._indptr = indptr
        self._indices = np.fromiter(
            (v for u in range(n) for v in adj[u]),
            dtype=np.int64, count=total)
        if weights is not None:
            self._attach_weights(weights)

    @classmethod
    def _from_csr(cls, indptr: np.ndarray, indices: np.ndarray,
                  name: str = "graph") -> "Graph":
        """Wrap already-validated CSR arrays (internal fast route)."""
        g = cls(name=name)
        g._indptr = indptr
        g._indices = indices
        return g

    def _attach_weights(self, weights: Dict[EdgeKey, float]) -> None:
        """Validate + symmetrize a weight dict against the topology.

        Mirrors the legacy ``__post_init__`` behavior byte-for-byte:
        weights on non-edges raise, and missing reverse orientations are
        silently symmetrized *in place* on the given dict.
        """
        nbr_sets = self.nbr_sets()
        for (u, v) in list(weights):
            if u not in nbr_sets or v not in nbr_sets[u]:
                raise ValueError(f"weight given for non-edge ({u},{v})")
            if (v, u) not in weights:
                # Symmetrize silently: undirected weighted input.
                weights[(v, u)] = weights[(u, v)]
        self._weights = weights

    def reweighted(self, weights: Dict[EdgeKey, float],
                   name: Optional[str] = None) -> "Graph":
        """A new Graph sharing this one's (validated) topology.

        The fast path for the weight-assignment wrappers in
        :mod:`repro.graphs.weights`: no adjacency re-validation, no CSR
        rebuild -- only the weight dict is checked against the edges.
        The topology arrays (and the materialized ``adj`` dict, if any)
        are shared; per-instance caches are not, since weight views
        differ (the global-tree memo starts empty too).
        """
        g = Graph._from_csr(self._indptr, self._indices,
                            name=self.name if name is None else name)
        g._nbr_set_cache = self.nbr_sets()  # materializes self._adj too
        g._adj = self._adj
        g._edge_key_cache = self._edge_key_cache
        g._attach_weights(weights)
        return g

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def adj(self) -> Dict[int, Tuple[int, ...]]:
        """Adjacency map ``node -> neighbor tuple`` (lazy, cached)."""
        if self._adj is None:
            indptr, flat = self._indptr, self._indices.tolist()
            self._adj = {
                u: tuple(flat[indptr[u]:indptr[u + 1]])
                for u in range(self.n)}
        return self._adj

    @property
    def weights(self) -> Optional[Dict[EdgeKey, float]]:
        return self._weights

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self._indptr) - 1

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self._indices) // 2

    def nodes(self) -> range:
        return range(self.n)

    def neighbors(self, u: int) -> Tuple[int, ...]:
        return self.adj[u]

    def degree(self, u: int) -> int:
        return int(self._indptr[u + 1] - self._indptr[u])

    def edges(self) -> Iterator[EdgeKey]:
        """Each undirected edge once, as (u, v) with u < v."""
        for u, nbrs in self.adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def weight(self, u: int, v: int) -> float:
        """Weight of the directed edge u -> v (1 if unweighted)."""
        if self._weights is None:
            return 1
        return self._weights[(u, v)]

    @property
    def is_weighted(self) -> bool:
        return self._weights is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.adj == other.adj and self.weights == other.weights
                and self.name == other.name)

    def __repr__(self) -> str:
        return (f"Graph(name={self.name!r}, n={self.n}, m={self.m}, "
                f"weighted={self.is_weighted})")

    # ------------------------------------------------------------------
    # Zero-rebuild caches consumed by the simulator
    # ------------------------------------------------------------------
    def nbr_sets(self) -> Dict[int, frozenset]:
        """``node -> frozenset(neighbors)``, derived once per graph.

        O(1) neighbor-membership for point-to-point sends; previously
        every :class:`~repro.congest.network.Network` rebuilt this.
        """
        if self._nbr_set_cache is None:
            self._nbr_set_cache = {
                v: frozenset(nbrs) for v, nbrs in self.adj.items()}
        return self._nbr_set_cache

    def edge_keys(self) -> Dict[int, Tuple[EdgeKey, ...]]:
        """Per-node canonical edge keys in neighbor order, memoized.

        The bulk-metering input of the simulator's batched broadcast
        path (keys match :func:`repro.congest.metrics.undirected`).
        """
        if self._edge_key_cache is None:
            self._edge_key_cache = {
                v: tuple(undirected(v, u) for u in nbrs)
                for v, nbrs in self.adj.items()}
        return self._edge_key_cache

    def _weight_slices(self) -> Tuple[list, list]:
        """CSR-aligned out/in weight values (original numeric types)."""
        if self._w_out is None:
            adj, w = self.adj, self._weights
            self._w_out = [w[(u, v)] for u in range(self.n)
                           for v in adj[u]]
            self._w_in = [w[(v, u)] for u in range(self.n)
                          for v in adj[u]]
        return self._w_out, self._w_in

    @property
    def weights_symmetric(self) -> bool:
        """True when every edge weighs the same in both directions."""
        if self._symmetric is None:
            if self._weights is None:
                self._symmetric = True
            else:
                w_out, w_in = self._weight_slices()
                self._symmetric = w_out == w_in
        return self._symmetric

    def node_weight_views(self, v: int) -> Tuple[Dict[int, float],
                                                 Dict[int, float]]:
        """``(out_weights, in_weights)`` dicts for node ``v``, cached.

        Served from CSR weight slices; on symmetric (undirected-weight)
        graphs both views are the *same* dict object, so an execution
        materializes one mapping per node instead of two -- and repeat
        executions over the same graph materialize none at all.
        """
        views = self._weight_view_cache.get(v)
        if views is None:
            w_out, w_in = self._weight_slices()
            start, end = int(self._indptr[v]), int(self._indptr[v + 1])
            nbrs = self.adj[v]
            out_view = dict(zip(nbrs, w_out[start:end]))
            in_view = (out_view if self.weights_symmetric
                       else dict(zip(nbrs, w_in[start:end])))
            views = (out_view, in_view)
            self._weight_view_cache[v] = views
        return views

    # ------------------------------------------------------------------
    # Structure checks used by tests and drivers
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        n = self.n
        if n == 0:
            return True
        indptr, indices = self._indptr, self._indices
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = np.array([0], dtype=np.int64)
        reached = 1
        while frontier.size:
            nxt = _gather_neighbors(indptr, indices, frontier)
            nxt = nxt[~seen[nxt]]
            if nxt.size == 0:
                break
            frontier = np.unique(nxt)
            seen[frontier] = True
            reached += len(frontier)
        return reached == n

    def is_bipartite(self) -> Optional[Tuple[List[int], List[int]]]:
        """Return a bipartition (sides as node lists) or None."""
        color: Dict[int, int] = {}
        adj = self.adj
        for start in self.nodes():
            if start in color:
                continue
            color[start] = 0
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for v in adj[u]:
                    if v not in color:
                        color[v] = 1 - color[u]
                        queue.append(v)
                    elif color[v] == color[u]:
                        return None
        left = [u for u in self.nodes() if color[u] == 0]
        right = [u for u in self.nodes() if color[u] == 1]
        return left, right


def _gather_neighbors(indptr: np.ndarray, indices: np.ndarray,
                      nodes: np.ndarray) -> np.ndarray:
    """All neighbors of ``nodes`` (with multiplicity), fully vectorized."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts,
                                                          counts)
    return indices[np.repeat(starts, counts) + within]


def from_edge_arrays(n: int, us, vs, *, name: str = "graph") -> Graph:
    """Build a :class:`Graph` from parallel endpoint arrays.

    The vectorized construction core: self-loops are dropped, duplicate
    edges collapse, and the adjacency comes out sorted -- all in
    O(m log m) numpy work with no per-edge Python objects.
    """
    us = np.asarray(us, dtype=np.int64).ravel()
    vs = np.asarray(vs, dtype=np.int64).ravel()
    if len(us) != len(vs):
        raise ValueError("endpoint arrays must have equal length")
    if n <= 0:
        if len(us):
            raise ValueError("edge endpoint out of range for empty graph")
        return Graph(adj={}, name=name)
    if len(us):
        lo = min(int(us.min()), int(vs.min()))
        hi = max(int(us.max()), int(vs.max()))
        if lo < 0 or hi >= n:
            raise ValueError(f"edge endpoint out of range 0..{n - 1}")
        keep = us != vs
        us, vs = us[keep], vs[keep]
    src = np.concatenate([us, vs])
    dst = np.concatenate([vs, us])
    codes = np.unique(src * np.int64(n) + dst)
    src, dst = codes // n, codes % n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph._from_csr(indptr, dst.astype(np.int64, copy=False),
                           name=name)


def from_edges(n: int, edge_list,
               weights: Optional[Dict[EdgeKey, float]] = None,
               name: str = "graph") -> Graph:
    """Build a :class:`Graph` from an edge list.

    Duplicate edges are collapsed; the adjacency lists come out sorted so
    that executions are reproducible.  Accepts any iterable of pairs or
    an (m, 2) integer array; either way construction runs through the
    vectorized CSR core.  An edge that is not a pair raises
    ``ValueError``.
    """
    if isinstance(edge_list, np.ndarray):
        if edge_list.size and edge_list.shape[1:] != (2,):
            raise ValueError(f"edge array must have shape (m, 2), "
                             f"got {edge_list.shape}")
        pairs = edge_list.reshape(-1, 2)
        us, vs = pairs[:, 0], pairs[:, 1]
    else:
        edges = list(edge_list)
        m = len(edges)
        arity = np.fromiter(map(len, edges), dtype=np.int64, count=m)
        if (arity != 2).any():
            raise ValueError("every edge must be a (u, v) pair")
        flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64,
                           count=2 * m)
        us, vs = flat[0::2], flat[1::2]
    g = from_edge_arrays(n, us, vs, name=name)
    if weights is not None:
        full = {}
        for (u, v), w in weights.items():
            full[(u, v)] = w
            full.setdefault((v, u), w)
        g._attach_weights(full)
    return g


def edge_key(u: int, v: int) -> EdgeKey:
    """Canonical undirected key, re-exported for convenience."""
    return undirected(u, v)
