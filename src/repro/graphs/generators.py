"""Graph families used throughout the paper's motivation and our benchmarks.

The paper's claims distinguish regimes by density (the message-heavy
baselines cost Theta(n*m), so dense graphs with m = Theta(n^2) are where
the new algorithms win by the largest factor) and by diameter (BFS-based
dilation).  The generators below cover:

* ``gnp`` -- Erdos-Renyi G(n, p), the workhorse; dense at p = 1/2.
* ``complete`` -- the extreme dense case from the introduction.
* ``path`` / ``cycle`` / ``grid`` -- high-diameter, sparse cases.
* ``random_tree`` -- minimally sparse connected graphs.
* ``dumbbell`` -- two dense blobs joined by a path: the classical shape
  of CONGEST lower-bound constructions (cf. [1, 8]) where a few edges
  must carry a lot of information.
* ``random_bipartite`` -- inputs for the maximum-matching application.
* ``barbell_matching`` -- bipartite graphs with long augmenting paths,
  adversarial for augmenting-path matching algorithms.
* ``random_regular`` -- d-regular expander-like graphs: low diameter at
  low density, the regime where round- and message-optimal algorithms
  are closest.
* ``power_law`` -- configuration-model graphs with a Zipf degree tail:
  a few hubs sit on almost every shortest path (maximally skewed
  per-node congestion).
* ``torus`` -- the wraparound grid: boundary-free moderate diameter,
  the canonical shape for directed per-direction weights.
* ``near_disconnected`` -- dense islands with no organic cross edges,
  connected only by the random patch-up: maximally uneven congestion.

All generators are deterministic given ``seed`` and always return a
*connected* graph (they add a random spanning-path patch-up when the raw
sample is disconnected) so that distributed executions terminate.

Construction goes through the CSR core of :mod:`repro.graphs.graph`:
closed-form families and ``gnp`` emit endpoint arrays directly (no
per-edge Python objects at all), while families whose RNG draws are
inherently sequential (stub matching, per-pair coin flips) keep their
edge loops -- preserving the exact RNG consumption, and therefore the
exact graphs, of the dict-era generators (pinned by the golden
``tests/golden/graphs.json`` digests) -- and hand the finished edge
set to the vectorized :func:`repro.graphs.graph.from_edges`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.graphs.graph import (
    EdgeKey,
    Graph,
    from_edge_arrays,
    from_edges,
)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _patch_pairs(n: int, edge_iter: Iterable[Tuple[int, int]],
                 rng: np.random.Generator) -> List[Tuple[int, int]]:
    """The spanning patch-up edges joining a sample's components.

    Unions the sampled edges, then walks one random permutation and
    bridges consecutive nodes in different components; at most n-1
    pairs.  The permutation is always drawn (even on connected samples)
    so the RNG stream matches the dict-era ``_connect`` exactly.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edge_iter:
        parent[find(u)] = find(v)
    order = list(rng.permutation(n))
    pairs = []
    for a, b in zip(order, order[1:]):
        ra, rb = find(a), find(b)
        if ra != rb:
            pairs.append((min(a, b), max(a, b)))
            parent[ra] = rb
    return pairs


def _connect(n: int, edges: set, rng: np.random.Generator) -> None:
    """Patch a possibly-disconnected edge set into a connected one.

    Joins components along a random permutation; adds at most n-1 edges.
    """
    edges.update(_patch_pairs(n, edges, rng))


def gnp(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p), patched to be connected."""
    rng = _rng(seed)
    # Vectorized upper-triangle sampling; no per-edge Python objects.
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    us, vs = iu[mask], ju[mask]
    patch = _patch_pairs(n, zip(us.tolist(), vs.tolist()), rng)
    if patch:
        pairs = np.asarray(patch, dtype=np.int64)
        us = np.concatenate([us, pairs[:, 0]])
        vs = np.concatenate([vs, pairs[:, 1]])
    return from_edge_arrays(n, us, vs, name=f"gnp(n={n},p={p})")


# Geometric gaps :func:`gnp_streaming` draws per batch.
_GAP_BATCH = 1 << 16


def gnp_streaming(n: int, p: float, seed: int = 0) -> Graph:
    """Exact G(n, p) for large n, without materializing the pair space.

    :func:`gnp` allocates the full upper triangle (Theta(n^2) memory) to
    vectorize the Bernoulli mask, which stops scaling around n ~ 2*10^4.
    This generator samples the same distribution by *geometric gap
    skipping*: the indices of the successful trials in the implicit
    length-C(n,2) Bernoulli stream are reconstructed from Geometric(p)
    inter-hit gaps (drawn in batches and prefix-summed), then decoded
    from flat upper-triangle positions back to (u, v) endpoint arrays
    with one searchsorted over the n row offsets.  Memory is O(n + m)
    and time O(m + n), so n = 10^5 sparse graphs build in well under a
    second.  The connectivity patch-up is the shared
    :func:`_patch_pairs` walk, like every generator here.

    The RNG stream differs from :func:`gnp` (gap draws instead of a
    dense mask), so the two families are distinct scenario inputs; both
    are exact G(n, p) samplers.
    """
    if n < 2:
        raise ValueError("gnp_streaming requires n >= 2")
    if not 0.0 < p < 1.0:
        raise ValueError("gnp_streaming requires 0 < p < 1")
    rng = _rng(seed)
    total = n * (n - 1) // 2
    chunks: List[np.ndarray] = []
    last = -1  # flat position of the previous hit
    while last < total:
        gaps = rng.geometric(p, size=_GAP_BATCH)
        hits = last + np.cumsum(gaps)
        last = int(hits[-1])
        chunks.append(hits)
    flat = np.concatenate(chunks)
    flat = flat[flat < total]
    # Row u owns positions [starts[u], starts[u] + n - 1 - u) of the
    # row-major upper triangle; decode u then the offset within the row.
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (n - 1) - rows * (rows - 1) // 2
    us = np.searchsorted(starts, flat, side="right") - 1
    vs = flat - starts[us] + us + 1
    patch = _patch_pairs(n, zip(us.tolist(), vs.tolist()), rng)
    if patch:
        pairs = np.asarray(patch, dtype=np.int64)
        us = np.concatenate([us, pairs[:, 0]])
        vs = np.concatenate([vs, pairs[:, 1]])
    return from_edge_arrays(n, us, vs, name=f"gnp_streaming(n={n},p={p})")


def complete(n: int) -> Graph:
    """The complete graph K_n (m = n(n-1)/2)."""
    iu, ju = np.triu_indices(n, k=1)
    return from_edge_arrays(n, iu, ju, name=f"complete(n={n})")


def path(n: int) -> Graph:
    """The path P_n -- diameter n-1, the worst case for dilation."""
    us = np.arange(n - 1, dtype=np.int64)
    return from_edge_arrays(n, us, us + 1, name=f"path(n={n})")


def cycle(n: int) -> Graph:
    """The cycle C_n."""
    us = np.arange(n, dtype=np.int64)
    return from_edge_arrays(n, us, (us + 1) % n, name=f"cycle(n={n})")


def grid(rows: int, cols: int) -> Graph:
    """The rows x cols grid -- moderate diameter, degree <= 4."""
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    horiz = (ids[:, :-1].ravel(), ids[:, 1:].ravel())
    vert = (ids[:-1, :].ravel(), ids[1:, :].ravel())
    us = np.concatenate([horiz[0], vert[0]])
    vs = np.concatenate([horiz[1], vert[1]])
    return from_edge_arrays(rows * cols, us, vs, name=f"grid({rows}x{cols})")


def random_tree(n: int, seed: int = 0) -> Graph:
    """A uniformly random labelled tree (via a random attachment order)."""
    rng = _rng(seed)
    order = list(rng.permutation(n))
    us = np.zeros(max(0, n - 1), dtype=np.int64)
    vs = np.zeros(max(0, n - 1), dtype=np.int64)
    for i in range(1, n):
        j = int(rng.integers(0, i))
        us[i - 1] = order[i]
        vs[i - 1] = order[j]
    return from_edge_arrays(n, us, vs, name=f"random_tree(n={n})")


def dumbbell(blob: int, bridge: int, seed: int = 0) -> Graph:
    """Two K_blob cliques joined by a path of ``bridge`` nodes.

    The shape of the lower-bound graphs of [1, 8]: Theta(blob^2) edges on
    each side but only the bridge to exchange information, which makes
    per-edge congestion on the bridge the binding constraint.
    """
    n = 2 * blob + bridge
    off = blob + bridge
    iu, ju = np.triu_indices(blob, k=1)
    chain = np.asarray(
        [blob - 1] + list(range(blob, blob + bridge)) + [off],
        dtype=np.int64)
    us = np.concatenate([iu, iu + off, chain[:-1]])
    vs = np.concatenate([ju, ju + off, chain[1:]])
    return from_edge_arrays(
        n, us, vs, name=f"dumbbell(blob={blob},bridge={bridge})")


def random_bipartite(left: int, right: int, p: float, seed: int = 0) -> Graph:
    """Random bipartite graph on left + right nodes (left side first).

    Connectivity is patched with extra cross edges only, so the result
    remains bipartite.
    """
    rng = _rng(seed)
    n = left + right
    edges = set()
    for u in range(left):
        for v in range(right):
            if rng.random() < p:
                edges.add((u, left + v))

    def components() -> List[List[int]]:
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edges:
            parent[find(a)] = find(b)
        comps: Dict[int, List[int]] = {}
        for v in range(n):
            comps.setdefault(find(v), []).append(v)
        return sorted(comps.values())

    # Bipartite-preserving connectivity patch, in three passes:
    # give every component a left node, then a right node, then chain
    # the components with left-right edges.
    comps = components()
    for comp in comps:
        if all(v >= left for v in comp) and left > 0:
            edges.add((int(rng.integers(0, left)), comp[0]))
    comps = components()
    for comp in comps:
        if all(v < left for v in comp) and right > 0:
            edges.add((comp[0], left + int(rng.integers(0, right))))
    comps = components()
    for prev, comp in zip(comps, comps[1:]):
        lhs = next(v for v in prev if v < left)
        rhs = next(v for v in comp if v >= left)
        edges.add((lhs, rhs))
    g = from_edges(n, edges, name=f"bipartite({left}+{right},p={p})")
    if g.is_bipartite() is None:  # pragma: no cover - defensive
        raise AssertionError("bipartite generator produced an odd cycle")
    if not g.is_connected():  # pragma: no cover - defensive
        raise AssertionError("bipartite generator produced a disconnected graph")
    return g


def torus(rows: int, cols: int) -> Graph:
    """The rows x cols torus: the grid with wraparound edges.

    Diameter (rows + cols) / 2 -- half the grid's -- with every node at
    degree 4 and no boundary, so congestion is translation-invariant.
    With per-direction weights (``asymmetric_weights``) it is the
    canonical directed workload: going "east" and coming back "west"
    cost differently around the whole ring.
    """
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    east = np.roll(ids, -1, axis=1)
    south = np.roll(ids, -1, axis=0)
    us = np.concatenate([ids.ravel(), ids.ravel()])
    vs = np.concatenate([east.ravel(), south.ravel()])
    # Rows/cols of 1 would wrap onto themselves; the CSR core drops
    # self-loops and collapses duplicates, matching the dict-era set.
    return from_edge_arrays(rows * cols, us, vs, name=f"torus({rows}x{cols})")


def _pair_stubs(stubs: List[int], rng: np.random.Generator) -> set:
    """Stub matching: pair a shuffled stub list into edges, discarding
    self-loops and duplicate edges, and re-pair the leftover stubs for
    up to ten rounds (or until a round pairs nothing new)."""
    edges: set = set()
    for _ in range(10):
        rng.shuffle(stubs)
        leftover = []
        for a, b in zip(stubs[0::2], stubs[1::2]):
            u, v = int(min(a, b)), int(max(a, b))
            if u == v or (u, v) in edges:
                leftover.extend((a, b))
            else:
                edges.add((u, v))
        if len(stubs) % 2:
            leftover.append(stubs[-1])
        if not leftover or len(leftover) == len(stubs):
            break
        stubs = leftover
    return edges


def power_law(n: int, exponent: float = 2.5, seed: int = 0) -> Graph:
    """A configuration-model graph with a power-law degree sequence.

    Samples degrees from a Zipf(``exponent``) tail (shifted so every
    node has degree >= 1, capped at n - 1), then wires them by stub
    matching exactly like :func:`random_regular`, discarding self-loops
    and duplicate edges and patching the result connected.  For
    exponents in (2, 3) -- the regime of real-world graphs -- most nodes
    are near-leaves while a few hubs have degree Theta(n^{1/(exponent-1)}),
    so per-node congestion is maximally skewed: the hubs sit on almost
    every shortest path.
    """
    if n < 3:
        raise ValueError("power_law requires n >= 3")
    rng = _rng(seed)
    degrees = np.minimum(rng.zipf(exponent, size=n), n - 1)
    if int(degrees.sum()) % 2:  # stub count must be even to pair up
        degrees[int(np.argmin(degrees))] += 1
    edges = _pair_stubs(
        [v for v in range(n) for _ in range(int(degrees[v]))], rng)
    _connect(n, edges, rng)
    return from_edges(n, edges, name=f"power_law(n={n},a={exponent})")


def random_regular(n: int, d: int, seed: int = 0) -> Graph:
    """An (almost) d-regular graph via stub matching, patched connected.

    Repeatedly pairs a shuffled multiset of stubs (each node appears d
    times), discarding self-loops and duplicate edges; a handful of
    nodes may end up below degree d when their leftover stubs only match
    forbidden partners.  For d >= 3 the pairing model is an expander
    w.h.p. -- low diameter at low density, complementing the dense and
    high-diameter families above.
    """
    if d >= n:
        raise ValueError("random_regular requires d < n")
    rng = _rng(seed)
    edges = _pair_stubs([v for v in range(n) for _ in range(d)], rng)
    _connect(n, edges, rng)
    return from_edges(n, edges, name=f"random_regular(n={n},d={d})")


def near_disconnected(n: int, islands: int = 4, p_intra: float = 0.6,
                      seed: int = 0) -> Graph:
    """Dense islands with no organic cross edges, patched connected.

    Splits the nodes into ``islands`` equal blocks, samples a dense
    G(block, p_intra) inside each, and leaves connectivity entirely to
    the random spanning patch-up -- the extreme case of the "patch a
    disconnected sample" policy every generator here applies.  The few
    patch edges carry all inter-island traffic, which makes per-edge
    congestion maximally uneven (the regime the congestion-smoothing
    lemma targets).
    """
    if islands < 2 or islands > n:
        raise ValueError("near_disconnected requires 2 <= islands <= n")
    rng = _rng(seed)
    bounds = [round(i * n / islands) for i in range(islands + 1)]
    edges: set = set()
    for lo, hi in zip(bounds, bounds[1:]):
        block = range(lo, hi)
        for u in block:
            for v in range(u + 1, hi):
                if rng.random() < p_intra:
                    edges.add((u, v))
    _connect(n, edges, rng)
    return from_edges(
        n, edges,
        name=f"near_disconnected(n={n},islands={islands},p={p_intra})")


def augmenting_chain(k: int) -> Graph:
    """A bipartite graph whose maximum matching needs a length-(2k+1) augmentation.

    A path with 2k+2 nodes: the unique maximum matching uses the odd
    edges; greedy/maximal matchings can pick the even ones and then need
    one long augmenting path.  Stress input for Corollary 2.8.
    """
    n = 2 * k + 2
    us = np.arange(n - 1, dtype=np.int64)
    return from_edge_arrays(n, us, us + 1, name=f"augmenting_chain(k={k})")
