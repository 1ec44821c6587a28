"""Algorithm bindings: how a scenario graph is run and cross-checked.

A :class:`Binding` names one algorithm family (APSP, BFS collections,
matching, covers, decompositions, spanners, hierarchies), a runner
that executes the paper's
distributed implementation on the literal CONGEST simulator, a named
sequential **oracle** (:class:`repro.baselines.oracles.OracleSpec`) the
outputs must equal, and a metered-complexity :class:`Envelope` -- the
Õ-bound the paper claims, with an explicit constant -- that the
measured rounds and messages must stay inside.

Declaring the oracle as data (rather than calling the reference inline)
is what lets the differential harness serve baselines through the
oracle cache chain (:mod:`repro.runner.oracle_cache`): each runner
accepts the resolved oracle value and only computes it itself when
called standalone (``binding.run(graph, seed)`` stays valid).  The
``cover`` binding has no sequential oracle -- its verification is
self-contained -- so its ``oracle`` is None.

The ``mpx-cover`` / ``ldc-spanner`` / ``bs-hierarchy`` bindings are the
**staged pipeline**: each declares ``decomposition="ldc"`` and consumes
the LDC snapshot as an input artifact (served through
:mod:`repro.runner.decomposition_cache`) instead of re-running MPX per
cell; the pure derivations bill the snapshot's construction cost, while
the hierarchy cell meters its own Theorem 3.4 construction on top.

The envelopes are deliberately loose (the paper's bounds hide polylog
factors and constants; ours carry an explicit safety margin on top of
measured behavior) so they catch complexity *regressions* -- an
algorithm change that quietly reverts to Theta(n*m) messages -- rather
than noise.  All runs are seed-deterministic, so a violation is a real
change in behavior, never flakiness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.baselines.oracles import ORACLES, OracleSpec
from repro.baselines.reference import is_matching
from repro.core import (
    apsp_tradeoff,
    maximum_matching,
    n_bfs_trees_star,
    neighborhood_cover_direct,
    weighted_apsp,
)
from repro.graphs.graph import Graph


def _log2(n: int) -> float:
    return math.log2(max(n, 2))


@dataclass(frozen=True)
class Envelope:
    """Closed-form bounds on metered cost, as functions of (n, m)."""

    rounds: Callable[[int, int], float]
    messages: Callable[[int, int], float]
    rounds_label: str
    messages_label: str

    def evaluate(self, n: int, m: int, slack: float = 1.0) -> Dict[str, float]:
        return {"max_rounds": slack * self.rounds(n, m),
                "max_messages": slack * self.messages(n, m)}


@dataclass
class BindingResult:
    """Outcome of one scenario x binding execution."""

    ok: bool                      # every correctness check passed
    checks: Dict[str, bool]
    metrics: Dict[str, int]       # rounds / messages / broadcasts / words...
    detail: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Binding:
    """One algorithm family's runner + oracle + complexity envelope.

    ``run(graph, seed, oracle=None)``: the resolved oracle value (from
    the cache chain) is passed by the differential harness; ``None``
    makes the runner compute its own baseline inline, so direct calls
    keep working without the chain.  ``oracle`` (the spec) is ``None``
    for self-verifying bindings.

    ``decomposition`` names the decomposition snapshot the binding
    consumes as an input artifact (today: ``"ldc"``), or ``None`` for
    bindings outside the staged pipeline.  Consumers additionally
    accept ``run(..., decomposition=snapshot)``: the harness serves the
    snapshot through :mod:`repro.runner.decomposition_cache` (LRU ->
    store -> compute), and again ``None`` means compute inline.
    """

    name: str
    family: str
    description: str
    run: Callable[..., BindingResult]
    envelope: Envelope
    oracle: Optional[OracleSpec] = None
    decomposition: Optional[str] = None


def _resolve(spec: OracleSpec, g: Graph, seed: int, oracle: Any) -> Any:
    """The baseline value: as handed in by the chain, or computed here."""
    return spec.compute(g, seed) if oracle is None else oracle


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def _run_apsp_unweighted(g: Graph, seed: int,
                         oracle: Any = None) -> BindingResult:
    result = apsp_tradeoff(g, 0.0, seed=seed)
    ref = _resolve(ORACLES["unweighted-apsp"], g, seed, oracle)
    exact = result.dist == ref
    return BindingResult(
        ok=exact, checks={"dist_equals_oracle": exact},
        metrics=result.metrics.as_dict(),
        detail={"regime": result.regime})


def _run_apsp_weighted(g: Graph, seed: int,
                       oracle: Any = None) -> BindingResult:
    result = weighted_apsp(g, seed=seed)
    ref = _resolve(ORACLES["weighted-apsp"], g, seed, oracle)
    exact = result.dist == ref
    return BindingResult(
        ok=exact, checks={"dist_equals_oracle": exact},
        metrics=result.metrics.as_dict())


def _run_bfs_collection(g: Graph, seed: int,
                        oracle: Any = None) -> BindingResult:
    result = n_bfs_trees_star(g, 1.0, seed=seed)
    # Shares the unweighted-apsp oracle matrix: row [root][v] is the
    # hop distance, INF where the root's BFS never reaches v.
    ref = _resolve(ORACLES["unweighted-apsp"], g, seed, oracle)
    exact = result.trees.distance_matrix(symmetric=False) == ref
    return BindingResult(
        ok=exact, checks={"all_bfs_trees_equal_oracle": exact},
        metrics=result.metrics.as_dict())


def _run_matching(g: Graph, seed: int, oracle: Any = None) -> BindingResult:
    result = maximum_matching(g, seed=seed)
    valid = is_matching(g, result.matching)
    optimal = result.size == _resolve(ORACLES["matching-size"], g, seed,
                                      oracle)
    return BindingResult(
        ok=valid and optimal,
        checks={"is_matching": valid, "size_equals_hopcroft_karp": optimal},
        metrics=result.metrics.as_dict(),
        detail={"size": result.size, "s_bound": result.s_bound})


def _run_cover(g: Graph, seed: int, oracle: Any = None) -> BindingResult:
    k, w = 2, 2
    result = neighborhood_cover_direct(g, k, w, seed=seed)
    try:
        stats = result.cover.verify(g)
        padded = True
    except AssertionError:
        stats = {"max_depth": -1, "max_overlap": -1,
                 "depth_bound": 0, "overlap_bound": 0}
        padded = False
    depth_ok = padded and stats["max_depth"] <= stats["depth_bound"]
    overlap_ok = padded and stats["max_overlap"] <= stats["overlap_bound"]
    return BindingResult(
        ok=padded and depth_ok and overlap_ok,
        checks={"every_vertex_padded": padded,
                "depth_within_bound": depth_ok,
                "overlap_within_bound": overlap_ok},
        metrics=result.metrics.as_dict(),
        detail={"k": k, "w": w, **{key: float(val)
                                   for key, val in stats.items()}})


def _ldc_input(g: Graph, seed: int, decomposition: Any) -> Any:
    """The LDC snapshot a staged runner consumes (inline when unserved)."""
    if decomposition is not None:
        return decomposition
    from repro.decomposition.pipeline import build_ldc_snapshot

    return build_ldc_snapshot(g, seed)


def _run_ldc(g: Graph, seed: int, oracle: Any = None,
             decomposition: Any = None) -> BindingResult:
    """Lemma 2.4: the distributed (MPX-derived) LDC decomposition.

    The cheap Definition 2.3 predicates (clusters partition V, every
    neighboring cluster is covered by an F-edge) are checked inline on
    the realized decomposition; the expensive exhaustive realization --
    the per-cluster strong-diameter check -- comes from the
    ``ldc-reference`` oracle, which recomputes the seed-deterministic
    decomposition sequentially.  ``realization_matches_reference`` is
    the differential: any drift between the distributed run and the
    (possibly cached) reference realization flips it.

    This is the pipeline's *producer* cell: it consumes (and thereby
    publishes, on a cold store) the same snapshot the downstream
    cover/spanner/hierarchy cells read, so its checks run on exactly
    the artifact they inherit.
    """
    from repro.decomposition.ldc import definition_violation
    from repro.decomposition.mpx import shift_cap
    from repro.decomposition.pipeline import snapshot_out_edges

    snapshot = _ldc_input(g, seed, decomposition)
    ref = _resolve(ORACLES["ldc-reference"], g, seed, oracle)
    out_edges = snapshot_out_edges(snapshot)
    violation = definition_violation(g, snapshot["center_of"], out_edges)
    partition = violation is None or violation[0] != "clusters_partition_v"
    f_ok = violation is None
    d = max((len(edges) for edges in out_edges.values()), default=0)
    clusters = snapshot["clusters"]
    verified = bool(ref["valid"])
    matches = verified and d == ref["d"] and clusters == ref["clusters"]
    # Lemma 2.4 realization bounds: strong diameter <= 2 * max shift
    # (the MPX cap), out-degree = #neighboring clusters = O(log n)
    # w.h.p.; both carry the usual explicit safety margin.
    r_bound = 4.0 * shift_cap(g.n, snapshot["beta"])
    d_bound = 12.0 * _log2(g.n) + 8
    r_ok = verified and ref["r"] <= r_bound
    d_ok = verified and d <= d_bound
    checks = {
        "clusters_partition_v": partition,
        "f_edges_cover_neighboring_clusters": f_ok,
        "definition_verified_by_reference": verified,
        "realization_matches_reference": matches,
        "strong_diameter_within_bound": r_ok,
        "out_degree_within_bound": d_ok,
    }
    return BindingResult(
        ok=all(checks.values()), checks=checks,
        metrics=dict(snapshot["metrics"]),
        detail={"r": ref["r"], "d": d, "clusters": clusters,
                "beta": snapshot["beta"],
                "r_bound": r_bound, "d_bound": d_bound})


def _run_mpx_cover(g: Graph, seed: int, oracle: Any = None,
                   decomposition: Any = None) -> BindingResult:
    """Pipeline stage: the padded neighborhood cover over the snapshot.

    Derivation is pure per-node work on the input artifact (each
    F-edge source joins the set its edge lands in), so the cell bills
    the MPX construction cost carried by the snapshot; the cover's
    padding/connectivity is verified exhaustively here and cross-checked
    against the sequentially recomputed ``mpx-cover`` oracle stats.
    """
    from repro.decomposition.mpx import shift_cap
    from repro.decomposition.pipeline import (
        derive_mpx_cover,
        verify_mpx_cover,
    )

    snapshot = _ldc_input(g, seed, decomposition)
    cover = derive_mpx_cover(snapshot)
    try:
        stats = verify_mpx_cover(g, cover, snapshot)
        padded = True
    except AssertionError:
        stats = {"clusters": -1, "max_overlap": -1, "radius": -1}
        padded = False
    ref = _resolve(ORACLES["mpx-cover"], g, seed, oracle)
    verified = bool(ref["valid"])
    matches = padded and verified and all(
        stats[name] == ref[name]
        for name in ("clusters", "max_overlap", "radius"))
    # Cover bounds inherited from Lemma 2.4: radius <= r + 1 (one
    # F-edge hop past the cluster radius), overlap <= 1 + d (home
    # cluster plus one per outgoing F-edge target).
    r_bound = 4.0 * shift_cap(g.n, snapshot["beta"]) + 1
    overlap_bound = 12.0 * _log2(g.n) + 9
    radius_ok = padded and stats["radius"] <= r_bound
    overlap_ok = padded and stats["max_overlap"] <= overlap_bound
    checks = {
        "neighborhoods_padded_and_connected": padded,
        "cover_verified_by_reference": verified,
        "realization_matches_reference": matches,
        "radius_within_bound": radius_ok,
        "overlap_within_bound": overlap_ok,
    }
    return BindingResult(
        ok=all(checks.values()), checks=checks,
        metrics=dict(snapshot["metrics"]),
        detail={"clusters": stats["clusters"],
                "max_overlap": stats["max_overlap"],
                "radius": stats["radius"],
                "r_bound": r_bound, "overlap_bound": overlap_bound})


def _run_ldc_spanner(g: Graph, seed: int, oracle: Any = None,
                     decomposition: Any = None) -> BindingResult:
    """Pipeline stage: the cluster spanner over the snapshot.

    Tree edges + F-edges, again pure derivation billed at the
    snapshot's construction cost; verified exhaustively (subgraph,
    connectivity, exact max stretch) and cross-checked against the
    ``ldc-spanner`` oracle.
    """
    from repro.decomposition.mpx import shift_cap
    from repro.decomposition.pipeline import (
        derive_ldc_spanner,
        verify_ldc_spanner,
    )

    snapshot = _ldc_input(g, seed, decomposition)
    edges = derive_ldc_spanner(snapshot)
    try:
        stats = verify_ldc_spanner(g, edges)
        subgraph = True
    except AssertionError:
        stats = {"size": -1, "stretch": -1}
        subgraph = False
    ref = _resolve(ORACLES["ldc-spanner"], g, seed, oracle)
    verified = bool(ref["valid"])
    matches = subgraph and verified and all(
        stats[name] == ref[name] for name in ("size", "stretch"))
    # Stretch inherited from Lemma 2.4: same cluster reaches through
    # the tree (<= 2r), neighboring clusters through one F-edge plus a
    # tree walk (<= 2r + 1).
    stretch_bound = 8.0 * shift_cap(g.n, snapshot["beta"]) + 1
    stretch_ok = subgraph and stats["stretch"] <= stretch_bound
    checks = {
        "spanner_subgraph_preserves_connectivity": subgraph,
        "spanner_verified_by_reference": verified,
        "realization_matches_reference": matches,
        "stretch_within_bound": stretch_ok,
    }
    return BindingResult(
        ok=all(checks.values()), checks=checks,
        metrics=dict(snapshot["metrics"]),
        detail={"size": stats["size"], "stretch": stats["stretch"],
                "stretch_bound": stretch_bound})


def _run_bs_hierarchy(g: Graph, seed: int, oracle: Any = None,
                      decomposition: Any = None) -> BindingResult:
    """Pipeline stage: the LDC-seeded Baswana-Sen hierarchy.

    The only downstream cell that *runs the simulator again*: the
    hierarchy construction (Theorem 3.4) is metered CONGEST work on
    top of the input snapshot, seeded at level 0 by the LDC clustering,
    so the cell bills its own construction cost rather than the
    snapshot's.  Verified exhaustively (partition, tree structure,
    edge serving) and cross-checked against the ``bs-hierarchy``
    oracle.
    """
    from repro.decomposition.baswana_sen import (
        build_baswana_sen,
        verify_hierarchy,
    )
    from repro.decomposition.mpx import shift_cap
    from repro.decomposition.pipeline import BS_EPS

    snapshot = _ldc_input(g, seed, decomposition)
    hierarchy = build_baswana_sen(g, BS_EPS, seed=seed, base=snapshot)
    try:
        stats = verify_hierarchy(g, hierarchy)
        structured = True
    except AssertionError:
        stats = {"levels": -1, "max_radius": -1, "f_edges": -1,
                 "cluster_edges": -1, "max_f_degree": -1}
        structured = False
    ref = _resolve(ORACLES["bs-hierarchy"], g, seed, oracle)
    verified = bool(ref["valid"])
    matches = structured and verified and all(
        stats[name] == ref[name]
        for name in ("levels", "max_radius", "f_edges", "cluster_edges",
                     "max_f_degree"))
    # Cluster radius <= kappa + r: level i adds at most one hop per
    # level on top of the base radius (Theorem 3.3(a), offset by the
    # seeded level-0 clustering).
    radius_bound = 4.0 * shift_cap(g.n, snapshot["beta"]) + hierarchy.kappa
    radius_ok = structured and stats["max_radius"] <= radius_bound
    checks = {
        "hierarchy_partitions_and_serves_edges": structured,
        "hierarchy_verified_by_reference": verified,
        "realization_matches_reference": matches,
        "radius_within_bound": radius_ok,
    }
    return BindingResult(
        ok=all(checks.values()), checks=checks,
        metrics=hierarchy.metrics.as_dict(),
        detail={"levels": stats["levels"],
                "max_radius": stats["max_radius"],
                "f_edges": stats["f_edges"],
                "cluster_edges": stats["cluster_edges"],
                "kappa": hierarchy.kappa,
                "radius_bound": radius_bound})


# ---------------------------------------------------------------------------
# Envelopes.  Constants calibrated against the measured matrix (see
# tests/test_differential_oracles.py) with a generous margin: the point
# is to catch a complexity-class regression, not to pin exact counts.
# ---------------------------------------------------------------------------

_APSP_ENVELOPE = Envelope(
    rounds=lambda n, m: 8 * n * n * _log2(n),
    messages=lambda n, m: 8 * n * n * _log2(n) ** 2,
    rounds_label="8·n²·log n",
    messages_label="8·n²·log²n",
)

_BFS_STAR_ENVELOPE = Envelope(
    rounds=lambda n, m: 8 * n * n * _log2(n),
    messages=lambda n, m: 8 * n * n * _log2(n) ** 2,
    rounds_label="8·n²·log n",
    messages_label="8·n²·log²n",
)

_MATCHING_ENVELOPE = Envelope(
    rounds=lambda n, m: 10 * n * n * _log2(n),
    messages=lambda n, m: 10 * n * n * _log2(n) ** 2,
    rounds_label="10·n²·log n",
    messages_label="10·n²·log²n",
)

# Direct BCONGEST cover: Õ(n^{1/k}) ball-carving repetitions of cost
# O(m) messages each, every repetition running in its own O(k·w·log n)
# round window.  The additive +8 inside the rounds bound floors the
# formula at tiny n, where the constant per-repetition window dominates
# the asymptotic term.
_COVER_ENVELOPE = Envelope(
    rounds=lambda n, m: 40 * (math.sqrt(n) * _log2(n) ** 2 + 8),
    messages=lambda n, m: 60 * m * math.sqrt(n) * _log2(n),
    rounds_label="40·(√n·log²n + 8)",
    messages_label="60·m·√n·log n",
)

# MPX + LDC edge selection (Lemma 2.4): O(log n / beta) rounds (the
# shift cap plus the deepest adoption), broadcast complexity exactly n
# -- each node broadcasts once upon adoption, costing deg(v) messages.
# The additive terms floor the formulas at tiny n where per-round
# constants dominate.
_LDC_ENVELOPE = Envelope(
    rounds=lambda n, m: 24 * (_log2(n) + 4),
    messages=lambda n, m: 16 * (m + n) * _log2(n),
    rounds_label="24·(log n + 4)",
    messages_label="16·(m+n)·log n",
)

# Baswana-Sen on the LDC base (Theorem 3.4 at kappa = 2): O(kappa)
# membership/sampling/join phases of O(1) broadcast rounds each plus
# the tree downcasts, O(kappa m) messages.  Floored generously at tiny
# n where the per-phase constants dominate.
_BS_ENVELOPE = Envelope(
    rounds=lambda n, m: 60 * (_log2(n) + 8),
    messages=lambda n, m: 40 * (m + n) * _log2(n),
    rounds_label="60·(log n + 8)",
    messages_label="40·(m+n)·log n",
)


BINDINGS: Dict[str, Binding] = {b.name: b for b in (
    Binding(
        name="apsp-unweighted", family="apsp",
        description="Theorem 1.2 at eps=0: message-optimal unweighted "
                    "APSP vs the Floyd-Warshall hop-distance oracle",
        run=_run_apsp_unweighted, envelope=_APSP_ENVELOPE,
        oracle=ORACLES["unweighted-apsp"]),
    Binding(
        name="apsp-weighted", family="apsp",
        description="Theorem 1.1: weighted APSP (directed / negative "
                    "weights allowed) vs the weighted-apsp oracle",
        run=_run_apsp_weighted, envelope=_APSP_ENVELOPE,
        oracle=ORACLES["weighted-apsp"]),
    Binding(
        name="bfs-collection", family="bfs",
        description="Lemma 3.22: n BFS trees through the star "
                    "simulation vs per-root sequential BFS",
        run=_run_bfs_collection, envelope=_BFS_STAR_ENVELOPE,
        oracle=ORACLES["unweighted-apsp"]),
    Binding(
        name="matching", family="matching",
        description="Corollary 2.8: exact bipartite maximum matching "
                    "vs Hopcroft-Karp",
        run=_run_matching, envelope=_MATCHING_ENVELOPE,
        oracle=ORACLES["matching-size"]),
    Binding(
        name="cover", family="cover",
        description="Corollary 2.9: (2,2)-sparse neighborhood cover, "
                    "verified padding / depth / overlap",
        run=_run_cover, envelope=_COVER_ENVELOPE),
    Binding(
        name="ldc", family="decomposition",
        description="Lemma 2.4: (O(log n), O(log n))-LDC decomposition "
                    "via MPX vs the exhaustively-verified sequential "
                    "realization",
        run=_run_ldc, envelope=_LDC_ENVELOPE,
        oracle=ORACLES["ldc-reference"],
        decomposition="ldc"),
    Binding(
        name="mpx-cover", family="cover",
        description="Pipeline stage: padded neighborhood cover derived "
                    "from the LDC snapshot, verified padding / radius / "
                    "overlap",
        run=_run_mpx_cover, envelope=_LDC_ENVELOPE,
        oracle=ORACLES["mpx-cover"],
        decomposition="ldc"),
    Binding(
        name="ldc-spanner", family="spanner",
        description="Pipeline stage: cluster spanner (tree + F edges) "
                    "derived from the LDC snapshot, verified subgraph / "
                    "stretch",
        run=_run_ldc_spanner, envelope=_LDC_ENVELOPE,
        oracle=ORACLES["ldc-spanner"],
        decomposition="ldc"),
    Binding(
        name="bs-hierarchy", family="hierarchy",
        description="Pipeline stage: Baswana-Sen hierarchy (Theorem "
                    "3.4) seeded at level 0 by the LDC snapshot, "
                    "verified partition / serving / radius",
        run=_run_bs_hierarchy, envelope=_BS_ENVELOPE,
        oracle=ORACLES["bs-hierarchy"],
        decomposition="ldc"),
)}


def get_binding(name: str) -> Binding:
    try:
        return BINDINGS[name]
    except KeyError:
        known = ", ".join(sorted(BINDINGS))
        raise KeyError(f"unknown binding {name!r}; known: {known}") from None
