"""Failure paths of the LDC verifiers, on hand-built inputs.

Every sweep cell feeds these verifiers a decomposition that holds, so
the sweep alone never shows that they reject one that does not.  Each
test here breaks exactly one property:

* a cluster disconnected in its induced subgraph (strong diameter);
* a node missing the F-edge into a neighboring cluster (Definition 2.3);
* a padded cover set disconnected in its induced subgraph;
* a spanner that disconnects the endpoints of a graph edge.
"""

import pytest

from repro.baselines.oracles import ldc_reference_oracle
from repro.congest.metrics import Metrics
from repro.decomposition import ldc as ldc_mod
from repro.decomposition.ldc import LDCDecomposition, verify_ldc
from repro.decomposition.mpx import Clustering
from repro.decomposition.pipeline import (
    ldc_snapshot,
    verify_ldc_spanner,
    verify_mpx_cover,
)
from repro.graphs import from_edges, path
from repro.scenarios.bindings import BINDINGS


def _ldc(center_of, out_edges):
    """An LDC with the given clusters and F-edges (trees are unchecked)."""
    clustering = Clustering(
        center_of=dict(center_of),
        dist={v: int(v != c) for v, c in center_of.items()},
        parent={v: None for v in center_of},
        neighbor_clusters={v: {} for v in center_of},
        metrics=Metrics(), beta=0.5)
    return LDCDecomposition(clustering=clustering, out_edges=out_edges,
                            metrics=clustering.metrics)


# Path 0-1-2-3 cut into {0, 2} and {1, 3}: every F-edge is in place,
# but neither cluster is connected inside its own induced subgraph.
SPLIT_CLUSTERS = _ldc({0: 0, 1: 1, 2: 0, 3: 1},
                      {0: [(0, 1)], 1: [(1, 0)], 2: [(2, 1)], 3: [(3, 2)]})

# Path 0-1-2-3 cut into {0, 1} and {2, 3}, which is an LDC; without
# the F-edge 1 -> 2, node 1 has none into the cluster of its neighbor 2.
HALVES = {0: 0, 1: 0, 2: 2, 3: 2}
VALID = _ldc(HALVES, {0: [], 1: [(1, 2)], 2: [(2, 1)], 3: []})
MISSING_F_EDGE = _ldc(HALVES, {0: [], 1: [], 2: [(2, 1)], 3: []})


def test_verify_ldc_accepts_the_hand_built_ldc():
    assert verify_ldc(path(4), VALID) == {"r": 1, "d": 1, "clusters": 2}


def test_verify_ldc_rejects_a_disconnected_cluster():
    with pytest.raises(AssertionError,
                       match="cluster not connected in induced subgraph"):
        verify_ldc(path(4), SPLIT_CLUSTERS)


def test_ldc_reference_reports_a_disconnected_cluster_invalid(monkeypatch):
    monkeypatch.setattr(ldc_mod, "build_ldc",
                        lambda graph, seed: SPLIT_CLUSTERS)
    assert ldc_reference_oracle(path(4), 0) == {
        "valid": False, "r": -1, "d": -1, "clusters": -1}


def test_verify_ldc_rejects_a_missing_f_edge():
    with pytest.raises(AssertionError,
                       match=r"node 1 misses F-edges into clusters \{2\}"):
        verify_ldc(path(4), MISSING_F_EDGE)


def test_ldc_cell_records_a_missing_f_edge():
    reference = {"valid": True, "r": 1, "d": 1, "clusters": 2}
    result = BINDINGS["ldc"].run(path(4), 0, oracle=reference,
                                 decomposition=ldc_snapshot(MISSING_F_EDGE))
    assert result.checks["clusters_partition_v"] is True
    assert result.checks["f_edges_cover_neighboring_clusters"] is False
    assert result.ok is False


def test_verify_mpx_cover_rejects_a_disconnected_set():
    # Path 0-...-6; cluster 0 = {0, 6}, cluster 3 = {1, ..., 5}.  Both
    # sets hold their members' closed neighborhoods, but set 0 =
    # {0, 1, 5, 6} falls apart into {0, 1} and {5, 6}.
    center_of = {v: 0 if v in (0, 6) else 3 for v in range(7)}
    cover = {0: [0, 1, 5, 6], 3: list(range(7))}
    with pytest.raises(AssertionError,
                       match="cover set 0 disconnected in its induced"):
        verify_mpx_cover(path(7), cover, {"center_of": center_of})


def test_verify_ldc_spanner_rejects_a_disconnected_graph_edge():
    # Triangle 0-1-2 with the spanner {0-1, 0-2}: stretch 2, valid.
    triangle = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert verify_ldc_spanner(triangle, [(0, 1), (0, 2)]) == {
        "size": 2, "stretch": 2}
    # Dropping 0-2 leaves node 2 on its own.
    with pytest.raises(AssertionError,
                       match=r"graph edge \(0,2\) disconnected"):
        verify_ldc_spanner(triangle, [(0, 1)])
