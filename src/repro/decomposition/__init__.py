"""Graph decompositions: MPX, LDC, Baswana-Sen (+ pruning, ensembles)."""

from repro.decomposition.baswana_sen import (
    BaswanaSenHierarchy,
    HierarchyLevel,
    build_baswana_sen,
    verify_hierarchy,
)
from repro.decomposition.ensemble import (
    build_ensemble,
    cluster_edge_multiplicity,
    ensemble_size,
)
from repro.decomposition.ldc import LDCDecomposition, build_ldc, verify_ldc
from repro.decomposition.mpx import Clustering, MPXMachine, run_mpx, shift_cap
from repro.decomposition.pruning import (
    build_pruned_hierarchy,
    cluster_edge_probability,
    max_proper_subtree,
    prune_hierarchy,
    subtree_threshold,
)

__all__ = [
    "BaswanaSenHierarchy", "Clustering", "HierarchyLevel",
    "LDCDecomposition", "MPXMachine", "build_baswana_sen", "build_ensemble",
    "build_ldc", "build_pruned_hierarchy", "cluster_edge_multiplicity",
    "cluster_edge_probability", "ensemble_size", "max_proper_subtree",
    "prune_hierarchy", "run_mpx", "shift_cap",
    "subtree_threshold", "verify_hierarchy", "verify_ldc",
]
