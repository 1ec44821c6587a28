"""Graph inputs: the communication graph plus generators and weights."""

from repro.graphs.graph import (
    EdgeKey,
    Graph,
    edge_key,
    from_edge_arrays,
    from_edges,
)
from repro.graphs.generators import (
    augmenting_chain,
    complete,
    cycle,
    dumbbell,
    gnp,
    gnp_streaming,
    grid,
    near_disconnected,
    path,
    power_law,
    random_bipartite,
    random_regular,
    random_tree,
    torus,
)
from repro.graphs.weights import (
    asymmetric_weights,
    heavy_tailed_weights,
    negative_safe_weights,
    poly_range_weights,
    uniform_weights,
)

__all__ = [
    "EdgeKey", "Graph", "augmenting_chain", "complete", "cycle",
    "dumbbell", "edge_key", "from_edge_arrays", "from_edges", "gnp",
    "gnp_streaming", "grid", "near_disconnected", "path", "power_law",
    "random_bipartite", "random_regular", "random_tree", "torus",
    "asymmetric_weights", "heavy_tailed_weights",
    "negative_safe_weights", "poly_range_weights", "uniform_weights",
]
