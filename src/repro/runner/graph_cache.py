"""The scenario-graph chain: per-worker LRU -> graph store -> build.

Scenario construction is seed-deterministic: the graph a cell runs on
is fully determined by ``(scenario name, size, derived construction
seed)``, where the derived seed is :meth:`Scenario.seed_for` of the
caller seed (the same derivation recorded as ``derived_seed`` in every
differential record).  That key content-addresses the built graph, so
it is served through the generic :class:`~repro.runner.chain.
ArtifactChain` over the graph store family (:mod:`repro.store.graphs`).

Graphs are treated as immutable by every consumer, which is what makes
sharing instances -- and read-only mmap'd snapshots -- sound; the
byte-identity tests in ``tests/test_store.py`` and
``tests/test_graph_core.py`` pin that executions over a cached or
store-loaded graph equal executions over a fresh build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Tuple

from repro.runner.chain import BUILT, ArtifactChain
from repro.runner.config import SweepConfig
from repro.store.graphs import GRAPH_FAMILY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.graph import Graph
    from repro.scenarios.registry import Scenario

DEFAULT_MAXSIZE = SweepConfig.graph_cache_size


def _build(scenario: "Scenario", size: int, seed: int) -> "Graph":
    return scenario.graph(size, seed=seed)


def _request(scenario: "Scenario", size: Optional[int], seed: int,
             binding: Any, graph: Any):
    size = scenario.default_size if size is None else size
    return ((scenario.name, size, scenario.seed_for(size, seed)),
            (scenario, size, seed))


CHAIN = ArtifactChain("graph", GRAPH_FAMILY, _build, _request, built=BUILT)
clear = CHAIN.clear
configure = CHAIN.configure
configure_store = CHAIN.configure_store
effective_maxsize = CHAIN.effective_maxsize
effective_store = CHAIN.effective_store
stats = CHAIN.stats


def scenario_graph(scenario: "Scenario", size: Optional[int] = None,
                   seed: int = 0) -> "Graph":
    """The scenario's graph at ``size``, served from the chain.

    Equivalent to ``scenario.graph(size, seed=seed)`` -- same
    validation, same derived construction seed -- but same-key calls
    after the first return the one cached instance (or a shared mmap'd
    snapshot) instead of rebuilding.  A degenerate size can never have
    a published snapshot, so it misses and raises the generator's own
    validation error.
    """
    return scenario_graph_source(scenario, size, seed=seed)[0]


def scenario_graph_source(scenario: "Scenario", size: Optional[int] = None,
                          seed: int = 0) -> Tuple["Graph", str]:
    """Like :func:`scenario_graph`, plus where the graph came from
    (``"lru"``, ``"store"``, or ``"built"``)."""
    return CHAIN.cell_source(scenario, size, seed, None, None)
