"""The oracle chain: per-worker LRU -> oracle store -> compute.

The sequential baseline a differential cell checks against
(:mod:`repro.baselines.oracles`) is a pure function of ``(scenario
graph, derived seed)`` and of the baseline's own source, so it is
content-addressed by ``(scenario, size, derived seed, oracle name,
source revision)`` and served through the generic
:class:`~repro.runner.chain.ArtifactChain` over the oracle store family
(:mod:`repro.store.oracles`).  Same-key cells share one value (the
``apsp-unweighted`` and ``bfs-collection`` bindings of one scenario
resolve the same ``unweighted-apsp`` matrix).  Because the source
revision is part of every key, editing a baseline rotates its keys: the
chain can never serve a stale baseline against new oracle code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Tuple

from repro.runner.chain import ArtifactChain
from repro.runner.config import SweepConfig
from repro.store.oracles import ORACLE_FAMILY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.oracles import OracleSpec
    from repro.graphs.graph import Graph
    from repro.scenarios.bindings import Binding
    from repro.scenarios.registry import Scenario

DEFAULT_MAXSIZE = SweepConfig.oracle_cache_size


def _compute(spec: "OracleSpec", graph: "Graph", derived_seed: int) -> Any:
    return spec.compute(graph, derived_seed)


def _coords(key, spec: "OracleSpec", graph: "Graph", derived_seed: int):
    return key[0], key[1], key[2], spec


def _key(scenario_name: str, size: int, derived_seed: int,
         spec: "OracleSpec"):
    from repro.baselines.oracles import oracle_revision

    return (scenario_name, size, derived_seed, spec.name,
            oracle_revision(spec))


def _request(scenario: "Scenario", size: int, seed: int, binding: "Binding",
             graph: "Graph"):
    spec = binding.oracle
    if spec is None:
        return None
    derived = scenario.seed_for(size, seed)
    return (_key(scenario.name, size, derived, spec),
            (spec, graph, derived))


CHAIN = ArtifactChain("oracle", ORACLE_FAMILY, _compute, _request,
                      coords=_coords)
clear = CHAIN.clear
configure = CHAIN.configure
configure_store = CHAIN.configure_store
effective_maxsize = CHAIN.effective_maxsize
effective_store = CHAIN.effective_store
stats = CHAIN.stats


def binding_oracle_source(scenario: "Scenario", size: int, seed: int,
                          binding: "Binding",
                          graph: "Graph") -> Tuple[Any, str]:
    """The binding's baseline value at this cell, plus where it came from.

    ``(None, "none")`` when the binding has no sequential oracle; the
    value is otherwise exactly what ``binding.oracle.compute(graph,
    derived_seed)`` would return (the codec round-trip is exact).
    """
    return CHAIN.cell_source(scenario, size, seed, binding, graph)


def oracle_value_source(scenario_name: str, size: int, derived_seed: int,
                        spec: "OracleSpec",
                        graph: "Graph") -> Tuple[Any, str]:
    """Serve one baseline value through the chain."""
    return CHAIN.resolve(_key(scenario_name, size, derived_seed, spec),
                         spec, graph, derived_seed)
