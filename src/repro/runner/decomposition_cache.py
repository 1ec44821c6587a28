"""The decomposition chain: per-worker LRU -> snapshot store -> compute.

The Lemma 2.4 LDC decomposition is a pure function of ``(scenario
graph, derived seed)`` and is consumed by four bindings of one
scenario x size -- the ``ldc`` producer cell plus the staged
MPX-cover / LDC-spanner / Baswana-Sen cells -- so it is keyed by
``(scenario, size, derived seed, algorithm)`` and served through the
generic :class:`~repro.runner.chain.ArtifactChain` over the
decomposition store family (:mod:`repro.store.decompositions`).  The
served value is the plain-dict snapshot of :func:`repro.decomposition.
pipeline.ldc_snapshot`; the store round-trips it exactly (metrics
included), the contract ``tests/test_decomposition_pipeline.py`` pins.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.runner.chain import ArtifactChain
from repro.runner.config import SweepConfig
from repro.store.decompositions import DECOMPOSITION_FAMILY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.graph import Graph
    from repro.scenarios.bindings import Binding
    from repro.scenarios.registry import Scenario

DEFAULT_MAXSIZE = SweepConfig.decomposition_cache_size


def _build_ldc_snapshot(graph: "Graph", derived_seed: int) -> Dict[str, Any]:
    from repro.decomposition.pipeline import build_ldc_snapshot

    return build_ldc_snapshot(graph, derived_seed)


# algorithm name (Binding.decomposition) -> snapshot builder.
_BUILDERS = {"ldc": _build_ldc_snapshot}


def compute_snapshot(algorithm: str, graph: "Graph",
                     derived_seed: int) -> Dict[str, Any]:
    """Build one snapshot outside the chain (warm paths, benchmarks)."""
    try:
        builder = _BUILDERS[algorithm]
    except KeyError:
        known = ", ".join(sorted(_BUILDERS))
        raise KeyError(f"unknown decomposition algorithm {algorithm!r}; "
                       f"known: {known}") from None
    return builder(graph, derived_seed)


def _compute(algorithm: str, graph: "Graph",
             derived_seed: int) -> Dict[str, Any]:
    # Looked up at call time, so a rebinding of the module attribute
    # (instrumentation, tests) sees every chain computation.
    return compute_snapshot(algorithm, graph, derived_seed)


def _request(scenario: "Scenario", size: int, seed: int, binding: "Binding",
             graph: "Graph"):
    algorithm = binding.decomposition
    if algorithm is None:
        return None
    derived = scenario.seed_for(size, seed)
    return ((scenario.name, size, derived, algorithm),
            (algorithm, graph, derived))


CHAIN = ArtifactChain("decomposition", DECOMPOSITION_FAMILY, _compute,
                      _request)
clear = CHAIN.clear
configure = CHAIN.configure
configure_store = CHAIN.configure_store
effective_maxsize = CHAIN.effective_maxsize
effective_store = CHAIN.effective_store
stats = CHAIN.stats


def binding_decomposition_source(scenario: "Scenario", size: int, seed: int,
                                 binding: "Binding",
                                 graph: "Graph") -> Tuple[Any, str]:
    """The binding's input snapshot at this cell, plus where it came from.

    ``(None, "none")`` when the binding consumes no decomposition; the
    value is otherwise exactly the snapshot a fresh ``build_ldc`` at
    the cell's derived seed would produce.
    """
    return CHAIN.cell_source(scenario, size, seed, binding, graph)


def decomposition_value_source(scenario_name: str, size: int,
                               derived_seed: int, algorithm: str,
                               graph: "Graph") -> Tuple[Any, str]:
    """Serve one snapshot through the chain."""
    return CHAIN.resolve((scenario_name, size, derived_seed, algorithm),
                         algorithm, graph, derived_seed)
