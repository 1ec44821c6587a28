"""The artifact chain: per-worker LRU -> on-disk store -> compute.

Every sweep cell resolves up to three seed-deterministic artifacts
before it runs: its scenario graph, its sequential baseline, and its
input decomposition.  Each is content-addressed by its key (the cell
coordinates plus whatever else determines the value), so each is
served through the same fall-through chain:

1. the **in-process LRU** -- same-key cells in one worker share one
   value (for graphs: one instance, with its memoized simulator
   precompute);
2. the family's **on-disk store** (:class:`repro.store.FamilyStore`),
   when one is configured -- shared by every pool worker, repeated
   sweep and later revision, mmap'd instead of recomputed;
3. **compute-and-publish** -- the value is computed and published
   (atomic, race-safe) for everyone else.

One :class:`ArtifactChain` is built per family (in
:mod:`repro.runner.graph_cache`, :mod:`repro.runner.oracle_cache` and
:mod:`repro.runner.decomposition_cache`); a family contributes only
its store codec, its compute function and its per-cell request (the
key a cell needs from it, if any).  :data:`CHAINS` holds them by store
kind in the order a cell resolves them -- graph, baseline, input
decomposition -- and every consumer that walks the families (``repro
store warm``, the store benchmarks, the sweep summary) walks
:func:`all_chains`.  The store root and LRU size come from the
process-wide :class:`repro.runner.config.SweepConfig`
(``<setting>_store`` / ``<setting>_cache_size``).  The LRU stays
process-local by design: values never cross the pool boundary, the
store is what workers share.

Where a served value came from is its provenance label (one of
:data:`LRU_HIT`, :data:`STORE_HIT`, or the family's miss label --
:data:`BUILT` for graphs, :data:`COMPUTED` otherwise); the sweep engine
records it per cell as a nondeterministic record field, so cache state
never changes a canonical record byte.
"""

from __future__ import annotations

import importlib
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, Optional, \
    Sequence, Tuple

from repro.runner import config

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.artifacts import FamilyStore
    from repro.store.families import ArtifactFamily

# Provenance labels (recorded per cell as <family>_source).
LRU_HIT = "lru"
STORE_HIT = "store"
BUILT = "built"
COMPUTED = "computed"
NONE = "none"  # the binding needs no artifact of this family

_MISS = object()

# Every chain family -- store kind -> the module that builds its chain
# -- in the order a cell resolves them: its graph, then its baseline,
# then its input decomposition.
_MODULES = {"graphs": "graph_cache", "oracles": "oracle_cache",
            "decompositions": "decomposition_cache"}

# store kind -> built chain, always in _MODULES order whichever module
# was imported first (config.update/reset clear every built chain).
CHAINS: Dict[str, "ArtifactChain"] = {}


def all_chains() -> Dict[str, "ArtifactChain"]:
    """:data:`CHAINS` with every family's chain built."""
    for module in _MODULES.values():
        importlib.import_module(f"repro.runner.{module}")
    return CHAINS


class ArtifactChain:
    """LRU -> store -> compute-and-publish for one artifact family.

    ``compute(*args)`` builds a value from the arguments handed to
    :meth:`resolve`; ``coords(key, *args)`` maps a cache key to the
    family store's coordinates (default: the key itself);
    ``request(scenario, size, seed, binding, graph)`` returns the key
    and compute arguments one cell needs, or None when the cell needs no
    artifact of the family (see :meth:`cell_source`).
    """

    def __init__(self, setting: str, family: "ArtifactFamily",
                 compute: Callable[..., Any],
                 request: Callable[..., Any], *,
                 built: str = COMPUTED,
                 coords: Optional[Callable[..., Sequence[Any]]] = None):
        self.family = family
        self.kind = family.kind
        self.setting = setting
        self.built = built
        self.store_field = f"{setting}_store"
        self.size_field = f"{setting}_cache_size"
        self.compute = compute
        self.request = request
        self._coords = coords
        self._cache: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._view: Optional["FamilyStore"] = None
        self.clear()
        CHAINS[self.kind] = self
        for kind in [kind for kind in _MODULES if kind in CHAINS]:
            CHAINS[kind] = CHAINS.pop(kind)

    def cell_source(self, scenario: Any, size: Any, seed: int, binding: Any,
                    graph: Any) -> Tuple[Any, str]:
        """The artifact one cell needs from this family, plus where it
        came from (``(None, "none")`` when the cell needs none)."""
        request = self.request(scenario, size, seed, binding, graph)
        if request is None:
            return None, NONE
        key, args = request
        return self.resolve(key, *args)

    def coords(self, key: Hashable, *args: Any) -> Sequence[Any]:
        """The family store's coordinates of the artifact at ``key``."""
        return key if self._coords is None else self._coords(key, *args)

    def resolve(self, key: Hashable, *args: Any) -> Tuple[Any, str]:
        """The value at ``key``, plus where it came from."""
        cache = self._cache
        value = cache.get(key, _MISS)
        if value is not _MISS:
            self.hits += 1
            cache.move_to_end(key)
            return value, LRU_HIT
        self.misses += 1
        source = self.built
        value = None
        store = self.effective_store()
        coords = self.coords(key, *args)
        if store is not None:
            value = store.load(*coords)
            if value is not None:
                self.store_hits += 1
                source = STORE_HIT
            else:
                self.store_misses += 1
        if value is None:
            value = self.compute(*args)
            if store is not None and store.publish(*coords, value):
                self.publishes += 1
        maxsize = self.effective_maxsize()
        if maxsize > 0:
            cache[key] = value
            while len(cache) > maxsize:
                cache.popitem(last=False)
        return value, source

    def effective_store(self) -> Optional["FamilyStore"]:
        """The family's store at the configured root (None: no store)."""
        root = getattr(config.current(), self.store_field)
        if root is None:
            return None
        view = self._view
        if view is None or str(view.root) != root:
            from repro.store.artifacts import FamilyStore

            view = self._view = FamilyStore(self.family, root)
        return view

    def effective_maxsize(self) -> int:
        """The LRU capacity in force (recorded in run manifests)."""
        return getattr(config.current(), self.size_field)

    def configure(self, maxsize: int) -> None:
        """Set the LRU capacity (0 disables caching); empties the LRU."""
        config.update(**{self.size_field: maxsize})

    def configure_store(self, root) -> None:
        """Point the chain at a store root (None disconnects it)."""
        config.update(**{self.store_field: root})

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters (process-local, for tests and reports)."""
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self._cache),
                "maxsize": self.effective_maxsize(),
                "store_hits": self.store_hits,
                "store_misses": self.store_misses,
                "publishes": self.publishes}

    def clear(self) -> None:
        """Drop every cached value and reset the counters."""
        self._cache.clear()
        self.hits = self.misses = 0
        self.store_hits = self.store_misses = self.publishes = 0


def warm(root, scenarios, *, families: Optional[Sequence[str]] = None,
         sizes=None, seeds=(0,)) -> Dict[str, int]:
    """Pre-compute and publish sweep artifacts (``repro store warm``).

    Every scenario x size (default: its tier-1 ``default_size``) x
    caller seed resolves its graph and, per bound algorithm, its
    artifact of every other chain, with the requested ``families``
    (default: every chain's) connected to the store at ``root`` -- so
    each distinct artifact is computed and published once (siblings
    sharing an artifact hit the LRU).  Returns ``{"published": ...,
    "skipped": ...}``; skipped artifacts were already in the store (or
    are not storable).  The process-wide config is restored afterwards.
    """
    from repro.scenarios import get_binding

    chains = all_chains()
    families = tuple(chains) if families is None else families
    wanted = [chain for kind, chain in chains.items() if kind in families]
    graphs = chains["graphs"]
    defaults = config.SweepConfig()
    settings: Dict[str, Any] = {}
    for chain in chains.values():
        settings[chain.store_field] = str(root) if chain in wanted else None
        settings[chain.size_field] = getattr(defaults, chain.size_field)
    fresh = 0  # first resolutions of a requested artifact (not LRU hits)
    with config.preserved():
        config.update(**settings)  # also empties every LRU and counter
        for scenario in scenarios:
            bindings = [get_binding(name) for name in scenario.algorithms]
            for size in ([scenario.default_size] if sizes is None
                         else sizes):
                for seed in seeds:
                    # Resolved whether or not graphs are wanted: every
                    # other family's request takes the cell's graph.
                    graph, source = graphs.cell_source(scenario, size, seed,
                                                       None, None)
                    sources = [(graphs, source)]
                    for binding in bindings:
                        sources.extend(
                            (chain, chain.cell_source(
                                scenario, size, seed, binding, graph)[1])
                            for chain in wanted if chain is not graphs)
                    fresh += sum(1 for chain, source in sources
                                 if chain in wanted
                                 and source not in (LRU_HIT, NONE))
        published = sum(chain.publishes for chain in wanted)
    return {"published": published, "skipped": fresh - published}
