"""The sweep configuration: one frozen settings object per process.

Every process-wide knob of the sweep path lives in one
:class:`SweepConfig`: where each artifact family's on-disk store is
(graphs, oracles, decompositions, profiles), how many entries each
in-process LRU holds, whether cells run under cProfile -- plus the
revision of the run in progress, which stamps captured profiles.

The config is process-wide: :func:`current` is what the cache chains
and the executor read.  :func:`update` changes it (``repro sweep``
sets every chain's store root and LRU size through it, and
:func:`repro.runner.engine.run_sweep` its store-root keywords), and
pool workers receive the parent's config through the executor's pool
initializer (:func:`install`), which behaves the same under every
start method -- no environment variables are involved.  :func:`reset`
returns a process to its pristine state (the test-isolation hook).
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterator, Optional

# The settings that name a store root (normalized to a path string).
_ROOTS = ("graph_store", "oracle_store", "decomposition_store",
          "profile_store")


@dataclass(frozen=True)
class SweepConfig:
    """The eight sweep settings plus the revision of the run in progress."""

    graph_store: Optional[str] = None
    oracle_store: Optional[str] = None
    decomposition_store: Optional[str] = None
    profile_store: Optional[str] = None
    # A worker sees a handful of distinct graph / snapshot keys in
    # flight at once; 32 covers a full-matrix sweep's working set while
    # bounding memory on dense entries.  Oracle values are small (an
    # n x n matrix at sweep sizes is tens of kilobytes), so that LRU
    # can hold twice as many.
    graph_cache_size: int = 32
    oracle_cache_size: int = 64
    decomposition_cache_size: int = 32
    cprofile: bool = False
    revision: Optional[str] = None

    def __post_init__(self) -> None:
        # Clamp LRU sizes (0 disables a cache) and normalize roots, so
        # the parent, its workers and the run manifest see one value.
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name.endswith("_cache_size"):
                value = max(0, int(value))
            elif field.name in _ROOTS and value is not None:
                value = str(Path(value))
            object.__setattr__(self, field.name, value)


_current = SweepConfig()


def current() -> SweepConfig:
    """The config in force in this process."""
    return _current


def update(**changes) -> SweepConfig:
    """Replace some settings process-wide; return the new config.

    Setting a chain's cache size empties that chain's LRU (even when
    the size is unchanged), so a resized cache never serves entries
    admitted under the old capacity.
    """
    global _current
    _current = replace(_current, **changes)
    for chain in _chains():
        if chain.size_field in changes:
            chain.clear()
    return _current


def install(config: SweepConfig) -> None:
    """Adopt ``config`` wholesale (the pool-worker initializer's call)."""
    global _current
    _current = config


def reset() -> None:
    """Back to the defaults: every LRU emptied."""
    install(SweepConfig())
    for chain in _chains():
        chain.clear()


@contextlib.contextmanager
def preserved() -> Iterator[SweepConfig]:
    """Restore the config (and empty every LRU) when the block exits."""
    saved = _current
    try:
        yield saved
    finally:
        update(**asdict(saved))


def _chains():
    from repro.runner.chain import CHAINS

    return CHAINS.values()
