"""The generic content-addressed on-disk artifact store (the byte layer).

One store root holds immutable artifacts, each a *directory* of numpy
arrays plus a schema-versioned JSON manifest, addressed by a content
key hashed from the artifact's identity (kind + family schema +
coordinates).  What the arrays *mean* is declared by the typed
artifact-family registry (:mod:`repro.store.families`); this module
only guarantees that publication is atomic, reads are cheap, and
corruption degrades to a recompute.  Layout::

    store/
      graphs/                       # one subtree per artifact family
        3f/                         # two-hex-char fan-out
          3fa92c.../                # one directory per artifact key
            manifest.json           # schema, identity, array inventory
            indptr.npy              # the payload arrays, one file each
            indices.npy
      oracles/                      # every family shares this layout
        ...

The design constraints, in order:

* **Concurrent writers must be safe.**  Publication is
  write-into-a-private-temp-directory followed by a single
  ``os.rename`` onto the final path.  Two pool workers racing to
  publish the same key both build valid temp entries; exactly one
  rename wins (renaming onto an existing non-empty directory fails),
  and the loser discards its copy.  Readers either see no entry or a
  complete one -- never a half-written directory.
* **Reads must be cheap.**  ``open`` memory-maps every array
  (``np.load(mmap_mode="r")``), so loading a snapshot costs a manifest
  parse plus a few file headers regardless of graph size, and pool
  workers on one machine share the page cache.
* **Corruption must degrade to a rebuild, not an error.**  ``open``
  validates the manifest schema and every declared array (existence,
  byte size, dtype, shape) before returning; a truncated or mangled
  entry is quarantined (moved under ``.quarantine/<kind>/`` for
  post-mortem inspection) and reported as a miss so the caller
  rebuilds and republishes.  ``stat`` counts what sits in quarantine
  per family; ``gc`` drains it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.store.families import ArtifactFamily

# Version of the *container* format (directory layout + manifest shape).
# Each family additionally carries its own payload schema_version; both
# are hashed into every content key and checked on read.
SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
TMP_PREFIX = ".tmp-"

# Where `open` moves corrupt entries instead of deleting them: one
# subtree per family, entries renamed `<key>-<uuid8>` so repeated
# corruption of the same key never collides.  Dot-prefixed so `ls`
# never mistakes it for an artifact family.
QUARANTINE_DIR = ".quarantine"

# A temp directory older than this is a crashed publisher's leftover;
# younger ones may belong to a *live* concurrent publisher and must
# not be swept out from under its np.save.
TMP_SWEEP_AGE_SECONDS = 3600.0

# Default store root, shared with the CLI: co-located with the run
# store so `repro sweep` leaves everything under one gitignored tree.
# One root serves every artifact family (graphs/, oracles/, ...).
DEFAULT_STORE_DIR = os.path.join("runs", "store")


def artifact_key(kind: str, identity: Dict[str, Any],
                 family_schema: int = 1) -> str:
    """The content address of one artifact: stable across processes.

    Hashes the canonical JSON of ``(kind, container schema, family
    schema, identity)``, mirroring :func:`repro.runner.jobs.cell_key`.
    Both schema versions are part of the key, so a format change --
    container-wide or family-local -- can never serve stale bytes to
    new readers; old entries simply stop being addressed and age out
    via ``gc``.
    """
    payload = json.dumps(
        {"kind": kind, "schema": SCHEMA_VERSION,
         "family_schema": family_schema, "identity": identity},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


@dataclass
class ArtifactEntry:
    """One published artifact as seen by ``ls``/``gc``."""

    kind: str
    key: str
    path: Path
    manifest: Dict[str, Any]

    @property
    def created_at(self) -> float:
        return float(self.manifest.get("created_at", 0.0))

    @property
    def nbytes(self) -> int:
        """Total payload bytes as declared by the manifest."""
        return sum(int(spec.get("nbytes", 0))
                   for spec in self.manifest.get("arrays", {}).values())

    @property
    def identity(self) -> Dict[str, Any]:
        return dict(self.manifest.get("identity", {}))


class ArtifactStore:
    """All artifacts under one root directory; see the module docstring."""

    def __init__(self, root: "str | Path" = DEFAULT_STORE_DIR):
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def entry_path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / key

    def exists(self, family: ArtifactFamily, identity: Dict[str, Any]) -> bool:
        key = family.key(family.identity(**identity))
        return (self.entry_path(family.kind, key) / MANIFEST_NAME).is_file()

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def publish(self, family: ArtifactFamily,
                identity: Dict[str, Any],
                arrays: Dict[str, np.ndarray],
                extra: Optional[Dict[str, Any]] = None) -> bool:
        """Atomically publish one artifact; return True if *we* published.

        ``identity`` must match the family's key schema exactly (a
        wrong coordinate set raises instead of silently hashing into a
        bogus key).  False means the key was already present (or
        another writer won the publication race while we were writing)
        -- either way a valid entry exists afterwards.  Never raises on
        a lost race; filesystem errors building the temp entry do
        propagate, since they mean the store itself is unusable (disk
        full, bad root).
        """
        identity = family.identity(**identity)
        kind = family.kind
        key = family.key(identity)
        final = self.entry_path(kind, key)
        if (final / MANIFEST_NAME).is_file():
            return False
        bucket = final.parent
        bucket.mkdir(parents=True, exist_ok=True)
        tmp = bucket / f"{TMP_PREFIX}{key}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        tmp.mkdir()
        try:
            inventory: Dict[str, Dict[str, Any]] = {}
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                np.save(tmp / f"{name}.npy", array)
                # Payload durability: the rename below publishes the
                # entry, so its data pages must hit disk first -- a
                # crash after a metadata-journaled rename but before
                # data writeback would otherwise leave a "valid" entry
                # (right size, right header) full of zeroed arrays.
                with open(tmp / f"{name}.npy", "rb") as fh:
                    os.fsync(fh.fileno())
                inventory[name] = {
                    "dtype": str(array.dtype),
                    "shape": list(array.shape),
                    "nbytes": int(array.nbytes),
                    "file_bytes": int((tmp / f"{name}.npy").stat().st_size),
                }
            manifest = {
                "schema_version": SCHEMA_VERSION,
                "family_schema": family.schema_version,
                "kind": kind,
                "key": key,
                "identity": identity,
                "arrays": inventory,
                "created_at": time.time(),
                "python_version": platform.python_version(),
            }
            if extra:
                manifest.update(extra)
            manifest_path = tmp / MANIFEST_NAME
            with open(manifest_path, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        try:
            os.rename(tmp, final)
        except OSError:
            # Lost the race: a complete entry already sits at `final`.
            shutil.rmtree(tmp, ignore_errors=True)
            return False
        try:
            # Make the rename itself durable (best-effort: not every
            # platform lets a directory be opened for fsync).
            fd = os.open(bucket, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        except OSError:
            pass
        return True

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def open(self, family: ArtifactFamily, identity: Dict[str, Any]
             ) -> Optional[Tuple[Dict[str, Any], Dict[str, np.ndarray]]]:
        """``(manifest, {name: mmap'd array})`` -- or None on miss/corrupt.

        Every array declared by the manifest is opened with
        ``np.load(mmap_mode="r")`` and checked against the declared
        byte size, dtype, and shape.  Any mismatch (truncated file,
        mangled manifest, missing array, schema skew against the
        family's declared versions) quarantines the entry and returns
        None, so callers fall through to a rebuild.
        """
        identity = family.identity(**identity)
        kind = family.kind
        key = family.key(identity)
        path = self.entry_path(kind, key)
        manifest_path = path / MANIFEST_NAME
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            # A directory without a manifest can only be a broken entry
            # (publication lands the whole directory atomically).
            if path.is_dir():
                self._quarantine(path)
            return None
        except ValueError:
            self._quarantine(path)  # mangled JSON: corruption
            return None
        except OSError:
            # Transient environment trouble (EMFILE, EACCES, EINTR...):
            # a miss this time, but never grounds to delete the entry.
            return None
        if (manifest.get("schema_version") != SCHEMA_VERSION
                or manifest.get("family_schema") != family.schema_version
                or manifest.get("kind") != kind
                or not isinstance(manifest.get("arrays"), dict)):
            # The key hashes both schema versions, so a manifest that
            # disagrees with its own address is corruption, not skew.
            self._quarantine(path)
            return None
        arrays: Dict[str, np.ndarray] = {}
        for name, spec in manifest["arrays"].items():
            file_path = path / f"{name}.npy"
            try:
                if file_path.stat().st_size != int(spec["file_bytes"]):
                    raise ValueError("size mismatch")
                array = np.load(file_path, mmap_mode="r")
                if (str(array.dtype) != spec["dtype"]
                        or list(array.shape) != list(spec["shape"])):
                    raise ValueError("dtype/shape mismatch")
            except (FileNotFoundError, ValueError, KeyError):
                # Missing/truncated/mismatched payload: real corruption.
                self._quarantine(path)
                return None
            except OSError:
                return None  # transient: miss without quarantining
            arrays[name] = array
        return manifest, arrays

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it gets rebuilt.

        The entry lands under ``.quarantine/<kind>/<key>-<uuid8>`` --
        out of the addressable namespace (so the next ``open`` is a
        clean miss) but still on disk for post-mortem inspection
        until ``gc`` drains it.  A rename that fails (cross-device
        root shuffling, permissions) degrades to the old behavior:
        best-effort removal.
        """
        kind = path.parent.parent.name
        dest_dir = self.root / QUARANTINE_DIR / kind
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            os.rename(path, dest_dir / f"{path.name}-{uuid.uuid4().hex[:8]}")
        except OSError:
            shutil.rmtree(path, ignore_errors=True)

    # ------------------------------------------------------------------
    # Inventory and maintenance
    # ------------------------------------------------------------------
    def ls(self, kind: Optional[str] = None) -> List[ArtifactEntry]:
        """Every well-formed entry (oldest first), optionally one kind."""
        if not self.root.is_dir():
            return []
        kinds = ([kind] if kind is not None else
                 sorted(p.name for p in self.root.iterdir()
                        if p.is_dir() and not p.name.startswith(".")))
        entries: List[ArtifactEntry] = []
        for k in kinds:
            kind_root = self.root / k
            if not kind_root.is_dir():
                continue
            for bucket in sorted(kind_root.iterdir()):
                if not bucket.is_dir():
                    continue
                for entry in sorted(bucket.iterdir()):
                    if entry.name.startswith(TMP_PREFIX):
                        continue
                    manifest_path = entry / MANIFEST_NAME
                    try:
                        with open(manifest_path, encoding="utf-8") as fh:
                            manifest = json.load(fh)
                    except (OSError, ValueError):
                        continue
                    entries.append(ArtifactEntry(
                        kind=k, key=entry.name, path=entry,
                        manifest=manifest))
        entries.sort(key=lambda e: (e.created_at, e.key))
        return entries

    def quarantined_counts(self, kind: Optional[str] = None
                           ) -> Dict[str, int]:
        """Per-family counts of quarantined (corrupt, moved-aside)
        entries, optionally scoped to one family.  Empty when clean."""
        qroot = self.root / QUARANTINE_DIR
        if not qroot.is_dir():
            return {}
        counts: Dict[str, int] = {}
        for kind_root in sorted(qroot.iterdir()):
            if not kind_root.is_dir():
                continue
            if kind is not None and kind_root.name != kind:
                continue
            count = sum(1 for p in kind_root.iterdir() if p.is_dir())
            if count:
                counts[kind_root.name] = count
        return counts

    def stat(self, kind: Optional[str] = None) -> Dict[str, Any]:
        """Aggregate store statistics (optionally one family) for
        ``repro store stat``: totals plus a per-family breakdown,
        including how many corrupt entries each family has sitting in
        quarantine (``gc`` drains them)."""
        entries = self.ls(kind)
        quarantined = self.quarantined_counts(kind)
        by_family: Dict[str, Dict[str, int]] = {}
        for entry in entries:
            bucket = by_family.setdefault(entry.kind,
                                          {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += entry.nbytes
        for family, count in quarantined.items():
            bucket = by_family.setdefault(family,
                                          {"entries": 0, "bytes": 0})
            bucket["quarantined"] = count
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(e.nbytes for e in entries),
            "quarantined": sum(quarantined.values()),
            "families": by_family,
        }

    def remove(self, kind: str, key: str) -> bool:
        path = self.entry_path(kind, key)
        if not path.is_dir():
            return False
        shutil.rmtree(path, ignore_errors=True)
        return True

    def gc(self, keep_last: Optional[int] = None,
           max_bytes: Optional[int] = None,
           kind: Optional[str] = None,
           dry_run: bool = False) -> List[ArtifactEntry]:
        """Prune old entries; return what was removed.

        ``keep_last`` keeps only the N newest entries (by publication
        time); ``max_bytes`` then drops the oldest survivors until the
        total payload fits the budget.  Either may be given alone.
        ``kind`` scopes both budgets to one artifact family, so graph
        snapshots and oracle outputs can be pruned independently
        (entries of other families are neither counted nor touched).
        Stray temp directories from crashed writers and quarantined
        corrupt entries (scoped by ``kind``) are also drained.
        ``dry_run`` reports what *would* be removed without deleting
        anything -- no entry removal, no temp sweep, no quarantine
        drain.
        """
        removed: List[ArtifactEntry] = []
        entries = self.ls(kind)
        survivors = list(entries)
        if keep_last is not None:
            if keep_last < 0:
                raise ValueError(f"keep_last must be >= 0, got {keep_last}")
            cut = len(survivors) - keep_last
            if cut > 0:
                removed.extend(survivors[:cut])
                survivors = survivors[cut:]
        if max_bytes is not None:
            if max_bytes < 0:
                raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
            total = sum(e.nbytes for e in survivors)
            while survivors and total > max_bytes:
                victim = survivors.pop(0)
                total -= victim.nbytes
                removed.append(victim)
        if dry_run:
            return removed
        for entry in removed:
            shutil.rmtree(entry.path, ignore_errors=True)
        self._drain_quarantine(kind)
        self._sweep_tmp()
        return removed

    def _drain_quarantine(self, kind: Optional[str] = None) -> None:
        """Delete quarantined entries (optionally one family's)."""
        qroot = self.root / QUARANTINE_DIR
        if not qroot.is_dir():
            return
        targets = [qroot / kind] if kind is not None \
            else [p for p in qroot.iterdir() if p.is_dir()]
        for target in targets:
            shutil.rmtree(target, ignore_errors=True)

    def _sweep_tmp(self) -> None:
        """Remove leftover temp directories from *crashed* publishers.

        Only directories older than :data:`TMP_SWEEP_AGE_SECONDS` are
        touched -- a younger one may belong to a live concurrent
        publisher whose np.save would fail mid-write if its directory
        vanished.
        """
        if not self.root.is_dir():
            return
        cutoff = time.time() - TMP_SWEEP_AGE_SECONDS
        for kind_root in self.root.iterdir():
            if not kind_root.is_dir():
                continue
            for bucket in kind_root.iterdir():
                if not bucket.is_dir():
                    continue
                for entry in bucket.iterdir():
                    if not entry.name.startswith(TMP_PREFIX):
                        continue
                    try:
                        abandoned = entry.stat().st_mtime < cutoff
                    except OSError:
                        continue  # already gone (racing gc)
                    if abandoned:
                        shutil.rmtree(entry, ignore_errors=True)


class FamilyStore:
    """One artifact family's view over an :class:`ArtifactStore` root.

    Everything is scoped to the family: ``publish``/``load``/``contains``
    take the family's coordinates positionally (``publish`` takes the
    value last) and go through the family's codec, and ``ls``/``stat``/
    ``gc`` see only the family's subtree -- entries of other families
    under the same root are neither counted nor touched.
    """

    def __init__(self, family: ArtifactFamily,
                 root: "str | Path" = DEFAULT_STORE_DIR):
        self.family = family
        self.artifacts = ArtifactStore(root)

    @property
    def root(self) -> Path:
        return self.artifacts.root

    def publish(self, *args: Any) -> bool:
        """``publish(*coords, value)``; True if *we* published it.

        A value the codec cannot represent is silently not storable
        (False, the caller keeps its value) -- the store must never
        corrupt a value to fit.
        """
        *coords, value = args
        try:
            arrays, extra = self.family.encode(value, *coords)
        except (OverflowError, ValueError, TypeError, KeyError):
            return False
        return self.artifacts.publish(
            self.family, self.family.identify(*coords), arrays, extra=extra)

    def load(self, *coords: Any) -> Optional[Any]:
        """The stored value, or None on miss/corruption.

        A decode failure beyond what the byte layer checks (arrays that
        parse but do not describe a value of this family) counts as
        corruption too: the entry is dropped and the caller recomputes.
        """
        identity = self.family.identify(*coords)
        opened = self.artifacts.open(self.family, identity)
        if opened is None:
            return None
        try:
            return self.family.decode(*opened, *coords)
        except (KeyError, ValueError, TypeError, IndexError):
            self.artifacts.remove(self.family.kind,
                                  self.family.key(identity))
            return None

    def contains(self, *coords: Any) -> bool:
        return self.artifacts.exists(self.family,
                                     self.family.identify(*coords))

    def ls(self) -> List[ArtifactEntry]:
        return self.artifacts.ls(self.family.kind)

    def stat(self) -> Dict[str, Any]:
        return self.artifacts.stat(self.family.kind)

    def gc(self, keep_last: Optional[int] = None,
           max_bytes: Optional[int] = None) -> List[ArtifactEntry]:
        return self.artifacts.gc(keep_last=keep_last, max_bytes=max_bytes,
                                 kind=self.family.kind)
