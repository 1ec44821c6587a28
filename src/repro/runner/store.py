"""The persistent run store: JSONL cell records under ``runs/``.

Layout (one directory per run)::

    runs/
      run-20260730-120001-ab12cd/
        manifest.json        # schema, git revision, python, params, plan
        records.jsonl        # one CellResult per line, appended on completion

The manifest pins everything needed to interpret (and re-execute) the
records: schema version, the git revision the cells ran at, the python
version, the sweep parameters, and the full planned cell-key list.
Records are appended and flushed as cells complete, so a sweep killed
mid-flight leaves a well-formed prefix; re-invoking the same sweep at
the same revision finds the incomplete run via its ``params_key`` and
continues it, skipping every cell key already on disk -- the resume
contract of ISSUE 2.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.runner.jobs import CellResult, JobSpec

SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.jsonl"


def git_revision() -> str:
    """The working directory's git revision, or ``unknown`` outside a
    checkout.

    A dirty working tree is suffixed with a hash of the uncommitted
    diff, not a bare ``-dirty`` marker: resume matches runs by revision,
    and two different sets of uncommitted edits are different code whose
    records must not be mixed into one run.
    """
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()
        diff = subprocess.run(
            ["git", "diff", "HEAD"],
            capture_output=True, text=True, timeout=10,
            check=True).stdout
        if not diff:
            return rev
        digest = hashlib.sha256(diff.encode("utf-8")).hexdigest()[:8]
        return f"{rev}-dirty.{digest}"
    except Exception:
        return "unknown"


def params_key(params: Dict[str, Any]) -> str:
    """Content hash of the sweep parameters (what makes runs comparable)."""
    payload = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class Run:
    """One run directory: a manifest plus an append-only record log."""

    def __init__(self, path: Path, manifest: Dict[str, Any]):
        self.path = Path(path)
        self.manifest = manifest
        self._results_cache: Optional[List[CellResult]] = None

    @property
    def run_id(self) -> str:
        return self.manifest["run_id"]

    @property
    def revision(self) -> str:
        return self.manifest["revision"]

    @property
    def planned_keys(self) -> List[str]:
        return list(self.manifest["planned_cells"])

    @property
    def records_path(self) -> Path:
        return self.path / RECORDS_NAME

    def append(self, result: CellResult) -> None:
        """Persist one completed cell (flushed line-atomically)."""
        line = json.dumps(result.as_dict(), sort_keys=True,
                          separators=(",", ":"))
        with open(self.records_path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._results_cache = None

    def load_results(self) -> List[CellResult]:
        """Every recorded cell, deduped by key (last write wins) and
        sorted by cell identity so the record *set* has a canonical
        order independent of completion order and worker count.

        A sweep killed mid-write can leave one torn trailing line; such
        undecodable lines are skipped (that cell simply re-runs on
        resume) rather than poisoning the whole store.  Parsed results
        are cached per instance -- ``append`` invalidates the cache.
        """
        if self._results_cache is not None:
            return list(self._results_cache)
        by_key: Dict[str, CellResult] = {}
        if self.records_path.exists():
            with open(self.records_path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        result = CellResult.from_dict(json.loads(line))
                    except (ValueError, KeyError):
                        continue  # torn write: drop the line, keep the run
                    by_key[result.key] = result
        self._results_cache = sorted(by_key.values(),
                                     key=lambda r: r.spec.identity)
        return list(self._results_cache)

    def update_manifest(self, extra: Dict[str, Any]) -> None:
        """Merge keys into the manifest and rewrite it atomically.

        The engine uses this to stamp post-execution facts (store
        hit/miss counters) onto a run.  Core identity fields (params,
        planned cells, revision) are never passed here; the atomic
        replace mirrors ``create_run`` so a kill mid-write can't tear
        the manifest.
        """
        self.manifest.update(extra)
        tmp_path = self.path / (MANIFEST_NAME + ".tmp")
        with open(tmp_path, "w", encoding="utf-8") as fh:
            json.dump(self.manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp_path, self.path / MANIFEST_NAME)

    def completed_keys(self) -> Set[str]:
        return {result.key for result in self.load_results()}

    def is_complete(self) -> bool:
        return set(self.planned_keys) <= self.completed_keys()


class RunStore:
    """All runs under one root directory (``runs/`` by default)."""

    def __init__(self, root: str | Path = "runs"):
        self.root = Path(root)

    def list_runs(self) -> List[Run]:
        """Every well-formed run, oldest first."""
        if not self.root.is_dir():
            return []
        runs = []
        for entry in sorted(self.root.iterdir()):
            manifest_path = entry / MANIFEST_NAME
            if not manifest_path.is_file():
                continue
            try:
                with open(manifest_path, encoding="utf-8") as fh:
                    runs.append(Run(entry, json.load(fh)))
            except ValueError:
                continue  # unreadable manifest: not a usable run
        runs.sort(key=lambda run: run.manifest.get("created_at", 0.0))
        return runs

    def open_run(self, run_id: str) -> Run:
        manifest_path = self.root / run_id / MANIFEST_NAME
        if not manifest_path.is_file():
            known = ", ".join(run.run_id for run in self.list_runs()) or "none"
            raise KeyError(f"unknown run {run_id!r} under {self.root} "
                           f"(known: {known})")
        with open(manifest_path, encoding="utf-8") as fh:
            return Run(self.root / run_id, json.load(fh))

    def create_run(self, specs: Sequence[JobSpec],
                   params: Dict[str, Any], *,
                   revision: Optional[str] = None,
                   extra: Optional[Dict[str, Any]] = None) -> Run:
        """Allocate a run directory and write its manifest.

        ``extra`` keys are merged into the manifest (the engine records
        the effective graph-cache size and graph-store root there);
        they never override the core fields and play no part in the
        resume identity, which hashes only ``params``.
        """
        revision = git_revision() if revision is None else revision
        created = time.time()
        stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime(created))
        pkey = params_key(params)
        base = f"run-{stamp}-{pkey[:6]}"
        run_id, attempt = base, 1
        while (self.root / run_id).exists():
            attempt += 1
            run_id = f"{base}.{attempt}"
        path = self.root / run_id
        path.mkdir(parents=True)
        manifest = dict(extra or {})
        manifest.update({
            "run_id": run_id,
            "schema_version": SCHEMA_VERSION,
            "revision": revision,
            "python_version": platform.python_version(),
            "created_at": created,
            "params": params,
            "params_key": pkey,
            "cell_count": len(specs),
            "planned_cells": [spec.key for spec in specs],
        })
        # Temp-file + rename so a kill mid-dump never leaves a torn
        # manifest behind (list_runs would otherwise skip the run).
        tmp_path = path / (MANIFEST_NAME + ".tmp")
        with open(tmp_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp_path, path / MANIFEST_NAME)
        return Run(path, manifest)

    def find_resumable(self, params: Dict[str, Any],
                       revision: str) -> Optional[Run]:
        """The newest *incomplete* run with the same params + revision.

        Only same-revision runs are resumed: records from other code
        revisions describe different behavior and must not be mixed
        into one record set.
        """
        pkey = params_key(params)
        for run in reversed(self.list_runs()):
            if (run.manifest.get("params_key") == pkey
                    and run.revision == revision
                    and run.manifest.get("schema_version") == SCHEMA_VERSION
                    and not run.is_complete()):
                return run
        return None
