"""Picklable job specs and cell results for the parallel sweep engine.

A sweep over the scenario x algorithm matrix decomposes into independent
*cells*, each fully described by ``(scenario, algorithm, size, seed)``.
Because every scenario build is seed-deterministic (see
:mod:`repro.scenarios.registry`), a :class:`JobSpec` is all a worker
process needs: it rebuilds the graph locally and runs the differential
oracle -- no graphs or results cross the process boundary, only these
small records.

Cell identity is *content-addressed*: :func:`cell_key` hashes the
canonical JSON of the four coordinates, so the same cell gets the same
key in every process, run, and revision -- the handle the run store uses
to skip already-recorded cells on resume.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

# The canonical-payload rule lives beside DifferentialRecord.
from repro.testing.differential import NONDETERMINISTIC_FIELDS

CellIdentity = Tuple[str, str, int, int]


def error_headline(error: Optional[str]) -> str:
    """The last non-empty line of a traceback/error text ('' if none)."""
    lines = (error or "").strip().splitlines()
    return lines[-1] if lines else ""


def cell_key(scenario: str, algorithm: str, size: int, seed: int,
             faults: Optional[str] = None, fault_seed: int = 0) -> str:
    """The content-addressed cell id: stable across processes and runs.

    Fault coordinates join the payload only for faulted cells, so every
    fault-free key is unchanged from before the fault plane existed.
    """
    coords: Dict[str, Any] = {"scenario": scenario, "algorithm": algorithm,
                              "size": size, "seed": seed}
    if faults is not None:
        coords["faults"] = faults
        coords["fault_seed"] = fault_seed
    payload = json.dumps(coords, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


@dataclass(frozen=True)
class JobSpec:
    """One sweep cell, small enough to pickle to a worker process.

    ``faults``/``fault_seed`` select a named fault profile for the cell;
    they are part of the cell key (a faulted cell is a different cell
    than its clean twin), serialized only when set so fault-free spec
    rows are byte-identical to the pre-fault format.

    ``delay`` and ``crash`` are test instrumentation: the executor
    sleeps ``delay`` seconds before running the cell (exercises the
    per-cell timeout path), and ``crash`` makes a pool worker
    ``os._exit(1)`` mid-cell (exercises the BrokenProcessPool /
    poison-quarantine path).  Both are excluded from the cell key --
    identity is the matrix + fault coordinates only.
    """

    scenario: str
    algorithm: str
    size: int
    seed: int = 0
    delay: float = 0.0
    faults: Optional[str] = None
    fault_seed: int = 0
    crash: bool = False

    @property
    def identity(self) -> CellIdentity:
        return (self.scenario, self.algorithm, self.size, self.seed)

    @property
    def key(self) -> str:
        return cell_key(self.scenario, self.algorithm, self.size, self.seed,
                        self.faults, self.fault_seed)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "scenario": self.scenario, "algorithm": self.algorithm,
            "size": self.size, "seed": self.seed}
        if self.faults is not None:
            out["faults"] = self.faults
            out["fault_seed"] = self.fault_seed
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        return cls(scenario=payload["scenario"],
                   algorithm=payload["algorithm"],
                   size=payload["size"], seed=payload["seed"],
                   faults=payload.get("faults"),
                   fault_seed=payload.get("fault_seed", 0))


# Cell execution statuses.
DONE = "done"        # the differential record was produced (pass or fail)
TIMEOUT = "timeout"  # the cell exceeded the per-cell wall-time budget
ERROR = "error"      # the cell raised (bug or crashed worker)


@dataclass
class CellResult:
    """Outcome of executing one :class:`JobSpec`.

    ``record`` is the ``DifferentialRecord.as_dict()`` payload when
    ``status == "done"`` and ``None`` otherwise; keeping it as a plain
    dict makes the result picklable and JSONL-serializable as-is.

    ``attempts`` counts how many times the cell was executed: 1 for a
    first-try outcome, more when the executor's retry budget re-queued
    a timed-out or crashed cell (``wall_time`` is the total across
    attempts).

    ``poisoned`` marks a cell that repeatedly killed its worker process:
    the executor gave up after its retry budget, recorded the cell as
    ``error``, and a resumed run will *skip* it (the record is in the
    store) instead of re-killing the pool.

    ``hot`` carries the cell's top hot functions when the sweep ran
    with ``--cprofile``: ``[label, calls, cumulative_seconds]`` rows,
    picklable so they ride back from pool workers.  Serialized only
    when present, so unprofiled result rows keep their exact format.
    """

    spec: JobSpec
    status: str
    wall_time: float
    record: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    attempts: int = 1
    poisoned: bool = False
    hot: Optional[List[List[Any]]] = None

    @property
    def passed(self) -> bool:
        return (self.status == DONE and self.record is not None
                and bool(self.record.get("passed")))

    @property
    def key(self) -> str:
        return self.spec.key

    def canonical_record(self) -> Optional[Dict[str, Any]]:
        """The deterministic part of the record (wall clock stripped)."""
        if self.record is None:
            return None
        payload = dict(self.record)
        for field in NONDETERMINISTIC_FIELDS:
            payload.pop(field, None)
        return payload

    def as_dict(self) -> Dict[str, Any]:
        out = {"key": self.key, "spec": self.spec.as_dict(),
               "status": self.status, "wall_time": self.wall_time,
               "record": self.record, "error": self.error,
               "attempts": self.attempts}
        if self.poisoned:
            out["poisoned"] = True
        if self.hot is not None:
            out["hot"] = self.hot
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CellResult":
        return cls(spec=JobSpec.from_dict(payload["spec"]),
                   status=payload["status"],
                   wall_time=payload["wall_time"],
                   record=payload.get("record"),
                   error=payload.get("error"),
                   attempts=payload.get("attempts", 1),
                   poisoned=payload.get("poisoned", False),
                   hot=payload.get("hot"))


def build_specs(names: Optional[Iterable[str]] = None, *,
                sizes: Optional[Sequence[int]] = None,
                seeds: Sequence[int] = (0,),
                faults: Optional[Sequence[Optional[str]]] = None,
                fault_seed: int = 0) -> List[JobSpec]:
    """The sweep work-list, in the canonical deterministic order.

    Mirrors :func:`repro.testing.sweep`: scenarios sorted by name, each
    at its tier-1 ``default_size`` unless explicit ``sizes`` are given,
    under every bound algorithm, for every caller seed.  ``faults`` is
    an optional sequence of fault-profile names crossed into the matrix
    as the innermost axis (``None`` entries mean fault-free cells, so a
    sweep can mix clean and faulted twins of the same coordinates).
    """
    from repro.scenarios import all_scenarios, get_scenario

    scenarios = (all_scenarios() if names is None
                 else [get_scenario(name) for name in names])
    profiles: Sequence[Optional[str]] = ((None,) if faults is None
                                         else list(faults))
    specs: List[JobSpec] = []
    for scenario in scenarios:
        run_sizes = ([scenario.default_size] if sizes is None
                     else list(sizes))
        for size in run_sizes:
            for algorithm in scenario.algorithms:
                for seed in seeds:
                    for profile in profiles:
                        specs.append(JobSpec(
                            scenario.name, algorithm, size, seed,
                            faults=profile,
                            fault_seed=fault_seed if profile else 0))
    return specs
