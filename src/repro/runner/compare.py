"""Cell-by-cell regression comparison between two stored runs.

This replaces ad-hoc BENCH files as the perf-trajectory mechanism: a
baseline run and a current run are joined on their content-addressed
cell keys and diffed on three axes --

* **verdict flips** -- a cell that passed in the baseline and fails now
  (oracle mismatch or envelope violation) is a regression; the reverse
  flip is an improvement;
* **metered drift** -- rounds or messages moving beyond a relative
  ``tolerance``.  Cells are seed-deterministic, so at the same revision
  the default tolerance of 0 means "bit-identical meters"; across
  revisions a small tolerance separates intended drift from noise-free
  regressions;
* **wall-time ratios** -- cells slower than ``TIME_RATIO`` x baseline
  are reported as warnings.  Wall time is the one nondeterministic
  field, so slowdowns never fail a comparison by themselves; the
  engine's timeout is the hard backstop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.runner.jobs import DONE, CellResult, error_headline

REGRESSION = "regression"
IMPROVEMENT = "improvement"
WARNING = "warning"
INFO = "info"

# A cell this many times slower than its baseline draws a warning.
TIME_RATIO = 4.0


@dataclass
class CellDelta:
    """One noteworthy difference between baseline and current cell."""

    severity: str              # regression / improvement / warning / info
    kind: str                  # pass-flip, rounds-drift, missing-cell, ...
    scenario: str
    algorithm: str
    size: int
    seed: int
    message: str

    def row(self) -> Tuple[str, str, str, str, int, int, str]:
        return (self.severity, self.kind, self.scenario, self.algorithm,
                self.size, self.seed, self.message)


@dataclass
class RunComparison:
    """The joined diff of two record sets."""

    baseline_id: str
    current_id: str
    cells_compared: int = 0
    deltas: List[CellDelta] = field(default_factory=list)

    @property
    def regressions(self) -> List[CellDelta]:
        return [d for d in self.deltas if d.severity == REGRESSION]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def as_dict(self) -> Dict[str, Any]:
        return {
            "baseline": self.baseline_id,
            "current": self.current_id,
            "cells_compared": self.cells_compared,
            "regressions": len(self.regressions),
            "ok": self.ok,
            "deltas": [{"severity": d.severity, "kind": d.kind,
                        "scenario": d.scenario, "algorithm": d.algorithm,
                        "size": d.size, "seed": d.seed,
                        "message": d.message}
                       for d in self.deltas],
        }


def _drift(old: float, new: float) -> float:
    """Relative change of a meter (0 when equal; old=0 handled)."""
    if old == new:
        return 0.0
    return abs(new - old) / max(abs(old), 1.0)


def compare_runs(baseline: Sequence[CellResult],
                 current: Sequence[CellResult], *,
                 baseline_id: str = "baseline",
                 current_id: str = "current",
                 tolerance: float = 0.0) -> RunComparison:
    """Join two record sets on cell keys and classify every difference."""
    comparison = RunComparison(baseline_id=baseline_id,
                               current_id=current_id)
    old_by_key = {result.key: result for result in baseline}
    new_by_key = {result.key: result for result in current}

    def delta(severity: str, kind: str, result: CellResult,
              message: str) -> None:
        spec = result.spec
        comparison.deltas.append(CellDelta(
            severity=severity, kind=kind, scenario=spec.scenario,
            algorithm=spec.algorithm, size=spec.size, seed=spec.seed,
            message=message))

    # Lost coverage is a regression: an interrupted or shrunken current
    # run must not slip through the gate just because the cells it never
    # recorded have nothing to diff.  Gained coverage is informational.
    for key in sorted(set(old_by_key) - set(new_by_key),
                      key=lambda k: old_by_key[k].spec.identity):
        delta(REGRESSION, "missing-cell", old_by_key[key],
              "cell recorded in baseline only")
    for key in sorted(set(new_by_key) - set(old_by_key),
                      key=lambda k: new_by_key[k].spec.identity):
        delta(INFO, "new-cell", new_by_key[key],
              "cell recorded in current only")

    for key in sorted(set(old_by_key) & set(new_by_key),
                      key=lambda k: new_by_key[k].spec.identity):
        old, new = old_by_key[key], new_by_key[key]
        comparison.cells_compared += 1

        if old.status != new.status:
            severity = REGRESSION if old.status == DONE else (
                IMPROVEMENT if new.status == DONE else INFO)
            detail = error_headline(new.error)
            delta(severity, "status-change", new,
                  f"status {old.status} -> {new.status}"
                  + (f" ({detail})" if detail else ""))
            continue
        if old.status != DONE:
            continue  # same non-done status on both sides: nothing to diff

        if old.passed != new.passed:
            delta(REGRESSION if old.passed else IMPROVEMENT, "pass-flip",
                  new, f"verdict {'pass' if old.passed else 'FAIL'} -> "
                       f"{'pass' if new.passed else 'FAIL'}")

        for meter in ("rounds", "messages"):
            before = old.record["metrics"].get(meter, 0)
            after = new.record["metrics"].get(meter, 0)
            drift = _drift(before, after)
            if drift > tolerance:
                delta(REGRESSION if after > before else IMPROVEMENT,
                      f"{meter}-drift", new,
                      f"{meter} {before} -> {after} "
                      f"({drift:+.1%} vs tolerance {tolerance:.1%})")

        if old.wall_time > 0 and new.wall_time > TIME_RATIO * old.wall_time:
            delta(WARNING, "wall-time", new,
                  f"wall time {old.wall_time:.3f}s -> {new.wall_time:.3f}s "
                  f"(> {TIME_RATIO:g}x baseline)")

    return comparison
