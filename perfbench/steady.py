"""Steadiness check: run one workload k times back to back, one seed each.

    python3 perfbench/steady.py --workload apsp-n128 --runs 10 [--first-seed 0]

Each run is ``perfbench/run.py`` in a fresh process with the next seed,
the run length from ``BENCHMARK.json``, and tracing off.  For every
end-to-end metric it prints the per-run values, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), and the
spread -- the quartile distance as a share of the median -- against the
metric's bound.  A spread above its bound fails the check (exit 1),
except for ``setup_s``, whose bound only limits how far its median may
move; above a third of the bound is reported as "noisy".
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed (seed {seed}, exit {proc.returncode}):"
                         f"\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect result (seed {seed}):\n{proc.stdout}")
    return result["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for index in range(args.runs):
        seed = args.first_seed + index
        runs.append(run_once(args.workload, seed, spec["run_seconds"]))
        print(f"seed {seed}: " + ", ".join(
            f"{name} {metric['value']:.4f}"
            for name, metric in runs[-1].items()), flush=True)

    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [run[name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        if name != "setup_s" and spread > bound:
            verdict, ok = "TOO NOISY", False
        elif spread > bound / 3:
            verdict = "noisy (above a third of the bound)"
        else:
            verdict = "steady"
        print(f"{args.workload} {name} [{metric['unit']}]: median "
              f"{median:.4f}, q1 {q1:.4f}, q3 {q3:.4f}, spread "
              f"{spread:.3f} vs bound {bound} -> {verdict}")
        print("  values: " + " ".join(f"{v:.4f}" for v in values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
