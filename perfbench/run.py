"""End-to-end sweep benchmark: one workload, timed passes, checked outputs.

    python3 perfbench/run.py --workload matrix-cold --seed 0 --seconds 20 \
        --trace 0

Run from the root of a checkout.  A pass is one complete sweep of the
workload's cells through ``repro.runner.engine.run_sweep``, the path
``repro sweep`` takes (workers=1, default engine, run store, telemetry
and bench-history writes), starting from empty in-process caches.  The
run sets up the workload's artifact store, makes one untimed warm-up
pass, then a fixed number of timed passes, and checks every cell of
every pass: its verdict must pass and its canonical record must equal
the warm-up pass's.

``--trace 0`` prints the end-to-end metrics (``sweep_s``, ``setup_s``,
``peak_rss_mb``); the times are in reference-host seconds (see
PROBE_REF_S), with the raw wall times printed beside them.  ``--trace 1`` is a separate run that alternates traced
and untraced passes and prints the per-layer table of ``layers.py``.
The last line of stdout is one JSON object; the exit code is 1 when any
cell failed or a wrapper read zero where it must fire.
"""

import time

_START = time.perf_counter()  # setup_s counts from here, before any import

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, populate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
# Handed to run_sweep so no pass spawns the `git rev-parse` / `git diff`
# subprocesses that git_revision() would otherwise run per sweep.
REVISION = "perfbench"
SETUP_REPEATS = 3   # store populates per run (setup_s takes the median)
IMPORT_REPEATS = 5  # import timings per run, in fresh interpreters
# The shared host's speed drifts by up to 2x over tens of seconds (other
# tenants come and go), which no number of passes averages out.  So the
# host is probed -- a fixed interpreter-bound loop, timed -- just before
# and just after every timed step, and between its cells at least every
# PROBE_EVERY_S (probe time is taken out of the step); a probe repeats
# the loop for PROBE_SHARE of the stretch before it and takes the median.
# Each stretch between two probes is reported in reference-host seconds:
# its wall time scaled by PROBE_REF_S over the mean of the two probes.
# PROBE_REF_S is the probe's time on a quiet 2-vCPU x86-64 VM, so figures
# read close to wall time on a quiet host.
PROBE_REF_S = 0.020
PROBE_EVERY_S = 0.25
PROBE_SHARE = 0.05
# The import part of setup is timed in fresh interpreters: in-process
# imports happen once, before any probe can bracket them.
IMPORT_PROBE = """
import time
start = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import repro.runner.engine, repro.testing.differential
print(time.perf_counter() - start)
"""

# One load-generating process on a 2-core box: keep BLAS/OpenMP to one
# thread each, and let no ambient REPRO_* knob (kernels, profiling,
# store dirs, cache sizes) change what the program does.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _clear_repro_env() -> None:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def _fsync_on_tmpfs(fd: int) -> None:
    """``os.fsync`` as on tmpfs, where it returns at once.

    The stores and run dirs must stay inside the checkout, so they cannot
    sit on tmpfs; the latency of the shared disk under them is not the
    program's cost.  The traced run still counts every call.
    """


def _canonical_digests(outcome) -> dict:
    digests = {}
    for result in outcome.results:
        record = result.canonical_record()
        digests[result.key] = (None if record is None else hashlib.sha256(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            .encode("utf-8")).hexdigest())
    return digests


class Sweeper:
    """Runs the passes of one workload and checks every cell of each."""

    def __init__(self, workload, cells, work: Path, store_root: Path):
        self.workload = workload
        self.cells = cells
        self.work = work
        self.store_root = store_root
        self.reference = None       # per-cell digests of the warm-up pass
        self.sources = None         # provenance counts of the warm-up pass
        self.attempted = 0
        self.failed = 0
        self.quarantined = 0
        self.kernel_cells = 0
        self.problems = []

    def reset(self) -> None:
        """Leave no in-process state from the previous pass."""
        from repro.runner import decomposition_cache, graph_cache, \
            oracle_cache

        _clear_repro_env()
        for chain in (graph_cache, oracle_cache, decomposition_cache):
            chain.clear()
            chain.configure_store(None)

    def sweep(self, index: int, clock) -> tuple:
        """One complete pass, timed by ``clock``; returns clock.times()."""
        from repro.runner import engine
        from repro.runner.store import RunStore
        from repro.store.artifacts import ArtifactStore

        pass_dir = self.work / f"pass-{index}"
        store = (pass_dir / "store") if self.workload.cold else self.store_root
        self.reset()
        gc.collect()
        outcome = clock.measure(lambda between_cells: engine.run_sweep(
            specs=self.cells, store=RunStore(pass_dir / "runs"),
            revision=REVISION, fresh=True,
            graph_store_dir=str(store), oracle_store_dir=str(store),
            decomposition_store_dir=str(store),
            bench_history_dir=str(pass_dir / "history"),
            on_result=between_cells))
        self.check(index, outcome)
        self.quarantined += sum(ArtifactStore(store).quarantined_counts()
                                .values())
        shutil.rmtree(pass_dir)
        return clock.times()

    def check(self, index: int, outcome) -> None:
        digests = _canonical_digests(outcome)
        summary = outcome.summary()
        sources = {key: summary[key] for key in
                   ("executed", "graph_sources", "oracle_sources",
                    "decomposition_sources")}
        if self.reference is None:
            self.reference, self.sources = digests, sources
        elif sources != self.sources:
            self.problems.append(f"pass {index}: provenance {sources} differs "
                                 f"from the warm-up pass {self.sources}")
        self.attempted += len(self.cells)
        done = {result.key: result for result in outcome.results}
        for spec in self.cells:
            result = done.get(spec.key)
            if (result is None or not result.passed
                    or digests.get(spec.key) is None
                    or digests[spec.key] != self.reference.get(spec.key)):
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(
                        f"pass {index}: cell {spec.identity} failed "
                        f"({'missing' if result is None else result.status})")
            elif str(result.record.get("engine_source", "")).startswith(
                    "kernel"):
                self.kernel_cells += 1

    def digest(self) -> str:
        payload = json.dumps(sorted(self.reference.items()))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _samples(label: str, values) -> None:
    q1, q3 = _quartiles(values)
    print(f"  {label}: median {statistics.median(values):.4f} s over "
          f"{len(values)} samples (q1 {q1:.4f}, q3 {q3:.4f}): "
          + " ".join(f"{v:.4f}" for v in values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}; run "
              f"from the root of a repro checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    _clear_repro_env()
    import repro.runner.engine  # noqa: F401
    import repro.testing.differential  # noqa: F401
    import_s = time.perf_counter() - _START
    os.fsync = _fsync_on_tmpfs

    cells = workload.cells(args.seed)
    passes = workload.passes(args.seconds)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        if args.trace:
            return _traced(workload, cells, passes, work, args.seed)
        return _timed(workload, cells, passes, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _populate(cells, work: Path, clock) -> tuple:
    """Populate a fresh ``work/store``, timed by ``clock``."""
    store_root = work / "store"
    shutil.rmtree(store_root, ignore_errors=True)
    gc.collect()
    clock.measure(lambda between_cells: populate(str(store_root), cells,
                                                 between_cells))
    return clock.times()


class _Node:
    __slots__ = ("id", "neighbours", "inbox", "seen")

    def __init__(self, ident: int) -> None:
        self.id = ident
        self.neighbours = []
        self.inbox = []
        self.seen = {}


def _probe_graph(nodes: int = 1500, degree: int = 8) -> list:
    """A fixed random graph of plain objects for :func:`_probe`."""
    rng = random.Random(0)
    graph = [_Node(ident) for ident in range(nodes)]
    for node in graph:
        node.neighbours = [graph[rng.randrange(nodes)] for _ in range(degree)]
    return graph


def _probe(graph: list) -> float:
    """One host probe: eight rounds of message passing over ``graph``, timed.

    The loop has the simulator's shape -- object attribute access, list
    appends and dict stores over a working set of about 1 MB -- so the
    host slows it the way it slows a pass.
    """
    start = time.perf_counter()
    for round_ in range(8):
        for node in graph:
            for neighbour in node.neighbours:
                neighbour.inbox.append((node.id, round_))
        for node in graph:
            seen = node.seen
            for source, sent in node.inbox:
                seen[source] = sent
            node.inbox.clear()
    return time.perf_counter() - start


class WallClock:
    """Times a step by the wall clock alone (the traced run's passes)."""

    def measure(self, step):
        """Run ``step(between_cells)``; return what it returns."""
        start = time.perf_counter()
        result = step(None)
        self.wall = time.perf_counter() - start
        return result

    def times(self) -> tuple:
        return self.wall, self.wall


class HostMeter:
    """Times steps in wall and reference-host seconds; see PROBE_REF_S."""

    def __init__(self) -> None:
        self.graph = _probe_graph()
        self.probe = _probe(self.graph)  # the latest, reused across steps
        self.wall = self.ref = self.start = self.due = 0.0

    def measure(self, step):
        """Run ``step(between_cells)``; return what it returns."""
        self.wall = self.ref = 0.0
        self.start = time.perf_counter()
        self.due = self.start + PROBE_EVERY_S
        result = step(self.between_cells)
        self._stretch(time.perf_counter())
        return result

    def times(self) -> tuple:
        """(wall s, reference-host s) of the last step, probes excluded."""
        return self.wall, self.ref

    def between_cells(self, *_) -> None:
        now = time.perf_counter()
        if now >= self.due:
            self._stretch(now)
            self.start = time.perf_counter()
            self.due = self.start + PROBE_EVERY_S

    def _stretch(self, now: float) -> None:
        wall = now - self.start
        samples = [_probe(self.graph)]
        end = time.perf_counter() + PROBE_SHARE * wall
        while time.perf_counter() < end:
            samples.append(_probe(self.graph))
        probe = statistics.median(samples)
        self.wall += wall
        self.ref += wall * 2 * PROBE_REF_S / (self.probe + probe)
        self.probe = probe


def _import_time() -> float:
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    return float(probe.stdout.strip().splitlines()[-1])


def _timed(workload, cells, passes, work, import_s) -> int:
    meter = HostMeter()
    imports, imports_ref = [], []
    for _ in range(IMPORT_REPEATS):
        # The child reports its own import time; the meter's two probes
        # around it give the host speed it ran at.
        child = meter.measure(lambda between_cells: _import_time())
        wall, ref = meter.times()
        imports.append(child)
        imports_ref.append(child * ref / wall)
    populates = [] if workload.cold else [
        _populate(cells, work, meter) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(imports_ref) + (
        statistics.median(ref for _, ref in populates) if populates else 0.0)
    sweeper = Sweeper(workload, cells, work, work / "store")
    sweeper.sweep(0, WallClock())
    timed = [sweeper.sweep(index, meter) for index in range(1, passes + 1)]
    walls = [wall for wall, _ in timed]
    scaled = [ref for _, ref in timed]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sweep_s = statistics.median(scaled)

    print(f"workload {workload.name}: {len(cells)} cells per pass, "
          f"{passes} timed passes after 1 warm-up pass")
    print(f"  canonical record digest sha256:{sweeper.digest()}")
    print(f"  imports in this process: {import_s:.4f} s wall")
    _samples("imports in fresh interpreters, wall", imports)
    _samples("imports in fresh interpreters, reference-host", imports_ref)
    if populates:
        _samples("store populate (setup), wall",
                 [wall for wall, _ in populates])
        _samples("store populate (setup), reference-host",
                 [ref for _, ref in populates])
    _samples("sweep pass, wall", walls)
    _samples("sweep pass, reference-host", scaled)
    print(f"  sweep_s {sweep_s:.4f} s  setup_s {setup_s:.4f} s "
          f"(reference-host)  peak_rss_mb {peak_rss_mb:.1f} MB")
    return _finish(sweeper, {
        "sweep_s": {"value": sweep_s, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    })


def _traced(workload, cells, passes, work, seed) -> int:
    from layers import LAYERS, Tracer, rollup, zero_wrappers

    tracer = Tracer()
    tracer.install()
    tracer.phase = "setup"
    try:
        if not workload.cold:
            _populate(cells, work, WallClock())
    finally:
        tracer.uninstall()
    sweeper = Sweeper(workload, cells, work, work / "store")
    clock = WallClock()
    warmup, _ = sweeper.sweep(0, clock)
    traced, untraced, phases = [], [], []
    for index in range(1, passes + 1):
        if index % 2:
            tracer.phase = f"pass-{index}"
            phases.append(tracer.phase)
            tracer.install()
            try:
                traced.append(sweeper.sweep(index, clock)[0])
            finally:
                tracer.uninstall()
        else:
            untraced.append(sweeper.sweep(index, clock)[0])
    untraced_s = statistics.median(untraced)
    value, rows = rollup(
        tracer, phases, traced, quarantined=sweeper.quarantined,
        kernel_cells=sweeper.kernel_cells, cells_run=sweeper.attempted,
        warmup_excess=warmup - untraced_s,
        overhead_ratio=statistics.median(traced) / untraced_s)
    tracer.write(str(WORK_ROOT / f"trace-{workload.name}.jsonl"))

    print(f"workload {workload.name} (traced): {len(cells)} cells per pass, "
          f"{len(traced)} traced + {len(untraced)} untraced passes after "
          f"1 untraced warm-up pass; seed {seed}")
    print(f"  canonical record digest sha256:{sweeper.digest()}")
    _samples("traced pass", traced)
    _samples("untraced pass", untraced)
    print("  every figure = setup + median traced pass; share = per-pass "
          "part over the median traced pass")
    header = ["metric", "unit", "setup", "per pass", "value", "share",
              "base"]
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    for label, names in (
            ("route_packets + simulate_bcongest",
             ("primitives.route_packets", "core.bcongest")),
            ("store.open + the three cache resolves",
             ("store.open", "graph_cache.resolve", "oracle_cache.resolve",
              "decomposition_cache.resolve"))):
        shares = [tracer.covered(phase, names) / t
                  for phase, t in zip(phases, traced)]
        print(f"  share of a traced pass inside {label}: "
              f"{statistics.median(shares):.1%}")

    zeros = zero_wrappers(workload.name, value)
    for name in zeros:
        sweeper.problems.append(f"wrapper for {name} read zero on "
                                f"{workload.name}: patched at the wrong "
                                f"import site, or the entry point moved")
    return _finish(sweeper, {layer.name: {"value": value[layer.name],
                                          "unit": layer.unit}
                             for layer in LAYERS})


def _finish(sweeper, metrics) -> int:
    print(f"  cells attempted {sweeper.attempted}, failed {sweeper.failed}, "
          f"quarantined store entries {sweeper.quarantined}")
    for problem in sweeper.problems:
        print(f"  FAIL {problem}")
    correct = (sweeper.failed == 0 and not sweeper.problems
               and sweeper.quarantined == 0)
    print(json.dumps({"correct": correct, "attempted": sweeper.attempted,
                      "failed": sweeper.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
