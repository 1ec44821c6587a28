"""The parallel cell executor: fan sweep cells out to worker processes.

``workers=1`` runs every cell in-process (same code path as the
differential harness, fully debuggable with pdb/print); ``workers>1``
uses a :class:`concurrent.futures.ProcessPoolExecutor` and ships each
cell as a picklable :class:`JobSpec`, rebuilding the scenario graph
inside the worker.  Because every cell is seed-deterministic, the two
modes produce identical record payloads -- pinned by
``tests/test_runner.py`` -- and results are always returned in the
submitted spec order regardless of completion order.

Per-cell timeouts are enforced *inside* the executing process with a
``SIGALRM`` interval timer, so a pathological cell is interrupted where
it runs and the pool stays healthy (no abandoned busy workers, no
pool-wide teardown).  The alarm is guarded by a POSIX capability check
(:func:`_alarm_supported`): on platforms without ``SIGALRM`` /
``setitimer`` (Windows) -- or off the main thread -- the timeout
degrades to plain no-alarm wall-time metering rather than failing.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence

from repro.runner import config
from repro.runner.jobs import DONE, ERROR, TIMEOUT, CellResult, JobSpec

OnResult = Callable[[CellResult], None]
OnStart = Callable[[JobSpec, int], None]
OnPoolCrash = Callable[[List[JobSpec], int], None]

# Set by the pool initializer in worker processes only; lets the crash
# instrumentation distinguish "kill this worker" (pool mode) from "would
# kill the whole test process" (in-process mode).
_IN_WORKER = False


def _init_worker(settings: config.SweepConfig) -> None:
    """Pool initializer: adopt the parent's sweep config.

    The config travels as an initializer argument, which works the same
    whether the pool forks or spawns its workers.
    """
    global _IN_WORKER
    _IN_WORKER = True
    config.install(settings)


def _new_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                               initargs=(config.current(),))


class CellTimeout(Exception):
    """Raised inside a worker when a cell exceeds its wall-time budget."""


def _alarm_supported() -> bool:
    """Whether the POSIX interval-timer machinery is usable here.

    ``SIGALRM``/``setitimer`` exist only on POSIX platforms (Windows'
    ``signal`` module has neither), and signal handlers can only be
    installed from the main thread.  Anywhere this is False the
    per-cell timeout degrades to unenforced wall-time metering instead
    of crashing the sweep with an AttributeError.
    """
    return (hasattr(signal, "SIGALRM") and hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread())


@contextmanager
def _cell_alarm(timeout: Optional[float]):
    """Interrupt the enclosed block after ``timeout`` seconds."""
    if not timeout or not _alarm_supported():
        yield
        return

    def _raise_timeout(signum, frame):
        raise CellTimeout()

    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def execute_cell(spec: JobSpec,
                 timeout: Optional[float] = None) -> CellResult:
    """Run one cell to a :class:`CellResult`; never raises.

    This is the function worker processes execute, so it must stay
    module-level (picklable by reference) and must convert every failure
    mode -- timeout, algorithm bug, oracle mismatch crash -- into a
    result record instead of an exception that would poison the pool.
    """
    from repro.testing.differential import run_differential

    if spec.crash:
        # Crash instrumentation for the BrokenProcessPool tests: kill
        # the executing *worker* abruptly (no cleanup, like an OOM
        # kill).  In-process there is no worker to kill -- record an
        # error instead of taking down the caller.
        if _IN_WORKER:
            os._exit(1)
        return CellResult(spec=spec, status=ERROR, wall_time=0.0,
                          error="crash instrumentation requires a "
                                "worker pool (workers > 1)")
    # Opt-in observability: a round profiler when a profiles store
    # (--profile) is configured, cProfile when --cprofile is.  With
    # neither set this block adds two cheap checks and nothing else.
    from repro.runner import profile_capture
    settings = config.current()
    profiler = None
    if settings.profile_store is not None:
        from repro.congest.profile import RoundProfiler
        profiler = RoundProfiler()
    cprofiler = None
    if settings.cprofile:
        import cProfile
        cprofiler = cProfile.Profile()

    start = time.perf_counter()
    try:
        with _cell_alarm(timeout):
            if spec.delay:
                time.sleep(spec.delay)
            if cprofiler is not None:
                cprofiler.enable()
            try:
                record = run_differential(spec.scenario, spec.algorithm,
                                          size=spec.size, seed=spec.seed,
                                          faults=spec.faults,
                                          fault_seed=spec.fault_seed,
                                          profiler=profiler)
            finally:
                if cprofiler is not None:
                    cprofiler.disable()
        payload = record.as_dict()
        if profiler is not None:
            payload["profile_source"] = profile_capture.publish_profile(
                spec, profiler.profile())
        hot = (profile_capture.hot_rows(cprofiler)
               if cprofiler is not None else None)
        return CellResult(spec=spec, status=DONE,
                          wall_time=time.perf_counter() - start,
                          record=payload, hot=hot)
    except CellTimeout:
        return CellResult(spec=spec, status=TIMEOUT,
                          wall_time=time.perf_counter() - start,
                          error=f"cell exceeded the {timeout:.3g}s "
                                f"per-cell timeout")
    except Exception:
        return CellResult(spec=spec, status=ERROR,
                          wall_time=time.perf_counter() - start,
                          error=traceback.format_exc(limit=8))


def _merge_attempts(result: CellResult,
                    previous: Optional[CellResult],
                    attempt: int) -> CellResult:
    """Stamp the attempt count and fold earlier attempts' wall time in."""
    result.attempts = attempt
    if previous is not None:
        result.wall_time += previous.wall_time
    return result


def run_cells(specs: Sequence[JobSpec], *, workers: int = 1,
              timeout: Optional[float] = None,
              retries: int = 0,
              on_result: Optional[OnResult] = None,
              on_start: Optional[OnStart] = None,
              on_pool_crash: Optional[OnPoolCrash] = None,
              backoff: float = 0.5) -> List[CellResult]:
    """Execute every spec; return results in submitted spec order.

    ``retries`` is the per-cell retry budget: a cell whose attempt ends
    in ``timeout`` or ``error`` is re-queued up to that many extra
    times before its (last) failure is recorded; the recorded result
    carries ``attempts`` and the wall time summed over all attempts.
    Only the final outcome of a cell reaches ``on_result`` and the
    store -- intermediate failures are discarded, so resume and compare
    semantics are unchanged.

    ``on_start`` fires in the submitting process as ``(spec, attempt)``
    each time an attempt is dispatched: once per cell as it is first
    submitted (attempt 1) and again on every retry re-queue -- the hook
    the telemetry plane uses for honest ``started``/``retried`` events
    in both the in-process and the pool mode.  Like ``on_result``, an
    exception from the hook aborts the sweep.

    ``on_result`` fires once per cell *as it completes* (out of order
    under ``workers>1``) -- the hook the run store uses to persist each
    record immediately, which is what makes interrupted sweeps
    resumable.  An exception from ``on_result`` aborts the sweep:
    queued cells are cancelled, in-flight cells are abandoned, and
    everything already persisted stays persisted.

    ``execute_cell`` never raises, so a future that raises signals pool
    infrastructure failure.  A worker process dying abruptly (OOM kill,
    segfault, ``os._exit``) breaks the whole
    :class:`ProcessPoolExecutor`; instead of aborting the sweep, the
    executor **rebuilds the pool** (with exponential ``backoff``) and
    re-runs the cells that were in flight *one at a time*, so a repeat
    crash is attributable to the single cell that was executing.  A
    cell that kills its worker while running solo collects a strike;
    after ``retries + 1`` strikes it is recorded as a **poisoned**
    ``error`` result -- fed to ``on_result`` and persisted, so the run
    completes and a resumed run skips the cell instead of re-killing
    the pool.  ``on_pool_crash`` (if given) fires after each rebuild
    with the specs that were in flight and the total rebuild count.

    Future exceptions *other* than ``BrokenProcessPool`` (e.g. a result
    that fails to unpickle) keep the old semantics: the cell comes back
    as a ``status=error`` result but is *not* fed to ``on_result``
    (persisting it would stop resume from retrying a cell that may
    never have run) and is not retried.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if workers == 1:
        results = []
        for spec in specs:
            if on_start is not None:
                on_start(spec, 1)
            result = execute_cell(spec, timeout)
            attempt = 1
            while result.status != DONE and attempt <= retries:
                attempt += 1
                if on_start is not None:
                    on_start(spec, attempt)
                result = _merge_attempts(execute_cell(spec, timeout),
                                         result, attempt)
            if on_result is not None:
                on_result(result)
            results.append(result)
        return results

    slots: List[Optional[CellResult]] = [None] * len(specs)
    attempts = [1] * len(specs)
    previous: List[Optional[CellResult]] = [None] * len(specs)
    strikes = [0] * len(specs)         # solo worker kills per cell
    queue = deque(range(len(specs)))   # not yet dispatched
    isolation: deque = deque()         # re-run solo after a pool crash
    # Bounded dispatch window (instead of submitting the whole sweep up
    # front) so a pool crash only takes a handful of in-flight cells
    # with it -- the rest of the queue is untouched by the rebuild.
    window = workers * 2
    pending = {}
    rebuilds = 0
    pool = _new_pool(workers)

    def dispatch(index: int) -> None:
        if on_start is not None:
            on_start(specs[index], attempts[index])
        pending[pool.submit(execute_cell, specs[index], timeout)] = index

    def rebuild_pool() -> None:
        nonlocal pool, rebuilds
        rebuilds += 1
        pool.shutdown(wait=False, cancel_futures=True)
        time.sleep(min(backoff * (2 ** (rebuilds - 1)), 2.0))
        pool = _new_pool(workers)

    def handle_result(index: int, result: CellResult) -> None:
        result = _merge_attempts(result, previous[index], attempts[index])
        if result.status != DONE and attempts[index] <= retries:
            # Re-queue the failed cell; only its final outcome is
            # recorded.  (Back through the normal queue -- failure via
            # a result is not a pool hazard.)
            attempts[index] += 1
            previous[index] = result
            queue.append(index)
            return
        slots[index] = result
        if on_result is not None:
            on_result(result)

    try:
        while queue or isolation or pending:
            if isolation:
                # Isolation phase: exactly one cell in flight, so if
                # the pool breaks again the strike is attributable.
                if not pending:
                    dispatch(isolation.popleft())
            else:
                while queue and len(pending) < window:
                    dispatch(queue.popleft())
            in_flight = list(pending.values())
            finished, _ = wait(pending, return_when=FIRST_COMPLETED)
            crashed: List[int] = []
            for future in finished:
                index = pending.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    crashed.append(index)
                    continue
                except Exception:
                    slots[index] = CellResult(
                        spec=specs[index], status=ERROR, wall_time=0.0,
                        error=traceback.format_exc(limit=4),
                        attempts=attempts[index])
                    continue
                handle_result(index, result)
            if not crashed:
                continue
            # A worker died and broke the pool.  Every other in-flight
            # future is dead too; collect them all, rebuild the pool,
            # and re-run the casualties solo.
            for future, index in list(pending.items()):
                crashed.append(index)
            pending.clear()
            rebuild_pool()
            if on_pool_crash is not None:
                on_pool_crash([specs[i] for i in crashed], rebuilds)
            solo = len(in_flight) == 1
            for index in sorted(crashed):
                if solo:
                    strikes[index] += 1
                if strikes[index] > retries:
                    result = CellResult(
                        spec=specs[index], status=ERROR,
                        wall_time=(previous[index].wall_time
                                   if previous[index] else 0.0),
                        error=(f"worker process died while executing this "
                               f"cell ({strikes[index]} solo attempt(s)); "
                               f"cell poisoned -- resumed runs will skip "
                               f"it"),
                        attempts=attempts[index], poisoned=True)
                    slots[index] = result
                    if on_result is not None:
                        on_result(result)
                else:
                    attempts[index] += 1
                    isolation.append(index)
    except BaseException:
        # on_result raised (or Ctrl-C): don't grind through the queue.
        for future in pending:
            future.cancel()
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return [result for result in slots if result is not None]
