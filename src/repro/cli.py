"""Command-line interface: run the paper's algorithms on generated graphs.

Examples
--------
::

    python -m repro.cli apsp --n 24 --p 0.5 --weighted
    python -m repro.cli tradeoff --n 28 --eps 0 0.5 1.0
    python -m repro.cli matching --left 8 --right 9
    python -m repro.cli cover --n 32 --k 2 --w 2
    python -m repro.cli decompose --n 48 --eps 0.5
    python -m repro.cli scenarios list
    python -m repro.cli scenarios run dense-gnp --json
    python -m repro.cli scenarios sweep --sizes 16 24 --json
    python -m repro.cli sweep --workers 4                 # persisted + resumable
    python -m repro.cli sweep --workers 4 --retries 2     # re-queue failed cells
    python -m repro.cli sweep --no-store                  # skip the artifact store
    python -m repro.cli sweep --list-runs
    python -m repro.cli sweep --compare <run-id> --against <run-id>
    python -m repro.cli store ls --family oracles         # cached baselines
    python -m repro.cli store warm --names dense-gnp      # graphs + baselines
    python -m repro.cli store warm --family decompositions  # pipeline inputs
    python -m repro.cli store gc --keep-last 50 --family graphs
    python -m repro.cli bench oracle-store                # BENCH_oracle_store.json
    python -m repro.cli bench decomposition-pipeline --smoke
    python -m repro.cli runs report <run-id>              # telemetry timeline
    python -m repro.cli runs watch <run-id>               # live sweep progress
    python -m repro.cli sweep --profile --cprofile        # round profiles + hot fns
    python -m repro.cli bench kernels --smoke             # kernel speedup gate
    python -m repro.cli profile ls                        # stored round profiles
    python -m repro.cli profile show complete apsp-tradeoff --size 16
    python -m repro.cli profile diff complete apsp-tradeoff --size 16 \
        --against-size 24                                 # compare two cells

Each command prints the exact result summary plus the measured message
and round costs; everything runs on the literal CONGEST simulator.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

from repro.analysis import format_table
from repro.baselines.apsp_direct import (
    apsp_direct_unweighted,
    apsp_direct_weighted,
)
from repro.baselines.oracles import ORACLES
from repro.baselines.reference import maximum_matching_size
from repro.core import (
    apsp_tradeoff,
    maximum_matching,
    neighborhood_cover_direct,
    weighted_apsp,
)
from repro.decomposition import (
    build_pruned_hierarchy,
    max_proper_subtree,
    verify_hierarchy,
)
from repro.graphs import gnp, random_bipartite, uniform_weights


def _cmd_apsp(args: argparse.Namespace) -> int:
    g = gnp(args.n, args.p, seed=args.seed)
    if args.weighted:
        g = uniform_weights(g, w_max=args.w_max, seed=args.seed)
        result = weighted_apsp(g, seed=args.seed)
        direct = apsp_direct_weighted(g, seed=args.seed)
        exact = result.dist == ORACLES["weighted-apsp"].compute(
            g, args.seed)
    else:
        result = apsp_tradeoff(g, 0.0, seed=args.seed)
        direct = apsp_direct_unweighted(g, seed=args.seed)
        exact = result.dist == ORACLES["unweighted-apsp"].compute(
            g, args.seed)
    rows = [
        ("message-optimal (paper)", result.metrics.messages,
         result.metrics.rounds),
        ("round-optimal baseline", direct.metrics.messages,
         direct.metrics.rounds),
    ]
    print(f"{g.name}: n={g.n} m={g.m}  exact={exact}")
    print(format_table(["algorithm", "messages", "rounds"], rows))
    return 0 if exact else 1


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    g = gnp(args.n, args.p, seed=args.seed)
    ref = ORACLES["unweighted-apsp"].compute(g, args.seed)
    rows = []
    ok = True
    for eps in args.eps:
        result = apsp_tradeoff(g, eps, seed=args.seed)
        exact = result.dist == ref
        ok = ok and exact
        rows.append((eps, result.regime, result.metrics.messages,
                     result.metrics.rounds, exact))
    print(f"{g.name}: n={g.n} m={g.m}")
    print(format_table(["eps", "regime", "messages", "rounds", "exact"],
                       rows))
    return 0 if ok else 1


def _cmd_matching(args: argparse.Namespace) -> int:
    g = random_bipartite(args.left, args.right, args.p, seed=args.seed)
    result = maximum_matching(g, seed=args.seed)
    optimal = maximum_matching_size(g)
    print(f"{g.name}: matching size {result.size} (optimal {optimal})")
    print(f"messages={result.metrics.messages} "
          f"rounds={result.metrics.rounds} s_bound={result.s_bound}")
    for u, v in sorted(result.matching):
        print(f"  {u} -- {v}")
    return 0 if result.size == optimal else 1


def _cmd_cover(args: argparse.Namespace) -> int:
    g = gnp(args.n, args.p, seed=args.seed)
    result = neighborhood_cover_direct(g, args.k, args.w, seed=args.seed)
    stats = result.cover.verify(g)
    print(f"{g.name}: ({args.k}, {args.w})-cover")
    print(format_table(["property", "value"], sorted(stats.items())))
    print(f"messages={result.metrics.messages} "
          f"broadcasts={result.metrics.broadcasts}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = gnp(args.n, args.p, seed=args.seed)
    h = build_pruned_hierarchy(g, args.eps, seed=args.seed)
    stats = verify_hierarchy(g, h)
    stats["max_proper_subtree"] = max_proper_subtree(g, h)
    print(f"{g.name}: pruned Baswana-Sen hierarchy, eps={args.eps} "
          f"(kappa={h.kappa})")
    print(format_table(["property", "value"], sorted(stats.items())))
    return 0


def _scenario_rows(records) -> List[tuple]:
    return [(r.scenario, r.algorithm, r.n, r.m,
             r.metrics["rounds"], r.metrics["messages"],
             "pass" if r.passed else "FAIL")
            for r in records]


_SCENARIO_HEADERS = ["scenario", "algorithm", "n", "m", "rounds",
                     "messages", "verdict"]


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import all_scenarios
    from repro.testing import run_scenario, summarize, sweep

    if args.action == "list":
        scenarios = all_scenarios()
        if args.json:
            print(json.dumps([s.as_dict() for s in scenarios], indent=2))
        else:
            rows = [(s.name, s.regime, ",".join(s.algorithms),
                     s.default_size, "/".join(str(x) for x in s.sizes))
                    for s in scenarios]
            print(format_table(
                ["name", "regime", "algorithms", "tier1-n", "sweep"], rows))
            print(f"\n{len(scenarios)} scenarios")
        return 0

    try:
        if args.action == "run":
            records = run_scenario(args.name, size=args.size,
                                   algorithm=args.algorithm, seed=args.seed)
        else:  # sweep
            records = sweep(args.names, sizes=args.sizes, seed=args.seed,
                            workers=args.workers, timeout=args.timeout)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # A timed-out or crashed cell: operational failure, not usage.
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps([r.as_dict() for r in records], indent=2))
    else:
        print(format_table(_SCENARIO_HEADERS, _scenario_rows(records)))
        stats = summarize(records)
        print(f"\n{stats['passed']}/{stats['cells']} cells passed")
        for failure in stats["failures"]:
            print(f"  FAIL {failure}")
    return 0 if all(r.passed for r in records) else 1


def _print_comparison(comparison) -> None:
    print(f"compare {comparison.baseline_id} -> {comparison.current_id}: "
          f"{comparison.cells_compared} cells, "
          f"{len(comparison.regressions)} regression(s)")
    if comparison.deltas:
        print(format_table(
            ["severity", "kind", "scenario", "algorithm", "size", "seed",
             "detail"],
            [d.row() for d in comparison.deltas]))
    else:
        print("no differences")


def _cmd_sweep(args: argparse.Namespace) -> int:
    """The runner-backed sweep: persist / resume / list / compare."""
    from repro.runner import RunStore, compare_runs, config, run_sweep
    from repro.runner.chain import all_chains
    from repro.testing import summarize
    from repro.testing.differential import PROVENANCE_FIELDS

    store = RunStore(args.runs_dir)

    if args.list_runs:
        rows = [(run.run_id, run.revision,
                 len(run.completed_keys()), len(run.planned_keys),
                 "complete" if run.is_complete() else "incomplete")
                for run in store.list_runs()]
        if args.json:
            print(json.dumps(
                [{"run": run_id, "revision": revision, "recorded": done,
                  "planned": planned, "state": state}
                 for run_id, revision, done, planned, state in rows],
                indent=2))
        else:
            print(format_table(
                ["run", "revision", "recorded", "planned", "state"], rows))
        return 0

    if args.against is not None and args.compare is None:
        print("error: --against requires --compare (diff two stored runs "
              "without executing anything)", file=sys.stderr)
        return 2

    try:
        # Resolve the baseline up front: a typo'd run id must fail fast,
        # not after a full sweep has executed.
        baseline = (store.open_run(args.compare)
                    if args.compare is not None else None)

        if baseline is not None and args.against is not None:
            # Pure diff of two stored runs, no execution.
            current = store.open_run(args.against)
            comparison = compare_runs(
                baseline.load_results(), current.load_results(),
                baseline_id=baseline.run_id, current_id=current.run_id,
                tolerance=args.tolerance)
            if args.json:
                print(json.dumps(comparison.as_dict(), indent=2))
            else:
                _print_comparison(comparison)
            return 0 if comparison.ok else 1

        # One store root serves every family (--no-store disconnects
        # them all), and every LRU has its default size.  The flags
        # decide every chain, store and profiling setting, so nothing
        # configured earlier in this process leaks in.
        store_dir = (args.store_dir if args.store_dir is not None
                     else str(pathlib.Path(args.runs_dir) / "store"))
        defaults = config.SweepConfig()
        settings = {"profile_store": store_dir if args.profile else None,
                    "cprofile": bool(args.cprofile)}
        for chain in all_chains().values():
            settings[chain.store_field] = store_dir if args.store else None
            settings[chain.size_field] = getattr(defaults, chain.size_field)
        config.update(**settings)
        outcome = run_sweep(args.names, sizes=args.sizes, seeds=args.seeds,
                            workers=args.workers, timeout=args.timeout,
                            retries=args.retries, store=store,
                            fresh=args.fresh,
                            faults=args.faults,
                            fault_seed=args.fault_seed)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2

    exit_code = 0 if outcome.ok else 1
    comparison = None
    if baseline is not None:
        comparison = compare_runs(
            baseline.load_results(), outcome.run.load_results(),
            baseline_id=baseline.run_id, current_id=outcome.run_id,
            tolerance=args.tolerance)
        if not comparison.ok:
            exit_code = 1

    summary = outcome.summary()
    records = outcome.records
    if args.json:
        payload = {"summary": summary,
                   "cells": [r.as_dict() for r in outcome.results]}
        if comparison is not None:
            payload["comparison"] = comparison.as_dict()
        print(json.dumps(payload, indent=2))
    else:
        print(format_table(_SCENARIO_HEADERS, _scenario_rows(records)))
        verb = "resumed" if outcome.resumed else "recorded"
        print(f"\nrun {outcome.run_id} ({verb}): "
              f"{summary['passed']}/{summary['cells']} cells passed, "
              f"{summary['executed']} executed, "
              f"{summary['skipped']} restored from the store, "
              f"{summary['wall_time']:.2f}s of cell wall time")
        chains = all_chains()
        root_shown = False
        for field, family in PROVENANCE_FIELDS.items():
            counts = summary.get(f"{field}s")
            if not counts:
                continue
            setting = field[:-len("_source")]
            line = f"{setting} sources: " + ", ".join(
                f"{count} {source}"
                for source, count in sorted(counts.items()))
            chain = chains.get(family)
            if chain is not None:
                root = settings[chain.store_field]
                if root is None:
                    line += f" ({setting} store off)"
                elif not root_shown:  # the one root, on the first line
                    line += f" (store: {root})"
                    root_shown = True
            print(line)
        fault_counters = summary.get("fault_counters")
        if fault_counters:
            verdicts = fault_counters.get("verdicts") or {}
            meters = fault_counters.get("meters") or {}
            parts = [f"{verdicts[v]} {v}" for v in sorted(verdicts)]
            if meters:
                parts.append(", ".join(
                    f"{meters[m]} {m.replace('_', ' ')}"
                    for m in sorted(meters)))
            print("fault injection: " + "; ".join(parts))
        if summary.get("poisoned"):
            print(f"poisoned cells: {summary['poisoned']} (worker died "
                  f"repeatedly; resumed runs skip them)")
        if args.profile:
            profiled = sum(
                1 for r in outcome.results
                if r.record is not None
                and r.record.get("profile_source", "none") != "none")
            print(f"round profiles: {profiled} cell(s) captured under "
                  f"{settings['profile_store']} "
                  f"(inspect with `repro profile ls/show/diff`)")
        if args.cprofile:
            hot_cells = sum(1 for r in outcome.results if r.hot)
            print(f"cProfile: hot functions recorded for {hot_cells} "
                  f"cell(s) (aggregate with `repro runs report "
                  f"{outcome.run_id}`)")
        stats = summarize(records)
        for failure in stats["failures"]:
            print(f"  FAIL {failure}")
        from repro.runner.jobs import error_headline
        for result in outcome.results:
            if result.record is None:
                print(f"  {result.status.upper()} {result.spec.identity}: "
                      f"{error_headline(result.error) or '(no detail)'}")
        if comparison is not None:
            print()
            _print_comparison(comparison)
    return exit_code


def _parse_bytes(text: str) -> int:
    """'67108864', '64M', '2G', '512K' -> bytes (case-insensitive)."""
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    text = text.strip().lower()
    factor = units.get(text[-1:], None)
    if factor is not None:
        text = text[:-1]
    try:
        value = int(float(text) * (factor or 1))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a byte size: {text!r} (use an integer, optionally "
            f"suffixed K/M/G)") from None
    if value < 0:
        raise argparse.ArgumentTypeError("byte size must be >= 0")
    return value


def _entry_detail(entry) -> str:
    """One compact human-readable column per artifact family."""
    if entry.kind == "graphs":
        meta = entry.manifest.get("graph", {})
        weighted = " weighted" if meta.get("weighted") else ""
        return f"n={meta.get('n', '?')} m={meta.get('m', '?')}{weighted}"
    if entry.kind == "oracles":
        identity = entry.identity
        return (f"{identity.get('oracle', '?')} "
                f"@{str(identity.get('revision', '?'))[:6]}")
    if entry.kind == "decompositions":
        meta = entry.manifest.get("decomposition", {})
        return (f"{entry.identity.get('algorithm', '?')} "
                f"clusters={meta.get('clusters', '?')}")
    if entry.kind == "profiles":
        meta = entry.manifest.get("profile", {})
        faults = entry.identity.get("faults") or ""
        return (f"{entry.identity.get('algorithm', '?')} "
                f"rounds={meta.get('rows', '?')}"
                + (f" faults={faults}" if faults else "")
                + f" @{str(entry.identity.get('revision', '?'))[:6]}")
    return ""


def _cmd_store(args: argparse.Namespace) -> int:
    """The artifact store: ls / stat / gc / warm, per-family aware."""
    from repro.store import DEFAULT_STORE_DIR, ArtifactStore, family_names

    root = (args.store_dir if args.store_dir is not None
            else DEFAULT_STORE_DIR)
    store = ArtifactStore(root)
    family = getattr(args, "family", None)
    if family is not None and args.action != "warm" \
            and family not in family_names():
        print(f"error: unknown artifact family {family!r}; known: "
              f"{', '.join(family_names())}", file=sys.stderr)
        return 2

    if args.action == "ls":
        entries = store.ls(family)
        if args.json:
            print(json.dumps(
                [{"key": e.key, "family": e.kind, **e.identity,
                  **e.manifest.get("graph", {}),
                  "bytes": e.nbytes, "created_at": e.created_at}
                 for e in entries], indent=2))
            return 0
        rows = [(e.key[:12], e.kind,
                 e.identity.get("scenario", "?"),
                 e.identity.get("size", "?"),
                 e.identity.get("derived_seed", "?"),
                 _entry_detail(e),
                 e.nbytes)
                for e in entries]
        print(format_table(
            ["key", "family", "scenario", "size", "derived-seed",
             "detail", "bytes"], rows))
        scope = f" [{family}]" if family else ""
        print(f"\n{len(entries)} artifact(s){scope} under {store.root}")
        return 0

    if args.action == "stat":
        stats = store.stat(family)
        if args.json:
            print(json.dumps(stats, indent=2))
        else:
            print(f"store root : {stats['root']}")
            print(f"entries    : {stats['entries']}")
            print(f"bytes      : {stats['bytes']}")
            if stats.get("quarantined"):
                print(f"quarantined: {stats['quarantined']} corrupt "
                      f"entr{'y' if stats['quarantined'] == 1 else 'ies'} "
                      f"held for inspection (gc drains them)")
            for kind, bucket in sorted(stats["families"].items()):
                line = (f"  {kind}: {bucket['entries']} entries, "
                        f"{bucket['bytes']} bytes")
                if bucket.get("quarantined"):
                    line += f", {bucket['quarantined']} quarantined"
                print(line)
        return 0

    if args.action == "gc":
        if args.keep_last is None and args.max_bytes is None:
            print("error: gc needs --keep-last and/or --max-bytes "
                  "(it refuses to guess how much to delete)",
                  file=sys.stderr)
            return 2
        try:
            removed = store.gc(keep_last=args.keep_last,
                               max_bytes=args.max_bytes, kind=family,
                               dry_run=args.dry_run)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        freed = sum(e.nbytes for e in removed)
        verb = "would remove" if args.dry_run else "removed"
        if args.json:
            print(json.dumps({"removed": [e.key for e in removed],
                              "bytes_freed": freed,
                              "dry_run": args.dry_run}, indent=2))
        else:
            for entry in removed:
                print(f"{verb} {entry.key[:12]} [{entry.kind}] "
                      f"({entry.identity.get('scenario', '?')}, "
                      f"{entry.nbytes} bytes)")
            print(f"{len(removed)} artifact(s) "
                  f"{'would be removed (dry run)' if args.dry_run else 'removed'}, "
                  f"{freed} bytes {'freeable' if args.dry_run else 'freed'}")
        return 0

    # warm: pre-build + publish graphs, baselines, and/or decompositions.
    from repro.runner.chain import all_chains, warm
    from repro.scenarios import all_scenarios, get_scenario

    kinds = tuple(all_chains())
    if family not in kinds + (None, "all"):
        print(f"error: warm supports --family {'/'.join(kinds)}/all, "
              f"got {family!r}", file=sys.stderr)
        return 2
    families = kinds if family in ("all", None) else (family,)
    try:
        scenarios = (all_scenarios() if args.names is None
                     else [get_scenario(name) for name in args.names])
        counts = warm(root, scenarios, families=families, sizes=args.sizes,
                      seeds=tuple(args.seeds))
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({**counts, "families": list(families),
                          "root": str(store.root)}, indent=2))
    else:
        print(f"warmed {store.root} ({'+'.join(families)}): "
              f"{counts['published']} published, "
              f"{counts['skipped']} already present")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run registered benchmarks; write one BENCH_*.json per benchmark."""
    from repro.bench import benchmark_names, run_benchmark, write_report

    if args.list:
        for name in benchmark_names():
            print(name)
        return 0
    # Fail fast on usage errors: a typo'd name or a missing --out
    # directory must not discard minutes of completed measurements.
    names = args.names or benchmark_names()
    unknown = [name for name in names if name not in benchmark_names()]
    if unknown:
        print(f"error: unknown benchmark(s) {', '.join(unknown)}; "
              f"known: {', '.join(benchmark_names())}", file=sys.stderr)
        return 2
    if args.out is not None and not pathlib.Path(args.out).is_dir():
        print(f"error: --out {args.out} is not a directory", file=sys.stderr)
        return 2
    # With --json, stdout carries pure JSON (matching the other --json
    # subcommands); progress goes to stderr.
    progress = sys.stderr if args.json else sys.stdout
    reports = []
    for name in names:
        print(f"running benchmark {name} ...", file=sys.stderr)
        report = run_benchmark(name, smoke=args.smoke)
        reports.append(report)
        path = write_report(report, args.out)
        print(f"wrote {path}", file=progress)
        for key, ratio in sorted(report.speedups.items()):
            print(f"  {key}: {ratio:.2f}x", file=progress)
    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=2))
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    """``repro runs``: telemetry views over stored sweep runs."""
    from repro.runner import RunStore
    from repro.telemetry import run_report, run_report_payload, watch_run

    store = RunStore(args.runs_dir)
    try:
        run = store.open_run(args.run_id)
    except KeyError as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.action == "watch":
        try:
            watch_run(run, interval=args.interval, once=args.once,
                      max_seconds=args.max_seconds)
        except KeyboardInterrupt:
            print()
        return 0
    if args.json:
        print(json.dumps(run_report_payload(run, top=args.top), indent=2))
    else:
        print(run_report(run, top=args.top))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile``: stored round profiles: ls / show / diff."""
    from repro.analysis.profiles import (
        format_profile_diff,
        format_profile_show,
        profile_diff_payload,
        profile_show_payload,
    )
    from repro.store import (
        DEFAULT_STORE_DIR,
        PROFILE_FAMILY,
        FamilyStore,
        find_profile,
    )

    root = (args.store_dir if args.store_dir is not None
            else DEFAULT_STORE_DIR)
    store = FamilyStore(PROFILE_FAMILY, root)

    if args.action == "ls":
        entries = store.ls()
        if args.json:
            print(json.dumps(
                [{"key": e.key, **e.identity,
                  "rounds": e.manifest.get("profile", {}).get("rows"),
                  "bytes": e.nbytes, "created_at": e.created_at}
                 for e in entries], indent=2))
            return 0
        rows = [(e.key[:12], e.identity.get("scenario", "?"),
                 e.identity.get("algorithm", "?"),
                 e.identity.get("size", "?"), e.identity.get("seed", "?"),
                 e.identity.get("faults") or "-",
                 str(e.identity.get("revision", "?"))[:8],
                 e.manifest.get("profile", {}).get("rows", "?"),
                 e.nbytes)
                for e in entries]
        print(format_table(
            ["key", "scenario", "algorithm", "size", "seed", "faults",
             "revision", "rounds", "bytes"], rows))
        print(f"\n{len(entries)} profile(s) under {store.root}")
        return 0

    size = args.size
    if size is None:
        from repro.scenarios import get_scenario
        try:
            size = get_scenario(args.scenario).default_size
        except KeyError as exc:
            message = exc.args[0] if exc.args else str(exc)
            print(f"error: {message}", file=sys.stderr)
            return 2

    def resolve(scenario, algorithm, cell_size, seed, faults, fault_seed,
                revision, label):
        identity = find_profile(store, scenario, algorithm, cell_size,
                                seed, faults=faults or "",
                                fault_seed=fault_seed, revision=revision)
        if identity is None:
            at = f" at revision {revision}" if revision else ""
            print(f"error: no stored profile for {label} "
                  f"{scenario} x {algorithm} (size={cell_size}, "
                  f"seed={seed}"
                  + (f", faults={faults}" if faults else "")
                  + f"){at} under {store.root}; capture one with "
                  f"`repro sweep --profile`", file=sys.stderr)
        return identity

    identity = resolve(args.scenario, args.algorithm, size, args.seed,
                       args.faults, args.fault_seed, args.revision,
                       "cell")
    if identity is None:
        return 2
    profile = store.load(identity)
    if profile is None:
        print(f"error: stored profile {identity} failed to load "
              f"(corrupt entries are quarantined; re-capture with "
              f"`repro sweep --profile`)", file=sys.stderr)
        return 2

    if args.action == "show":
        payload = profile_show_payload(profile, identity,
                                       limit=args.limit)
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(format_profile_show(payload))
        return 0

    # diff: cell B is cell A's coordinates with --against-* overrides,
    # so the common case -- same cell, different revision -- is one flag.
    identity_b = resolve(
        args.against_scenario or args.scenario,
        args.against_algorithm or args.algorithm,
        args.against_size if args.against_size is not None else size,
        args.against_seed if args.against_seed is not None else args.seed,
        args.against_faults if args.against_faults is not None
        else args.faults,
        args.against_fault_seed if args.against_fault_seed is not None
        else args.fault_seed,
        args.against_revision, "--against cell")
    if identity_b is None:
        return 2
    profile_b = store.load(identity_b)
    if profile_b is None:
        print(f"error: stored profile {identity_b} failed to load",
              file=sys.stderr)
        return 2
    payload = profile_diff_payload(profile, profile_b,
                                   identity, identity_b)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(format_profile_diff(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apsp", help="Theorem 1.1 / message-optimal APSP")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--p", type=float, default=0.4)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--w-max", type=int, default=9)
    p.set_defaults(func=_cmd_apsp)

    p = sub.add_parser("tradeoff", help="Theorem 1.2 eps sweep")
    p.add_argument("--n", type=int, default=24)
    p.add_argument("--p", type=float, default=0.35)
    p.add_argument("--eps", type=float, nargs="+",
                   default=[0.0, 0.5, 1.0])
    p.set_defaults(func=_cmd_tradeoff)

    p = sub.add_parser("matching", help="Corollary 2.8 bipartite matching")
    p.add_argument("--left", type=int, default=7)
    p.add_argument("--right", type=int, default=8)
    p.add_argument("--p", type=float, default=0.35)
    p.set_defaults(func=_cmd_matching)

    p = sub.add_parser("cover", help="Corollary 2.9 neighborhood cover")
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--p", type=float, default=0.25)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--w", type=int, default=2)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("decompose",
                       help="build + verify a pruned Baswana-Sen hierarchy")
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--p", type=float, default=0.25)
    p.add_argument("--eps", type=float, default=0.5)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser(
        "scenarios",
        help="the named scenario matrix: list / run / sweep")
    scen_sub = p.add_subparsers(dest="action", required=True)

    q = scen_sub.add_parser("list", help="show every registered scenario")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_scenarios)

    q = scen_sub.add_parser(
        "run", help="run one scenario through the differential oracles")
    q.add_argument("name")
    q.add_argument("--size", type=int, default=None)
    q.add_argument("--algorithm", default=None)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_scenarios)

    q = scen_sub.add_parser(
        "sweep", help="run the scenario x algorithm x size matrix")
    q.add_argument("--names", nargs="+", default=None)
    q.add_argument("--sizes", type=int, nargs="+", default=None)
    q.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = in-process)")
    q.add_argument("--timeout", type=float, default=None,
                   help="per-cell wall-time budget in seconds")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser(
        "sweep",
        help="the parallel sweep engine: run / resume / compare "
             "persisted matrix sweeps (src/repro/runner/)")
    p.add_argument("--names", nargs="+", default=None,
                   help="scenarios to sweep (default: all)")
    p.add_argument("--sizes", type=int, nargs="+", default=None,
                   help="workload sizes (default: each scenario's tier-1 "
                        "default_size)")
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = in-process)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-cell wall-time budget in seconds")
    p.add_argument("--retries", type=int, default=0,
                   help="per-cell retry budget: re-queue timed-out or "
                        "crashed cells up to N extra times before "
                        "recording them as failures (attempts are "
                        "recorded in the cell record)")
    p.add_argument("--runs-dir", default="runs",
                   help="run-store directory (default: runs/)")
    p.add_argument("--store", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="serve scenario graphs, oracle baselines and "
                        "decomposition snapshots through the shared "
                        "on-disk artifact store (mmap'd arrays, shared "
                        "across workers, sweeps, and revisions); "
                        "--no-store disables every family (default: on)")
    p.add_argument("--store-dir", default=None,
                   help="artifact-store directory (default: "
                        "<runs-dir>/store)")
    p.add_argument("--faults", nargs="+", default=None, metavar="PROFILE",
                   help="inject faults: run every cell under each named "
                        "fault profile (lossy-light, lossy-heavy, "
                        "dup-storm, reorder-heavy, flaky-links, churn, "
                        "chaos) -- cells are graded correct-under-faults "
                        "/ degraded / diverged instead of pass/fail "
                        "(default: no fault injection)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the fault plan realization; the same "
                        "--faults --fault-seed pair replays the exact "
                        "same drops/duplicates/crashes (default: 0)")
    p.add_argument("--fresh", action="store_true",
                   help="start a new run even if an incomplete "
                        "same-params run could be resumed")
    p.add_argument("--compare", metavar="RUN_ID", default=None,
                   help="baseline run to diff against; alone, the sweep "
                        "executes and is compared to this baseline")
    p.add_argument("--against", metavar="RUN_ID", default=None,
                   help="with --compare: diff these two stored runs "
                        "without executing anything")
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="relative rounds/messages drift tolerated by "
                        "--compare (default 0: bit-identical meters)")
    p.add_argument("--profile", action="store_true",
                   help="capture a per-round metric timeline for every "
                        "executed cell into the store's profiles family "
                        "(messages/words/broadcasts/congestion per round, "
                        "phase markers); inspect with `repro profile "
                        "show` / `diff`; canonical cell records stay "
                        "byte-identical (default: off)")
    p.add_argument("--cprofile", action="store_true",
                   help="run each cell under cProfile and record its top "
                        "hot functions in the cell result, aggregated "
                        "across the run by `repro runs report` "
                        "(default: off)")
    p.add_argument("--list-runs", action="store_true",
                   help="list stored runs and exit")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "store",
        help="the on-disk artifact store (graph snapshots, oracle "
             "baselines, decomposition snapshots): ls / stat / gc / "
             "warm (src/repro/store/)")
    store_sub = p.add_subparsers(dest="action", required=True)

    def _store_action(name, help_text):
        q = store_sub.add_parser(name, help=help_text)
        q.add_argument("--store-dir", default=None,
                       help="store directory (default: runs/store)")
        q.add_argument("--family", default=None,
                       help="restrict to one artifact family "
                            "(graphs / oracles / decompositions / "
                            "profiles; default: all)")
        q.add_argument("--json", action="store_true")
        q.set_defaults(func=_cmd_store)
        return q

    _store_action("ls", "list stored artifacts")
    _store_action("stat",
                  "aggregate store statistics with per-family breakdown")

    q = _store_action(
        "gc", "prune old artifacts by count and/or total bytes "
              "(--family scopes the budget to one family)")
    q.add_argument("--keep-last", type=int, default=None,
                   help="keep only the N newest artifacts")
    q.add_argument("--max-bytes", type=_parse_bytes, default=None,
                   help="drop oldest artifacts until the payload fits "
                        "(integer bytes, K/M/G suffixes accepted)")
    q.add_argument("--dry-run", action="store_true",
                   help="report what would be removed without deleting "
                        "anything (also skips the quarantine drain and "
                        "temp-directory sweep)")

    q = _store_action(
        "warm",
        "pre-build and publish scenario graphs, baselines, and "
        "decomposition snapshots so the next sweep starts warm "
        "(--family graphs/oracles/decompositions/all, default: all)")
    q.add_argument("--names", nargs="+", default=None,
                   help="scenarios to warm (default: all registered)")
    q.add_argument("--sizes", type=int, nargs="+", default=None,
                   help="workload sizes (default: each scenario's tier-1 "
                        "default_size)")
    q.add_argument("--seeds", type=int, nargs="+", default=[0])

    p = sub.add_parser(
        "bench",
        help="run registered micro-benchmarks and write BENCH_*.json "
             "reports (src/repro/bench.py)")
    p.add_argument("names", nargs="*", default=None,
                   help="benchmarks to run (default: all registered)")
    p.add_argument("--out", default=None,
                   help="directory for the BENCH_*.json files "
                        "(default: current directory)")
    p.add_argument("--list", action="store_true",
                   help="list registered benchmarks and exit")
    p.add_argument("--smoke", action="store_true",
                   help="fast CI mode: benchmarks that support it shrink "
                        "their workloads and reps (numbers are not "
                        "comparable to full runs)")
    p.add_argument("--json", action="store_true",
                   help="also print the reports as JSON to stdout")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "runs",
        help="stored sweep runs: per-run telemetry timeline reports "
             "(src/repro/telemetry/)")
    runs_sub = p.add_subparsers(dest="action", required=True)
    q = runs_sub.add_parser(
        "report",
        help="render one run's telemetry.jsonl timeline: slowest cells, "
             "retry/timeout clusters, cache efficacy over time")
    q.add_argument("run_id", help="run id (see `repro sweep --list-runs`)")
    q.add_argument("--runs-dir", default="runs",
                   help="run-store directory (default: runs/)")
    q.add_argument("--top", type=int, default=10,
                   help="slowest cells to list (default: 10)")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_runs)

    q = runs_sub.add_parser(
        "watch",
        help="tail a run's telemetry timeline live: in-place progress, "
             "cache hit rates so far, slowest cells so far")
    q.add_argument("run_id", help="run id (see `repro sweep --list-runs`)")
    q.add_argument("--runs-dir", default="runs",
                   help="run-store directory (default: runs/)")
    q.add_argument("--interval", type=float, default=1.0,
                   help="refresh interval in seconds (default: 1)")
    q.add_argument("--once", action="store_true",
                   help="render a single snapshot and exit (CI-friendly)")
    q.add_argument("--max-seconds", type=float, default=None,
                   help="give up after this many seconds even if the run "
                        "has not completed (default: watch forever)")
    q.set_defaults(func=_cmd_runs)

    p = sub.add_parser(
        "profile",
        help="stored per-round execution profiles, captured by `repro "
             "sweep --profile`: ls / show / diff "
             "(src/repro/congest/profile.py, src/repro/store/profiles.py)")
    profile_sub = p.add_subparsers(dest="action", required=True)

    q = profile_sub.add_parser("ls", help="list stored round profiles")
    q.add_argument("--store-dir", default=None,
                   help="artifact-store directory (default: runs/store)")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_profile)

    def _profile_cell(q):
        q.add_argument("scenario", help="scenario name")
        q.add_argument("algorithm", help="algorithm name within it")
        q.add_argument("--size", type=int, default=None,
                       help="workload size (default: the scenario's "
                            "tier-1 default_size)")
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--faults", default=None,
                       help="fault profile the cell ran under "
                            "(default: the clean cell)")
        q.add_argument("--fault-seed", type=int, default=0)
        q.add_argument("--revision", default=None,
                       help="exact source revision (default: the newest "
                            "stored profile for the cell)")
        q.add_argument("--store-dir", default=None,
                       help="artifact-store directory (default: "
                            "runs/store)")
        q.add_argument("--json", action="store_true")
        q.set_defaults(func=_cmd_profile)

    q = profile_sub.add_parser(
        "show",
        help="render one cell's profile: round timeline, peak-congestion "
             "round, phase breakdown")
    _profile_cell(q)
    q.add_argument("--limit", type=int, default=40,
                   help="timeline rows to show; longer timelines are "
                        "bucketed down to this many (default: 40)")

    q = profile_sub.add_parser(
        "diff",
        help="compare two stored profiles phase-by-phase; the second "
             "cell is the first with any --against-* coordinates "
             "overridden (e.g. --against-revision alone compares the "
             "same cell across revisions)")
    _profile_cell(q)
    q.add_argument("--against-scenario", default=None)
    q.add_argument("--against-algorithm", default=None)
    q.add_argument("--against-size", type=int, default=None)
    q.add_argument("--against-seed", type=int, default=None)
    q.add_argument("--against-faults", default=None)
    q.add_argument("--against-fault-seed", type=int, default=None)
    q.add_argument("--against-revision", default=None)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `repro scenarios list | head`
        return 0


if __name__ == "__main__":
    sys.exit(main())
