"""Command-line interface: run the paper's experiments from a shell.

Sub-commands (each is a thin veneer over the library; scripts and
notebooks should import :mod:`repro` directly):

* ``compare``  -- Chapter 6 algorithm comparison (ROAR vs PTN/SW/opt);
* ``deploy``   -- Chapter 7 single deployment run;
* ``plan``     -- recommend a (p, r) configuration for a workload;
* ``control``  -- closed-loop control-plane scenario (elastic ROAR);
* ``matrix``   -- sweep the builtin scenario battery, print one table;
* ``profile``  -- run one builtin scenario under the span recorder, print
  where its wall time went, optionally export a chrome://tracing JSON
  (``docs/observability.md``);
* ``explain``  -- reconstruct the control-decision and admission-shed
  timelines of an archived run, cross-checked against its delay columns;
* ``kernels``  -- list scheduling kernels and their availability
  (``docs/kernels.md``);
* ``admission`` -- list admission-control policies
  (``docs/admission.md``);
* ``archive``  -- inspect/diff compressed telemetry archives written by
  ``matrix --archive-dir`` or ``record`` (``docs/telemetry.md``);
* ``traces``   -- list trace dataloaders / summarise a trace file
  (``docs/traces.md``);
* ``record``   -- run a scenario and write its archive plus its drawn
  stimulus as a recording (``.npz``);
* ``replay``   -- re-drive a recording bit-identically on either engine /
  any kernel, verified by the archive differential oracle;
* ``pps-demo`` -- encrypted-search application demo.

Usage (after installation)::

    repro compare --algorithm roar --n 90 -p 9 --rate 12
    repro deploy --nodes 24 -p 4 --queries 100
    repro plan --servers 24 --dataset 5e6 --target-delay 0.4
    repro matrix --servers 24 --duration 60
    repro pps-demo --files 200

(Without installing: ``PYTHONPATH=src python -m repro ...``.)

The parser is plain argparse and safe to drive programmatically::

    >>> parser = build_parser()
    >>> parser.parse_args(["matrix", "--kernel", "compiled"]).kernel
    'compiled'
    >>> parser.parse_args(["kernels"]).command
    'kernels'
    >>> parser.parse_args(["archive", "info", "run.npz"]).archive_command
    'info'
    >>> parser.parse_args(["archive", "info", "run.npz",
    ...                    "--require-manifest"]).require_manifest
    True
    >>> parser.parse_args(["profile", "--scenario", "churn",
    ...                    "--servers", "64"]).servers
    64
    >>> parser.parse_args(["profile", "--chrome-trace", "t.json"]).chrome_trace
    't.json'
    >>> parser.parse_args(["explain", "run.npz"]).path
    'run.npz'
    >>> parser.parse_args(["archive", "diff", "a.npz", "b.npz"]).path_b
    'b.npz'
    >>> parser.parse_args(["record", "--scenario", "steady",
    ...                    "--out", "run.rec.npz"]).out
    'run.rec.npz'
    >>> parser.parse_args(["replay", "run.rec.npz",
    ...                    "--engine", "reference"]).engine
    'reference'
    >>> parser.parse_args(["traces", "--info", "log.csv",
    ...                    "--loader", "csv:time_col=ts"]).loader
    'csv:time_col=ts'
    >>> parser.parse_args(["matrix", "--trace", "log.csv"]).trace
    'log.csv'
    >>> parser.parse_args(["matrix", "--select", "*-overload"]).select
    '*-overload'
    >>> parser.parse_args(["matrix", "--admission",
    ...                    "none,aimd,delay_gated"]).admission
    'none,aimd,delay_gated'
    >>> parser.parse_args(["admission"]).command
    'admission'
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def _kernel_name(spec: str) -> str:
    """``--kernel`` values: resolve an alias, refuse an unknown name.

    As an argparse ``type=`` this fails at parse time (exit 2, one usage
    line) before any scenario runs; it never builds the kernel.
    """
    from .kernels.registry import canonical_spec

    try:
        return canonical_spec(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ROAR (SIGCOMM 2009) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the sizing and engine flags of every command that runs builtin
    # scenarios (matrix, profile, record)
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--servers", type=int, default=20)
    sized.add_argument("-p", type=int, default=4,
                       help="stored partitioning level")
    sized.add_argument("--duration", type=float, default=40.0,
                       help="simulated seconds per scenario")
    sized.add_argument("--rate", type=float, default=None,
                       help="base queries/s (default: auto ~35%% load)")
    sized.add_argument("--dataset", type=float, default=2e6)
    sized.add_argument("--engine", default="batched",
                       choices=["batched", "reference"],
                       help="batched fast path or per-query reference path")
    sized.add_argument("--kernel", type=_kernel_name, default=None,
                       metavar="NAME",
                       help="scheduling kernel for the batched engine "
                            "(exact_numpy, compiled; see `repro kernels`)")
    sized.add_argument("--seed", type=int, default=1)

    comp = sub.add_parser("compare", help="Chapter 6 algorithm comparison")
    comp.add_argument("--algorithm", default="roar",
                      choices=["roar", "roar2", "ptn", "sw", "opt"])
    comp.add_argument("--n", type=int, default=90, help="server count")
    comp.add_argument("-p", type=int, default=9, help="partitioning level")
    comp.add_argument("--pq", type=int, default=None,
                      help="query partitioning level (ROAR; default p)")
    comp.add_argument("--rate", type=float, default=12.0, help="queries/s")
    comp.add_argument("--queries", type=int, default=500)
    comp.add_argument("--dataset", type=float, default=1e6)
    comp.add_argument("--adjust", action="store_true",
                      help="enable range adjustment")
    comp.add_argument("--splits", type=int, default=0,
                      help="max sub-query splits")
    comp.add_argument("--seed", type=int, default=1)

    dep = sub.add_parser("deploy", help="Chapter 7 deployment run")
    dep.add_argument("--nodes", type=int, default=24)
    dep.add_argument("-p", type=int, default=4)
    dep.add_argument("--pq", type=int, default=None)
    dep.add_argument("--rate", type=float, default=5.0)
    dep.add_argument("--queries", type=int, default=100)
    dep.add_argument("--dataset", type=float, default=5e6)
    dep.add_argument("--fail", type=int, default=0,
                     help="nodes to fail mid-run")
    dep.add_argument("--seed", type=int, default=1)

    plan = sub.add_parser("plan", help="recommend a (p, r) configuration")
    plan.add_argument("--servers", type=int, default=24)
    plan.add_argument("--speed", type=float, default=700_000.0,
                      help="objects matched per second per server")
    plan.add_argument("--dataset", type=float, default=1e6)
    plan.add_argument("--rate", type=float, default=5.0, help="queries/s")
    plan.add_argument("--updates", type=float, default=10.0, help="updates/s")
    plan.add_argument("--target-delay", type=float, default=0.5)
    plan.add_argument("--fixed-overhead", type=float, default=0.005)

    ctrl = sub.add_parser(
        "control", help="closed-loop control-plane scenario (elastic ROAR)"
    )
    ctrl.add_argument(
        "--scenario",
        default="flash-crowd",
        choices=["flash-crowd", "diurnal", "rack-failure"],
    )
    ctrl.add_argument("--servers", type=int, default=16)
    ctrl.add_argument("-p", type=int, default=4,
                      help="initial partitioning level")
    ctrl.add_argument("--duration", type=float, default=240.0,
                      help="simulated seconds")
    ctrl.add_argument("--rate", type=float, default=None,
                      help="base queries/s (default: auto ~30%% load)")
    ctrl.add_argument("--slo", type=float, default=1.0,
                      help="p99 latency target in seconds")
    ctrl.add_argument("--policies", default="elasticity,repartition",
                      help="comma list: elasticity,repartition")
    ctrl.add_argument("--planner", action="store_true",
                      help="re-partitioning follows the live-metrics planner")
    ctrl.add_argument("--seed", type=int, default=1)

    mtx = sub.add_parser(
        "matrix", parents=[sized],
        help="sweep the scenario matrix and print a comparison table",
    )
    mtx.add_argument("--list", action="store_true",
                     help="list built-in scenarios and exit")
    mtx.add_argument("--scenario", action="append", default=None,
                     metavar="NAME",
                     help="run only the named scenario (repeatable)")
    mtx.add_argument("--select", default=None, metavar="GLOB",
                     help="run only scenarios whose name matches GLOB "
                          "(fnmatch, e.g. '*-overload')")
    mtx.add_argument("--admission", default=None, metavar="LIST",
                     help="comma list of admission policies to sweep per "
                          "scenario (none, aimd[:key=value,...], "
                          "delay_gated; see `repro admission`)")
    mtx.add_argument("--csv", default=None, metavar="PATH",
                     help="also write the table as CSV")
    mtx.add_argument("--archive-dir", default=None, metavar="DIR",
                     help="write one compressed telemetry archive "
                          "(<scenario>.npz) per scenario into DIR")
    mtx.add_argument("--trace", default=None, metavar="SRC",
                     help="also run SRC (csv/jsonl/npz request log) as a "
                          "real-trace scenario row (see `repro traces`)")
    mtx.add_argument("--trace-loader", default=None, metavar="NAME",
                     help="dataloader for --trace "
                          "(name[:key=value,...]; default: inferred)")

    prof = sub.add_parser(
        "profile", parents=[sized],
        help="run one builtin scenario and print where its wall time went "
             "(optionally export a chrome://tracing JSON)",
    )
    prof.add_argument("--scenario", default="steady", metavar="NAME",
                      help="builtin scenario to profile (see `repro matrix "
                           "--list`; default steady)")
    prof.add_argument("--chrome-trace", default=None, metavar="PATH",
                      help="write the spans as chrome://tracing JSON "
                           "(load via chrome://tracing or ui.perfetto.dev)")
    prof.add_argument("--json", default=None, metavar="PATH",
                      help="write the span summary + manifest as JSON")

    expl = sub.add_parser(
        "explain",
        help="reconstruct the control-decision timeline of an archived run, "
             "cross-checked against its delay columns",
    )
    expl.add_argument("path", help="run archive (.npz) with dec_* columns")
    expl.add_argument("--json", default=None, metavar="PATH",
                      help="also write the decision records as JSON")

    sub.add_parser(
        "kernels",
        help="list scheduling kernels (availability, description)",
    )

    sub.add_parser(
        "admission",
        help="list admission-control policies (overload shedding; "
             "docs/admission.md)",
    )

    arch = sub.add_parser(
        "archive",
        help="inspect or diff compressed telemetry archives (.npz)",
    )
    arch_sub = arch.add_subparsers(dest="archive_command", required=True)
    arch_info = arch_sub.add_parser(
        "info", help="summarise one archive (queries, delays, bytes/query)"
    )
    arch_info.add_argument("path", help="archive file (.npz)")
    arch_info.add_argument("--gate-bytes-per-query", type=float, default=None,
                           metavar="N",
                           help="exit 1 if the archive costs more than N "
                                "bytes per query")
    arch_info.add_argument("--require-manifest", action="store_true",
                           help="exit 1 unless the archive carries a "
                                "provenance manifest (docs/observability.md)")
    arch_diff = arch_sub.add_parser(
        "diff", help="column-by-column comparison of two archives"
    )
    arch_diff.add_argument("path_a", help="first archive (.npz)")
    arch_diff.add_argument("path_b", help="second archive (.npz)")
    arch_diff.add_argument("--strict", action="store_true",
                           help="gate on wall-clock columns too (default: "
                                "only simulated-time columns gate)")

    traces = sub.add_parser(
        "traces",
        help="list trace dataloaders, or summarise a trace file",
    )
    traces.add_argument("--info", default=None, metavar="SRC",
                        help="load SRC and print a stimulus summary "
                             "instead of listing loaders")
    traces.add_argument("--loader", default=None, metavar="NAME",
                        help="dataloader for --info "
                             "(name[:key=value,...]; default: inferred)")

    rec = sub.add_parser(
        "record", parents=[sized],
        help="run a scenario and write its archive plus its drawn "
             "stimulus as a recording (.npz)",
    )
    rec.add_argument("--scenario", default="steady", metavar="NAME",
                     help="builtin scenario to record (see `repro matrix "
                          "--list`; default steady)")
    rec.add_argument("--trace", default=None, metavar="SRC",
                     help="record a real-trace run of SRC instead of a "
                          "builtin scenario")
    rec.add_argument("--trace-loader", default=None, metavar="NAME",
                     help="dataloader for --trace (default: inferred)")
    rec.add_argument("--out", required=True, metavar="PATH",
                     help="recording path (.npz)")
    rec.add_argument("--archive", default=None, metavar="PATH",
                     help="also write the recording to PATH (a recording "
                          "is a run archive: `repro archive` reads both)")

    rep = sub.add_parser(
        "replay",
        help="re-drive a recording and verify bit-identity against its "
             "baseline telemetry",
    )
    rep.add_argument("path", help="recording file (.npz from `repro record`)")
    rep.add_argument("--engine", default=None,
                     choices=["batched", "reference"],
                     help="engine to replay on (default: as recorded)")
    rep.add_argument("--kernel", type=_kernel_name, default=None, metavar="NAME",
                     help="scheduling kernel (default: as recorded)")
    rep.add_argument("--archive", default=None, metavar="PATH",
                     help="write the replayed run's archive, itself a "
                          "recording (wall-clock columns omitted)")
    rep.add_argument("--no-verify", action="store_true",
                     help="skip the bit-identity check (just re-run)")

    demo = sub.add_parser("pps-demo", help="encrypted search demo")
    demo.add_argument("--files", type=int, default=200)
    demo.add_argument("--keyword", default=None,
                      help="keyword to search (default: pick one)")
    demo.add_argument("--seed", type=int, default=5)
    return parser


def _cmd_compare(args: argparse.Namespace) -> int:
    from .cluster import ComparisonConfig, run_comparison

    cfg = ComparisonConfig(
        algorithm=args.algorithm,
        n_servers=args.n,
        p=args.p,
        pq=args.pq,
        dataset_size=args.dataset,
        query_rate=args.rate,
        n_queries=args.queries,
        adjust=args.adjust,
        splits=args.splits,
        seed=args.seed,
    )
    res = run_comparison(cfg)
    mean = res.mean_delay
    mean_txt = "SATURATED" if math.isinf(mean) else f"{mean * 1000:.1f} ms"
    print(f"algorithm     : {args.algorithm}")
    print(f"n / p / pq    : {args.n} / {args.p} / {args.pq or args.p}")
    print(f"mean delay    : {mean_txt}")
    print(f"p99 delay     : {res.p99_delay * 1000:.1f} ms")
    print(f"utilisation   : {res.server_utilisation:.1%}")
    print(f"exploding     : {res.exploding}")
    return 0


def _cmd_deploy(args: argparse.Namespace) -> int:
    import random

    from .cluster import Deployment, DeploymentConfig, hen_testbed
    from .sim import PoissonArrivals

    dep = Deployment(
        DeploymentConfig(
            models=hen_testbed(args.nodes),
            p=args.p,
            dataset_size=args.dataset,
            seed=args.seed,
        )
    )
    arrivals = PoissonArrivals(args.rate, seed=args.seed).times(args.queries)
    fail_at = arrivals[len(arrivals) // 2] if args.fail else None
    rng = random.Random(args.seed)
    failed = False
    for t in arrivals:
        if fail_at is not None and not failed and t >= fail_at:
            for name in rng.sample(sorted(dep.servers), args.fail):
                dep.fail_node(name, t)
            failed = True
        dep.run_query(t, args.pq or args.p)
    delays = dep.log.delays()
    elapsed = max(r.finish for r in dep.log.records)
    print(f"nodes / p / pq : {args.nodes} / {args.p} / {args.pq or args.p}")
    print(f"queries        : {len(delays)} completed (yield 100%)")
    print(f"mean delay     : {1000 * sum(delays) / len(delays):.1f} ms")
    print(f"p99 delay      : {dep.log.percentile_delay(99) * 1000:.1f} ms")
    print(f"mean CPU load  : {dep.mean_cpu_load(elapsed):.1%}")
    if args.fail:
        print(f"failed nodes   : {args.fail} (mid-run)")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .analysis.planner import WorkloadSpec, recommend_configuration

    spec = WorkloadSpec(
        dataset_size=args.dataset,
        query_rate=args.rate,
        update_rate=args.updates,
        target_delay=args.target_delay,
        speeds=[args.speed] * args.servers,
        fixed_overhead=args.fixed_overhead,
    )
    rec = recommend_configuration(spec)
    print(rec.reason)
    if rec.chosen is None:
        return 1
    print(f"recommended    : p = {rec.chosen.p}, r = {rec.chosen.r:g}")
    print(f"pred. delay    : {rec.chosen.predicted_delay * 1000:.0f} ms")
    print(f"utilisation    : {rec.chosen.utilisation:.0%}")
    print(f"bandwidth      : {rec.chosen.bandwidth / 1000:.1f} kB/s")
    feasible = sum(1 for o in rec.options if o.feasible)
    print(f"feasible p's   : {feasible} of {len(rec.options)}")
    return 0


def _cmd_control(args: argparse.Namespace) -> int:
    from .scenarios import control_scenario, execute_scenario, phase_p99s

    policies = tuple(x.strip() for x in args.policies.split(",") if x.strip())
    try:
        scenario = control_scenario(
            args.scenario,
            n_servers=args.servers,
            p=args.p,
            duration=args.duration,
            rate=args.rate,
            slo=args.slo,
            policies=policies,
            planner=args.planner,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return 2
    ex = execute_scenario(scenario)
    dep = ex.deployment
    before, crisis, after = phase_p99s(dep.log, args.scenario, args.duration)
    actions = sorted((a for c in ex.controllers for a in c.actions),
                     key=lambda a: a.time)
    recovered = not math.isnan(after) and (after < crisis or after <= args.slo)
    print(f"scenario       : {args.scenario}")
    print(f"servers        : {args.servers} initially, {len(dep.servers)} finally")
    print(f"p / pq         : {args.p} initially, "
          f"{dep.p_store:g} / {ex.pq_end} finally")
    print(f"queries run    : {len(dep.log)}")
    print(f"SLO (p99)      : {args.slo * 1000:.0f} ms")
    print(f"p99 before     : {before * 1000:.0f} ms")
    print(f"p99 crisis     : {crisis * 1000:.0f} ms")
    print(f"p99 after      : {after * 1000:.0f} ms")
    print(f"adapted        : {bool(actions)} ({len(actions)} actions)")
    print(f"recovered      : {recovered}")
    if actions:
        print("control actions:")
        for act in actions:
            print(f"  t={act.time:7.1f}s  [{act.controller}] "
                  f"{act.kind}: {act.detail}")
    return 0 if actions else 1


def _battery(args: argparse.Namespace):
    """The builtin scenarios at the command's sizing flags, or None after
    one stderr line when a flag is out of range."""
    from .scenarios import builtin_scenarios

    try:
        return builtin_scenarios(
            n_servers=args.servers,
            duration=args.duration,
            p=args.p,
            dataset_size=args.dataset,
            seed=args.seed,
            rate=args.rate,
        )
    except ValueError as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return None


def _named_scenario(args: argparse.Namespace):
    """The builtin scenario ``--scenario`` names, or None after one stderr
    line."""
    scenarios = _battery(args)
    if scenarios is None:
        return None
    by_name = {s.name: s for s in scenarios}
    if args.scenario not in by_name:
        print(f"unknown scenario {args.scenario!r}; "
              f"known: {sorted(by_name)}", file=sys.stderr)
        return None
    return by_name[args.scenario]


def _cmd_matrix(args: argparse.Namespace) -> int:
    from .scenarios import run_matrix

    scenarios = _battery(args)
    if scenarios is None:
        return 2
    if args.list:
        for s in scenarios:
            print(f"{s.name:16s} {s.description}")
        return 0
    if args.scenario:
        wanted = set(args.scenario)
        known = {s.name for s in scenarios}
        missing = wanted - known
        if missing:
            print(f"unknown scenario(s): {sorted(missing)}; "
                  f"known: {sorted(known)}", file=sys.stderr)
            return 2
        scenarios = [s for s in scenarios if s.name in wanted]
    if args.select:
        import fnmatch

        matched = [s for s in scenarios if fnmatch.fnmatch(s.name, args.select)]
        if not matched:
            print(f"--select {args.select!r} matches no scenario; "
                  f"known: {sorted(s.name for s in scenarios)}",
                  file=sys.stderr)
            return 2
        scenarios = matched
    if args.admission:
        import dataclasses

        from .scenarios import AdmissionSpec

        policies = [x.strip() for x in args.admission.split(",") if x.strip()]
        try:
            swept = []
            for s in scenarios:
                for pol in policies:
                    spec = (
                        dataclasses.replace(s.admission, policy=pol)
                        if s.admission is not None
                        else AdmissionSpec(policy=pol)
                    )
                    # suffix names so sweep rows (and --archive-dir files)
                    # stay distinguishable
                    name = (
                        f"{s.name}+{pol.partition(':')[0]}"
                        if len(policies) > 1
                        else s.name
                    )
                    swept.append(dataclasses.replace(s, name=name, admission=spec))
        except ValueError as exc:
            print(f"bad --admission: {exc}", file=sys.stderr)
            return 2
        scenarios = swept
    if args.trace:
        from .scenarios.matrix import trace_scenario
        from .traces import TraceFormatError

        try:
            trace_row = trace_scenario(
                args.trace, loader=args.trace_loader,
                n_servers=args.servers, p=args.p,
                dataset_size=args.dataset, seed=args.seed,
            )
            # the trace row runs last: read the file now, so a bad one
            # fails before the battery instead of after it
            trace_row.workload.load()
        except (TraceFormatError, ValueError) as exc:
            print(f"bad --trace: {exc}", file=sys.stderr)
            return 2
        scenarios.append(trace_row)

    def progress(scenario, result):
        print(f"[{scenario.name}] {result.offered} queries, "
              f"yield {result.yield_fraction:.1%}, "
              f"p99 {result.p99_delay * 1000:.0f} ms, "
              f"{result.wall_seconds:.2f}s wall", file=sys.stderr)

    res = run_matrix(
        scenarios, engine=args.engine, kernel=args.kernel,
        progress=progress, archive_dir=args.archive_dir,
    )
    print(res.table())
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(res.to_csv())
        print(f"\ncsv written to {args.csv}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs.profiler import SpanRecorder
    from .scenarios import runner

    scenario = _named_scenario(args)
    if scenario is None:
        return 2
    with SpanRecorder() as rec:
        ex = runner.execute_scenario(
            scenario, engine=args.engine, kernel=args.kernel
        )
    log = ex.deployment.log
    print(f"scenario       : {scenario.name} ({ex.engine}/{ex.kernel}), "
          f"{scenario.n_servers} servers")
    print(f"queries        : {log.n_records} completed, {log.dropped} dropped")
    print(rec.render_table())
    if args.chrome_trace:
        rec.write_chrome_trace(args.chrome_trace)
        print(f"chrome trace   : {args.chrome_trace} "
              "(open in chrome://tracing or ui.perfetto.dev)")
    if args.json:
        import json

        payload = {"summary": rec.summary(), "manifest": ex.manifest}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"json summary   : {args.json}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .obs.events import (
        admission_from_archive,
        decisions_from_archive,
        explain_admission,
        explain_archive,
        render_admission,
        render_decisions,
    )
    from .telemetry.archive import read_archive

    try:
        archive = read_archive(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot explain {args.path}: {exc}", file=sys.stderr)
        return 2
    names = archive.columns
    try:
        records = (
            decisions_from_archive(archive)
            if any(n.startswith("dec_") for n in names) else None
        )
        admission = (
            admission_from_archive(archive)
            if any(n.startswith(("shed_", "adm_")) for n in names) else None
        )
    except ValueError as exc:  # a malformed decision or admission table
        print(f"cannot explain {exc}", file=sys.stderr)
        return 2
    if records is None and admission is None:
        print(f"cannot explain {args.path}: archive has neither control "
              "decisions (dec_*) nor admission columns (shed_*)",
              file=sys.stderr)
        return 2
    print(f"archive        : {args.path}")
    meta = archive.meta
    manifest = meta.get("manifest")
    if isinstance(manifest, dict):
        print(f"provenance     : rev {manifest.get('git_revision', '?')}, "
              f"host {manifest.get('host', '?')}, "
              f"kernel {manifest.get('kernel', '?')}")
    failed = 0
    checks: list = []
    adm_checks: list = []
    if records is not None:
        checks = explain_archive(archive)
        window = meta.get("decisions", {}).get("window")
        if window is not None:
            print(f"metrics window : {window:g} s (sampled by arrival time)")
        print(f"decisions      : {len(records)} "
              f"({sum(1 for r in records if not r.is_hold)} actions, "
              f"{sum(1 for r in records if r.is_hold)} holds)")
        print(render_decisions(records, checks))
        failed += sum(1 for _, ok, _, _ in checks if not ok)
    if admission is not None:
        sheds, ticks, adm_meta = admission
        adm_checks = explain_admission(archive)
        print(f"shed decisions : {len(sheds)} over {len(ticks)} tick(s) "
              f"(policy {adm_meta.get('policy', '?')})")
        print(render_admission(sheds, ticks, adm_checks, adm_meta))
        failed += sum(1 for _, ok, _, _ in adm_checks if not ok)
    if args.json:
        import dataclasses
        import json

        dec_payload = [
            {**dataclasses.asdict(rec), "check": bool(ok)}
            for rec, ok, _, _ in checks
        ]
        if admission is None:
            # decisions-only archives keep the historical list payload
            payload: object = dec_payload
        else:
            sheds, ticks, adm_meta = admission
            payload = {
                "decisions": dec_payload,
                "admission": {
                    "meta": adm_meta,
                    "sheds": [dataclasses.asdict(s) for s in sheds],
                    "ticks": [
                        {**dataclasses.asdict(t), "check": bool(ok)}
                        for t, ok, _, _ in adm_checks
                    ],
                },
            }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"json timeline  : {args.json}")
    if failed:
        print(f"cross-check    : {failed} record(s) FAILED against the "
              "archived delay columns", file=sys.stderr)
        return 1
    print("cross-check    : every record matches the archived delay columns")
    return 0


def _cmd_archive(args: argparse.Namespace) -> int:
    from .telemetry.archive import archive_diff, archive_info, read_archive

    paths = [args.path] if args.archive_command == "info" else [args.path_a, args.path_b]
    archives = []
    for path in paths:
        try:
            archives.append(read_archive(path))
        except (OSError, ValueError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 2
    if args.archive_command == "info":
        info = archive_info(archives[0])
        print(f"path           : {info['path']}")
        print(f"schema         : {info['schema']}")
        print(f"queries        : {info['n_queries']} "
              f"({info['dropped']} dropped)")
        print(f"columns        : {len(info['columns'])}")
        print(f"derived        : {', '.join(info['derived']) or 'none'}")
        if "file_bytes" in info:
            print(f"file size      : {info['file_bytes']} B "
                  f"({info['bytes_per_query']:.1f} B/query)")
        if "mean_delay" in info:
            print(f"mean delay     : {info['mean_delay'] * 1000:.2f} ms")
            for q in (50, 95, 99):
                print(f"p{q} delay      : "
                      f"{info[f'p{q}_delay'] * 1000:.2f} ms")
        for k in sorted(info["meta"]):
            print(f"meta.{k:<10s}: {info['meta'][k]}")
        gate = args.gate_bytes_per_query
        if gate is not None:
            bpq = info.get("bytes_per_query")
            if bpq is None or not bpq == bpq or bpq > gate:  # NaN or over
                print(f"GATE FAIL: {bpq} bytes/query exceeds budget {gate:g}",
                      file=sys.stderr)
                return 1
            print(f"gate           : OK ({bpq:.1f} <= {gate:g} B/query)")
        if args.require_manifest:
            manifest = info["meta"].get("manifest")
            if not isinstance(manifest, dict) or "git_revision" not in manifest:
                print("GATE FAIL: archive carries no provenance manifest",
                      file=sys.stderr)
                return 1
            print(f"manifest       : OK (rev {manifest['git_revision']}, "
                  f"host {manifest.get('host', '?')})")
        return 0

    diff = archive_diff(*archives)
    for name in sorted(diff["columns"]):
        entry = diff["columns"][name]
        if entry["equal"]:
            print(f"{name:16s} equal ({entry['n_a']} values)")
        elif "missing_in" in entry:
            print(f"{name:16s} MISSING in archive {entry['missing_in']}")
        else:
            extra = ""
            if "max_abs_diff" in entry:
                extra = f", max |diff| {entry['max_abs_diff']:.3g}"
            print(f"{name:16s} DIFFERS at index "
                  f"{entry['first_divergence']}"
                  f" ({entry['n_a']} vs {entry['n_b']} values{extra})")
    key = "identical" if args.strict else "gated_identical"
    verdict = diff[key]
    scope = "all columns" if args.strict else "simulated-time columns"
    print(f"{'identical' if verdict else 'DIVERGENT'} ({scope})")
    return 0 if verdict else 1


def _cmd_traces(args: argparse.Namespace) -> int:
    from .traces import TraceFormatError, load_trace, loader_specs

    if args.info is None:
        print(f"{'loader':12s} {'aliases':12s} description")
        for row in loader_specs():
            aliases = ",".join(row["aliases"]) or "-"
            print(f"{row['name']:12s} {aliases:12s} {row['description']}")
        return 0
    try:
        trace = load_trace(args.info, loader=args.loader)
    except (TraceFormatError, ValueError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    print(f"source         : {args.info}")
    print(f"loader         : {trace.meta.get('loader', '?')}")
    print(f"queries        : {trace.n_queries}")
    print(f"updates        : {trace.n_updates}")
    print(f"horizon        : {trace.horizon:g} s")
    if trace.n_queries and trace.horizon > 0:
        print(f"mean rate      : {trace.n_queries / trace.horizon:.2f} "
              "queries/s")
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from .scenarios.runner import execute_scenario
    from .traces import TraceFormatError

    if args.trace:
        from .scenarios.matrix import trace_scenario

        try:
            scenario = trace_scenario(
                args.trace, loader=args.trace_loader, n_servers=args.servers,
                p=args.p, dataset_size=args.dataset, seed=args.seed,
            )
        except ValueError as exc:  # e.g. an unknown --trace-loader
            print(f"bad --trace: {exc}", file=sys.stderr)
            return 2
    else:
        scenario = _named_scenario(args)
        if scenario is None:
            return 2
    try:
        ex = execute_scenario(
            scenario, engine=args.engine, kernel=args.kernel,
            record_path=args.out, archive_path=args.archive,
        )
    except TraceFormatError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    log = ex.deployment.log
    print(f"recorded       : {args.out}")
    print(f"scenario       : {scenario.name} ({ex.engine}/{ex.kernel})")
    print(f"queries        : {log.n_records} completed, {log.dropped} dropped")
    print(f"updates        : {ex.updates_applied} applied")
    print(f"horizon        : {ex.horizon:g} s")
    if args.archive:
        print(f"archive        : {args.archive}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .traces import replay_recording

    try:
        report = replay_recording(
            args.path, engine=args.engine, kernel=args.kernel,
            archive_path=args.archive, verify=not args.no_verify,
        )
    except (OSError, ValueError) as exc:
        print(f"cannot replay {args.path}: {exc}", file=sys.stderr)
        return 2
    rec = report.recording
    log = report.execution.deployment.log
    print(f"recording      : {args.path}")
    print(f"recorded on    : {rec.engine}/{rec.kernel}")
    print(f"replayed on    : {report.engine}/{report.kernel}")
    print(f"queries        : {log.n_records} completed, {log.dropped} dropped")
    if args.archive:
        print(f"archive        : {args.archive}")
    if not report.verified:
        print("verify         : skipped (--no-verify)")
        return 0
    if report.identical:
        print("verify         : identical "
              "(every simulated-time column byte-equal)")
        return 0
    print(f"verify         : DIVERGED in "
          f"{', '.join(report.mismatching_columns)}", file=sys.stderr)
    return 1


def _cmd_kernels(args: argparse.Namespace) -> int:
    from .kernels import kernel_specs

    print(f"{'kernel':14s} {'available':10s} description")
    for row in kernel_specs():
        avail = "yes" if row["available"] else "NO"
        desc = row["description"] or row["reason"] or ""
        print(f"{row['name']:14s} {avail:10s} {desc}")
    return 0


def _cmd_admission(args: argparse.Namespace) -> int:
    from .admission import policy_specs

    print(f"{'policy':14s} {'sheds':6s} description")
    for row in policy_specs():
        sheds = "no" if row["passthrough"] else "yes"
        print(f"{row['name']:14s} {sheds:6s} {row['description']}")
    return 0


def _cmd_pps_demo(args: argparse.Namespace) -> int:
    import random

    from .pps import (
        CorpusConfig,
        MetadataCodec,
        Predicate,
        generate_corpus,
        keygen_deterministic,
    )

    key = keygen_deterministic(f"cli-demo-{args.seed}")
    codec = MetadataCodec(key, max_content_keywords=10)
    files = generate_corpus(CorpusConfig(n_files=args.files, seed=args.seed))
    encrypted = [codec.encrypt_file(f) for f in files]
    keyword = args.keyword or files[0].keywords[0]
    query = codec.encrypt_predicate(Predicate("keyword", "=", keyword))
    hits = [f for f, e in zip(files, encrypted) if codec.match(e, query)]
    truth = [f for f in files if keyword in f.keywords]
    print(f"files          : {len(files)} "
          f"({codec.metadata_size_bytes()} B encrypted metadata each)")
    print(f"query keyword  : {keyword!r} (server never sees it)")
    print(f"matches        : {len(hits)} (plaintext ground truth {len(truth)})")
    for f in hits[:5]:
        print(f"  {f.path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "compare": _cmd_compare,
        "deploy": _cmd_deploy,
        "plan": _cmd_plan,
        "control": _cmd_control,
        "matrix": _cmd_matrix,
        "profile": _cmd_profile,
        "explain": _cmd_explain,
        "kernels": _cmd_kernels,
        "admission": _cmd_admission,
        "archive": _cmd_archive,
        "traces": _cmd_traces,
        "record": _cmd_record,
        "replay": _cmd_replay,
        "pps-demo": _cmd_pps_demo,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
