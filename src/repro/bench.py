"""The benchmark trajectory: standard sweeps, machine-readable results, CI gate.

``repro bench`` runs the repo's two standard performance sweeps -- the
200-server/100k-query run and the 1k-server run -- on both the batched
engine (full trace) and the per-query reference path (a timed subset,
extrapolated to us/query), and emits a ``BENCH_<rev>.json`` snapshot:
us/query per engine, speedup vs reference, and the chunked engine's
chunk-size histogram.  Committing one snapshot per optimisation PR gives
the repo a *trajectory* -- the numbers that justify each engine change stay
reproducible instead of living in PR descriptions.

Each sweep also carries a **per-kernel matrix dimension**: every
registered scheduling kernel (see :mod:`repro.kernels`) that can run in
this environment is timed over the full trace, reporting whole-engine
us/query, **in-kernel** us/query (the ``commit_batch`` wall: sweep +
commit -- bench traces have no actions, so every kernel takes the bulk
seam, python-looped or C-fused), the **engine residual**
(``us_per_query - sweep_us_per_query``: the numpy flush and span
bookkeeping outside the kernel), its in-kernel speedup over the
``exact_numpy`` oracle (the column that shows what the C fusion bought:
the oracle's in-kernel wall is a python sweep+commit loop, the compiled
kernel's is one C call per chunk), its end-to-end speedup over the
oracle run, and whether its results matched the oracle bit for bit.
Kernels that cannot run (e.g. ``compiled`` without a C toolchain) are
recorded as unavailable with the reason -- the CI artifact shows what
the runner could and could not build, without failing the gate over it.

``repro bench --check benchmarks/baseline.json`` is the CI gate.  Absolute
us/query is machine-dependent (shared CI runners differ wildly), so the
gate compares **speedup-vs-reference ratios**, which divide the machine
out: both engines run in the same process on the same host, so their ratio
is stable across hardware.  The gate fails when

* a sweep's speedup falls below the hard floor (5x, the ISSUE-2 acceptance
  bar), or
* a sweep's speedup regresses more than ``--max-regression`` (default 30%)
  relative to the committed baseline, or
* the batched engine's sampled results stop matching the reference path
  (a speedup with wrong answers is not a speedup).

Refresh the baseline after a *justified* performance change with::

    repro bench --profile full --out benchmarks/baseline.json
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "PROFILES",
    "OVERLOAD_PROFILES",
    "SweepSpec",
    "run_sweep",
    "overload_snapshot",
    "collect",
    "check_against_baseline",
    "baseline_warnings",
    "render_report",
]

#: Hard floor on batched-vs-reference speedup (the ISSUE-2 acceptance bar,
#: enforced by CI on every sweep).
MIN_SPEEDUP = 5.0

#: Default tolerated relative speedup regression vs the committed baseline.
MAX_REGRESSION = 0.30


@dataclass(frozen=True)
class SweepSpec:
    """One standard sweep configuration.

    With ``trace`` set, the arrival stream comes from that file through
    the dataloader registry (:mod:`repro.traces`) instead of the Poisson
    sampler -- ``queries``/``rate`` are then ignored and reported from
    the trace itself.
    """

    name: str
    servers: int
    queries: int
    rate: float
    pq: int
    #: reference-path queries actually executed (us/query extrapolates);
    #: the full trace through the reference path would take minutes.
    ref_queries: int
    dataset: float = 5e6
    seed: int = 2
    trace: str | None = None
    trace_loader: str | None = None


#: The standard sweeps.  ``full`` is the committed-trajectory profile;
#: ``quick`` is for development iteration; ``smoke`` keeps the unit tests
#: and CLI coverage fast.
PROFILES: dict[str, tuple[SweepSpec, ...]] = {
    "full": (
        SweepSpec("200-server", 200, 100_000, 300.0, 5, 1500),
        SweepSpec("1k-server", 1000, 50_000, 1500.0, 5, 300),
    ),
    "quick": (
        SweepSpec("200-server", 200, 30_000, 300.0, 5, 800),
        SweepSpec("1k-server", 1000, 10_000, 1500.0, 5, 200),
    ),
    "smoke": (
        SweepSpec("200-server", 16, 500, 40.0, 4, 120),
        SweepSpec("1k-server", 24, 500, 60.0, 4, 120),
    ),
}


#: overload-battery shape per profile: (n_servers, duration) for the
#: sustained-overload scenario swept over every admission policy.
OVERLOAD_PROFILES: dict[str, tuple[int, float]] = {
    "full": (16, 30.0),
    "quick": (16, 20.0),
    "smoke": (10, 10.0),
}


def overload_snapshot(profile: str = "full") -> dict:
    """Goodput/shed-rate/p99 per admission policy under 2x overload.

    Runs the ``sustained-overload`` builtin scenario (Poisson at twice
    pool capacity) once per admission policy and records the quantities
    the overload battery pins: goodput (completed-within-SLO per second),
    shed rate, and p99 delay.  These are simulated-time quantities --
    deterministic, machine-independent -- so unlike the us/query sweeps
    they are directly comparable across snapshots; the baseline gate
    still never compares them (it iterates the baseline's ``sweeps``
    only), so the rows ride along gate-neutral.
    """
    import dataclasses

    from .scenarios import builtin_scenarios, run_scenario_spec

    n_servers, duration = OVERLOAD_PROFILES[profile]
    scens = builtin_scenarios(
        n_servers=n_servers, duration=duration, p=4, seed=2
    )
    base = next(s for s in scens if s.name == "sustained-overload")
    out: dict = {}
    for policy in ("none", "aimd", "delay_gated"):
        scenario = dataclasses.replace(
            base, admission=dataclasses.replace(base.admission, policy=policy)
        )
        r = run_scenario_spec(scenario, engine="batched")
        out[policy] = {
            "offered": r.offered,
            "completed": r.completed,
            "shed": r.shed,
            "shed_rate": round(r.shed_rate, 4),
            "goodput": round(r.goodput, 3),
            "p99_delay": round(r.p99_delay, 6),
        }
    return out


def _chunk_histogram(chunk_sizes) -> dict[str, int]:
    """Power-of-two buckets: {"<=64": n, "<=128": n, ...}."""
    hist: dict[str, int] = {}
    for size in chunk_sizes:
        bucket = 64
        while size > bucket:
            bucket *= 2
        key = f"<={bucket}"
        hist[key] = hist.get(key, 0) + 1
    return dict(sorted(hist.items(), key=lambda kv: int(kv[0][2:])))


def run_sweep(
    spec: SweepSpec,
    kernels: Sequence[str] | None = None,
    archive_dir: str | None = None,
) -> dict:
    """Run one sweep; returns the JSON-ready result dict.

    *kernels* names the scheduling kernels to time on top of the default
    batched run (default: every registered kernel available in this
    environment).  Each kernel row reports whole-engine us/query plus the
    sweep-only us/query (the deployment's accumulated scheduling
    wall-clock), and whether its per-query delays matched the exact run
    bit for bit -- the per-kernel matrix dimension the CI artifact carries.
    *archive_dir* writes the batched run's telemetry columns as a
    compressed archive (``<sweep>.npz``).
    """
    from .cluster import Deployment, DeploymentConfig, hen_testbed
    from .kernels import DEFAULT_KERNEL, get_kernel, kernel_names
    from .kernels.base import KernelUnavailableError
    from .kernels.registry import canonical_spec
    from .sim import batched_poisson_times

    # validate + canonicalise the requested kernels (resolve aliases, catch
    # typos) BEFORE the sweeps run: an unknown name must fail in
    # milliseconds, not after minutes of benchmarking
    requested = [
        canonical_spec(name)
        for name in (kernels if kernels is not None else kernel_names())
    ]

    def build():
        return Deployment(
            DeploymentConfig(
                models=hen_testbed(spec.servers),
                p=spec.pq,
                dataset_size=spec.dataset,
                seed=spec.seed,
                charge_scheduling=False,
            )
        )

    if spec.trace is not None:
        from .traces import load_trace

        arrivals = load_trace(spec.trace, loader=spec.trace_loader).arrivals.tolist()
    else:
        arrivals = batched_poisson_times(spec.rate, spec.queries, seed=4).tolist()
    n_queries = len(arrivals)

    fast = build()
    t0 = time.perf_counter()
    result = fast.run_queries_fast(arrivals, spec.pq)
    fast_wall = time.perf_counter() - t0
    fast_us = 1e6 * fast_wall / n_queries
    exact_delays = fast.log.delays()
    exact_sweep_us = 1e6 * fast.scheduling_wallclock / n_queries

    # phase attribution: a separate profiled run, so the headline us/query
    # above is never perturbed.  Results are bit-identical by contract
    # (checked cheaply here), and the per-phase us/query lands in the
    # snapshot so --check can attribute speedup drift to a phase.
    prof_dep = build()
    prof_result = prof_dep.run_queries_fast(arrivals, spec.pq, profile=True)
    if prof_dep.log.delays() != exact_delays:  # pragma: no cover
        raise RuntimeError(
            f"{spec.name}: profiled run diverged from the unprofiled run"
        )
    phases = prof_result.profile.phase_us_per_query(n_queries)
    profile_coverage = round(prof_result.profile.coverage(), 4)

    if archive_dir is not None:
        import os

        from .obs.manifest import build_manifest
        from .telemetry.archive import write_archive

        os.makedirs(archive_dir, exist_ok=True)
        write_archive(
            os.path.join(archive_dir, f"{spec.name}.npz"),
            fast,
            meta={
                "sweep": spec.name,
                "servers": spec.servers,
                "queries": n_queries,
                "pq": spec.pq,
                "seed": spec.seed,
                "manifest": build_manifest(
                    kernel="exact_numpy",
                    seeds={"deployment": spec.seed, "arrivals": 4},
                    config={
                        "sweep": spec.name,
                        "servers": spec.servers,
                        "queries": n_queries,
                        "pq": spec.pq,
                    },
                    profile=prof_result.profile,
                ),
            },
        )

    ref = build()
    n_ref = min(spec.ref_queries, n_queries)
    t0 = time.perf_counter()
    ref.run_queries(arrivals[:n_ref], spec.pq)
    ref_wall = time.perf_counter() - t0
    ref_us = 1e6 * ref_wall / n_ref

    # the speedup is meaningless unless the engines agree: compare the
    # reference subset's delays against the batched run, bit for bit
    identical = ref.log.delays() == exact_delays[:n_ref]

    # per-kernel dimension: the default run above *is* the exact_numpy row.
    # "sweep_us_per_query" is the in-kernel wall (scheduling wallclock):
    # every kernel commits through commit_batch, so this covers sweep +
    # commit for all of them -- python-looped for the python kernels, one
    # C call per chunk for the compiled one (that contrast is the fusion
    # win).  "commit_us_per_query" is the engine residual
    # (us_per_query - sweep_us_per_query): numpy flush + span bookkeeping.
    kernel_rows: dict[str, dict] = {
        DEFAULT_KERNEL: {
            "available": True,
            "us_per_query": round(fast_us, 3),
            "sweep_us_per_query": round(exact_sweep_us, 3),
            "commit_us_per_query": round(fast_us - exact_sweep_us, 3),
            "sweep_speedup_vs_exact": 1.0,
            "speedup_vs_exact": 1.0,
            "identical_to_exact": True,
        }
    }
    for name in requested:
        if name in kernel_rows:
            continue
        try:
            kernel = get_kernel(name)
        except KernelUnavailableError as exc:
            kernel_rows[name] = {"available": False, "reason": str(exc)}
            continue
        dep = build()
        t0 = time.perf_counter()
        dep.run_queries_fast(arrivals, spec.pq, kernel=kernel)
        wall = time.perf_counter() - t0
        us = 1e6 * wall / n_queries
        sweep_us = 1e6 * dep.scheduling_wallclock / n_queries
        kernel_rows[name] = {
            "available": True,
            "us_per_query": round(us, 3),
            "sweep_us_per_query": round(sweep_us, 3),
            "commit_us_per_query": round(us - sweep_us, 3),
            "sweep_speedup_vs_exact": round(exact_sweep_us / sweep_us, 2),
            "speedup_vs_exact": round(fast_us / us, 2),
            "identical_to_exact": dep.log.delays() == exact_delays,
        }

    # latency distribution columns (seconds, simulated latency only --
    # charge_scheduling=False above), via the bit-exact array percentile
    from .telemetry.columns import array_percentile

    lat = fast.log.column("finish") - fast.log.column("arrival")
    out: dict = {} if spec.trace is None else {"trace": spec.trace}
    out.update({
        "servers": spec.servers,
        "queries": n_queries,
        "rate": spec.rate,
        "pq": spec.pq,
        "ref_queries": n_ref,
        "fast_us_per_query": round(fast_us, 3),
        "ref_us_per_query": round(ref_us, 3),
        "speedup_vs_reference": round(ref_us / fast_us, 2),
        "p50_delay": round(array_percentile(lat, 50), 6),
        "p95_delay": round(array_percentile(lat, 95), 6),
        "p99_delay": round(array_percentile(lat, 99), 6),
        "identical_sample": identical,
        "completed": result.completed,
        "delegated": result.delegated,
        "chunks": len(result.chunk_sizes),
        "chunk_size_histogram": _chunk_histogram(result.chunk_sizes),
        #: per-phase us/query from the separate profiled run (the engine's
        #: wall split by phase; see repro.obs.profiler) + how much of that
        #: run's wall the phases explain.
        "phases": phases,
        "profile_coverage": profile_coverage,
        "kernels": kernel_rows,
    })
    return out


def _revision() -> str:
    from .obs.manifest import git_revision

    return git_revision()


def collect(
    profile: str = "full",
    progress=None,
    kernels: Sequence[str] | None = None,
    archive_dir: str | None = None,
    trace: str | None = None,
    trace_loader: str | None = None,
) -> dict:
    """Run every sweep of *profile* and assemble the snapshot dict.

    *trace* adds one real-trace sweep replaying that file (through the
    :mod:`repro.traces` registry) on a small fleet.  The baseline gate
    never compares it -- :func:`check_against_baseline` iterates the
    *baseline*'s sweeps, so an extra trace row rides along gate-neutral.
    """
    if profile not in PROFILES:
        raise ValueError(
            f"unknown profile {profile!r}; pick one of {sorted(PROFILES)}"
        )
    specs = list(PROFILES[profile])
    if trace is not None:
        specs.append(SweepSpec(
            "trace", servers=16, queries=0, rate=0.0, pq=4,
            ref_queries=120, trace=trace, trace_loader=trace_loader,
        ))
    sweeps = {}
    for spec in specs:
        sweeps[spec.name] = run_sweep(spec, kernels=kernels, archive_dir=archive_dir)
        if progress is not None:
            progress(spec.name, sweeps[spec.name])
    from .obs.manifest import build_manifest

    return {
        "schema": 1,
        "revision": _revision(),
        "profile": profile,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "host": platform.node(),
        #: full provenance (git rev, host, machine, python) -- makes
        #: cross-machine BENCH trajectories unambiguous; baseline_warnings
        #: reads it to flag host mismatches (warn, never gate).
        "manifest": build_manifest(extra={"bench_profile": profile}),
        "sweeps": sweeps,
        #: admission-policy comparison under sustained 2x overload --
        #: deterministic simulated-time rows, never gated (the baseline
        #: gate iterates "sweeps" only).
        "overload": overload_snapshot(profile),
    }


def _attribute_drift(cur: dict, base: dict) -> str:
    """Name the phase whose share of the engine wall grew the most.

    Both sweeps must carry the ``phases`` dict (per-phase us/query from
    the profiled run); phase shares are machine-independent in the same
    way speedup ratios are -- every phase ran on the same host in the
    same process -- so comparing them across snapshots is meaningful
    where absolute us/query is not.
    """
    cur_ph, base_ph = cur.get("phases"), base.get("phases")
    if not cur_ph or not base_ph:
        return ""
    cur_total = sum(cur_ph.values())
    base_total = sum(base_ph.values())
    if cur_total <= 0 or base_total <= 0:
        return ""
    deltas = {
        name: cur_ph.get(name, 0.0) / cur_total - base_ph.get(name, 0.0) / base_total
        for name in set(cur_ph) | set(base_ph)
    }
    worst = max(deltas, key=deltas.get)
    if deltas[worst] <= 0:
        return ""
    return (
        f" [phase attribution: {worst} grew from "
        f"{100 * base_ph.get(worst, 0.0) / base_total:.0f}% to "
        f"{100 * cur_ph.get(worst, 0.0) / cur_total:.0f}% of engine wall]"
    )


def check_against_baseline(
    current: dict,
    baseline: dict,
    max_regression: float = MAX_REGRESSION,
    min_speedup: float = MIN_SPEEDUP,
) -> list[str]:
    """Gate *current* against *baseline*; returns the list of violations.

    Only machine-independent ratios gate: us/query numbers are recorded
    for the trajectory but never compared across runs.  Speedup
    violations carry a phase attribution when both snapshots have the
    per-phase profile columns, so a regression names its suspect phase.
    """
    problems = []
    for name, base in baseline.get("sweeps", {}).items():
        cur = current.get("sweeps", {}).get(name)
        if cur is None:
            problems.append(f"{name}: sweep missing from current run")
            continue
        if not cur.get("identical_sample", False):
            problems.append(
                f"{name}: batched results diverged from the reference sample"
            )
        speedup = cur.get("speedup_vs_reference", 0.0)
        drift = _attribute_drift(cur, base)
        if speedup < min_speedup:
            problems.append(
                f"{name}: speedup {speedup:.2f}x below the "
                f"{min_speedup:g}x floor{drift}"
            )
        # a "30% regression" means losing 30% of the baseline's speedup
        floor = base.get("speedup_vs_reference", 0.0) * (1.0 - max_regression)
        if speedup < floor:
            problems.append(
                f"{name}: speedup {speedup:.2f}x regressed more than "
                f"{100 * max_regression:.0f}% vs baseline "
                f"{base['speedup_vs_reference']:.2f}x (floor {floor:.2f}x){drift}"
            )
    return problems


def baseline_warnings(current: dict, baseline: dict) -> list[str]:
    """Non-gating advisories when comparing *current* against *baseline*.

    A host/machine mismatch does not fail the gate (only ratios gate, and
    ratios divide the machine out) but it *does* make the absolute
    trajectory ambiguous -- so say so.
    """
    warnings = []
    cur_m = current.get("manifest", {})
    base_m = baseline.get("manifest", {})
    cur_host = cur_m.get("host", current.get("host"))
    base_host = base_m.get("host", baseline.get("host"))
    if cur_host and base_host and cur_host != base_host:
        warnings.append(
            f"host mismatch: current ran on {cur_host!r}, baseline on "
            f"{base_host!r} -- absolute us/query is not comparable "
            "(ratios still gate)"
        )
    cur_mach = cur_m.get("machine", current.get("machine"))
    base_mach = base_m.get("machine", baseline.get("machine"))
    if cur_mach and base_mach and cur_mach != base_mach:
        warnings.append(
            f"machine mismatch: {cur_mach!r} vs baseline {base_mach!r}"
        )
    return warnings


def render_report(snapshot: dict, baseline: Optional[dict] = None) -> str:
    lines = [
        f"bench @ {snapshot['revision']} (profile={snapshot['profile']}, "
        f"py{snapshot['python']}/{snapshot['machine']})",
        f"{'sweep':12s} {'servers':>7s} {'queries':>8s} {'fast us/q':>10s} "
        f"{'ref us/q':>10s} {'speedup':>8s} {'chunks':>7s} {'ok':>3s}",
    ]
    for name, s in snapshot["sweeps"].items():
        base = ""
        if baseline is not None:
            b = baseline.get("sweeps", {}).get(name)
            if b:
                base = f"  (baseline {b['speedup_vs_reference']:.1f}x)"
        lines.append(
            f"{name:12s} {s['servers']:>7d} {s['queries']:>8d} "
            f"{s['fast_us_per_query']:>10.1f} {s['ref_us_per_query']:>10.1f} "
            f"{s['speedup_vs_reference']:>7.1f}x {s['chunks']:>7d} "
            f"{'yes' if s['identical_sample'] else 'NO':>3s}{base}"
        )
        phases = s.get("phases")
        if phases:
            top = sorted(phases.items(), key=lambda kv: -kv[1])[:4]
            lines.append(
                "  phases "
                + "  ".join(f"{k} {v:.2f}" for k, v in top)
                + f" us/q (coverage {s.get('profile_coverage', 0.0):.0%})"
            )
        for kname, k in s.get("kernels", {}).items():
            if not k.get("available", False):
                lines.append(
                    f"  kernel {kname:12s} unavailable "
                    f"({k.get('reason', 'unknown')})"
                )
                continue
            commit = k.get("commit_us_per_query")
            commit_txt = f"commit {commit:>5.1f} us/q  " if commit is not None else ""
            vs_exact = k.get("speedup_vs_exact")
            vs_txt = f"{vs_exact:>5.2f}x e2e  " if vs_exact is not None else ""
            lines.append(
                f"  kernel {kname:12s} {k['us_per_query']:>7.1f} us/q  "
                f"kernel {k['sweep_us_per_query']:>5.1f} us/q  "
                f"{commit_txt}"
                f"{vs_txt}"
                f"{'exact' if k['identical_to_exact'] else 'diverges'}"
            )
    overload = snapshot.get("overload")
    if overload:
        lines.append(
            f"overload (sustained 2x): {'policy':12s} {'goodput':>8s} "
            f"{'shed%':>6s} {'p99 ms':>8s}"
        )
        for policy, row in overload.items():
            lines.append(
                f"{'':25s}{policy:12s} {row['goodput']:>8.1f} "
                f"{100.0 * row['shed_rate']:>6.1f} "
                f"{1000.0 * row['p99_delay']:>8.1f}"
            )
    return "\n".join(lines)


def main_bench(args) -> int:
    """Handler behind ``repro bench`` (see :mod:`repro.cli`)."""
    import sys

    def progress(name, s):
        print(
            f"[{name}] fast {s['fast_us_per_query']:.1f} us/q, "
            f"ref {s['ref_us_per_query']:.1f} us/q, "
            f"{s['speedup_vs_reference']:.1f}x",
            file=sys.stderr,
        )

    # read the baseline *before* the sweeps run, so a bad path fails in
    # milliseconds instead of after minutes of benchmarking
    baseline = None
    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
    kernels = None
    raw_kernels = getattr(args, "kernels", None)
    if raw_kernels is not None:
        from .kernels.registry import canonical_spec

        try:
            kernels = [
                canonical_spec(k.strip())
                for k in raw_kernels.split(",")
                if k.strip()
            ]
        except ValueError as exc:
            print(f"bad --kernels: {exc}", file=sys.stderr)
            return 2
    snapshot = collect(
        args.profile,
        progress=progress,
        kernels=kernels,
        archive_dir=getattr(args, "archive_dir", None),
        trace=getattr(args, "trace", None),
        trace_loader=getattr(args, "trace_loader", None),
    )
    print(render_report(snapshot, baseline))

    out = args.out or f"BENCH_{snapshot['revision']}.json"
    with open(out, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nsnapshot written to {out}")

    if baseline is not None:
        for warning in baseline_warnings(snapshot, baseline):
            print(f"warning: {warning}", file=sys.stderr)
        problems = check_against_baseline(
            snapshot, baseline, max_regression=args.max_regression
        )
        if problems:
            print("\nBENCH GATE FAILED:", file=sys.stderr)
            for p in problems:
                print(f"  - {p}", file=sys.stderr)
            return 1
        print(
            f"\nbench gate ok (speedups within {100 * args.max_regression:.0f}% "
            f"of baseline, all >= {MIN_SPEEDUP:g}x)"
        )
    return 0
