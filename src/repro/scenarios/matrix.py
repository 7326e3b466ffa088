"""Scenario grids: sweep many environments, emit one comparable table.

This is the "Contracts" discipline applied to ROAR: a mechanism's
guarantees only mean something across a *matrix* of environments, so the
default battery stresses every axis the paper claims ROAR handles --
steady load, extreme heterogeneity, Zipf write skew, flash crowds, diurnal
cycles, correlated rack failures, membership churn, online re-partitioning
under a closed loop, and adversarial compositions of the above.

``repro matrix`` is the CLI veneer; tests sweep reduced grids.
:func:`control_scenario` states the ``repro control`` closed loops in the
same vocabulary.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..telemetry.columns import array_percentile
from ..telemetry.records import DelayLog
from ..traces.spec import TraceSpec
from .runner import ScenarioResult, auto_rate, build_models, run_scenario_spec
from .spec import (
    AdmissionSpec,
    ChurnSpec,
    ControlSpec,
    EventSpec,
    Scenario,
    UpdateSpec,
    WorkloadSpec,
)

__all__ = [
    "CONTROL_KINDS",
    "MatrixResult",
    "builtin_scenarios",
    "control_scenario",
    "phase_p99s",
    "render_table",
    "run_matrix",
    "trace_scenario",
]

#: The closed-loop stimuli of :func:`control_scenario`, each with the
#: fraction of the run at which it hits (the before/crisis boundary).
CONTROL_KINDS = {"flash-crowd": 0.25, "diurnal": 0.5, "rack-failure": 0.4}


def builtin_scenarios(
    n_servers: int = 20,
    duration: float = 40.0,
    p: int = 4,
    dataset_size: float = 2_000_000.0,
    seed: int = 1,
    rate: float | None = None,
) -> list[Scenario]:
    """The default battery: ten environments over one cluster shape.

    *rate* defaults to ~35% pool utilisation so differences between
    scenarios come from their stimuli, not from baseline overload.  The
    two ``*-overload`` scenarios deliberately exceed pool capacity and
    carry an :class:`~repro.scenarios.spec.AdmissionSpec` (default policy
    ``none``, so they stay bit-identical accept-all runs) whose tuning
    knobs are shared across policies -- ``repro matrix --admission
    none,aimd,delay_gated`` compares shedding policies Contracts-style on
    identical stimuli.
    """
    probe = Scenario(name="_probe", n_servers=n_servers, p=p, dataset_size=dataset_size)
    hen_models = build_models(probe)
    base_rate = rate if rate is not None else auto_rate(hen_models, p, dataset_size)
    # hetero-extreme keeps the hen pool's mean speed but with a 4x spread,
    # so its stress is the *heterogeneity*, not a miscalibrated load.
    mean_speed = sum(m.speed(True) for m in hen_models) / len(hen_models)
    pattern = [4.0 if i % 4 == 0 else 1.0 for i in range(n_servers)]
    scale = mean_speed / (sum(pattern) / len(pattern))
    hetero_speeds = tuple(scale * x for x in pattern)

    def wl(kind: str, **kw) -> WorkloadSpec:
        return WorkloadSpec(kind=kind, rate=base_rate, duration=duration, **kw)

    common = dict(
        n_servers=n_servers, p=p, dataset_size=dataset_size, seed=seed
    )
    t = duration  # shorthand for event timing
    # pool capacity (100% utilisation) anchors the overload scenarios and
    # the AIMD rate knobs, so "2x overload" means 2x regardless of shape
    cap_rate = auto_rate(hen_models, p, dataset_size, target_util=1.0)
    overload_admission = AdmissionSpec(
        policy="none",  # accept-all default; --admission swaps the policy
        slo=1.0,
        window=5.0,
        cap_multiple=0.5,
        tick=1.0,
        floor=0.25 * cap_rate,
        capacity=1.25 * cap_rate,
        rate=0.75 * cap_rate,
        increase=0.05 * cap_rate,
        decrease=0.5,
        burst=4.0,
    )
    return [
        Scenario(
            name="steady",
            description="Poisson baseline on the heterogeneous hen fleet",
            workload=wl("poisson"),
            **common,
        ),
        Scenario(
            name="hetero-extreme",
            description="4x speed spread; scheduler must exploit fast nodes",
            workload=wl("poisson"),
            fleet="custom",
            speeds=hetero_speeds,
            **common,
        ),
        Scenario(
            name="zipf-updates",
            description="steady queries + Zipf-1.1 update skew on hot arcs",
            workload=wl("poisson"),
            updates=UpdateSpec(rate=4.0 * base_rate, zipf_s=1.1),
            events=(EventSpec(at=0.6 * t, action="rebalance"),),
            **common,
        ),
        Scenario(
            name="flash-crowd",
            description="4x surge for 30% of the run, exponential decay",
            workload=wl("flash-crowd"),
            **common,
        ),
        Scenario(
            name="diurnal",
            description="one 3:1 peak-to-trough sinusoidal period",
            workload=wl("diurnal"),
            **common,
        ),
        Scenario(
            name="rack-failure",
            description="a quarter of the fleet fail-stops under ~65% load",
            # ~65% baseline load: the survivors absorb the dead quarter's
            # work, so the failure is visible as queueing, not just yield.
            workload=WorkloadSpec(
                kind="poisson", rate=1.8 * base_rate, duration=duration
            ),
            events=(
                EventSpec(at=0.4 * t, action="fail-rack", count=max(2, n_servers // 4)),
                EventSpec(at=0.7 * t, action="rebuild"),
            ),
            **common,
        ),
        Scenario(
            name="churn",
            description="a server joins and one drains every few seconds",
            workload=wl("poisson"),
            churn=ChurnSpec(interval=max(2.0, duration / 10.0), add=1, remove=1),
            **common,
        ),
        Scenario(
            name="crowd-x-rack",
            description="flash crowd AND rack failure mid-surge, SLO loop on",
            workload=wl("flash-crowd"),
            events=(
                EventSpec(at=0.45 * t, action="fail-rack", count=max(2, n_servers // 8)),
                EventSpec(at=0.8 * t, action="recover"),
            ),
            control=ControlSpec(
                policies=("elasticity",),
                slo_p99=1.0,
                interval=max(2.0, duration / 16.0),
            ),
            **common,
        ),
        Scenario(
            name="sustained-overload",
            description="Poisson at 2x pool capacity; shed or drown",
            workload=WorkloadSpec(
                kind="poisson", rate=2.0 * cap_rate, duration=duration
            ),
            admission=overload_admission,
            **common,
        ),
        Scenario(
            name="flash-overload",
            description="flash crowd surging 5x past 60% baseline load",
            workload=WorkloadSpec(
                kind="flash-crowd",
                rate=0.6 * cap_rate,
                duration=duration,
                surge_factor=5.0,
            ),
            admission=overload_admission,
            **common,
        ),
    ]


def trace_scenario(
    source: str,
    loader: str | None = None,
    name: str = "trace",
    n_servers: int = 20,
    p: int = 4,
    dataset_size: float = 2_000_000.0,
    seed: int = 1,
    time_scale: float = 1.0,
    limit: int | None = None,
) -> Scenario:
    """A scenario replaying the external request log *source*.

    The trace's arrivals (and any update rows) drive the engines through
    the exact-time query and update streams, so a real log is a
    first-class matrix row alongside the synthetic battery (``repro
    matrix --trace``).
    """
    return Scenario(
        name=name,
        description=f"replay of {source}",
        workload=TraceSpec(
            source=str(source), loader=loader,
            time_scale=time_scale, limit=limit,
        ),
        n_servers=n_servers,
        p=p,
        dataset_size=dataset_size,
        seed=seed,
    )


def control_scenario(
    kind: str = "flash-crowd",
    n_servers: int = 16,
    p: int = 4,
    duration: float = 240.0,
    rate: float | None = None,
    slo: float = 1.0,
    policies: Sequence[str] = ("elasticity", "repartition"),
    planner: bool = False,
    seed: int = 1,
) -> Scenario:
    """One closed-loop control run (``repro control``) as a scenario.

    A flash crowd, a compressed diurnal cycle, or a correlated failure of
    rack servers 0-2 under steady load (rebuilt by membership 45 s later)
    hits a deployment that keeps object stores, so the *policies* can
    walk ``p`` online as well as resize the server set.  *rate* is the
    base arrival rate (default: ~30% pool utilisation).

    Example::

        >>> s = control_scenario("rack-failure", n_servers=8, p=3, duration=100.0)
        >>> [(e.at, e.action) for e in s.events]
        [(40.0, 'fail-rack'), (85.0, 'rebuild')]
        >>> s.control.policies, s.needs_stores
        (('elasticity', 'repartition'), True)
    """
    if kind not in CONTROL_KINDS:
        raise ValueError(
            f"unknown control scenario {kind!r}; pick one of {tuple(CONTROL_KINDS)}"
        )
    probe = Scenario(name="_probe", n_servers=n_servers, p=p)
    if rate is None:
        rate = auto_rate(build_models(probe), p, probe.dataset_size, target_util=0.30)
    events: tuple[EventSpec, ...] = ()
    if kind == "rack-failure":
        # a rebuild past the horizon is dropped by the runner
        t_fail = CONTROL_KINDS[kind] * duration
        events = (
            EventSpec(at=t_fail, action="fail-rack", count=3, value=0),
            EventSpec(at=t_fail + 45.0, action="rebuild"),
        )
    return Scenario(
        name=f"control-{kind}",
        description=f"closed loop ({', '.join(policies)}) against {kind}",
        workload=WorkloadSpec(
            kind="poisson" if kind == "rack-failure" else kind,
            rate=rate,
            duration=duration,
        ),
        n_servers=n_servers,
        p=p,
        seed=seed,
        events=events,
        control=ControlSpec(
            policies=tuple(policies), slo_p99=slo, planner=planner
        ),
        store_objects=True,
        n_objects_stored=240,
    )


def phase_p99s(
    log: DelayLog, kind: str, duration: float
) -> tuple[float, float, float]:
    """p99 delay before a :func:`control_scenario` stimulus, over the
    quarter-run crisis after it, and over the run's last fifth.

    Reads the log's arrival/finish columns directly; a phase no query
    arrived in reports NaN.
    """
    arrival = log.column("arrival")
    delay = log.column("finish") - arrival
    t_s = CONTROL_KINDS[kind] * duration

    def p99(mask) -> float:
        return array_percentile(delay[mask], 99) if mask.any() else math.nan

    return (
        p99(arrival < t_s),
        p99((arrival >= t_s) & (arrival < t_s + 0.25 * duration)),
        p99(arrival >= duration - 0.20 * duration),
    )


@dataclass
class MatrixResult:
    """Results of one grid sweep, renderable as an aligned table or CSV."""

    results: list[ScenarioResult] = field(default_factory=list)

    COLUMNS = (
        "scenario",
        "engine",
        "kernel",
        "servers",
        "p/pq",
        "queries",
        "yield%",
        "mean_ms",
        "p99_ms",
        "qps",
        "util%",
        "updates",
        "events",
        "ctl",
        "adm",
        "goodput",
        "shed%",
        "plan_p",
        "wall_s",
    )

    def rows(self) -> list[list[str]]:
        out = []
        for r in self.results:
            srv = (
                f"{r.servers_start}"
                if r.servers_start == r.servers_end
                else f"{r.servers_start}->{r.servers_end}"
            )
            out.append(
                [
                    r.scenario.name,
                    r.engine,
                    r.kernel,
                    srv,
                    f"{r.p_store_end:g}/{r.pq_end}",
                    str(r.offered),
                    f"{100.0 * r.yield_fraction:.1f}",
                    _ms(r.mean_delay),
                    _ms(r.p99_delay),
                    f"{r.throughput:.1f}",
                    f"{100.0 * r.mean_utilisation:.0f}",
                    str(r.updates_applied),
                    str(r.events_applied),
                    str(r.control_actions),
                    (
                        r.scenario.admission.policy.partition(":")[0]
                        if r.scenario.admission is not None
                        else "-"
                    ),
                    "-" if math.isnan(r.goodput) else f"{r.goodput:.1f}",
                    f"{100.0 * r.shed_rate:.1f}",
                    "-" if r.planned_p is None else str(r.planned_p),
                    f"{r.wall_seconds:.2f}",
                ]
            )
        return out

    def table(self) -> str:
        return render_table(self.COLUMNS, self.rows())

    def to_csv(self) -> str:
        lines = [",".join(self.COLUMNS)]
        for row in self.rows():
            lines.append(",".join(str(c) for c in row))
        return "\n".join(lines) + "\n"


def _ms(x: float) -> str:
    if math.isnan(x):
        return "-"
    return f"{1000.0 * x:.1f}"


def render_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(str(h)) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def run_matrix(
    scenarios: Sequence[Scenario],
    engine: str = "batched",
    kernel: str | None = None,
    progress: Optional[Callable[[Scenario, ScenarioResult], None]] = None,
    archive_dir: str | None = None,
) -> MatrixResult:
    """Run every scenario and collect the comparable table.

    *kernel* overrides every scenario's ``kernel:`` field (batched engine
    only; the reference engine schedules through the original heap).
    *archive_dir* writes one compressed telemetry archive
    (``<scenario>.npz``; see :mod:`repro.telemetry.archive`) per scenario.
    """
    if archive_dir is not None:
        os.makedirs(archive_dir, exist_ok=True)
    out = MatrixResult()
    for scenario in scenarios:
        archive_path = (
            os.path.join(archive_dir, f"{scenario.name}.npz")
            if archive_dir is not None
            else None
        )
        result = run_scenario_spec(
            scenario, engine=engine, kernel=kernel, archive_path=archive_path
        )
        out.results.append(result)
        if progress is not None:
            progress(scenario, result)
    return out
