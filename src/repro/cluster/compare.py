"""The Chapter 6 comparison harness: query delay across DR algorithms.

Implements the paper's numerical simulation (Section 6.1, "Simulator"):
queries arrive Poisson; the front-end splits each into exactly ``p`` parts,
predicts per-server finish times from speed estimates and outstanding work,
and picks servers according to the algorithm under test; servers execute
serially.  Delays are logged and the exploding-queue slope test applied.

Algorithms compared: ROAR (single / multi-ring, optional optimisations),
PTN, SW, plus the analytical optimum bound.  Speed-estimation noise can be
injected for the Fig 6.5 robustness study.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .._rng import ensure_rng
from ..core.adjust import adjust_ranges, plan_from_schedule, split_slowest
from ..core.ring import Ring, RingNode
from ..core.scheduler import schedule_heap, schedule_naive, schedule_random
from ..rendezvous import PTN, RoarAlgorithm, ServerInfo, SlidingWindow
from ..sim.server import SimServer
from ..sim.workload import PoissonArrivals
from ..telemetry.records import DelayLog, QueryRecord

__all__ = ["ComparisonConfig", "ComparisonResult", "run_comparison", "heterogeneous_speeds"]


def heterogeneous_speeds(
    n: int,
    heterogeneity: float = 0.5,
    rng: random.Random | None = None,
    mean: float = 1.0,
) -> list[float]:
    """Server speeds with controllable spread (Fig 6.4's x-axis).

    ``heterogeneity`` 0 gives identical servers; h in (0, 1] draws speeds
    uniformly from ``mean * [1-h, 1+h]`` -- same total capacity in
    expectation, growing variance.
    """
    if not 0.0 <= heterogeneity <= 1.0:
        raise ValueError("heterogeneity must be in [0, 1]")
    rng = ensure_rng(rng)
    if heterogeneity == 0.0:
        return [mean] * n
    return [mean * rng.uniform(1.0 - heterogeneity, 1.0 + heterogeneity) for _ in range(n)]


@dataclass
class ComparisonConfig:
    """One comparison run."""

    algorithm: str  # "roar", "ptn", "sw", "roar2" (two rings), "opt"
    n_servers: int = 90
    p: int = 9
    pq: int | None = None  # ROAR only: query partitioning > p
    dataset_size: float = 1_000_000.0
    query_rate: float = 2.0
    n_queries: int = 2000
    fixed_overhead: float = 0.0
    speeds: Sequence[float] | None = None
    speed_error: float = 0.0  # relative estimate noise (Fig 6.5)
    seed: int = 1
    #: ROAR optimisation toggles (Fig 6.7 ablation).
    adjust: bool = False
    splits: int = 0
    scheduler: str = "heap"  # "heap" | "naive" | "random"
    random_starts: int = 3


@dataclass
class ComparisonResult:
    config: ComparisonConfig
    log: DelayLog
    mean_delay: float
    raw_mean_delay: float
    p99_delay: float
    exploding: bool
    server_utilisation: float


def _make_servers(
    speeds: Sequence[float], fixed_overhead: float
) -> dict[str, SimServer]:
    return {
        f"node-{i}": SimServer(f"node-{i}", speed, fixed_overhead=fixed_overhead)
        for i, speed in enumerate(speeds)
    }


def _noisy_estimates(
    speeds: Sequence[float], rel_error: float, rng: random.Random
) -> dict[str, float]:
    out = {}
    for i, speed in enumerate(speeds):
        factor = 1.0 + (rng.uniform(-rel_error, rel_error) if rel_error > 0 else 0.0)
        out[f"node-{i}"] = max(speed * factor, 1e-9)
    return out


def run_comparison(config: ComparisonConfig) -> ComparisonResult:
    """Run one open-loop delay experiment and summarise it."""
    rng = random.Random(config.seed)
    speeds = list(
        config.speeds
        if config.speeds is not None
        else heterogeneous_speeds(config.n_servers, 0.5, rng, mean=500_000.0)
    )
    n = len(speeds)
    servers = _make_servers(speeds, config.fixed_overhead)
    estimates = _noisy_estimates(speeds, config.speed_error, rng)
    dataset = config.dataset_size
    fixed = config.fixed_overhead

    def name_estimator(now: float):
        def estimate(name: str, fraction: float) -> float:
            server = servers[name]
            backlog = max(0.0, server.busy_until - now)
            return backlog + fixed + fraction * dataset / estimates[name]

        return estimate

    planner = _build_planner(config, speeds, rng)

    arrivals = PoissonArrivals(config.query_rate, seed=config.seed + 1)
    log = DelayLog()
    for qid, now in enumerate(arrivals.times(config.n_queries)):
        estimator = name_estimator(now)
        plan = planner(now, estimator)
        finish = 0.0
        for name, fraction in plan:
            f = servers[name].submit(now, fraction * dataset, query_id=qid)
            finish = max(finish, f)
        log.add(
            QueryRecord(
                query_id=qid,
                arrival=now,
                finish=finish,
                pq=len(plan),
                subqueries=len(plan),
            )
        )

    elapsed = max((r.finish for r in log.records), default=1.0)
    util = sum(s.busy_time for s in servers.values()) / (elapsed * n)
    return ComparisonResult(
        config=config,
        log=log,
        mean_delay=log.mean_delay(),
        raw_mean_delay=log.raw_mean_delay(),
        p99_delay=log.percentile_delay(99),
        exploding=log.is_exploding(),
        server_utilisation=min(1.0, util),
    )


Planner = Callable[[float, Callable[[str, float], float]], list[tuple[str, float]]]


def _build_planner(
    config: ComparisonConfig, speeds: Sequence[float], rng: random.Random
) -> Planner:
    """Wire the requested algorithm into a common planning interface."""
    n = len(speeds)
    p = config.p
    pq = config.pq or p
    infos = [ServerInfo(f"node-{i}", speeds[i]) for i in range(n)]

    if config.algorithm in ("roar", "roar2"):
        n_rings = 2 if config.algorithm == "roar2" else 1
        algo = RoarAlgorithm(infos, p, rng=rng, n_rings=n_rings)
        rings = algo.rings

        def plan_roar(now, estimator):
            def node_est(node: RingNode, fraction: float) -> float:
                return estimator(node.name, fraction)

            if config.scheduler == "heap":
                result = schedule_heap(rings, pq, node_est)
            elif config.scheduler == "naive":
                result = schedule_naive(rings, pq, node_est)
            else:
                result = schedule_random(
                    rings, pq, node_est, k=config.random_starts, rng=rng
                )
            qplan = plan_from_schedule(result, node_est)
            if config.adjust:
                qplan = adjust_ranges(qplan, rings, node_est, p)
            if config.splits > 0:
                qplan = split_slowest(
                    qplan, rings, node_est, p, max_splits=config.splits
                )
            return [(s.node.name, s.width) for s in qplan.subs]

        return plan_roar

    if config.algorithm == "ptn":
        algo = PTN(infos, p, rng=rng)

        def plan_ptn(now, estimator):
            # With no object placement, clusters each hold 1/p of the data.
            plan = []
            for idx, cluster in enumerate(algo.clusters):
                fraction = 1.0 / p
                best = min(
                    (s for s in cluster if s.alive),
                    key=lambda s: estimator(s.name, fraction),
                )
                plan.append((best.name, fraction))
            return plan

        return plan_ptn

    if config.algorithm == "sw":
        if n % p != 0:
            raise ValueError(f"SW requires p | n (n={n}, p={p})")
        r = n // p
        algo = SlidingWindow(infos, r, rng=rng)

        def plan_sw(now, estimator):
            best_plan = None
            best_makespan = float("inf")
            for start in range(r):
                nodes = algo.query_nodes(start)
                plan = [(f"node-{i}", 1.0 / p) for i in nodes]
                makespan = max(estimator(name, frac) for name, frac in plan)
                if makespan < best_makespan:
                    best_makespan = makespan
                    best_plan = plan
            return best_plan

        return plan_sw

    if config.algorithm == "opt":
        # Theoretical best: any p servers, work split equally (the bound of
        # Section 6.1.1 -- no placement constraint at all).
        names = [f"node-{i}" for i in range(n)]

        def plan_opt(now, estimator):
            fraction = 1.0 / pq
            ranked = sorted(names, key=lambda name: estimator(name, fraction))
            return [(name, fraction) for name in ranked[:pq]]

        return plan_opt

    raise ValueError(f"unknown algorithm {config.algorithm!r}")
