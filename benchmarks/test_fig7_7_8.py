"""Figs 7.7 / 7.8 -- Fast load balancing with pq > p (sub-query splitting).

Paper: when node ranges are badly matched to node speeds (e.g. right after
slow machines join, before background range balancing converges), waiting
for range balancing is slow.  Splitting sub-queries (each half-size piece
can run on any of the ~r servers holding it, Section 4.8.2) immediately
sheds work from overloaded nodes onto fast ones, cutting both the mean and
the spread of the delay distribution.
"""

import random

from repro.core import FrontEnd, FrontEndConfig, Ring
from repro.sim import DelayLog, PoissonArrivals, QueryRecord, SimServer
from repro.telemetry.records import percentile

from conftest import print_series, run_once

N = 24
P = 4
DATASET = 4e6
RATE = 3.0


def build_unbalanced():
    """Equal ranges but very unequal speeds -- the worst case for ROAR."""
    rng = random.Random(3)
    speeds = [rng.choice([600_000.0, 3_000_000.0]) for _ in range(N)]
    ring = Ring.uniform(N, speeds=speeds)
    servers = {
        n.name: SimServer(n.name, n.speed, fixed_overhead=0.003) for n in ring
    }
    return ring, servers


def run_at(max_splits):
    ring, servers = build_unbalanced()
    frontend = FrontEnd(
        ring,
        DATASET,
        FrontEndConfig(
            adjust_ranges=max_splits > 0,
            max_splits=max_splits,
            fixed_overhead=0.003,
        ),
        rng=random.Random(5),
    )
    log = DelayLog()
    for now in PoissonArrivals(RATE, seed=10).times(250):
        for node in ring:
            frontend.stats_for(node).busy_until = servers[node.name].busy_until
        qid, plan, _ = frontend.schedule_query(now, P)
        finish = now
        for sub in plan.subs:
            server = servers[sub.node.name]
            f = server.submit(now, sub.width * DATASET, query_id=qid)
            frontend.observe_completion(
                node=sub.node,
                work_objects=sub.width * DATASET,
                service_time=server.service_time(sub.width * DATASET),
                now=f,
            )
            finish = max(finish, f)
        log.add(QueryRecord(qid, now, finish, pq=len(plan.subs)))
    delays = log.delays()
    return {
        "mean": sum(delays) / len(delays),
        "p50": percentile(delays, 50),
        "p95": percentile(delays, 95),
        "p99": percentile(delays, 99),
        "spread": percentile(delays, 95) / percentile(delays, 50),
        "mean_subs": sum(r.pq for r in log.records) / len(log.records),
    }


def run_experiment():
    return {k: run_at(k) for k in (0, 1, 4)}


def test_fig7_7_8_fast_balancing_with_splits(benchmark):
    stats = run_once(benchmark, run_experiment)
    rows = [
        (
            k,
            s["mean_subs"],
            s["mean"] * 1000,
            s["p50"] * 1000,
            s["p95"] * 1000,
            s["spread"],
        )
        for k, s in stats.items()
    ]
    print_series(
        "Figs 7.7/7.8: delay distribution on an unbalanced ring vs splitting",
        ("max splits", "mean subqueries", "mean (ms)", "p50 (ms)", "p95 (ms)", "p95/p50"),
        rows,
    )

    base, one, four = stats[0], stats[1], stats[4]
    # Splitting sheds the slow nodes' work: mean improves...
    assert one["mean"] < base["mean"]
    assert four["mean"] <= one["mean"] * 1.1
    # ...and the tail tightens (Fig 7.8's distribution shift).
    assert one["p95"] < base["p95"]
    assert four["p95"] <= base["p95"]
    # A large share of the benefit comes from the first split (Section
    # 4.8.2: "most of the benefits come from splitting a single sub-query").
    gain_one = base["mean"] - one["mean"]
    gain_four = base["mean"] - four["mean"]
    assert gain_one > 0.35 * gain_four
