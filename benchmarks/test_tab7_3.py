"""Table 7.3 -- ROAR performance running on 1000 servers (EC2).

Paper: a 1000-instance EC2 deployment answered queries over the full
dataset with sub-second delays and the front-end scheduler handled the
scale (scheduling cost stayed in the tens of milliseconds).  We run the
full deployment at n=1000 and report the same rows: mean/median/p99 delay,
scheduling cost, and sustained throughput.
"""

from repro.cluster import Deployment, DeploymentConfig, ec2_fleet
from repro.sim import PoissonArrivals
from repro.telemetry.records import percentile

from conftest import print_series, run_once

N = 1000
P = 100
DATASET = 20e6  # 20M metadata spread over the fleet


def run_experiment():
    dep = Deployment(
        DeploymentConfig(
            models=ec2_fleet(N), p=P, dataset_size=DATASET, seed=51,
            fixed_overhead=0.005,
        )
    )
    arrivals = PoissonArrivals(10.0, seed=15).times(150)
    dep.run_queries(arrivals, pq_fn=P)
    delays = dep.log.delays()
    sched = dep.scheduling_wallclock / len(delays)
    last = max(r.finish for r in dep.log.records)
    return {
        "n": N,
        "p": P,
        "mean": sum(delays) / len(delays),
        "median": percentile(delays, 50),
        "p99": percentile(delays, 99),
        "sched_ms": sched * 1000,
        "throughput": len(delays) / last,
    }


def test_tab7_3_thousand_servers(benchmark):
    stats = run_once(benchmark, run_experiment)
    print_series(
        "Table 7.3: ROAR on 1000 simulated EC2 servers",
        ("metric", "value"),
        [
            ("servers", stats["n"]),
            ("partitioning level", stats["p"]),
            ("mean delay (ms)", stats["mean"] * 1000),
            ("median delay (ms)", stats["median"] * 1000),
            ("p99 delay (ms)", stats["p99"] * 1000),
            ("scheduling per query (ms)", stats["sched_ms"]),
            ("throughput (q/s)", stats["throughput"]),
        ],
    )

    # Sub-second delays at the kilonode scale.
    assert stats["mean"] < 1.0
    assert stats["p99"] < 2.0
    # One front-end schedules a 1000-node ring in tens of ms at most.
    assert stats["sched_ms"] < 100.0
    # The run sustained the offered rate (not exploding).
    assert not dep_exploding(stats)


def dep_exploding(stats):
    return stats["throughput"] < 5.0
