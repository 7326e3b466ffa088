"""Table 6.1 -- Simulation parameters.

Documents (and sanity-checks) the defaults the Chapter 6 comparison harness
uses, mirroring the paper's parameter table: server pool size, dataset,
heterogeneity, arrival process, the exploding-queue threshold.
"""

from repro.cluster import ComparisonConfig, heterogeneous_speeds, run_comparison
from repro.telemetry.records import EXPLODING_SLOPE

from conftest import print_series, run_once


def collect_parameters():
    cfg = ComparisonConfig(algorithm="roar")
    rows = [
        ("servers (n)", cfg.n_servers),
        ("partitioning level (p)", cfg.p),
        ("dataset size (objects)", cfg.dataset_size),
        ("query arrival process", "Poisson (open loop)"),
        ("query rate (1/s)", cfg.query_rate),
        ("queries per run", cfg.n_queries),
        ("speed heterogeneity", "uniform +-50% around 500k obj/s"),
        ("exploding-queue slope", EXPLODING_SLOPE),
        ("scheduler", cfg.scheduler),
    ]
    return rows


def test_tab6_1_simulation_parameters(benchmark):
    rows = run_once(benchmark, collect_parameters)
    print_series("Table 6.1: simulation parameters", ("parameter", "value"), rows)

    # The defaults must describe a stable (non-exploding) baseline run.
    res = run_comparison(
        ComparisonConfig(algorithm="roar", n_queries=300, seed=1)
    )
    assert not res.exploding

    # Heterogeneity generator: mean preserved, spread present.
    import random

    speeds = heterogeneous_speeds(2000, 0.5, random.Random(0), mean=500_000.0)
    mean = sum(speeds) / len(speeds)
    assert abs(mean - 500_000.0) / 500_000.0 < 0.05
    assert max(speeds) / min(speeds) > 2.0
