"""Speedup gate: the batched engine vs the per-query reference path.

The acceptance bar for the batched query core: on a 200-server /
100k-query run the batched path must be at least 5x faster than the
per-query reference path *while producing identical per-query results*.

Each test also times the reference path over a prefix of its trace (the
first 1,500 arrivals at 200 servers, 300 at 1k servers; the whole trace
would take minutes at 1k servers) and divides that µs/query by the
batched µs/query over the whole trace.  Both engines run in the same
process on the same host, so the ratio divides the machine out, and it
must stay above a floor: the prefix's delays must also equal the batched
run's, bit for bit.

Marked ``perf``: excluded from tier-1 (pyproject addopts deselects it).
CI's ``bench`` job runs this file and gates on it, beside the pinned
end-to-end workloads of ``bench/run.py`` (see ``docs/benchmarks.md``).
"""

import time

import pytest

pytest.importorskip("numpy")

from repro.cluster import Deployment, DeploymentConfig, hen_testbed
from repro.sim import batched_poisson_times

PQ = 5

#: Floors on the reference-prefix ratio, max(5, 0.7 x the ratio recorded
#: for the same sweep at commit fe6ab0d by the engine-sweep harness this
#: file replaced as CI's speed gate): 0.7 x 20.85 at 200 servers and
#: 0.7 x 64.68 at 1k servers.
MIN_PREFIX_RATIO_200 = 14.6
MIN_PREFIX_RATIO_1K = 45.3


def _build(n_servers):
    return Deployment(
        DeploymentConfig(
            models=hen_testbed(n_servers),
            p=PQ,
            dataset_size=5e6,
            seed=2,
            charge_scheduling=False,
        )
    )


def _reference_prefix(n_servers, arrivals, n_prefix):
    """(µs/query, deployment) of the reference path over *n_prefix* arrivals."""
    ref = _build(n_servers)
    t0 = time.perf_counter()
    ref.run_queries(arrivals[:n_prefix], PQ)
    return 1e6 * (time.perf_counter() - t0) / n_prefix, ref


@pytest.mark.perf
def test_batched_path_5x_faster_and_identical(series_printer):
    n_servers, n_queries, n_prefix = 200, 100_000, 1500
    arrivals = list(batched_poisson_times(300.0, n_queries, seed=4))

    slow = _build(n_servers)
    t0 = time.perf_counter()
    slow.run_queries(arrivals, PQ)
    t_slow = time.perf_counter() - t0

    fast = _build(n_servers)
    t0 = time.perf_counter()
    result = fast.run_queries_fast(arrivals, PQ)
    t_fast = time.perf_counter() - t0

    ref_us, _ = _reference_prefix(n_servers, arrivals, n_prefix)
    prefix_ratio = ref_us / (1e6 * t_fast / n_queries)

    series_printer(
        f"Batched vs reference path ({n_servers} servers, {n_queries} queries)",
        ("path", "wall (s)", "us/query", "queries"),
        [
            ("reference", t_slow, 1e6 * t_slow / n_queries, n_queries),
            ("batched", t_fast, 1e6 * t_fast / n_queries, n_queries),
            ("speedup", t_slow / t_fast, "", ""),
            ("ref prefix", "", ref_us, n_prefix),
            ("prefix ratio", prefix_ratio, "", ""),
        ],
    )

    # identical results -- the speedup is meaningless without this
    assert result.completed == n_queries
    assert [r.delay for r in slow.log.records] == [
        r.delay for r in fast.log.records
    ]
    assert slow.frontend.total_iterations == fast.frontend.total_iterations
    for name in slow.servers:
        assert slow.servers[name].busy_until == fast.servers[name].busy_until

    assert t_slow / t_fast >= 5.0, (
        f"batched path only {t_slow / t_fast:.1f}x faster "
        f"({t_slow:.1f}s vs {t_fast:.1f}s)"
    )
    assert prefix_ratio >= MIN_PREFIX_RATIO_200, (
        f"reference-prefix ratio {prefix_ratio:.1f}x below the "
        f"{MIN_PREFIX_RATIO_200:g}x floor"
    )


@pytest.mark.perf
def test_thousand_server_scale(series_printer):
    """1k servers: the batched path over the whole trace, the reference
    path over its first arrivals only."""
    n_servers, n_queries, n_prefix = 1000, 50_000, 300
    arrivals = list(batched_poisson_times(1500.0, n_queries, seed=4))

    dep = _build(n_servers)
    t0 = time.perf_counter()
    result = dep.run_queries_fast(arrivals, PQ)
    wall = time.perf_counter() - t0

    ref_us, ref = _reference_prefix(n_servers, arrivals, n_prefix)
    prefix_ratio = ref_us / (1e6 * wall / n_queries)

    series_printer(
        "Batched path at 1k servers",
        ("queries", "wall (s)", "us/query", "chunks"),
        [
            (n_queries, wall, 1e6 * wall / n_queries, len(result.chunk_sizes)),
            (f"ref {n_prefix}", "", ref_us, ""),
            ("prefix ratio", prefix_ratio, "", ""),
        ],
    )
    assert result.completed == n_queries
    assert result.fast_scheduled == n_queries  # no failures: zero delegation
    assert sum(result.chunk_sizes) == n_queries
    assert wall < 30.0
    # the ratio is meaningless unless the engines agree on the prefix
    assert ref.log.delays() == dep.log.delays()[:n_prefix]
    assert prefix_ratio >= MIN_PREFIX_RATIO_1K, (
        f"reference-prefix ratio {prefix_ratio:.1f}x below the "
        f"{MIN_PREFIX_RATIO_1K:g}x floor"
    )
