"""Tests for the control plane's observation layer (repro.control.metrics)."""

import math

import pytest

from repro.control.metrics import (
    LatencyHistogram,
    MetricsCollector,
    SlidingWindow,
)
from repro.sim.server import SimServer
from repro.telemetry.records import QueryRecord


def record(qid, arrival, delay):
    return QueryRecord(query_id=qid, arrival=arrival, finish=arrival + delay)


class TestSlidingWindow:
    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            SlidingWindow(0.0)

    def test_prunes_old_samples(self):
        w = SlidingWindow(10.0)
        for t in range(20):
            w.add(float(t), float(t))
        assert w.values(19.0) == [float(t) for t in range(9, 20)]

    def test_rejects_out_of_order(self):
        w = SlidingWindow(10.0)
        w.add(5.0, 1.0)
        with pytest.raises(ValueError):
            w.add(4.0, 1.0)

    def test_mean_and_percentile(self):
        w = SlidingWindow(100.0)
        for i in range(1, 101):
            w.add(float(i), float(i))
        assert w.mean(100.0) == pytest.approx(50.5)
        assert w.percentile(50, 100.0) == pytest.approx(50.5)

    def test_empty_stats_are_nan(self):
        w = SlidingWindow(5.0)
        assert math.isnan(w.mean())
        assert math.isnan(w.percentile(99))

    def test_rate(self):
        w = SlidingWindow(10.0)
        for t in range(10):
            w.add(float(t), 1.0)
        # 10 samples over the trailing 10-second window.
        assert w.rate(9.0) == pytest.approx(1.0)
        assert SlidingWindow(10.0).rate(5.0) == 0.0

    def test_rate_single_straggler_not_inflated(self):
        # One sample that just arrived must read as ~0.1/s, not 1000/s.
        w = SlidingWindow(10.0)
        w.add(59.999, 0.2)
        assert w.rate(60.0) == pytest.approx(0.1)


class TestLatencyHistogram:
    def test_quantiles_roughly_exact(self):
        h = LatencyHistogram(lo=1e-3, hi=10.0, buckets_per_decade=20)
        for i in range(1, 1001):
            h.record(i / 1000.0)  # uniform on (0, 1]
        assert h.quantile(50) == pytest.approx(0.5, rel=0.1)
        assert h.quantile(99) == pytest.approx(0.99, rel=0.1)

    def test_overflow_underflow(self):
        h = LatencyHistogram(lo=0.01, hi=1.0)
        h.record(0.0001)
        h.record(50.0)
        assert h.total == 2
        assert h.counts[0] == 1 and h.counts[-1] == 1
        assert h.quantile(1) == h.bounds[0]
        assert h.quantile(100) == h.bounds[-1]

    def test_empty_quantile_nan(self):
        assert math.isnan(LatencyHistogram().quantile(50))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            LatencyHistogram(lo=1.0, hi=0.5)


class TestMetricsCollector:
    def test_observe_query_feeds_window_and_histogram(self):
        c = MetricsCollector(window=10.0)
        for i in range(5):
            c.observe_query(record(i, float(i), 0.2))
        assert c.queries_seen == 5
        snap = c.snapshot(4.0)
        assert snap.n_queries == 5
        assert snap.p50 == pytest.approx(0.2)
        assert c.histogram.total == 5

    def test_attach_subscribes_to_listeners(self):
        class Host:
            chunk_listeners = []

        host = Host()
        c = MetricsCollector().attach(host)
        assert host.chunk_listeners == [c]
        host.chunk_listeners[0].observe_record(record(1, 0.0, 0.1))
        assert c.queries_seen == 1

    def test_first_sample_has_no_utilisation(self):
        """The first tick only sets the baseline -- it must not report an
        idle pool (a fabricated 0% reading would trigger scale-in)."""
        c = MetricsCollector()
        server = SimServer("s0", speed=100.0)
        server.submit(0.0, 300.0)
        c.sample_servers(0.0, {"s0": server})
        snap = c.snapshot(0.0, record=False)
        assert snap.utilisation == {}
        assert math.isnan(snap.mean_utilisation)
        assert snap.load_imbalance == 1.0

    def test_utilisation_is_interval_delta(self):
        c = MetricsCollector()
        server = SimServer("s0", speed=100.0)
        servers = {"s0": server}
        c.sample_servers(0.0, servers)
        server.submit(0.0, 500.0)  # 5 seconds of work
        c.sample_servers(10.0, servers)
        snap = c.snapshot(10.0, record=False)
        assert snap.utilisation["s0"] == pytest.approx(0.5)
        # no new work in the next interval -> utilisation drops to 0
        c.sample_servers(20.0, servers)
        assert c.snapshot(20.0, record=False).utilisation["s0"] == 0.0

    def test_queue_depth_and_imbalance(self):
        c = MetricsCollector()
        fast = SimServer("fast", speed=100.0)
        slow = SimServer("slow", speed=100.0)
        slow.submit(0.0, 1000.0)  # 10s backlog
        c.sample_servers(0.0, {"fast": fast, "slow": slow})
        slow.submit(1.0, 100.0)
        c.sample_servers(2.0, {"fast": fast, "slow": slow})
        snap = c.snapshot(2.0, record=False)
        assert snap.max_queue_depth > 5.0
        assert snap.load_imbalance == pytest.approx(2.0)  # all load on slow

    def test_snapshot_records_history(self):
        c = MetricsCollector()
        c.observe_query(record(1, 0.0, 0.1))
        c.snapshot(1.0)
        c.snapshot(2.0)
        assert [s.time for s in c.snapshots] == [1.0, 2.0]

    def test_empty_snapshot_is_nan_percentiles(self):
        snap = MetricsCollector().snapshot(0.0, record=False)
        assert snap.n_queries == 0
        assert math.isnan(snap.p99)
        assert snap.qps == 0.0
        assert snap.load_imbalance == 1.0
