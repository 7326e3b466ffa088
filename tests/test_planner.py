"""Tests for the configuration advisor (repro.analysis.planner)."""

import math

import pytest

from repro.analysis.planner import (
    ConfigOption,
    Recommendation,
    WorkloadSpec,
    recommend_configuration,
)


def spec(**overrides):
    base = dict(
        dataset_size=1e6,
        query_rate=5.0,
        update_rate=10.0,
        target_delay=0.5,
        speeds=[700_000.0] * 24,
        fixed_overhead=0.005,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestRecommendation:
    def test_picks_smallest_feasible_p(self):
        rec = recommend_configuration(spec())
        assert rec.chosen is not None
        feasible = [o for o in rec.options if o.feasible]
        smallest = feasible[0]
        # Contract: the smallest feasible p, unless a larger p buys a real
        # bandwidth win (update-heavy workloads).
        assert (
            rec.chosen.p == smallest.p
            or rec.chosen.bandwidth < smallest.bandwidth
        )

    def test_chosen_meets_target(self):
        rec = recommend_configuration(spec())
        assert rec.chosen.predicted_delay <= 0.5
        assert rec.chosen.utilisation < 1.0

    def test_tighter_target_needs_larger_p(self):
        loose = recommend_configuration(spec(target_delay=1.0))
        tight = recommend_configuration(spec(target_delay=0.25))
        assert tight.chosen.p >= loose.chosen.p

    def test_higher_load_needs_larger_p(self):
        # update_rate ~ 0 isolates the delay-driven choice from the
        # bandwidth tie-break (heavy updates legitimately pull p up).
        light = recommend_configuration(spec(query_rate=1.0, update_rate=0.1))
        heavy = recommend_configuration(spec(query_rate=8.0, update_rate=0.1))
        assert heavy.chosen.p >= light.chosen.p

    def test_impossible_target_returns_none(self):
        rec = recommend_configuration(spec(target_delay=1e-6))
        assert rec.chosen is None
        assert "no partitioning level" in rec.reason

    def test_overload_returns_none(self):
        rec = recommend_configuration(spec(query_rate=1e6))
        assert rec.chosen is None

    def test_option_table_complete(self):
        rec = recommend_configuration(spec())
        assert len(rec.options) == 24
        assert [o.p for o in rec.options] == list(range(1, 25))
        for option in rec.options:
            assert option.r == pytest.approx(24 / option.p)

    def test_bandwidth_grows_with_p_for_query_heavy(self):
        rec = recommend_configuration(spec(query_rate=50.0, update_rate=0.1))
        bws = [o.bandwidth for o in rec.options]
        assert bws == sorted(bws)

    def test_bandwidth_falls_with_p_for_update_heavy(self):
        rec = recommend_configuration(spec(query_rate=0.01, update_rate=1000.0))
        bws = [o.bandwidth for o in rec.options]
        assert bws == sorted(bws, reverse=True)

    def test_heterogeneous_speeds_accepted(self):
        rec = recommend_configuration(
            spec(speeds=[300_000.0, 900_000.0] * 12)
        )
        assert rec.chosen is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            recommend_configuration(spec(speeds=[]))
        with pytest.raises(ValueError):
            recommend_configuration(spec(target_delay=0.0))

    def test_infeasible_options_marked(self):
        rec = recommend_configuration(spec(query_rate=8.0))
        assert any(not o.feasible for o in rec.options)
        assert any(o.feasible for o in rec.options)


class TestLiveMetricsAdvisor:
    """The planner consuming measured metrics (repro.control integration)."""

    def make_snapshot(self, qps):
        from repro.control.metrics import MetricsCollector
        from repro.telemetry.records import QueryRecord

        c = MetricsCollector(window=10.0)
        gap = 1.0 / qps
        for i in range(int(qps * 10)):
            t = i * gap
            c.observe_query(QueryRecord(query_id=i, arrival=t, finish=t + 0.1))
        return c.snapshot(10.0, record=False)

    def test_spec_uses_measured_rate(self):
        from repro.analysis.planner import spec_from_metrics

        snapshot = self.make_snapshot(qps=8.0)
        s = spec_from_metrics(
            snapshot,
            dataset_size=1e6,
            speeds=[700_000.0] * 24,
            target_delay=0.5,
            fixed_overhead=0.005,
        )
        assert s.query_rate == pytest.approx(8.0, rel=0.1)

    def test_idle_window_floors_rate(self):
        from repro.analysis.planner import spec_from_metrics

        class Empty:
            qps = 0.0

        s = spec_from_metrics(
            Empty(), dataset_size=1e6, speeds=[7e5] * 4, target_delay=0.5
        )
        assert s.query_rate > 0.0

    def test_recommend_from_metrics_tracks_load(self):
        from repro.analysis.planner import recommend_from_metrics

        kw = dict(
            dataset_size=1e6,
            speeds=[700_000.0] * 24,
            target_delay=0.5,
            fixed_overhead=0.005,
        )
        light = recommend_from_metrics(self.make_snapshot(qps=2.0), **kw)
        heavy = recommend_from_metrics(self.make_snapshot(qps=9.0), **kw)
        assert light.chosen is not None and heavy.chosen is not None
        assert heavy.chosen.p >= light.chosen.p
