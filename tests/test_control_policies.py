"""Tests for the control policies (repro.control.controllers)."""

import math

import pytest

from repro.cluster.multifrontend import MultiFrontEndDeployment
from repro.control.controllers import (
    FrontendElasticityController,
    RepartitionController,
    SLOElasticityController,
)
from repro.control.metrics import MetricsSnapshot
from repro.telemetry.listeners import ChunkListener


class _RecordingListener(ChunkListener):
    def __init__(self):
        self.rows = []

    def observe_chunk(self, arrays, start, nq):
        self.rows += zip(arrays.query_ids.tolist(), arrays.arrivals.tolist())


def snap(
    t=0.0,
    p99=0.1,
    util=0.10,
    qdepth=0.0,
    n_queries=50,
    qps=5.0,
    utilisation=None,
):
    u = utilisation if utilisation is not None else {f"s{i}": util for i in range(4)}
    return MetricsSnapshot(
        time=t,
        window=20.0,
        n_queries=n_queries,
        qps=qps,
        mean_latency=p99 * 0.5,
        p50=p99 * 0.4,
        p95=p99 * 0.8,
        p99=p99,
        n_servers=len(u),
        utilisation=u,
        queue_depths={k: qdepth for k in u},
    )


class StubTarget:
    """Minimal ControlTarget capturing actuations."""

    def __init__(self, n=8, p=4):
        self._n = n
        self.pq = p
        self._p_store = float(p)
        self._p_target = float(p)
        self._stable = True
        self.cap = None
        self.calls = []

    @property
    def n_servers(self):
        return self._n

    @property
    def p_store(self):
        return self._p_store

    @property
    def reconfig_stable(self):
        return self._stable

    @property
    def p_safety_cap(self):
        return self.cap

    def set_pq(self, pq):
        self.pq = int(pq)
        self.calls.append(("set_pq", pq))

    def request_p(self, p_new):
        if not self._stable:
            return False
        self._p_target = float(p_new)
        self._stable = False
        self.calls.append(("request_p", p_new))
        return True

    def complete_reconfig(self):
        self._p_store = self._p_target
        self._stable = True

    def add_server(self):
        self._n += 1
        name = f"new-{self._n}"
        self.calls.append(("add_server", name))
        return name

    def remove_server(self):
        self._n -= 1
        name = f"old-{self._n}"
        self.calls.append(("remove_server", name))
        return name


class TestSLOElasticity:
    def make(self, target, **kw):
        kw.setdefault("slo_p99", 1.0)
        kw.setdefault("min_servers", 4)
        kw.setdefault("max_servers", 16)
        kw.setdefault("cooldown", 10.0)
        return SLOElasticityController(target, **kw)

    def test_grows_on_slo_breach(self):
        target = StubTarget(n=8)
        ctl = self.make(target)
        actions = ctl.step(0.0, snap(p99=1.5))
        assert [a.kind for a in actions] == ["add_server"]
        assert target.n_servers == 9

    def test_growth_scales_with_severity(self):
        target = StubTarget(n=8)
        ctl = self.make(target, max_grow_step=4)
        actions = ctl.step(0.0, snap(p99=5.0))  # 5x the SLO
        assert len(actions) == 4
        assert target.n_servers == 12

    def test_grows_on_high_utilisation(self):
        target = StubTarget(n=8)
        ctl = self.make(target)
        actions = ctl.step(0.0, snap(p99=0.2, util=0.9))
        assert [a.kind for a in actions] == ["add_server"]

    def test_grows_on_deep_queues(self):
        target = StubTarget(n=8)
        ctl = self.make(target)
        actions = ctl.step(0.0, snap(p99=0.2, util=0.1, qdepth=5.0))
        assert [a.kind for a in actions] == ["add_server"]

    def test_respects_max_servers(self):
        target = StubTarget(n=16)
        ctl = self.make(target)
        assert ctl.step(0.0, snap(p99=9.9)) == []

    def test_cooldown_gates_consecutive_actions(self):
        target = StubTarget(n=8)
        ctl = self.make(target)
        assert ctl.step(0.0, snap(p99=2.0))
        assert ctl.step(5.0, snap(p99=2.0)) == []
        assert ctl.step(10.0, snap(p99=2.0))

    def test_no_signal_no_action(self):
        target = StubTarget(n=8)
        ctl = self.make(target)
        assert ctl.step(0.0, snap(p99=math.nan, n_queries=0)) == []

    def test_shrinks_only_when_cool_and_after_shrink_cooldown(self):
        target = StubTarget(n=8)
        ctl = self.make(target, shrink_cooldown=100.0)
        cool = dict(p99=0.1, util=0.05)
        acts = ctl.step(0.0, snap(**cool))
        assert [a.kind for a in acts] == ["remove_server"]
        # within the shrink cooldown: no more removals even when cool
        assert ctl.step(50.0, snap(**cool)) == []
        acts = ctl.step(150.0, snap(**cool))
        assert [a.kind for a in acts] == ["remove_server"]

    def test_no_shrink_with_queued_work(self):
        target = StubTarget(n=8)
        ctl = self.make(target)
        assert ctl.step(0.0, snap(p99=0.1, util=0.05, qdepth=5.0)) != []  # grows
        assert target.calls[-1][0] == "add_server"

    def test_respects_min_servers(self):
        target = StubTarget(n=4)
        ctl = self.make(target)
        assert ctl.step(0.0, snap(p99=0.1, util=0.05)) == []


class TestRepartition:
    def make(self, target, **kw):
        kw.setdefault("slo_p99", 1.0)
        kw.setdefault("p_min", 2)
        kw.setdefault("p_max", 12)
        kw.setdefault("cooldown", 10.0)
        return RepartitionController(target, **kw)

    def test_raises_p_on_tail_latency(self):
        target = StubTarget(p=4)
        ctl = self.make(target)
        actions = ctl.step(0.0, snap(p99=2.0, util=0.3))
        assert [a.kind for a in actions] == ["request_p"]
        assert target.pq == 5  # immediately safe: pq raised in the same tick
        assert target._p_target == 5.0

    def test_holds_when_saturated(self):
        """More partitioning is the wrong medicine for a capacity problem."""
        target = StubTarget(p=4)
        ctl = self.make(target)
        assert ctl.step(0.0, snap(p99=2.0, util=0.9)) == []

    def test_raises_p_on_imbalance(self):
        target = StubTarget(p=4)
        ctl = self.make(target, imbalance_threshold=1.5)
        skewed = {"s0": 0.9, "s1": 0.1, "s2": 0.1, "s3": 0.1}
        # imbalance counts only when the tail is near the SLO (gate 0.7)
        actions = ctl.step(0.0, snap(p99=0.8, utilisation=skewed))
        assert [a.kind for a in actions] == ["request_p"]

    def test_imbalance_ignored_when_latency_comfortable(self):
        """Chronic heterogeneity skew must not ratchet p upward."""
        target = StubTarget(p=4)
        ctl = self.make(target, imbalance_threshold=1.5)
        skewed = {"s0": 0.9, "s1": 0.1, "s2": 0.1, "s3": 0.1}
        assert ctl.step(0.0, snap(p99=0.5, utilisation=skewed)) == []

    def test_lowers_pq_directly_when_above_floor(self):
        target = StubTarget(p=4)
        target.pq = 6  # floor (p_store) is 4
        ctl = self.make(target)
        actions = ctl.step(0.0, snap(p99=0.1))
        assert [a.kind for a in actions] == ["set_pq"]
        assert target.pq == 5

    def test_lowering_below_floor_needs_reconfiguration(self):
        target = StubTarget(p=4)
        ctl = self.make(target)
        actions = ctl.step(0.0, snap(p99=0.1))
        assert [a.kind for a in actions] == ["request_p"]
        assert target._p_target == 3.0
        assert target.pq == 4  # pq must wait for downloads
        # while in flight: no further decisions
        assert ctl.step(20.0, snap(p99=0.1)) == []
        target.complete_reconfig()
        actions = ctl.step(40.0, snap(p99=0.1))
        # downloads done: now pq can drop to the new level
        assert ("set_pq", 3) in [(a.kind, int(a.value)) for a in actions]
        assert target.pq == 3

    def test_safety_cap_limits_p(self):
        target = StubTarget(p=4)
        target.cap = 4  # a dead node's range tolerates at most p=4
        ctl = self.make(target)
        assert ctl.step(0.0, snap(p99=2.0, util=0.3)) == []

    def test_safety_cap_forces_p_down(self):
        target = StubTarget(p=8)
        target.pq = 8
        target._p_store = 8.0
        target._p_target = 8.0
        target.cap = 6
        ctl = self.make(target)
        actions = ctl.step(0.0, snap(p99=0.5))
        assert [a.kind for a in actions] == ["request_p"]
        assert target._p_target == 7.0  # walks down one step at a time

    def test_planner_steers_toward_recommendation(self):
        target = StubTarget(p=4)
        ctl = self.make(target, planner=lambda s: 7)
        actions = ctl.step(0.0, snap(p99=0.5))
        assert [a.kind for a in actions] == ["request_p"]
        assert target._p_target == 5.0
        assert target.pq == 5

    def test_respects_bounds(self):
        target = StubTarget(p=12)
        target.pq = 12
        target._p_store = 12.0
        target._p_target = 12.0
        ctl = self.make(target)
        assert ctl.step(0.0, snap(p99=5.0, util=0.2)) == []  # at p_max


class StubPool:
    def __init__(self, k=2):
        self.k = k

    @property
    def n_frontends(self):
        return self.k

    def add_frontend(self):
        self.k += 1

    def remove_frontend(self):
        self.k -= 1


class TestFrontendElasticity:
    def test_adds_when_per_frontend_qps_high(self):
        pool = StubPool(k=2)
        ctl = FrontendElasticityController(pool, qps_per_frontend=10.0)
        actions = ctl.step(0.0, snap(qps=30.0))
        assert [a.kind for a in actions] == ["add_frontend"]
        assert pool.k == 3

    def test_removes_when_idle(self):
        pool = StubPool(k=4)
        ctl = FrontendElasticityController(pool, qps_per_frontend=10.0)
        actions = ctl.step(0.0, snap(qps=4.0))
        assert [a.kind for a in actions] == ["remove_frontend"]
        assert pool.k == 3

    def test_min_frontends(self):
        pool = StubPool(k=1)
        ctl = FrontendElasticityController(pool, qps_per_frontend=10.0)
        assert ctl.step(0.0, snap(qps=0.5)) == []

    def test_drives_real_multifrontend_deployment(self):
        dep = MultiFrontEndDeployment([1.0] * 8, p=4, n_frontends=1, seed=3)
        ctl = FrontendElasticityController(
            dep, qps_per_frontend=5.0, max_frontends=4
        )
        actions = ctl.step(0.0, snap(qps=50.0))
        assert actions and len(dep.frontends) == 2
        # the new front-end schedules real queries
        for i in range(20):
            dep.run_query(i * 0.01)
        assert len(dep.log.records) == 20


class TestMultiFrontendPoolSurface:
    def test_add_remove_frontend(self):
        dep = MultiFrontEndDeployment([1.0] * 4, p=2, n_frontends=2, seed=1)
        assert dep.n_frontends == 2
        dep.add_frontend()
        assert len(dep.frontends) == 3
        dep.remove_frontend()
        dep.remove_frontend()
        assert len(dep.frontends) == 1
        with pytest.raises(ValueError):
            dep.remove_frontend()

    def test_chunk_listeners_fire(self):
        dep = MultiFrontEndDeployment([1.0] * 4, p=2, n_frontends=2, seed=1)
        seen = _RecordingListener()
        dep.chunk_listeners.append(seen)
        dep.run_query(0.0)
        assert seen.rows == [(1, 0.0)]
