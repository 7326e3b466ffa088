"""Tests for the closed-loop control scenarios and their integration points.

The ``repro control`` loops are plain :class:`~repro.scenarios.Scenario`
values built by :func:`~repro.scenarios.control_scenario` and run by
:func:`~repro.scenarios.execute_scenario`, so they inherit its guarantees:
bit-reproducible runs and identical decisions on either engine.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.deployment import Deployment, DeploymentConfig
from repro.cluster.models import MODEL_CATALOGUE, hen_testbed
from repro.control import DeploymentActuator
from repro.scenarios import (
    ControlSpec,
    EventSpec,
    Scenario,
    WorkloadSpec,
    build_deployment,
    control_scenario,
    execute_scenario,
    phase_p99s,
)
from repro.scenarios.runner import _vector_rate_fn
from repro.sim.engine import Simulation
from repro.telemetry.listeners import ChunkListener


def small(kind="flash-crowd", **kw):
    kw.setdefault("n_servers", 8)
    kw.setdefault("p", 3)
    kw.setdefault("duration", 80.0)
    kw.setdefault("seed", 3)
    return control_scenario(kind, **kw)


def actions_of(ex):
    return sorted(
        (a for c in ex.controllers for a in c.actions), key=lambda a: a.time
    )


def rate_at(workload, t):
    rate_fn, peak = _vector_rate_fn(Scenario(name="shape", workload=workload))
    return float(rate_fn(np.array([t]))[0]), peak


class TestWorkloadTraces:
    """The closed loops' load shapes, as the batched sampler draws them."""

    def test_flash_crowd_phases(self):
        w = WorkloadSpec(
            kind="flash-crowd", rate=10.0, duration=400.0, surge_factor=4.0,
            surge_start_frac=0.25, surge_duration_frac=0.125, decay_frac=0.025,
        )
        assert rate_at(w, 0.0) == (10.0, 40.0)
        assert rate_at(w, 120.0)[0] == 40.0
        # one decay constant after the surge: base + (peak-base)/e
        assert rate_at(w, 160.0)[0] == pytest.approx(10.0 + 30.0 / math.e)

    def test_flash_crowd_instant_drop(self):
        w = WorkloadSpec(
            kind="flash-crowd", rate=5.0, duration=100.0,
            surge_start_frac=0.10, surge_duration_frac=0.05, decay_frac=0.0,
        )
        assert rate_at(w, 15.1)[0] == 5.0

    def test_flash_crowd_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="flash-crowd", rate=0.0)
        with pytest.raises(ValueError):
            WorkloadSpec(kind="flash-crowd", rate=1.0, surge_factor=0.5)

    def test_ramp(self):
        w = WorkloadSpec(kind="ramp", rate=10.0, end_rate=30.0, duration=200.0)
        assert rate_at(w, 0.0) == (10.0, 30.0)
        assert rate_at(w, 100.0)[0] == pytest.approx(20.0)
        assert rate_at(w, 999.0)[0] == 30.0

    def test_ramp_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="ramp", rate=1.0, end_rate=0.0)


class TestDeploymentElasticity:
    def make(self, n=8, p=3):
        return Deployment(
            DeploymentConfig(
                models=hen_testbed(n),
                p=p,
                dataset_size=1e6,
                seed=2,
                store_objects=True,
                n_objects_stored=100,
            )
        )

    def test_add_server_joins_ring_and_downloads(self):
        dep = self.make()
        before_moved = dep.reconfig.bytes_moved
        name = dep.add_server(MODEL_CATALOGUE["dell-1950"], now=5.0)
        assert name in dep.servers
        assert name in dep.stores
        assert dep.n == 9
        dep.rings[0].validate()
        assert dep.reconfig.bytes_moved > before_moved
        # new server can serve queries immediately
        rec = dep.run_query(6.0, 3)
        assert rec is not None

    def test_remove_server_predecessor_absorbs(self):
        dep = self.make()
        ring = dep.rings[0]
        victim = ring.nodes()[3]
        pred = ring.predecessor(victim)
        pred_range = ring.range_of(pred).length
        dep.remove_server(victim.name, now=1.0)
        assert victim.name not in dep.servers
        assert victim.name in dep.retired
        assert dep.n == 7
        ring.validate()
        assert ring.range_of(pred).length > pred_range
        assert dep.run_query(2.0, 3) is not None

    def test_remove_last_node_refused(self):
        dep = self.make(n=8)
        names = list(dep.servers)
        for name in names[:-1]:
            if len(dep.rings[0]) > 1:
                dep.remove_server(name)
        with pytest.raises(ValueError):
            dep.remove_server(next(iter(dep.servers)))

    def test_long_term_failure_redistributes(self):
        dep = self.make()
        victim = dep.rings[0].nodes()[0].name
        dep.fail_node(victim, 1.0)
        assert dep.max_dead_range() > 0.0
        dep.handle_long_term_failure(victim, now=2.0)
        assert dep.max_dead_range() == 0.0
        assert victim not in dep.servers
        dep.rings[0].validate()

    def test_chunk_listeners_invoked(self):
        class Delays(ChunkListener):
            def __init__(self):
                self.seen = []

            def observe_chunk(self, arrays, start, nq):
                self.seen += arrays.delays().tolist()

        dep = self.make()
        listener = Delays()
        dep.chunk_listeners.append(listener)
        dep.run_query(0.0, 3)
        assert len(listener.seen) == 1
        assert listener.seen[0] > 0


class TestScenarioRunner:
    def test_flash_crowd_adapts_and_reports(self):
        ex = execute_scenario(small())
        actions = actions_of(ex)
        assert actions  # the controller acted at least once mid-run
        kinds = {a.kind for a in actions}
        assert kinds & {"add_server", "remove_server", "request_p", "set_pq"}
        before, crisis, after = phase_p99s(ex.deployment.log, "flash-crowd", 80.0)
        assert not math.isnan(before)
        assert not math.isnan(after)
        assert crisis > before
        assert len(ex.deployment.log) > 100

    def test_runs_are_deterministic(self):
        # no wall-clock enters a scenario run: two runs agree bit for bit
        a = execute_scenario(small())
        b = execute_scenario(small())
        assert repr(a.decisions.records()) == repr(b.decisions.records())
        for name in ("arrival", "finish"):
            assert np.array_equal(
                a.deployment.log.column(name), b.deployment.log.column(name)
            )

    def test_repartition_changes_p_mid_run(self):
        ex = execute_scenario(small(policies=("repartition",), duration=100.0))
        moves = [a for a in actions_of(ex) if a.kind in ("request_p", "set_pq")]
        assert moves, "pq never moved"

    def test_rack_failure_scenario_survives(self):
        # Cap p so replacement windows stay wider than the dead ranges (the
        # rack holds the fastest -- widest-ranged -- nodes on 8 servers),
        # and rebuild promptly.  Adjacent rack-mates act as one combined
        # hole for the fall-back (Section 4.4, contiguous-run semantics):
        # queries overlapping a hole wider than the replication arc *drop*
        # into the yield accounting -- they used to be counted as served
        # with silently incomplete results -- so the bar here is honest
        # yield during the crisis window plus full recovery after rebuild.
        base = small("rack-failure", duration=100.0)
        scenario = base.with_(
            events=(
                EventSpec(at=40.0, action="fail-rack", count=2, value=0),
                EventSpec(at=55.0, action="rebuild"),
            ),
            control=replace(base.control, p_max=4),
        )
        ex = execute_scenario(scenario)
        log = ex.deployment.log
        assert actions_of(ex)
        # membership eventually redistributed the dead ranges
        assert log.yield_fraction() > 0.85
        assert not any(s.failed for s in ex.deployment.servers.values())
        # after the rebuild the system serves everything again
        arrivals = log.column("arrival")
        assert (arrivals > 60.0).any(), "no queries served after the rebuild"
        assert arrivals[-1] > 0.9 * 100.0

    def test_diurnal_scenario(self):
        ex = execute_scenario(small("diurnal", duration=100.0))
        assert actions_of(ex)
        assert len(ex.deployment.servers) >= max(2, 8 // 2)

    def test_planner_mode_runs(self):
        scenario = small(policies=("repartition",), planner=True)
        assert scenario.control.planner
        ex = execute_scenario(scenario)
        # ran to completion with the advisor steering p
        assert "request_p" in {a.kind for a in actions_of(ex)}

    def test_bad_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown control scenario"):
            control_scenario("nope")

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policies"):
            small(policies=("magic",))


@pytest.mark.parametrize(
    "kind, policies",
    [
        ("flash-crowd", ("elasticity", "repartition")),
        ("diurnal", ("repartition",)),
        ("rack-failure", ("elasticity", "repartition")),
    ],
)
def test_closed_loop_identical_across_engines_and_runs(kind, policies):
    scenario = small(kind, policies=policies)
    runs = [
        execute_scenario(scenario, engine="batched"),
        execute_scenario(scenario, engine="reference"),
        execute_scenario(scenario, engine="batched"),
    ]
    decisions = [repr(ex.decisions.records()) for ex in runs]
    assert any(
        not r.is_hold for r in runs[0].decisions.records()
    ), "the loop never acted"
    assert decisions[1] == decisions[0]
    assert decisions[2] == decisions[0]
    for ex in runs[1:]:
        for name in ("arrival", "finish"):
            assert np.array_equal(
                ex.deployment.log.column(name),
                runs[0].deployment.log.column(name),
            ), f"{ex.engine} {name} column differs"


class TestActuator:
    def make(self):
        scenario = small()
        dep = build_deployment(scenario)
        sim = Simulation()
        return DeploymentActuator(dep, sim, scenario.control), sim

    def test_pq_floor_follows_p_store(self):
        act, _ = self.make()
        act.set_pq(1)
        assert act.pq == act.deployment.config.p  # clamped to the floor

    def test_request_p_schedules_background_steps(self):
        act, sim = self.make()
        assert act.request_p(act.deployment.config.p + 1)
        assert not act.reconfig_stable
        sim.run(until=ControlSpec().drop_seconds + 1.0)
        assert act.reconfig_stable
        assert act.p_store == act.deployment.config.p + 1

    def test_request_p_refused_while_unstable(self):
        act, _ = self.make()
        assert act.request_p(act.deployment.config.p + 1)
        assert not act.request_p(act.deployment.config.p + 2)

    def test_safety_cap_reflects_dead_ranges(self):
        act, _ = self.make()
        assert act.p_safety_cap is None
        victim = act.deployment.rings[0].nodes()[0].name
        act.deployment.fail_node(victim, 0.0)
        cap = act.p_safety_cap
        assert cap is not None and cap >= 1
