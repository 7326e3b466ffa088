"""Tests for the scenario matrix engine (specs, runner, matrix, CLI)."""

import pytest

np = pytest.importorskip("numpy")

from repro.scenarios import (
    ChurnSpec,
    ControlSpec,
    EventSpec,
    Scenario,
    UpdateSpec,
    WorkloadSpec,
    build_deployment,
    builtin_scenarios,
    run_matrix,
    run_scenario_spec,
)
from repro.scenarios.runner import auto_rate, build_models, generate_arrivals


def small(name="t", **kw):
    defaults = dict(
        n_servers=8,
        p=3,
        dataset_size=1e6,
        seed=5,
        workload=WorkloadSpec(kind="poisson", rate=8.0, duration=10.0),
    )
    defaults.update(kw)
    return Scenario(name=name, **defaults)


class TestSpecs:
    def test_workload_validation(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            WorkloadSpec(kind="nope")
        with pytest.raises(ValueError, match="rate"):
            WorkloadSpec(rate=0.0)
        with pytest.raises(ValueError, match="trace"):
            WorkloadSpec(kind="replay")

    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown event action"):
            EventSpec(at=1.0, action="explode")
        with pytest.raises(ValueError, match="needs a value"):
            EventSpec(at=1.0, action="set-pq")

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="unknown fleet"):
            small(fleet="mainframe")
        with pytest.raises(ValueError, match="speeds"):
            small(fleet="custom")
        with pytest.raises(ValueError, match="pq"):
            small(pq=2)  # < p

    def test_control_validation(self):
        with pytest.raises(ValueError, match="unknown policies"):
            ControlSpec(policies=("time-travel",))

    def test_needs_stores(self):
        assert not small().needs_stores
        assert small(
            events=(EventSpec(at=1.0, action="repartition", value=4),)
        ).needs_stores
        assert small(
            control=ControlSpec(policies=("repartition",))
        ).needs_stores
        assert not small(
            control=ControlSpec(policies=("elasticity",))
        ).needs_stores

    def test_with_overrides(self):
        base = small()
        grid = [base.with_(seed=s) for s in range(3)]
        assert [s.seed for s in grid] == [0, 1, 2]
        assert grid[0].workload == base.workload

    def test_legacy_batch_interval_key_is_dropped(self):
        # recordings written while UpdateSpec still had the retired
        # segment-batched runner's batch_interval knob load unchanged
        from repro.scenarios import scenario_from_dict, scenario_to_dict

        scenario = small(updates=UpdateSpec(rate=10.0))
        legacy = scenario_to_dict(scenario)
        legacy["updates"]["batch_interval"] = 1.0
        assert scenario_from_dict(legacy) == scenario


class TestWorkloads:
    @pytest.mark.parametrize("kind", ["poisson", "diurnal", "flash-crowd", "ramp"])
    def test_arrivals_deterministic_and_bounded(self, kind):
        sc = small(workload=WorkloadSpec(kind=kind, rate=30.0, duration=12.0))
        a1, a2 = generate_arrivals(sc), generate_arrivals(sc)
        assert np.array_equal(a1, a2)
        assert a1.size > 0
        assert (np.diff(a1) >= 0).all()
        assert a1[-1] <= 12.0

    def test_flash_crowd_has_a_surge(self):
        sc = small(
            workload=WorkloadSpec(
                kind="flash-crowd", rate=40.0, duration=30.0, surge_factor=5.0
            )
        )
        arr = generate_arrivals(sc)
        pre = ((arr >= 0.0) & (arr < 7.5)).sum() / 7.5
        mid = ((arr >= 7.5) & (arr < 16.5)).sum() / 9.0
        assert mid > 2.5 * pre

    def test_replay_is_verbatim(self):
        trace = (0.5, 1.0, 2.5)
        sc = small(workload=WorkloadSpec(kind="replay", trace=trace))
        assert generate_arrivals(sc).tolist() == list(trace)

    def test_uniform_spacing(self):
        sc = small(workload=WorkloadSpec(kind="uniform", rate=10.0, duration=2.0))
        arr = generate_arrivals(sc)
        assert arr.size == 20
        assert np.allclose(np.diff(arr), 0.1)

    def test_auto_rate_scales_with_pool(self):
        models = build_models(small(n_servers=8))
        assert auto_rate(models, 3, 1e6) < auto_rate(
            build_models(small(n_servers=16)), 3, 1e6
        )


class TestRunner:
    def test_engines_agree_exactly(self):
        # The whole point of the matrix: reference and batched engines are
        # the same experiment.  Events included; logs must match exactly.
        sc = small(
            events=(
                EventSpec(at=3.0, action="fail", count=1),
                EventSpec(at=6.0, action="recover"),
                EventSpec(at=7.0, action="add-server"),
            )
        )
        r_ref = run_scenario_spec(sc, engine="reference")
        r_fast = run_scenario_spec(sc, engine="batched")
        assert r_ref.offered == r_fast.offered
        assert r_ref.completed == r_fast.completed
        assert r_ref.dropped == r_fast.dropped
        assert r_ref.mean_delay == r_fast.mean_delay
        assert r_ref.p99_delay == r_fast.p99_delay
        assert r_ref.servers_end == r_fast.servers_end

    def test_runs_are_reproducible(self):
        sc = small(updates=UpdateSpec(rate=10.0))
        a = run_scenario_spec(sc)
        b = run_scenario_spec(sc)
        assert a.mean_delay == b.mean_delay
        assert a.p99_delay == b.p99_delay
        assert a.updates_applied == b.updates_applied

    def test_events_apply(self):
        sc = small(
            events=(
                EventSpec(at=2.0, action="fail-rack", count=2),
                EventSpec(at=5.0, action="rebuild"),
                EventSpec(at=6.0, action="add-server", count=2),
                EventSpec(at=7.0, action="set-pq", value=5),
                EventSpec(at=8.0, action="rebalance"),
            )
        )
        res = run_scenario_spec(sc)
        assert res.events_applied == 5
        # rack rebuilt (2 removed) then 2 added back
        assert res.servers_end == 8
        assert res.pq_end == 5
        assert res.completed + res.dropped == res.offered

    def test_churn_and_updates(self):
        sc = small(
            churn=ChurnSpec(interval=2.0, add=1, remove=1),
            updates=UpdateSpec(rate=15.0, zipf_s=1.2, hotspots=8),
        )
        res = run_scenario_spec(sc)
        assert res.updates_applied > 50
        assert res.events_applied >= 4  # churn ticks
        assert res.yield_fraction == 1.0

    def test_zipf_updates_skew_load(self):
        # With heavy skew the hottest replica holders do measurably more
        # update work than the median server.
        sc = small(
            workload=WorkloadSpec(kind="poisson", rate=2.0, duration=10.0),
            updates=UpdateSpec(rate=200.0, zipf_s=1.5, hotspots=4, jitter=0.0),
        )
        dep = build_deployment(sc)
        from repro.scenarios.runner import _generate_updates

        for t, pos in _generate_updates(sc, 10.0):
            dep.apply_update(t, at=pos)
        tasks = sorted(s.tasks_run for s in dep.servers.values())
        assert tasks[-1] > 2 * max(1, tasks[len(tasks) // 2])

    def test_repartition_event(self):
        sc = small(
            events=(EventSpec(at=2.0, action="repartition", value=4),),
            workload=WorkloadSpec(kind="poisson", rate=8.0, duration=12.0),
        )
        assert sc.needs_stores
        res = run_scenario_spec(sc)
        assert res.p_store_end == 4.0  # walked online from 3 to 4

    def test_control_loop_reacts(self):
        sc = small(
            n_servers=10,
            workload=WorkloadSpec(
                kind="flash-crowd", rate=30.0, duration=30.0, surge_factor=6.0
            ),
            control=ControlSpec(
                policies=("elasticity",), slo_p99=0.15, interval=2.0
            ),
        )
        res = run_scenario_spec(sc)
        assert res.control_actions > 0
        assert res.servers_end > res.servers_start

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_scenario_spec(small(), engine="warp")


class TestMatrix:
    def test_builtin_battery_shape(self):
        scens = builtin_scenarios(n_servers=12, duration=10.0)
        assert len(scens) >= 6
        names = [s.name for s in scens]
        assert len(set(names)) == len(names)
        # the composition scenario exists and stacks surge onto failure
        cross = next(s for s in scens if s.name == "crowd-x-rack")
        assert cross.workload.kind == "flash-crowd"
        assert any(e.action == "fail-rack" for e in cross.events)
        assert cross.control is not None

    def test_matrix_runs_and_renders(self):
        scens = builtin_scenarios(n_servers=8, duration=6.0, p=3)
        res = run_matrix(scens)
        assert len(res.results) == len(scens)
        table = res.table()
        for s in scens:
            assert s.name in table
        header = table.splitlines()[0]
        for col in ("yield%", "p99_ms", "plan_p"):
            assert col in header
        csv = res.to_csv()
        assert csv.count("\n") == len(scens) + 1

    def test_matrix_progress_callback(self):
        seen = []
        scens = builtin_scenarios(n_servers=8, duration=4.0, p=3)[:2]
        run_matrix(scens, progress=lambda s, r: seen.append(s.name))
        assert seen == [s.name for s in scens]


class TestMatrixCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["matrix", "--list"]) == 0
        out = capsys.readouterr().out
        assert "flash-crowd" in out and "crowd-x-rack" in out

    def test_small_sweep(self, capsys, tmp_path):
        from repro.cli import main

        csv_path = tmp_path / "matrix.csv"
        code = main(
            [
                "matrix",
                "--servers", "8",
                "-p", "3",
                "--duration", "5",
                "--scenario", "steady",
                "--scenario", "flash-crowd",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "steady" in out and "flash-crowd" in out
        assert csv_path.exists()
        assert csv_path.read_text().startswith("scenario,")

    def test_unknown_scenario_errors(self, capsys):
        from repro.cli import main

        assert main(["matrix", "--scenario", "nope"]) == 2


class TestExactEventTime:
    """The action queue: stimuli land between two specific queries."""

    def test_event_lands_between_exact_queries(self):
        # Replay trace so the arrival order is explicit: the fail at t=2.5
        # must be visible to the query at t=3.0, with no batch-boundary lag.
        trace = (1.0, 2.0, 3.0, 4.0, 5.0)
        sc = small(
            workload=WorkloadSpec(kind="replay", trace=trace),
            events=(EventSpec(at=2.5, action="fail", target="node-1"),),
        )
        res = run_scenario_spec(sc, engine="batched")

        # manual reference interleaving -- the ground truth
        dep = build_deployment(sc)
        for t in (1.0, 2.0):
            dep.run_query(t, sc.p)
        dep.fail_node("node-1", 2.5)
        for t in (3.0, 4.0, 5.0):
            dep.run_query(t, sc.p)
        got = run_scenario_spec(sc, engine="reference")
        assert res.mean_delay == got.mean_delay
        ref_delays = [r.delay for r in dep.log.records]
        run = run_scenario_spec(sc, engine="batched")
        assert run.completed == len(ref_delays)
        assert run.mean_delay == sum(ref_delays) / len(ref_delays)

    def test_engines_agree_with_exact_time_updates(self):
        sc = small(
            updates=UpdateSpec(rate=40.0, zipf_s=1.3, hotspots=6),
            events=(EventSpec(at=4.0, action="fail", count=1),
                    EventSpec(at=7.0, action="recover")),
        )
        r_ref = run_scenario_spec(sc, engine="reference")
        r_fast = run_scenario_spec(sc, engine="batched")
        assert r_ref.updates_applied == r_fast.updates_applied > 100
        assert r_ref.mean_delay == r_fast.mean_delay
        assert r_ref.p99_delay == r_fast.p99_delay
        assert r_ref.offered == r_fast.offered

    def test_set_pq_after_inflight_repartition_completes(self):
        # Regression: the set-pq action pumps the simulation, which can
        # complete an in-flight repartition (p 3 -> 2 downloads finishing
        # inside the action).  The batched engine's stored-level mirror
        # must refresh, or pq=2 would be rejected against a stale p=3.
        sc = small(
            workload=WorkloadSpec(kind="poisson", rate=8.0, duration=14.0),
            events=(
                EventSpec(at=2.0, action="repartition", value=2),
                EventSpec(at=9.0, action="set-pq", value=2),
            ),
            store_objects=True,
        )
        r_fast = run_scenario_spec(sc, engine="batched")
        r_ref = run_scenario_spec(sc, engine="reference")
        assert r_fast.p_store_end == r_ref.p_store_end == 2.0
        assert r_fast.pq_end == r_ref.pq_end == 2
        assert r_fast.mean_delay == r_ref.mean_delay
