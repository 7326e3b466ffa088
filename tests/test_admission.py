"""Admission control: registry, policies, invariants, bit-identity.

Three layers of hardening for the admission subsystem (ISSUE-10):

* unit tests over the registry/policy vocabulary and the ShedLog
  round-trip through the archive layer;
* hypothesis property tests for the four admission invariants (AIMD
  rate clamping, no sheds below the queue cap, delay_gated honouring
  the SLO, admitted backlog bounded by the cap on any seed);
* differential bit-identity tests: ``admission="none"`` must be
  byte-identical to the pre-admission seed -- BatchResult arrays,
  telemetry columns, and rng stream states, on both engines, on every
  exact kernel, including the ``REPRO_NO_COMPILED_KERNEL`` fallback
  subprocess.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._rng import capture_streams
from repro.admission import (
    AIMDAdmission,
    DelayGatedAdmission,
    NoneAdmission,
    ShedLog,
    admission_from_archive,
    build_admission,
    canonical_spec,
    explain_admission,
    get_policy,
    is_known_policy,
    policy_names,
    policy_specs,
    render_admission,
    resolve_admission,
)
from repro.cluster import Deployment, DeploymentConfig, hen_testbed
from repro.scenarios import AdmissionSpec, builtin_scenarios
from repro.sim import PoissonArrivals


def _deployment(n=8, seed=3):
    return Deployment(
        DeploymentConfig(
            models=hen_testbed(n), p=4, dataset_size=1e6, seed=seed,
            charge_scheduling=False,
        )
    )


# -- registry -------------------------------------------------------------


class TestRegistry:
    def test_policy_names(self):
        names = policy_names()
        assert {"none", "aimd", "delay_gated"} <= set(names)

    def test_aliases_resolve(self):
        assert canonical_spec("accept-all") == "none"
        assert canonical_spec("delay") == "delay_gated"
        assert canonical_spec("delay:slo=2") == "delay_gated:slo=2"

    def test_none_is_passthrough(self):
        policy = get_policy("none")
        assert policy.passthrough
        assert resolve_admission("none") is None
        assert resolve_admission(None) is None
        assert resolve_admission("accept-all") is None

    def test_active_policies_resolve_to_instances(self):
        assert isinstance(resolve_admission("aimd"), AIMDAdmission)
        assert isinstance(resolve_admission("delay_gated"), DelayGatedAdmission)

    def test_spec_parameters(self):
        policy = get_policy("aimd:floor=2,capacity=40,slo=0.5")
        assert policy.slo == 0.5
        assert policy.floor == 2.0
        assert policy.capacity == 40.0

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            get_policy("bogus")
        assert not is_known_policy("bogus")
        assert is_known_policy("aimd:floor=2")

    def test_instance_passthrough(self):
        inst = DelayGatedAdmission()
        assert get_policy(inst) is inst
        assert resolve_admission(inst) is inst
        assert resolve_admission(NoneAdmission()) is None

    def test_policy_specs_rows(self):
        rows = {r["name"]: r for r in policy_specs()}
        assert rows["none"]["passthrough"] is True
        assert rows["aimd"]["passthrough"] is False
        assert all(r["description"] for r in rows.values())

    def test_build_admission_from_spec(self):
        spec = AdmissionSpec(policy="aimd", slo=0.5, floor=2.0, capacity=40.0)
        policy = build_admission(spec)
        assert isinstance(policy, AIMDAdmission)
        assert policy.slo == 0.5
        assert policy.floor == 2.0
        assert build_admission(None) is None
        assert build_admission(AdmissionSpec(policy="none")) is None

    def test_admission_spec_validates(self):
        with pytest.raises(ValueError):
            AdmissionSpec(policy="bogus")
        with pytest.raises(ValueError):
            AdmissionSpec(slo=0.0)
        with pytest.raises(ValueError):
            AdmissionSpec(tick=-1.0)


# -- ShedLog --------------------------------------------------------------


class TestShedLog:
    def test_roundtrip_through_archive(self, tmp_path):
        from repro.telemetry.archive import ArchiveWriter, read_archive

        log = ShedLog()
        log.record_shed(1.0, 10, "rate", backlog=0.5, signal=0.0)
        log.record_shed(2.0, 20, "queue-cap", backlog=3.0, signal=1.0)
        log.record_shed(2.5, 21, "rate", backlog=0.2, signal=0.0)
        log.record_tick(3.0, 25, rate=8.0, p99=1.5, backlog_hwm=3.0,
                        accepted=23, shed=3, cap_queries=16.0)
        path = tmp_path / "shed.npz"
        ArchiveWriter(str(path)).close(
            meta={"admission": log.meta(policy="aimd")}, extra_columns=log.columns()
        )
        sheds, ticks, meta = admission_from_archive(read_archive(str(path)))
        assert [s.reason for s in sheds] == ["rate", "queue-cap", "rate"]
        assert sheds[1].query_index == 20
        assert ticks[0].accepted == 23 and ticks[0].shed == 3
        assert meta["policy"] == "aimd"

    @pytest.mark.parametrize("corrupt, column", [
        ("missing", "shed_backlog"),
        ("missing", "adm_p99"),
        ("ragged", "adm_shed"),
        ("index", "shed_reason"),
    ])
    def test_malformed_archive_names_path_column_and_fix(
        self, tmp_path, capsys, corrupt, column
    ):
        from repro.cli import main
        from repro.telemetry.archive import ArchiveWriter, read_archive

        log = ShedLog()
        log.record_shed(1.0, 10, "rate", backlog=0.5, signal=0.0)
        log.record_shed(2.0, 20, "queue-cap", backlog=3.0, signal=1.0)
        log.record_tick(3.0, 25, rate=8.0, p99=1.5, backlog_hwm=3.0,
                        accepted=23, shed=2, cap_queries=16.0)
        log.record_tick(4.0, 30, rate=9.0, p99=1.2, backlog_hwm=2.0,
                        accepted=28, shed=2, cap_queries=18.0)
        cols, meta = log.columns(), log.meta(policy="aimd")
        if corrupt == "missing":
            del cols[column]
        elif corrupt == "ragged":
            cols[column] = cols[column][:1]
        else:  # one past the end of the interned reason table
            cols[column][1] = len(meta["reasons"])
        path = tmp_path / "bad.npz"
        ArchiveWriter(str(path)).close(
            meta={"admission": meta}, extra_columns=cols
        )
        with pytest.raises(ValueError) as err:
            admission_from_archive(read_archive(str(path)))
        message = str(err.value)
        assert str(path) in message and repr(column) in message
        assert "write it again" in message

        assert main(["explain", str(path)]) == 2
        out, errout = capsys.readouterr()
        assert out == ""
        assert errout.strip() == f"cannot explain {message}"

    def test_chunk_rows_are_deltas(self):
        log = ShedLog()
        log.record_chunk(0, 10, 4)
        log.record_chunk(10, 6, 9)  # running shed total 9 -> delta 5
        cols = log.columns()
        assert cols["shedchunk_shed"].tolist() == [4, 5]
        assert cols["shedchunk_accepted"].tolist() == [10, 6]

    def test_no_admission_columns_raises(self, tmp_path):
        from repro.telemetry.archive import ArchiveWriter, read_archive

        path = tmp_path / "plain.npz"
        ArchiveWriter(str(path)).close()
        archive = read_archive(str(path))
        with pytest.raises(ValueError):
            admission_from_archive(archive)

    def test_render_admission(self):
        log = ShedLog()
        log.record_shed(1.0, 5, "p99", backlog=0.4, signal=2.0)
        log.record_tick(2.0, 9, rate=math.nan, p99=2.0, backlog_hwm=0.4,
                        accepted=8, shed=1, cap_queries=12.0)
        sheds, ticks = log.records(log.meta(policy="delay_gated", slo=1.0))
        text = render_admission(sheds, ticks, meta=log.meta(policy="delay_gated"))
        assert "policy=delay_gated" in text
        assert "p99=1" in text
        assert "shed: 1" in text


# -- property tests: the four admission invariants ------------------------

tick_inputs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),  # p99 seen at the tick
        st.floats(min_value=0.0, max_value=20.0),  # backlog before the tick
    ),
    min_size=1,
    max_size=40,
)


class TestAdmissionInvariants:
    @given(ticks=tick_inputs,
           floor=st.floats(min_value=0.5, max_value=5.0),
           capacity=st.floats(min_value=5.0, max_value=200.0))
    @settings(max_examples=60, deadline=None)
    def test_aimd_rate_stays_within_floor_and_capacity(
        self, ticks, floor, capacity
    ):
        policy = AIMDAdmission(
            slo=1.0, floor=floor, capacity=capacity, increase=7.0, decrease=0.5
        )
        now = 0.0
        for p99, backlog in ticks:
            now += 1.0
            # drive the windowed p99 through observed delays and the
            # backlog through an admit, exactly like the engine does
            policy.observe(now, p99)
            policy.admit(0, now, min(backlog, policy.queue_cap * 0.99))
            policy.tick(now)
            assert floor <= policy.current_rate() <= capacity

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           backlogs=st.lists(st.floats(min_value=0.0, max_value=100.0),
                             min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_no_policy_sheds_on_queue_cap_below_the_cap(self, seed, backlogs):
        """Below the cap, a shed can only come from the policy's own gate."""
        for spec in ("aimd:floor=1,capacity=10,rate=1,burst=1",
                     "delay_gated"):
            policy = get_policy(spec)
            now = 0.0
            for backlog in backlogs:
                now += 0.01
                reason = policy.admit(0, now, backlog)
                if backlog < policy.queue_cap:
                    assert reason != "queue-cap"
                else:
                    assert reason == "queue-cap"

    @given(backlogs=st.lists(
        st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=60
    ))
    @settings(max_examples=60, deadline=None)
    def test_accept_all_none_policy_never_sheds(self, backlogs):
        policy = NoneAdmission()
        now = 0.0
        for backlog in backlogs:
            now += 0.5
            assert policy.admit(0, now, backlog) is None
        assert policy.shed == 0
        assert policy.accepted == len(backlogs)

    @given(delays=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=50
    ))
    @settings(max_examples=60, deadline=None)
    def test_delay_gated_never_sheds_while_p99_within_slo(self, delays):
        policy = DelayGatedAdmission(slo=1.0, window=100.0)
        now = 0.0
        for d in delays:  # every observed delay is <= the 1.0s SLO
            now += 0.1
            policy.observe(now, d)
        for _ in range(10):
            now += 0.1
            reason = policy.admit(0, now, 0.5 * policy.queue_cap)
            assert reason is None
        assert policy.shed == 0

    @given(delays=st.lists(
        st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=50
    ))
    @settings(max_examples=60, deadline=None)
    def test_delay_gated_sheds_iff_windowed_p99_over_slo(self, delays):
        policy = DelayGatedAdmission(slo=1.0, window=100.0)
        now = 0.0
        for d in delays:
            now += 0.1
            policy.observe(now, d)
        p99 = policy.window.percentile(99, now)
        reason = policy.admit(0, now, 0.0)
        assert (reason == "p99") == (p99 > 1.0)

    @given(seed=st.integers(min_value=0, max_value=1000),
           spec=st.sampled_from([
               "aimd:slo=0.5,cap_multiple=2",
               "aimd:slo=1,cap_multiple=4,floor=5,capacity=60",
               "delay_gated:slo=0.5,cap_multiple=2",
               "delay_gated:slo=1,cap_multiple=1",
           ]))
    @settings(max_examples=25, deadline=None)
    def test_admitted_backlog_never_exceeds_cap_on_any_seed(self, seed, spec):
        """Engine-level: under overload, accepted queries always found the
        busiest-server backlog below the configured cap (>= cap sheds)."""
        policy = get_policy(spec)
        dep = _deployment(n=6, seed=seed % 7 + 1)
        arrivals = PoissonArrivals(120.0, seed=seed).times(300)
        result = dep.run_queries_fast(arrivals, 4, admission=policy)
        assert policy.max_admitted_backlog < policy.queue_cap
        assert result.shed == policy.shed
        assert result.completed == policy.accepted


# -- differential bit-identity: admission="none" is the seed --------------


def _run_batch(engine, admission, seed=5, kernel=None):
    from repro.sim.fastpath import run_queries_reference

    dep = _deployment(seed=seed)
    arrivals = PoissonArrivals(80.0, seed=seed).times(400)
    if engine == "reference":
        result = run_queries_reference(dep, arrivals, 4, admission=admission)
    else:
        result = dep.run_queries_fast(
            arrivals, 4, admission=admission, kernel=kernel
        )
    return dep, result


def _assert_batches_identical(a, b):
    assert a.latencies.tobytes() == b.latencies.tobytes()
    assert a.finishes.tobytes() == b.finishes.tobytes()
    assert a.query_ids.tobytes() == b.query_ids.tobytes()
    assert a.pqs.tobytes() == b.pqs.tobytes()
    assert (a.completed, a.dropped, a.shed) == (b.completed, b.dropped, b.shed)


class TestNonePolicyBitIdentity:
    @pytest.mark.parametrize("engine", ["batched", "reference"])
    def test_engine_arrays_and_streams_identical(self, engine):
        from repro._rng import reset_default_streams

        reset_default_streams()
        base_dep, base = _run_batch(engine, admission=None)
        base_streams = capture_streams()
        reset_default_streams()
        dep, run = _run_batch(engine, admission="none")
        assert run.shed == 0
        _assert_batches_identical(base, run)
        assert dep.log.delays() == base_dep.log.delays()
        assert capture_streams() == base_streams

    def test_exact_kernels_identical(self):
        from repro.kernels import kernel_specs

        _, base = _run_batch("batched", admission=None)
        for row in kernel_specs():
            if not row["available"]:
                continue
            _, run = _run_batch("batched", admission="none", kernel=row["name"])
            assert run.shed == 0, row["name"]
            _assert_batches_identical(base, run)

    def test_scenario_archives_identical(self, tmp_path):
        """Scenario runs with an explicit policy="none" AdmissionSpec are
        column-identical to runs with no admission block at all."""
        from repro.scenarios import run_scenario_spec
        from repro.telemetry.archive import archive_diff, read_archive

        scens = {
            s.name: s
            for s in builtin_scenarios(n_servers=10, duration=8.0, p=4, seed=2)
        }
        for name in ("steady", "sustained-overload"):
            scenario = scens[name]
            bare = dataclasses.replace(scenario, admission=None)
            spec = AdmissionSpec(policy="none")
            explicit = dataclasses.replace(scenario, admission=spec)
            path_a = tmp_path / f"{name}-bare.npz"
            path_b = tmp_path / f"{name}-none.npz"
            ra = run_scenario_spec(bare, archive_path=str(path_a))
            rb = run_scenario_spec(explicit, archive_path=str(path_b))
            assert rb.shed == 0 and ra.shed == 0
            assert ra.p99_delay == rb.p99_delay
            diff = archive_diff(
                read_archive(str(path_a)), read_archive(str(path_b))
            )
            assert diff["gated_identical"], diff

    def test_no_compiled_kernel_subprocess_identical(self):
        """The pure-python fallback build agrees byte for byte too."""
        code = """
import json, sys
from repro.cluster import Deployment, DeploymentConfig, hen_testbed
from repro.sim import PoissonArrivals

def run(admission):
    dep = Deployment(DeploymentConfig(
        models=hen_testbed(8), p=4, dataset_size=1e6, seed=5,
        charge_scheduling=False,
    ))
    arrivals = PoissonArrivals(80.0, seed=5).times(300)
    res = dep.run_queries_fast(arrivals, 4, admission=admission)
    return res.latencies.tobytes().hex(), res.shed

base, _ = run(None)
none_run, shed = run("none")
print(json.dumps({"identical": base == none_run, "shed": shed}))
"""
        env = {
            "REPRO_NO_COMPILED_KERNEL": "1",
            "PYTHONPATH": "src",
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        }
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120,
            cwd=Path(__file__).resolve().parents[1], env=env,
        )
        assert proc.returncode == 0, proc.stderr
        import json

        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        assert payload == {"identical": True, "shed": 0}


# -- active policies: engine parity + explain reconstruction --------------


class TestActivePolicyBehaviour:
    @pytest.mark.parametrize("spec", [
        "aimd:slo=0.5,cap_multiple=2,floor=20,capacity=300",
        "delay_gated:slo=0.5,cap_multiple=2",
    ])
    def test_engines_agree_under_overload(self, spec):
        _, fast = _run_batch("batched", admission=get_policy(spec))
        _, ref = _run_batch("reference", admission=get_policy(spec))
        assert fast.shed > 0
        _assert_batches_identical(fast, ref)

    def test_shed_queries_consume_no_rng_and_no_log_rows(self):
        dep, run = _run_batch(
            "batched", admission=get_policy("delay_gated:slo=0.2,cap_multiple=1")
        )
        assert run.shed > 0
        assert dep.log.n_records == run.completed
        # shed slots: NaN latency, -1 query id, pq recorded
        nan_slots = int(np.isnan(run.latencies).sum())
        assert nan_slots == run.shed + run.dropped
        assert int((run.query_ids == -1).sum()) == run.shed + run.dropped

    def test_explain_checks_pass_on_archived_run(self, tmp_path):
        from repro.scenarios import run_scenario_spec
        from repro.telemetry.archive import read_archive

        scens = {
            s.name: s
            for s in builtin_scenarios(n_servers=10, duration=8.0, p=4, seed=2)
        }
        scenario = scens["sustained-overload"]
        scenario = dataclasses.replace(
            scenario,
            admission=dataclasses.replace(scenario.admission, policy="aimd"),
        )
        path = tmp_path / "aimd.npz"
        result = run_scenario_spec(scenario, archive_path=str(path))
        assert result.shed > 0
        archive = read_archive(str(path))
        sheds, ticks, meta = admission_from_archive(archive)
        assert len(sheds) == result.shed
        assert meta["policy"] == "aimd"
        checks = explain_admission(archive)
        assert checks and all(ok for _, ok, _, _ in checks)
        # every shed decision carries its exact arrival-stream index
        assert all(0 <= s.query_index < result.offered for s in sheds)

    def test_goodput_ordering_on_sustained_overload(self):
        """The ISSUE-10 acceptance bar: under 2x overload both active
        policies beat accept-all on goodput AND p99."""
        from repro.scenarios import run_scenario_spec

        scens = {
            s.name: s
            for s in builtin_scenarios(n_servers=10, duration=10.0, p=4, seed=2)
        }
        base = scens["sustained-overload"]
        results = {}
        for policy in ("none", "aimd", "delay_gated"):
            scenario = dataclasses.replace(
                base, admission=dataclasses.replace(base.admission, policy=policy)
            )
            results[policy] = run_scenario_spec(scenario)
        for policy in ("aimd", "delay_gated"):
            assert results[policy].goodput > results["none"].goodput
            assert results[policy].p99_delay < results["none"].p99_delay
