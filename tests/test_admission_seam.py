"""Admission on the commit seam: every path makes the same decisions.

Bulk-capable policies (the queue cap alone, and AIMD's token bucket) run
their per-query pre-check inside ``commit_batch``; ``delay_gated`` and
any policy that overrides a per-query hook are asked per query by the
engine, which then commits one admitted query per ``commit_batch`` call.
Three paths must agree byte for byte:

* ``reference`` -- :func:`run_queries_reference`, one ``run_query`` each;
* ``python_seam`` -- the seam with the python ``commit_batch``
  (``exact_numpy``);
* ``compiled`` -- the seam with ``roar_commit_batch`` in C.

Compared: the ``BatchResult`` arrays and counts, the ``shed_*``/``adm_*``
ShedLog columns and reason table, the policy's counters and token state,
its delay window, the network rng state, and the deployment's server and
front-end state.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_fastpath import _build, assert_deployments_identical

from repro.admission import AIMDAdmission, DelayGatedAdmission, ShedLog, get_policy
from repro.admission.base import AdmissionPolicy
from repro.kernels.base import AdmissionGate
from repro.kernels.compiled import compiled_available
from repro.obs.profiler import SpanRecorder
from repro.sim import PoissonArrivals
from repro.sim import fastpath
from repro.sim.fastpath import Action, run_queries_reference

PATHS = ["reference", "python_seam", "compiled"]

AIMD = "aimd:slo=0.5,cap_multiple=2,floor=5,capacity=40,burst=4"


def _aimd():
    return get_policy(AIMD)


def _cap_only():
    return AdmissionPolicy(slo=0.5, cap_multiple=1.0)


def _delay_gated():
    return get_policy("delay_gated:slo=0.5,cap_multiple=2,window=0.5")


class _ScaledDelayGated(DelayGatedAdmission):
    """Overrides a per-query hook: the engine must call this ``observe``
    (not the base ``observe_chunk``) for every committed query."""

    def observe(self, now, delay):
        super().observe(now, 3.0 * delay)


def _scaled_delay_gated():
    return _ScaledDelayGated(slo=0.5, cap_multiple=2, window=0.5)


def _run(path, make_policy, monkeypatch, n_q=600, rate=90.0, tick_every=97):
    """One run of *path*; returns (deployment, result, policy)."""
    if path == "compiled" and not compiled_available():
        pytest.skip("compiled kernel unavailable")
    arrivals = PoissonArrivals(rate, seed=4).times(n_q)
    dep = _build(n=12, seed=5)
    policy = make_policy()
    actions = [
        Action(i, arrivals[i - 1], lambda now, i=i: policy.tick(now, i), scope="none")
        for i in range(tick_every, n_q, tick_every)
    ]
    if path == "reference":
        result = run_queries_reference(
            dep, arrivals, 4, record_assignments=True, actions=actions,
            admission=policy,
        )
        return dep, result, policy
    kernel = "compiled" if path == "compiled" else "exact_numpy"
    result = dep.run_queries_fast(
        arrivals, 4, record_assignments=True, actions=actions, kernel=kernel,
        admission=policy,
    )
    return dep, result, policy


def _fingerprint(dep, result, policy):
    cols = policy.log.columns()
    return {
        "arrays": (
            result.latencies.tobytes(),
            result.finishes.tobytes(),
            result.query_ids.tobytes(),
            result.pqs.tobytes(),
        ),
        "counts": (result.completed, result.dropped, result.shed),
        "log": {k: v.tobytes() for k, v in cols.items()},
        "reasons": policy.log.meta()["reasons"],
        "policy": (
            policy.accepted,
            policy.shed,
            policy.max_admitted_backlog,
            policy._backlog_hwm,
            getattr(policy, "_tokens", None),
            getattr(policy, "_accrued_at", None),
            policy.current_rate(),
        ),
        "window": policy.window.values(),
        "rng": dep.network.rng.getstate(),
    }


def _assert_paths_agree(runs):
    base_dep, base_res, base_pol = runs["reference"]
    base = _fingerprint(base_dep, base_res, base_pol)
    for path, (dep, res, pol) in runs.items():
        assert _fingerprint(dep, res, pol) == base, path
        assert_deployments_identical(base_dep, dep)
        # shed slots carry empty assignments on every path
        shed = np.isnan(res.latencies)
        assert all(res.assignments[i] == () for i in np.flatnonzero(shed))
    fast = [runs[p][1].assignments for p in PATHS[1:] if p in runs]
    assert all(a == fast[0] for a in fast)


def _run_all(monkeypatch, make_policy, **kw):
    runs = {}
    for path in PATHS:
        if path == "compiled" and not compiled_available():
            continue
        with monkeypatch.context() as m:
            runs[path] = _run(path, make_policy, m, **kw)
    return runs


class TestPathsAgree:
    @pytest.mark.parametrize(
        "make_policy",
        [_aimd, _cap_only, _delay_gated, _scaled_delay_gated],
        ids=["aimd", "cap", "delay_gated", "scaled-delay"],
    )
    def test_ticks_mid_span(self, monkeypatch, make_policy):
        runs = _run_all(monkeypatch, make_policy)
        _assert_paths_agree(runs)
        _, res, pol = runs["reference"]
        assert res.shed > 0 and res.completed > 0
        assert pol.log.n_ticks == 6
        if make_policy is _aimd:
            assert set(pol.log.meta()["reasons"]) == {"queue-cap", "rate"}
        if make_policy in (_delay_gated, _scaled_delay_gated):
            assert "p99" in pol.log.meta()["reasons"]

    def test_chunks_crossing_a_small_chunk_cap(self, monkeypatch):
        monkeypatch.setattr(fastpath, "CHUNK_CAP", 16)
        runs = _run_all(monkeypatch, _aimd)
        _assert_paths_agree(runs)
        # several chunks per tick span on the seam
        assert len(runs["python_seam"][1].chunk_sizes) > 7

    def test_all_shed_span(self, monkeypatch):
        """One token, refilled at 0.01/s: after the first query every span
        sheds everything, so whole chunks admit nothing."""

        def starved():
            return AIMDAdmission(
                slo=0.5, floor=0.01, capacity=0.01, rate=0.01, burst=1.0
            )

        runs = _run_all(monkeypatch, starved)
        _assert_paths_agree(runs)
        _, res, pol = runs["reference"]
        assert res.completed == 1 and res.shed == 599
        assert pol.log.meta()["reasons"] == ["rate"]

    def test_no_shed_span_matches_no_admission(self, monkeypatch):
        def generous():
            return AIMDAdmission(
                slo=1e6, floor=1.0, capacity=1e9, rate=1e9, burst=1e9
            )

        runs = _run_all(monkeypatch, generous, rate=40.0)
        _assert_paths_agree(runs)
        for path in ("python_seam", "compiled"):
            if path not in runs:
                continue
            dep, res, _ = runs[path]
            assert res.shed == 0
            plain_dep = _build(n=12, seed=5)
            plain = plain_dep.run_queries_fast(
                PoissonArrivals(40.0, seed=4).times(600), 4,
                kernel="compiled" if path == "compiled" else "exact_numpy",
            )
            assert res.latencies.tobytes() == plain.latencies.tobytes()
            assert res.query_ids.tobytes() == plain.query_ids.tobytes()
            assert dep.network.rng.getstate() == plain_dep.network.rng.getstate()
            assert_deployments_identical(plain_dep, dep)

    def test_profiled_seam_is_identical(self, monkeypatch):
        """A run under the span recorder is the unrecorded run, byte for
        byte, on every path: gated inside ``commit_batch`` (AIMD) and
        asked per query (``delay_gated``)."""
        for make_policy in (_aimd, _delay_gated):
            for path in PATHS:
                if path == "compiled" and not compiled_available():
                    continue
                dep, res, pol = _run(path, make_policy, monkeypatch)
                with SpanRecorder() as rec:
                    rdep, rres, rpol = _run(path, make_policy, monkeypatch)
                assert _fingerprint(rdep, rres, rpol) == _fingerprint(dep, res, pol)
                assert rres.assignments == res.assignments
                assert_deployments_identical(dep, rdep)
                assert rec.summary()["spans"]["admission.tick"]["calls"] == 6

    def test_seam_makes_no_per_query_admit_calls(self, monkeypatch):
        calls = []
        original = AdmissionPolicy.admit

        def counting(self, *args):
            calls.append(args[0])
            return original(self, *args)

        monkeypatch.setattr(AdmissionPolicy, "admit", counting)
        _, res, _ = _run("python_seam", _aimd, monkeypatch)
        assert res.shed > 0 and calls == []

    def test_no_compiled_kernel_subprocess(self):
        """The pure-python build: python seam and reference path agree
        without the C kernel anywhere."""
        code = """
import numpy as np
from repro.admission import get_policy
from repro.kernels.compiled import compiled_available
from repro.sim import PoissonArrivals
from repro.sim.fastpath import run_queries_reference
from repro.cluster import Deployment, DeploymentConfig, hen_testbed

assert not compiled_available()

def run(path):
    dep = Deployment(DeploymentConfig(models=hen_testbed(10), p=4,
        dataset_size=1e6, seed=5, charge_scheduling=False))
    pol = get_policy("aimd:slo=0.5,cap_multiple=2,floor=20,capacity=300")
    arr = PoissonArrivals(90.0, seed=4).times(400)
    if path == "reference":
        res = run_queries_reference(dep, arr, 4, admission=pol)
    else:
        res = dep.run_queries_fast(arr, 4, admission=pol)
    cols = pol.log.columns()
    return (res.latencies.tobytes(), res.shed, pol._tokens,
            [cols[k].tobytes() for k in sorted(cols)],
            dep.network.rng.getstate())

ref = run("reference")
assert ref[1] > 0
assert run("python_seam") == ref
print("gated-seam-fallback-ok")
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
        assert "gated-seam-fallback-ok" in proc.stdout


class TestBulkCapability:
    def test_which_policies_take_the_seam(self):
        assert get_policy("aimd").bulk_capable()
        assert AdmissionPolicy().bulk_capable()
        assert not get_policy("delay_gated").bulk_capable()

    def test_overriding_a_per_query_hook_opts_out(self):
        class Custom(AIMDAdmission):
            def _decide(self, now, backlog):
                return super()._decide(now, backlog)

        class Retuned(AIMDAdmission):
            def _adapt(self, now, p99):  # ticks only: still bulk-capable
                super()._adapt(now, p99)

        class Gated(DelayGatedAdmission):
            pass

        assert not Custom().bulk_capable()
        assert Retuned().bulk_capable()
        assert not Gated().bulk_capable()

    def test_engine_routes_by_capability(self):
        dep = _build(n=8, seed=5)
        arrivals = np.asarray(PoissonArrivals(10.0, seed=1).times(20))
        kernel = fastpath.get_kernel("exact_numpy")
        for policy, gated in ((get_policy("aimd"), True), (get_policy("delay_gated"), False)):
            engine = fastpath._Engine(dep, arrivals, 4, False, [], kernel, admission=policy)
            assert (engine.gate is not None) is gated
        engine = fastpath._Engine(dep, arrivals, 4, False, [], kernel)
        assert engine.gate is None

    def test_export_import_round_trip(self):
        pol = AIMDAdmission(slo=0.5, rate=7.0, burst=3.0)
        gate = AdmissionGate(4)
        pol.export_bulk(gate)
        assert gate.bucket and gate.rate == 7.0 and gate.burst == 3.0
        assert gate.tokens == 3.0 and np.isnan(gate.accrued_at)
        assert gate.queue_cap == pol.queue_cap
        gate.tokens, gate.accrued_at = 1.5, 2.0
        gate.n_admitted, gate.n_shed = 3, 0
        pol.import_bulk(gate)
        assert (pol._tokens, pol._accrued_at, pol.accepted) == (1.5, 2.0, 3)


class TestRecordSheds:
    def test_matches_per_row_records(self):
        rows = [
            (1.0, 4, "rate", 0.5, 0.2),
            (1.5, 7, "queue-cap", 3.0, 0.4),
            (2.0, 9, "rate", 0.1, 0.6),
        ]
        one = ShedLog()
        one.record_shed(0.5, 1, "p99", 0.0, 0.0)  # pre-interned reason
        for row in rows:
            one.record_shed(*row)
        bulk = ShedLog()
        bulk.record_shed(0.5, 1, "p99", 0.0, 0.0)
        reasons = ("queue-cap", "rate")
        bulk.record_sheds(
            [r[0] for r in rows],
            [r[1] for r in rows],
            [reasons.index(r[2]) for r in rows],
            [r[3] for r in rows],
            [r[4] for r in rows],
            reasons,
        )
        a, b = one.columns(), bulk.columns()
        assert {k: v.tobytes() for k, v in a.items()} == {
            k: v.tobytes() for k, v in b.items()
        }
        assert one.meta()["reasons"] == bulk.meta()["reasons"] == ["p99", "rate", "queue-cap"]

    def test_empty_run_is_a_no_op(self):
        log = ShedLog()
        log.record_sheds([], [], [], [], [], AdmissionGate.REASONS)
        assert log.n_sheds == 0 and log.meta()["reasons"] == []


class TestAdmissionWithFailureWindow:
    """Admission x failure window: sustained overload under AIMD with a
    rack failure and rebuild.  The seam runs before, inside and after the
    window, stopping at each query it delegates, and both engines land
    on the same latencies, shed count and ShedLog columns."""

    def _scenario(self):
        from repro.scenarios import builtin_scenarios

        scens = {
            s.name: s
            for s in builtin_scenarios(n_servers=12, duration=15.0, p=4, seed=2)
        }
        base = scens["sustained-overload"]
        return dataclasses.replace(
            base,
            admission=dataclasses.replace(base.admission, policy="aimd"),
            events=scens["rack-failure"].events,
        )

    @pytest.mark.parametrize("kernel", ["exact_numpy", "compiled"])
    def test_engines_agree(self, monkeypatch, kernel):
        from repro.scenarios.runner import execute_scenario

        if kernel == "compiled" and not compiled_available():
            pytest.skip("compiled kernel unavailable")
        starts = []
        owner = type(fastpath.get_kernel(kernel))
        original = owner.commit_batch

        def spy(self, state, entry, plan, bufs, start, nq, gate=None, failed=None,
                updates=None):
            starts.append(start)
            return original(
                self, state, entry, plan, bufs, start, nq, gate, failed, updates
            )

        monkeypatch.setattr(owner, "commit_batch", spy)
        scenario = self._scenario()
        fast = execute_scenario(scenario, kernel=kernel)
        ref = execute_scenario(scenario, engine="reference")

        fail_at, rebuild_at = (e.at for e in scenario.events)
        arrivals = fast.batch.arrivals
        first_fail = int(np.searchsorted(arrivals, fail_at, side="right"))
        first_rebuilt = int(np.searchsorted(arrivals, rebuild_at, side="right"))
        assert fast.batch.delegated > 0
        assert min(starts) < first_fail and max(starts) >= first_rebuilt
        assert any(first_fail <= s < first_rebuilt for s in starts)
        assert fast.batch.shed > 0

        assert fast.batch.latencies.tobytes() == ref.batch.latencies.tobytes()
        assert fast.batch.shed == ref.batch.shed
        cols_f = fast.admission.log.columns()
        cols_r = ref.admission.log.columns()
        assert cols_f.keys() == cols_r.keys()
        for name, col in cols_r.items():
            assert col.tobytes() == cols_f[name].tobytes(), name
        assert fast.admission.log.meta() == ref.admission.log.meta()


class TestAdmissionWithElasticity:
    """Admission x the SLO-elasticity loop: builtin sustained-overload (16
    servers, 60 s, seed 3) under each admission policy, with an
    elasticity loop whose SLO the overload breaks, so the run both sheds
    and resizes the fleet.  Each engine configuration writes the same
    archive, the decision (``dec_*``), shed (``shed_*``) and admission
    (``adm_*``) columns included."""

    def _scenario(self, policy):
        from repro.scenarios import ControlSpec, builtin_scenarios

        scens = {
            s.name: s
            for s in builtin_scenarios(n_servers=16, duration=60.0, seed=3)
        }
        base = scens["sustained-overload"]
        return dataclasses.replace(
            base,
            admission=dataclasses.replace(base.admission, policy=policy),
            # at slo_p99=1.0 the loop never acts under this overload
            control=ControlSpec(policies=("elasticity",), slo_p99=0.25),
        )

    def _archive(self, tmp_path, scenario, engine, kernel):
        from repro.scenarios.runner import execute_scenario
        from repro.telemetry.archive import read_archive

        path = str(tmp_path / f"{engine}-{kernel}.npz")
        ex = execute_scenario(
            scenario, engine=engine, kernel=kernel, archive_path=path
        )
        assert ex.batch.shed > 0
        assert sum(len(c.actions) for c in ex.controllers) > 0
        return read_archive(path)

    @pytest.mark.parametrize("kernel", ["exact_numpy", "compiled"])
    @pytest.mark.parametrize("policy", ["aimd", "delay_gated"])
    def test_engines_write_identical_archives(self, tmp_path, policy, kernel):
        from repro.telemetry.archive import archive_diff

        if kernel == "compiled" and not compiled_available():
            pytest.skip("compiled kernel unavailable")
        scenario = self._scenario(policy)
        ref = self._archive(tmp_path, scenario, "reference", None)
        fast = self._archive(tmp_path, scenario, "batched", kernel)
        for prefix in ("dec_", "shed_", "adm_"):
            assert any(name.startswith(prefix) for name in ref.columns), prefix
        diff = archive_diff(ref, fast)
        assert diff["gated_identical"], sorted(
            name for name, entry in diff["columns"].items() if not entry["equal"]
        )
