"""Tests for the observability layer (:mod:`repro.obs`).

Four contracts under test:

* **profiler** -- phase attribution is exclusive (nested frames subtract
  their time from the parent) and sums to at most the measured wall; a
  profiled run is *bit-identical* to an unprofiled one (BatchResult
  arrays, telemetry columns, rng stream states) on both engines and all
  exact kernels; profiler-off adds zero per-query python (no
  ``PhaseProfiler`` is ever constructed); profiler-on costs <3%
  end-to-end at 1k servers (perf-marked);
* **audit** -- every controller tick leaves one decision record carrying
  the window inputs and the exact arrival-stream index it landed at; the
  records survive the archive round trip and ``repro explain``
  cross-checks them against the archived delay columns;
* **manifests** -- archives, recordings, and bench snapshots carry
  provenance (git revision, config hash, host); the bench ``--check``
  gate warns (never fails) on host mismatch and attributes speedup drift
  to a phase;
* **CLI** -- ``repro profile`` / ``repro explain`` /
  ``repro archive info --require-manifest`` exit codes and output.
"""

import json
import math
from bisect import bisect_right

import pytest

np = pytest.importorskip("numpy")

from repro._rng import capture_streams
from repro.cluster import Deployment, DeploymentConfig, hen_testbed
from repro.kernels.registry import kernel_available
from repro.obs.audit import (
    DecisionLog,
    DecisionRecord,
    decisions_from_archive,
    explain_archive,
    render_decisions,
)
from repro.obs.manifest import build_manifest, config_hash, git_revision
from repro.obs.profiler import PHASES, PhaseProfiler, resolve_profile
from repro.sim import PoissonArrivals
from repro.sim.fastpath import Action, run_queries_reference
from repro.telemetry.archive import ArchiveWriter, read_archive


def _build(n=16, seed=1, p=4):
    return Deployment(
        DeploymentConfig(
            models=hen_testbed(n),
            p=p,
            dataset_size=200_000.0,
            seed=seed,
            charge_scheduling=False,
        )
    )


def _kernels_under_test():
    """exact_numpy always; the compiled kernel when the toolchain exists."""
    names = ["exact_numpy"]
    if kernel_available("compiled"):
        names.append("compiled")
    return names


# ---------------------------------------------------------------------------
# PhaseProfiler unit behaviour
# ---------------------------------------------------------------------------


class TestPhaseProfiler:
    def test_nested_frames_are_exclusive(self):
        prof = PhaseProfiler()
        prof.begin("flush")
        prof.begin("listeners")
        inner = prof.end()
        outer = prof.end()
        assert outer >= inner >= 0
        # the child's inclusive time was subtracted from the parent
        assert prof.totals_ns["flush"] + prof.totals_ns["listeners"] <= outer
        assert prof.counts == {"flush": 1, "listeners": 1}

    def test_add_ns_inside_open_frame_not_double_counted(self):
        prof = PhaseProfiler()
        prof.begin("flush")
        prof.add_ns("sweep_commit", 5_000)
        prof.end()
        assert prof.totals_ns["sweep_commit"] == 5_000
        # the external 5us was charged out of the flush frame too
        assert prof.totals_ns["flush"] + 5_000 >= 0
        total = prof.total_ns()
        assert total == prof.totals_ns["flush"] + 5_000

    def test_summary_and_per_query(self):
        prof = PhaseProfiler()
        prof.add_ns("sweep_commit", 4_000)
        prof.add_ns("flush", 1_000)
        prof.add_wall(10e-6)  # 10_000 ns wall
        s = prof.summary()
        assert s["wall_ns"] == 10_000
        assert s["phases"]["sweep_commit"] == {"ns": 4_000, "calls": 1}
        assert s["coverage"] == pytest.approx(0.5)
        assert prof.phase_us_per_query(2) == {
            "flush": 0.5,
            "sweep_commit": 2.0,
        }

    def test_render_table_lists_phases_and_wall(self):
        prof = PhaseProfiler()
        prof.add_ns("sweep_commit", 4_000)
        prof.add_wall(1e-5)
        table = prof.render_table(10)
        assert "sweep_commit" in table
        assert "other" in table and "wall" in table
        assert "covered" in table

    def test_chunk_columns_and_chrome_trace(self):
        prof = PhaseProfiler()
        t0 = prof.epoch_ns
        prof.record_chunk(0, 100, t0 + 1_000, 10_000, 20_000, 5_000)
        prof.record_chunk(100, 50, t0 + 50_000, 1_000, 2_000, 500)
        cols = prof.columns()
        assert cols["prof_chunk_start"].tolist() == [0, 100]
        assert cols["prof_chunk_nq"].tolist() == [100, 50]
        assert cols["prof_chunk_kernel_ns"].tolist() == [20_000, 2_000]
        trace = prof.chrome_trace()
        engine = [e for e in trace["traceEvents"] if e["cat"] == "engine"]
        # 3 phase spans per chunk, laid out back to back
        assert len(engine) == 6
        first = [e for e in engine if e["args"]["chunk"] == 0]
        assert [e["name"] for e in first] == [
            "arrival_draw", "sweep_commit", "flush",
        ]
        assert first[1]["ts"] == pytest.approx(first[0]["ts"] + first[0]["dur"])
        # timestamps are relative to the profiler epoch, in microseconds
        assert first[0]["ts"] == pytest.approx(1.0)

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        prof = PhaseProfiler()
        prof.record_chunk(0, 10, prof.epoch_ns, 100, 200, 50)
        path = tmp_path / "trace.json"
        prof.write_chrome_trace(path)
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert loaded["traceEvents"]

    def test_resolve_profile_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert resolve_profile(None) is None
        assert resolve_profile(False) is None
        assert isinstance(resolve_profile(True), PhaseProfiler)
        existing = PhaseProfiler()
        assert resolve_profile(existing) is existing
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert isinstance(resolve_profile(None), PhaseProfiler)
        # explicit kwarg beats the environment
        assert resolve_profile(False) is None
        monkeypatch.setenv("REPRO_PROFILE", "off")
        assert resolve_profile(None) is None

    def test_phase_names_cover_engine_sites(self):
        # the documented phase vocabulary is the engine's contract; a
        # rename must update both
        assert set(PHASES) == {
            "arrival_draw", "sweep_commit", "flush", "listeners",
            "actions", "delegate", "materialise", "reference",
        }


# ---------------------------------------------------------------------------
# Bit-identity: profiling must not perturb results
# ---------------------------------------------------------------------------


def _result_state(dep, result):
    """Everything a profiled run must reproduce byte-for-byte."""
    return {
        "arrivals": result.arrivals.tobytes(),
        "latencies": result.latencies.tobytes(),
        "finishes": result.finishes.tobytes(),
        "query_ids": result.query_ids.tobytes(),
        "pqs": result.pqs.tobytes(),
        "completed": result.completed,
        "dropped": result.dropped,
        "fast_scheduled": result.fast_scheduled,
        "delegated": result.delegated,
        "chunk_sizes": list(result.chunk_sizes),
        "actions_applied": result.actions_applied,
        "log_arrival": dep.log.column("arrival").tobytes(),
        "log_finish": dep.log.column("finish").tobytes(),
        "bd_total": dep.breakdowns.column("total").tobytes(),
        "rng_streams": capture_streams(),
        "network_rng": dep.network.rng.getstate(),
    }


class TestProfiledBitIdentity:
    def _actions(self):
        # a mid-run action forces span cuts + the materialise/action phases
        return [Action(index=150, time=3.75, fn=lambda now: None, scope="none")]

    @pytest.mark.parametrize("kernel", _kernels_under_test())
    def test_batched_engine_identical(self, kernel):
        arrivals = PoissonArrivals(40.0, seed=7).times(300)

        dep_a = _build(seed=3)
        plain = dep_a.run_queries_fast(
            arrivals, 4, actions=self._actions(), kernel=kernel
        )
        state_plain = _result_state(dep_a, plain)
        assert plain.profile is None

        dep_b = _build(seed=3)
        prof = dep_b.run_queries_fast(
            arrivals, 4, actions=self._actions(), kernel=kernel, profile=True
        )
        state_prof = _result_state(dep_b, prof)
        assert prof.profile is not None
        assert prof.profile.totals_ns  # it measured something

        assert state_plain == state_prof

    def test_reference_engine_identical(self):
        arrivals = PoissonArrivals(40.0, seed=9).times(200)

        dep_a = _build(seed=5)
        plain = run_queries_reference(dep_a, arrivals, 4, actions=self._actions())
        state_plain = _result_state(dep_a, plain)

        dep_b = _build(seed=5)
        prof = run_queries_reference(
            dep_b, arrivals, 4, actions=self._actions(), profile=True
        )
        state_prof = _result_state(dep_b, prof)
        assert prof.profile is not None
        assert "reference" in prof.profile.totals_ns

        assert state_plain == state_prof

    def test_env_var_enables_profiling(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        dep = _build()
        result = dep.run_queries_fast([0.01 * i for i in range(50)], 4)
        assert result.profile is not None
        assert result.profile.coverage() > 0


# ---------------------------------------------------------------------------
# Overhead guards
# ---------------------------------------------------------------------------


class TestProfilerOverhead:
    def test_off_constructs_no_profiler(self, monkeypatch):
        """Profiler-off runs never even instantiate a PhaseProfiler.

        Same monkeypatch trick as the zero-per-query telemetry test: make
        construction explode, prove the engine's ``if prof is not None``
        guards keep the hot path profiler-free.
        """
        monkeypatch.delenv("REPRO_PROFILE", raising=False)

        def boom(self):  # pragma: no cover - the assert is the point
            raise AssertionError("PhaseProfiler built on an unprofiled run")

        monkeypatch.setattr(PhaseProfiler, "__init__", boom)
        dep = _build()
        arrivals = PoissonArrivals(60.0, seed=8).times(400)
        result = dep.run_queries_fast(arrivals, 4)
        assert result.completed == 400
        assert result.profile is None

        dep_ref = _build()
        ref = run_queries_reference(dep_ref, arrivals[:50], 4)
        assert ref.profile is None

    @pytest.mark.perf
    def test_on_costs_under_three_percent_at_1k_servers(self):
        """Profiler-on end-to-end cost stays <3% on the 1k-server sweep.

        Chunk-granular instrumentation (a handful of clock reads per
        ~4096-query chunk) is what keeps this cheap; a per-query
        instrumentation regression shows up here immediately.
        """
        arrivals = PoissonArrivals(1500.0, seed=4).times(30_000)

        def wall(profile):
            best = math.inf
            for _ in range(3):
                dep = Deployment(
                    DeploymentConfig(
                        models=hen_testbed(1000),
                        p=5,
                        dataset_size=5e6,
                        seed=2,
                        charge_scheduling=False,
                    )
                )
                res = dep.run_queries_fast(arrivals, 5, profile=profile)
                best = min(best, res.wall_seconds)
            return best

        plain = wall(False)
        profiled = wall(True)
        assert profiled <= plain * 1.03, (
            f"profiled {profiled:.3f}s vs plain {plain:.3f}s "
            f"({profiled / plain - 1:.1%} overhead)"
        )

    def test_phase_totals_cover_the_wall(self):
        """Acceptance: phase totals sum to within 5% of the measured wall."""
        dep = _build(n=32)
        arrivals = PoissonArrivals(200.0, seed=6).times(5_000)
        result = dep.run_queries_fast(arrivals, 4, profile=True)
        prof = result.profile
        assert prof.total_ns() <= prof.wall_ns  # exclusive, disjoint
        assert prof.coverage() > 0.95


# ---------------------------------------------------------------------------
# DecisionLog + archive round trip
# ---------------------------------------------------------------------------


class _FakeAction:
    def __init__(self, time, kind="add_server", value=7.0, detail="p99 over"):
        self.time = time
        self.controller = "slo-elasticity"
        self.kind = kind
        self.detail = detail
        self.value = value


class _FakeSnapshot:
    p50, p95, p99 = 0.1, 0.4, 0.9
    max_queue_depth = 3.0
    mean_utilisation = 0.75
    qps = 42.0
    n_queries = 120
    n_servers = 16


class TestDecisionLog:
    def test_records_actions_and_holds(self):
        log = DecisionLog()
        log.record_hold(5.0, 10, "slo-elasticity", "no-signal")
        log.record_action(_FakeAction(7.5), query_index=33,
                          snapshot=_FakeSnapshot())
        assert len(log) == 2
        records = log.records()
        assert [r.kind for r in records] == ["hold", "add_server"]
        hold, act = records
        assert hold.is_hold and not act.is_hold
        assert hold.value is None and math.isnan(hold.p99)
        assert act.query_index == 33
        assert act.p99 == pytest.approx(0.9)
        assert act.backlog == pytest.approx(3.0)
        assert act.n_queries == 120 and act.n_servers == 16
        assert act.detail == "p99 over"

    def test_string_interning_round_trips(self):
        log = DecisionLog()
        for i in range(5):
            log.record_hold(float(i), i, "ctrl-a" if i % 2 else "ctrl-b",
                            "steady")
        meta = log.meta(window=20.0)
        assert sorted(meta["controllers"]) == ["ctrl-a", "ctrl-b"]
        assert meta["kinds"] == ["hold"]
        assert meta["window"] == 20.0
        recs = log.records()
        assert [r.controller for r in recs] == [
            "ctrl-b", "ctrl-a", "ctrl-b", "ctrl-a", "ctrl-b",
        ]

    def test_archive_round_trip(self, tmp_path):
        log = DecisionLog()
        log.record_hold(5.0, 120, "slo-elasticity", "steady",
                        snapshot=_FakeSnapshot())
        log.record_action(_FakeAction(9.0), query_index=250,
                         snapshot=_FakeSnapshot())
        path = tmp_path / "dec.npz"
        ArchiveWriter(path).close(
            meta={"decisions": log.meta(window=20.0)}, extra_columns=log.columns()
        )
        arch = read_archive(path)
        records = decisions_from_archive(arch)
        assert [dataclass_tuple(r) for r in records] == [
            dataclass_tuple(r) for r in log.records()
        ]
        assert records[1].query_index == 250
        assert records[1].value == pytest.approx(7.0)

    def test_archive_without_decisions_raises(self, tmp_path):
        path = tmp_path / "plain.npz"
        ArchiveWriter(path).close()
        with pytest.raises(ValueError, match="no decision columns"):
            decisions_from_archive(read_archive(path))

    def test_render_decisions_table(self):
        log = DecisionLog()
        log.record_action(_FakeAction(9.0), query_index=250,
                         snapshot=_FakeSnapshot())
        out = render_decisions(log.records())
        assert "slo-elasticity" in out and "add_server" in out
        assert "250" in out


def dataclass_tuple(rec: DecisionRecord):
    """NaN-tolerant comparison key for DecisionRecord."""
    def norm(v):
        if isinstance(v, float) and math.isnan(v):
            return "nan"
        return v

    return tuple(norm(getattr(rec, f)) for f in rec.__dataclass_fields__)


# ---------------------------------------------------------------------------
# Scenario integration: decisions land at exact indices, explain agrees
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def crowd_x_rack_archive(tmp_path_factory):
    """One archived crowd-x-rack run (the SLO loop acts during the surge)."""
    from repro.scenarios import builtin_scenarios
    from repro.scenarios.runner import execute_scenario

    sc = next(
        s for s in builtin_scenarios(n_servers=16, duration=120.0, rate=40.0)
        if s.name == "crowd-x-rack"
    )
    path = tmp_path_factory.mktemp("obs") / "crowd-x-rack.npz"
    execution = execute_scenario(sc, archive_path=path)
    return sc, execution, path


class TestScenarioDecisions:
    def test_decisions_land_at_exact_query_indices(self, crowd_x_rack_archive):
        sc, execution, _ = crowd_x_rack_archive
        log = execution.decisions
        assert log is not None and len(log) > 0
        records = log.records()
        arrivals = execution.batch.arrivals.tolist()
        interval = sc.control.interval
        for rec in records:
            # ticks fire on the control interval, at the index of the
            # first query arriving at or after the tick time
            assert rec.time == pytest.approx(
                round(rec.time / interval) * interval
            )
            assert rec.query_index == bisect_right(arrivals, rec.time)
        kinds = {r.kind for r in records}
        assert "hold" in kinds
        assert kinds - {"hold"}, "the SLO loop never acted during the surge"

    def test_archived_decisions_match_live_log(self, crowd_x_rack_archive):
        _, execution, path = crowd_x_rack_archive
        arch = read_archive(path)
        archived = decisions_from_archive(arch)
        live = execution.decisions.records()
        assert [dataclass_tuple(r) for r in archived] == [
            dataclass_tuple(r) for r in live
        ]

    def test_explain_cross_check_passes(self, crowd_x_rack_archive):
        _, _, path = crowd_x_rack_archive
        arch = read_archive(path)
        checks = explain_archive(arch)
        assert checks
        for rec, ok, p99, n_window in checks:
            assert ok, (
                f"decision at t={rec.time} q#{rec.query_index}: recorded "
                f"p99={rec.p99} but archive reconstructs {p99} "
                f"over {n_window} rows"
            )

    def test_decision_log_identical_across_engines(self):
        from repro.scenarios import builtin_scenarios
        from repro.scenarios.runner import execute_scenario

        sc = next(
            s for s in builtin_scenarios(n_servers=12, duration=60.0, rate=30.0)
            if s.name == "crowd-x-rack"
        )
        logs = {}
        for engine in ("batched", "reference"):
            execution = execute_scenario(sc, engine=engine)
            logs[engine] = [
                dataclass_tuple(r) for r in execution.decisions.records()
            ]
        assert logs["batched"] == logs["reference"]

    def test_control_runner_decisions_match_action_goldens(self):
        """A closed-loop run's decision log agrees with Controller.actions."""
        from repro.scenarios import control_scenario
        from repro.scenarios.runner import execute_scenario

        execution = execute_scenario(
            control_scenario("flash-crowd", n_servers=12, duration=120.0, seed=1)
        )
        assert execution.decisions is not None
        acted = [r for r in execution.decisions.records() if not r.is_hold]
        golden = [a for c in execution.controllers for a in c.actions]
        golden.sort(key=lambda a: a.time)
        assert acted, "the closed loop never acted"
        assert [(r.time, r.controller, r.kind, r.detail) for r in acted] == [
            (a.time, a.controller, a.kind, a.detail) for a in golden
        ]
        # every tick (hold or action) carries the inputs it saw
        for rec in execution.decisions.records():
            if rec.kind != "hold" or rec.detail != "no-signal":
                assert not math.isnan(rec.p99)
            assert rec.query_index >= 0


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


class TestManifest:
    def test_build_manifest_fields(self):
        m = build_manifest(
            kernel="compiled",
            seeds={"deployment": 1, "arrivals": 4},
            config={"servers": 16},
        )
        assert m["schema"] == 1
        assert m["kernel"] == "compiled"
        assert m["seeds"] == {"deployment": 1, "arrivals": 4}
        assert m["config_hash"] == config_hash({"servers": 16})
        assert set(m) >= {"git_revision", "python", "machine", "host"}
        # JSON-safe by construction
        json.dumps(m)

    def test_config_hash_is_order_independent(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_git_revision_in_checkout(self):
        rev = git_revision()
        assert rev == "unknown" or all(
            c in "0123456789abcdef" for c in rev
        )

    def test_profile_totals_fold_in(self):
        prof = PhaseProfiler()
        prof.add_ns("sweep_commit", 1_000)
        m = build_manifest(profile=prof)
        assert m["profile_ns"] == {"sweep_commit": 1_000}
        assert "profile_ns" not in build_manifest(profile=PhaseProfiler())

    def test_identical_runs_produce_identical_manifests(self):
        kw = dict(kernel="exact_numpy", seeds={"s": 1}, config={"n": 4})
        assert build_manifest(**kw) == build_manifest(**kw)

    def test_recording_carries_manifest(self, tmp_path):
        from repro.scenarios import builtin_scenarios
        from repro.scenarios.runner import execute_scenario
        from repro.traces.record import read_recording

        sc = next(
            s for s in builtin_scenarios(n_servers=8, duration=20.0, rate=20.0)
            if s.name == "steady"
        )
        path = tmp_path / "steady.rec.npz"
        execute_scenario(sc, record_path=path)
        rec = read_recording(path)
        manifest = rec.meta["manifest"]
        assert manifest["git_revision"] == git_revision()
        assert manifest["kernel"] == "exact_numpy"
        assert manifest["config_hash"]

    def test_scenario_archive_carries_manifest(self, crowd_x_rack_archive):
        _, _, path = crowd_x_rack_archive
        arch = read_archive(path)
        manifest = arch.meta["manifest"]
        assert manifest["git_revision"] == git_revision()
        assert "host" in manifest


# ---------------------------------------------------------------------------
# Bench provenance + phase attribution
# ---------------------------------------------------------------------------


def _bench_snapshot(speedup, phases=None, host="alpha"):
    sweep = {
        "servers": 200,
        "queries": 1000,
        "fast_us_per_query": 10.0,
        "ref_us_per_query": 10.0 * speedup,
        "speedup_vs_reference": speedup,
        "identical_sample": True,
        "chunks": 1,
        "chunk_size_histogram": {"<=1024": 1},
    }
    if phases is not None:
        sweep["phases"] = phases
    return {
        "schema": 1,
        "revision": "deadbee",
        "profile": "full",
        "python": "3.x",
        "machine": "x86_64",
        "host": host,
        "manifest": {"schema": 1, "host": host, "machine": "x86_64"},
        "sweeps": {"a": sweep},
    }


class TestBenchProvenance:
    def test_sweep_carries_phase_columns(self):
        from repro.bench import SweepSpec, run_sweep

        tiny = SweepSpec("tiny", servers=10, queries=200, rate=30.0, pq=4,
                         ref_queries=60)
        s = run_sweep(tiny)
        assert s["phases"], "profiled sub-run produced no phase columns"
        assert set(s["phases"]) <= set(PHASES)
        assert all(v >= 0 for v in s["phases"].values())
        assert 0.0 < s["profile_coverage"] <= 1.0

    def test_collect_smoke_carries_manifest(self):
        from repro.bench import collect

        snap = collect("smoke")
        assert snap["host"]
        assert snap["manifest"]["git_revision"] == git_revision()
        assert snap["manifest"]["bench_profile"] == "smoke"
        for sweep in snap["sweeps"].values():
            assert "phases" in sweep

    def test_host_mismatch_warns_never_gates(self):
        from repro.bench import baseline_warnings, check_against_baseline

        cur = _bench_snapshot(10.0, host="runner-1")
        base = _bench_snapshot(10.0, host="runner-2")
        warnings = baseline_warnings(cur, base)
        assert any("host mismatch" in w for w in warnings)
        assert check_against_baseline(cur, base) == []
        assert baseline_warnings(cur, cur) == []

    def test_machine_mismatch_warns(self):
        from repro.bench import baseline_warnings

        cur = _bench_snapshot(10.0)
        base = _bench_snapshot(10.0)
        base["manifest"]["machine"] = base["machine"] = "aarch64"
        assert any("machine mismatch" in w for w in baseline_warnings(cur, base))

    def test_regression_names_the_grown_phase(self):
        from repro.bench import check_against_baseline

        base = _bench_snapshot(
            20.0, phases={"sweep_commit": 5.0, "flush": 5.0}
        )
        cur = _bench_snapshot(
            10.0, phases={"sweep_commit": 15.0, "flush": 5.0}
        )
        problems = check_against_baseline(cur, base)
        assert problems
        assert any("phase attribution: sweep_commit" in p for p in problems)

    def test_no_attribution_without_phase_columns(self):
        from repro.bench import check_against_baseline

        base = _bench_snapshot(20.0)
        cur = _bench_snapshot(10.0)
        problems = check_against_baseline(cur, base)
        assert problems
        assert all("phase attribution" not in p for p in problems)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestObsCLI:
    def test_profile_prints_phase_table(self, capsys, tmp_path):
        from repro.cli import main

        trace = tmp_path / "trace.json"
        summary = tmp_path / "profile.json"
        rc = main([
            "profile", "--servers", "16", "--queries", "500", "--rate",
            "60", "--pq", "4", "--chrome-trace", str(trace),
            "--json", str(summary),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sweep_commit" in out and "wall" in out
        loaded = json.loads(trace.read_text())
        assert loaded["traceEvents"]
        payload = json.loads(summary.read_text())
        assert payload["manifest"]["git_revision"] == git_revision()
        assert payload["phases_us_per_query"]

    def test_profile_reference_engine(self, capsys):
        from repro.cli import main

        rc = main([
            "profile", "--servers", "8", "--queries", "80", "--rate", "40",
            "--pq", "3", "--engine", "reference",
        ])
        assert rc == 0
        assert "reference" in capsys.readouterr().out

    def test_explain_reconstructs_timeline(self, capsys, tmp_path,
                                           crowd_x_rack_archive):
        from repro.cli import main

        _, execution, path = crowd_x_rack_archive
        out_json = tmp_path / "timeline.json"
        rc = main(["explain", str(path), "--json", str(out_json)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "every record matches" in out
        assert "slo-elasticity" in out
        payload = json.loads(out_json.read_text())
        assert len(payload) == len(execution.decisions)
        assert all(entry["check"] for entry in payload)

    def test_explain_rejects_decisionless_archive(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "plain.npz"
        ArchiveWriter(path).close()
        rc = main(["explain", str(path)])
        assert rc == 2
        assert "neither control decisions" in capsys.readouterr().err

    def test_archive_info_manifest_gate(self, capsys, tmp_path,
                                        crowd_x_rack_archive):
        from repro.cli import main

        _, _, with_manifest = crowd_x_rack_archive
        rc = main(["archive", "info", str(with_manifest), "--require-manifest"])
        assert rc == 0
        assert "manifest" in capsys.readouterr().out

        bare = tmp_path / "bare.npz"
        ArchiveWriter(bare).close()
        rc = main(["archive", "info", str(bare), "--require-manifest"])
        assert rc == 1
        assert "no provenance manifest" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ArchiveWriter extra columns
# ---------------------------------------------------------------------------


class TestExtraColumns:
    def test_collision_with_streamed_column_refused(self, tmp_path):
        from repro.telemetry.archive import ArchiveWriter

        dep = _build(n=8)
        writer = ArchiveWriter(tmp_path / "run.npz")
        dep.chunk_listeners.append(writer)
        dep.run_queries_fast([0.02 * i for i in range(40)], 4)
        dep.chunk_listeners.remove(writer)
        with pytest.raises(ValueError, match="collides"):
            writer.close(extra_columns={"log_arrival": np.zeros(2)})
