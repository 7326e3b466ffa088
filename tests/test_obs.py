"""Tests for the observability layer (:mod:`repro.obs`).

Four contracts under test:

* **span recorder** -- every row of its table resolves; self times are
  exclusive (a child's time is subtracted from its parent once) and,
  with ``unattributed``, add up to the wall exactly; a recorded run is
  *bit-identical* to an unrecorded one (BatchResult arrays, telemetry
  columns, rng stream states) on both engines, every available kernel,
  and a closed-loop scenario; an unrecorded run never imports the
  recorder, and every wrapped attribute is the original again after the
  block, also one that raised; recording costs <3% end-to-end on a
  1k-server scenario (perf-marked);
* **audit** -- every controller tick leaves one decision record carrying
  the window inputs and the exact arrival-stream index it landed at; the
  records survive the archive round trip and ``repro explain``
  cross-checks them against the archived delay columns;
* **manifests** -- archives and recordings carry provenance (git
  revision, config hash, host);
* **CLI** -- ``repro profile`` / ``repro explain`` /
  ``repro archive info --require-manifest`` exit codes and output.
"""

import contextlib
import gc
import itertools
import json
import math
import os
import subprocess
import sys
import time
from bisect import bisect_right
from collections import Counter
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro._rng import capture_streams
from repro.cluster import Deployment, DeploymentConfig, hen_testbed
from repro.kernels.registry import kernel_available
from repro.obs.events import (
    DecisionLog,
    DecisionRecord,
    decisions_from_archive,
    explain_archive,
    render_decisions,
)
from repro.obs.manifest import build_manifest, config_hash, git_revision
from repro.obs.profiler import SPANS, SpanRecorder, span_owner
from repro.scenarios import runner
from repro.sim import PoissonArrivals
from repro.sim.fastpath import Action, run_queries_reference
from repro.telemetry.archive import ArchiveWriter, collect_columns, read_archive


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
# Span recorder: the table, self times, restore
# ---------------------------------------------------------------------------


def _scenario(name="steady", n=8, duration=10.0, **kw):
    from repro.scenarios import builtin_scenarios

    return next(
        s for s in builtin_scenarios(n_servers=n, duration=duration, **kw)
        if s.name == name
    )


def _held_attributes():
    """Every :data:`SPANS` attribute, as its owner holds it right now."""
    return {
        (module, cls, attr): vars(span_owner(module, cls)).get(attr)
        for _, module, cls, attrs in SPANS
        for attr in attrs
    }


class TestPhaseProfiler:
    """The span recorder that profiles a run's phases."""

    def test_nested_frames_are_exclusive(self):
        """With a clock that ticks once per read, a span lasts two ticks
        per span inside it plus one, so its self time is one tick plus one
        per direct child: children are subtracted exactly once, and the
        self times plus ``unattributed`` add up to the wall."""
        ticks = itertools.count()
        with SpanRecorder(clock=lambda: next(ticks)) as rec:
            runner.execute_scenario(_scenario("churn"))
        names = [rec.names[i] for i in rec.name_id]
        parents = list(rec.parent)
        expected = Counter(names)
        expected.update(names[p] for p in parents if p >= 0)
        s = rec.summary()
        assert {k: v["self_ns"] for k, v in s["spans"].items()} == expected
        n_spans, n_roots = len(names), parents.count(-1)
        assert n_roots == 1  # execute_scenario encloses every other span
        assert s["wall_ns"] == 2 * n_spans + 1
        assert s["unattributed_ns"] == n_roots + 1
        assert sum(expected.values()) + s["unattributed_ns"] == s["wall_ns"]

    def test_phase_names_cover_engine_sites(self):
        """Every table row resolves to a callable its owner defines (not
        inherits), and the table names every engine phase method."""
        wrapped = {}
        for name, module, cls, attrs in SPANS:
            owner = span_owner(module, cls)
            for attr in attrs:
                assert callable(vars(owner)[attr]), (name, attr)
                wrapped.setdefault(cls, set()).add(attr)
        assert wrapped["_Engine"] == {
            "_build", "_refresh_values", "_refresh_busy", "_reread",
            "_commit_chunk", "_flush_bulk", "_emit_records", "_materialise",
            "_fire", "_apply_updates", "_delegate",
        }
        assert {"SweepKernel", "CompiledKernel", "NetworkModel"} <= set(wrapped)

    def test_summary_and_per_query(self):
        """Call counts follow the run: one engine call, one
        ``commit_batch`` per chunk, one ``run_query`` per delegation whose
        fall-back can re-cover (crowd-x-rack's), none for the queries the
        kernel drops (rack-failure's dead run is too wide)."""
        with SpanRecorder() as rec:
            steady = runner.execute_scenario(_scenario("steady"))
            failing = runner.execute_scenario(_scenario("crowd-x-rack", n=16))
        s = rec.summary()
        spans = s["spans"]
        assert spans["scenarios.execute_scenario"]["calls"] == 2
        assert spans["sim.engine"]["calls"] == 2
        assert failing.batch.delegated > 0 and failing.batch.dropped == 0
        assert spans["cluster.run_query"]["calls"] == failing.batch.delegated
        chunks = len(steady.batch.chunk_sizes) + len(failing.batch.chunk_sizes)
        assert spans["kernels.commit_batch"]["calls"] >= chunks
        with SpanRecorder() as rec:
            dropping = runner.execute_scenario(_scenario("rack-failure", n=16))
        assert dropping.batch.dropped == dropping.batch.delegated > 0
        assert "cluster.run_query" not in rec.summary()["spans"]
        for v in spans.values():
            assert 0 <= v["self_ns"] <= v["total_ns"]
        json.dumps(s)  # JSON-safe by construction

    def test_render_table_lists_phases_and_wall(self):
        with SpanRecorder() as rec:
            runner.execute_scenario(_scenario("steady"))
        table = rec.render_table()
        lines = table.splitlines()
        assert lines[0].split() == ["span", "calls", "total", "ms", "self", "ms", "share"]
        assert lines[-2].startswith("unattributed")
        assert lines[-1].startswith("wall")
        for name in rec.summary()["spans"]:
            assert name in table

    def test_write_chrome_trace_is_valid_json(self, tmp_path, monkeypatch):
        from repro.obs import profiler

        monkeypatch.setattr(profiler, "CHROME_EVENTS_PER_NAME", 2)
        with SpanRecorder() as rec:
            runner.execute_scenario(_scenario("zipf-updates"))
        path = tmp_path / "trace.json"
        rec.write_chrome_trace(path)
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        per_name = Counter(e["name"] for e in loaded["traceEvents"])
        assert per_name and max(per_name.values()) == 2
        other = loaded["otherData"]
        assert other["events_per_name_cap"] == 2
        # the totals cover every span, not only the exported ones: two
        # committing calls around the rebalance callback, plus the no-query
        # calls for the updates before it and after the last query
        assert other["spans"] == rec.summary()["spans"]
        assert other["spans"]["kernels.commit_batch"]["calls"] > 2


# ---------------------------------------------------------------------------
# Bit-identity: recording must not perturb results
# ---------------------------------------------------------------------------


def _result_state(dep, result):
    """Everything a recorded run must reproduce byte-for-byte."""
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
        "columns": {
            k: v.tobytes()
            for k, v in collect_columns(dep, wall_columns=False).items()
        },
        "rng_streams": capture_streams(),
        "network_rng": dep.network.rng.getstate(),
    }


class TestProfiledBitIdentity:
    def _actions(self):
        # a callback forces a span cut and a materialise
        return [Action(index=150, time=3.75, fn=lambda now: None, scope="none")]

    #: data updates before query 220: they ride inside commit_batch and
    #: cut nothing
    UPDATES = ([220, 220], [(5.5, 0.25), (5.5, 0.8)])

    @pytest.mark.parametrize("kernel", _kernels_under_test())
    def test_batched_engine_identical(self, kernel):
        arrivals = PoissonArrivals(40.0, seed=7).times(300)

        dep_a = _build(seed=3)
        plain = dep_a.run_queries_fast(
            arrivals, 4, actions=self._actions(), kernel=kernel, updates=self.UPDATES
        )
        state_plain = _result_state(dep_a, plain)

        dep_b = _build(seed=3)
        with SpanRecorder() as rec:
            recorded = dep_b.run_queries_fast(
                arrivals, 4, actions=self._actions(), kernel=kernel, updates=self.UPDATES
            )
        state_recorded = _result_state(dep_b, recorded)
        spans = rec.summary()["spans"]
        assert spans["sim.engine"]["calls"] == 1
        assert spans["sim.actions"]["calls"] == 1
        assert spans["kernels.commit_batch"]["calls"] == 2
        assert "sim.apply_updates" not in spans

        assert state_plain == state_recorded

    def test_reference_engine_identical(self):
        arrivals = PoissonArrivals(40.0, seed=9).times(200)

        dep_a = _build(seed=5)
        plain = run_queries_reference(
            dep_a, arrivals, 4, actions=self._actions(), updates=self.UPDATES
        )
        state_plain = _result_state(dep_a, plain)

        dep_b = _build(seed=5)
        with SpanRecorder() as rec:
            recorded = run_queries_reference(
                dep_b, arrivals, 4, actions=self._actions(), updates=self.UPDATES
            )
        state_recorded = _result_state(dep_b, recorded)
        spans = rec.summary()["spans"]
        assert spans["cluster.run_query"]["calls"] == 200
        assert spans["cluster.apply_update"]["calls"] == 2

        assert state_plain == state_recorded

    @pytest.mark.parametrize("engine", ["batched", "reference"])
    def test_scenario_identical(self, engine):
        """A closed-loop run with failures and archives, recorded and not."""
        sc = _scenario("crowd-x-rack", n=16, duration=120.0, rate=40.0)
        runs = []
        for recorded in (False, True):
            with SpanRecorder() if recorded else contextlib.nullcontext():
                ex = runner.execute_scenario(sc, engine=engine)
            runs.append(_result_state(ex.deployment, ex.batch))
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Overhead guards
# ---------------------------------------------------------------------------


class TestProfilerOverhead:
    def test_off_constructs_no_profiler(self):
        """An unrecorded run never imports the recorder, and a recorded
        one leaves every wrapped attribute as it found it, also when its
        block raises."""
        code = (
            "import sys\n"
            "from repro.scenarios import builtin_scenarios, runner\n"
            "runner.execute_scenario(builtin_scenarios(n_servers=8, duration=5.0)[0])\n"
            "assert 'repro.obs.profiler' not in sys.modules\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

        before = _held_attributes()
        with pytest.raises(RuntimeError, match="mid-run"):
            with SpanRecorder():
                during = _held_attributes()
                assert all(during[k] is not before[k] for k in before)
                raise RuntimeError("mid-run")
        after = _held_attributes()
        assert all(after[k] is before[k] for k in before)

    @pytest.mark.perf
    def test_on_costs_under_three_percent_at_1k_servers(self):
        """Recording costs <3% of a 1k-server ``steady`` scenario.

        Spans wrap per-chunk and per-event entry points, never per-query
        ones on the bulk path; a wrapper on a per-query call shows up here
        immediately.
        """
        sc = _scenario("steady", n=1000, duration=120.0)
        best = {False: math.inf, True: math.inf}
        for _ in range(3):  # alternate, so host load drifts hit both
            for on in (False, True):
                gc.collect()
                t0 = time.perf_counter()
                with SpanRecorder() if on else contextlib.nullcontext():
                    runner.execute_scenario(sc, kernel="compiled")
                best[on] = min(best[on], time.perf_counter() - t0)
        plain, recorded = best[False], best[True]
        assert recorded <= plain * 1.03, (
            f"recorded {recorded:.3f}s vs plain {plain:.3f}s "
            f"({recorded / plain - 1:.1%} overhead)"
        )

    def test_phase_totals_cover_the_wall(self):
        """On the real clock too, the self times plus ``unattributed`` are
        the wall, and ``unattributed`` is the wall minus the one root
        span, ``execute_scenario``."""
        sc = _scenario("rack-failure", n=16)
        with SpanRecorder() as rec:
            runner.execute_scenario(sc)
        s = rec.summary()
        selfs = sum(v["self_ns"] for v in s["spans"].values())
        assert selfs + s["unattributed_ns"] == s["wall_ns"]
        assert list(rec.parent).count(-1) == 1
        root = s["spans"]["scenarios.execute_scenario"]["total_ns"]
        assert s["unattributed_ns"] == s["wall_ns"] - root >= 0


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

    @pytest.mark.parametrize("corrupt, column", [
        ("missing", "dec_p50"),
        ("ragged", "dec_qps"),
        ("index", "dec_controller"),
        ("index", "dec_kind"),
        ("short", "details"),
    ])
    def test_malformed_archive_names_path_column_and_fix(
        self, tmp_path, capsys, corrupt, column
    ):
        from repro.cli import main

        log = DecisionLog()
        log.record_hold(5.0, 120, "slo-elasticity", "steady",
                        snapshot=_FakeSnapshot())
        log.record_action(_FakeAction(9.0), query_index=250,
                          snapshot=_FakeSnapshot())
        cols, meta = log.columns(), log.meta(window=20.0)
        if corrupt == "missing":
            del cols[column]
        elif corrupt == "ragged":
            cols[column] = cols[column][:1]
        elif corrupt == "short":  # a per-row meta table
            meta[column] = meta[column][:1]
        else:  # one past the end of the interned table
            table = meta["controllers" if column == "dec_controller" else "kinds"]
            cols[column][1] = len(table)
        path = tmp_path / "bad.npz"
        ArchiveWriter(path).close(meta={"decisions": meta}, extra_columns=cols)
        with pytest.raises(ValueError) as err:
            decisions_from_archive(read_archive(path))
        message = str(err.value)
        assert str(path) in message and repr(column) in message
        assert "write it again" in message

        assert main(["explain", str(path)]) == 2
        out, errout = capsys.readouterr()
        assert out == ""
        assert errout.strip() == f"cannot explain {message}"

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
# CLI surface
# ---------------------------------------------------------------------------


class TestObsCLI:
    def test_profile_prints_phase_table(self, capsys, tmp_path):
        from repro.cli import main

        trace = tmp_path / "trace.json"
        summary = tmp_path / "profile.json"
        rc = main([
            "profile", "--scenario", "crowd-x-rack", "--servers", "16",
            "--duration", "60", "--rate", "40", "--chrome-trace", str(trace),
            "--json", str(summary),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "crowd-x-rack (batched/exact_numpy)" in out
        for row in ("kernels.commit_batch", "sim.delegate", "control.step",
                    "unattributed", "wall"):
            assert row in out
        loaded = json.loads(trace.read_text())
        assert loaded["traceEvents"]
        payload = json.loads(summary.read_text())
        assert payload["manifest"]["git_revision"] == git_revision()
        s = payload["summary"]
        selfs = sum(v["self_ns"] for v in s["spans"].values())
        assert selfs + s["unattributed_ns"] == s["wall_ns"]

    def test_profile_reference_engine(self, capsys):
        from repro.cli import main

        rc = main([
            "profile", "--servers", "8", "--duration", "5", "--engine",
            "reference",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "steady (reference/reference)" in out
        assert "sim.reference" in out and "cluster.run_query" in out
        assert "sim.engine" not in out

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
