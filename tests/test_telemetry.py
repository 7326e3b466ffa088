"""The columnar telemetry subsystem: columns, logs, listeners, archives.

Four contracts under test:

* **columns** -- ``array_percentile`` is bit-identical to the historic
  sorted-list interpolation; ``GrowArray`` is an append-only float64
  column with amortised growth;
* **lazy logs** -- ``DelayLog``/``RecordView`` present the legacy
  list-of-records API over columns, materialising records only on access;
* **listeners** -- chunk listeners observe whole flushed chunks, with
  the same statistics as the reference path's per-query
  ``observe_record`` feed; listener-free runs execute zero per-query
  python;
* **archives** -- ``write_archive``/``read_archive`` round-trip the
  columns exactly, and ``archive_diff`` applies the wall-clock gate the
  differential tests use.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.cluster import Deployment, DeploymentConfig, hen_testbed
from repro.control.metrics import LatencyHistogram, MetricsCollector, SlidingWindow
from repro.sim import PoissonArrivals
from repro.telemetry.columns import GrowArray, array_percentile
from repro.telemetry.listeners import ChunkArrays, ChunkListener
from repro.telemetry.records import (
    BreakdownLog,
    DelayLog,
    QueryBreakdown,
    QueryRecord,
)
from repro.telemetry.archive import (
    ARCHIVE_SCHEMA,
    archive_diff,
    archive_info,
    read_archive,
    write_archive,
)


def _legacy_percentile(values, q):
    """The historic sorted-list formula, verbatim."""
    vals = sorted(values)
    pos = (q / 100.0) * (len(vals) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return vals[lo]
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def _build(n=16, p=4, seed=3, **kw):
    cfg = DeploymentConfig(
        models=hen_testbed(n),
        p=p,
        dataset_size=2e6,
        seed=seed,
        charge_scheduling=False,
        **kw,
    )
    return Deployment(cfg)


class TestColumns:
    def test_percentile_matches_sorted_formula_bit_for_bit(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 10, 101, 1000):
            values = [rng.expovariate(3.0) for _ in range(n)]
            arr = np.array(values)
            for q in (0, 1, 25, 50, 75, 90, 95, 99, 99.9, 100):
                assert array_percentile(arr, q) == _legacy_percentile(values, q)

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            array_percentile(np.array([]), 50)

    def test_growarray_append_extend_view(self):
        g = GrowArray()
        for i in range(100):
            g.append(float(i))
        g.extend([100.0, 101.0])
        assert g.n == 102
        assert g.view().tolist() == [float(i) for i in range(102)]
        # the copy is decoupled from further growth
        c = g.copy()
        g.append(999.0)
        assert c.size == 102

    def test_growarray_shift_down(self):
        g = GrowArray()
        g.extend(np.arange(10.0))
        g.shift_down(4)
        assert g.view().tolist() == [4.0, 5.0, 6.0, 7.0, 8.0, 9.0]


class TestDelayLog:
    def _filled(self, k=5):
        log = DelayLog()
        for i in range(k):
            log.add(QueryRecord(query_id=i + 1, arrival=0.1 * i,
                                finish=0.1 * i + 0.05, pq=4, subqueries=4))
        return log

    def test_records_list_compat(self):
        log = self._filled(5)
        recs = log.records
        assert len(recs) == 5 and bool(recs)
        assert recs[0].query_id == 1
        assert recs[-1].query_id == 5
        assert [r.query_id for r in recs] == [1, 2, 3, 4, 5]
        assert [r.query_id for r in recs[1:3]] == [2, 3]
        assert [r.query_id for r in recs[-2:]] == [4, 5]
        with pytest.raises(IndexError):
            recs[5]

    def test_records_append_feeds_columns(self):
        log = self._filled(2)
        log.records.append(QueryRecord(query_id=9, arrival=1.0, finish=1.5))
        assert log.n_records == 3
        assert log.column("query_id").tolist() == [1, 2, 9]
        assert log.delays()[-1] == 0.5

    def test_append_columns_bulk(self):
        log = DelayLog()
        log.append_columns(
            np.array([1, 2], dtype=np.int64),
            np.array([0.0, 0.1]),
            np.array([0.2, 0.4]),
            np.array([4, 4], dtype=np.int64),
            np.array([4, 4], dtype=np.int64),
            np.array([0.0, 0.0]),
        )
        assert log.delays() == [0.2, 0.30000000000000004]
        assert log.records[1].pq == 4

    def test_stats_match_record_based(self):
        log = self._filled(20)
        delays = log.delays()
        assert log.raw_mean_delay() == sum(delays) / len(delays)
        assert log.max_delay() == max(delays)
        assert log.percentile_delay(95) == _legacy_percentile(delays, 95)

    def test_breakdown_log_columns(self):
        bd = BreakdownLog()
        bd.append(QueryBreakdown(scheduling=0.0, network=0.01, queueing=0.1,
                                 service=0.2, total=0.31))
        bd.append_columns(np.zeros(2), np.full(2, 0.01), np.full(2, 0.2),
                          np.full(2, 0.3), np.full(2, 0.51))
        assert len(bd) == 3
        assert bd.column("total").tolist() == [0.31, 0.51, 0.51]
        assert bd[1].queueing == 0.2
        assert [b.network for b in bd] == [0.01, 0.01, 0.01]


class TestSlidingWindow:
    def test_out_of_order_add_rejected(self):
        w = SlidingWindow(10.0)
        w.add(1.0, 0.5)
        with pytest.raises(ValueError):
            w.add(0.5, 0.1)

    def test_out_of_order_extend_rejected(self):
        w = SlidingWindow(10.0)
        w.add(1.0, 0.5)
        with pytest.raises(ValueError):
            w.extend(np.array([0.5, 2.0]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            w.extend(np.array([2.0, 1.5]), np.array([0.1, 0.2]))

    def test_prune_and_stats(self):
        w = SlidingWindow(5.0)
        for t in range(12):
            w.add(float(t), float(t))
        # pruning at now=11 keeps t >= 11 - 5, i.e. samples 6..11
        vals = w.values(11.0)
        assert vals == [float(t) for t in range(12) if t >= 11 - 5]
        assert w.mean() == sum(vals) / len(vals)
        assert w.percentile(50) == _legacy_percentile(vals, 50)

    def test_compaction_preserves_live_samples(self):
        w = SlidingWindow(10.0)
        n = 10_000
        ts = np.arange(n, dtype=float) * 0.01
        w.extend(ts, ts)
        # pruning at the end of the trace drops all but the last 10s and
        # compacts the columns without losing the live suffix
        live = w.values(float(ts[-1]))
        assert live[-1] == ts[-1]
        assert live[0] >= ts[-1] - 10.0
        assert all(b >= a for a, b in zip(live, live[1:]))
        assert w._lo == 0 and w._t.n < 4096  # compaction really ran


class TestLatencyHistogram:
    def test_record_many_matches_scalar_loop(self):
        rng = random.Random(5)
        values = [rng.expovariate(2.0) for _ in range(500)] + [0.0, 1e9]
        h_scalar, h_bulk = LatencyHistogram(), LatencyHistogram()
        for v in values:
            h_scalar.record(v)
        h_bulk.record_many(np.array(values))
        assert h_scalar.counts == h_bulk.counts


class _CollectingChunkListener(ChunkListener):
    def __init__(self):
        self.chunks = []

    def observe_chunk(self, arrays, start, nq):
        # arrays are borrowed views: copy anything retained
        self.chunks.append((start, nq, arrays.arrivals.copy(),
                            arrays.finishes.copy()))


class TestChunkListeners:
    def test_chunks_cover_the_run_contiguously(self):
        dep = _build()
        listener = _CollectingChunkListener()
        dep.chunk_listeners.append(listener)
        arrivals = PoissonArrivals(40.0, seed=2).times(300)
        dep.run_queries_fast(arrivals, 4)
        assert sum(nq for _, nq, _, _ in listener.chunks) == 300
        pos = 0
        for start, nq, arr, fin in listener.chunks:
            assert start == pos
            assert len(arr) == len(fin) == nq
            pos += nq
        observed = np.concatenate([a for _, _, a, _ in listener.chunks])
        assert observed.tolist() == dep.log.column("arrival").tolist()

    def test_metrics_collector_chunk_vs_per_query_identical(self):
        """The batched engine's chunk feed and the reference path's
        per-query ``observe_record`` feed give identical statistics."""
        dep_chunk, dep_ref = _build(seed=5), _build(seed=5)
        mc_chunk = MetricsCollector(window=30.0).attach(dep_chunk)
        mc_ref = MetricsCollector(window=30.0).attach(dep_ref)
        arrivals = PoissonArrivals(50.0, seed=4).times(400)
        dep_chunk.run_queries_fast(arrivals, 4)
        dep_ref.run_queries(arrivals, 4)
        assert mc_chunk.queries_seen == mc_ref.queries_seen == 400
        assert mc_chunk.window.values() == mc_ref.window.values()
        assert mc_chunk.histogram.counts == mc_ref.histogram.counts
        now = arrivals[-1]
        snap_a = mc_chunk.snapshot(now, record=False)
        snap_b = mc_ref.snapshot(now, record=False)
        assert snap_a == snap_b

    def test_chunkarrays_delays_and_len(self):
        rec = QueryRecord(query_id=1, arrival=0.5, finish=0.8, pq=4,
                          subqueries=4)
        chunk = ChunkArrays.from_record(
            rec, QueryBreakdown(scheduling=0.0, network=0.01, queueing=0.1,
                                service=0.19, total=0.3))
        assert len(chunk) == 1
        assert chunk.delays().tolist() == [0.8 - 0.5]


class TestZeroPerQueryTelemetry:
    def test_listener_free_run_never_materialises_records(self, monkeypatch):
        """Action-free, listener-free spans run zero per-query python: no
        chunk bundle is built and no record is materialised."""
        import repro.sim.fastpath as fastpath

        def boom(*a, **kw):  # pragma: no cover - the assert is the point
            raise AssertionError(
                "per-query telemetry built on a listener-free run"
            )

        monkeypatch.setattr(fastpath, "ChunkArrays", boom)
        monkeypatch.setattr(QueryRecord, "__init__", boom)
        dep = _build()
        arrivals = PoissonArrivals(60.0, seed=8).times(500)
        result = dep.run_queries_fast(arrivals, 4)
        assert result.completed == 500
        assert dep.log.n_records == 500


class TestArchive:
    def _archived(self, tmp_path, seed=1, n=64):
        dep = _build(seed=seed)
        dep.run_queries_fast(PoissonArrivals(40.0, seed=seed).times(n), 4)
        path = tmp_path / f"run-{seed}.npz"
        write_archive(path, dep, meta={"scenario": "test", "seed": seed})
        return dep, path

    def test_round_trip_exact(self, tmp_path):
        dep, path = self._archived(tmp_path)
        arch = read_archive(path)
        assert arch.meta["schema"] == ARCHIVE_SCHEMA
        assert arch.meta["scenario"] == "test"
        assert arch.n_queries == 64
        assert np.array_equal(arch.columns["log_arrival"],
                              dep.log.column("arrival"))
        assert np.array_equal(arch.columns["bd_total"],
                              dep.breakdowns.column("total"))
        assert arch.delays().tolist() == dep.log.delays()

    def test_info_fields(self, tmp_path):
        dep, path = self._archived(tmp_path)
        info = archive_info(read_archive(path))
        assert info["n_queries"] == 64 and info["dropped"] == 0
        assert info["file_bytes"] > 0
        assert info["bytes_per_query"] == info["file_bytes"] / 64
        delays = dep.log.delays()
        assert info["mean_delay"] == float(np.array(delays).sum() / 64)
        assert info["p95_delay"] == _legacy_percentile(delays, 95)

    def test_diff_identical_and_divergent(self, tmp_path):
        _, path_a = self._archived(tmp_path, seed=1)
        _, path_b = self._archived(tmp_path, seed=2)
        a = read_archive(path_a)
        assert archive_diff(a, read_archive(path_a))["identical"]
        diff = archive_diff(a, read_archive(path_b))
        assert not diff["identical"] and not diff["gated_identical"]
        assert diff["columns"]["log_finish"]["first_divergence"] >= 0

    def test_diff_gates_out_wall_clock_columns(self, tmp_path):
        _, path = self._archived(tmp_path)
        a, b = read_archive(path), read_archive(path)
        b.columns["log_scheduling"] = b.columns["log_scheduling"] + 1.0
        b.columns["bd_scheduling"] = b.columns["bd_scheduling"] + 1.0
        diff = archive_diff(a, b)
        assert not diff["identical"]
        assert diff["gated_identical"]  # wall-clock divergence only

    @staticmethod
    def _admission_archive(tmp_path, policy):
        """A sustained-overload archive whose ``adm_rate`` column is NaN:
        ``delay_gated`` through the scenario runner, or the base queue cap
        alone through the engine with ticks every 40 queries."""
        import dataclasses

        from repro.admission.base import AdmissionPolicy
        from repro.scenarios import builtin_scenarios, run_scenario_spec
        from repro.sim.fastpath import Action
        from repro.telemetry.archive import collect_columns, write_archive_columns

        path = tmp_path / f"{policy}.npz"
        if policy == "delay_gated":
            scens = {
                s.name: s
                for s in builtin_scenarios(n_servers=10, duration=8.0, p=4, seed=2)
            }
            base = scens["sustained-overload"]
            scenario = dataclasses.replace(
                base, admission=dataclasses.replace(base.admission, policy=policy)
            )
            run_scenario_spec(scenario, archive_path=str(path))
            return path
        dep = _build()
        arrivals = PoissonArrivals(200.0, seed=3).times(400)
        pol = AdmissionPolicy(slo=0.2, cap_multiple=1.0)
        ticks = [
            Action(i, arrivals[i - 1], lambda now, i=i: pol.tick(now, i), scope="none")
            for i in range(40, 400, 40)
        ]
        dep.run_queries_fast(arrivals, 4, actions=ticks, admission=pol)
        columns = {**collect_columns(dep), **pol.log.columns()}
        write_archive_columns(path, columns, meta={"admission": pol.meta()})
        return path

    @pytest.mark.parametrize("policy", ["delay_gated", "cap"])
    def test_self_diff_with_nan_columns_is_identical(self, tmp_path, capsys, policy):
        from repro.cli import main

        path = self._admission_archive(tmp_path, policy)
        a = read_archive(path)
        rate = a.columns["adm_rate"]
        assert rate.size and np.isnan(rate).all()
        diff = archive_diff(a, read_archive(path))
        assert diff["identical"] and diff["gated_identical"]
        assert main(["archive", "diff", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "DIFFERS" not in out and out.rstrip().endswith("identical (simulated-time columns)")

    def test_diff_is_byte_for_byte(self, tmp_path):
        _, path = self._archived(tmp_path)
        a, b = read_archive(path), read_archive(path)
        b.columns["log_arrival"] = b.columns["log_arrival"].copy()
        b.columns["log_arrival"][5] = -0.0 if a.columns["log_arrival"][5] == 0.0 else np.nan
        b.columns["log_pq"] = b.columns["log_pq"].astype(np.int32)
        diff = archive_diff(a, b)
        assert diff["columns"]["log_arrival"]["first_divergence"] == 5
        assert not diff["columns"]["log_pq"]["equal"]
        assert diff["columns"]["log_pq"]["first_divergence"] == 0
        assert not diff["gated_identical"]

    def test_schema_mismatch_refused(self, tmp_path):
        import json

        path = tmp_path / "bad.npz"
        payload = np.frombuffer(
            json.dumps({"schema": 999}).encode(), dtype=np.uint8)
        np.savez_compressed(path, meta_json=payload)
        with pytest.raises(ValueError, match="schema"):
            read_archive(path)


def _malformed_npz(path, kind, write):
    """Write a *kind* ("truncated", "no-meta" or "meta-not-object")
    malformed ``.npz`` at *path*."""
    if kind == "truncated":
        write(path)
        with open(path, "rb") as fh:
            head = fh.read()
        with open(path, "wb") as fh:
            fh.write(head[: len(head) // 2])
    elif kind == "meta-not-object":
        payload = np.frombuffer(b"[1, 2]", dtype=np.uint8)
        np.savez_compressed(path, meta_json=payload, log_arrival=np.arange(3.0))
    else:
        np.savez_compressed(path, log_arrival=np.arange(3.0))
    return path


def _write_small_archive(path):
    dep = _build()
    dep.run_queries_fast(PoissonArrivals(40.0, seed=3).times(64), 4)
    write_archive(path, dep)


class TestMalformedArchive:
    @pytest.mark.parametrize(
        "kind, problem",
        [
            ("truncated", "not a readable run archive"),
            ("no-meta", "'meta_json' is missing"),
            ("meta-not-object", "meta_json is not a JSON object"),
        ],
    )
    def test_read_archive_names_file_and_fix(self, tmp_path, kind, problem):
        path = _malformed_npz(str(tmp_path / "bad.npz"), kind, _write_small_archive)
        with pytest.raises(ValueError) as info:
            read_archive(path)
        msg = str(info.value)
        assert msg.startswith(f"{path}: ")
        assert problem in msg
        assert "truncated or is not a run archive; write it again" in msg

    @pytest.mark.parametrize("kind", ["truncated", "no-meta", "meta-not-object"])
    def test_cli_exits_2_naming_the_file(self, tmp_path, capsys, kind):
        from repro.cli import main

        good = str(tmp_path / "good.npz")
        _write_small_archive(good)
        bad = _malformed_npz(str(tmp_path / "bad.npz"), kind, _write_small_archive)
        for argv, prefix in (
            (["archive", "info", bad], f"cannot read {bad}: "),
            (["archive", "diff", good, bad], f"cannot read {bad}: "),
            (["explain", bad], f"cannot explain {bad}: "),
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(prefix) and "write it again" in err


def _short_or_missing(path, kind):
    """Rewrite the ``.npz`` at *path* with every column stored and
    ``log_finish`` deleted ("missing") or three rows short ("short");
    returns its row count.  The columns come through the reader, so the
    ones the writer left out are stored too: every other column is as
    the writer was given it."""
    import json

    from repro.telemetry.archive import read_meta_npz

    meta, arrays, _ = read_meta_npz(path, "file", "")
    if kind == "missing":
        del arrays["log_finish"]
    else:
        arrays["log_finish"] = arrays["log_finish"][:-3]
    payload = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, meta_json=payload, **arrays)
    return arrays["log_query_id"].size


def _recorded(path):
    from repro.scenarios import Scenario, WorkloadSpec, execute_scenario

    scenario = Scenario(
        name="cols", n_servers=8, p=3, dataset_size=1e6, seed=5,
        workload=WorkloadSpec(kind="poisson", rate=8.0, duration=6.0),
    )
    execute_scenario(scenario, record_path=path)


class TestMalformedColumns:
    """A missing or length-mismatched telemetry column is refused by every
    reader with the file, the column and the fix -- not a ``KeyError`` or
    a numpy shape error downstream."""

    @staticmethod
    def _readers():
        from repro.telemetry.snapshot import Snapshot, SnapshotError, capture_deployment
        from repro.traces import read_recording

        def snapshot(path):
            dep = _build()
            dep.run_queries_fast(PoissonArrivals(40.0, seed=3).times(64), 4)
            capture_deployment(dep).save(path)

        return {
            "read_archive": (_write_small_archive, read_archive, ValueError,
                             "write it again"),
            "read_recording": (_recorded, read_recording, ValueError,
                               "record the run again"),
            "Snapshot.load": (snapshot, Snapshot.load, SnapshotError,
                              "take it again"),
        }

    @pytest.mark.parametrize("reader", ["read_archive", "read_recording", "Snapshot.load"])
    @pytest.mark.parametrize("kind", ["missing", "short"])
    def test_reader_names_file_column_and_fix(self, tmp_path, reader, kind):
        write, read, error, fix = self._readers()[reader]
        path = str(tmp_path / "bad.npz")
        write(path)
        n = _short_or_missing(path, kind)
        with pytest.raises(error) as info:
            read(path)
        msg = str(info.value)
        assert msg.startswith(f"{path}: ")
        if kind == "missing":
            assert "column 'log_finish' is missing" in msg
        else:
            assert f"column 'log_finish' has {n - 3} values, 'log_query_id' has {n}" in msg
        assert fix in msg

    @pytest.mark.parametrize("kind", ["missing", "short"])
    def test_cli_exits_2_naming_the_file(self, tmp_path, capsys, kind):
        from repro.cli import main

        good = str(tmp_path / "good.npz")
        _write_small_archive(good)
        bad = str(tmp_path / "bad.npz")
        _write_small_archive(bad)
        _short_or_missing(bad, kind)
        for argv, prefix in (
            (["archive", "info", bad], f"cannot read {bad}: "),
            (["archive", "diff", good, bad], f"cannot read {bad}: "),
            (["explain", bad], f"cannot explain {bad}: "),
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(prefix)
            assert "'log_finish'" in err and "write it again" in err


class TestArchiveCli:
    def test_info_diff_and_gate(self, tmp_path, capsys):
        from repro.cli import main

        dep = _build()
        dep.run_queries_fast(PoissonArrivals(40.0, seed=3).times(128), 4)
        a, b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
        write_archive(a, dep, meta={"scenario": "cli"})
        write_archive(b, dep, meta={"scenario": "cli"})
        assert main(["archive", "info", a]) == 0
        assert "queries        : 128" in capsys.readouterr().out
        assert main(["archive", "diff", a, b]) == 0
        # a generous gate passes, an impossible one fails
        assert main(["archive", "info", a,
                     "--gate-bytes-per-query", "100000"]) == 0
        assert main(["archive", "info", a,
                     "--gate-bytes-per-query", "0.001"]) == 1

    def test_info_names_the_derived_columns(self, tmp_path, capsys):
        """``info`` lists what the file left out; the column count still
        counts every column a reader returns."""
        import json

        from repro.cli import main

        plain, rec, old = (str(tmp_path / n) for n in ("plain.npz", "rec.npz", "old.npz"))
        _write_small_archive(plain)
        _recorded(rec)
        arch = read_archive(plain)
        payload = np.frombuffer(json.dumps(arch.meta).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(old, meta_json=payload, **arch.columns)
        for path, derived, n_columns in (
            (plain, ["bd_scheduling", "bd_total", "log_subqueries"], 11),
            (rec, ["bd_total", "log_subqueries", "stim_arrivals"], 12),
            (old, [], 11),
        ):
            info = archive_info(read_archive(path))
            assert info["derived"] == derived and len(info["columns"]) == n_columns
            assert main(["archive", "info", path]) == 0
            out = capsys.readouterr().out
            assert f"columns        : {n_columns}\n" in out
            assert f"derived        : {', '.join(derived) or 'none'}\n" in out

    def test_diff_exits_nonzero_on_divergence(self, tmp_path, capsys):
        from repro.cli import main

        dep_a, dep_b = _build(seed=1), _build(seed=2)
        dep_a.run_queries_fast(PoissonArrivals(40.0, seed=1).times(64), 4)
        dep_b.run_queries_fast(PoissonArrivals(40.0, seed=2).times(64), 4)
        a, b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
        write_archive(a, dep_a)
        write_archive(b, dep_b)
        assert main(["archive", "diff", a, b]) == 1
        assert "DIVERGENT" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# One writer: each fact stored once, exact paths, nothing half-written
# ---------------------------------------------------------------------------


def _stored(path):
    """The columns the file itself stores: what a raw ``numpy.load`` sees."""
    with np.load(path) as data:
        return set(data.files) - {"meta_json"}


def _assert_same_columns(got, want):
    """Same column names, and each column equal in dtype, shape and bytes."""
    assert sorted(got) == sorted(want)
    for name, col in want.items():
        col = np.asarray(col)
        assert (got[name].dtype, got[name].shape) == (col.dtype, col.shape), name
        assert got[name].tobytes() == col.tobytes(), name


def _rewrite_raw(path, edit):
    """Rewrite the file's stored members as they are, after
    ``edit(meta, arrays)`` -- meta keeps the writer's ``derived`` list."""
    import json

    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays.pop("meta_json")).decode("utf-8"))
    edit(meta, arrays)
    payload = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, meta_json=payload, **arrays)


def _scenario(kind, seed):
    from repro.scenarios import EventSpec, Scenario, UpdateSpec, WorkloadSpec
    from repro.scenarios.spec import AdmissionSpec

    base = dict(
        n_servers=8, p=3, dataset_size=1e6, seed=seed,
        workload=WorkloadSpec(kind="poisson", rate=8.0, duration=6.0),
    )
    crowd = WorkloadSpec(kind="poisson", rate=30.0, duration=6.0)
    base.update({
        "plain": {},
        "updates": dict(updates=UpdateSpec(rate=4.0)),
        # a rack of 3 fails: queries delegate around it, none drops
        "failure-window": dict(
            workload=crowd,
            events=(EventSpec(at=2.0, action="fail-rack", count=3, value=2),),
        ),
        # 5 of 8 fail at p=2: some ranges lose every replica, queries drop
        "drops": dict(
            workload=crowd, p=2,
            events=(EventSpec(at=2.0, action="fail-rack", count=5, value=0),),
        ),
        "sheds": dict(
            workload=WorkloadSpec(kind="poisson", rate=400.0, duration=3.0),
            admission=AdmissionSpec(policy="aimd", slo=0.2),
        ),
        "empty": dict(workload=WorkloadSpec(kind="poisson", rate=0.001, duration=1.0)),
    }[kind])
    return Scenario(name=kind, **base)


class TestStoredOnce:
    """Every writer leaves out what the file's other columns rebuild byte
    for byte, and every reader rebuilds it: callers see the same columns
    and meta whichever layout wrote the file."""

    @pytest.mark.parametrize(
        "kind", ["plain", "updates", "failure-window", "drops", "sheds", "empty", "charged"]
    )
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(1, 40), record=st.booleans())
    def test_every_writer_round_trips_a_run(self, kind, seed, record):
        import os
        import tempfile

        from repro.scenarios import execute_scenario
        from repro.telemetry.archive import (
            _DERIVED,
            ArchiveWriter,
            collect_columns,
            write_archive_columns,
        )
        from repro.telemetry.snapshot import Snapshot, capture_deployment

        with tempfile.TemporaryDirectory() as tmp:
            streamed = os.path.join(tmp, "streamed.npz")
            extra = {}
            if kind == "charged":  # measured scheduling: bd_total may not derive
                dep = Deployment(DeploymentConfig(
                    models=hen_testbed(8), p=4, seed=seed, charge_scheduling=True,
                ))
                writer = ArchiveWriter(streamed, wall_columns=not record)
                dep.chunk_listeners.append(writer)
                dep.run_queries_fast(PoissonArrivals(40.0, seed=seed).times(48), 4)
                writer.close(dropped=dep.log.dropped)
            else:
                ex = execute_scenario(
                    _scenario(kind, seed),
                    **{("record_path" if record else "archive_path"): streamed},
                )
                dep = ex.deployment
                if ex.admission is not None:
                    extra.update(ex.admission.log.columns())
                assert {  # the run has what its kind is about
                    "failure-window": ex.batch.delegated and not ex.batch.dropped,
                    "drops": ex.batch.dropped,
                    "sheds": ex.batch.shed,
                    "updates": ex.updates_applied,
                    "empty": not len(ex.batch.arrivals),
                }.get(kind, True)
            want = {**collect_columns(dep, wall_columns=not record), **extra}
            got = read_archive(streamed)
            if record and kind != "charged":
                stim = {k: v for k, v in got.columns.items() if k.startswith("stim_")}
                assert stim["stim_arrivals"].tobytes() == ex.batch.arrivals.tobytes()
                assert stim["stim_update_times"].size == ex.updates_applied
                want.update(stim)
            _assert_same_columns(got.columns, want)
            assert got.meta["dropped"] == dep.log.dropped
            assert "derived" not in got.meta
            assert set(got.derived) <= set(_DERIVED)
            assert _stored(streamed) == set(want) - set(got.derived)

            whole = os.path.join(tmp, "whole.npz")
            write_archive_columns(whole, want, meta={"kind": kind})
            again = read_archive(whole)
            _assert_same_columns(again.columns, want)
            assert again.meta == {"kind": kind, "schema": ARCHIVE_SCHEMA, "dropped": 0}
            assert again.derived == got.derived

            snap = capture_deployment(dep)
            snap_path = os.path.join(tmp, "snap.npz")
            snap.save(snap_path)
            loaded = Snapshot.load(snap_path)
            assert loaded.meta == snap.meta
            _assert_same_columns(loaded.columns, snap.columns)
            assert _stored(snap_path) < set(snap.columns)
            if kind in ("drops", "sheds") and record:
                assert "stim_arrivals" in _stored(streamed)  # one row per offered query

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 30),
        seed=st.integers(0, 2**16),
        target=st.sampled_from(["stim_arrivals", "bd_total", "log_subqueries", "bd_scheduling"]),
        miss=st.sampled_from(["up", "down", "row-more", "row-less"]),
        at=st.integers(0, 29),
    )
    def test_a_near_miss_is_stored(self, n, seed, target, miss, at):
        """A column one ulp (one for integers) or one row off its
        derivation is stored, by every writer that can be given it."""
        import os
        import tempfile

        from repro.telemetry.archive import (
            _CHUNK_FIELDS,
            ArchiveWriter,
            write_archive_columns,
        )
        from repro.telemetry.snapshot import SNAPSHOT_SCHEMA, Snapshot

        rng = np.random.default_rng(seed)
        arrival = np.cumsum(rng.exponential(0.1, n))
        finish = arrival + rng.exponential(0.5, n)
        pq = rng.integers(1, 6, n)
        scheduling = rng.exponential(1e-5, n)
        cols = {
            "log_query_id": np.arange(n, dtype=np.int64),
            "log_arrival": arrival,
            "log_finish": finish,
            "log_pq": pq,
            "log_subqueries": pq.copy(),
            "log_scheduling": scheduling,
            "bd_scheduling": scheduling.copy(),
            "bd_network": rng.exponential(1e-3, n),
            "bd_queueing": rng.exponential(0.1, n),
            "bd_service": rng.exponential(0.1, n),
            "bd_total": finish - arrival,
            "stim_arrivals": arrival.copy(),
        }
        col = cols[target]
        if miss.startswith("row"):
            if target != "stim_arrivals":
                miss = "up"  # per-query columns must keep log_query_id's length
            else:  # a dropped or shed query is offered but never logged
                cols[target] = np.append(col, col[-1] + 1.0) if miss == "row-more" else col[:-1]
        if miss in ("up", "down"):
            i = at % n
            if col.dtype.kind == "i":
                col[i] += 1 if miss == "up" else -1
            else:
                col[i] = np.nextafter(col[i], np.inf if miss == "up" else -np.inf)
        derivable = {"stim_arrivals", "bd_total", "log_subqueries", "bd_scheduling"}

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cols.npz")
            write_archive_columns(path, cols)
            assert _stored(path) == set(cols) - (derivable - {target})
            _assert_same_columns(read_archive(path).columns, cols)

            snap_cols = {k: v for k, v in cols.items() if k != "stim_arrivals"}
            snap_path = os.path.join(tmp, "snap.npz")
            Snapshot(meta={"schema": SNAPSHOT_SCHEMA}, columns=snap_cols).save(snap_path)
            assert (target in _stored(snap_path)) == (target != "stim_arrivals")
            _assert_same_columns(Snapshot.load(snap_path).columns, snap_cols)

            if target == "bd_scheduling":
                return  # the streamed pair is one chunk field: it cannot differ
            chunk = ChunkArrays(**{
                field: cols[name] for name, field in _CHUNK_FIELDS.items()
                if name != "bd_scheduling"
            })
            streamed = os.path.join(tmp, "streamed.npz")
            writer = ArchiveWriter(streamed)
            writer.observe_chunk(chunk, 0, n)
            writer.close(extra_columns={"stim_arrivals": cols["stim_arrivals"]})
            assert target in _stored(streamed)
            want = dict(cols, bd_scheduling=cols["log_scheduling"])
            _assert_same_columns(read_archive(streamed).columns, want)

    @staticmethod
    def _reader(reader):
        """(write a valid file, read -> (meta, columns), error, fix)."""
        write, read, error, fix = TestMalformedColumns._readers()[reader]

        def view(path):
            got = read(path)
            if hasattr(got, "stimulus"):  # a Recording
                return got.meta, {**got.baseline, **got.stimulus.columns()}
            return got.meta, got.columns

        return write, view, error, fix

    @pytest.mark.parametrize("reader", ["read_archive", "read_recording", "Snapshot.load"])
    def test_every_column_stored_reads_byte_identical(self, tmp_path, reader):
        """A file with every column stored and no ``derived`` list -- the
        layout from before the writer left columns out -- reads the same."""
        import json

        from repro.telemetry.archive import read_meta_npz

        write, view, _, _ = self._reader(reader)
        new = str(tmp_path / "new.npz")
        write(new)
        meta, columns, derived = read_meta_npz(new, "file", "")
        assert derived and _stored(new) == set(columns) - set(derived)
        old = str(tmp_path / "old.npz")
        payload = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(old, meta_json=payload, **columns)
        assert _stored(old) == set(columns)
        new_meta, new_columns = view(new)
        old_meta, old_columns = view(old)
        assert old_meta == new_meta
        _assert_same_columns(old_columns, new_columns)

    #: case -> (edit of the raw members, what the message names)
    BROKEN = {
        "unknown": (lambda m, a: m["derived"].append("log_bogus"), ["'log_bogus'"]),
        "not-a-list": (lambda m, a: m.update(derived="bd_total"), ["'derived'"]),
        "source-missing": (lambda m, a: a.pop("log_finish"), ["'log_finish'", "'bd_total'"]),
        "source-short": (
            lambda m, a: a.update(log_pq=a["log_pq"][:-3]), ["'log_pq'", "'log_subqueries'"]
        ),
        # one row would broadcast through log_finish - log_arrival
        "source-one-row": (
            lambda m, a: a.update(log_arrival=a["log_arrival"][:1]),
            ["'log_arrival' has shape (1,)"],
        ),
        "query-ids-missing": (lambda m, a: a.pop("log_query_id"), ["'log_query_id'"]),
    }

    @pytest.mark.parametrize("reader", ["read_archive", "read_recording", "Snapshot.load"])
    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_bad_derived_list_names_file_column_and_fix(self, tmp_path, reader, case):
        write, view, error, fix = self._reader(reader)
        edit, names = self.BROKEN[case]
        path = str(tmp_path / "bad.npz")
        write(path)
        _rewrite_raw(path, edit)
        with pytest.raises(error) as info:
            view(path)
        msg = str(info.value)
        assert msg.startswith(f"{path}: ") and fix in msg
        for name in names:
            assert name in msg
        assert "broadcast" not in msg


class TestExactPathsAndAtomicWrites:
    @staticmethod
    def _writers():
        """writer -> (write at path, read at path -> columns)."""
        from repro.telemetry.archive import ArchiveWriter
        from repro.telemetry.snapshot import Snapshot, capture_deployment

        def run():
            dep = _build(n=8)
            dep.run_queries_fast(PoissonArrivals(40.0, seed=3).times(32), 4)
            return dep

        def streamed(path, extra=None):
            dep = _build(n=8)
            writer = ArchiveWriter(path)
            dep.chunk_listeners.append(writer)
            dep.run_queries_fast(PoissonArrivals(40.0, seed=3).times(32), 4)
            writer.close(extra_columns=extra)

        def whole(path, extra=None):
            from repro.telemetry.archive import collect_columns, write_archive_columns

            write_archive_columns(path, {**collect_columns(run()), **(extra or {})})

        def snapshot(path, extra=None):
            snap = capture_deployment(run())
            snap.columns.update(extra or {})
            snap.save(path)

        return {
            "ArchiveWriter": (streamed, lambda p: read_archive(p).columns),
            "write_archive": (whole, lambda p: read_archive(p).columns),
            "Snapshot.save": (snapshot, lambda p: Snapshot.load(p).columns),
        }

    @pytest.mark.parametrize("writer", ["ArchiveWriter", "write_archive", "Snapshot.save"])
    def test_suffixless_path_round_trips(self, tmp_path, writer):
        import os

        write, read = self._writers()[writer]
        path = str(tmp_path / "run")
        write(path)
        assert os.listdir(tmp_path) == ["run"]
        assert read(path)["log_query_id"].size == 32

    def test_collision_is_refused_before_anything_is_written(self, tmp_path):
        import os

        path = str(tmp_path / "run.npz")
        with pytest.raises(ValueError, match="collides"):
            self._writers()["ArchiveWriter"][0](path, {"log_arrival": np.zeros(2)})
        assert os.listdir(tmp_path) == []
        with pytest.raises(FileNotFoundError):
            read_archive(path)

    def test_failed_close_keeps_the_earlier_file(self, tmp_path):
        import os

        path = str(tmp_path / "run.npz")
        _write_small_archive(path)
        with open(path, "rb") as fh:
            before = fh.read()
        with pytest.raises(ValueError, match="collides"):
            self._writers()["ArchiveWriter"][0](path, {"log_arrival": np.zeros(2)})
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert os.listdir(tmp_path) == ["run.npz"]
        assert read_archive(path).n_queries == 64

    @pytest.mark.parametrize("writer", ["ArchiveWriter", "write_archive", "Snapshot.save"])
    def test_failure_mid_write_leaves_path_untouched(self, tmp_path, writer):
        """A column that fails after others are written: the temp file is
        deleted and the earlier file at *path* stays as it was."""
        import os

        class Unwritable:
            def __array__(self, *args, **kwargs):
                raise RuntimeError("disk on fire")

        write, _ = self._writers()[writer]
        path = str(tmp_path / "run.npz")
        _write_small_archive(path)
        with open(path, "rb") as fh:
            before = fh.read()
        with pytest.raises(RuntimeError, match="disk on fire"):
            write(path, {"zz_unwritable": Unwritable()})
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert os.listdir(tmp_path) == ["run.npz"]

    def test_writes_beside_the_target_then_renames(self, tmp_path, monkeypatch):
        import os

        replaced = []
        replace = os.replace

        def spy(src, dst):
            assert os.path.exists(src) and not os.path.exists(dst)
            replaced.append((os.path.dirname(src), dst))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        path = str(tmp_path / "run.npz")
        _write_small_archive(path)
        assert replaced == [(str(tmp_path), path)]
