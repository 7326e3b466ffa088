"""Tests for the real-trace replay engine (registry, loaders, record/replay)."""

import os
import subprocess
import sys

import pytest

np = pytest.importorskip("numpy")

from repro.scenarios import (
    EventSpec,
    Scenario,
    UpdateSpec,
    WorkloadSpec,
    execute_scenario,
    scenario_from_dict,
    scenario_to_dict,
    trace_scenario,
)
from repro.traces import (
    CsvTraceLoader,
    JsonlTraceLoader,
    Trace,
    TraceFormatError,
    TraceLoader,
    TraceSpec,
    canonical_spec,
    get_loader,
    infer_loader,
    is_known_loader,
    is_recording,
    load_trace,
    loader_names,
    loader_specs,
    read_recording,
    register_loader,
    replay_recording,
)
from repro.traces import registry as trace_registry


def small(name="t", **kw):
    defaults = dict(
        n_servers=8,
        p=3,
        dataset_size=1e6,
        seed=5,
        workload=WorkloadSpec(kind="poisson", rate=8.0, duration=6.0),
    )
    defaults.update(kw)
    return Scenario(name=name, **defaults)


def write_csv(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GOLDEN_CSV = (
    "time,kind,pos\n"
    "0.0,query,\n"
    "0.5,update,0.25\n"
    "1.0,,\n"
    "2.0,write,1.75\n"
    "3.5,request,\n"
)


class TestTrace:
    def test_validation(self):
        with pytest.raises(ValueError, match="sorted ascending"):
            Trace(arrivals=(2.0, 1.0))
        with pytest.raises(ValueError, match="non-negative"):
            Trace(arrivals=(-1.0, 2.0))
        with pytest.raises(ValueError, match="one-dimensional"):
            Trace(arrivals=[[0.0, 1.0]])
        with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
            Trace(arrivals=(0.0,), updates=((1.0, 1.5),))
        with pytest.raises(ValueError, match="sorted by time"):
            Trace(arrivals=(0.0,), updates=((2.0, 0.5), (1.0, 0.5)))

    def test_properties(self):
        t = Trace(arrivals=(0.0, 1.0, 2.0), updates=((3.0, 0.5),))
        assert (t.n_queries, t.n_updates) == (3, 1)
        assert t.horizon == 3.0  # last stimulus is the update
        assert Trace(arrivals=()).horizon == 0.0

    def test_normalised_rebase_and_scale(self):
        t = Trace(arrivals=(100.0, 101.0, 104.0), updates=((102.0, 0.5),))
        n = t.normalised(time_scale=0.5)
        assert n.arrivals.tolist() == [0.0, 0.5, 2.0]
        assert n.updates == ((1.0, 0.5),)
        raw = t.normalised(rebase=False)
        assert raw.arrivals[0] == 100.0

    def test_normalised_limit_drops_trailing_updates(self):
        t = Trace(arrivals=(0.0, 1.0, 5.0), updates=((0.5, 0.1), (4.0, 0.2)))
        n = t.normalised(limit=2)
        assert n.n_queries == 2
        assert n.updates == ((0.5, 0.1),)  # the t=4 update is past t=1
        with pytest.raises(ValueError, match="time_scale"):
            t.normalised(time_scale=0.0)


class TestTraceSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="source"):
            TraceSpec(source="")
        with pytest.raises(ValueError, match="time_scale"):
            TraceSpec(source="x.csv", time_scale=-1.0)
        with pytest.raises(ValueError, match="limit"):
            TraceSpec(source="x.csv", limit=0)
        with pytest.raises(ValueError, match="unknown trace loader"):
            TraceSpec(source="x.csv", loader="nope")
        assert TraceSpec(source="x.csv").kind == "trace"

    def test_load_and_horizon(self, tmp_path):
        src = write_csv(tmp_path, GOLDEN_CSV)
        spec = TraceSpec(source=src)
        trace = spec.load()
        assert trace.n_queries == 3
        assert spec.horizon == trace.horizon == 3.5


class TestRegistry:
    def test_builtin_names_and_aliases(self):
        names = loader_names()
        assert {"csv", "jsonl", "archive", "recording"} <= set(names)
        assert canonical_spec("ndjson") == "jsonl"
        assert canonical_spec("rec") == "recording"
        assert canonical_spec("csv:time_col=ts") == "csv:time_col=ts"
        assert is_known_loader("jsonl") and is_known_loader("ndjson")
        assert not is_known_loader("nope")
        rows = loader_specs()
        by_name = {r["name"]: r for r in rows}
        assert "ndjson" in by_name["jsonl"]["aliases"]
        assert all(r["description"] for r in rows)

    def test_param_suffix_reaches_constructor(self):
        loader = get_loader("csv:time_col=ts,delimiter=;")
        assert isinstance(loader, CsvTraceLoader)
        assert loader.time_col == "ts" and loader.delimiter == ";"
        with pytest.raises(ValueError, match="key=value"):
            get_loader("csv:oops")
        with pytest.raises(ValueError, match="unknown trace loader"):
            get_loader("nope")
        # an instance passes straight through
        inst = JsonlTraceLoader(time_key="t")
        assert get_loader(inst) is inst

    def test_register_loader_third_party(self, tmp_path):
        class LinesLoader(TraceLoader):
            name = "lines"
            description = "one arrival per line"

            def load(self, source):
                with open(source) as fp:
                    times = [float(x) for x in fp if x.strip()]
                return self._finish(source, times, [], {})

        register_loader("test-lines", LinesLoader, replace=True)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_loader("test-lines", LinesLoader)
            path = tmp_path / "t.txt"
            path.write_text("0.5\n0.1\n0.9\n")
            trace = load_trace(str(path), loader="test-lines")
            assert trace.n_queries == 3
            assert trace.arrivals.tolist() == pytest.approx([0.0, 0.4, 0.8])
        finally:
            trace_registry._FACTORIES.pop("test-lines", None)

    def test_infer_loader(self, tmp_path):
        assert infer_loader("a/b.CSV") == "csv"
        assert infer_loader("x.jsonl") == "jsonl"
        assert infer_loader("x.ndjson") == "jsonl"
        with pytest.raises(TraceFormatError, match="cannot infer"):
            infer_loader("trace.parquet")


class TestCsvLoader:
    def test_golden_round_trip(self, tmp_path):
        src = write_csv(tmp_path, GOLDEN_CSV)
        trace = load_trace(src)
        assert trace.arrivals.tolist() == [0.0, 1.0, 3.5]
        # positions wrap mod 1.0: 1.75 -> 0.75
        assert trace.updates == ((0.5, 0.25), (2.0, 0.75))
        assert trace.meta["loader"] == "csv"

    def test_custom_columns(self, tmp_path):
        src = write_csv(tmp_path, "ts;op;key\n1.0;q;\n2.0;write;0.5\n")
        trace = load_trace(
            src, loader="csv:time_col=ts,kind_col=op,pos_col=key,delimiter=;"
        )
        assert trace.n_queries == 1 and trace.updates == ((1.0, 0.5),)

    def test_missing_time_column_suggests_fix(self, tmp_path):
        src = write_csv(tmp_path, "ts,kind\n1.0,query\n")
        with pytest.raises(TraceFormatError, match="csv:time_col=<name>"):
            load_trace(src)

    def test_errors_name_file_and_line(self, tmp_path):
        src = write_csv(tmp_path, "time,kind,pos\n1.0,query,\nbad,query,\n")
        with pytest.raises(TraceFormatError, match=r"\.csv:3: cannot parse"):
            load_trace(src)
        src = write_csv(tmp_path, "time,kind,pos\n-2.0,query,\n", "neg.csv")
        with pytest.raises(TraceFormatError, match="neg.csv:2: negative time"):
            load_trace(src)
        src = write_csv(tmp_path, "time,kind,pos\n1.0,explode,\n", "kind.csv")
        with pytest.raises(TraceFormatError, match="kind.csv:2: unknown row kind"):
            load_trace(src)
        src = write_csv(tmp_path, "time,kind,pos\n1.0,update,\n", "pos.csv")
        with pytest.raises(TraceFormatError, match="pos.csv:2: update row missing"):
            load_trace(src)

    def test_empty_and_query_free_files(self, tmp_path):
        src = write_csv(tmp_path, "", "empty.csv")
        with pytest.raises(TraceFormatError, match="empty file"):
            load_trace(src)
        src = write_csv(tmp_path, "time,kind,pos\n1.0,update,0.5\n", "u.csv")
        with pytest.raises(TraceFormatError, match="no query rows"):
            load_trace(src)
        with pytest.raises(TraceFormatError, match="cannot open"):
            load_trace(str(tmp_path / "missing.csv"))


class TestJsonlLoader:
    def test_golden_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"time": 0.0}\n'
            "\n"
            '{"time": 0.5, "kind": "update", "pos": 0.25}\n'
            '{"time": 2.0, "kind": "read"}\n'
        )
        trace = load_trace(str(path))
        assert trace.arrivals.tolist() == [0.0, 2.0]
        assert trace.updates == ((0.5, 0.25),)

    def test_errors_name_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"time": 0.0}\n{oops\n')
        with pytest.raises(TraceFormatError, match="bad.jsonl:2: invalid JSON"):
            load_trace(str(path))
        path.write_text('[1, 2]\n')
        with pytest.raises(TraceFormatError, match="expected a JSON object"):
            load_trace(str(path))
        path.write_text('{"ts": 0.0}\n')
        with pytest.raises(TraceFormatError, match="jsonl:time_key=<name>"):
            load_trace(str(path))


class TestArchiveAndRecordingLoaders:
    def test_archive_round_trip(self, tmp_path):
        from repro.telemetry.archive import read_archive, write_archive

        execution = execute_scenario(small(seed=11))
        arch_path = str(tmp_path / "run.npz")
        write_archive(arch_path, execution.deployment)
        trace = load_trace(arch_path, rebase=False)  # inferred: plain archive
        arch = read_archive(arch_path)
        expected = np.sort(np.asarray(arch.columns["log_arrival"]))
        assert np.array_equal(trace.arrivals, expected)
        assert trace.updates == ()
        assert trace.meta["loader"] == "archive"

    def test_archive_loader_refuses_truncated_archive(self, tmp_path):
        from repro.telemetry.archive import write_archive

        path = str(tmp_path / "run.npz")
        write_archive(path, execute_scenario(small(seed=11)).deployment)
        with open(path, "rb") as fh:
            head = fh.read()
        with open(path, "wb") as fh:
            fh.write(head[: len(head) // 2])
        with pytest.raises(TraceFormatError, match="write it again"):
            load_trace(path, loader="archive")

    def test_recording_loader_reoffers_full_stimulus(self, tmp_path):
        rec_path = str(tmp_path / "run.rec.npz")
        scenario = small(seed=7, updates=UpdateSpec(rate=4.0))
        execute_scenario(scenario, record_path=rec_path)
        assert is_recording(rec_path)
        rec = read_recording(rec_path)
        trace = load_trace(rec_path, rebase=False)  # inferred: recording
        assert trace.meta["loader"] == "recording"
        assert np.array_equal(trace.arrivals, np.sort(rec.stimulus.arrivals))
        assert len(trace.updates) == len(rec.stimulus.updates) > 0

    @pytest.mark.parametrize(
        "column, value",
        [
            ("stim_update_times", np.nan),
            ("stim_update_times", -1.0),
            ("stim_update_times", np.inf),
            ("stim_update_pos", 1.0),
            ("stim_update_pos", -0.25),
            ("stim_update_pos", np.nan),
        ],
    )
    def test_corrupted_update_stream_names_file_and_column(
        self, tmp_path, column, value
    ):
        rec_path = str(tmp_path / "run.rec.npz")
        execute_scenario(small(seed=7, updates=UpdateSpec(rate=4.0)), record_path=rec_path)
        with np.load(rec_path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays[column] = arrays[column].copy()
        arrays[column][3] = value
        bad_path = str(tmp_path / "corrupt.rec.npz")
        np.savez_compressed(bad_path, **arrays)
        with pytest.raises(ValueError, match="corrupt") as info:
            read_recording(bad_path)
        assert bad_path in str(info.value) and column in str(info.value)

    def test_stimulus_checks_its_update_stream(self):
        from repro.traces.record import Stimulus, StimulusError

        ok = Stimulus(arrivals=[0.5], updates=[(2.0, 0.5), (1.0, 0.0)])
        assert ok.updates == ((2.0, 0.5), (1.0, 0.0))  # order is kept as given
        for bad, column in (
            ((float("nan"), 0.5), "stim_update_times"),
            ((-1.0, 0.5), "stim_update_times"),
            ((1.0, 1.0), "stim_update_pos"),
            ((1.0, 1.5), "stim_update_pos"),
        ):
            with pytest.raises(StimulusError) as info:
                Stimulus(arrivals=[0.5], updates=[(0.2, 0.1), bad])
            assert info.value.column == column
            assert "update 1" in str(info.value)

    def test_mismatched_update_columns_are_refused(self, tmp_path):
        rec_path = str(tmp_path / "run.rec.npz")
        execute_scenario(small(seed=7, updates=UpdateSpec(rate=4.0)), record_path=rec_path)
        with np.load(rec_path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["stim_update_pos"] = arrays["stim_update_pos"][:-1]
        bad_path = str(tmp_path / "short.rec.npz")
        np.savez_compressed(bad_path, **arrays)
        with pytest.raises(ValueError, match="disagree"):
            read_recording(bad_path)

    def test_is_recording_rejects_plain_archives(self, tmp_path):
        from repro.telemetry.archive import write_archive

        execution = execute_scenario(small(seed=3))
        arch_path = str(tmp_path / "plain.npz")
        write_archive(arch_path, execution.deployment)
        assert not is_recording(arch_path)
        assert infer_loader(arch_path) == "archive"
        with pytest.raises(ValueError, match="not a recording"):
            read_recording(arch_path)


def _malformed_recording(tmp_path, kind):
    """Write a recording at ``<kind>.rec.npz``, then break it as *kind* says."""
    import json

    path = str(tmp_path / f"{kind}.rec.npz")
    execute_scenario(small(seed=7, updates=UpdateSpec(rate=4.0)), record_path=path)
    if kind == "truncated":
        with open(path, "rb") as fh:
            head = fh.read()
        with open(path, "wb") as fh:
            fh.write(head[: len(head) // 2])
    elif kind == "empty":
        open(path, "wb").close()
    else:
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        if kind == "no-meta":
            del arrays["meta_json"]
        elif kind == "no-stim-arrivals":
            del arrays["stim_arrivals"]
        else:  # "schema-7" or "no-scenario"
            meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
            if kind == "schema-7":
                meta["schema"] = 7
            else:
                del meta["scenario_spec"]
            arrays["meta_json"] = np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            )
        np.savez_compressed(path, **arrays)
    return path


class TestMalformedRecording:
    """Every malformed recording fails with a message that names the file,
    the missing column where there is one, and the fix; ``repro replay``
    exits 2 on all of them."""

    #: kind -> (missing column or None, read_recording's fix, load_trace's
    #: fix).  load_trace infers the loader: a file that does not read as a
    #: recording goes to the run-archive loader.
    CASES = {
        "truncated": (None, "write it again", "write it again"),
        "empty": (None, "write it again", "write it again"),
        "no-meta": ("meta_json", "write it again", "write it again"),
        "no-stim-arrivals": (
            "stim_arrivals", "record the run again", "record the run again"
        ),
        "schema-7": (None, "record the run again", "record the run again"),
        "no-scenario": (
            None,
            "meta key 'scenario_spec' is missing; the recording is corrupt -- "
            "record the run again",
            "meta key 'scenario_spec' is missing; the recording is corrupt -- "
            "record the run again",
        ),
    }

    @staticmethod
    def _check(msg, path, column, fix):
        assert path in msg
        if column is not None:
            assert f"column {column!r} is missing" in msg
        assert fix in msg

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_read_recording(self, tmp_path, kind):
        path = _malformed_recording(tmp_path, kind)
        column, fix, _ = self.CASES[kind]
        with pytest.raises(ValueError) as info:
            read_recording(path)
        assert str(info.value).startswith(f"{path}: ")
        self._check(str(info.value), path, column, fix)

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_load_trace(self, tmp_path, kind):
        path = _malformed_recording(tmp_path, kind)
        column, _, fix = self.CASES[kind]
        readable = kind in ("no-stim-arrivals", "schema-7", "no-scenario")
        assert is_recording(path) == readable
        with pytest.raises(TraceFormatError) as info:
            load_trace(path)
        self._check(str(info.value), path, column, fix)
        if not readable:  # the run-archive loader cannot tell which it was
            assert "run archive or recording" in str(info.value)

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_replay_exits_2(self, tmp_path, capsys, kind):
        from repro.cli import main

        path = _malformed_recording(tmp_path, kind)
        column, fix, _ = self.CASES[kind]
        assert main(["replay", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot replay {path}: ")
        self._check(err, path, column, fix)


class TestStreamingArchive:
    def assert_stream_matches_buffered(self, scenario, engine, tmp_path):
        from repro.telemetry.archive import archive_diff, read_archive, write_archive

        stream_path = str(tmp_path / f"stream-{engine}.npz")
        execution = execute_scenario(
            scenario, engine=engine, archive_path=stream_path
        )
        buffered_path = str(tmp_path / f"buffered-{engine}.npz")
        write_archive(buffered_path, execution.deployment)
        diff = archive_diff(read_archive(buffered_path), read_archive(stream_path))
        assert diff["identical"], diff
        arch = read_archive(stream_path)
        assert arch.meta["dropped"] == execution.deployment.log.dropped

    def test_streamed_equals_buffered_batched(self, tmp_path):
        self.assert_stream_matches_buffered(small(seed=13), "batched", tmp_path)

    def test_streamed_equals_buffered_reference(self, tmp_path):
        # the reference engine feeds the writer record by record
        # (observe_record -> one-row chunks), not whole chunks
        self.assert_stream_matches_buffered(small(seed=13), "reference", tmp_path)

    def test_streamed_under_rack_failure_drops(self, tmp_path):
        scenario = small(
            name="rf",
            seed=17,
            workload=WorkloadSpec(kind="poisson", rate=30.0, duration=6.0),
            events=(EventSpec(at=2.0, action="fail-rack", count=3),),
        )
        self.assert_stream_matches_buffered(scenario, "batched", tmp_path)

    def test_writer_lifecycle(self, tmp_path):
        from repro.telemetry.archive import ArchiveWriter, read_archive

        path = str(tmp_path / "empty.npz")
        with ArchiveWriter(path) as writer:
            writer.abort()  # nothing written, spool cleaned up
        assert not os.path.exists(path)
        writer = ArchiveWriter(path)
        writer.close()
        arch = read_archive(path)
        assert all(len(col) == 0 for col in arch.columns.values())


class TestRecordReplay:
    @pytest.fixture()
    def recording(self, tmp_path):
        scenario = small(seed=21, updates=UpdateSpec(rate=3.0))
        rec_path = str(tmp_path / "run.rec.npz")
        execute_scenario(scenario, engine="batched", record_path=rec_path)
        return rec_path

    def test_replay_identical_same_engine(self, recording):
        report = replay_recording(recording)
        assert report.verified and report.identical
        assert report.mismatching_columns == []

    def test_replay_identical_reference_engine(self, recording):
        report = replay_recording(recording, engine="reference")
        assert report.identical, report.mismatching_columns

    def test_replay_identical_across_kernels(self, recording):
        from repro.kernels import available_kernels

        for kernel in ("exact_numpy", "compiled"):
            if kernel not in available_kernels():
                continue
            report = replay_recording(recording, kernel=kernel)
            assert report.identical, (kernel, report.mismatching_columns)

    def test_replay_archive_matches_recording_baseline(self, recording, tmp_path):
        from repro.telemetry.archive import archive_diff, read_archive

        replayed_path = str(tmp_path / "replayed.npz")
        report = replay_recording(recording, archive_path=replayed_path)
        assert report.identical
        diff = archive_diff(read_archive(recording), read_archive(replayed_path))
        assert diff["identical"], diff
        # wall-clock columns are omitted on both sides -- that is what
        # keeps record/replay diffs --strict-meaningful across machines
        assert "log_scheduling" not in read_archive(recording).columns
        assert "log_scheduling" not in read_archive(replayed_path).columns

    def test_replay_archive_is_a_recording(self, recording, tmp_path):
        replayed_path = str(tmp_path / "replayed.npz")
        replay_recording(recording, archive_path=replayed_path)
        assert is_recording(replayed_path)
        again = replay_recording(replayed_path)
        assert again.verified and again.identical, again.mismatching_columns

    def test_replay_without_verify(self, recording):
        report = replay_recording(recording, verify=False)
        assert not report.verified and not report.identical

    def test_replay_no_compiled_kernel_subprocess(self, recording):
        code = (
            "from repro.traces import replay_recording\n"
            f"report = replay_recording({recording!r})\n"
            "assert report.identical, report.mismatching_columns\n"
            "print('replay-ok', report.kernel)\n"
        )
        env = dict(os.environ)
        env["REPRO_NO_COMPILED_KERNEL"] = "1"
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "replay-ok" in proc.stdout


class TestOneArtifact:
    """A recording is the run archive plus its stimulus, written once."""

    def test_read_archive_accepts_a_recording(self, tmp_path):
        from repro.telemetry.archive import archive_diff, read_archive

        scenario = small(seed=21, updates=UpdateSpec(rate=3.0))
        rec_path = str(tmp_path / "run.rec.npz")
        arch_path = str(tmp_path / "run.npz")
        plain_path = str(tmp_path / "plain.npz")
        execute_scenario(scenario, record_path=rec_path, archive_path=arch_path)
        execute_scenario(scenario, archive_path=plain_path)
        rec = read_archive(rec_path)
        assert rec.meta["kind"] == "recording"
        assert rec.meta["scenario"] == scenario.name
        assert archive_diff(rec, read_archive(arch_path))["identical"]
        stim = read_recording(rec_path).stimulus
        assert np.array_equal(rec.columns["stim_arrivals"], stim.arrivals)
        # a run that neither records nor replays keeps its wall-clock
        # columns and carries no stimulus; its simulated-time columns are
        # the recording's baseline
        plain = read_archive(plain_path)
        assert "kind" not in plain.meta and "log_scheduling" in plain.columns
        assert not any(name.startswith("stim_") for name in plain.columns)
        diff = archive_diff(rec, plain)
        assert sorted(n for n, e in diff["columns"].items() if not e["equal"]) == [
            "bd_scheduling", "log_scheduling",
            "stim_arrivals", "stim_update_pos", "stim_update_times",
        ]

    def test_both_paths_close_the_writer_once(self, tmp_path, monkeypatch):
        from repro.telemetry.archive import ArchiveWriter

        closed = []
        close = ArchiveWriter.close

        def spy(self, *args, **kwargs):
            closed.append(self.path)
            return close(self, *args, **kwargs)

        monkeypatch.setattr(ArchiveWriter, "close", spy)
        rec_path = str(tmp_path / "run.rec.npz")
        arch_path = str(tmp_path / "run.npz")
        execute_scenario(small(seed=21), record_path=rec_path, archive_path=arch_path)
        assert closed == [rec_path]
        with open(rec_path, "rb") as rec, open(arch_path, "rb") as arch:
            assert rec.read() == arch.read()

    def test_one_path_for_both_keeps_the_recording(self, tmp_path):
        path = str(tmp_path / "run.rec.npz")
        execute_scenario(small(seed=21), record_path=path, archive_path=path)
        assert replay_recording(path).identical

    def test_old_layout_recording_is_refused(self, tmp_path, capsys):
        """A recording from before the layout was versioned: meta schema 1,
        the scenario dict under ``scenario``, the baseline copied as
        ``base_*`` columns, no ``recording_layout``."""
        import json

        from repro.cli import main

        path = str(tmp_path / "old.rec.npz")
        execute_scenario(small(seed=7, updates=UpdateSpec(rate=4.0)), record_path=path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays.pop("meta_json")).decode("utf-8"))
        old_meta = {
            "schema": 1,
            "kind": "recording",
            "scenario": meta["scenario_spec"],
            **{k: meta[k] for k in ("engine", "kernel", "dropped", "horizon", "manifest")},
        }
        old = {
            (k if k.startswith("stim_") else f"base_{k}"): v for k, v in arrays.items()
        }
        payload = np.frombuffer(json.dumps(old_meta).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(path, meta_json=payload, **old)
        assert is_recording(path)
        with pytest.raises(ValueError) as info:
            read_recording(path)
        msg = str(info.value)
        assert msg.startswith(f"{path}: ") and "record the run again" in msg
        with pytest.raises(TraceFormatError, match="record the run again"):
            load_trace(path)
        assert main(["replay", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot replay {path}: ") and "record the run again" in err


class TestTraceWorkloads:
    def test_trace_scenario_runs_on_both_engines(self, tmp_path):
        src = write_csv(
            tmp_path,
            "time,kind,pos\n"
            + "".join(f"{0.25 * i:.2f},query,\n" for i in range(40))
            + "4.0,update,0.5\n",
        )
        scenario = trace_scenario(src, n_servers=8, p=3, dataset_size=1e6)
        fast = execute_scenario(scenario, engine="batched")
        slow = execute_scenario(scenario, engine="reference")
        assert fast.updates_applied == slow.updates_applied == 1
        for col in ("query_id", "arrival", "finish", "pq"):
            assert np.array_equal(
                fast.deployment.log.column(col),
                slow.deployment.log.column(col),
            ), col

    def test_scenario_dict_round_trip(self, tmp_path):
        from repro.scenarios import builtin_scenarios

        for scenario in builtin_scenarios(n_servers=8, duration=5.0, p=3):
            assert scenario_from_dict(scenario_to_dict(scenario)) == scenario
        ts = trace_scenario("log.csv", loader="csv:time_col=ts", limit=10)
        round_tripped = scenario_from_dict(scenario_to_dict(ts))
        assert round_tripped == ts
        assert isinstance(round_tripped.workload, TraceSpec)
        with pytest.raises(ValueError, match="workload"):
            scenario_from_dict(
                {**scenario_to_dict(ts), "workload": {"__type__": "martian"}}
            )


class TestTraceCli:
    def test_traces_lists_loaders(self, capsys):
        from repro.cli import main

        assert main(["traces"]) == 0
        out = capsys.readouterr().out
        assert "csv" in out and "jsonl" in out and "recording" in out

    def test_traces_info(self, tmp_path, capsys):
        from repro.cli import main

        src = write_csv(tmp_path, GOLDEN_CSV)
        assert main(["traces", "--info", src]) == 0
        out = capsys.readouterr().out
        assert "queries" in out and "updates" in out

    def test_traces_info_malformed_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        src = write_csv(tmp_path, "ts,kind\n1.0,query\n")
        assert main(["traces", "--info", src]) == 2
        assert "time_col" in capsys.readouterr().err

    def test_record_replay_smoke(self, tmp_path, capsys):
        from repro.cli import main

        rec = str(tmp_path / "steady.rec.npz")
        code = main(
            [
                "record", "--scenario", "steady", "--servers", "8",
                "-p", "3", "--duration", "5", "--dataset", "1e6",
                "--out", rec,
            ]
        )
        assert code == 0
        assert "recorded" in capsys.readouterr().out
        assert main(["replay", rec]) == 0
        assert "identical" in capsys.readouterr().out
        assert main(["replay", rec, "--engine", "reference"]) == 0
        assert "identical" in capsys.readouterr().out
        assert main(["replay", rec, "--no-verify"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_replay_unreadable_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        missing = str(tmp_path / "nope.npz")
        assert main(["replay", missing]) == 2
        assert "cannot replay" in capsys.readouterr().err

    def test_matrix_trace_row(self, tmp_path, capsys):
        from repro.cli import main

        src = write_csv(tmp_path, GOLDEN_CSV)
        code = main(
            [
                "matrix", "--servers", "8", "-p", "3", "--duration", "5",
                "--scenario", "steady", "--trace", src,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace" in out

    def test_matrix_malformed_trace_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        src = write_csv(tmp_path, "ts,kind\n1.0,query\n")
        code = main(
            ["matrix", "--scenario", "steady", "--duration", "5",
             "--trace", src]
        )
        assert code == 2
        assert "time_col" in capsys.readouterr().err
