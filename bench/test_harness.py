"""Tests of the benchmark harness itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import catalog  # noqa: E402
import compare  # noqa: E402
import trace  # noqa: E402  (bench/trace.py, not the standard library's)

RUN = os.path.join(BENCH, "run.py")


def run_bench(*args, cwd=ROOT, script=RUN, env=None):
    return subprocess.run(
        [sys.executable, script, *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=300,
    )


def test_trace_module_is_the_benchmarks():
    assert os.path.dirname(trace.__file__) == BENCH


# -- self time -----------------------------------------------------------------
def test_self_times_subtract_direct_children_only():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [20, 30)
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 90]
    parents = [-1, 0, 1, 0]
    assert trace.self_times(starts, ends, parents).tolist() == [30, 20, 10, 40]


class _Clock:
    """A fake clock advancing 10 ns per reading plus explicit work."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 10
        return self.now


class _Layer:
    def __init__(self, clock):
        self.clock = clock

    def outer(self, n):
        self.clock.now += 100
        for _ in range(n):
            self.inner(7)
        return "done"

    def inner(self, units):
        self.clock.now += 1000


def test_tracer_wraps_and_restores_methods():
    clock = _Clock()
    tracer = trace.Tracer(clock=clock)
    original = _Layer.__dict__["inner"]
    tracer.wrap(_Layer, "outer", "layer.outer")
    tracer.wrap(_Layer, "inner", "layer.inner", work=lambda args: args[1])
    try:
        assert _Layer(clock).outer(3) == "done"
    finally:
        tracer.restore()
    assert _Layer.__dict__["inner"] is original
    totals = tracer.totals()
    assert totals["layer.inner"]["calls"] == 3
    assert totals["layer.inner"]["work"] == 21
    # each inner span: its 1000 ns of work plus the tick that closes it
    assert totals["layer.inner"]["self_s"] == pytest.approx(3 * 1010e-9)
    # outer: 100 ns of work, the 3 ticks opening inner spans, its own end tick
    assert totals["layer.outer"]["self_s"] == pytest.approx(140e-9)
    assert tracer.attributed_s() == pytest.approx(totals["layer.outer"]["total_s"])


def test_tracer_restores_inherited_attributes():
    class Child(_Layer):
        pass

    tracer = trace.Tracer()
    tracer.wrap(Child, "inner", "child.inner")
    assert "inner" in vars(Child)
    tracer.restore()
    assert "inner" not in vars(Child)


def test_chrome_export(tmp_path):
    clock = _Clock()
    tracer = trace.Tracer(clock=clock)
    tracer.wrap(_Layer, "outer", "layer.outer")
    tracer.wrap(_Layer, "inner", "layer.inner")
    try:
        _Layer(clock).outer(2)
    finally:
        tracer.restore()
    path = tmp_path / "t.json"
    tracer.write_chrome(path, meta={"workload": "toy"})
    data = json.loads(path.read_text())
    names = [e["name"] for e in data["traceEvents"]]
    assert names == ["layer.outer", "layer.inner", "layer.inner"]
    assert data["otherData"]["workload"] == "toy"
    assert data["otherData"]["totals"]["layer.inner"]["calls"] == 2


# -- compare verdicts ----------------------------------------------------------
def test_quartiles_follow_statistics_quantiles():
    s = compare.summarize([1, 2, 3, 4, 5])
    assert (s["q1"], s["median"], s["q3"]) == (1.5, 3.0, 4.5)
    assert compare.summarize([7]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


@pytest.mark.parametrize(
    "a, b, better, bound, expected",
    [
        # within the bound and a tight spread: unchanged
        ([100, 101, 99, 100, 102], [99, 100, 101, 100, 98], "higher", 0.10, "unchanged"),
        # median 20% lower on a higher-is-better metric
        ([100, 101, 99, 100, 102], [80, 81, 79, 80, 82], "higher", 0.10, "worse"),
        # lower-is-better: a 20% rise is worse
        ([1.0, 1.01, 0.99], [1.2, 1.21, 1.19], "lower", 0.10, "worse"),
        # every pair won and the gap exceeds A's interquartile distance
        ([100, 101, 99, 100, 102], [110, 111, 109, 110, 112], "higher", 0.10, "better"),
        # a gain inside A's own spread is not a gain
        ([90, 100, 110, 95, 105], [101, 111, 96, 106, 91], "higher", 0.25, "unchanged"),
        # spread wider than the bound, medians close: cannot say unchanged
        ([60, 100, 140, 80, 120], [62, 98, 141, 79, 121], "higher", 0.10, "unresolved"),
        # wide spread, but every candidate run beats every baseline run
        ([60, 70, 80, 65, 75], [200, 300, 250, 220, 280], "higher", 0.10, "better"),
        # identical deterministic values with a zero bound
        ([0.5, 0.5], [0.5, 0.5], "lower", 0.0, "unchanged"),
        # any change of a deterministic lower-is-better value is worse
        ([0.5, 0.5], [0.51, 0.51], "lower", 0.0, "worse"),
    ],
)
def test_verdicts(a, b, better, bound, expected):
    assert compare.verdict(a, b, better, bound) == expected


def _results(values_a, values_b):
    def one(values):
        return {
            "workloads": {
                "w": {
                    "metrics": {
                        "queries_per_s": {
                            "unit": "queries/s", "better": "higher", "bound": 0.1, "values": values,
                        }
                    }
                }
            }
        }

    return one(values_a), one(values_b)


def test_compare_cli_exit_codes(tmp_path):
    script = os.path.join(BENCH, "compare.py")
    for values_b, code in (([100, 101, 99], 0), ([50, 51, 49], 1)):
        a, b = _results([100, 101, 99], values_b)
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(b))
        proc = run_bench(str(tmp_path / "a.json"), str(tmp_path / "b.json"), script=script)
        assert proc.returncode == code, proc.stdout + proc.stderr
        assert "queries_per_s" in proc.stdout
    proc = run_bench(str(tmp_path / "a.json"), str(tmp_path / "missing.json"), script=script)
    assert proc.returncode == 2 and "missing.json" in proc.stderr


# -- fail fast -------------------------------------------------------------------
def _fails_fast(proc, started, *needles):
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert time.perf_counter() - started < 5.0
    assert proc.stdout == ""
    for needle in needles:
        assert needle in proc.stderr


def test_unknown_workload_fails_fast():
    t0 = time.perf_counter()
    _fails_fast(run_bench("--only", "nope"), t0, "unknown workload 'nope'", "steady-1k")


def test_missing_pin_fails_fast():
    t0 = time.perf_counter()
    _fails_fast(run_bench("--seed", "987654"), t0, "no pinned digest for seed 987654", "--pin")


def _sandbox(tmp_path, benchmark_json: str, with_src: bool = True):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text(benchmark_json)
    if with_src:
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    return str(tmp_path / "bench" / "run.py")


def test_unreadable_benchmark_json_fails_fast(tmp_path):
    script = _sandbox(tmp_path, "{not json")
    t0 = time.perf_counter()
    _fails_fast(run_bench(script=script, cwd=tmp_path), t0, "BENCHMARK.json: unreadable")


def test_unknown_metric_fails_fast(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    spec["end_to_end"].append({"name": "bogus_ms", "unit": "ms", "better": "lower", "bound": 0.1})
    script = _sandbox(tmp_path, json.dumps(spec))
    t0 = time.perf_counter()
    _fails_fast(run_bench(script=script, cwd=tmp_path), t0, "unknown end-to-end metric 'bogus_ms'")


def test_refuses_to_run_without_the_program(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        script = _sandbox(tmp_path, fh.read(), with_src=False)
    t0 = time.perf_counter()
    _fails_fast(run_bench("--workload", "steady-1k", "--seed", "3", "--seconds", "5",
                          "--trace", "0", script=script, cwd=tmp_path), t0, "no src/repro")


# -- end to end at smoke scale -----------------------------------------------------
@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_agrees_with_catalog(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(catalog.WORKLOADS)
    for m in benchmark_json["end_to_end"]:
        assert (m["unit"], m["better"], m["bound"]) == catalog.END_TO_END[m["name"]]
    for m in benchmark_json["per_layer"]:
        assert (m["unit"], m["better"]) == catalog.PER_LAYER[m["name"]]


def test_smoke_run_emits_every_metric_with_its_unit(tmp_path, benchmark_json):
    proc = run_bench("--scale", "smoke", "--repeats", "1", "--trace", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads((tmp_path / "results.json").read_text())
    assert set(results["workloads"]) == set(catalog.WORKLOADS)
    for name, w in results["workloads"].items():
        assert w["pinned"] and w["failed"] == 0, w["failures"]
        for m in benchmark_json["end_to_end"]:
            assert w["metrics"][m["name"]]["unit"] == m["unit"]
            assert w["metrics"][m["name"]]["values"]
        for m in benchmark_json["per_layer"]:
            assert w["per_layer"][m["name"]]["unit"] == m["unit"]
        assert os.path.isfile(os.path.join(ROOT, w["trace_file"]))
        assert w["per_layer"]["trace.coverage"]["value"] >= 0.95
    table = proc.stdout
    for name in list(catalog.END_TO_END) + list(catalog.PER_LAYER):
        assert name in table


def test_single_workload_prints_the_result_line(tmp_path, benchmark_json):
    proc = run_bench("--workload", "overload-aimd", "--scale", "smoke", "--seed", "31337",
                     "--seconds", "1", "--trace", "0", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {n: v["unit"] for n, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in benchmark_json["end_to_end"]
    }
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_missing_compiled_kernel_is_a_failed_run(tmp_path):
    env = dict(os.environ, REPRO_NO_COMPILED_KERNEL="1")
    proc = run_bench("--workload", "steady-1k", "--scale", "smoke", "--repeats", "1",
                     "--out", str(tmp_path), env=env)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    results = json.loads((tmp_path / "results.json").read_text())
    (failure,) = results["workloads"]["steady-1k"]["failures"]
    assert "compiled kernel unavailable" in failure
