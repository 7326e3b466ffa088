"""One benchmark repeat in a fresh, single-threaded process.

``run.py`` starts one of these per (workload, repeat) and reads the JSON
object it prints as its last line.  Usage (normally only from ``run.py``)::

    python bench/worker.py '{"mode": "prepare", "scratch": "bench/out/tmp/prepare"}'
    python bench/worker.py '{"mode": "setup", "workload": "steady-1k", "seed": 1,
                             "scale": "full", "t_spawn": <ns>}'
    python bench/worker.py '{"mode": "run", "workload": "steady-1k", "seed": 1,
                             "scale": "full", "trace": false, "t_spawn": <ns>,
                             "scratch": "bench/out/tmp/x", "out": "bench/out"}'

``t_spawn`` is the parent's ``time.perf_counter_ns()`` just before it
started this process (CLOCK_MONOTONIC is shared by every process on the
host), so ``setup_s`` counts interpreter start and imports too.  The
``setup`` mode stops there: it samples set-up time alone.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import replace

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import catalog  # noqa: E402

KERNEL = "compiled"


def build_scenario(workload: str, scale: str, seed: int):
    """The workload's scenario, derived from the builtin battery."""
    from repro.scenarios.matrix import builtin_scenarios

    n_servers, duration = catalog.SIZES[scale][workload]
    battery = {
        s.name: s
        for s in builtin_scenarios(n_servers=n_servers, duration=duration, seed=seed)
    }
    if workload == "steady-1k":
        scenario = battery["steady"]
    elif workload == "failure-writes":
        rack = battery["rack-failure"]
        fail, rebuild = rack.events
        scenario = rack.with_(
            # a fixed rack (the lowest machine indices) rather than a
            # seed-drawn one: a drawn rack changes the delegated-query
            # count 4x between seeds, and the host time 1.5x
            events=(replace(fail, value=0), rebuild),
            updates=battery["zipf-updates"].updates,
            churn=battery["churn"].churn,
        )
    elif workload == "overload-aimd":
        scenario = battery["sustained-overload"]
        scenario = scenario.with_(admission=replace(scenario.admission, policy="aimd"))
    elif workload == "crowd-control-replay":
        scenario = battery["crowd-x-rack"].with_(events=())
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return scenario.with_(name=workload, kernel=KERNEL)


def setup(scenario) -> None:
    """What a user pays before the first query: the set-up phase."""
    from repro.core.covertable import CoverTableCache
    from repro.kernels import get_kernel
    from repro.scenarios.runner import build_deployment, generate_arrivals

    get_kernel(KERNEL)
    deployment = build_deployment(scenario)
    generate_arrivals(scenario)
    CoverTableCache().get(deployment.rings, scenario.pq or scenario.p)


def drive(workload: str, scenario, scratch: str):
    """The timed call: returns (executions, replay report, archive path).

    Calls go through the module attributes so a traced run sees them.
    """
    from repro.scenarios import runner
    from repro.traces import record

    if workload != "crowd-control-replay":
        return [runner.execute_scenario(scenario)], None, None
    archive = os.path.join(scratch, "run-archive.npz")
    recording = os.path.join(scratch, "run-recording.npz")
    first = runner.execute_scenario(
        scenario, archive_path=archive, record_path=recording
    )
    report = record.replay_recording(recording)
    return [first, report.execution], report, archive


def digest(deployment) -> str:
    """sha256 over the run's wall-free telemetry columns."""
    import numpy as np
    from repro.telemetry.archive import collect_columns

    h = hashlib.sha256()
    for name, col in sorted(collect_columns(deployment, wall_columns=False).items()):
        arr = np.ascontiguousarray(col)
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def check(workload: str, executions, report) -> list[str]:
    """Invariants every repeat must hold, pinned digest or not."""
    import numpy as np

    problems = []
    for k, ex in enumerate(executions):
        b = ex.batch
        n = len(b.arrivals)
        if b.completed + b.dropped + b.shed != n:
            problems.append(
                f"pass {k}: completed {b.completed} + dropped {b.dropped} + "
                f"shed {b.shed} != offered {n}"
            )
        done = np.isfinite(b.latencies)
        if int(done.sum()) != b.completed or bool((b.latencies[done] < 0).any()):
            problems.append(f"pass {k}: latencies disagree with the completed count")
        if ex.deployment.log.n_records != b.completed:
            problems.append(f"pass {k}: log rows != completed queries")
    first = executions[0]
    # each workload must still exercise the layer it was chosen for
    if workload == "failure-writes" and not (
        first.batch.delegated and first.updates_applied
    ):
        problems.append("no delegated queries or no updates applied")
    if workload == "overload-aimd" and not first.batch.shed:
        problems.append("AIMD admission shed nothing under 2x overload")
    if workload == "crowd-control-replay":
        if not sum(len(c.actions) for c in first.controllers):
            problems.append("the elasticity loop took no action")
        if not (report.verified and report.identical):
            problems.append(
                f"replay not identical: {', '.join(report.mismatching_columns)}"
            )
    return problems


def sim_metrics(first) -> dict:
    """Simulated outcomes of the (first) execution, from its log columns."""
    import numpy as np

    log = first.deployment.log
    delays = log.column("finish") - log.column("arrival")
    return {
        "sim_p50_delay_s": float(np.percentile(delays, 50)),
        "sim_p99_delay_s": float(np.percentile(delays, 99)),
        "sim_goodput_qps": float((delays <= catalog.GOODPUT_SLO_S).sum()) / first.horizon,
    }


def layer_metrics(tracer, executions, wall_s: float, archive) -> dict:
    """The per-layer metrics of a traced repeat (names: catalog.PER_LAYER)."""
    from repro.telemetry.archive import collect_columns

    t = tracer.totals()

    def get(span: str, field: str):
        return t.get(span, {}).get(field, 0)

    def per_query(seconds: float, queries: int) -> float:
        return seconds / queries * 1e6 if queries else 0.0

    offered = sum(len(ex.batch.arrivals) for ex in executions)
    fast = sum(ex.batch.fast_scheduled for ex in executions)
    delegated = sum(ex.batch.delegated for ex in executions)
    chunks = [n for ex in executions for n in ex.batch.chunk_sizes]
    shed = sum(ex.batch.shed for ex in executions)
    first = executions[0]
    first_q = len(first.batch.arrivals)
    log_bytes = sum(c.nbytes for c in collect_columns(first.deployment).values())
    gets = get("core.cover_table.get", "calls")
    builds = get("core.cover_table.build", "calls")
    m = {
        "kernels.commit_batch.queries": get("kernels.commit_batch", "work"),
        "kernels.commit_batch.us_per_query": per_query(
            get("kernels.commit_batch", "self_s"), get("kernels.commit_batch", "work")
        ),
        "sim.engine.us_per_query": per_query(get("sim.engine", "self_s"), offered),
        "sim.chunks": len(chunks),
        "sim.mean_chunk_queries": sum(chunks) / len(chunks) if chunks else 0.0,
        "sim.fast_fraction": fast / (fast + delegated) if fast + delegated else 0.0,
        "core.cover_table.gets": gets,
        "core.cover_table.builds": builds,
        "core.cover_table.build_s": get("core.cover_table.build", "total_s"),
        "core.cover_table.hit_ratio": max(gets - builds, 0) / gets if gets else 0.0,
        "admission.shed_fraction": shed / offered if offered else 0.0,
        "telemetry.archive_bytes_per_query": (
            os.path.getsize(archive) / first_q if archive and first_q else 0.0
        ),
        "telemetry.log_bytes_per_query": log_bytes / first_q if first_q else 0.0,
        "scenarios.actions": sum(ex.batch.actions_applied for ex in executions),
        "trace.coverage": tracer.attributed_s() / wall_s,
    }
    # the rest are span totals by name: "<span>.calls" and "<span>.self_s"
    for name in catalog.PER_LAYER:
        span, _, field = name.rpartition(".")
        if name not in m and field in ("calls", "self_s"):
            m[name] = get(span, field)
    return m


def run(spec: dict) -> dict:
    workload, seed, scale = spec["workload"], spec["seed"], spec["scale"]
    out = {"problems": []}
    try:
        from repro.kernels import KernelUnavailableError

        scenario = build_scenario(workload, scale, seed)
        try:
            setup(scenario)
        except KernelUnavailableError as exc:
            out["problems"].append(f"compiled kernel unavailable: {exc}")
            return out
        out["setup_s"] = (time.perf_counter_ns() - spec["t_spawn"]) / 1e9
        if spec["mode"] == "setup":
            return out
        gc.collect()

        tracer = None
        if spec["trace"]:
            import trace

            tracer = trace.Tracer().install()
        os.makedirs(spec["scratch"], exist_ok=True)
        t0 = time.perf_counter()
        try:
            executions, report, archive = drive(workload, scenario, spec["scratch"])
        finally:
            wall_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()

        out["wall_s"] = wall_s
        out["queries_per_s"] = sum(len(ex.batch.arrivals) for ex in executions) / wall_s
        out["digest"] = digest(executions[0].deployment)
        out["problems"] += check(workload, executions, report)
        out.update(sim_metrics(executions[0]))
        if tracer is not None:
            out["layers"] = layer_metrics(tracer, executions, wall_s, archive)
            path = os.path.join(spec["out"], f"trace-{workload}.json")
            tracer.write_chrome(path, meta={"workload": workload, "seed": seed})
            out["trace_file"] = path
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:
        out["problems"].append("raised: " + traceback.format_exc(limit=8))
    return out


def prepare(spec: dict) -> dict:
    """Build the compiled kernel, then fill the bytecode cache.

    A traced smoke-scale repeat of every workload imports every module a
    timed repeat will import, so no timed repeat compiles bytecode (which
    would also raise its peak memory).
    """
    problems = []
    for workload in catalog.WORKLOADS:
        result = run(
            {"mode": "run", "workload": workload, "seed": 1, "scale": "smoke",
             "trace": True, "t_spawn": time.perf_counter_ns(),
             "scratch": spec["scratch"], "out": spec["scratch"]}
        )
        problems += result["problems"]
    return {"ok": not problems, "problems": problems}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    result = prepare(spec) if spec["mode"] == "prepare" else run(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
