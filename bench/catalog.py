"""What the benchmark runs and what it reports, as plain data.

Nothing here imports ``repro``: ``run.py`` validates its command line and
``BENCHMARK.json`` against these tables in milliseconds, before any
worker starts.  ``worker.py`` turns a workload name into a scenario.
"""

from __future__ import annotations

#: workload name -> why it is in the benchmark (one line each; the
#: README has the long form and the layer shares it predicts).
WORKLOADS = {
    "steady-1k": (
        "1000-server steady Poisson at 35% load, no actions: the bulk "
        "sweep+commit seam that paper-scale sweeps exercise"
    ),
    "failure-writes": (
        "200 servers, rack failure + rebuild, Zipf updates at 4x the query "
        "rate and churn: writes, delegation and membership edits"
    ),
    "overload-aimd": (
        "1000 servers at 2x pool capacity under AIMD admission: the inline "
        "per-query path that active admission forces"
    ),
    "crowd-control-replay": (
        "1000-server flash crowd with the SLO-elasticity loop, streamed "
        "archive and recording, then a verified replay"
    ),
}

#: (n_servers, simulated seconds) per workload and scale.  ``full`` is the
#: benchmark of record: each size keeps one repeat near 3-4 s on a 2-core
#: x86 host, so a 30 s run takes enough repeats for a steady median.
#: ``smoke`` keeps each repeat well under 2 s for the harness tests.
SIZES = {
    "full": {
        "steady-1k": (1000, 1000.0),
        "failure-writes": (200, 48.0),
        "overload-aimd": (1000, 48.0),
        "crowd-control-replay": (1000, 200.0),
    },
    "smoke": {
        "steady-1k": (200, 100.0),
        "failure-writes": (40, 40.0),
        "overload-aimd": (200, 20.0),
        "crowd-control-replay": (200, 60.0),
    },
}

#: goodput counts completions within this simulated delay (seconds).
GOODPUT_SLO_S = 1.0

#: end-to-end metrics: name -> (unit, better, bound).  The bound is the
#: share of the baseline median by which the metric may get worse.  Every
#: metric is printed per workload; ``BENCHMARK.json`` lists the host
#: metrics an automated gate compares and must agree with this table.
#: The simulated metrics are deterministic per seed (bound 0) and the
#: failed-run share is 0 on a healthy run, so they are checked here and
#: by the pinned digests instead.
END_TO_END = {
    "queries_per_s": ("queries/s", "higher", 0.20),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "sim_p50_delay_s": ("s", "lower", 0.0),
    "sim_p99_delay_s": ("s", "lower", 0.0),
    "sim_goodput_qps": ("queries/s", "higher", 0.0),
    "failed_run_frac": ("fraction", "lower", 0.0),
}

#: per-layer metrics of the traced run: name -> (unit, better).  They
#: have no bound; ``better`` says which way an optimisation moves them.
PER_LAYER = {
    "kernels.commit_batch.calls": ("count", "lower"),
    "kernels.commit_batch.queries": ("count", "higher"),
    "kernels.commit_batch.self_s": ("s", "lower"),
    "kernels.commit_batch.us_per_query": ("us/query", "lower"),
    "kernels.select.calls": ("count", "lower"),
    "kernels.select.self_s": ("s", "lower"),
    "sim.engine.self_s": ("s", "lower"),
    "sim.engine.us_per_query": ("us/query", "lower"),
    "sim.chunks": ("count", "lower"),
    "sim.mean_chunk_queries": ("queries", "higher"),
    "sim.fast_fraction": ("fraction", "higher"),
    "cluster.run_query.calls": ("count", "lower"),
    "cluster.run_query.self_s": ("s", "lower"),
    "cluster.apply_update.calls": ("count", "lower"),
    "cluster.apply_update.self_s": ("s", "lower"),
    "cluster.membership.calls": ("count", "lower"),
    "cluster.membership.self_s": ("s", "lower"),
    "core.cover_table.gets": ("count", "lower"),
    "core.cover_table.builds": ("count", "lower"),
    "core.cover_table.build_s": ("s", "lower"),
    "core.cover_table.hit_ratio": ("fraction", "higher"),
    "admission.admit.calls": ("count", "lower"),
    "admission.admit.self_s": ("s", "lower"),
    "admission.tick.calls": ("count", "lower"),
    "admission.tick.self_s": ("s", "lower"),
    "admission.shed_fraction": ("fraction", "lower"),
    "control.observe_chunk.self_s": ("s", "lower"),
    "control.snapshot.self_s": ("s", "lower"),
    "control.step.calls": ("count", "lower"),
    "control.step.self_s": ("s", "lower"),
    "telemetry.archive_observe_chunk.self_s": ("s", "lower"),
    "telemetry.archive_close.self_s": ("s", "lower"),
    "telemetry.archive_bytes_per_query": ("B/query", "lower"),
    "telemetry.log_bytes_per_query": ("B/query", "lower"),
    "traces.write_recording.self_s": ("s", "lower"),
    "traces.read_recording.self_s": ("s", "lower"),
    "traces.replay_recording.self_s": ("s", "lower"),
    "scenarios.execute_scenario.self_s": ("s", "lower"),
    "scenarios.actions": ("count", "lower"),
    "obs.build_manifest.calls": ("count", "lower"),
    "obs.build_manifest.self_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.coverage": ("fraction", "higher"),
}
