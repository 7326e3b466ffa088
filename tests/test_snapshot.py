"""Snapshot/restore: byte-identical continuation of interrupted runs.

The golden contract: run queries ``[0, k)``, snapshot at a
materialisation point, restore (possibly in a fresh process), run
``[k, n)`` -- and end up with exactly the state an uninterrupted run of
``[0, n)`` produces.  Same log columns, same server counters, same
front-end EWMA state, same rng draws, bit for bit (wall-clock-derived
``scheduling`` columns excepted, the standard differential exclusion).

Also under test: the :mod:`repro._rng` named-stream state helpers the
snapshot rides on, schema gating, and the ``store_objects`` refusal.
"""

import os
import subprocess
import sys

import pytest

np = pytest.importorskip("numpy")

from repro import _rng
from repro.cluster import Deployment, DeploymentConfig, hen_testbed
from repro.kernels import kernel_available
from repro.sim import PoissonArrivals
from repro.sim.fastpath import Action
from repro.telemetry.snapshot import (
    SNAPSHOT_SCHEMA,
    Snapshot,
    SnapshotError,
    capture_deployment,
    restore_deployment,
)


def _build(n=16, p=4, seed=3, **kw):
    cfg = DeploymentConfig(
        models=hen_testbed(n),
        p=p,
        dataset_size=2e6,
        seed=seed,
        charge_scheduling=False,
        **kw,
    )
    dep = Deployment(cfg)
    for server in dep.servers.values():
        server.keep_trace = True
    return dep


#: simulated-time log/breakdown columns; the ``scheduling`` pair is
#: wall-clock-derived and excluded, exactly as the differential tests do.
_GATED_LOG = ("query_id", "arrival", "finish", "pq", "subqueries")
_GATED_BD = ("network", "queueing", "service", "total")


def assert_same_final_state(a, b):
    for name in _GATED_LOG:
        assert np.array_equal(a.log.column(name), b.log.column(name)), name
    for name in _GATED_BD:
        assert np.array_equal(
            a.breakdowns.column(name), b.breakdowns.column(name)
        ), name
    assert a.log.dropped == b.log.dropped
    assert a.ledger == b.ledger
    assert set(a.servers) == set(b.servers)
    for name in a.servers:
        sa, sb = a.servers[name], b.servers[name]
        assert sa._lane_busy_until == sb._lane_busy_until
        assert sa.busy_time == sb.busy_time
        assert sa.tasks_run == sb.tasks_run
        assert sa.objects_matched == sb.objects_matched
        assert sa.trace == sb.trace
    assert a.frontend.total_iterations == b.frontend.total_iterations
    assert a.frontend.total_estimates == b.frontend.total_estimates
    assert a.frontend.queries_scheduled == b.frontend.queries_scheduled
    assert a.frontend._query_counter == b.frontend._query_counter
    for name, st_a in a.frontend.stats.items():
        st_b = b.frontend.stats[name]
        assert st_a.speed_estimate == st_b.speed_estimate
        assert st_a.busy_until == st_b.busy_until
        assert st_a.outstanding == st_b.outstanding
        assert st_a.completed == st_b.completed
        assert st_a.last_seen == st_b.last_seen
    # the next draw of every rng agrees (continuation keeps reproducing)
    assert a.rng.random() == b.rng.random()
    assert a.frontend.rng.random() == b.frontend.rng.random()
    assert a.network.rng.random() == b.network.rng.random()


class TestRngStreams:
    def test_stream_state_round_trip_reproduces_draws(self):
        rng = _rng.named_stream("snapshot-test-stream")
        for _ in range(17):  # advance off the seed point
            rng.random()
        state = _rng.stream_state(rng)
        expected = [rng.random() for _ in range(32)] + [rng.gauss(0, 1)]
        restored = _rng.stream_from_state(state)
        got = [restored.random() for _ in range(32)] + [restored.gauss(0, 1)]
        assert got == expected

    def test_capture_restore_streams_global(self):
        a = _rng.named_stream("snapshot-global-a")
        a.random()
        saved = _rng.capture_streams()
        expected = [a.random() for _ in range(8)]
        a.random()  # drift past the capture point
        _rng.restore_streams(saved)
        b = _rng.named_stream("snapshot-global-a")  # same underlying stream
        assert [b.random() for _ in range(8)] == expected

    def test_state_is_json_clean(self):
        import json

        rng = _rng.named_stream("snapshot-json-stream")
        rng.random()
        state = _rng.stream_state(rng)
        rebuilt = _rng.stream_from_state(json.loads(json.dumps(state)))
        assert rebuilt.random() == _rng.stream_from_state(state).random()


def _kernels():
    out = ["exact_numpy"]
    if kernel_available("compiled"):
        out.append("compiled")
    return out


class TestGoldenRoundTrip:
    @pytest.mark.parametrize("kernel", _kernels())
    def test_snapshot_restore_continue_is_byte_identical(self, kernel):
        arrivals = PoissonArrivals(40.0, seed=11).times(400)
        k = 173  # mid-run, mid-nothing-special

        # the uninterrupted run, with a snapshot taken in-flight via an
        # action (the engine materialises exact state before it fires)
        box = {}
        full = _build()
        full_result = full.run_queries_fast(
            arrivals,
            4,
            actions=[
                Action(k, arrivals[k - 1],
                       lambda now: box.update(snap=capture_deployment(full)),
                       "none"),
            ],
            kernel=kernel,
        )

        resumed = restore_deployment(box["snap"])
        assert resumed.log.n_records == k
        for server in resumed.servers.values():
            server.keep_trace = True
        tail = resumed.run_queries_fast(arrivals[k:], 4, kernel=kernel)
        # the continuation's BatchResult arrays equal the uninterrupted
        # run's tail, bit for bit
        for field in ("arrivals", "latencies", "finishes"):
            assert np.array_equal(
                getattr(full_result, field)[k:], getattr(tail, field),
                equal_nan=True,
            ), field
        for field in ("query_ids", "pqs"):
            assert np.array_equal(
                getattr(full_result, field)[k:], getattr(tail, field)
            ), field
        assert full_result.dropped == tail.dropped + box["snap"].meta[
            "log_dropped"]
        assert_same_final_state(full, resumed)

    def test_restore_preserves_rng_aliasing(self):
        dep = _build()
        dep.run_queries_fast(PoissonArrivals(30.0, seed=2).times(50), 4)
        resumed = restore_deployment(capture_deployment(dep))
        # the constructor shares one Random across deployment, membership
        # and front-end; the restore must rebuild that exact aliasing
        assert dep.rng is dep.membership.rng is dep.frontend.rng
        assert resumed.rng is resumed.membership.rng is resumed.frontend.rng
        assert resumed.network.rng is not resumed.rng

    def test_snapshot_after_failures(self):
        arrivals = PoissonArrivals(30.0, seed=7).times(300)
        k = 140
        mid = arrivals[60]

        def run(dep):
            pre = [t for t in arrivals[:k] if t < mid]
            rest = [t for t in arrivals[:k] if t >= mid]
            dep.run_queries_fast(pre, 4)
            dep.fail_node("node-3", mid)
            dep.run_queries_fast(rest, 4)

        full, cut = _build(), _build()
        run(full)
        full.run_queries_fast(arrivals[k:], 4)
        run(cut)
        resumed = restore_deployment(capture_deployment(cut))
        for server in resumed.servers.values():
            server.keep_trace = True
        assert resumed._known_dead == cut._known_dead
        resumed.run_queries_fast(arrivals[k:], 4)
        assert_same_final_state(full, resumed)


class TestSnapshotFile:
    def test_save_load_round_trip(self, tmp_path):
        dep = _build()
        dep.run_queries_fast(PoissonArrivals(30.0, seed=4).times(80), 4)
        snap = capture_deployment(dep)
        path = tmp_path / "state.npz"
        snap.save(path)
        loaded = Snapshot.load(path)
        assert loaded.meta == snap.meta  # JSON floats round-trip exactly
        assert set(loaded.columns) == set(snap.columns)
        for name in snap.columns:
            assert np.array_equal(loaded.columns[name], snap.columns[name])
        resumed = restore_deployment(loaded)
        assert resumed.log.delays() == dep.log.delays()

    def test_schema_mismatch_refused(self, tmp_path):
        dep = _build()
        snap = capture_deployment(dep)
        snap.meta["schema"] = SNAPSHOT_SCHEMA + 1
        with pytest.raises(SnapshotError, match="schema"):
            restore_deployment(snap)
        path = tmp_path / "future.npz"
        snap.save(path)
        with pytest.raises(SnapshotError, match="schema"):
            Snapshot.load(path)

    @pytest.mark.parametrize(
        "kind, problem",
        [("truncated", "not a readable snapshot"), ("no-meta", "'meta_json' is missing")],
    )
    def test_malformed_file_names_file_and_fix(self, tmp_path, kind, problem):
        path = str(tmp_path / "state.npz")
        if kind == "truncated":
            capture_deployment(_build()).save(path)
            with open(path, "rb") as fh:
                head = fh.read()
            with open(path, "wb") as fh:
                fh.write(head[: len(head) // 2])
        else:
            np.savez_compressed(path, columns=np.arange(3.0))
        with pytest.raises(SnapshotError) as info:
            Snapshot.load(path)
        msg = str(info.value)
        assert msg.startswith(f"{path}: ")
        assert problem in msg
        assert "truncated or is not a snapshot; write it again" in msg

    def test_store_objects_refused(self):
        dep = Deployment(
            DeploymentConfig(
                models=hen_testbed(4), p=2, seed=1, store_objects=True,
                n_objects_stored=50,
            )
        )
        with pytest.raises(SnapshotError, match="store_objects"):
            capture_deployment(dep)


_SUBPROCESS_SCRIPT = """
import sys
import numpy as np
from repro.cluster import Deployment, DeploymentConfig, hen_testbed
from repro.sim import PoissonArrivals
from repro.sim.fastpath import Action
from repro.telemetry.snapshot import capture_deployment, restore_deployment

def build():
    dep = Deployment(DeploymentConfig(models=hen_testbed(12), p=4,
                                      dataset_size=2e6, seed=3,
                                      charge_scheduling=False))
    return dep

arrivals = PoissonArrivals(40.0, seed=11).times(200)
k = 87
box = {}
full = build()
full.run_queries_fast(arrivals, 4, actions=[
    Action(k, arrivals[k - 1],
           lambda now: box.update(snap=capture_deployment(full)), "none"),
])
resumed = restore_deployment(box["snap"])
resumed.run_queries_fast(arrivals[k:], 4)
for col in ("query_id", "arrival", "finish", "pq", "subqueries"):
    assert np.array_equal(full.log.column(col), resumed.log.column(col)), col
assert full.ledger == resumed.ledger
print("ROUND-TRIP-OK")
"""


class TestNoCompiledKernelEnv:
    def test_round_trip_with_compiled_kernel_disabled(self):
        """REPRO_NO_COMPILED_KERNEL=1 runs the same golden round trip."""
        env = dict(os.environ)
        env["REPRO_NO_COMPILED_KERNEL"] = "1"
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SCRIPT],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ROUND-TRIP-OK" in proc.stdout
