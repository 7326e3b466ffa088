"""Object updates as engine data, and delegations that reuse the kernel's pick.

A run's ``(time, position)`` object updates are run data (``updates=``:
the index of the query each precedes and the ``(n, 2)`` rows), and each
:class:`~repro.sim.fastpath.Action` callback carries its place in that
stream.  The reference path applies the updates through
:meth:`Deployment.apply_update`; the batched engine applies them on its
own mirrors.  The two must leave the same bytes behind.  Compared: the
``BatchResult`` arrays and counts, the wall-free telemetry columns, every
rng state, and the full deployment state -- server queues, busy time,
task and object counters, traces in order, every ``NodeStats`` field
(``busy_until`` included), the front-end work counters and the ledger --
at the end of the run and as each ``write`` callback observes it.  The
delegation cases pin the ``NodeStats`` sync a delegated query leaves
pending: to the end of the run, to a callback, past a data update, past
a drop after a replacement piece ran, and on two rings.

Paths: the reference engine, the batched engine with ``exact_numpy`` on
the python commit seam, and with ``compiled``; a subprocess repeats the
battery with ``REPRO_NO_COMPILED_KERNEL=1``.

Mechanism checks, each with a monkeypatch that raises or counts: data
updates never reach ``Deployment.apply_update`` or ``_refresh_busy`` on
the batched engine, exact kernels hand their failure-window picks to
the reference path, which then never calls ``FrontEnd.schedule_query``,
each delegated query is one ``Deployment.run_query`` call, and a query
whose dead run cannot be re-covered drops in the kernel without one.
Both engines refuse a callback whose place in the update stream
disagrees with its index.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.cluster import Deployment, DeploymentConfig, hen_testbed
from repro.core.frontend import FrontEnd
from repro.core.ring import Ring, RingNode
from repro.kernels.base import CommitPlan, SweepState, UpdateStream
from repro.kernels.compiled import compiled_available
from repro.kernels.registry import get_kernel
from repro.sim import PoissonArrivals, SimServer, fastpath
from repro.sim.fastpath import Action, run_queries_reference
from repro.sim.network import TrafficLedger
from repro.telemetry.archive import collect_columns

PATHS = ["reference", "python_seam", "compiled"]

#: the largest double below 1.0 -- the last position an update can take.
BELOW_ONE = math.nextafter(1.0, 0.0)


def _deployment(n=12, p=4, seed=5, n_rings=1, trace="all", store_objects=False):
    dep = Deployment(
        DeploymentConfig(
            models=hen_testbed(n),
            p=p,
            n_rings=n_rings,
            dataset_size=2e6,
            seed=seed,
            charge_scheduling=False,
            store_objects=store_objects,
        )
    )
    for i, server in enumerate(dep.servers.values()):
        server.keep_trace = trace == "all" or (trace == "some" and i % 3 == 0)
    return dep


def _updates(arrivals, index, count, rng, lo=0.0, hi=1.0):
    """*count* updates timed between queries ``index - 1`` and ``index``."""
    t0 = arrivals[index - 1] if index > 0 else 0.0
    t1 = arrivals[index] if index < len(arrivals) else t0 + 1.0
    times = sorted(t0 + (t1 - t0) * rng.random() for _ in range(count))
    return [(t, min(lo + (hi - lo) * rng.random(), BELOW_ONE)) for t in times]


def _switching_pq(now):
    """A callable ``pq_fn``: 6 for one half-second in three, else 4."""
    return 6 if int(now * 2.0) % 3 == 0 else 4


def _case(name):
    """(deployment kwargs, pq, arrivals, plan, admission) for one named case.

    A plan row is ``(index, callback kind, server names, updates)``: the
    callback kind is None for updates alone, and a callback's own updates
    follow it in the stream (:func:`_run_data`).  *pq* is an int or a
    callable ``pq_fn``; *admission* a policy spec or None.
    """
    rng = np.random.default_rng(sum(map(ord, name)))
    n_q = 240
    arrivals = PoissonArrivals(40.0, seed=len(name)).times(n_q)
    dep_kw: dict = {}
    pq = 4
    plan = []
    admission = None
    every = range(3, n_q, 3)
    if name == "failure-window":
        plan = [(i, None, (), _updates(arrivals, i, 2, rng)) for i in every]
        plan.append((60, "fail", ("node-3", "node-7"), ()))
        plan.append((150, "recover", ("node-3", "node-7"), ()))
    elif name == "wrap":
        plan = [(i, None, (), _updates(arrivals, i, 2, rng, 0.9, 1.0)) for i in every]
        plan += [(i, None, (), [(arrivals[i - 1], v)]) for i, v in
                 ((40, 0.0), (80, BELOW_ONE), (120, 11 / 12))]
    elif name == "r-over-alive":
        # p=1: every update is charged to r = n holders, more than are alive
        dep_kw = {"n": 10, "p": 1}
        pq = 1
        plan = [(i, None, (), _updates(arrivals, i, 1, rng)) for i in every]
        plan.append((90, "fail", ("node-2", "node-5"), ()))
    elif name == "coalesced":
        plan = [(i, None, (), _updates(arrivals, i, 6, rng)) for i in range(5, n_q, 7)]
    elif name == "edges":
        plan = [
            (0, None, (), _updates(arrivals, 0, 3, rng)),
            (n_q, None, (), _updates(arrivals, n_q, 3, rng)),
            (n_q + 5, None, (), _updates(arrivals, n_q, 2, rng)),
        ]
    elif name == "after-fast-query":
        # lone updates after long fast spans, the last one after the
        # final query: NodeStats.busy_until must keep the synced queues
        plan = [(i, None, (), _updates(arrivals, i, 1, rng)) for i in (100, 200, n_q)]
    elif name == "keep-trace-some":
        dep_kw = {"trace": "some"}
        plan = [(i, None, (), _updates(arrivals, i, 2, rng)) for i in every]
        plan.append((70, "fail", ("node-4",), ()))
    elif name == "multi-ring":
        dep_kw = {"n_rings": 2}
        plan = [(i, None, (), _updates(arrivals, i, 2, rng)) for i in every]
    elif name == "callback-and-data":
        # a callback that itself writes, then data updates at its place
        plan = [(i, "write", (), _updates(arrivals, i, 2, rng)) for i in range(4, n_q, 9)]
        plan += [(i, None, (), _updates(arrivals, i, 1, rng)) for i in range(6, n_q, 9)]
    elif name == "delegated-last":
        # the window stays open to the end and the final query delegates,
        # so only the end-of-run materialise writes its pending sync
        plan = [(i, None, (), _updates(arrivals, i, 2, rng)) for i in every]
        plan.append((60, "fail", (3, 7), ()))
    elif name == "delegated-then-callback":
        # inside the window: a busy-scope callback alone, and a data
        # update followed by a callback, each right after a query
        plan = [(40, "fail", (3, 7), ())]
        for i in range(44, n_q, 6):
            plan.append((i, None, (), _updates(arrivals, i, 2, rng)))
            plan.append((i, "write", (), ()))
            plan.append((i + 3, "write", (), ()))
    elif name == "replacement-then-drop":
        # two dead ring neighbours and a third hole: each affected query
        # submits a replacement piece, then drops; the recovery lets the
        # seam read the re-read mirrors again
        dep_kw = {"n": 10, "seed": 5}
        plan = [(i, None, (), _updates(arrivals, i, 1, rng)) for i in every]
        plan.append((60, "fail", (0, 1, 4), ()))
        plan.append((150, "recover", (0, 1, 4), ()))
    elif name == "failure-multi-ring":
        # one failed server on each ring; the fall-back covers from ring 0
        dep_kw = {"n": 20, "n_rings": 2}
        plan = [(i, None, (), _updates(arrivals, i, 2, rng)) for i in every]
        plan.append((60, "fail", ("node-4", "node-3"), ()))
        plan.append((180, "recover", ("node-4", "node-3"), ()))
    elif name == "lost-run":
        # three dead ring neighbours, wider than the replication arc: the
        # fall-back cannot re-cover them, so every query of the window
        # drops inside commit_batch and none reaches Deployment.run_query
        plan = [(i, None, (), _updates(arrivals, i, 2, rng)) for i in every]
        plan.append((60, "fail", (2, 3, 4), ()))
        plan.append((150, "recover", (2, 3, 4), ()))
    elif name == "lost-and-coverable":
        # the too-wide run and a coverable hole: a query whose first
        # failed piece lands in the hole is delegated (and then drops on
        # the wide run after its replacement ran), the others drop in
        # the kernel
        plan = [(i, None, (), _updates(arrivals, i, 2, rng)) for i in every]
        plan.append((60, "fail", (2, 3, 4, 9), ()))
        plan.append((150, "recover", (2, 3, 4, 9), ()))
    elif name == "lost-last-and-callback":
        # the too-wide window stays open to the end: kernel drops right
        # before callbacks and as the last query leave the NodeStats
        # sync pending for the callback and the end-of-run materialise
        plan = [(i, None, (), _updates(arrivals, i, 2, rng)) for i in every]
        plan.append((200, "fail", (2, 3, 4), ()))
        plan += [(i, "write", (), ()) for i in (205, 216, 230)]
    elif name == "lost-then-regrow":
        # inside the too-wide window a busy-scope callback finishes a
        # repartition to p=2: the replication arc doubles, the run turns
        # coverable, and the lost flags must follow p_store
        dep_kw = {"store_objects": True}
        plan = [(i, None, (), _updates(arrivals, i, 2, rng)) for i in every]
        plan.append((60, "fail", (2, 3, 4), ()))
        plan.append((110, "regrow", (), ()))
    elif name == "gate-sheds-then-updates":
        # a tight AIMD bucket sheds most queries inside commit_batch, so
        # updates land between the last admitted query and the end of the
        # call, and after the last query: the NodeStats.busy_until sync
        # must keep the queues that query read
        admission = "aimd:rate=8,burst=1,floor=1"
        plan = [(i, None, (), _updates(arrivals, i, 2, rng)) for i in every]
        plan.append((n_q, None, (), _updates(arrivals, n_q, 3, rng)))
    elif name == "delay-gated-drive":
        # the engine admits each query itself: the updates before a query
        # must land before its admission check
        admission = "delay_gated:slo=1,window=0.5"
        plan = [(i, None, (), _updates(arrivals, i, 3, rng)) for i in range(2, n_q, 2)]
        plan.append((n_q, None, (), _updates(arrivals, n_q, 2, rng)))
    elif name == "pq-switch":
        # a callable pq_fn cuts the callback-free span into runs of
        # constant pq; updates fall inside runs and on their borders
        pq = _switching_pq
        plan = [(i, None, (), _updates(arrivals, i, 2, rng)) for i in range(1, n_q, 2)]
    elif name == "same-index-order":
        # one index holds [updates, callback, updates] in plan order:
        # the callback sees the first updates and not the second
        for i in range(10, n_q, 40):
            plan.append((i, None, (), _updates(arrivals, i, 2, rng)))
            plan.append((i, "write", (), ()))
            plan.append((i, None, (), _updates(arrivals, i, 2, rng)))
        plan += [(i, None, (), _updates(arrivals, i, 1, rng)) for i in every]
    else:  # pragma: no cover
        raise KeyError(name)
    return dep_kw, pq, arrivals, plan, admission


CASES = [
    "failure-window",
    "wrap",
    "r-over-alive",
    "coalesced",
    "edges",
    "after-fast-query",
    "keep-trace-some",
    "multi-ring",
    "callback-and-data",
    "delegated-last",
    "delegated-then-callback",
    "replacement-then-drop",
    "failure-multi-ring",
    "lost-run",
    "lost-and-coverable",
    "lost-last-and-callback",
    "lost-then-regrow",
    "gate-sheds-then-updates",
    "delay-gated-drive",
    "pq-switch",
    "same-index-order",
]


def _state(dep):
    """Every ``NodeStats`` field, and every server's queue and counters."""
    return (
        {
            name: (st.speed_estimate, st.busy_until, st.last_seen, st.outstanding, st.completed)
            for name, st in dep.frontend.stats.items()
        },
        {
            name: (tuple(s._lane_busy_until), s.busy_time, s.tasks_run, s.objects_matched)
            for name, s in dep.servers.items()
        },
    )


def _run_data(dep, arrivals, plan, seen):
    """The plan as run data: ``(actions, updates)``.

    Rows go in index order (ties keep plan order).  Each row's updates
    join the stream, after its callback if it has one; the callback's
    ``stream_pos`` is the number of updates before it.  An int among a
    row's server names is a position on ring 0.  A ``write`` callback
    appends the state it observes to *seen* before it writes."""
    ring0 = [nd.name for nd in dep.rings[0].nodes()]

    def resolve(names):
        return [ring0[name] if isinstance(name, int) else name for name in names]

    def fail(now, names):
        for name in resolve(names):
            dep.fail_node(name, now)

    def recover(now, names):
        for name in resolve(names):
            dep.recover_node(name, now)

    def write(now, names):
        seen.append(_state(dep))
        dep.apply_update(now, at=0.25)

    def regrow(now, names):
        dep.reconfig.request_p(2)
        dep.reconfig.run_all_steps()

    kinds = {
        "fail": (fail, "values"),
        "recover": (recover, "values"),
        "write": (write, "busy"),
        "regrow": (regrow, "busy"),
    }
    acts, q, rows = [], [], []
    for index, kind, names, updates in sorted(plan, key=lambda row: row[0]):
        if kind is not None:
            t = updates[0][0] if updates else arrivals[index - 1]
            body, scope = kinds[kind]
            fn = lambda now, body=body, names=names: body(now, names)  # noqa: E731
            acts.append(Action(index, t, fn, scope, stream_pos=len(rows)))
        q += [index] * len(updates)
        rows += updates
    return acts, (q, rows)


def _fingerprint(dep, res):
    fe = dep.frontend
    return {
        "result": (
            res.latencies.tobytes(),
            res.finishes.tobytes(),
            res.query_ids.tobytes(),
            res.pqs.tobytes(),
            res.completed,
            res.dropped,
            res.shed,
            res.actions_applied,
        ),
        "columns": {
            k: v.tobytes() for k, v in collect_columns(dep, wall_columns=False).items()
        },
        "rng": (dep.rng.getstate(), dep.network.rng.getstate(), fe.rng.getstate()),
        "servers": {
            name: (
                tuple(s._lane_busy_until),
                s.busy_time,
                s.tasks_run,
                s.objects_matched,
                s.failed,
                [(t.query_id, t.arrival, t.start, t.finish, t.work) for t in s.trace],
            )
            for name, s in dep.servers.items()
        },
        "stats": {
            name: (st.speed_estimate, st.busy_until, st.last_seen, st.outstanding, st.completed)
            for name, st in fe.stats.items()
        },
        "frontend": (
            fe.total_iterations,
            fe.total_estimates,
            fe.queries_scheduled,
            fe._query_counter,
        ),
        "ledger": dep.ledger,
        "dropped": dep.log.dropped,
    }


def run_path(path, name):
    """One run of case *name* on *path*: ``(fingerprint, result)``.

    The case's admission spec resolves to a fresh policy per run, and its
    ``pq`` may be a callable ``pq_fn``."""
    dep_kw, pq, arrivals, plan, admission = _case(name)
    dep = _deployment(**dep_kw)
    seen = []
    acts, updates = _run_data(dep, arrivals, plan, seen)
    if path == "reference":
        res = run_queries_reference(
            dep, arrivals, pq, actions=acts, admission=admission, updates=updates
        )
    else:
        res = dep.run_queries_fast(
            arrivals,
            pq,
            actions=acts,
            kernel="compiled" if path == "compiled" else "exact_numpy",
            admission=admission,
            updates=updates,
        )
    fingerprint = _fingerprint(dep, res)
    fingerprint["seen by callbacks"] = seen
    return fingerprint, res


def _paths():
    return [p for p in PATHS if p != "compiled" or compiled_available()]


def _kernels():
    return ["exact_numpy"] + (["compiled"] if compiled_available() else [])


def _delegations(monkeypatch, name, path="python_seam", coverable=True):
    """Run case *name* on a batched *path*; one ``(query index, dropped,
    servers submitted to)`` row per ``Deployment.run_query`` call.

    On a *coverable* case every delegated query is one call.  Otherwise
    the kernel drops some itself: those make no call, and every other
    delegated query still makes one."""
    arrivals = _case(name)[2]
    index = {t: i for i, t in enumerate(arrivals)}
    calls = []
    original = Deployment.run_query

    def recording(self, now, pq=None, pick=None):
        record = original(self, now, pq, pick)
        calls.append((index[now], record is None, len(self.last_submitted)))
        return record

    with monkeypatch.context() as m:
        m.setattr(Deployment, "run_query", recording)
        _, res = run_path(path, name)
    if coverable:
        assert len(calls) == res.delegated
    else:
        kernel_drops = res.dropped - sum(dropped for _, dropped, _ in calls)
        assert kernel_drops > 0 and len(calls) + kernel_drops == res.delegated
    return calls


class TestDataUpdatesMatchTheReference:
    @pytest.mark.parametrize("name", CASES)
    def test_every_path_leaves_the_same_bytes(self, name):
        base, ref = run_path("reference", name)
        assert ref.actions_applied == sum(row[1] is not None for row in _case(name)[3])
        for path in _paths()[1:]:
            got, res = run_path(path, name)
            for key in base:
                assert got[key] == base[key], (path, key)
            assert res.fast_scheduled > 0, path

    def test_failed_server_on_an_alive_node_skips_the_write(self):
        ups = tuple((0.1 * k, (0.13 * k) % 1.0) for k in range(1, 40))
        prints = []
        for path in _paths():
            dep = _deployment(n=8)
            dep.servers["node-2"].fail()  # the server only: its node stays alive
            updates = ([0] * len(ups), ups)
            if path == "reference":
                res = run_queries_reference(dep, [], 4, updates=updates)
            else:
                kernel = "compiled" if path == "compiled" else "exact_numpy"
                res = dep.run_queries_fast([], 4, kernel=kernel, updates=updates)
            prints.append(_fingerprint(dep, res))
        assert all(p == prints[0] for p in prints[1:])
        tasks = {name: s[2] for name, s in prints[0]["servers"].items()}
        assert tasks["node-2"] == 0 and tasks["node-1"] > 0

    def test_cases_reach_what_they_name(self, monkeypatch):
        _, res = run_path("python_seam", "failure-window")
        assert res.delegated > 0
        fp, res = run_path("python_seam", "r-over-alive")
        assert res.delegated > 0
        # every alive server took every update: r = n exceeds the alive count
        tasks = {name: s[2] for name, s in fp["servers"].items()}
        assert tasks["node-2"] < tasks["node-0"]
        fp, _ = run_path("python_seam", "keep-trace-some")
        traced = [s[5] for s in fp["servers"].values()]
        assert any(traced) and not all(traced)
        assert any(t[0] == -1 for rows in traced for t in rows)

        # the lazy NodeStats sync around delegations
        n_q = len(_case("delegated-last")[2])
        calls = _delegations(monkeypatch, "delegated-last")
        assert calls and calls[-1][0] == n_q - 1
        assert max(row[0] for row in _case("delegated-last")[3]) < n_q

        calls = _delegations(monkeypatch, "delegated-then-callback")
        delegated = {q for q, _, _ in calls}
        plan = _case("delegated-then-callback")[3]
        data_at = {i for i, kind, _, _ in plan if kind is None}
        callback_at = {i for i, kind, _, _ in plan if kind == "write"}
        assert any(i - 1 in delegated for i in callback_at - data_at)
        assert any(i - 1 in delegated for i in data_at & callback_at)

        calls = _delegations(monkeypatch, "replacement-then-drop", coverable=False)
        assert any(dropped and submitted for _, dropped, submitted in calls)
        assert max(q for q, _, _ in calls) < 150  # the seam runs after recovery

        calls = _delegations(monkeypatch, "failure-multi-ring")
        assert calls
        dep = _deployment(**_case("failure-multi-ring")[0])
        ring_of = {nd.name: r for r, ring in enumerate(dep.rings) for nd in ring.nodes()}
        assert {ring_of["node-4"], ring_of["node-3"]} == {0, 1}

        # a too-wide dead run: every delegated query drops in the kernel
        assert _delegations(monkeypatch, "lost-run", coverable=False) == []
        _, res = run_path("python_seam", "lost-run")
        assert res.dropped == res.delegated > 0
        # with a coverable hole beside it, some queries still delegate
        calls = _delegations(monkeypatch, "lost-and-coverable", coverable=False)
        assert calls and any(submitted for _, _, submitted in calls)
        # kernel drops as the last query and right before callbacks
        _, res = run_path("python_seam", "lost-last-and-callback")
        assert res.shed == 0 and res.query_ids[-1] == -1
        callback_at = [
            i for i, kind, _, _ in _case("lost-last-and-callback")[3] if kind == "write"
        ]
        assert all(res.query_ids[i - 1] == -1 for i in callback_at)
        # a busy callback moves p_store: kernel drops before it, fall-backs
        # through run_query after it
        calls = _delegations(monkeypatch, "lost-then-regrow", coverable=False)
        assert calls and min(q for q, _, _ in calls) >= 110

        # the bulk gate sheds, and updates follow the last admitted query
        # inside the call and after the run's last query
        _, res = run_path("python_seam", "gate-sheds-then-updates")
        n_q = len(res.arrivals)
        last = int(np.flatnonzero(res.query_ids >= 0).max())
        data_at = [i for i, kind, _, _ in _case("gate-sheds-then-updates")[3] if kind is None]
        assert res.shed > 0 and n_q in data_at
        assert any(last < i < n_q for i in data_at)

        # the one-query drive both admits and sheds
        _, res = run_path("python_seam", "delay-gated-drive")
        assert 0 < res.shed < n_q and res.fast_scheduled > 0

        # the callable pq_fn cuts the one callback-free span into runs
        _, res = run_path("python_seam", "pq-switch")
        assert set(res.pqs.tolist()) == {4, 6} and len(res.chunk_sizes) > 2

        # one index holds [updates, callback, updates] in plan order
        rows = [(i, kind) for i, kind, _, _ in _case("same-index-order")[3]]
        assert any(
            rows[k : k + 3] == [(i, None), (i, "write"), (i, None)]
            for k, (i, _) in enumerate(rows)
        )

    def test_profiled_run_is_identical_and_adds_no_phase(self):
        """Recorded, the batched paths are byte-identical, and data updates
        stay on the mirrors: no ``Deployment.apply_update`` call.  The
        case's data updates before a callback go through the engine's
        no-query kernel call (``sim.apply_updates``)."""
        from repro.obs.profiler import SpanRecorder

        for path in _paths():
            if path == "reference":
                continue
            plain, _ = run_path(path, "failure-window")
            with SpanRecorder() as rec:
                profiled, _ = run_path(path, "failure-window")
            assert profiled == plain, path
            spans = rec.summary()["spans"]
            assert spans["sim.actions"]["calls"] > 0
            assert spans["sim.apply_updates"]["calls"] > 0
            assert "cluster.apply_update" not in spans

    def test_no_compiled_kernel_subprocess(self):
        code = """
import sys
sys.path.insert(0, "tests")
import test_update_seam as t
from repro.kernels.compiled import compiled_available

assert not compiled_available()
for name in t.CASES:
    base, _ = t.run_path("reference", name)
    assert t.run_path("python_seam", name)[0] == base, name
print("update-seam-fallback-ok")
"""
        env = {
            "REPRO_NO_COMPILED_KERNEL": "1",
            "PYTHONPATH": "src",
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        }
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=300,
            cwd=Path(__file__).resolve().parents[1], env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "update-seam-fallback-ok" in proc.stdout


class TestMechanism:
    def test_data_updates_never_touch_objects_or_refresh(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("called on a data-update-only run")

        monkeypatch.setattr(Deployment, "apply_update", boom)
        monkeypatch.setattr(fastpath._Engine, "_refresh_busy", boom)
        n_updates = sum(len(row[3]) for row in _case("coalesced")[3])
        for path in _paths()[1:]:
            fp, res = run_path(path, "coalesced")
            # no callback fired, and r = 12 / 4 holders took every update
            assert res.actions_applied == 0
            assert fp["ledger"].update_messages == 3 * n_updates

    @pytest.mark.parametrize("kernel", _kernels())
    def test_update_only_actions_cut_no_chunk(self, monkeypatch, kernel):
        """Updates ride inside ``commit_batch``: without failures the
        calls are the callback-free spans (here: the whole run) split at
        ``CHUNK_CAP``, each a committing chunk, and no callback fires."""
        def boom(*args, **kwargs):
            raise AssertionError("called on a data-update-only run")

        calls = []
        owner = type(get_kernel(kernel))
        original = owner.commit_batch

        def counting(self, *args, **kwargs):
            calls.append(args[5])  # nq
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Deployment, "apply_update", boom)
        monkeypatch.setattr(owner, "commit_batch", counting)
        monkeypatch.setattr(fastpath, "CHUNK_CAP", 50)
        dep_kw, pq, arrivals, plan, _ = _case("coalesced")
        assert all(kind is None for _, kind, _, _ in plan)
        assert max(i for i, _, _, _ in plan) < len(arrivals)  # none after the end
        dep = _deployment(**dep_kw)
        acts, updates = _run_data(dep, arrivals, plan, [])
        res = dep.run_queries_fast(arrivals, pq, actions=acts, kernel=kernel, updates=updates)
        spans = -(-len(arrivals) // 50)
        assert len(calls) == spans and sum(calls) == len(arrivals)
        assert len(res.chunk_sizes) == spans and sum(res.chunk_sizes) == len(arrivals)
        assert acts == [] and res.actions_applied == 0

    def test_malformed_update_is_refused(self):
        """Update rows that are not ``(time, position)`` pairs fail before
        any query runs, on both engines."""
        for run in (
            lambda dep, **kw: dep.run_queries_fast([0.1, 0.2], 4, **kw),
            lambda dep, **kw: run_queries_reference(dep, [0.1, 0.2], 4, **kw),
        ):
            dep = _deployment()
            with pytest.raises(ValueError, match=r"\(time, position\) rows"):
                run(dep, updates=([0], [(0.0, 0.5, 1.0)]))
            assert dep.frontend.queries_scheduled == 0

    def test_callback_place_must_agree_with_its_index(self):
        """A callback's ``stream_pos`` must split the stream where its index
        falls: the updates before it precede queries at or before the
        index, the rest queries at or after it.  A place that disagrees
        fails before any query runs, on both engines."""
        arrivals = [0.1, 0.2, 0.3]
        updates = ([1, 2], [(0.15, 0.5), (0.25, 0.5)])
        ok = {(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (9, 2)}
        bad = {(0, 1), (1, 2), (2, 0), (3, 1), (9, 1), (1, 3), (1, -1)}
        for path in _paths():
            for (index, place) in sorted(ok | bad):
                dep = _deployment()
                acts = [Action(index, 0.15, lambda now: None, "none", stream_pos=place)]
                if path == "reference":
                    run = lambda: run_queries_reference(  # noqa: E731
                        dep, arrivals, 4, actions=acts, updates=updates
                    )
                else:
                    kernel = "compiled" if path == "compiled" else "exact_numpy"
                    run = lambda: dep.run_queries_fast(  # noqa: E731
                        arrivals, 4, actions=acts, kernel=kernel, updates=updates
                    )
                if (index, place) in ok:
                    assert run().actions_applied == 1
                    continue
                with pytest.raises(ValueError, match=f"stream_pos={place}"):
                    run()
                assert dep.frontend.queries_scheduled == 0, (path, index, place)

    @pytest.mark.parametrize("name", ["failure-window", "replacement-then-drop"])
    @pytest.mark.parametrize("path", ["python_seam", "compiled"])
    def test_each_delegation_is_one_run_query_call(self, monkeypatch, path, name):
        """Delegations stay on the public entry point that traces see
        (``replacement-then-drop`` also has a query the kernel drops)."""
        if path == "compiled" and not compiled_available():
            pytest.skip("compiled kernel unavailable")
        assert _delegations(monkeypatch, name, path, name == "failure-window")

    @pytest.mark.parametrize("path", ["python_seam", "compiled"])
    def test_unrecoverable_queries_drop_in_the_kernel(self, monkeypatch, path):
        """On a window whose dead run is too wide to re-cover, the kernel
        drops every delegated query itself: ``Deployment.run_query`` is
        never called.  On a coverable window it is called once per
        delegated query, as before."""
        if path == "compiled" and not compiled_available():
            pytest.skip("compiled kernel unavailable")

        def boom(*args, **kwargs):
            raise AssertionError("a query reached the reference path")

        with monkeypatch.context() as m:
            m.setattr(Deployment, "run_query", boom)
            _, res = run_path(path, "lost-run")
        assert res.dropped == res.delegated > 0
        calls = _delegations(monkeypatch, "failure-window", path)
        assert calls and not any(dropped for _, dropped, _ in calls)

    @pytest.mark.parametrize("kernel", ["exact_numpy", "compiled", "twin"])
    def test_exact_kernels_hand_their_pick_to_the_fall_back(
        self, monkeypatch, twin_kernel, kernel
    ):
        if kernel == "compiled" and not compiled_available():
            pytest.skip("compiled kernel unavailable")
        sweeps = []
        original = FrontEnd.schedule_query

        def counting(self, *args, **kwargs):
            sweeps.append(args[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FrontEnd, "schedule_query", counting)
        dep = _deployment(n=10, seed=3)
        arrivals = PoissonArrivals(30.0, seed=13).times(200)
        t_fail = arrivals[59]
        acts = [
            Action(60, t_fail, lambda now: dep.fail_node("node-4", now), "values"),
        ]
        res = dep.run_queries_fast(arrivals, 4, actions=acts, kernel=kernel)
        assert res.delegated > 0
        assert sweeps == []


def _apply_with_kernel(kernel, ring, servers, updates, r, cost):
    """Apply *updates* on mirrors of *servers* (one per node of *ring*,
    in ring order) with one ``commit_batch`` call that holds no queries.
    Returns the stream (``n_written``, trace rows) and the mirrors."""
    nodes = ring.nodes()
    n = len(nodes)
    busy = np.array([s.busy_until for s in servers], dtype=np.float64)
    state = SweepState(busy, np.empty(n), 0.0, [0], [n], [[nd.start for nd in nodes]])
    plan = CommitPlan(
        np.zeros(0),
        [],
        np.ones(n),
        [s.fixed_overhead for s in servers],
        [s.speed for s in servers],
        0.25,
        0.75,
        1.0,
        update_cost=cost,
        busy_time=[s.busy_time for s in servers],
        objects=[s.objects_matched for s in servers],
        tasks=[s.tasks_run for s in servers],
        alive=[nd.alive for nd in nodes],
        trace=[True] * n,
    )
    stream = UpdateStream([0] * len(updates), [t for t, _ in updates], [p for _, p in updates])
    stream.r = r
    stream.reserve_rows(len(updates) * r)
    failed = np.array([s.failed for s in servers], dtype=bool)
    n_done = get_kernel(kernel).commit_batch(
        state, None, plan, None, 0, 0, None, failed if failed.any() else None, stream
    )
    assert n_done == 0 and stream.next == len(updates)
    return stream, state, plan


class TestHolderWalkDifferential:
    """The kernels' replica-holder walk against ``Ring.replica_holders``,
    and their writes against ``Deployment.apply_update`` on the objects:
    random ring-0 layouts with dead nodes and failed servers on alive
    nodes, positions on node starts, at 0.0 and just below 1.0, and r from
    1 to past the alive count."""

    @pytest.mark.parametrize("kernel", _kernels())
    @settings(max_examples=150, deadline=None)
    @given(
        starts=st.lists(
            st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, 0.5])),
            min_size=1,
            max_size=16,
        ),
        dead=st.lists(st.booleans(), max_size=16),
        failed=st.lists(st.booleans(), max_size=16),
        busy=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=16, max_size=16),
        r=st.integers(1, 20),
        data=st.data(),
    )
    def test_walk_and_writes_match_the_reference(
        self, kernel, starts, dead, failed, busy, r, data
    ):
        ring = Ring()
        for i, s in enumerate(starts):
            try:
                ring.add_node(RingNode(f"w{i}", s))
            except ValueError:
                pass  # within EPS of a node already placed
        nodes = ring.nodes()
        for node, is_dead in zip(nodes, dead):
            node.alive = not is_dead

        def fleet():
            servers = []
            for g, node in enumerate(nodes):
                server = SimServer(node.name, 1.0 + 0.5 * (g % 3), fixed_overhead=0.004)
                server._lane_busy_until[0] = busy[g]
                server.failed = g < len(failed) and failed[g]
                server.keep_trace = True
                servers.append(server)
            return servers

        node_starts = [nd.start for nd in nodes]
        updates = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from([0.0, 0.25, 0.6]),
                    st.one_of(
                        st.floats(0.0, 1.0, exclude_max=True),
                        st.sampled_from([0.0, BELOW_ONE] + node_starts),
                    ),
                ),
                min_size=1,
                max_size=6,
            )
        )
        cost = 0.01

        # the reference: Deployment.apply_update on the objects, with
        # r = round(n / p_store) holders
        ref = fleet()
        dep = SimpleNamespace(
            n=r,
            p_store=1.0,
            rings=[ring],
            rng=random.Random(0),
            servers={s.name: s for s in ref},
            config=SimpleNamespace(update_cost=cost),
            ledger=TrafficLedger(),
        )
        for t, pos in updates:
            Deployment.apply_update(dep, t, at=pos)

        got = fleet()
        stream, state, plan = _apply_with_kernel(kernel, ring, got, updates, r, cost)

        # the walk: first r alive nodes clockwise, failed servers skipped
        is_failed = [s.failed for s in got]
        walk = [
            g
            for _, pos in updates
            for g in ring.replica_holders(pos, r)
            if not is_failed[g]
        ]
        assert stream.row_g[: stream.n_rows].tolist() == walk
        assert stream.n_written == sum(bool(ring.replica_holders(p, r)) for _, p in updates)
        assert dep.ledger.update_messages == r * stream.n_written

        # the writes: SimServer.submit's float ops, bit for bit
        assert state.busy.tolist() == [s.busy_until for s in ref]
        assert plan.busy_time.tolist() == [s.busy_time for s in ref]
        assert plan.objects.tolist() == [s.objects_matched for s in ref]
        assert plan.tasks.tolist() == [s.tasks_run for s in ref]
        assert plan.touched.tolist() == [s.tasks_run > 0 for s in ref]
        rows = {}
        for k in range(stream.n_rows):
            g = int(stream.row_g[k])
            rows.setdefault(g, []).append(
                (-1, float(stream.row_t[k]), float(stream.row_start[k]),
                 float(stream.row_finish[k]), float(plan.upd_work[g]))
            )
        for g, server in enumerate(ref):
            expected = [(t.query_id, t.arrival, t.start, t.finish, t.work) for t in server.trace]
            assert rows.get(g, []) == expected, g


class TestPumpOnlyWhereSimulationWorkExists:
    def _scenario(self, control):
        from repro.scenarios import ControlSpec, Scenario, UpdateSpec, WorkloadSpec

        return Scenario(
            name="pump",
            n_servers=10,
            p=3,
            dataset_size=1e6,
            seed=7,
            workload=WorkloadSpec(
                kind="flash-crowd", rate=30.0, duration=30.0, surge_factor=6.0
            ),
            updates=UpdateSpec(rate=60.0, zipf_s=1.2, hotspots=6),
            control=(
                ControlSpec(policies=("elasticity",), slo_p99=0.15, interval=2.0)
                if control
                else None
            ),
        )

    def _pumps(self, monkeypatch, scenario, engine, kernel=None):
        from repro.scenarios.runner import execute_scenario
        from repro.sim.engine import Simulation

        instants = []
        original = Simulation.run

        def counting(self, until=None, max_events=None):
            instants.append(until)
            return original(self, until=until, max_events=max_events)

        with monkeypatch.context() as m:
            m.setattr(Simulation, "run", counting)
            ex = execute_scenario(scenario, engine=engine, kernel=kernel)
        return ex, instants

    def test_control_run_keeps_the_pump_and_matches_the_reference(self, monkeypatch):
        scenario = self._scenario(control=True)
        ref, ref_pumps = self._pumps(monkeypatch, scenario, "reference")
        assert ref.updates_applied > 100
        assert sum(len(c.actions) for c in ref.controllers) > 0
        # one pump per action (update actions included) plus the final drain
        assert len(ref_pumps) == ref.batch.actions_applied + 1
        base = collect_columns(ref.deployment, wall_columns=False)
        kernels = ["exact_numpy"] + (["compiled"] if compiled_available() else [])
        for kernel in kernels:
            ex, pumps = self._pumps(monkeypatch, scenario, "batched", kernel)
            assert pumps == ref_pumps, kernel
            assert ex.updates_applied == ref.updates_applied
            got = collect_columns(ex.deployment, wall_columns=False)
            assert got.keys() == base.keys()
            for key in base:
                assert got[key].tobytes() == base[key].tobytes(), (kernel, key)
            for col, values in ref.decisions.columns().items():
                assert ex.decisions.columns()[col].tobytes() == values.tobytes()

    def test_update_actions_carry_no_pump_without_simulation_work(self, monkeypatch):
        scenario = self._scenario(control=False)
        ex, pumps = self._pumps(monkeypatch, scenario, "batched", "exact_numpy")
        assert ex.updates_applied > 100
        # every update reached the kernel: r ledger messages per update
        dep = ex.deployment
        r = max(1, round(dep.n / dep.p_store))
        assert dep.ledger.update_messages == r * ex.updates_applied
        assert pumps == [ex.horizon]  # only the final drain
