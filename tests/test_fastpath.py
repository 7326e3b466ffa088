"""Differential tests: the batched fast path vs. the per-query reference.

The batched path (cover tables + array mirrors) is only landable if it is
*indistinguishable* from the reference path: same per-query server sets,
same latencies, same traces, same statistics, same scheduler work counters,
bit for bit.  These tests hold that line at both layers:

* scheduler level: ``CoverTable.schedule`` vs ``schedule_heap`` over random
  rings, estimates, and multi-ring overlays (hypothesis);
* deployment level: ``run_queries_fast`` vs ``run_queries`` over full
  simulated deployments, including mid-run failures (the delegation path),
  heterogeneous fleets, multiple rings, and time-varying pq.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.cluster import Deployment, DeploymentConfig, hen_testbed
from repro.core import CoverTable, Ring, schedule_heap
from repro.core.frontend import FrontEndConfig
from repro.sim import PoissonArrivals, batched_poisson_times


def _estimates_for(table, busy, speeds, now, dataset, fixed):
    """Per-ring estimate arrays with the reference estimator's float ops."""
    work = table.work
    wd = work * dataset
    out = []
    for rt in table.ring_tables:
        b = np.array([busy[n.name] for n in rt.nodes])
        s = np.array([speeds[n.name] for n in rt.nodes])
        out.append((np.maximum(b - now, 0.0) + fixed) + (wd / s))
    return out


def _reference_estimator(busy, speeds, now, dataset, fixed):
    def estimate(node, fraction):
        backlog = max(0.0, busy[node.name] - now)
        return backlog + fixed + (fraction * dataset) / speeds[node.name]

    return estimate


def assert_schedule_identical(h, f):
    assert h.start_id == f.start_id
    assert [n.name for n in h.assignment] == [n.name for n in f.assignment]
    assert h.finishes == f.finishes
    assert h.makespan == f.makespan
    assert h.iterations == f.iterations
    assert h.estimates == f.estimates


class TestCoverTableDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=1, max_value=32),
        p=st.integers(min_value=1, max_value=12),
    )
    def test_matches_heap_single_ring(self, seed, n, p):
        rng = random.Random(seed)
        ring = Ring.proportional([rng.uniform(0.2, 4.0) for _ in range(n)])
        busy = {nd.name: rng.uniform(0.0, 2.0) for nd in ring}
        speeds = {nd.name: nd.speed for nd in ring}
        now = rng.uniform(0.0, 1.0)
        dataset, fixed = 1e6, 0.004
        h = schedule_heap(
            ring, p, _reference_estimator(busy, speeds, now, dataset, fixed)
        )
        table = CoverTable([ring], p)
        f = table.schedule(_estimates_for(table, busy, speeds, now, dataset, fixed))
        assert_schedule_identical(h, f)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        p=st.integers(min_value=1, max_value=10),
    )
    def test_matches_heap_uniform_ring_ties(self, seed, p):
        # Uniform rings make many boundary crossings coincide: the EPS
        # tie-group logic is what is under test here.
        rng = random.Random(seed)
        n = rng.randint(2, 24)
        ring = Ring.uniform(n)
        busy = {nd.name: rng.choice([0.0, 0.5, 0.5, 1.0]) for nd in ring}
        speeds = {nd.name: nd.speed for nd in ring}
        est = _reference_estimator(busy, speeds, 0.0, 1e6, 0.0)
        h = schedule_heap(ring, p, est)
        table = CoverTable([ring], p)
        f = table.schedule(_estimates_for(table, busy, speeds, 0.0, 1e6, 0.0))
        assert_schedule_identical(h, f)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        p=st.integers(min_value=1, max_value=8),
        n_rings=st.integers(min_value=2, max_value=3),
    )
    def test_matches_heap_multi_ring(self, seed, p, n_rings):
        rng = random.Random(seed)
        rings = []
        for ri in range(n_rings):
            n = rng.randint(1, 16)
            rings.append(
                Ring.proportional(
                    [rng.uniform(0.2, 4.0) for _ in range(n)],
                    name_prefix=f"r{ri}n",
                    ring_id=ri,
                )
            )
        busy = {}
        speeds = {}
        for ring in rings:
            for nd in ring:
                busy[nd.name] = rng.uniform(0.0, 2.0)
                speeds[nd.name] = nd.speed
        est = _reference_estimator(busy, speeds, 0.0, 2e6, 0.006)
        h = schedule_heap(rings, p, est)
        table = CoverTable(rings, p)
        f = table.schedule(_estimates_for(table, busy, speeds, 0.0, 2e6, 0.006))
        assert_schedule_identical(h, f)

    def test_cache_invalidates_on_reconfig(self):
        from repro.core import CoverTableCache, RingNode

        ring = Ring.uniform(8)
        cache = CoverTableCache()
        t1 = cache.get([ring], 4)
        assert cache.get([ring], 4) is t1  # same version -> cached
        ring.add_node(RingNode("late", 0.9376))
        t2 = cache.get([ring], 4)
        assert t2 is not t1  # reconfiguration invalidated the table
        assert len(t2.ring_tables[0].nodes) == 9


def _build(n=24, p=4, seed=3, **kw):
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


def _trace_sets(dep):
    out = {}
    for name, server in dep.servers.items():
        for t in server.trace:
            out.setdefault(t.query_id, set()).add(
                (name, t.arrival, t.start, t.finish, t.work)
            )
    return out


def assert_deployments_identical(slow, fast):
    assert [
        (r.query_id, r.arrival, r.finish, r.pq, r.subqueries)
        for r in slow.log.records
    ] == [
        (r.query_id, r.arrival, r.finish, r.pq, r.subqueries)
        for r in fast.log.records
    ]
    assert slow.log.dropped == fast.log.dropped
    assert _trace_sets(slow) == _trace_sets(fast)
    assert slow.frontend.total_iterations == fast.frontend.total_iterations
    assert slow.frontend.total_estimates == fast.frontend.total_estimates
    assert slow.frontend.queries_scheduled == fast.frontend.queries_scheduled
    assert slow.ledger == fast.ledger
    for name in slow.servers:
        assert slow.servers[name].busy_until == fast.servers[name].busy_until
        assert slow.servers[name].busy_time == fast.servers[name].busy_time
        assert slow.servers[name].tasks_run == fast.servers[name].tasks_run
    for name, st_slow in slow.frontend.stats.items():
        st_fast = fast.frontend.stats[name]
        assert st_slow.speed_estimate == st_fast.speed_estimate
        assert st_slow.busy_until == st_fast.busy_until
        assert st_slow.outstanding == st_fast.outstanding
        assert st_slow.completed == st_fast.completed
        assert st_slow.last_seen == st_fast.last_seen


class TestDeploymentDifferential:
    def test_identical_latencies_and_server_sets(self):
        arrivals = PoissonArrivals(40.0, seed=9).times(600)
        slow, fast = _build(), _build()
        slow.run_queries(arrivals, 5)
        result = fast.run_queries_fast(arrivals, 5, record_assignments=True)
        assert_deployments_identical(slow, fast)
        assert result.completed == 600
        assert result.delegated == 0
        # recorded assignments agree with the executed traces
        traces = _trace_sets(fast)
        for qid, names in zip(result.query_ids, result.assignments):
            assert set(names) == {entry[0] for entry in traces[qid]}

    def test_identical_with_failures(self):
        arrivals = PoissonArrivals(30.0, seed=11).times(400)
        mid = arrivals[len(arrivals) // 3]
        pre = [t for t in arrivals if t < mid]
        post = [t for t in arrivals if t >= mid]

        def run(dep, fast):
            runner = dep.run_queries_fast if fast else dep.run_queries
            runner(pre, 5)
            dep.fail_node("node-3", mid)
            dep.fail_node("node-7", mid)
            return runner(post, 5)

        slow, fast = _build(n=16), _build(n=16)
        run(slow, False)
        result = run(fast, True)
        assert result.delegated > 0  # failures exercised the delegation path
        assert_deployments_identical(slow, fast)
        # the rngs advanced identically (failure splitting draws from them)
        assert slow.frontend.rng.random() == fast.frontend.rng.random()
        assert slow.network.rng.random() == fast.network.rng.random()

    def test_identical_with_drops(self):
        # Kill enough adjacent capacity that some dead range exceeds 1/p:
        # those queries must drop identically on both paths.
        def run(dep, fast):
            runner = dep.run_queries_fast if fast else dep.run_queries
            names = sorted(dep.servers)[:3]
            for name in names:
                dep.fail_node(name, 0.0)
            arrivals = PoissonArrivals(10.0, seed=21).times(150)
            runner(arrivals, 4)

        slow, fast = _build(n=8, p=4, seed=5), _build(n=8, p=4, seed=5)
        run(slow, False)
        run(fast, True)
        assert_deployments_identical(slow, fast)

    def test_identical_multi_ring(self):
        arrivals = PoissonArrivals(25.0, seed=13).times(300)
        slow = _build(n=20, seed=7, n_rings=2)
        fast = _build(n=20, seed=7, n_rings=2)
        slow.run_queries(arrivals, 5)
        fast.run_queries_fast(arrivals, 5)
        assert_deployments_identical(slow, fast)

    def test_identical_varying_pq(self):
        arrivals = PoissonArrivals(25.0, seed=17).times(300)
        pq_fn = lambda t: 4 + (int(t * 3) % 3)
        slow, fast = _build(p=4), _build(p=4)
        slow.run_queries(arrivals, pq_fn)
        fast.run_queries_fast(arrivals, pq_fn)
        assert_deployments_identical(slow, fast)

    def test_identical_across_membership_changes(self):
        from repro.cluster.models import MODEL_CATALOGUE

        arrivals = PoissonArrivals(30.0, seed=19).times(300)
        third = len(arrivals) // 3
        chunks = [
            arrivals[:third],
            arrivals[third : 2 * third],
            arrivals[2 * third :],
        ]

        def run(dep, fast):
            runner = dep.run_queries_fast if fast else dep.run_queries
            runner(chunks[0], 5)
            dep.add_server(MODEL_CATALOGUE["dell-2950"], now=chunks[1][0])
            runner(chunks[1], 5)
            dep.remove_server("node-2", now=chunks[2][0])
            runner(chunks[2], 5)

        slow, fast = _build(n=12, seed=23), _build(n=12, seed=23)
        run(slow, False)
        run(fast, True)
        assert_deployments_identical(slow, fast)

    def test_rejects_unsupported_frontend_config(self):
        dep = Deployment(
            DeploymentConfig(
                models=hen_testbed(8),
                p=4,
                seed=1,
                frontend=FrontEndConfig(adjust_ranges=True),
            )
        )
        with pytest.raises(ValueError, match="batched path"):
            dep.run_queries_fast([0.1], 4)

    def test_batch_result_arrays(self):
        dep = _build(n=12)
        arrivals = list(batched_poisson_times(20.0, 100, seed=3))
        result = dep.run_queries_fast(arrivals, 5)
        assert result.latencies.shape == (100,)
        assert result.completed == 100
        assert not np.isnan(result.latencies).any()
        assert result.mean_latency() == pytest.approx(
            sum(r.delay for r in dep.log.records) / 100
        )
        assert result.percentile_latency(99) >= result.percentile_latency(50)
        assert (result.pqs == 5).all()
        assert (result.query_ids >= 1).all()


# -- exact-time action queue ---------------------------------------------------
from repro.sim.fastpath import Action, CHUNK_CAP, run_queries_reference


def _interleaved_reference(dep, arrivals, pq, stimuli):
    """Reference semantics: run_query with *stimuli* = [(index, fn)] fired
    immediately before the query at that position."""
    si = 0
    stimuli = sorted(stimuli, key=lambda s: s[0])
    for q_i, t in enumerate(arrivals):
        while si < len(stimuli) and stimuli[si][0] <= q_i:
            stimuli[si][1]()
            si += 1
        dep.run_query(t, pq)
    while si < len(stimuli):
        stimuli[si][1]()
        si += 1


class TestActionQueue:
    def test_midbatch_update_visible_to_next_query(self):
        """The acceptance regression: an update landing between queries k-1
        and k is visible to query k itself -- no batch-boundary lag."""
        arrivals = PoissonArrivals(30.0, seed=7).times(200)
        k = 120
        t_u = (arrivals[k - 1] + arrivals[k]) / 2.0
        pos = 0.37

        slow, fast, plain = _build(n=10), _build(n=10), _build(n=10)
        _interleaved_reference(
            slow, arrivals, 4, [(k, lambda: slow.apply_update(t_u, at=pos))]
        )
        result = fast.run_queries_fast(
            arrivals,
            4,
            actions=[
                Action(
                    index=k,
                    time=t_u,
                    fn=lambda now: fast.apply_update(now, at=pos) or None,
                    scope="busy",
                )
            ],
        )
        assert result.actions_applied == 1
        assert_deployments_identical(slow, fast)

        # and the update really changes the very next query (visibility)
        plain.run_queries_fast(arrivals, 4)
        d_with = [r.delay for r in fast.log.records]
        d_without = [r.delay for r in plain.log.records]
        assert d_with[:k] == d_without[:k]
        assert d_with[k] != d_without[k]

    def test_membership_change_midbatch(self):
        from repro.cluster.models import MODEL_CATALOGUE

        arrivals = PoissonArrivals(25.0, seed=3).times(240)
        k1, k2 = 80, 160
        t1 = arrivals[k1 - 1]
        t2 = arrivals[k2 - 1]

        slow, fast = _build(n=12, seed=9), _build(n=12, seed=9)
        _interleaved_reference(
            slow,
            arrivals,
            5,
            [
                (k1, lambda: slow.add_server(MODEL_CATALOGUE["dell-2950"], now=t1)),
                (k2, lambda: slow.remove_server("node-2", now=t2)),
            ],
        )
        result = fast.run_queries_fast(
            arrivals,
            5,
            actions=[
                Action(
                    k1,
                    t1,
                    lambda now: fast.add_server(
                        MODEL_CATALOGUE["dell-2950"], now=now
                    )
                    and None,
                ),
                Action(
                    k2, t2, lambda now: fast.remove_server("node-2", now=now)
                ),
            ],
        )
        assert result.actions_applied == 2
        assert_deployments_identical(slow, fast)

    def test_failure_and_recovery_midbatch(self):
        arrivals = PoissonArrivals(25.0, seed=13).times(300)
        k1, k2 = 90, 210
        t1, t2 = arrivals[k1 - 1], arrivals[k2 - 1]
        names = ("node-3", "node-7")

        def fail_all(dep, now):
            for x in names:
                dep.fail_node(x, now)

        def recover_all(dep, now):
            for x in names:
                dep.recover_node(x, now)

        slow, fast = _build(n=10, seed=5), _build(n=10, seed=5)
        _interleaved_reference(
            slow,
            arrivals,
            5,
            [(k1, lambda: fail_all(slow, t1)), (k2, lambda: recover_all(slow, t2))],
        )
        result = fast.run_queries_fast(
            arrivals,
            5,
            actions=[
                Action(k1, t1, lambda now: fail_all(fast, now), "values"),
                Action(k2, t2, lambda now: recover_all(fast, now), "values"),
            ],
        )
        assert result.delegated > 0  # failure window went through fall-back
        assert_deployments_identical(slow, fast)
        assert slow.frontend.rng.random() == fast.frontend.rng.random()
        assert slow.network.rng.random() == fast.network.rng.random()

    def test_action_changes_pq_at_exact_index(self):
        arrivals = PoissonArrivals(20.0, seed=21).times(150)
        k = 70
        slow, fast = _build(n=12), _build(n=12)
        slow.run_queries(arrivals, lambda t: 4 if t < arrivals[k] else 6)
        result = fast.run_queries_fast(
            arrivals,
            4,
            actions=[Action(k, arrivals[k - 1], lambda now: 6, "none")],
        )
        assert list(result.pqs[:k]) == [4] * k
        assert list(result.pqs[k:]) == [6] * (len(arrivals) - k)
        assert_deployments_identical(slow, fast)

    def test_trailing_and_leading_actions(self):
        arrivals = PoissonArrivals(20.0, seed=2).times(50)
        fired = []
        fast = _build(n=8)
        result = fast.run_queries_fast(
            arrivals,
            4,
            actions=[
                Action(0, 0.0, lambda now: fired.append(("head", now)) or None, "none"),
                Action(
                    10_000, 99.0, lambda now: fired.append(("tail", now)) or None, "none"
                ),
            ],
        )
        assert result.actions_applied == 2
        assert [k for k, _ in fired] == ["head", "tail"]
        assert result.completed == 50

    def test_reference_engine_matches_fast_engine_with_actions(self):
        arrivals = PoissonArrivals(30.0, seed=17).times(200)
        k = 66
        t_u = arrivals[k - 1]

        def acts(dep):
            return [
                Action(
                    k, t_u, lambda now: dep.apply_update(now, at=0.5) or None, "busy"
                )
            ]

        a, b = _build(n=10, seed=11), _build(n=10, seed=11)
        ra = a.run_queries_fast(arrivals, 4, actions=acts(a))
        rb = run_queries_reference(b, arrivals, 4, actions=acts(b))
        assert_deployments_identical(a, b)
        assert list(ra.query_ids) == list(rb.query_ids)
        assert [x for x in ra.latencies] == [x for x in rb.latencies]
        assert rb.fast_scheduled == 0 and rb.delegated == len(arrivals)

    def test_untraced_delegations_record_their_servers(self):
        """No server keeps a trace, as in every scenario run: a completed
        delegated query still records the servers it ran on, and every
        engine names the same servers for every query."""
        from repro.kernels.compiled import compiled_available

        arrivals = PoissonArrivals(30.0, seed=1).times(300)
        engines = ["reference", "exact_numpy"] + (
            ["compiled"] if compiled_available() else []
        )
        runs = {}
        for engine in engines:
            dep = Deployment(
                DeploymentConfig(
                    models=hen_testbed(20), p=4, seed=3, charge_scheduling=False
                )
            )
            victim = dep.rings[0].nodes()[5].name
            acts = [
                Action(50, arrivals[49], lambda now, dep=dep: dep.fail_node(victim, now), "values")
            ]
            if engine == "reference":
                runs[engine] = run_queries_reference(
                    dep, arrivals, 4, record_assignments=True, actions=acts
                )
            else:
                runs[engine] = dep.run_queries_fast(
                    arrivals, 4, record_assignments=True, actions=acts, kernel=engine
                )
        batched = runs["exact_numpy"]
        assert batched.delegated > 0 and batched.dropped == 0
        assert all(batched.assignments)
        for engine, res in runs.items():
            assert [set(a) for a in res.assignments] == [
                set(a) for a in batched.assignments
            ], engine

    def test_rejects_bad_actions(self):
        dep = _build(n=8)
        with pytest.raises(ValueError, match="scope"):
            Action(0, 0.0, lambda now: None, "bogus")
        with pytest.raises(ValueError, match="index"):
            Action(-1, 0.0, lambda now: None)
        with pytest.raises(TypeError, match="Action"):
            dep.run_queries_fast([0.1], 4, actions=[object()])


class TestChunkedAccounting:
    def test_hot_servers_repeated_in_chunk_stay_bitwise(self):
        """Tiny pool + pq close to n: every server is hit many times per
        chunk and repeatedly within single queries; float accumulation
        order (np.add.at) must still match the sequential reference."""
        arrivals = PoissonArrivals(60.0, seed=31).times(500)
        slow, fast = _build(n=4, p=3, seed=3), _build(n=4, p=3, seed=3)
        slow.run_queries(arrivals, 3)
        fast.run_queries_fast(arrivals, 3)
        assert_deployments_identical(slow, fast)

    def test_chunk_sizes_histogram(self):
        arrivals = PoissonArrivals(40.0, seed=9).times(300)
        fast = _build(n=10)
        k = 100
        result = fast.run_queries_fast(
            arrivals,
            4,
            actions=[Action(k, arrivals[k - 1], lambda now: None, "none")],
        )
        # chunks cut at the action and at batch end
        assert sum(result.chunk_sizes) == result.fast_scheduled == 300
        assert result.chunk_sizes == [100, 200]
        assert all(c <= CHUNK_CAP for c in result.chunk_sizes)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**10),
        n=st.integers(min_value=6, max_value=14),
        stimuli=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=119),
                st.sampled_from(["update", "fail", "recover", "data", "fail-pair"]),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_random_action_schedules_differential(self, seed, n, stimuli):
        """Callbacks that write, fail or recover, object updates given as
        data, and the failure of two ring-adjacent nodes (whose joint
        hole can drop queries), drawn at random query indices."""
        arrivals = PoissonArrivals(25.0, seed=seed).times(120)
        slow, fast = _build(n=n, seed=seed + 1), _build(n=n, seed=seed + 1)
        name = sorted(slow.servers)[seed % n]
        ring = [nd.name for nd in slow.rings[0].nodes()]
        pair = (ring[seed % n], ring[(seed + 1) % n])

        def mk(dep, i, kind):
            t = arrivals[i - 1] if i else 0.0
            if kind == "update":
                return (
                    lambda now: dep.apply_update(now, at=(seed % 97) / 97.0)
                    or None
                ), "busy", t
            if kind == "fail":
                return (lambda now: dep.fail_node(name, now)), "values", t
            if kind == "fail-pair":

                def fail_pair(now):
                    for nm in pair:
                        dep.fail_node(nm, now)

                return fail_pair, "values", t

            def recover(now):
                for nm in sorted({name, *pair}):
                    if dep.servers[nm].failed:
                        dep.recover_node(nm, now)

            return recover, "values", t

        ref_stimuli, fast_actions, q, rows = [], [], [], []
        for j, (i, kind) in enumerate(sorted(stimuli, key=lambda s: s[0])):
            if kind == "data":
                t = arrivals[i - 1] if i else 0.0
                pos = ((seed + 31 * j) % 97) / 97.0
                ref_stimuli.append(
                    (i, lambda t=t, pos=pos: slow.apply_update(t, at=pos))
                )
                q.append(i)
                rows.append((t, pos))
                continue
            fn_s, _, t = mk(slow, i, kind)
            ref_stimuli.append((i, lambda fn=fn_s, tt=t: fn(tt)))
            fn_f, scope, t = mk(fast, i, kind)
            fast_actions.append(Action(i, t, fn_f, scope, stream_pos=len(rows)))
        _interleaved_reference(slow, arrivals, 4, ref_stimuli)
        fast.run_queries_fast(arrivals, 4, actions=fast_actions, updates=(q, rows))
        assert_deployments_identical(slow, fast)


class TestEngineEdges:
    def test_chunk_cap_splits_chunks(self, monkeypatch):
        import repro.sim.fastpath as fp

        monkeypatch.setattr(fp, "CHUNK_CAP", 64)
        arrivals = PoissonArrivals(30.0, seed=5).times(200)
        slow, fast = _build(n=10), _build(n=10)
        slow.run_queries(arrivals, 4)
        result = fast.run_queries_fast(arrivals, 4)
        assert max(result.chunk_sizes) <= 64
        assert len(result.chunk_sizes) >= 4
        assert sum(result.chunk_sizes) == 200
        assert_deployments_identical(slow, fast)

    def test_multi_lane_servers_fall_back_to_reference(self):
        slow, fast = _build(n=8), _build(n=8)
        for dep in (slow, fast):
            s = dep.servers["node-0"]
            s.cores = 2
            s._lane_busy_until = [0.0, 0.0]
        arrivals = PoissonArrivals(20.0, seed=3).times(80)
        slow.run_queries(arrivals, 4)
        result = fast.run_queries_fast(arrivals, 4)
        assert result.fast_scheduled == 0  # routed through the reference path
        assert result.completed == 80
        assert_deployments_identical(slow, fast)

    def test_pq_below_stored_level_raises(self):
        dep = _build(n=10, p=5)
        with pytest.raises(ValueError, match="below stored partitioning"):
            dep.run_queries_fast([0.1, 0.2], 3)
