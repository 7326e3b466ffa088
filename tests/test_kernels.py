"""The scheduling-kernel subsystem: registry, ABI, and the differential line.

Three layers of guarantee:

* **registry** -- names and aliases resolve, unknown kernels fail
  loudly, availability is reported honestly;
* **exact kernels** -- ``exact_numpy`` (the oracle) is bit-identical to the
  per-query reference path (i.e. to the pre-refactor inline sweep), and
  ``compiled`` is bit-identical to the oracle across every regime the
  engine supports (multi-ring, failures/delegation, mid-batch membership
  changes, varying pq) plus the full builtin scenario battery, and its
  C sweep picks what the oracle's ``select`` picks (read from
  ``commit_batch``'s stop report) on drawn sweep states (makespan ties,
  pq up to 32, the evaluated mask) and on states built to steer its
  owner-change jumps;
* **the kernel knob** -- a non-default kernel reaches the scenario and
  matrix layers.
"""

import subprocess
import sys
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from test_fastpath import _build, _sweep_case, assert_deployments_identical

from repro.core.covertable import CoverTable
from repro.core.ring import Ring, RingNode
from repro.kernels import (
    DEFAULT_KERNEL,
    KernelUnavailableError,
    SweepKernel,
    available_kernels,
    get_kernel,
    kernel_names,
    kernel_specs,
    register_kernel,
)
from repro.kernels.base import (
    AdmissionGate,
    CommitBuffers,
    CommitPlan,
    UpdateStream,
)
from repro.kernels.compiled import (
    CompiledKernel,
    compiled_available,
    compiled_unavailable_reason,
)
from repro.kernels.exact import ExactNumpyKernel
from repro.kernels.registry import canonical_spec, is_known_kernel
from repro.sim import PoissonArrivals

needs_compiled = pytest.mark.skipif(
    not compiled_available(),
    reason=f"compiled kernel unavailable: {compiled_unavailable_reason()}",
)


class TestRegistry:
    def test_builtins_registered(self):
        names = kernel_names()
        assert ("exact_numpy", "compiled") == names

    def test_default_is_exact(self):
        assert DEFAULT_KERNEL == "exact_numpy"
        kernel = get_kernel(None)
        assert kernel.name == "exact_numpy"

    def test_aliases(self):
        assert get_kernel("exact").name == "exact_numpy"
        # resolved without instantiating, so no build is attempted
        assert canonical_spec("c") == "compiled"

    def test_instance_passthrough(self):
        kernel = get_kernel("exact_numpy")
        assert get_kernel(kernel) is kernel

    def test_bad_parameter_suffix(self):
        """Kernels take no ``name:key=value`` parameters: a suffix makes
        the name unknown."""
        with pytest.raises(ValueError, match="unknown scheduling kernel"):
            get_kernel("exact_numpy:stride=8")
        with pytest.raises(ValueError, match="unknown scheduling kernel"):
            canonical_spec("exact_numpy:stride=8")

    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown scheduling kernel"):
            get_kernel("quantum")

    def test_is_known_kernel(self):
        assert is_known_kernel("exact_numpy")
        assert is_known_kernel("exact")
        assert not is_known_kernel("exact_numpy:stride=8")
        assert not is_known_kernel("quantum")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_kernel("exact_numpy", lambda: None)

    def test_third_party_registration(self):
        from repro.kernels import registry

        class Custom(SweepKernel):
            name = "custom-test"

        register_kernel("custom-test", Custom, replace=True)
        try:
            assert get_kernel("custom-test").name == "custom-test"
        finally:
            # the registry is process-global: leaking a select-less kernel
            # would break any later registry-enumerating test or CLI run
            registry._FACTORIES.pop("custom-test", None)
        assert "custom-test" not in kernel_names()

    def test_kernel_specs_rows(self):
        rows = {r["name"]: r for r in kernel_specs()}
        assert rows["exact_numpy"]["available"]
        assert rows["exact_numpy"]["description"]
        # compiled is either available or carries a reason, never silent
        comp = rows["compiled"]
        assert comp["available"] or comp["reason"]

    def test_available_kernels_subset(self):
        avail = available_kernels()
        assert "exact_numpy" in avail
        assert set(avail) <= set(kernel_names())


class TestExactKernelIsOracle:
    """`exact_numpy` == the pre-refactor inline sweep == the reference path."""

    def test_default_run_uses_exact_and_matches_reference(self):
        arrivals = PoissonArrivals(40.0, seed=9).times(400)
        slow, fast = _build(), _build()
        slow.run_queries(arrivals, 5)
        fast.run_queries_fast(arrivals, 5, kernel="exact_numpy")
        assert_deployments_identical(slow, fast)

    def test_explicit_equals_default(self):
        arrivals = PoissonArrivals(30.0, seed=3).times(300)
        a, b = _build(n=16), _build(n=16)
        a.run_queries_fast(arrivals, 5)
        b.run_queries_fast(arrivals, 5, kernel="exact_numpy")
        assert_deployments_identical(a, b)


@needs_compiled
class TestCompiledKernel:
    """The C kernel must be bit-identical to the oracle in every regime."""

    def _compare(self, run):
        exact, compiled = _build(n=16, seed=5), _build(n=16, seed=5)
        run(exact, "exact_numpy")
        run(compiled, "compiled")
        assert_deployments_identical(exact, compiled)

    def test_identical_plain(self):
        arrivals = PoissonArrivals(40.0, seed=9).times(500)
        self._compare(lambda dep, k: dep.run_queries_fast(arrivals, 5, kernel=k))

    def test_identical_multi_ring(self):
        arrivals = PoissonArrivals(25.0, seed=13).times(300)
        exact = _build(n=20, seed=7, n_rings=2)
        compiled = _build(n=20, seed=7, n_rings=2)
        exact.run_queries_fast(arrivals, 5, kernel="exact_numpy")
        compiled.run_queries_fast(arrivals, 5, kernel="compiled")
        assert_deployments_identical(exact, compiled)

    def test_identical_with_failures_and_delegation(self):
        arrivals = PoissonArrivals(30.0, seed=11).times(400)
        mid = arrivals[len(arrivals) // 3]
        pre = [t for t in arrivals if t < mid]
        post = [t for t in arrivals if t >= mid]

        def run(dep, kernel):
            dep.run_queries_fast(pre, 5, kernel=kernel)
            dep.fail_node("node-3", mid)
            dep.fail_node("node-7", mid)
            result = dep.run_queries_fast(post, 5, kernel=kernel)
            assert result.delegated > 0
            return result

        self._compare(run)

    def test_identical_varying_pq(self):
        arrivals = PoissonArrivals(25.0, seed=17).times(300)

        def pq_fn(t):
            return 4 + (int(t * 3) % 3)

        self._compare(lambda dep, k: dep.run_queries_fast(arrivals, pq_fn, kernel=k))

    def test_identical_across_membership_actions(self):
        from repro.cluster.models import MODEL_CATALOGUE
        from repro.sim.fastpath import Action

        arrivals = PoissonArrivals(30.0, seed=19).times(300)
        k1 = 120

        def run(dep, kernel):
            actions = [
                Action(
                    k1,
                    arrivals[k1 - 1],
                    lambda now: dep.add_server(
                        MODEL_CATALOGUE["dell-2950"], now=now
                    )
                    and None,
                )
            ]
            dep.run_queries_fast(arrivals, 5, actions=actions, kernel=kernel)

        self._compare(run)

    def test_zero_divergence_on_battery(self):
        """The builtin battery, byte for byte: every query's server set,
        its latency, and every simulated-time telemetry column."""
        from repro.scenarios.matrix import builtin_scenarios
        from repro.scenarios.runner import execute_scenario
        from repro.telemetry.archive import collect_columns

        for scen in builtin_scenarios(n_servers=12, duration=15.0, p=4, seed=2):
            exact, compiled = (
                execute_scenario(
                    scen, engine="batched", kernel=k, record_assignments=True
                )
                for k in ("exact_numpy", "compiled")
            )
            assert exact.batch.assignments, scen.name
            # every completed query names its servers, delegated ones too
            done = np.flatnonzero(~np.isnan(exact.batch.latencies))
            assert all(exact.batch.assignments[i] for i in done), scen.name
            assert compiled.batch.assignments == exact.batch.assignments, scen.name
            assert (
                np.asarray(compiled.batch.latencies).tobytes()
                == np.asarray(exact.batch.latencies).tobytes()
            ), scen.name
            want = collect_columns(exact.deployment, wall_columns=False)
            got = collect_columns(compiled.deployment, wall_columns=False)
            assert got.keys() == want.keys(), scen.name
            for name, col in want.items():
                assert got[name].tobytes() == col.tobytes(), (scen.name, name)


def _noeval_ring(track=()):
    """A ring whose last sweep configuration the heap never evaluates at pq=2.

    Point 0's last crossing (into the node at 0.5 - 1.5e-12) lies within
    EPS of point 1's first crossing at or past 1/pq - EPS (into the node at
    1 - 0.7e-12), so the last tie group is not evaluated.  *track* adds
    nodes in ``(0.5, 1)``, each one more owner change on point 1's track
    (starts that keep every crossing more than EPS from the others keep
    the last configuration masked).
    """
    starts = sorted((0.1, 0.3, 0.5 - 1.5e-12, 0.7, 1.0 - 0.7e-12) + tuple(track))
    return Ring(RingNode(f"m-{j}", s) for j, s in enumerate(starts))


@st.composite
def _ring_sets(draw, min_size=2):
    rings = []
    for r in range(draw(st.integers(min_value=1, max_value=3))):
        size = draw(st.integers(min_value=min_size, max_value=60))
        if draw(st.booleans()):
            ring = Ring.uniform(size, name_prefix=f"r{r}n", ring_id=r)
        else:
            weights = draw(
                st.lists(
                    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                    min_size=size,
                    max_size=size,
                )
            )
            ring = Ring.proportional(weights, name_prefix=f"r{r}n", ring_id=r)
        rings.append(ring)
    return rings


#: a handful of mirror values, so equal estimates -- and makespan ties
#: between configurations -- are common
_BUSY = st.sampled_from([0.0, 0.25, 0.5, 1.0])
_SPEED = st.sampled_from([0.5, 1.0, 2.0])


class TestNextChangeIndex:
    """``KernelPack.next_change`` against a brute-force walk of ``owner_stack``."""

    @settings(max_examples=150, deadline=None)
    @given(rings=_ring_sets(min_size=1), pq=st.integers(min_value=1, max_value=32))
    def test_matches_brute_force(self, rings, pq):
        table = CoverTable(rings, pq)
        pack = table.kernel_pack()
        owners = pack.owner_stack
        n_configs = owners.shape[2]
        want = np.empty((pq, n_configs), dtype=np.int64)
        for p in range(pq):
            for c in range(n_configs):
                nxt = c + 1
                while nxt < n_configs and (owners[:, p, nxt] == owners[:, p, c]).all():
                    nxt += 1
                want[p, c] = nxt
        assert pack.next_change.dtype == np.int64
        assert pack.next_change.flags.c_contiguous
        np.testing.assert_array_equal(pack.next_change, want)
        # only the last configuration can be masked: the mask is a prefix
        assert pack.n_eval == int(table.evaluated.sum())
        assert table.evaluated[: pack.n_eval].all()

    def test_one_node_rings_have_one_config(self):
        table = CoverTable([Ring.uniform(1), Ring.uniform(1, ring_id=1)], 5)
        pack = table.kernel_pack()
        assert pack.owner_stack.shape == (2, 5, 1)
        np.testing.assert_array_equal(pack.next_change, np.ones((5, 1)))
        assert pack.n_eval == 1

    def test_mask_that_is_not_a_prefix_is_refused(self):
        table = CoverTable([_noeval_ring()], 2)
        table.evaluated = np.array([True, False, True, True, True])
        with pytest.raises(ValueError, match="not a prefix"):
            table.kernel_pack()


def _jump_walk(state, entry, now):
    """The C sweep's visiting order, replayed over the point values.

    Returns ``(pick, jumps)``; each jump is ``(config, witness, target)``,
    taken after the witness test or a scan hit rejected ``config``.  The
    tests use it to check that a state takes the path it was built for.
    """
    pack = entry.table.kernel_pack()
    est = (np.maximum(state.busy - now, 0.0) + state.fe_fixed) + entry.Q
    vals = np.stack(
        [est[lo:hi][own] for lo, hi, own in zip(state.ring_lo, state.ring_hi, entry.owners)]
    ).min(axis=0)
    best_mk, pick, w, c, jumps = np.inf, 0, 0, 0, []
    while c < pack.n_eval:
        col = vals[:, c]
        hits = [p for p in [w] + list(range(entry.pq)) if col[p] >= best_mk]
        if hits:
            w = hits[0]
            jumps.append((c, w, int(pack.next_change[w, c])))
            c = jumps[-1][2]
            continue
        best_mk, pick = col.max(), c
        for p in range(entry.pq):
            if col[p] > col[w]:
                w = p
        c += 1
    return pick, jumps


@needs_compiled
class TestCompiledSelectDifferential:
    """The C sweep's pick equals the oracle's ``select`` on raw states.

    The engine-level tests reach the C sweep only at the pq and states a
    batch happens to produce; this draws them directly: ties between
    configurations, pq up to 32, up to three rings, and a ring whose last
    configuration is masked out of the sweep.  The C sweep runs only
    inside ``commit_batch``, so its pick is read from the failure stop's
    report (see :func:`_assert_same_pick`).
    """

    @staticmethod
    def _assert_same_pick(make_case, now):
        """``make_case()`` builds a fresh one-query case at *now*
        (:func:`_select_case`).  With every server in the failed mask and
        no ``lost`` flags, ``commit_batch`` stops before its one query,
        commits nothing and reports the pick: both kernels' reports must
        equal the oracle's ``select`` (server set and start id, exactly).
        The same query committed, python against C, must then give the
        same rows and mirrors -- its widths follow from the points the C
        sweep derives."""
        state, entry, _, _ = make_case()
        want_g, _, want_start_id = ExactNumpyKernel().select(state, entry, now)
        failed = np.ones(state.n, dtype=bool)
        for kernel in (ExactNumpyKernel(), CompiledKernel()):
            state, entry, plan, bufs = make_case()
            busy = state.busy.tobytes()
            assert kernel.commit_batch(state, entry, plan, bufs, 0, 1, None, failed) == 0
            assert int(bufs.stop_idx[0]) == 0, kernel.name
            got = (bufs.stop_g.tolist(), float(bufs.stop_start_id[0]))
            assert got == (want_g, want_start_id), kernel.name
            assert state.busy.tobytes() == busy, kernel.name  # nothing committed
        rows = [
            _commit_outcome(kernel, make_case(), 0, 1, None, None)
            for kernel in (ExactNumpyKernel(), CompiledKernel())
        ]
        assert rows[0] == rows[1]

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        rings=_ring_sets(),
        pq=st.integers(min_value=1, max_value=32),
        now=st.sampled_from([0.0, 0.25, 0.6]),
    )
    def test_matches_exact_numpy(self, data, rings, pq, now):
        n = sum(len(r) for r in rings)
        busy = data.draw(st.lists(_BUSY, min_size=n, max_size=n))
        spd = data.draw(st.lists(_SPEED, min_size=n, max_size=n))
        self._assert_same_pick(partial(_select_case, rings, pq, busy, spd, now), now)

    def test_unevaluated_last_config_would_win(self):
        # nodes 2 and 3 idle: the masked config has the smallest makespan,
        # so only the evaluated mask keeps the kernels off it
        busy, spd = [1.0, 1.0, 0.0, 0.0, 1.0], [1.0] * 5
        rings = [_noeval_ring()]
        make_case = partial(_select_case, rings, 2, busy, spd, 0.0)
        state, entry, _, _ = make_case()
        assert not entry.table.evaluated[-1]
        est = (np.maximum(state.busy, 0.0) + state.fe_fixed) + entry.Q
        makespans = est[entry.owners[0]].max(axis=0)
        assert makespans[-1] < makespans[:-1].min()
        self._assert_same_pick(make_case, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        extra=st.lists(st.integers(min_value=2, max_value=12), max_size=2),
        now=st.sampled_from([0.0, 0.25, 0.6]),
    )
    def test_unevaluated_last_config_is_skipped(self, data, extra, now):
        rings = [_noeval_ring()] + [
            Ring.uniform(k, name_prefix=f"u{r}n", ring_id=r + 1)
            for r, k in enumerate(extra)
        ]
        n = sum(len(r) for r in rings)
        busy = data.draw(st.lists(_BUSY, min_size=n, max_size=n))
        spd = data.draw(st.lists(_SPEED, min_size=n, max_size=n))
        make_case = partial(_select_case, rings, 2, busy, spd, now)
        assert not make_case()[1].table.evaluated[-1]
        self._assert_same_pick(make_case, now)

    # -- owner-change jumps: states built to steer the walk ---------------
    #: point 1's extra owners on _noeval_ring: nodes 3-7 (configs 1-7)
    _TRACK = (0.56, 0.62, 0.84, 0.93)

    def _assert_walk(self, make_case, jumps_want):
        state, entry, _, _ = make_case()
        pick, jumps = _jump_walk(state, entry, 0.0)
        assert jumps == jumps_want
        want = ExactNumpyKernel().select(state, entry, 0.0)
        assert entry.csi[pick] == want[2]
        self._assert_same_pick(make_case, 0.0)

    @pytest.mark.parametrize(
        "hot, jumps",
        [
            # track hot through its last owner: five jumps on witness 1,
            # the last from config 7 past the masked config 8
            ((3, 4, 5, 6, 7), [(1, 1, 3), (3, 1, 4), (4, 1, 6), (6, 1, 7), (7, 1, 9)]),
            # track hot until config 7, whose idle owner wins at the target
            ((3, 4, 5, 6), [(1, 1, 3), (3, 1, 4), (4, 1, 6), (6, 1, 7)]),
        ],
    )
    def test_hot_track_jumps_past_masked_config(self, hot, jumps):
        busy = [0.0] * 9
        busy[2] = 0.25  # config 0 wins with point 1 as its witness
        for j in hot:
            busy[j] = 1.0
        rings = [_noeval_ring(self._TRACK)]
        make_case = partial(_select_case, rings, 2, busy, [1.0] * 9, 0.0)
        entry = make_case()[1]
        assert entry.table.kernel_pack().n_eval == entry.n_configs - 1 == 8
        self._assert_walk(make_case, jumps)

    def test_jump_lands_on_masked_config_that_would_win(self):
        # config 0 wins with point 0 (node 8) as its witness; point 0's next
        # owners, nodes 0 and 1, are hot, so its jump from config 5 lands on
        # the masked config 8, whose owners are idle
        busy = [0.0] * 9
        busy[8] = 0.25
        busy[0] = busy[1] = 1.0
        rings = [_noeval_ring(self._TRACK)]
        make_case = partial(_select_case, rings, 2, busy, [1.0] * 9, 0.0)
        state, entry, _, _ = make_case()
        est = (np.maximum(state.busy, 0.0) + state.fe_fixed) + entry.Q
        makespans = est[entry.owners[0]].max(axis=0)
        assert makespans[-1] < makespans[:-1].min()
        self._assert_walk(make_case, [(1, 0, 2), (2, 0, 5), (5, 0, 8)])

    #: six configs, all evaluated at pq=2; owners (point 0, point 1):
    #: (0, 3) (1, 3) (1, 4) (2, 4) (3, 4) (3, 5)
    _OPEN_STARTS = (0.0, 0.12, 0.2, 0.35, 0.66, 0.9)

    @pytest.mark.parametrize(
        "busy, jumps",
        [
            # witness 1 wins at a jump target (config 2), then is rejected
            # on its last owner and jumps to n_configs
            ([0.0, 0.0, 0.0, 1.0, 0.0, 0.0], [(1, 1, 2), (3, 1, 5), (5, 1, 6)]),
            # a scan hit at config 3 makes point 1 the witness; its jump
            # lands on the winner, config 5, the table's last
            ([0.25, 1.0, 0.0, 0.0, 1.0, 0.0], [(1, 0, 3), (3, 1, 5)]),
            # config 1 ties config 0: its witness drops, and point 1's value
            # equals best_mk exactly, a scan hit -- a tie is no win, so
            # config 0, the first minimum, stays the pick
            ([0.5, 0.0, 1.0, 0.5, 1.0, 1.0], [(1, 1, 2), (2, 1, 5), (5, 1, 6)]),
        ],
    )
    def test_jump_at_the_end_of_the_table(self, busy, jumps):
        ring = Ring(RingNode(f"e-{j}", s) for j, s in enumerate(self._OPEN_STARTS))
        make_case = partial(_select_case, [ring], 2, busy, [1.0] * 6, 0.0)
        entry = make_case()[1]
        assert entry.table.evaluated.all() and entry.n_configs == 6
        self._assert_walk(make_case, jumps)

    @pytest.mark.parametrize("b_first", [False, True])
    def test_only_one_rings_owner_changes_at_the_target(self, b_first):
        # ring A (2 nodes) never changes owner during the sweep; ring B's
        # owner of point 1 turns idle at config 3, which wins.  An index
        # built from either ring alone would jump past it.
        ring_a = Ring.uniform(2, name_prefix="a", ring_id=0)
        starts = (0.0, 0.1, 0.2, 0.3, 0.75)
        ring_b = Ring(RingNode(f"b-{j}", s, ring_id=1) for j, s in enumerate(starts))
        busy_a, busy_b = [0.0, 1.0], [0.0, 0.0, 0.0, 1.0, 0.0]
        rings, busy = [ring_a, ring_b], busy_a + busy_b
        if b_first:
            rings, busy = [ring_b, ring_a], busy_b + busy_a
        make_case = partial(_select_case, rings, 2, busy, [1.0] * 7, 0.0)
        entry = make_case()[1]
        owners = entry.table.kernel_pack().owner_stack
        a = 1 if b_first else 0
        assert (owners[a] == owners[a][:, :1]).all()  # ring A is constant
        assert entry.table.evaluated.all() and entry.n_configs == 5
        self._assert_walk(make_case, [(1, 1, 3), (4, 1, 5)])

    @pytest.mark.parametrize("bad", ["dtype", "shape", "layout"])
    def test_malformed_next_change_is_refused(self, bad):
        state, entry, plan, bufs = _select_case(
            [_noeval_ring()], 2, [0.0] * 5, [1.0] * 5, 0.0
        )
        pack = entry.table.kernel_pack()
        good = pack.next_change
        pack.next_change = {
            "dtype": good.astype(np.int32),
            "shape": good[:, :-1].copy(),
            "layout": np.asfortranarray(good),
        }[bad]
        busy = state.busy.tobytes()
        with pytest.raises(ValueError, match="KernelPack.next_change"):
            CompiledKernel().commit_batch(state, entry, plan, bufs, 0, 1)
        assert state.busy.tobytes() == busy


def _commit_case(
    rings, pq, busy, spd, arrivals, rtts, cap=None, fixed=0.004, dataset=0.1,
    alive=None, lost=None,
):
    """``(state, entry, plan, bufs)`` for a ``commit_batch`` call over *rings*.

    Every call builds fresh arrays, so two kernels can run on equal copies.
    The small *dataset* keeps service times near the busy values drawn.
    Every other server keeps a trace; *alive* marks the live ring nodes,
    *lost* the ring-0 nodes whose dead run cannot be re-covered.
    """
    state, entry = _sweep_case(rings, pq, busy, spd, fe_fixed=fixed, dataset=dataset)
    arrivals = np.asarray(arrivals, dtype=np.float64)
    plan = CommitPlan(
        arrivals,
        arrivals.tolist(),
        np.array(spd, dtype=np.float64),
        [fixed] * state.n,
        [1.0 + 0.5 * (g % 3) for g in range(state.n)],
        0.25,
        0.75,
        dataset,
        update_cost=0.05,
        alive=alive,
        trace=[g % 2 == 0 for g in range(state.n)],
        lost=lost,
    )
    bufs = CommitBuffers(len(arrivals) if cap is None else cap, pq)
    bufs.rtts[: len(rtts)] = rtts
    return state, entry, plan, bufs


def _select_case(rings, pq, busy, spd, now):
    """A one-query ``commit_batch`` case at *now* over :func:`_sweep_case`'s
    state (its ``fe_fixed`` and ``dataset``), fresh arrays each call."""
    return _commit_case(rings, pq, busy, spd, [now], [0.0005], fixed=0.004, dataset=1e6)


def _gate(cap, queue_cap, bucket, rate):
    gate = AdmissionGate(cap)
    gate.queue_cap = queue_cap
    if bucket:
        gate.bucket = True
        gate.rate, gate.burst, gate.tokens = rate, 2.0, 2.0
    return gate


def _commit_outcome(kernel, case, start, nq, gate, failed, updates=None, bare=False):
    """Run one ``commit_batch``; everything the stop contract pins, as bytes.

    *bare* passes no entry and no buffers (a call with no queries), which
    must then be left as they were."""
    state, entry, plan, bufs = case
    if bare:
        n = kernel.commit_batch(state, None, plan, None, start, nq, gate, failed, updates)
    else:
        n = kernel.commit_batch(state, entry, plan, bufs, start, nq, gate, failed, updates)
    stop = int(bufs.stop_idx[0])
    rn = int(bufs.res_n[0])
    m = n * entry.pq
    out = {
        "n": n,
        "stop": stop,
        "pick": (bufs.stop_g.tolist(), float(bufs.stop_start_id[0])) if stop >= 0 else None,
        "rows": [
            a[:m].tobytes()
            for a in (bufs.sub_g, bufs.sub_service, bufs.sub_work, bufs.sub_finish, bufs.sub_start)
        ]
        + [a[:n].tobytes() for a in (bufs.q_total, bufs.q_mw, bufs.q_ms, bufs.q_sent)],
        "res": (rn, bufs.res_g[:rn].tobytes(), bufs.res_v[:rn].tobytes()),
        "mirrors": (state.busy.tobytes(), plan.spd.tobytes(), entry.Q.tobytes()),
        "accumulators": [
            a.tobytes()
            for a in (
                plan.busy_time,
                plan.objects,
                plan.tasks,
                plan.completed,
                plan.last_seen,
                plan.touched,
                plan.busy_snap,
            )
        ],
    }
    if updates is not None:
        k = updates.n_rows
        out["updates"] = (
            updates.next,
            updates.snap_due,
            updates.n_written,
            k,
            [
                a[:k].tobytes()
                for a in (
                    updates.row_g,
                    updates.row_at,
                    updates.row_t,
                    updates.row_start,
                    updates.row_finish,
                )
            ],
        )
    if gate is not None:
        k, ns = gate.n_admitted, gate.n_shed
        out["gate"] = (
            np.array(
                [gate.tokens, gate.accrued_at, gate.backlog_hwm, gate.max_admitted_backlog]
            ).tobytes(),
            k,
            ns,
            gate.adm_idx[:k].tobytes(),
            [
                a[:ns].tobytes()
                for a in (
                    gate.shed_time,
                    gate.shed_idx,
                    gate.shed_reason,
                    gate.shed_backlog,
                    gate.shed_signal,
                )
            ],
        )
    return out


class TestCommitArgumentChecks:
    """``commit_batch`` refuses out-of-bounds spans and mismatched buffers
    before any mirror moves, on both kernels (the C kernel would otherwise
    read and write through its raw pointers past the arrays)."""

    def _kernels(self):
        kernels = [ExactNumpyKernel()]
        if compiled_available():
            kernels.append(CompiledKernel())
        return kernels

    def _case(self, cap=2, pq=4, n_arr=400):
        arrivals = np.arange(n_arr) * 0.01
        return _commit_case(
            [Ring.uniform(12)], pq, [0.0] * 12, [1.0] * 12, arrivals,
            np.full(min(cap, n_arr), 0.0005), cap=cap,
        )

    @pytest.mark.parametrize(
        "start, nq, match",
        [
            (0, 300, "nq=300 exceeds bufs.cap=2"),
            (-1, 1, "start=-1"),
            (399, 2, "runs past the 400 arrivals"),
            (0, -1, "nq=-1"),
        ],
    )
    def test_span_out_of_bounds(self, start, nq, match):
        for kernel in self._kernels():
            state, entry, plan, bufs = self._case()
            before = state.busy.copy()
            with pytest.raises(ValueError, match=match):
                kernel.commit_batch(state, entry, plan, bufs, start, nq)
            assert state.busy.tobytes() == before.tobytes(), kernel.name

    def test_buffers_for_another_pq(self):
        for kernel in self._kernels():
            state, entry, plan, _ = self._case()
            bufs = CommitBuffers(2, 3)
            with pytest.raises(ValueError, match="bufs.pq=3 does not match entry.pq=4"):
                kernel.commit_batch(state, entry, plan, bufs, 0, 1)

    @pytest.mark.parametrize(
        "failed",
        [np.zeros(11, dtype=bool), np.zeros(12, dtype=np.uint8), [False] * 12],
        ids=["length", "dtype", "list"],
    )
    def test_malformed_failed_mask(self, failed):
        for kernel in self._kernels():
            state, entry, plan, bufs = self._case()
            with pytest.raises(ValueError, match="failed must be a C-contiguous bool"):
                kernel.commit_batch(state, entry, plan, bufs, 0, 1, None, failed)

    @pytest.mark.parametrize(
        "lost",
        [np.zeros(11, dtype=bool), np.zeros(12, dtype=np.uint8), [False] * 12],
        ids=["length", "dtype", "list"],
    )
    def test_malformed_lost_flags(self, lost):
        for kernel in self._kernels():
            state, entry, plan, bufs = self._case()
            plan.lost = lost
            with pytest.raises(ValueError, match="plan.lost must be None or a C-contiguous"):
                kernel.commit_batch(
                    state, entry, plan, bufs, 0, 1, None, np.zeros(12, dtype=bool)
                )

    def test_gate_smaller_than_span(self):
        for kernel in self._kernels():
            state, entry, plan, bufs = self._case(cap=8)
            with pytest.raises(ValueError, match="gate holds 4 rows"):
                kernel.commit_batch(state, entry, plan, bufs, 0, 8, AdmissionGate(4))


@needs_compiled
class TestCommitStopDifferential:
    """The failure stop and the drop: the python oracle and C agree on the
    scheduled count, the stop index and the stopped query's pick, every
    out row (``q_sent`` and a drop's NaN rows included), ``res_*``, the
    gate's scalars and shed rows, and the mirrors -- which must be
    exactly as after the last scheduled query."""

    @staticmethod
    def _both(make_case, start, nq, make_gate, failed):
        out = []
        for kernel in (ExactNumpyKernel(), CompiledKernel()):
            gate = make_gate() if make_gate is not None else None
            out.append(_commit_outcome(kernel, make_case(), start, nq, gate, failed))
        assert out[0] == out[1]
        return out[0]

    @staticmethod
    def _prefix_mirrors(make_case, start, stop, make_gate, failed=None):
        """Mirrors after scheduling ``[start, stop)`` (with *failed*, the
        same drops)."""
        state, entry, plan, bufs = make_case()
        gate = make_gate() if make_gate is not None else None
        ExactNumpyKernel().commit_batch(
            state, entry, plan, bufs, start, stop - start, gate, failed
        )
        return (state.busy.tobytes(), plan.spd.tobytes(), entry.Q.tobytes())

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        rings=_ring_sets(min_size=2).filter(lambda rs: sum(len(r) for r in rs) <= 40),
        pq=st.integers(min_value=1, max_value=5),
        gated=st.booleans(),
    )
    def test_matches_python_oracle(self, data, rings, pq, gated):
        n = sum(len(r) for r in rings)
        busy = data.draw(st.lists(_BUSY, min_size=n, max_size=n))
        spd = data.draw(st.lists(_SPEED, min_size=n, max_size=n))
        # zero to two failed servers: stops at the first query, mid-chunk
        # and not at all all stay common
        failed = np.zeros(n, dtype=bool)
        failed[data.draw(st.lists(st.integers(0, n - 1), max_size=2))] = True
        n0 = len(rings[0])
        lost = None
        if data.draw(st.booleans(), label="drops"):
            # flags on ring 0 only, dead or not: the kernels read the flag.
            # More failed servers put two in one pick often, so the pick
            # index that decides (the highest) is exercised.
            failed[data.draw(st.lists(st.integers(0, n - 1), max_size=n // 3))] = True
            lost = data.draw(st.lists(st.booleans(), min_size=n0, max_size=n0))
            lost += [False] * (n - n0)
        n_arr = data.draw(st.integers(min_value=1, max_value=30))
        gaps = data.draw(
            st.lists(st.sampled_from([0.0, 0.01, 0.05, 0.2]), min_size=n_arr, max_size=n_arr)
        )
        arrivals = np.cumsum(gaps)
        start = data.draw(st.integers(min_value=0, max_value=n_arr - 1))
        nq = data.draw(st.integers(min_value=0, max_value=n_arr - start))
        rtts = data.draw(
            st.lists(st.sampled_from([0.0, 0.0004, 0.0006]), min_size=nq, max_size=nq)
        )
        make_gate = None
        if gated:
            queue_cap = data.draw(st.sampled_from([0.3, 1.0, float("inf")]))
            bucket = data.draw(st.booleans())
            rate = data.draw(st.sampled_from([5.0, 50.0]))
            make_gate = lambda: _gate(n_arr, queue_cap, bucket, rate)  # noqa: E731

        def make_case():
            return _commit_case(rings, pq, busy, spd, arrivals, rtts, cap=n_arr, lost=lost)

        got = self._both(make_case, start, nq, make_gate, failed)
        stop = got["stop"]
        if stop >= 0:
            assert start <= stop < start + nq
            assert any(failed[g] for g in got["pick"][0])
        end = stop if stop >= 0 else start + nq
        assert got["mirrors"] == self._prefix_mirrors(make_case, start, end, make_gate, failed)
        sent = np.frombuffer(got["rows"][-1], dtype=np.int64)
        if lost is None:
            assert (sent == pq).all()
        else:
            # no flag stops a query; a drop is a query whose pick holds
            # a failed server
            sub_g = np.frombuffer(got["rows"][0], dtype=np.int64).reshape(-1, pq)
            for row, k in zip(sub_g, sent):
                assert (k < pq) == any(failed[g] for g in row)
        if make_gate is not None and stop >= 0:
            # the stopped query passed the pre-check: last admitted entry
            _, k, _, adm, _ = got["gate"]
            assert k == got["n"] + 1
            assert np.frombuffer(adm, dtype=np.int64)[-1] == stop

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        rings=_ring_sets(min_size=2).filter(lambda rs: sum(len(r) for r in rs) <= 40),
        pq=st.integers(min_value=1, max_value=5),
        gated=st.booleans(),
    )
    def test_updates_match_python_oracle(self, data, rings, pq, gated):
        """The update stream inside the call: holders on ring 0 with dead
        nodes, failed servers, the gate's running max, the failure stop,
        the queue snapshot and the trace rows, python against C."""
        n = sum(len(r) for r in rings)
        n0 = len(rings[0])
        busy = data.draw(st.lists(_BUSY, min_size=n, max_size=n))
        spd = data.draw(st.lists(_SPEED, min_size=n, max_size=n))
        alive = data.draw(st.lists(st.booleans(), min_size=n0, max_size=n0)) + [True] * (n - n0)
        failed = np.zeros(n, dtype=bool)
        failed[data.draw(st.lists(st.integers(0, n - 1), max_size=2))] = True
        lost = None
        if data.draw(st.booleans(), label="drops"):
            lost = data.draw(st.lists(st.booleans(), min_size=n0, max_size=n0))
            lost += [False] * (n - n0)
        n_arr = data.draw(st.integers(min_value=1, max_value=20))
        gaps = data.draw(
            st.lists(st.sampled_from([0.0, 0.01, 0.05, 0.2]), min_size=n_arr, max_size=n_arr)
        )
        arrivals = np.cumsum(gaps)
        start = data.draw(st.integers(min_value=0, max_value=n_arr - 1))
        nq = data.draw(st.integers(min_value=0, max_value=n_arr - start))
        rtts = data.draw(
            st.lists(st.sampled_from([0.0, 0.0004, 0.0006]), min_size=nq, max_size=nq)
        )
        ups = sorted(
            data.draw(
                st.lists(
                    st.tuples(
                        st.integers(start, start + nq),
                        st.sampled_from([0.0, 0.1, 0.3]),
                        st.floats(0.0, 1.0, exclude_max=True),
                    ),
                    max_size=12,
                )
            )
        )
        r = data.draw(st.integers(min_value=1, max_value=n0 + 2))
        snap_due = data.draw(st.sampled_from([0, 1]))
        end = data.draw(st.integers(min_value=0, max_value=len(ups)))
        mask = failed if data.draw(st.booleans()) else None
        make_gate = None
        if gated:
            queue_cap = data.draw(st.sampled_from([0.3, 1.0, float("inf")]))
            bucket = data.draw(st.booleans())
            rate = data.draw(st.sampled_from([5.0, 50.0]))
            make_gate = lambda: _gate(n_arr, queue_cap, bucket, rate)  # noqa: E731

        def make_stream():
            stream = UpdateStream(
                [q for q, _, _ in ups], [t for _, t, _ in ups], [p for _, _, p in ups]
            )
            stream.r, stream.snap_due, stream.end = r, snap_due, end
            stream.reserve_rows(len(ups) * r)
            return stream

        bare = nq == 0 and data.draw(st.booleans(), label="no entry")
        out = []
        for kernel in (ExactNumpyKernel(), CompiledKernel()):
            case = _commit_case(
                rings, pq, busy, spd, arrivals, rtts, cap=n_arr, alive=alive, lost=lost
            )
            gate = make_gate() if make_gate is not None else None
            out.append(
                _commit_outcome(kernel, case, start, nq, gate, mask, make_stream(), bare)
            )
        assert out[0] == out[1]
        applied = out[0]["updates"][0]
        assert applied <= end
        if out[0]["stop"] < 0:
            # a call that ran to its end applied every update it could
            last = start + nq - 1 if nq else start
            assert applied == sum(1 for q, _, _ in ups[:end] if q <= last)

    def _spread_case(self):
        """24 idle servers, pq=2, five well-spaced queries: each query's
        pick holds a server no earlier query touched."""
        arrivals = [0.0, 0.001, 0.002, 0.003, 0.004]
        return lambda: _commit_case(
            [Ring.uniform(24)], 2, [0.0] * 24, [1.0] * 24, arrivals, [0.0005] * 5
        )

    def _picks(self, make_case):
        state, entry, plan, bufs = make_case()
        n = ExactNumpyKernel().commit_batch(state, entry, plan, bufs, 0, 5)
        rows = bufs.sub_g[: n * 2].reshape(n, 2)[:, ::-1].tolist()
        return [set(r) for r in rows]

    @pytest.mark.parametrize("gated", [False, True])
    def test_stop_at_the_first_query(self, gated):
        make_case = self._spread_case()
        failed = np.zeros(24, dtype=bool)
        failed[sorted(self._picks(make_case)[0])[0]] = True
        make_gate = (lambda: _gate(5, 10.0, True, 1e4)) if gated else None
        got = self._both(make_case, 0, 5, make_gate, failed)
        assert (got["n"], got["stop"]) == (0, 0)
        assert got["res"][0] == 0  # nothing committed: res_* untouched
        state, entry, plan, _ = make_case()
        assert got["mirrors"] == (state.busy.tobytes(), plan.spd.tobytes(), entry.Q.tobytes())
        if gated:
            assert got["gate"][1:3] == (1, 0)  # admitted, not shed

    @pytest.mark.parametrize("gated", [False, True])
    def test_stop_at_the_last_query(self, gated):
        make_case = self._spread_case()
        picks = self._picks(make_case)
        fresh = picks[4] - set().union(*picks[:4])
        assert fresh, "the last query must pick a server of its own"
        failed = np.zeros(24, dtype=bool)
        failed[min(fresh)] = True
        make_gate = (lambda: _gate(5, 10.0, True, 1e4)) if gated else None
        got = self._both(make_case, 0, 5, make_gate, failed)
        assert (got["n"], got["stop"]) == (4, 4)
        assert set(got["pick"][0]) == picks[4]
        assert got["mirrors"] == self._prefix_mirrors(make_case, 0, 4, make_gate)

    def test_no_failed_server_runs_to_the_end(self):
        make_case = self._spread_case()
        got = self._both(make_case, 0, 5, None, np.zeros(24, dtype=bool))
        assert (got["n"], got["stop"]) == (5, -1)

    # -- the drop -------------------------------------------------------
    @staticmethod
    def _drop_case(rings, pq, busy=None, n_arr=5):
        """Idle (or *busy*) servers and *n_arr* queries 1 ms apart; the
        returned maker takes the ``lost`` flags by global index."""
        n = sum(len(r) for r in rings)
        arrivals = [0.001 * k for k in range(n_arr)]

        def make_case(lost_at=()):
            lost = [g in lost_at for g in range(n)]
            return _commit_case(
                rings, pq, busy or [0.0] * n, [1.0] * n, arrivals, [0.0005] * n_arr,
                lost=lost,
            )

        return make_case

    @staticmethod
    def _first_pick(make_case):
        """The first query's pick on the fresh state: servers and points."""
        state, entry, _, _ = make_case()
        g_list, pts, _ = ExactNumpyKernel().select(state, entry, 0.0)
        return g_list, pts

    @staticmethod
    def _assert_dropped_row(got, row, g_list, i_hit):
        """Row *row* is a drop whose first failed piece is pick *i_hit*:
        the live pieces above it, then its unsubmitted picks, NaN rows."""
        pq = len(g_list)
        sent = np.frombuffer(got["rows"][-1], dtype=np.int64)
        assert sent[row] == pq - 1 - i_hit
        sub_g = np.frombuffer(got["rows"][0], dtype=np.int64)[row * pq : (row + 1) * pq]
        assert sub_g.tolist() == g_list[::-1]
        finish = np.frombuffer(got["rows"][3], dtype=np.float64)[row * pq : (row + 1) * pq]
        k = pq - 1 - i_hit
        assert np.isfinite(finish[:k]).all() and np.isnan(finish[k:]).all()
        for col in got["rows"][5:8]:
            assert np.isnan(np.frombuffer(col, dtype=np.float64)[row])

    @pytest.mark.parametrize("gated", [False, True])
    @pytest.mark.parametrize("i_hit", [3, 0], ids=["first-popped", "last-popped"])
    def test_drop_at_the_failed_piece(self, i_hit, gated):
        """The failed piece popped first submits nothing; popped last, it
        leaves every other piece submitted.  A gate admits the dropped
        query and its token stays spent."""
        make = self._drop_case([Ring.uniform(24)], 4)
        g_list, _ = self._first_pick(make)
        g = g_list[i_hit]
        failed = np.zeros(24, dtype=bool)
        failed[g] = True
        make_gate = (lambda: _gate(5, 10.0, True, 1e4)) if gated else None
        got = self._both(lambda: make(lost_at=(g,)), 0, 5, make_gate, failed)
        assert got["stop"] == -1 and got["n"] == 5
        self._assert_dropped_row(got, 0, g_list, i_hit)
        if gated:
            plain = self._both(make, 0, 5, make_gate, None)
            assert got["gate"][1:4] == plain["gate"][1:4]  # all admitted, none shed
            tokens = np.frombuffer(got["gate"][0], dtype=np.float64)[0]
            assert tokens == np.frombuffer(plain["gate"][0], dtype=np.float64)[0]
        # the unsubmitted picks' queues did not move; the drop reserved
        # every pick (res_* is the last query's, so drop only one query)
        one = self._both(lambda: make(lost_at=(g,)), 0, 1, None, failed)
        busy = np.frombuffer(one["mirrors"][0], dtype=np.float64)
        assert all(busy[h] == 0.0 for h in g_list[: i_hit + 1])
        assert all(busy[h] > 0.0 for h in g_list[i_hit + 1 :])
        assert sorted(np.frombuffer(one["res"][1], dtype=np.int64)) == sorted(set(g_list))

    def test_drop_with_a_repeated_server(self):
        """Three servers and pq=4: one server holds two points.  Failing it
        drops at its higher index, and its lower one stays unsubmitted."""
        make = self._drop_case([Ring.uniform(3)], 4)
        g_list, _ = self._first_pick(make)
        twice = [h for h in g_list if g_list.count(h) == 2]
        assert twice, g_list
        g = twice[0]
        failed = np.zeros(3, dtype=bool)
        failed[g] = True
        got = self._both(lambda: make(lost_at=(g,)), 0, 1, None, failed)
        i_hit = max(i for i, h in enumerate(g_list) if h == g)
        self._assert_dropped_row(got, 0, g_list, i_hit)

    def test_updates_right_before_and_after_a_drop(self):
        """An update before the dropped query lands first; the one after
        it snapshots the queues the drop left (the drop's ``NodeStats``
        sync), as after a commit."""
        make = self._drop_case([Ring.uniform(24)], 4)
        g_list, pts = self._first_pick(make)
        g = g_list[2]
        failed = np.zeros(24, dtype=bool)
        failed[g] = True

        def stream():
            # the first update's holders (servers 2-4) are off the pick
            ups = UpdateStream([0, 1, 1], [0.0, 0.0005, 0.0007], [2 / 24, pts[1], 0.5])
            ups.r = 3
            ups.reserve_rows(9)
            return ups

        out = []
        for kernel in (ExactNumpyKernel(), CompiledKernel()):
            case = make(lost_at=(g,))
            out.append(_commit_outcome(kernel, case, 0, 3, None, failed, stream()))
        assert out[0] == out[1]
        got = out[0]
        self._assert_dropped_row(got, 0, g_list, 2)
        # the queues the first update after the drop saw: the drop's own
        case = make(lost_at=(g,))
        state = case[0]
        ExactNumpyKernel().commit_batch(*case, 0, 1, None, failed, stream())
        assert got["accumulators"][-1] == state.busy.tobytes()

    @pytest.mark.parametrize("flag", ["ring-0 owner", "pick"])
    def test_multi_ring_drop_reads_ring_0s_owner(self, flag):
        """Ring 0 is busy, so the pick is on ring 1; the fall-back re-covers
        from ring 0's owner of the failed point, so only that owner's flag
        drops the query -- a flag on the pick itself does not."""
        rings = [Ring.uniform(6), Ring.uniform(10, name_prefix="b", ring_id=1)]
        busy = [5.0] * 6 + [0.0] * 10
        make = self._drop_case(rings, 4, busy=busy)
        g_list, pts = self._first_pick(make)
        assert all(h >= 6 for h in g_list)
        g = g_list[1]
        owner = rings[0].index_of(rings[0].node_in_charge(pts[1]))
        assert owner != g - 6  # not the pick's own position on its ring
        failed = np.zeros(16, dtype=bool)
        failed[g] = True
        lost_at = (owner,) if flag == "ring-0 owner" else (g,)
        got = self._both(lambda: make(lost_at=lost_at), 0, 5, None, failed)
        if flag == "ring-0 owner":
            assert got["stop"] == -1
            self._assert_dropped_row(got, 0, g_list, 1)
        else:
            assert (got["n"], got["stop"]) == (0, 0)

    @pytest.mark.parametrize("lost_pick", [1, 3])
    def test_coverable_and_unrecoverable_picks_in_one_query(self, lost_pick):
        """Two failed picks: the higher index is popped first and decides.
        Flagged, the query drops there; unflagged, it stops even though the
        other failed pick is flagged."""
        make = self._drop_case([Ring.uniform(24)], 4)
        g_list, _ = self._first_pick(make)
        failed = np.zeros(24, dtype=bool)
        failed[[g_list[1], g_list[3]]] = True
        got = self._both(
            lambda: make(lost_at=(g_list[lost_pick],)), 0, 5, None, failed
        )
        if lost_pick == 3:
            self._assert_dropped_row(got, 0, g_list, 3)
        else:
            assert (got["n"], got["stop"]) == (0, 0)
            assert got["pick"][0] == g_list


class TestScenarioKernelKnob:
    def test_spec_rejects_unknown_kernel(self):
        from repro.scenarios import Scenario

        with pytest.raises(ValueError, match="unknown scheduling kernel"):
            Scenario(name="x", kernel="quantum")

    def test_scenario_kernel_flows_to_result(self, twin_kernel):
        from repro.scenarios import Scenario, WorkloadSpec, run_scenario_spec

        scen = Scenario(
            name="k",
            n_servers=8,
            p=3,
            kernel=twin_kernel,
            workload=WorkloadSpec(rate=20.0, duration=4.0),
        )
        res = run_scenario_spec(scen)
        assert res.kernel == twin_kernel
        assert res.completed > 0

    def test_run_matrix_kernel_override(self, twin_kernel):
        from repro.scenarios import Scenario, WorkloadSpec, run_matrix

        scen = Scenario(
            name="k",
            n_servers=8,
            p=3,
            workload=WorkloadSpec(rate=20.0, duration=4.0),
        )
        res = run_matrix([scen], kernel=twin_kernel)
        assert res.results[0].kernel == twin_kernel
        assert "kernel" in res.COLUMNS
        assert twin_kernel in res.table()

    def test_reference_engine_reports_reference(self):
        from repro.scenarios import Scenario, WorkloadSpec, run_scenario_spec

        scen = Scenario(
            name="k",
            n_servers=8,
            p=3,
            workload=WorkloadSpec(rate=20.0, duration=4.0),
        )
        res = run_scenario_spec(scen, engine="reference")
        assert res.kernel == "reference"


def _result_bytes(result):
    """Every array of a BatchResult, as raw bytes (NaN-pattern exact)."""
    return (
        result.arrivals.tobytes(),
        result.latencies.tobytes(),
        result.finishes.tobytes(),
        result.query_ids.tobytes(),
        result.pqs.tobytes(),
    )


class TestFusedCommitSeam:
    """The sweep+commit seam: one `commit_batch` call per chunk.

    The seam has two implementations of the same float-op sequence --
    the kernel base class's python `commit_batch` and `roar_commit_batch`
    in C -- and they must be byte-interchangeable: identical
    `BatchResult` arrays, identical deployment state, identical chunk
    cuts.
    """

    def _run(self, kernel, *, with_actions=False, n=16, queries=400):
        from repro.sim.fastpath import Action

        arrivals = PoissonArrivals(40.0, seed=9).times(queries)
        dep = _build(n=n, seed=5)
        actions = None
        if with_actions:
            k1, k2 = queries // 3, 2 * queries // 3
            actions = [
                Action(k1, arrivals[k1 - 1], lambda now: None, scope="none"),
                Action(
                    k2,
                    arrivals[k2 - 1],
                    lambda now: dep.apply_update(now) or None,
                    scope="busy",
                ),
            ]
        result = dep.run_queries_fast(
            arrivals, 5, record_assignments=True, actions=actions, kernel=kernel
        )
        return dep, result

    @needs_compiled
    def test_fused_c_byte_identical_to_python_seam(self):
        """`BatchResult` arrays with and without the C kernel, byte for
        byte -- the fused-commit acceptance bar."""
        dep_py, r_py = self._run("exact_numpy")
        dep_c, r_c = self._run("compiled")
        assert _result_bytes(r_py) == _result_bytes(r_c)
        assert r_py.assignments == r_c.assignments
        assert r_py.chunk_sizes == r_c.chunk_sizes
        assert_deployments_identical(dep_py, dep_c)

    @needs_compiled
    def test_fused_c_with_actions_and_traces(self):
        """Actions cut the bulk spans; traces, listeners, and the reserve
        parity must survive the cuts identically."""
        dep_py, r_py = self._run("exact_numpy", with_actions=True)
        dep_c, r_c = self._run("compiled", with_actions=True)
        assert r_py.actions_applied == r_c.actions_applied == 2
        assert _result_bytes(r_py) == _result_bytes(r_c)
        assert r_py.chunk_sizes == r_c.chunk_sizes
        assert_deployments_identical(dep_py, dep_c)

    @needs_compiled
    def test_fused_c_multiple_pq_tables(self):
        """pq changes via actions exercise the sibling-table Q refresh
        after a bulk span (only the active entry's Q is maintained in C)."""
        from repro.sim.fastpath import Action

        arrivals = PoissonArrivals(30.0, seed=21).times(300)

        def run(dep, kernel):
            actions = [
                Action(100, arrivals[99], lambda now: 6, scope="none"),
                Action(200, arrivals[199], lambda now: 4, scope="none"),
            ]
            dep.run_queries_fast(arrivals, 4, actions=actions, kernel=kernel)

        a, b = _build(n=16, seed=5), _build(n=16, seed=5)
        run(a, "exact_numpy")
        run(b, "compiled")
        assert_deployments_identical(a, b)

    def test_bulk_seam_under_forced_pure_python_fallback(self):
        """End-to-end under REPRO_NO_COMPILED_KERNEL: the bulk-commit seam
        must produce byte-identical BatchResult arrays against the
        per-query reference path with no C kernel anywhere."""
        code = (
            "import numpy as np\n"
            "from repro.kernels.compiled import compiled_available\n"
            "from repro._rng import reset_default_streams\n"
            "from repro.cluster import Deployment, DeploymentConfig, hen_testbed\n"
            "from repro.sim import PoissonArrivals\n"
            "assert not compiled_available()\n"
            "def build():\n"
            "    reset_default_streams()\n"
            "    return Deployment(DeploymentConfig(models=hen_testbed(12),\n"
            "        p=4, dataset_size=2e6, seed=3, charge_scheduling=False))\n"
            "arr = PoissonArrivals(40.0, seed=9).times(300)\n"
            "slow, fast = build(), build()\n"
            "slow.run_queries(arr, 4)\n"
            "res = fast.run_queries_fast(arr, 4)\n"
            "assert res.fast_scheduled == 300\n"
            "a = [(r.query_id, r.arrival, r.finish) for r in slow.log.records]\n"
            "b = [(r.query_id, r.arrival, r.finish) for r in fast.log.records]\n"
            "assert a == b\n"
            "print('seam-fallback-ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={
                "REPRO_NO_COMPILED_KERNEL": "1",
                "PYTHONPATH": "src",
                "PATH": "/usr/bin:/bin",
            },
            cwd=str(__import__("pathlib").Path(__file__).resolve().parents[1]),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "seam-fallback-ok" in proc.stdout


class TestCompiledFallbackWithoutToolchain:
    def test_disabled_compiled_kernel_degrades_gracefully(self):
        """With the build disabled, the registry refuses `compiled` with a
        clear reason and the exact kernel still serves -- the pure-python
        fallback story behind the `repro[fast]` extra."""
        code = (
            "from repro.kernels import get_kernel, available_kernels\n"
            "from repro.kernels.base import KernelUnavailableError\n"
            "from repro.kernels.compiled import compiled_available\n"
            "assert not compiled_available()\n"
            "assert 'compiled' not in available_kernels()\n"
            "try:\n"
            "    get_kernel('compiled')\n"
            "except KernelUnavailableError as exc:\n"
            "    assert 'disabled' in str(exc)\n"
            "else:\n"
            "    raise SystemExit('compiled kernel should be unavailable')\n"
            "assert get_kernel(None).name == 'exact_numpy'\n"
            "print('fallback-ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={
                "REPRO_NO_COMPILED_KERNEL": "1",
                "PYTHONPATH": "src",
                "PATH": "/usr/bin:/bin",
            },
            cwd=str(__import__("pathlib").Path(__file__).resolve().parents[1]),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fallback-ok" in proc.stdout
