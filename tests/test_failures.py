"""Tests for failure fall-back (repro.core.failures, Section 4.4)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import max_dead_run_length
from repro.core import Ring, RingNode, generate_objects
from repro.core.failures import (
    FailureCoverageError,
    dead_run,
    lost_nodes,
    replacement_subqueries,
    split_failed,
    widest_dead_run,
)
from repro.core.ids import EPS, cw_distance, frac
from repro.core.node import RoarNode, SubQuery, dedup_matches


def build_stored_ring(n, p, n_objects, rng):
    ring = Ring.proportional([rng.uniform(0.5, 2.0) for _ in range(n)])
    objects = generate_objects(n_objects, rng)
    stores = {}
    for node in ring:
        store = RoarNode(node)
        store.load_objects(objects, p, ring.range_of(node))
        stores[node.name] = store
    return ring, objects, stores


class TestReplacementGeometry:
    def test_replacements_bracket_failed_range(self, rng):
        ring, _, _ = build_stored_ring(12, 4, 0, rng)
        failed = ring.get("node-5")
        failed.alive = False
        original = SubQuery.normal(1, ring.range_of(failed).midpoint(), 4)
        pieces = replacement_subqueries(ring, failed, original, 4, rng=rng)
        fail_range = ring.range_of(failed)
        assert 1 <= len(pieces) <= 2
        # The last piece is delivered strictly after the failed range.
        assert cw_distance(fail_range.end, pieces[-1].dest) < 1.0 / 4
        if len(pieces) == 2:
            # First piece delivered strictly before the failed range,
            # maximally separated from the second (1/p apart).
            assert cw_distance(pieces[0].dest, fail_range.start) < 1.0 / 4
            assert cw_distance(pieces[0].dest, pieces[-1].dest) == pytest.approx(
                pieces[0].local_width, abs=1e-9
            )

    def test_replacements_partition_original_window(self, rng):
        ring, _, _ = build_stored_ring(12, 4, 0, rng)
        failed = ring.get("node-3")
        failed.alive = False
        original = SubQuery.normal(7, ring.range_of(failed).midpoint(), 4)
        pieces = replacement_subqueries(ring, failed, original, 4, rng=rng)
        # The pieces' windows exactly tile the original window.
        total = sum(p.dedup_width for p in pieces)
        assert total == pytest.approx(original.dedup_width, abs=1e-9)
        assert pieces[-1].dedup_origin == original.dedup_origin
        assert all(p.query_id == 7 for p in pieces)

    def test_wide_failed_range_raises(self):
        # Two nodes, p=4: each node's range (0.5) exceeds 1/p.
        ring = Ring.uniform(2)
        failed = ring.get("node-0")
        failed.alive = False
        original = SubQuery.normal(1, 0.25, 4)
        with pytest.raises(FailureCoverageError):
            replacement_subqueries(ring, failed, original, 4)

    def test_avoids_other_failed_nodes(self, rng):
        ring, _, _ = build_stored_ring(16, 4, 0, rng)
        failed = ring.nodes()[5]
        failed.alive = False
        # Kill one neighbour too; resolution must land on alive nodes.
        ring.nodes()[4].alive = False
        original = SubQuery.normal(1, ring.range_of(failed).midpoint(), 4)
        resolved = split_failed(ring, [original], 4, rng=random.Random(0))
        assert resolved
        assert all(node.alive for _, node in resolved)

    def test_mass_failure_recursion(self):
        """Even when most of a replacement window is dead, recursion finds
        alive targets and keeps exact coverage."""
        rng = random.Random(77)
        p = 4
        ring, objects, stores = build_stored_ring(24, p, 300, rng)
        # Kill 10 of 24 nodes.
        for idx in (1, 2, 3, 7, 8, 12, 13, 17, 20, 21):
            ring.nodes()[idx].alive = False
        start = rng.random()
        subs = [
            SubQuery.normal(1, frac(start + i / p), p, index=i) for i in range(p)
        ]
        resolved = split_failed(ring, subs, p, rng=rng)
        matched = {}
        for sub, node in resolved:
            assert node.alive
            for obj in stores[node.name].execute(sub):
                matched[obj.key] = matched.get(obj.key, 0) + 1
        assert len(matched) == len(objects)
        assert all(v == 1 for v in matched.values())


class TestCoverageAfterFailure:
    """The invariant that matters: after replacement, the query still matches
    every object exactly once."""

    @pytest.mark.parametrize("seed", range(5))
    def test_single_failure_exact_coverage(self, seed):
        rng = random.Random(seed)
        p = 4
        ring, objects, stores = build_stored_ring(16, p, 400, rng)
        failed = ring.nodes()[rng.randrange(16)]
        failed.alive = False

        start = rng.random()
        subs = [
            SubQuery.normal(1, frac(start + i / p), p, index=i) for i in range(p)
        ]
        resolved = split_failed(ring, subs, p, rng=rng)
        assert all(node.alive for _, node in resolved)

        matched = {}
        for sub, node in resolved:
            for obj in stores[node.name].execute(sub):
                matched[obj.key] = matched.get(obj.key, 0) + 1
        assert len(matched) == len(objects), (
            f"missed {len(objects) - len(matched)} objects"
        )
        assert all(v == 1 for v in matched.values()), "duplicate matches"

    def test_multiple_failures_exact_coverage(self):
        rng = random.Random(42)
        p = 5
        ring, objects, stores = build_stored_ring(25, p, 500, rng)
        for idx in (2, 3, 11, 19):
            ring.nodes()[idx].alive = False

        start = rng.random()
        subs = [
            SubQuery.normal(1, frac(start + i / p), p, index=i) for i in range(p)
        ]
        resolved = split_failed(ring, subs, p, rng=rng)
        matched = {}
        for sub, node in resolved:
            assert node.alive
            for obj in stores[node.name].execute(sub):
                matched[obj.key] = matched.get(obj.key, 0) + 1
        assert len(matched) == len(objects)
        assert all(v == 1 for v in matched.values())

    def test_subquery_count_grows_by_one_per_failed_target(self, rng):
        p = 4
        ring, _, _ = build_stored_ring(16, p, 0, rng)
        failed = ring.nodes()[0]
        failed.alive = False
        # Aim one sub-query straight at the failed node.
        subs = [
            SubQuery.normal(1, frac(failed.start + 1e-6 + i / p), p, index=i)
            for i in range(p)
        ]
        resolved = split_failed(ring, subs, p, rng=rng)
        assert len(resolved) == p + 1

    def test_alive_targets_pass_through_unchanged(self, rng):
        p = 4
        ring, _, _ = build_stored_ring(16, p, 0, rng)
        subs = [SubQuery.normal(1, i / p + 0.01, p, index=i) for i in range(p)]
        resolved = split_failed(ring, subs, p, rng=rng)
        assert [s for s, _ in resolved] == subs


class TestAdjacentFailureRuns:
    """Contiguous dead runs must re-cover fully or raise -- never silently
    lose objects (regression: the fall-back used to anchor the replacement
    width to the single dead node, overshooting the replication reach when
    its neighbour was dead too)."""

    def _harvest(self, ring, stores, objects, p, rng):
        start = rng.random()
        subs = [
            SubQuery.normal(1, frac(start + i / p), p, index=i) for i in range(p)
        ]
        resolved = split_failed(ring, subs, p, rng=rng)
        matched = {}
        for sub, node in resolved:
            assert node.alive
            for obj in stores[node.name].execute(sub):
                matched[obj.key] = matched.get(obj.key, 0) + 1
        assert set(matched.values()) <= {1}, "duplicate matches"
        return matched

    def test_adjacent_pair_recovers_fully_or_raises(self):
        for seed in range(25):
            rng = random.Random(seed)
            p = 3
            ring, objects, stores = build_stored_ring(9, p, 80, rng)
            nodes = ring.nodes()
            kill = rng.randrange(len(nodes))
            dead = [nodes[kill], nodes[(kill + 1) % len(nodes)]]
            for node in dead:
                node.alive = False
            run_length = sum(ring.range_of(n).length for n in dead)
            try:
                matched = self._harvest(ring, stores, objects, p, rng)
            except FailureCoverageError:
                # Honest unavailability: acceptable whenever re-covering is
                # impossible (wide run, or no alive placement geometry).
                continue
            assert len(matched) == len(objects), (
                f"seed {seed}: silent partial harvest "
                f"({len(matched)}/{len(objects)}) with dead run "
                f"{run_length:.3f} vs arc {1.0 / p:.3f}"
            )

    def test_wide_dead_run_raises_not_partial(self):
        rng = random.Random(3)
        p = 4
        ring, objects, stores = build_stored_ring(8, p, 60, rng)
        # Kill enough adjacent nodes that the dead run exceeds 1/p.
        nodes = ring.nodes()
        dead_len = 0.0
        i = 0
        while dead_len <= 1.0 / p:
            nodes[i % len(nodes)].alive = False
            dead_len += ring.range_of(nodes[i % len(nodes)]).length
            i += 1
        start = rng.random()
        subs = [
            SubQuery.normal(1, frac(start + k / p), p, index=k) for k in range(p)
        ]
        with pytest.raises(FailureCoverageError):
            # Some sub-query must land on the dead run; full coverage of its
            # window is impossible, so the fall-back must say so.
            for _ in range(20):  # any start; retry to hit the dead run
                split_failed(ring, subs, p, rng=rng)
                start = rng.random()
                subs = [
                    SubQuery.normal(1, frac(start + k / p), p, index=k)
                    for k in range(p)
                ]

    def test_single_failure_behaviour_unchanged(self, rng):
        # The combined-run logic must collapse to the seed behaviour when
        # neighbours are alive (the differential fast-path tests depend on
        # identical rng draws here).
        ring, objects, stores = build_stored_ring(12, 4, 100, rng)
        ring.nodes()[5].alive = False
        matched = self._harvest(ring, stores, objects, 4, rng)
        assert len(matched) == len(objects)


def _walked_run(ring, failed):
    """The dead-run walk ``replacement_subqueries`` made before
    :func:`dead_run` existed: neighbour by neighbour through
    ``Ring.predecessor``/``Ring.successor``, a bisect per step."""
    lo_node = failed
    while True:
        pred = ring.predecessor(lo_node)
        if pred.alive or pred is failed:
            break
        lo_node = pred
    hi_node = failed
    while True:
        succ = ring.successor(hi_node)
        if succ.alive or succ is failed:
            break
        hi_node = succ
    if not ring.predecessor(lo_node).alive and lo_node is not failed:
        raise FailureCoverageError("every node on the ring has failed")
    fail_lo = lo_node.start
    fail_hi = ring.range_of(hi_node).end
    run_length = (
        cw_distance(fail_lo, fail_hi)
        if hi_node is not ring.predecessor(lo_node)
        else 1.0
    )
    return lo_node, hi_node, fail_lo, fail_hi, run_length


@st.composite
def _rings_with_dead(draw):
    """A ring of 1-12 nodes (starts drawn, one at 0.0 or near the wrap
    often) with a drawn dead mask, and one dead node to start from."""
    starts = draw(
        st.lists(
            st.one_of(
                st.floats(0.0, 1.0, exclude_max=True),
                st.sampled_from([0.0, 0.5, 1.0 - 1e-9]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    ring = Ring()
    for i, s in enumerate(starts):
        try:
            ring.add_node(RingNode(f"d{i}", s))
        except ValueError:
            pass  # within EPS of a node already placed
    nodes = ring.nodes()
    dead = draw(st.lists(st.booleans(), min_size=len(nodes), max_size=len(nodes)))
    start = draw(st.integers(0, len(nodes) - 1))
    dead[start] = True
    if draw(st.booleans()):
        # a run across index 0: the last and the first node dead
        dead[0] = dead[-1] = True
    for node, is_dead in zip(nodes, dead):
        node.alive = not is_dead
    return ring, nodes[start]


class TestDeadRunHelper:
    """:func:`dead_run` walks the node list by index; it must give the old
    neighbour walk's run exactly, :func:`lost_nodes` must flag exactly
    the dead nodes whose fall-back raises before it places a piece, and
    it flags one exactly when :func:`widest_dead_run` is too wide."""

    @settings(max_examples=300, deadline=None)
    @given(case=_rings_with_dead())
    def test_matches_the_neighbour_walk(self, case):
        ring, failed = case
        try:
            want = _walked_run(ring, failed)
        except FailureCoverageError as exc:
            with pytest.raises(FailureCoverageError) as got:
                dead_run(ring, failed)
            assert str(got.value) == str(exc)
            return
        run = dead_run(ring, failed)
        nodes = ring.nodes()
        lo_node, hi_node, fail_lo, fail_hi, length = want
        assert nodes[run.lo] is lo_node and nodes[run.hi] is hi_node
        assert (run.fail_lo, run.fail_hi, run.length) == (fail_lo, fail_hi, length)
        # the same doubles, bit for bit (0.0 and -0.0 included)
        assert repr((run.fail_lo, run.fail_hi, run.length)) == repr(
            (fail_lo, fail_hi, length)
        )

    def test_one_node_ring(self):
        ring = Ring([RingNode("solo", 0.3)])
        (node,) = ring.nodes()
        node.alive = False
        run = dead_run(ring, node)
        assert (run.lo, run.hi, run.length) == (0, 0, 1.0)
        assert run.fail_lo == run.fail_hi == node.start
        assert lost_nodes(ring, 1.0) == [0]
        assert widest_dead_run(ring) == 1.0

    def test_all_dead_ring_raises(self):
        ring = Ring.uniform(5)
        for node in ring.nodes():
            node.alive = False
        with pytest.raises(FailureCoverageError, match="every node"):
            dead_run(ring, ring.nodes()[2])
        assert lost_nodes(ring, 2.0) == [0, 1, 2, 3, 4]
        assert widest_dead_run(ring) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        case=_rings_with_dead(),
        p_store=st.sampled_from([1.0, 2.0, 3.0, 4.0, 7.5]),
        delta=st.sampled_from([0.0, 1e-6]),
    )
    def test_lost_nodes_are_where_the_fall_back_raises(self, case, p_store, delta):
        ring, _ = case
        nodes = ring.nodes()
        want = []
        for i, node in enumerate(nodes):
            if node.alive:
                continue
            sub = SubQuery.normal(1, node.start, p_store)
            try:
                replacement_subqueries(
                    ring, node, sub, p_store, delta=delta, rng=random.Random(0)
                )
            except FailureCoverageError as exc:
                # only the run rules count; the storage-reach check comes
                # after a placement was drawn
                if "reaches beyond" not in str(exc):
                    want.append(i)
        assert lost_nodes(ring, p_store, delta) == want
        width = 1.0 / p_store - delta
        for i in want:
            try:
                assert width - dead_run(ring, nodes[i]).length <= EPS
            except FailureCoverageError:
                pass  # the whole ring is dead

    @settings(max_examples=300, deadline=None)
    @given(
        case=_rings_with_dead(),
        all_dead=st.sampled_from([False, False, False, True]),
        p=st.integers(min_value=1, max_value=8),
        delta=st.sampled_from([0.0, 1e-6]),
    )
    def test_widest_run_decides_whether_any_node_is_lost(self, case, all_dead, p, delta):
        ring, _ = case
        nodes = ring.nodes()
        if all_dead:
            for node in nodes:
                node.alive = False
        max_dead = widest_dead_run(ring)
        assert bool(lost_nodes(ring, p, delta)) == (1.0 / p - delta - max_dead <= EPS)
        # the run is measured start to end, the availability model sums
        # range lengths: the two agree up to rounding
        alive = [node.alive for node in nodes]
        assert max_dead == pytest.approx(
            max_dead_run_length(ring.range_lengths(), alive), rel=0.0, abs=1e-12
        )
