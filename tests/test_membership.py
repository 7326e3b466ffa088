"""Tests for the membership server (repro.core.membership, Section 4.9)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MembershipServer, Ring, RingNode


class TestBuildBalanced:
    def test_single_ring_all_nodes(self):
        ms = MembershipServer.build_balanced([1.0] * 10)
        assert len(ms.rings) == 1
        assert len(ms.rings[0]) == 10
        ms.rings[0].validate()

    def test_rings_have_similar_capacity(self):
        rng = random.Random(5)
        speeds = [rng.uniform(0.5, 3.0) for _ in range(40)]
        ms = MembershipServer.build_balanced(speeds, n_rings=4)
        caps = [ms.ring_capacity(i) for i in range(4)]
        assert max(caps) / min(caps) < 1.2

    def test_ranges_proportional_to_speed(self):
        ms = MembershipServer.build_balanced([1.0, 3.0])
        ring = ms.rings[0]
        for node in ring:
            expected = node.speed / 4.0
            assert ring.range_of(node).length == pytest.approx(expected)


class TestAddRemove:
    def test_add_to_empty(self):
        ms = MembershipServer()
        node = ms.add_server("s0", 1.0)
        assert len(ms.rings[0]) == 1
        assert ms.rings[0].range_of(node).length == 1.0

    def test_add_splits_hottest(self):
        ms = MembershipServer.build_balanced([1.0, 1.0, 0.2])
        ring = ms.rings[0]
        hot = ms.hottest_node(ring)
        hot_len_before = ring.range_of(hot).length
        ms.add_server("newbie", 1.0)
        assert ring.range_of(hot).length == pytest.approx(hot_len_before / 2)
        ring.validate()

    def test_add_picks_least_capacity_ring(self):
        ms = MembershipServer(n_rings=2)
        ms.add_server("a", 5.0, ring_id=0)
        node = ms.add_server("b", 1.0)  # should go to empty ring 1
        assert node.ring_id == 1

    def test_remove_and_rejoin_gets_old_range(self):
        ms = MembershipServer.build_balanced([1.0, 1.0, 1.0, 1.0])
        ring = ms.rings[0]
        old_start = ring.get("node-2").start
        ms.remove_server("node-2")
        assert len(ring) == 3
        node = ms.add_server("node-2", 1.0)
        assert node.start == pytest.approx(old_start)

    def test_remove_unknown_raises(self):
        ms = MembershipServer()
        with pytest.raises(KeyError):
            ms.remove_server("ghost")

    def test_long_term_failure_redistributes(self):
        ms = MembershipServer.build_balanced([1.0] * 5)
        ms.handle_long_term_failure("node-3")
        assert len(ms.rings[0]) == 4
        ms.rings[0].validate()


class TestGlobalRebalancing:
    def test_move_cool_to_hot(self):
        ms = MembershipServer.build_balanced([1.0] * 8)
        ring = ms.rings[0]
        # Make node-0 very hot by removing its neighbours.
        ms.remove_server("node-1")
        ms.remove_server("node-2")
        moved = ms.move_cool_to_hot()
        assert moved
        assert ms.moves == 1
        ring.validate()

    def test_no_move_when_balanced(self):
        ms = MembershipServer.build_balanced([1.0] * 8)
        assert not ms.move_cool_to_hot()

    def test_no_move_with_two_nodes(self):
        ms = MembershipServer.build_balanced([1.0, 5.0])
        assert not ms.move_cool_to_hot()


class TestDiurnalScaling:
    def test_rings_needed(self):
        ms = MembershipServer(n_rings=4)
        assert ms.rings_needed(10.0, capacity_per_ring=4.0) == 3
        assert ms.rings_needed(0.1, capacity_per_ring=4.0) == 1

    def test_set_active_rings(self):
        ms = MembershipServer.build_balanced([1.0] * 8, n_rings=4)
        active = ms.set_active_rings(2)
        assert active == [0, 1]
        assert len(ms.active_rings()) == 2

    def test_at_least_one_ring_stays_active(self):
        ms = MembershipServer.build_balanced([1.0] * 4, n_rings=2)
        ms.set_active_rings(0)
        assert len(ms.active_rings()) == 1

    def test_total_capacity_tracks_active(self):
        ms = MembershipServer.build_balanced([1.0] * 8, n_rings=4)
        full = ms.total_capacity()
        ms.set_active_rings(2)
        assert ms.total_capacity() == pytest.approx(full / 2)

    def test_invalid_capacity(self):
        ms = MembershipServer()
        with pytest.raises(ValueError):
            ms.rings_needed(1.0, 0.0)


class TestLoadRanking:
    """``hottest_node``/``coolest_node`` rank the ranges in one pass; they
    must pick the very node the per-node ``Ring.range_of`` ranking picked,
    first in ring order on ties."""

    @settings(max_examples=200, deadline=None)
    @given(
        starts=st.lists(
            st.one_of(
                st.floats(0.0, 1.0, exclude_max=True),
                st.sampled_from([0.0, 0.25, 0.5, 0.75]),
            ),
            min_size=0,
            max_size=14,
        ),
        speeds=st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=14, max_size=14),
        dead=st.lists(st.booleans(), min_size=14, max_size=14),
        uniform=st.booleans(),
    )
    def test_same_node_as_the_range_of_ranking(self, starts, speeds, dead, uniform):
        if uniform and starts:
            # equal ranges and speeds: every ratio ties
            ring = Ring.uniform(len(starts))
        else:
            ring = Ring()
            for i, s in enumerate(starts):
                try:
                    ring.add_node(RingNode(f"m{i}", s, speed=speeds[i]))
                except ValueError:
                    pass  # within EPS of a node already placed
        for node, is_dead in zip(ring.nodes(), dead):
            node.alive = not is_dead
        alive = ring.alive_nodes()

        def ratio(n):
            return ring.range_of(n).length / n.speed

        ms = MembershipServer()
        want_hot = max(alive, key=ratio) if alive else None
        want_cool = min(alive, key=ratio) if alive else None
        assert ms.hottest_node(ring) is want_hot
        assert ms.coolest_node(ring) is want_cool
