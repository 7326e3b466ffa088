"""Tests for the ROAR ring structure (repro.core.ring)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Ring, RingNode
from repro.core.ids import Arc, cw_distance

#: the largest double below 1.0 -- the last position an update can take.
BELOW_ONE = math.nextafter(1.0, 0.0)


class TestConstruction:
    def test_uniform_ranges(self):
        ring = Ring.uniform(4)
        for node in ring:
            assert ring.range_of(node).length == pytest.approx(0.25)

    def test_uniform_with_speeds(self):
        ring = Ring.uniform(3, speeds=[1.0, 2.0, 3.0])
        assert [n.speed for n in ring.nodes()] == [1.0, 2.0, 3.0]

    def test_uniform_speed_length_mismatch(self):
        with pytest.raises(ValueError):
            Ring.uniform(3, speeds=[1.0])

    def test_proportional_ranges_match_speed(self):
        ring = Ring.proportional([1.0, 3.0])
        lengths = {n.name: ring.range_of(n).length for n in ring}
        assert lengths["node-0"] == pytest.approx(0.25)
        assert lengths["node-1"] == pytest.approx(0.75)

    def test_proportional_rejects_zero_total(self):
        with pytest.raises(ValueError):
            Ring.proportional([0.0, 0.0])

    def test_validate_passes(self):
        Ring.uniform(10).validate()
        Ring.proportional([1, 2, 3, 4]).validate()


class TestLookups:
    def test_node_in_charge_basic(self):
        ring = Ring.uniform(4)  # starts at 0, .25, .5, .75
        assert ring.node_in_charge(0.1).name == "node-0"
        assert ring.node_in_charge(0.3).name == "node-1"
        assert ring.node_in_charge(0.99).name == "node-3"

    def test_node_in_charge_at_boundary(self):
        ring = Ring.uniform(4)
        assert ring.node_in_charge(0.25).name == "node-1"

    def test_node_in_charge_wraps_before_first(self):
        ring = Ring(
            [RingNode("a", 0.2), RingNode("b", 0.7)]
        )
        # Point 0.1 is before the first start: owned by the last node.
        assert ring.node_in_charge(0.1).name == "b"

    def test_node_in_charge_empty_raises(self):
        with pytest.raises(LookupError):
            Ring().node_in_charge(0.5)

    def test_successor_predecessor_cycle(self):
        ring = Ring.uniform(5)
        node = ring.get("node-2")
        assert ring.successor(node).name == "node-3"
        assert ring.predecessor(node).name == "node-1"
        assert ring.successor(ring.get("node-4")).name == "node-0"

    def test_get_missing(self):
        with pytest.raises(KeyError):
            Ring.uniform(2).get("nope")


class TestEdits:
    def test_add_node_shrinks_previous_owner(self):
        ring = Ring.uniform(2)  # node-0 at 0, node-1 at 0.5
        ring.add_node(RingNode("new", 0.25))
        assert ring.range_of(ring.get("node-0")).length == pytest.approx(0.25)
        assert ring.range_of(ring.get("new")).length == pytest.approx(0.25)
        ring.validate()

    def test_add_duplicate_position_raises(self):
        ring = Ring.uniform(2)
        with pytest.raises(ValueError):
            ring.add_node(RingNode("dup", 0.0))

    def test_remove_node_absorbed_by_predecessor(self):
        ring = Ring.uniform(4)
        victim = ring.get("node-2")
        ring.remove_node(victim)
        assert len(ring) == 3
        assert ring.range_of(ring.get("node-1")).length == pytest.approx(0.5)
        ring.validate()

    def test_move_start_changes_ranges(self):
        ring = Ring.uniform(4)
        node = ring.get("node-1")  # at 0.25
        ring.move_start(node, 0.30)
        assert ring.range_of(ring.get("node-0")).length == pytest.approx(0.30)
        assert ring.range_of(node).length == pytest.approx(0.20)
        ring.validate()

    def test_move_start_cannot_cross_neighbour(self):
        ring = Ring.uniform(4)
        node = ring.get("node-1")
        with pytest.raises(ValueError):
            ring.move_start(node, 0.6)  # past node-2 at 0.5

    def test_single_node_owns_everything(self):
        ring = Ring([RingNode("solo", 0.4)])
        assert ring.range_of(ring.get("solo")).length == 1.0
        assert ring.node_in_charge(0.99).name == "solo"
        assert ring.node_in_charge(0.0).name == "solo"


class TestDerived:
    def test_total_speed_excludes_dead(self):
        ring = Ring.uniform(3, speeds=[1.0, 2.0, 4.0])
        ring.get("node-1").alive = False
        assert ring.total_speed() == pytest.approx(5.0)

    def test_nodes_covering_arc(self):
        ring = Ring.uniform(4)
        covering = ring.nodes_covering(Arc(0.2, 0.2))  # spans node-0 and node-1
        names = {n.name for n in covering}
        assert names == {"node-0", "node-1"}

    def test_nodes_covering_wrapping_arc(self):
        ring = Ring.uniform(4)
        covering = ring.nodes_covering(Arc(0.9, 0.2))
        names = {n.name for n in covering}
        assert names == {"node-3", "node-0"}

    def test_ranges_partition_circle(self):
        ring = Ring.proportional([3, 1, 4, 1, 5, 9, 2, 6])
        total = sum(ring.range_of(n).length for n in ring)
        assert total == pytest.approx(1.0)

    def test_alive_nodes_filter(self):
        ring = Ring.uniform(3)
        ring.get("node-0").alive = False
        assert len(ring.alive_nodes()) == 2


class TestEdgeCases:
    """Boundary conditions for structural edits (control-plane elasticity
    shrinks rings node by node, so the empty/near-empty cases matter)."""

    def test_remove_last_node_leaves_empty_ring(self):
        ring = Ring([RingNode("only", 0.3)])
        ring.remove_node(ring.get("only"))
        assert len(ring) == 0
        ring.validate()  # empty partition is vacuously valid
        with pytest.raises(LookupError):
            ring.node_in_charge(0.5)

    def test_remove_down_to_single_node_owns_circle(self):
        ring = Ring.uniform(3)
        ring.remove_node(ring.get("node-1"))
        ring.remove_node(ring.get("node-2"))
        survivor = ring.get("node-0")
        assert ring.range_of(survivor).length == pytest.approx(1.0)
        assert ring.node_in_charge(0.999) is survivor
        ring.validate()

    def test_readding_after_removal_restores_partition(self):
        ring = Ring.uniform(4)
        node = ring.get("node-2")
        ring.remove_node(node)
        ring.add_node(node)
        assert len(ring) == 4
        ring.validate()
        assert ring.node_in_charge(0.5) is node

    def test_insert_at_existing_start_rejected(self):
        ring = Ring.uniform(4)
        with pytest.raises(ValueError):
            ring.add_node(RingNode("clash", 0.25))

    def test_insert_within_eps_of_existing_start_rejected(self):
        from repro.core.ids import EPS

        ring = Ring.uniform(4)
        with pytest.raises(ValueError):
            ring.add_node(RingNode("clash", 0.25 + EPS / 2))

    def test_insert_within_eps_across_wrap_rejected(self):
        from repro.core.ids import EPS

        ring = Ring.uniform(4)  # a node sits at start 0.0
        with pytest.raises(ValueError):
            ring.add_node(RingNode("clash", 1.0 - EPS / 2))

    def test_insert_after_failed_insert_leaves_ring_intact(self):
        ring = Ring.uniform(4)
        with pytest.raises(ValueError):
            ring.add_node(RingNode("clash", 0.5))
        assert len(ring) == 4
        ring.validate()

    def test_move_start_crossing_successor_rejected(self):
        ring = Ring.uniform(4)  # starts 0, .25, .5, .75
        node = ring.get("node-1")
        # moving node-1's start past node-2's start would reorder the ring
        with pytest.raises(ValueError):
            ring.move_start(node, 0.6)
        ring.validate()
        assert ring.get("node-1").start == pytest.approx(0.25)

    def test_move_start_crossing_predecessor_rejected(self):
        ring = Ring.uniform(4)
        node = ring.get("node-1")
        # moving counter-clockwise past node-0's start also reorders
        with pytest.raises(ValueError):
            ring.move_start(node, 0.95)
        ring.validate()

    def test_move_start_within_gap_allowed(self):
        ring = Ring.uniform(4)
        node = ring.get("node-1")
        ring.move_start(node, 0.30)
        assert ring.range_of(ring.get("node-0")).length == pytest.approx(0.30)
        assert ring.range_of(node).length == pytest.approx(0.20)
        ring.validate()

    def test_move_start_single_node_ring(self):
        ring = Ring([RingNode("only", 0.0)])
        ring.move_start(ring.get("only"), 0.4)
        assert ring.get("only").start == pytest.approx(0.4)
        assert ring.range_of(ring.get("only")).length == pytest.approx(1.0)

    def test_move_start_wraps_zero_boundary(self):
        ring = Ring.uniform(4)
        node = ring.get("node-0")
        ring.move_start(node, 0.95)  # node-0's start slides behind 0
        ring.validate()
        assert ring.node_in_charge(0.97) is node


def _sorted_holders(ring, point, r):
    """The replica-holder rule as a full sort: the r alive nodes nearest
    clockwise from *point*, as ring indices."""
    ordered = sorted(ring.alive_nodes(), key=lambda nd: (nd.start - point) % 1.0)
    return [ring.index_of(nd) for nd in ordered[:r]]


class TestReplicaHolders:
    """``Ring.replica_holders`` (bisect + clockwise walk) against the sort."""

    @settings(max_examples=300, deadline=None)
    @given(
        starts=st.lists(
            st.one_of(
                st.floats(0.0, 1.0, exclude_max=True),
                st.sampled_from([0.0, BELOW_ONE, 0.5]),
            ),
            min_size=1,
            max_size=24,
        ),
        dead=st.lists(st.booleans(), max_size=24),
        r=st.integers(1, 30),
        data=st.data(),
    )
    def test_matches_the_sort_rule(self, starts, dead, r, data):
        ring = Ring()
        for i, s in enumerate(starts):
            try:
                ring.add_node(RingNode(f"n{i}", s))
            except ValueError:
                pass  # within EPS of a node already placed
        for node, is_dead in zip(ring.nodes(), dead):
            node.alive = not is_dead
        node_starts = [nd.start for nd in ring]
        point = data.draw(
            st.one_of(
                st.floats(0.0, 1.0, exclude_max=True),
                st.sampled_from([0.0, BELOW_ONE] + node_starts),
            )
        )
        assert ring.replica_holders(point, r) == _sorted_holders(ring, point, r)

    def test_walk_wraps_past_one_and_skips_dead(self):
        ring = Ring.uniform(8)  # starts 0, .125, ..., .875
        ring.get("node-0").alive = False
        assert ring.replica_holders(0.8, 3) == [7, 1, 2]
        assert ring.replica_holders(0.875, 2) == [7, 1]  # exact start first
        assert ring.replica_holders(BELOW_ONE, 2) == [1, 2]

    def test_r_at_least_the_alive_count_returns_every_alive_node(self):
        ring = Ring.uniform(5)
        ring.get("node-3").alive = False
        assert ring.replica_holders(0.5, 4) == [4, 0, 1, 2]
        assert ring.replica_holders(0.5, 50) == [4, 0, 1, 2]

    def test_all_dead_ring_has_no_holders(self):
        ring = Ring.uniform(4)
        for node in ring:
            node.alive = False
        assert ring.replica_holders(0.3, 2) == []
        assert Ring().replica_holders(0.3, 2) == []

    def test_all_dead_deployment_takes_no_update_traffic(self):
        from repro.cluster import Deployment, DeploymentConfig, hen_testbed

        dep = Deployment(DeploymentConfig(models=hen_testbed(6), p=3, seed=1))
        for name in list(dep.servers):
            dep.fail_node(name, 0.0)
        dep.apply_update(1.0, at=0.4)
        assert dep.ledger.update_messages == 0
        assert all(s.tasks_run == 0 for s in dep.servers.values())


class TestRangeLengths:
    """``Ring.range_length_at`` is the one range rule: ``range_of`` and
    the index-based callers (the dead-run walk, the membership ranking)
    all read it."""

    @settings(max_examples=200, deadline=None)
    @given(
        starts=st.lists(
            st.one_of(
                st.floats(0.0, 1.0, exclude_max=True),
                st.sampled_from([0.0, BELOW_ONE, 0.5]),
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_clockwise_distance_to_the_next_start(self, starts):
        ring = Ring()
        for i, s in enumerate(starts):
            try:
                ring.add_node(RingNode(f"n{i}", s))
            except ValueError:
                pass  # within EPS of a node already placed
        nodes = ring.nodes()
        n = len(nodes)
        want = [
            1.0 if n == 1 else cw_distance(nd.start, nodes[(i + 1) % n].start)
            for i, nd in enumerate(nodes)
        ]
        assert ring.range_lengths() == want
        for nd, length in zip(nodes, want):
            assert ring.range_of(nd) == Arc(nd.start, length)

    def test_one_node_ring_owns_the_circle(self):
        ring = Ring([RingNode("solo", 0.3)])
        assert ring.range_lengths() == [1.0]
        assert ring.range_of(ring.get("solo")).end == 0.3
