"""The ROAR ring: a total partition of the ID space across servers.

Each server owns a contiguous half-open arc of the circle; collectively the
arcs partition ``[0, 1)`` exactly (Section 4).  The ring is the shared piece
of state the front-end servers and the membership server maintain: given any
ring point it answers *which node is in charge* (by binary search over node
start positions), and it supports the structural edits ROAR needs --
inserting a node inside an existing range, removing a node (neighbours absorb
its range), and moving range boundaries for load balancing.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterable, Iterator, Optional

from .ids import EPS, Arc, cw_distance, frac

__all__ = ["RingNode", "Ring"]


class RingNode:
    """A server's presence on the ring.

    The node's range is implicit: it starts at ``self.start`` and ends at the
    start of its clockwise successor.  Only the membership layer mutates
    ``start``; everything else treats nodes as read-mostly.
    """

    __slots__ = ("name", "start", "speed", "alive", "ring_id", "meta")

    def __init__(
        self,
        name: str,
        start: float,
        speed: float = 1.0,
        ring_id: int = 0,
    ) -> None:
        self.name = name
        self.start = frac(start)
        #: relative processing speed (objects matched per second); used by
        #: schedulers and by the load balancer as processing-capacity proxy.
        self.speed = float(speed)
        self.alive = True
        self.ring_id = ring_id
        #: scratch dictionary for application layers (stats, stores, ...).
        self.meta: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.alive else "DOWN"
        return f"<RingNode {self.name}@{self.start:.4f} x{self.speed:g} {state}>"


class Ring:
    """An ordered collection of :class:`RingNode` partitioning ``[0, 1)``.

    Invariants maintained:

    * node start positions are unique;
    * ``nodes()`` is sorted by start position;
    * every ring point is owned by exactly one node (the one whose start is
      the nearest counter-clockwise).
    """

    def __init__(self, nodes: Iterable[RingNode] = ()) -> None:
        self._nodes: list[RingNode] = []
        self._starts: list[float] = []
        #: monotonically increasing structure-version counter.  Bumped on
        #: every edit that changes range ownership (add/remove/move), so
        #: derived lookup structures (e.g. the batched scheduler's
        #: precomputed cover tables) can cache against it and invalidate on
        #: reconfiguration without subscribing to individual edits.
        self._version: int = 0
        for node in nodes:
            self.add_node(node)

    # -- introspection ----------------------------------------------------
    @property
    def version(self) -> int:
        """Structure version; changes whenever range ownership changes."""
        return self._version

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[RingNode]:
        return iter(self._nodes)

    def nodes(self) -> list[RingNode]:
        """Nodes in ring (start-position) order."""
        return list(self._nodes)

    def alive_nodes(self) -> list[RingNode]:
        return [n for n in self._nodes if n.alive]

    def get(self, name: str) -> RingNode:
        for node in self._nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    def index_of(self, node: RingNode) -> int:
        idx = bisect.bisect_left(self._starts, node.start)
        if idx < len(self._nodes) and self._nodes[idx] is node:
            return idx
        raise ValueError(f"{node!r} not on ring")

    # -- structure edits --------------------------------------------------
    def add_node(self, node: RingNode) -> None:
        """Insert *node* at its ``start`` position.

        The previous owner of that point implicitly shrinks: its range now
        ends where the new node begins.
        """
        node.start = frac(node.start)
        idx = bisect.bisect_left(self._starts, node.start)
        if self._starts:
            # bisect only surfaces the next start; a start EPS *before* the
            # new position -- including across the 0/1 wrap -- is just as
            # much a collision (it would create a zero-width range).
            for other in (self._starts[idx % len(self._starts)], self._starts[idx - 1]):
                gap = abs(other - node.start)
                if min(gap, 1.0 - gap) <= EPS:
                    raise ValueError(f"position {node.start} already occupied")
        self._nodes.insert(idx, node)
        self._starts.insert(idx, node.start)
        self._version += 1

    def remove_node(self, node: RingNode) -> None:
        """Remove *node*; its predecessor's range implicitly absorbs its arc."""
        idx = self.index_of(node)
        del self._nodes[idx]
        del self._starts[idx]
        self._version += 1

    def move_start(self, node: RingNode, new_start: float) -> None:
        """Move a node's range boundary (used by load balancing).

        The new start must not cross over a neighbouring node's start, which
        would reorder the ring; the balancer enforces this.
        """
        new_start = frac(new_start)
        idx = self.index_of(node)
        n = len(self._nodes)
        if n > 1:
            pred = self._nodes[(idx - 1) % n]
            succ = self._nodes[(idx + 1) % n]
            if cw_distance(pred.start, new_start) >= cw_distance(
                pred.start, succ.start
            ) and cw_distance(pred.start, succ.start) > 0:
                raise ValueError(
                    "new start would cross a neighbour "
                    f"({pred.start:.4f} .. {succ.start:.4f})"
                )
        del self._nodes[idx]
        del self._starts[idx]
        node.start = new_start
        self.add_node(node)

    # -- lookups ----------------------------------------------------------
    def node_in_charge(self, point: float) -> RingNode:
        """The node whose range contains *point* (binary search, O(log n))."""
        if not self._nodes:
            raise LookupError("ring is empty")
        point = frac(point)
        idx = bisect.bisect_right(self._starts, point) - 1
        if idx < 0:
            idx = len(self._nodes) - 1  # wrap: owned by the last node
        return self._nodes[idx]

    def replica_holders(self, point: float, r: int) -> list[int]:
        """Indices of the first *r* alive nodes clockwise from *point*.

        The replica holders of an object at *point* in ``[0, 1)``: a node
        whose start equals *point* comes first, then the walk continues
        clockwise, wrapping past 1.0 and skipping dead nodes.  Fewer than
        *r* alive nodes yields all of them; an all-dead ring yields none.
        Bisect plus walk, O(log n + r) on a ring with few dead nodes.
        Because starts are kept more than ``EPS`` apart, the order equals
        sorting the alive nodes by ``(start - point) % 1.0``.
        """
        if r <= 0:
            return []
        nodes = self._nodes
        i = bisect.bisect_left(self._starts, point)
        out: list[int] = []
        for j in itertools.chain(range(i, len(nodes)), range(i)):
            if nodes[j].alive:
                out.append(j)
                if len(out) == r:
                    break
        return out

    def successor(self, node: RingNode) -> RingNode:
        idx = self.index_of(node)
        return self._nodes[(idx + 1) % len(self._nodes)]

    def predecessor(self, node: RingNode) -> RingNode:
        idx = self.index_of(node)
        return self._nodes[(idx - 1) % len(self._nodes)]

    def range_length_at(self, idx: int) -> float:
        """Length of the arc of ``nodes()[idx]``: the clockwise distance
        to the next start (1.0, the full circle, on a one-node ring)."""
        starts = self._starts
        n = len(starts)
        if n == 1:
            return 1.0
        return cw_distance(starts[idx], starts[(idx + 1) % n])

    def range_lengths(self) -> list[float]:
        """:meth:`range_length_at` for every node, in ring order."""
        return [self.range_length_at(i) for i in range(len(self._starts))]

    def range_of(self, node: RingNode) -> Arc:
        """The arc this node is responsible for."""
        return Arc(node.start, self.range_length_at(self.index_of(node)))

    def range_length(self, node: RingNode) -> float:
        return self.range_of(node).length

    # -- derived quantities -----------------------------------------------
    def total_speed(self) -> float:
        return sum(n.speed for n in self._nodes if n.alive)

    def nodes_covering(self, arc: Arc) -> list[RingNode]:
        """All nodes whose range intersects *arc* (i.e. replica holders)."""
        return [n for n in self._nodes if self.range_of(n).intersects(arc)]

    def mean_range(self) -> float:
        if not self._nodes:
            return 0.0
        return 1.0 / len(self._nodes)

    def validate(self) -> None:
        """Check the partition invariant; raises AssertionError on breakage."""
        assert self._starts == sorted(self._starts), "starts out of order"
        assert len(set(self._starts)) == len(self._starts), "duplicate starts"
        total = sum(self.range_lengths())
        assert abs(total - 1.0) < 1e-9 or not self._nodes, (
            f"ranges sum to {total}, expected 1.0"
        )

    # -- constructors -------------------------------------------------------
    @classmethod
    def uniform(
        cls,
        n: int,
        speeds: Iterable[float] | None = None,
        name_prefix: str = "node",
        ring_id: int = 0,
    ) -> "Ring":
        """A ring of *n* nodes with equal ranges (and optional speeds)."""
        speed_list = list(speeds) if speeds is not None else [1.0] * n
        if len(speed_list) != n:
            raise ValueError("speeds must have length n")
        return cls(
            RingNode(f"{name_prefix}-{i}", i / n, speed=speed_list[i], ring_id=ring_id)
            for i in range(n)
        )

    @classmethod
    def proportional(
        cls,
        speeds: Iterable[float],
        name_prefix: str = "node",
        ring_id: int = 0,
    ) -> "Ring":
        """A ring whose node ranges are proportional to processing speed.

        This is the equilibrium the background load balancer converges to
        (Section 4.6): a node's query load is proportional to its range, so
        ranges proportional to speed equalise utilisation.
        """
        speed_list = list(speeds)
        total = sum(speed_list)
        if total <= 0:
            raise ValueError("total speed must be positive")
        ring = cls()
        pos = 0.0
        for i, speed in enumerate(speed_list):
            ring.add_node(
                RingNode(f"{name_prefix}-{i}", pos, speed=speed, ring_id=ring_id)
            )
            pos += speed / total
        return ring
