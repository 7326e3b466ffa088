"""The centralised membership server (Section 4.9).

Tracks node range assignments, inserts new servers at hotspots, moves
servers from cool to hot regions, redistributes failed nodes' ranges,
remembers past allocations for returning servers, and manages multiple
rings -- including shutting whole rings down to track diurnal load
(Section 4.9.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Sequence

from .._rng import ensure_rng
from .ids import Arc, cw_distance, frac
from .ring import Ring, RingNode

__all__ = ["MembershipServer"]


@dataclass
class _NodeRecord:
    """History kept per server (for fast rejoin, Section 4.9)."""

    ring_id: int
    start: float
    speed: float


class MembershipServer:
    """Global coordinator for ring membership and capacity."""

    def __init__(
        self,
        n_rings: int = 1,
        rng: random.Random | None = None,
    ) -> None:
        if n_rings < 1:
            raise ValueError("need at least one ring")
        self.rings: list[Ring] = [Ring() for _ in range(n_rings)]
        #: rings currently serving queries (diurnal scaling may park some).
        self.active: list[bool] = [True] * n_rings
        self.rng = ensure_rng(rng)
        self._history: dict[str, _NodeRecord] = {}
        self.moves = 0
        self.inserts = 0

    # -- capacity bookkeeping ---------------------------------------------------
    def active_rings(self) -> list[Ring]:
        return [r for r, a in zip(self.rings, self.active) if a and len(r) > 0]

    def ring_capacity(self, ring_id: int) -> float:
        return self.rings[ring_id].total_speed()

    def total_capacity(self) -> float:
        return sum(r.total_speed() for r in self.active_rings())

    def least_loaded_ring(self) -> int:
        """The ring with the least processing capacity (Section 4.9 default)."""
        capacities = [
            (self.ring_capacity(i) if len(self.rings[i]) else 0.0, i)
            for i in range(len(self.rings))
        ]
        return min(capacities)[1]

    # -- hotspot detection -----------------------------------------------------
    @staticmethod
    def _load_ratios(ring: Ring) -> list[tuple[RingNode, float]]:
        """``(node, range length / speed)`` for each alive node, in ring
        order, from one :meth:`Ring.range_lengths` pass."""
        return [
            (nd, length / nd.speed)
            for nd, length in zip(ring.nodes(), ring.range_lengths())
            if nd.alive
        ]

    def hottest_node(self, ring: Ring) -> Optional[RingNode]:
        """Node with the worst range-to-speed ratio (the membership server's
        load proxy; see Section 4.9); the first in ring order on ties."""
        ratios = self._load_ratios(ring)
        return max(ratios, key=itemgetter(1))[0] if ratios else None

    def coolest_node(self, ring: Ring) -> Optional[RingNode]:
        ratios = self._load_ratios(ring)
        return min(ratios, key=itemgetter(1))[0] if ratios else None

    # -- joins / leaves ------------------------------------------------------------
    def add_server(
        self,
        name: str,
        speed: float,
        ring_id: int | None = None,
    ) -> RingNode:
        """Insert a server; default policy picks the least-capacity ring and
        the hottest spot on it.  Returning servers get their old range back
        (only deltas need downloading)."""
        self.inserts += 1
        record = self._history.get(name)
        if record is not None and ring_id is None:
            ring = self.rings[record.ring_id]
            try:
                node = RingNode(name, record.start, speed=speed, ring_id=record.ring_id)
                ring.add_node(node)
                return node
            except ValueError:
                pass  # old position occupied; fall through to fresh insert

        rid = ring_id if ring_id is not None else self.least_loaded_ring()
        ring = self.rings[rid]
        if len(ring) == 0:
            start = 0.0
        else:
            hot = self.hottest_node(ring)
            assert hot is not None
            hot_range = ring.range_of(hot)
            # Split the hottest node's range in half: the newcomer takes the
            # second half, then grows/shrinks via background balancing.
            start = hot_range.midpoint()
        node = RingNode(name, start, speed=speed, ring_id=rid)
        ring.add_node(node)
        self._history[name] = _NodeRecord(ring_id=rid, start=start, speed=speed)
        return node

    def remove_server(self, name: str) -> None:
        """Controlled removal: the predecessor absorbs the range."""
        for rid, ring in enumerate(self.rings):
            try:
                node = ring.get(name)
            except KeyError:
                continue
            self._history[name] = _NodeRecord(
                ring_id=rid, start=node.start, speed=node.speed
            )
            ring.remove_node(node)
            return
        raise KeyError(name)

    def handle_long_term_failure(self, name: str) -> None:
        """A dead node's range is redistributed (absorbed by predecessor)."""
        self.remove_server(name)

    # -- global rebalancing ----------------------------------------------------------
    def move_cool_to_hot(self, ring_id: int = 0) -> bool:
        """Move the coolest node next to the hottest spot (Section 4.9).

        Pairwise local balancing propagates slowly out of a hot region; the
        membership server's global view lets it relocate whole nodes, which
        is much faster.  Returns True if a move happened.
        """
        ring = self.rings[ring_id]
        if len(ring) < 3:
            return False
        hot = self.hottest_node(ring)
        cool = self.coolest_node(ring)
        if hot is None or cool is None or hot is cool:
            return False
        hot_ratio = ring.range_of(hot).length / hot.speed
        cool_ratio = ring.range_of(cool).length / cool.speed
        if hot_ratio <= 2.0 * cool_ratio:
            return False  # not lopsided enough to justify a full relocation
        ring.remove_node(cool)
        target = ring.range_of(hot).midpoint()
        cool.start = target
        ring.add_node(cool)
        self._history[cool.name] = _NodeRecord(
            ring_id=ring_id, start=cool.start, speed=cool.speed
        )
        self.moves += 1
        return True

    # -- diurnal ring scaling (Section 4.9.1) ----------------------------------------
    def rings_needed(self, offered_load: float, capacity_per_ring: float) -> int:
        """How many rings must be up to serve *offered_load* (query-work/s)."""
        if capacity_per_ring <= 0:
            raise ValueError("capacity_per_ring must be positive")
        import math

        return max(1, math.ceil(offered_load / capacity_per_ring))

    def set_active_rings(self, count: int) -> list[int]:
        """Activate the first *count* rings, park the rest; returns active ids."""
        count = max(1, min(count, len(self.rings)))
        for i in range(len(self.rings)):
            self.active[i] = i < count
        return [i for i, a in enumerate(self.active) if a]

    # -- construction helpers -----------------------------------------------------------
    @classmethod
    def build_balanced(
        cls,
        speeds: Sequence[float],
        n_rings: int = 1,
        rng: random.Random | None = None,
        name_prefix: str = "node",
    ) -> "MembershipServer":
        """Distribute servers across rings so per-ring capacity is even.

        Greedy longest-processing-time assignment: sort by speed descending,
        put each server on the ring with the least capacity so far, then lay
        each ring out with ranges proportional to speed.
        """
        ms = cls(n_rings=n_rings, rng=rng)
        order = sorted(range(len(speeds)), key=lambda i: -speeds[i])
        per_ring: list[list[tuple[int, float]]] = [[] for _ in range(n_rings)]
        cap = [0.0] * n_rings
        for idx in order:
            rid = min(range(n_rings), key=lambda r: cap[r])
            per_ring[rid].append((idx, speeds[idx]))
            cap[rid] += speeds[idx]
        for rid, members in enumerate(per_ring):
            total = sum(s for _, s in members)
            pos = 0.0
            for idx, speed in members:
                node = RingNode(
                    f"{name_prefix}-{idx}", pos, speed=speed, ring_id=rid
                )
                ms.rings[rid].add_node(node)
                ms._history[node.name] = _NodeRecord(rid, node.start, speed)
                pos = frac(pos + speed / total)
        return ms
