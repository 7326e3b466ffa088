"""Precomputed ring-cover tables and the batched rotation sweep.

:func:`~repro.core.scheduler.schedule_heap` (the paper's Algorithm 1) is
called once per query.  Per call it rebuilds owner-lookup views, walks a
binary heap of boundary crossings, and invokes a Python estimator closure
for every crossing -- fine for thousands of queries, fatal for millions.

The observation that makes a batched path possible: for a *fixed* ring
configuration and partitioning level ``pq``, everything about the sweep
except the finish estimates is static.  As the starting id sweeps over
``[0, 1/pq)``:

* the offsets at which any query point crosses a node boundary,
* which node each point crosses *into*,
* how crossings group into the heap's EPS tie groups, and
* which configurations the heap actually evaluates

are all functions of the node start positions alone.  A :class:`CoverTable`
precomputes them once; scheduling a query then reduces to one vectorised
finish-estimate evaluation per server plus a gather/max/argmin over the
precomputed owner timeline -- a handful of numpy operations instead of
thousands of interpreter steps.

The table replays Algorithm 1's exact float arithmetic and tie-breaking
(same ``EPS`` chaining, same "strictly better, first wins" selection, same
final owner re-derivation by binary search), so the batched result is
*bit-identical* to :func:`schedule_heap` -- the differential tests in
``tests/test_fastpath.py`` enforce this.

Tables cache against :attr:`Ring.version` and are invalidated whenever a
reconfiguration (add/remove/move) changes range ownership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

try:  # numpy is required for the batched path only; core stays pure-python.
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

from .ids import EPS, cw_distance, frac
from .ring import Ring, RingNode
from .scheduler import ScheduleResult

__all__ = ["CoverTable", "CoverTableCache", "KernelPack", "require_numpy"]


def require_numpy() -> None:
    if np is None:  # pragma: no cover - the image bakes numpy in
        raise RuntimeError(
            "the batched query path requires numpy; install it or use the "
            "per-query reference path"
        )


@dataclass
class KernelPack:
    """The table's arrays repacked contiguously for out-of-python kernels.

    Scheduling kernels that leave numpy (the ctypes-driven C kernel, or
    any future accelerator back-end) consume raw pointers, which requires
    one known layout: ``owner_stack`` stacks every ring's owner timeline
    into a single C-contiguous ``(n_rings, pq, n_configs)`` int64 block of
    ring-local node indices; ``next_change[p, c]`` (C-contiguous
    ``(pq, n_configs)`` int64) is the first configuration after ``c`` at
    which any ring's owner of point ``p`` differs from its owner at ``c``,
    or ``n_configs`` when none does; ``n_eval`` is the length of the
    evaluated prefix (only the last configuration can be masked); and
    ``config_start_id`` aliases the table's candidate start ids.  Built
    lazily by :meth:`CoverTable.kernel_pack` and cached on the table, so
    pure-python users never pay for it.
    """

    owner_stack: "np.ndarray"
    next_change: "np.ndarray"
    n_eval: int
    config_start_id: "np.ndarray"


@dataclass
class _RingTable:
    """Per-ring static data: nodes in start order plus owner timelines."""

    nodes: list[RingNode]
    starts: "np.ndarray"  # sorted start positions, float64
    #: owner index per (query point, configuration): shape (pq, n_configs).
    owner_timeline: "np.ndarray"


class CoverTable:
    """The static part of Algorithm 1 for one (rings, pq) configuration."""

    def __init__(self, rings: Sequence[Ring], pq: int) -> None:
        require_numpy()
        if pq < 1:
            raise ValueError(f"pq must be >= 1, got {pq}")
        self.pq = pq
        self.work = 1.0 / pq
        self.versions = tuple(r.version for r in rings)
        #: strong references: the cache keys on (versions, ring ids), which
        #: is only sound while the rings cannot be garbage-collected and
        #: their ids reused by lookalike rings.
        self.rings = list(rings)

        # -- enumerate every chain's crossings, exactly as the heap would --
        # A chain is one (query point, ring) pair; its events are the sweep
        # offsets at which the point crosses into the ring's next node.
        events: list[tuple[float, int, int, int]] = []  # (crossing, pt, ring, new owner)
        sentinel_min: float | None = None  # first crossing >= work - EPS, any chain
        per_ring: list[tuple[list[RingNode], list[float], list[int]]] = []
        limit = self.work - EPS
        for r_i, ring in enumerate(rings):
            nodes = ring.nodes()
            if not nodes:
                raise LookupError("ring is empty")
            starts = [n.start for n in nodes]
            owner0 = []
            import bisect

            for i in range(pq):
                point = frac(i / pq)
                idx = bisect.bisect_right(starts, point) - 1
                if idx < 0:
                    idx = len(nodes) - 1
                owner0.append(idx)
                if len(nodes) <= 1:
                    continue  # the heap never pushes events for 1-node rings
                # All starts sorted by clockwise distance from the point;
                # distance 0 is the point's own owner (reached only after a
                # full circle, which the heap's push guard cuts off).
                chain = sorted(
                    (cw_distance(point, s), j)
                    for j, s in enumerate(starts)
                    if cw_distance(point, s) > 0.0
                )
                for crossing, j in chain:
                    if crossing < limit:
                        events.append((crossing, i, r_i, j))
                    else:
                        if sentinel_min is None or crossing < sentinel_min:
                            sentinel_min = crossing
                        break  # the heap breaks the sweep here
            per_ring.append((nodes, starts, owner0))

        events.sort(key=lambda e: (e[0], e[1], e[2]))
        self.iterations = len(events)
        self.n_rings = len(rings)
        # estimates: pq*R initial + one per processed event + pq*R final.
        self.estimates = 2 * pq * self.n_rings + len(events)

        # -- group events into the heap's EPS tie groups -------------------
        # Evaluation happens after the last event of a group; a group whose
        # *next* pending crossing (possibly the >= work - EPS sentinel) is
        # within EPS never gets evaluated -- replicated here bit-for-bit.
        group_of_event: list[int] = []
        group_last_crossing: list[float] = []
        g = 0
        for j, (crossing, _, _, _) in enumerate(events):
            group_of_event.append(g)
            is_last = j + 1 == len(events)
            if is_last or events[j + 1][0] > crossing + EPS:
                group_last_crossing.append(crossing)
                g += 1
        n_groups = g
        n_configs = n_groups + 1  # config 0 = initial placement

        evaluated = [True] * n_configs
        if n_groups and sentinel_min is not None:
            if sentinel_min <= group_last_crossing[-1] + EPS:
                evaluated[-1] = False
        self.evaluated = np.array(evaluated, dtype=bool)

        #: candidate start id per configuration (config 0 sweeps from 0.0).
        self.config_start_id = np.zeros(n_configs, dtype=np.float64)
        for gi, crossing in enumerate(group_last_crossing):
            self.config_start_id[gi + 1] = crossing + EPS

        # -- owner timelines ----------------------------------------------
        self.ring_tables: list[_RingTable] = []
        for r_i, (nodes, starts, owner0) in enumerate(per_ring):
            timeline = np.empty((pq, n_configs), dtype=np.intp)
            timeline[:, 0] = owner0
            current = list(owner0)
            col = 0
            for j, (crossing, pt, ring_i, new_owner) in enumerate(events):
                if ring_i == r_i:
                    current[pt] = new_owner
                if group_of_event[j] != (group_of_event[j + 1] if j + 1 < len(events) else -1):
                    col += 1
                    timeline[:, col] = current
            # (loop writes a column at every group end; fill the tail when
            # there were no events at all)
            if n_configs == 1:
                timeline[:, 0] = owner0
            self.ring_tables.append(
                _RingTable(
                    nodes=nodes,
                    starts=np.array(starts, dtype=np.float64),
                    owner_timeline=timeline,
                )
            )

    # -- kernel-facing views ----------------------------------------------
    def kernel_pack(self) -> KernelPack:
        """Contiguous array views for compiled kernels (lazy, cached)."""
        pack = getattr(self, "_kernel_pack", None)
        if pack is None:
            n_eval = int(self.evaluated.sum())
            if not self.evaluated[:n_eval].all():
                raise ValueError(
                    "evaluated mask is not a prefix: only the last "
                    "configuration can be masked"
                )
            owner_stack = np.ascontiguousarray(
                np.stack(
                    [rt.owner_timeline for rt in self.ring_tables], axis=0
                ).astype(np.int64, copy=False)
            )
            n_configs = owner_stack.shape[2]
            # change[p, j]: some ring's owner of point p differs between
            # configs j and j + 1; a reverse running minimum of the change
            # positions then gives each config its next change.
            change = (owner_stack[:, :, 1:] != owner_stack[:, :, :-1]).any(axis=0)
            at = np.where(change, np.arange(1, n_configs), n_configs)
            next_change = np.full(owner_stack.shape[1:], n_configs, dtype=np.int64)
            next_change[:, :-1] = np.minimum.accumulate(at[:, ::-1], axis=1)[:, ::-1]
            pack = KernelPack(
                owner_stack=owner_stack,
                next_change=next_change,
                n_eval=n_eval,
                config_start_id=np.ascontiguousarray(self.config_start_id),
            )
            self._kernel_pack = pack
        return pack

    # -- scheduling --------------------------------------------------------
    def schedule(self, estimates: Sequence["np.ndarray"]) -> ScheduleResult:
        """Run the sweep given per-ring finish-estimate arrays.

        ``estimates[r][j]`` must be the predicted finish delay of a
        ``1/pq``-wide sub-query on ring *r*'s node *j* (ring order), computed
        with the same float arithmetic as the per-query estimator.  Returns
        a :class:`ScheduleResult` bit-identical to :func:`schedule_heap`.
        """
        pq = self.pq
        # Finish of each point across all configurations: gather each ring's
        # estimates through its owner timeline, min across rings.
        finish = self.ring_tables[0].owner_timeline
        finish = estimates[0][finish]
        for r_i in range(1, self.n_rings):
            other = estimates[r_i][self.ring_tables[r_i].owner_timeline]
            finish = np.minimum(finish, other)
        makespans = finish.max(axis=0)

        # "Strictly better than the running best, first wins" == first
        # occurrence of the global minimum among evaluated configurations.
        candidates = np.where(self.evaluated, makespans, np.inf)
        best_config = int(np.argmin(candidates))
        best_id = float(self.config_start_id[best_config])

        # Final assignment re-derived by binary search at best_id, exactly
        # like schedule_heap's closing assignment_at() call.
        points = np.array([frac(best_id + i / pq) for i in range(pq)])
        owner_per_ring = []
        for table in self.ring_tables:
            idx = np.searchsorted(table.starts, points, side="right") - 1
            idx[idx < 0] = len(table.nodes) - 1
            owner_per_ring.append(idx)
        assignment: list[RingNode] = []
        finishes: list[float] = []
        for i in range(pq):
            best_node = None
            best_finish = float("inf")
            for r_i, table in enumerate(self.ring_tables):
                idx = int(owner_per_ring[r_i][i])
                fin = float(estimates[r_i][idx])
                if fin < best_finish:
                    best_finish = fin
                    best_node = table.nodes[idx]
            assignment.append(best_node)  # type: ignore[arg-type]
            finishes.append(best_finish)

        return ScheduleResult(
            start_id=frac(best_id),
            assignment=assignment,
            finishes=finishes,
            makespan=max(finishes),
            iterations=self.iterations,
            estimates=self.estimates,
        )


class CoverTableCache:
    """Small keyed cache of cover tables, invalidated by ring versions."""

    def __init__(self, max_entries: int = 8) -> None:
        self.max_entries = max_entries
        self._tables: dict[tuple, CoverTable] = {}

    def get(self, rings: Sequence[Ring], pq: int) -> CoverTable:
        key = (pq, tuple(r.version for r in rings), tuple(id(r) for r in rings))
        table = self._tables.get(key)
        if table is None:
            table = CoverTable(rings, pq)
            if len(self._tables) >= self.max_entries:
                self._tables.pop(next(iter(self._tables)))
            self._tables[key] = table
        return table
