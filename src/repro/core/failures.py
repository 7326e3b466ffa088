"""Failure fall-back: re-covering a failed node's sub-query (Section 4.4).

When a sub-query's target node has failed, ROAR does *not* shift the query's
starting point (that would concentrate load); instead it splits the failed
sub-query in two and sends the halves to nodes before and after the failed
range:

1. ``fail_lo`` / ``fail_hi`` bound the failed node's range.
2. Pick ``idq1`` uniformly in ``(fail_hi - (1/p - delta), fail_lo)``.
3. Set ``idq2 = idq1 + (1/p - delta)``.
4. The original matching window ``(w_start, w_end]`` is split at ``idq1``:
   the piece ``(w_start, idq1]`` is delivered at ``idq1`` and the piece
   ``(idq1, w_end]`` at ``idq2``.  The pieces are explicit disjoint windows,
   so they produce no duplicates -- with each other, or with the query's
   other sub-queries -- and each stays within ``1/p`` behind its delivery
   point, so the receiving nodes are guaranteed to store it.

Adjacent failures are handled by treating the maximal contiguous run of
dead nodes as the failed range (splitting around each dead node separately
would push the delivery point beyond the window's replication reach).
Because each piece again satisfies the *window within 1/p of delivery point*
invariant, the construction recurses cleanly when a replacement itself lands
on a dead node (possible under mass failures); ``split_failed`` performs
that recursion with a depth limit, and every piece is checked against the
storage-reach guarantee so mass failures surface as
:class:`FailureCoverageError` (a dropped query in the deployment's yield
accounting), never as a silent partial harvest.

``delta`` captures uncertainty in ``1/p`` during reconfigurations: it is
chosen so ``1/p - delta < 1/p_old`` for all recently used storage levels.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from .._rng import ensure_rng
from .ids import EPS, Arc, cw_distance, frac
from .node import SubQuery
from .ring import Ring, RingNode

__all__ = [
    "DeadRun",
    "FailureCoverageError",
    "dead_run",
    "lost_nodes",
    "replacement_subqueries",
    "split_failed",
]

#: maximum recursive splits per sub-query before giving up (mass failure).
MAX_DEPTH = 12


class FailureCoverageError(RuntimeError):
    """Raised when no valid replacement placement exists.

    This happens when the failed node's range is wider than ``1/p - delta``
    (effectively a single replica per object in that region) or when
    recursive splitting exhausts its depth limit under mass failures -- the
    data is genuinely unavailable until re-replication.
    """


class DeadRun(NamedTuple):
    """The maximal contiguous run of dead ring nodes around one node.

    ``lo`` and ``hi`` are the ring indices (start order) of the run's
    first and last node clockwise; the run covers ``[fail_lo, fail_hi)``,
    ``length`` long (1.0 when it is the whole circle).
    """

    lo: int
    hi: int
    fail_lo: float
    fail_hi: float
    length: float


def _dead_run(ring: Ring, nodes: Sequence[RingNode], i: int) -> DeadRun:
    """:func:`dead_run` around ``nodes[i]`` (*nodes* is ``ring.nodes()``),
    walked by index."""
    n = len(nodes)
    lo = i
    while True:
        j = (lo - 1) % n
        if nodes[j].alive or j == i:
            break
        lo = j
    hi = i
    while True:
        j = (hi + 1) % n
        if nodes[j].alive or j == i:
            break
        hi = j
    if lo != i and not nodes[(lo - 1) % n].alive:
        raise FailureCoverageError("every node on the ring has failed")
    fail_lo = nodes[lo].start
    fail_hi = Arc(nodes[hi].start, ring.range_length_at(hi)).end  # exclusive
    length = cw_distance(fail_lo, fail_hi) if hi != (lo - 1) % n else 1.0
    return DeadRun(lo, hi, fail_lo, fail_hi, length)


def dead_run(ring: Ring, failed: RingNode) -> DeadRun:
    """The maximal contiguous run of dead nodes around *failed*.

    One :meth:`Ring.index_of` bisect, then a walk through the node list
    to the first alive node on each side.  Raises
    :class:`FailureCoverageError` when every node on the ring has failed.
    """
    return _dead_run(ring, ring.nodes(), ring.index_of(failed))


def _placement_span(run: DeadRun, width: float) -> float:
    """Room for the split point in ``(fail_hi - width, fail_lo)``; raises
    :class:`FailureCoverageError` when the run leaves none."""
    span = width - run.length
    if span <= EPS:
        raise FailureCoverageError(
            f"failed range {run.length:.4f} exceeds replacement "
            f"width {width:.4f}; objects unavailable until re-replication"
        )
    return span


def lost_nodes(ring: Ring, p_store: float, delta: float = 0.0) -> list[int]:
    """Ring indices of the dead nodes whose run cannot be re-covered.

    A sub-query addressed to one of them makes
    :func:`replacement_subqueries` raise before it places anything (the
    run is at least the replacement width ``1/p_store - delta``, or the
    whole ring is dead), so the query that sent it drops.  The rule is
    the fall-back's own: :func:`dead_run` plus the same span check, once
    per run.
    """
    width = 1.0 / float(p_store) - delta
    nodes = ring.nodes()
    n = len(nodes)
    lost: list[int] = []
    done = [False] * n
    for i, node in enumerate(nodes):
        if node.alive or done[i]:
            continue
        try:
            run = _dead_run(ring, nodes, i)
        except FailureCoverageError:
            return list(range(n))
        members = [(run.lo + k) % n for k in range((run.hi - run.lo) % n + 1)]
        for j in members:
            done[j] = True
        try:
            _placement_span(run, width)
        except FailureCoverageError:
            lost.extend(members)
    return sorted(lost)


def replacement_subqueries(
    ring: Ring,
    failed: RingNode,
    original: SubQuery,
    p_store: float,
    delta: float = 0.0,
    rng: random.Random | None = None,
    max_attempts: int = 32,
) -> list[SubQuery]:
    """Build the replacement sub-queries for *original* sent to *failed*.

    *p_store* is the partitioning level objects are currently replicated at
    (replication arcs of length ``1/p_store``).  Returns one or two windowed
    sub-queries that exactly partition the original matching window; when
    the split point falls before the window there is nothing for the first
    piece to do and a single replacement is returned.

    Placements whose owners are alive are preferred (retrying, as the paper
    specifies); if none are found within *max_attempts* the last candidate
    is returned anyway and the caller recurses on the dead pieces.
    """
    rng = ensure_rng(rng)
    width = 1.0 / float(p_store) - delta

    # The effective failed range is the maximal *contiguous run* of dead
    # nodes around the target.  Anchoring to the single dead node is wrong
    # when its neighbour is dead too: the recursion would then shift the
    # delivery point a further `width` clockwise past the second dead range,
    # beyond the window's replication reach, and the receiving node would
    # silently match nothing.  With the combined range, either a valid
    # placement exists (run shorter than the replication arc) or the data is
    # genuinely unavailable and we raise -- no silent partial harvests.
    run = dead_run(ring, failed)
    fail_lo, fail_hi = run.fail_lo, run.fail_hi
    # Valid placements for idq1: (fail_hi - width, fail_lo).
    span = _placement_span(run, width)

    lower = frac(fail_hi - width)
    idq1 = idq2 = None
    for _ in range(max_attempts):
        idq1 = frac(lower + EPS + rng.random() * (span - 2 * EPS))
        idq2 = frac(idq1 + width)
        if ring.node_in_charge(idq1).alive and ring.node_in_charge(idq2).alive:
            break
    assert idq1 is not None and idq2 is not None

    w_end = original.dedup_origin
    w_width = original.dedup_width
    w_start = frac(w_end - w_width)

    # Split the window at idq1.  If idq1 precedes the window entirely the
    # first piece is empty and one replacement carries the whole window.
    first_width = cw_distance(w_start, idq1)
    pieces: list[SubQuery] = []
    if EPS < first_width < w_width - EPS:
        pieces.append(
            SubQuery(
                query_id=original.query_id,
                dest=idq1,
                dedup_origin=idq1,
                dedup_width=first_width,
                local_width=width,
                index=original.index,
            )
        )
        second_width = cw_distance(idq1, w_end)
    else:
        second_width = w_width
    pieces.append(
        SubQuery(
            query_id=original.query_id,
            dest=idq2,
            dedup_origin=w_end,
            dedup_width=second_width,
            local_width=width,
            index=original.index,
        )
    )
    # Storage-reach guarantee: every object in a piece's window must have a
    # replication arc covering the delivery point, i.e. the window may reach
    # at most 1/p_store behind it.  The construction satisfies this by
    # design; the check closes the one residual hole (recursive splitting
    # under mass failures when no alive placement was found) by converting a
    # would-be silent partial harvest into an honest coverage failure.
    reach = 1.0 / float(p_store) + EPS
    for piece in pieces:
        window_start = frac(piece.dedup_origin - piece.dedup_width)
        if cw_distance(window_start, piece.dest) > reach:
            raise FailureCoverageError(
                f"replacement window at {piece.dest:.4f} reaches beyond the "
                "replication arc; objects unavailable until re-replication"
            )
    return pieces


def split_failed(
    ring: Ring,
    subqueries: list[SubQuery],
    p_store: float,
    delta: float = 0.0,
    rng: random.Random | None = None,
) -> list[tuple[SubQuery, RingNode]]:
    """Resolve a sub-query list against the ring, replacing failed targets.

    Returns ``(sub_query, target_node)`` pairs where every target is alive.
    Sub-queries whose owner is alive pass through unchanged; ones addressed
    to failed nodes are split via :func:`replacement_subqueries`, recursing
    (depth-limited) when replacements also land on dead nodes.
    """
    rng = ensure_rng(rng)
    out: list[tuple[SubQuery, RingNode]] = []

    def resolve(sub: SubQuery, depth: int) -> None:
        owner = ring.node_in_charge(sub.dest)
        if owner.alive:
            out.append((sub, owner))
            return
        if depth >= MAX_DEPTH:
            raise FailureCoverageError(
                f"could not re-cover sub-query at {sub.dest:.4f} within "
                f"{MAX_DEPTH} recursive splits; too many failures"
            )
        for piece in replacement_subqueries(
            ring, owner, sub, p_store, delta=delta, rng=rng
        ):
            resolve(piece, depth + 1)

    for sub in subqueries:
        resolve(sub, 0)
    return out
