"""The scheduling-kernel ABI: the narrow seam the batched engine schedules through.

The batched query engine (:mod:`repro.sim.fastpath`) spends roughly half of
its per-query budget inside one block: evaluate every server's finish
estimate, replay the precomputed rotation sweep (gather owners, min across
rings, max across points, first-wins argmin across evaluated
configurations), and re-derive the final assignment at the winning start
id.  Everything else in the engine is accounting.  This module names that
block as an interface -- :class:`SweepKernel` -- so implementations can
compete on speed while the engine, the accounting, and the failure
fall-back stay shared.

The per-query hook (``SweepKernel.select(state, entry, now) ->
(server_set, points, start_id)``), which the reference python commit
calls once per scheduled query, is deliberately narrow:

* ``state`` is a :class:`SweepState`: the engine's always-fresh per-server
  mirrors (busy-until, a scratch estimate buffer) plus the static ring
  geometry of the current batch segment.  The engine builds a fresh one
  whenever an action may have moved membership, so a kernel may cache
  views derived from it (e.g. raw pointers) against its identity.
* ``entry`` is a :class:`PqEntry`: per-(rings, pq) static data resolved
  from the :class:`~repro.core.covertable.CoverTable`, including the
  pre-divided work/speed quotients the estimate needs.
* the return value is the *complete* scheduling decision: global server
  indices per sub-query, the query points, and the chosen start id.  The
  commit uses it without re-deriving anything, so a kernel's choice is
  exactly what executes.

Exactness contract: every kernel makes bit-identical decisions to
:class:`~repro.kernels.exact.ExactNumpyKernel` (the oracle, which is
byte-for-byte the engine's original inline code).  The differential tests
hold each in-tree kernel to it, the builtin scenario battery included.

**The fused sweep+commit entry point.**  Scheduling is no longer the
engine's wall: once the sweep is compiled, the remaining per-query python
is the *commit* -- sub-query widths, the front-end reserve, queue submit
with EWMA speed observation, and the mirror write-through, all closed-form
per-server float updates.  :meth:`SweepKernel.commit_batch` fuses them
with the sweep over a whole chunk of queries per call: the kernel advances
the live mirrors (``state.busy``, ``plan.spd``, ``entry.Q`` and the plan's
per-server accumulators) in place and returns the per-sub-query
chunk-buffer rows in bulk through a :class:`CommitBuffers`, which the
engine turns into per-query columns.  It is the only place the engine
commits a query.  The
default implementation is the reference python loop; the compiled kernel
overrides it with a single C call per chunk.  The exactness contract
extends to it unchanged (an override must produce bit-identical *state*,
not just decisions).

**The failure stop and the drop.**  Inside a failure window the engine
passes the failed-server mask, and ``plan.lost`` flags the ring-0 nodes
whose dead run the fall-back cannot re-cover.  A scheduled query whose
pick touches a failed server is settled by the first failed piece that
``Deployment.run_query``'s LIFO loop would pop: when ring 0's owner of
that piece's point is flagged, the fall-back would raise before placing
anything, so the kernel drops the query itself -- it submits the live
pieces popped before that one, exactly as ``run_query`` does, and
reports the drop in its out row.  Otherwise ``commit_batch`` stops
before the query, leaves every mirror as the last scheduled query left
it, and reports the stopped query's index and pick in ``bufs.stop_*``;
the engine hands that query to the reference path's fall-back, which
owns the rng-drawing re-cover, and resumes the seam after it.

**The admission pre-check.**  An :class:`AdmissionGate` passed to
``commit_batch`` decides, per arriving query and before any scheduling
work, whether the query is admitted: shed when the busiest-server backlog
is at or over the queue cap, or (with ``bucket``) when the token bucket
holds less than one token.  Both checks read only the arrival time, the
live ``busy`` mirror, and the gate's own scalars, so they run inside the
same fused call; shed queries consume no RTT draw and emit one shed row
each.  Policies whose decision needs per-query delay feedback
(``delay_gated``) cannot use the gate: the engine admits each query
itself and calls ``commit_batch`` for one query at a time.

**The update stream.**  Object updates are engine data too.  An
:class:`UpdateStream` holds the run's updates as flat arrays; the kernel
applies each one just before the query it precedes (before that query's
admission check and sweep), so an update and a query that hit the same
server advance the queue, busy-time and object mirrors in submission
order.  A call with no queries (``nq == 0``, which needs no ``entry`` or
``bufs``) applies the pending updates at ``start`` only: the engine makes
one where updates precede a callback or follow the last query.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import TYPE_CHECKING, ClassVar, Optional, Sequence

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover
    from ..core.covertable import CoverTable

__all__ = [
    "AdmissionGate",
    "CommitBuffers",
    "CommitPlan",
    "KernelUnavailableError",
    "PqEntry",
    "SweepKernel",
    "SweepState",
    "UpdateStream",
    "assignment_at",
    "check_commit_args",
]


class KernelUnavailableError(RuntimeError):
    """A kernel cannot run in this environment (e.g. no C toolchain)."""


class SweepState:
    """Per-batch-segment view the engine hands every kernel call.

    Rebuilt (a fresh instance) whenever an action may have changed ring
    membership; the arrays inside are the engine's live mirrors, updated in
    place between queries, so a kernel may cache the *objects* (or their
    raw pointers) for the lifetime of one state and trust their contents
    to be exact at every call.
    """

    __slots__ = (
        "busy",
        "est",
        "fe_fixed",
        "n",
        "ring_lo",
        "ring_hi",
        "ring_starts",
        "n_rings",
        "single_ring",
    )

    def __init__(
        self,
        busy: "np.ndarray",
        est: "np.ndarray",
        fe_fixed: float,
        ring_lo: Sequence[int],
        ring_hi: Sequence[int],
        ring_starts: Sequence[Sequence[float]],
    ) -> None:
        self.busy = busy
        self.est = est
        self.fe_fixed = fe_fixed
        self.n = len(busy)
        self.ring_lo = list(ring_lo)
        self.ring_hi = list(ring_hi)
        self.ring_starts = [list(s) for s in ring_starts]
        self.n_rings = len(self.ring_lo)
        self.single_ring = self.n_rings == 1


class PqEntry:
    """Per-(rings, pq) static data resolved once per batch segment.

    Thin, kernel-facing repackaging of a
    :class:`~repro.core.covertable.CoverTable`: owner timelines per ring,
    the non-evaluated configuration indices, candidate start ids, the query
    point offsets, and ``Q = work * dataset / speed_estimate`` -- the one
    mutable array, maintained scatter-wise by the engine on every EWMA
    update so the per-query estimate costs two adds on top of the backlog
    clip.  ``ext`` is scratch space for kernels to stash derived caches
    (compiled pointer blocks, strided sample views) keyed by kernel name.
    """

    __slots__ = (
        "table",
        "owners",
        "noeval",
        "csi",
        "offs",
        "off0",
        "wd",
        "Q",
        "iterations",
        "estimates",
        "ext",
    )

    def __init__(
        self, table: "CoverTable", pq: int, dataset: float, spd: "np.ndarray"
    ) -> None:
        self.table = table
        #: per-ring (pq, n_configs) owner timelines, ring-local indices.
        self.owners = [rt.owner_timeline for rt in table.ring_tables]
        self.noeval = np.nonzero(~table.evaluated)[0]
        self.csi = table.config_start_id.tolist()
        self.offs = [i / pq for i in range(pq)]
        self.off0 = -1.0 / pq
        self.wd = table.work * dataset
        #: wd / speed_estimate, maintained scatter-wise on EWMA updates so
        #: the per-query estimate is two adds on top of the backlog clip.
        self.Q = np.divide(self.wd, spd)
        self.iterations = table.iterations
        self.estimates = table.estimates
        self.ext: dict[str, object] = {}

    @property
    def pq(self) -> int:
        return self.table.pq

    @property
    def n_configs(self) -> int:
        return len(self.csi)


class CommitPlan:
    """Per-batch commit constants and mirrors for :meth:`SweepKernel.commit_batch`.

    Built by the engine alongside :class:`SweepState` (a fresh instance per
    membership epoch).  ``spd`` is the live EWMA speed-estimate mirror;
    the ``*_l`` plain-list shadows exist so the pure-python default commit
    pays scalar float arithmetic, not numpy scalar boxing.  ``arrivals``
    is the whole batch's arrival times; spans address into it by index so
    compiled kernels can cache one raw pointer per batch.

    The per-server accumulators advance inside the kernel, in submission
    order, for queries and object updates alike: ``busy_time``,
    ``objects`` and ``tasks`` (the ``SimServer`` counters),
    ``completed`` and ``last_seen`` (the ``NodeStats`` ones, queries
    only), and ``touched``, set for every server the kernel wrote.  They
    start from the keyword arguments (zeros by default) in arrays the
    plan owns.  One object update costs server ``g`` ``upd_work[g] =
    update_cost * speed`` objects and ``upd_service[g]`` seconds, in
    ``SimServer.submit``'s float ops.  ``alive`` mirrors the ring nodes'
    ``alive`` flags (the replica-holder walk reads ring 0's); ``trace``
    marks the servers that keep a task trace (None: no server does).
    ``busy_snap`` is where the kernel saves the queues before the first
    update write after a commit (see :class:`UpdateStream`).  ``lost``
    flags the ring-0 nodes whose dead run the failure fall-back cannot
    re-cover (:func:`repro.core.failures.lost_nodes`); the engine sets it
    in failure windows and leaves it None elsewhere, and the kernel reads
    it only with a failed-server mask.
    """

    __slots__ = (
        "arrivals",
        "arr_l",
        "spd",
        "srv_fixed",
        "srv_speed",
        "srv_fixed_l",
        "srv_speed_l",
        "alpha",
        "om_alpha",
        "dataset",
        "busy_time",
        "objects",
        "tasks",
        "completed",
        "last_seen",
        "touched",
        "alive",
        "upd_work",
        "upd_service",
        "trace",
        "busy_snap",
        "lost",
    )

    def __init__(
        self,
        arrivals: "np.ndarray",
        arr_l: list,
        spd: "np.ndarray",
        srv_fixed_l: Sequence[float],
        srv_speed_l: Sequence[float],
        alpha: float,
        om_alpha: float,
        dataset: float,
        *,
        update_cost: float = 0.0,
        busy_time: Optional[Sequence[float]] = None,
        objects: Optional[Sequence[float]] = None,
        tasks: Optional[Sequence[int]] = None,
        completed: Optional[Sequence[int]] = None,
        last_seen: Optional[Sequence[float]] = None,
        alive: Optional[Sequence[bool]] = None,
        trace: Optional[Sequence[bool]] = None,
        lost: Optional[Sequence[bool]] = None,
    ) -> None:
        n = len(spd)
        self.arrivals = arrivals
        self.arr_l = arr_l
        self.spd = spd
        self.srv_fixed = np.asarray(srv_fixed_l, dtype=np.float64)
        self.srv_speed = np.asarray(srv_speed_l, dtype=np.float64)
        self.srv_fixed_l = list(srv_fixed_l)
        self.srv_speed_l = list(srv_speed_l)
        self.alpha = alpha
        self.om_alpha = om_alpha
        self.dataset = dataset

        def own(values, dtype, fill):
            if values is None:
                return np.full(n, fill, dtype=dtype)
            return np.array(values, dtype=dtype)

        self.busy_time = own(busy_time, np.float64, 0.0)
        self.objects = own(objects, np.float64, 0.0)
        self.tasks = own(tasks, np.int64, 0)
        self.completed = own(completed, np.int64, 0)
        self.last_seen = own(last_seen, np.float64, 0.0)
        self.touched = np.zeros(n, dtype=bool)
        self.alive = own(alive, bool, True)
        self.trace = None if trace is None or not any(trace) else own(trace, bool, False)
        self.upd_work = update_cost * self.srv_speed
        self.upd_service = self.srv_fixed + (self.upd_work / self.srv_speed)
        self.busy_snap = np.zeros(n, dtype=np.float64)
        self.lost = None if lost is None else own(lost, bool, False)


class CommitBuffers:
    """Engine-owned out buffers one ``commit_batch`` span writes into.

    One instance per partitioning level ``pq`` (sub-query rows are
    ``cap * pq`` flat, submit order); reused across spans so compiled
    kernels can cache the raw pointers.  ``rtts`` is an *input*: the
    engine pre-draws the span's RTT samples in arrival order (the rng
    stream must advance exactly as the per-query path would).  ``res_*``
    report the *last* committed query's reserve map -- the one piece of
    front-end state the reference path leaves holding a prediction.
    ``stop_idx[0]`` is the index of the query a failed-server mask
    stopped the call at (-1 when it ran to the end); ``stop_g`` and
    ``stop_start_id[0]`` hold that query's pick: global server indices in
    point order, and the chosen start id.

    Row ``j`` belongs to the ``j``-th scheduled query, committed or
    dropped; ``q_sent[j]`` counts the pieces it submitted.  A committed
    query submitted all ``pq``.  A dropped query submitted fewer: its
    sub rows hold the submitted pieces first, in submit order, then its
    unsubmitted picks in the same LIFO order with NaN service, work,
    finish and start, and its ``q_total``/``q_mw``/``q_ms`` are NaN.
    """

    __slots__ = (
        "cap",
        "pq",
        "rtts",
        "sub_g",
        "sub_service",
        "sub_work",
        "sub_finish",
        "sub_start",
        "q_total",
        "q_mw",
        "q_ms",
        "q_sent",
        "res_g",
        "res_v",
        "res_n",
        "stop_idx",
        "stop_g",
        "stop_start_id",
    )

    def __init__(self, cap: int, pq: int) -> None:
        self.cap = cap
        self.pq = pq
        self.rtts = np.empty(cap, dtype=np.float64)
        self.sub_g = np.empty(cap * pq, dtype=np.int64)
        self.sub_service = np.empty(cap * pq, dtype=np.float64)
        self.sub_work = np.empty(cap * pq, dtype=np.float64)
        self.sub_finish = np.empty(cap * pq, dtype=np.float64)
        self.sub_start = np.empty(cap * pq, dtype=np.float64)
        self.q_total = np.empty(cap, dtype=np.float64)
        self.q_mw = np.empty(cap, dtype=np.float64)
        self.q_ms = np.empty(cap, dtype=np.float64)
        self.q_sent = np.empty(cap, dtype=np.int64)
        self.res_g = np.empty(pq, dtype=np.int64)
        self.res_v = np.empty(pq, dtype=np.float64)
        self.res_n = np.zeros(1, dtype=np.int64)
        self.stop_idx = np.full(1, -1, dtype=np.int64)
        self.stop_g = np.empty(pq, dtype=np.int64)
        self.stop_start_id = np.empty(1, dtype=np.float64)


class AdmissionGate:
    """Admission state and shed rows for one ``commit_batch`` call.

    The policy writes its scalars in before the call
    (:meth:`~repro.admission.base.AdmissionPolicy.export_bulk`) and reads
    the outcome back after it (``import_bulk``).  Per query the kernel
    computes ``backlog = max(busy) - now`` (clipped at 0), raises
    ``backlog_hwm``, accrues the token bucket once at ``now`` when
    ``bucket`` is set, and then sheds with reason code 0 (``queue-cap``,
    ``backlog >= queue_cap``) or 1 (``rate``, fewer than one token).  An
    admitted query raises ``max_admitted_backlog`` and spends one token.

    ``accrued_at`` is NaN until the bucket first accrues.  ``adm_idx``
    lists the admitted query indices in arrival order: admitted query
    ``j`` uses ``bufs.rtts[j]`` and fills row ``j`` of the out buffers.
    A query the failure stop ends the call at has passed the pre-check:
    it is the last entry of ``adm_idx`` and counts in ``n_admitted``, as
    a dropped query does (its token stays spent).
    ``shed_*`` hold one row per shed query, with the token count as the
    signal (NaN without a bucket).
    """

    #: shed reason names, indexed by the code the kernel emits.
    REASONS = ("queue-cap", "rate")

    __slots__ = (
        "queue_cap",
        "bucket",
        "rate",
        "burst",
        "tokens",
        "accrued_at",
        "backlog_hwm",
        "max_admitted_backlog",
        "n_admitted",
        "n_shed",
        "adm_idx",
        "shed_time",
        "shed_idx",
        "shed_reason",
        "shed_backlog",
        "shed_signal",
        "ext",
    )

    def __init__(self, cap: int) -> None:
        self.queue_cap = math.inf
        self.bucket = False
        self.rate = self.burst = self.tokens = self.accrued_at = math.nan
        self.backlog_hwm = self.max_admitted_backlog = 0.0
        self.n_admitted = self.n_shed = 0
        self.adm_idx = np.empty(cap, dtype=np.int64)
        self.shed_time = np.empty(cap, dtype=np.float64)
        self.shed_idx = np.empty(cap, dtype=np.int64)
        self.shed_reason = np.empty(cap, dtype=np.int64)
        self.shed_backlog = np.empty(cap, dtype=np.float64)
        self.shed_signal = np.empty(cap, dtype=np.float64)
        #: scratch for kernels (e.g. a compiled struct), keyed by kernel name.
        self.ext: dict[str, object] = {}


class UpdateStream:
    """A run's object updates, applied inside ``commit_batch``.

    Flat arrays built once per run from its ``updates=`` run data (see
    :func:`~repro.sim.fastpath.run_queries_fast`): update ``u`` precedes
    query ``q[u]`` (non-decreasing; updates after the last query hold the
    arrival count), happens at time ``t[u]`` and writes the object at ring
    position ``pos[u]``.  ``next`` is the first update not applied yet,
    and a call applies none at or past ``end``.

    Before query ``q`` of a call -- or at ``start`` in a call with no
    queries -- every pending update with ``q[u] <= q`` is applied, with
    :meth:`Deployment.apply_update
    <repro.cluster.deployment.Deployment.apply_update>`'s rule.  The
    holders are the first ``r`` alive nodes of ring 0 clockwise from the
    position (bisect-left on the node starts, then the walk that
    :meth:`~repro.core.ring.Ring.replica_holders` makes).  A holder whose
    server has failed skips the write; every other holder ``g`` takes one
    fixed-cost task in ``SimServer.submit``'s float ops: ``start =
    max(busy[g], t)``, then ``busy``, the gate's running max, busy time,
    objects, tasks and ``touched`` move.  ``n_written`` counts the
    updates that found a holder (the ledger charges ``r`` messages for
    each), and a traced holder adds one row to ``row_*``: server, the
    number of query sub-rows the call had emitted before it, time, start
    and finish.

    ``snap_due`` is set by each commit and cleared by the first update
    write after it, which first copies ``busy`` to ``plan.busy_snap``: the
    queues the last committed query's ``NodeStats`` sync read.
    """

    __slots__ = (
        "q",
        "t",
        "pos",
        "next",
        "end",
        "r",
        "snap_due",
        "n_written",
        "n_rows",
        "row_g",
        "row_at",
        "row_t",
        "row_start",
        "row_finish",
        "ext",
    )

    def __init__(self, q: Sequence[int], t: Sequence[float], pos: Sequence[float]) -> None:
        self.q = np.array(q, dtype=np.int64)
        self.t = np.array(t, dtype=np.float64)
        self.pos = np.array(pos, dtype=np.float64)
        if not (self.q.shape == self.t.shape == self.pos.shape) or self.q.ndim != 1:
            raise ValueError("UpdateStream: q, t and pos must be 1-D and of equal length")
        if self.q.size and (self.q[0] < 0 or (np.diff(self.q) < 0).any()):
            raise ValueError("UpdateStream: q must be non-negative and non-decreasing")
        self.next = 0
        self.end = len(self.q)
        self.r = 1
        self.snap_due = 0
        self.n_written = self.n_rows = 0
        self._alloc_rows(0)
        #: scratch for kernels (e.g. a compiled struct), keyed by kernel name.
        self.ext: dict[str, object] = {}

    def pending(self, start: int, nq: int) -> int:
        """How many updates a call over ``[start, start + nq)`` can apply."""
        last = start + nq - 1 if nq else start
        hi = int(np.searchsorted(self.q, last, side="right"))
        return max(0, min(self.end, hi) - self.next)

    def reserve_rows(self, cap: int) -> None:
        """Make room for at least *cap* trace rows."""
        if cap > len(self.row_g):
            self._alloc_rows(cap)

    def _alloc_rows(self, cap: int) -> None:
        self.row_g = np.empty(cap, dtype=np.int64)
        self.row_at = np.empty(cap, dtype=np.int64)
        self.row_t = np.empty(cap, dtype=np.float64)
        self.row_start = np.empty(cap, dtype=np.float64)
        self.row_finish = np.empty(cap, dtype=np.float64)


def check_commit_args(
    state: SweepState,
    entry: "PqEntry | None",
    plan: CommitPlan,
    bufs: "CommitBuffers | None",
    start: int,
    nq: int,
    gate: "AdmissionGate | None",
    failed: "np.ndarray | None",
    updates: "UpdateStream | None" = None,
) -> None:
    """Refuse a ``commit_batch`` call before any mirror moves.

    The compiled kernel reads and writes through raw pointers, so an
    index past ``plan.arrivals``, a span longer than the out buffers,
    buffers sized for another ``pq``, an update cursor past its stream or
    trace rows that cannot hold the call's writes would corrupt memory
    instead of raising; the python loop would fail part-way, after it
    had moved ``busy``.  Each check names the argument at fault.
    """
    if start < 0:
        raise ValueError(f"commit_batch: start={start} must be >= 0")
    if nq < 0:
        raise ValueError(f"commit_batch: nq={nq} must be >= 0")
    n_arr = len(plan.arrivals)
    if start + nq > n_arr:
        raise ValueError(
            f"commit_batch: start + nq = {start + nq} runs past the "
            f"{n_arr} arrivals in plan.arrivals"
        )
    if (entry is None) != (bufs is None) or (entry is None and nq):
        raise ValueError(
            "commit_batch: entry and bufs may be None only together, in a "
            "call with no queries (nq=0)"
        )
    if bufs is not None and nq > bufs.cap:
        raise ValueError(f"commit_batch: nq={nq} exceeds bufs.cap={bufs.cap}")
    if bufs is not None and bufs.pq != entry.pq:
        raise ValueError(
            f"commit_batch: bufs.pq={bufs.pq} does not match entry.pq={entry.pq}"
        )
    if gate is not None and gate.adm_idx.size < nq:
        raise ValueError(
            f"commit_batch: gate holds {gate.adm_idx.size} rows; nq={nq}"
        )
    if failed is not None and not (
        isinstance(failed, np.ndarray)
        and failed.dtype == np.bool_
        and failed.shape == (state.n,)
        and failed.flags.c_contiguous
    ):
        raise ValueError(
            "commit_batch: failed must be a C-contiguous bool array of "
            f"shape ({state.n},); got "
            f"{getattr(failed, 'dtype', type(failed).__name__)} "
            f"{getattr(failed, 'shape', '')}"
        )
    lost = plan.lost
    if lost is not None and not (
        isinstance(lost, np.ndarray)
        and lost.dtype == np.bool_
        and lost.shape == (state.n,)
        and lost.flags.c_contiguous
    ):
        raise ValueError(
            "commit_batch: plan.lost must be None or a C-contiguous bool "
            f"array of shape ({state.n},); got "
            f"{getattr(lost, 'dtype', type(lost).__name__)} "
            f"{getattr(lost, 'shape', '')}"
        )
    if updates is not None:
        n_upd = len(updates.q)
        if not 0 <= updates.next <= updates.end <= n_upd:
            raise ValueError(
                f"commit_batch: updates.next={updates.next} and "
                f"updates.end={updates.end} must satisfy "
                f"0 <= next <= end <= {n_upd}"
            )
        if updates.r < 1:
            raise ValueError(f"commit_batch: updates.r={updates.r} must be >= 1")
        need = updates.pending(start, nq) * updates.r
        if plan.trace is not None and len(updates.row_g) < need:
            raise ValueError(
                f"commit_batch: updates hold {len(updates.row_g)} trace rows; "
                f"the call may write {need} (reserve_rows first)"
            )


def assignment_at(
    state: SweepState, entry: PqEntry, est: "np.ndarray", start_id: float
) -> tuple[list[int], list[float]]:
    """Re-derive the final assignment at *start_id* (shared, exact).

    Binary search per query point; on multiple rings the ring with the
    strictly smallest estimate wins, first ring on ties -- byte-for-byte
    the reference path's closing ``assignment_at()``.  Returns
    ``(server_set, points)`` with *server_set* as global server indices.
    """
    fmod = math.fmod
    pts: list[float] = []
    for off in entry.offs:
        v = fmod(start_id + off, 1.0)
        if v < 0.0:
            v += 1.0
        if v >= 1.0:
            v -= 1.0
        pts.append(v)
    if state.single_ring:
        starts = state.ring_starts[0]
        last = len(starts) - 1
        g_list = [
            idx if (idx := bisect_right(starts, v) - 1) >= 0 else last
            for v in pts
        ]
    else:
        inf = math.inf
        g_list = []
        for v in pts:
            best_g = -1
            best_fin = inf
            for r in range(state.n_rings):
                starts = state.ring_starts[r]
                idx = bisect_right(starts, v) - 1
                if idx < 0:
                    idx = len(starts) - 1
                g = state.ring_lo[r] + idx
                fin_v = float(est[g])
                if fin_v < best_fin:
                    best_fin = fin_v
                    best_g = g
            g_list.append(best_g)
    return g_list, pts


class SweepKernel:
    """Base class of every scheduling kernel.

    Subclasses set ``name`` (the registry key) and implement either
    :meth:`select`, the per-query hook the default :meth:`commit_batch`
    calls, or :meth:`commit_batch` itself; either way bit-identical to
    the oracle.  A kernel that caches views derived from the engine's
    :class:`SweepState` rebuilds them when it is handed a new one.
    """

    name: ClassVar[str] = "abstract"
    #: one-line human description for ``repro kernels``.
    description: ClassVar[str] = ""

    def select(
        self, state: SweepState, entry: PqEntry, now: float
    ) -> tuple[list[int], list[float], float]:
        """Schedule one query: ``-> (server_set, points, start_id)``.

        *server_set* holds global server indices, one per sub-query point.
        The commit never reads ``state.est`` after the call -- it is a
        scratch buffer kernels may use (the oracle evaluates all n
        estimates into it).
        """
        raise NotImplementedError

    def commit_batch(
        self,
        state: SweepState,
        entry: "PqEntry | None",
        plan: CommitPlan,
        bufs: "CommitBuffers | None",
        start: int,
        nq: int,
        gate: "AdmissionGate | None" = None,
        failed: "np.ndarray | None" = None,
        updates: "UpdateStream | None" = None,
    ) -> int:
        """Fused sweep+commit over queries ``start .. start + nq``.

        Contract: on return the live mirrors (``state.busy``, ``plan.spd``,
        ``entry.Q`` and the plan's per-server accumulators) hold exactly
        the state the per-query reference path would have produced after
        the last scheduled query and the updates applied before it, and
        *bufs* holds the scheduled queries' chunk-buffer rows (sub-query
        rows in submit order, per-query totals, the last scheduled query's
        reserve map; ``res_*`` are left alone when nothing was scheduled).
        The caller guarantees a span-constant ``pq`` matching *entry* and
        ``bufs.rtts[:nq]`` pre-drawn in arrival order; the arguments are
        checked (:func:`check_commit_args`) before any mirror moves.
        Returns the number of scheduled queries: committed or dropped,
        each one out row and one RTT draw.

        With a *gate* each query first passes the admission pre-check
        (see :class:`AdmissionGate`); only admitted queries are scheduled,
        and they fill the out buffers densely in arrival order.

        *failed* is the failed-server mask (a bool array over the global
        server index), or None outside failure windows.  With a mask, a
        scheduled query whose pick touches a failed server is settled by
        its highest pick index ``i*`` on a failed server (the first failed
        piece ``Deployment.run_query`` pops).  When ``plan.lost`` flags
        ring 0's owner of point ``i*`` (bisect-right on ring 0's starts),
        the query drops here: it reserves every pick and submits pieces
        ``pq - 1 .. i* + 1`` with the commit's float ops, and its row says
        so (see :class:`CommitBuffers`).  Otherwise the call stops before
        the query: ``bufs.stop_idx[0]`` is its index (-1 when the call ran
        to the end) and ``bufs.stop_g`` / ``bufs.stop_start_id`` its
        pick, which the engine hands to the reference path's fall-back.
        The stopped query draws no RTT.  Updates skip failed servers.

        *updates* is the run's :class:`UpdateStream`: its pending updates
        are applied before the queries they precede (before the admission
        check), and at ``start`` in a call with ``nq == 0``, which may
        pass None for *entry* and *bufs*.

        The engine times this call as one opaque span: its wall is what
        the chunk accounting charges to scheduling, and ``repro profile``
        (:mod:`repro.obs.profiler`) reports it as the
        ``kernels.commit_batch`` span -- kernels must not do unrelated
        work here or that attribution lies.

        This default implementation is the reference python commit loop
        -- the same scalar float operations in the same order as
        ``Deployment.run_query``, ``Deployment.apply_update`` and
        ``roar_commit_batch`` in ``csrc/sweep.c`` (the three are pinned
        together by the differential tests).  Override it only with
        something bit-identical.
        """
        check_commit_args(state, entry, plan, bufs, start, nq, gate, failed, updates)
        if bufs is not None:
            bufs.stop_idx[0] = -1
        select = self.select
        busy_np = state.busy
        spd_np = plan.spd
        # plain-list shadows: the per-query updates are scalar float
        # arithmetic, which python floats do ~5x cheaper than numpy scalars
        busy_l = busy_np.tolist()
        spd_l = spd_np.tolist()
        bt_l = plan.busy_time.tolist()
        om_l = plan.objects.tolist()
        tasks_l = plan.tasks.tolist()
        cc_l = plan.completed.tolist()
        ls_l = plan.last_seen.tolist()
        touched: set[int] = set()
        srv_fixed_l = plan.srv_fixed_l
        srv_speed_l = plan.srv_speed_l
        fe_fixed = state.fe_fixed
        alpha = plan.alpha
        om_alpha = plan.om_alpha
        dataset = plan.dataset
        arr_l = plan.arr_l
        failed_l = failed.tolist() if failed is not None else None
        lost_l = (
            plan.lost.tolist() if failed is not None and plan.lost is not None else None
        )
        lo0 = state.ring_lo[0]
        starts0 = state.ring_starts[0]
        n0 = len(starts0)
        fmod = math.fmod
        gated = gate is not None
        # running max of the queue mirror: exact, because a commit or an
        # update only ever raises busy[g]
        bmax = max(busy_l) if gated else 0.0

        # the update stream: the n_due updates this call can apply, from
        # the cursor on, walked (u counts them) by this closure, which
        # advances the mirrors exactly as Deployment.apply_update advances
        # the servers
        u = n_due = 0
        snap_due = n_written = 0
        rows: list[tuple] = []
        if updates is not None:
            u0 = updates.next
            n_due = updates.pending(start, nq)
            window = slice(u0, u0 + n_due)
            uq = updates.q[window].tolist()
            ut = updates.t[window].tolist()
            upos = updates.pos[window].tolist()
            snap_due, r = updates.snap_due, updates.r
            alive_l = plan.alive.tolist()
            usvc_l = plan.upd_service.tolist()
            uwork_l = plan.upd_work.tolist()
            trace_l = plan.trace.tolist() if plan.trace is not None else None

        def apply_updates(q_bound: int, at: int) -> None:
            nonlocal u, bmax, snap_due, n_written
            while u < n_due and uq[u] <= q_bound:
                t = ut[u]
                i = bisect_left(starts0, upos[u])
                u += 1
                found = 0
                for j in chain(range(i, n0), range(i)):
                    g = lo0 + j
                    if not alive_l[g]:
                        continue
                    found += 1
                    if failed_l is None or not failed_l[g]:
                        if snap_due:
                            plan.busy_snap[:] = busy_np
                            snap_due = 0
                        b = busy_l[g]
                        s0 = b if b > t else t
                        svc = usvc_l[g]
                        f = s0 + svc
                        busy_l[g] = f
                        busy_np[g] = f
                        bt_l[g] += svc
                        om_l[g] += uwork_l[g]
                        tasks_l[g] += 1
                        touched.add(g)
                        if gated and f > bmax:
                            bmax = f
                        if trace_l is not None and trace_l[g]:
                            rows.append((g, at, t, s0, f))
                    if found == r:
                        break
                if found:
                    n_written += 1

        sg: list[int] = []
        ssv: list[float] = []
        swk: list[float] = []
        sf: list[float] = []
        sst: list[float] = []
        sg_append = sg.append
        ssv_append = ssv.append
        swk_append = swk.append
        sf_append = sf.append
        sst_append = sst.append
        q_total: list[float] = []
        q_mw: list[float] = []
        q_ms: list[float] = []
        q_sent: list[int] = []
        nan = math.nan
        res: dict[int, float] = {}
        if gated:
            queue_cap = gate.queue_cap
            bucket = gate.bucket
            rate = gate.rate
            burst = gate.burst
            tokens = gate.tokens
            accrued_at = gate.accrued_at
            hwm = gate.backlog_hwm
            max_adm = gate.max_admitted_backlog
            adm_idx: list[int] = []
            shed_rows: list[tuple] = []
        if nq:
            Q = entry.Q
            wd = entry.wd
            off0 = entry.off0
            pq = entry.pq
            rtt_l = bufs.rtts[:nq].tolist()
        j = 0  # scheduled queries so far: out rows, RTT draws

        for k in range(nq):
            q = start + k
            if u < n_due and uq[u] <= q:
                apply_updates(q, len(sg))
            now = arr_l[q]
            if gated:
                backlog = bmax - now
                if backlog < 0.0:
                    backlog = 0.0
                if backlog > hwm:
                    hwm = backlog
                if bucket:
                    # the policy accrues once per arrival (AIMD._accrue)
                    if accrued_at != accrued_at:  # NaN: first accrual
                        accrued_at = now
                    else:
                        elapsed = now - accrued_at
                        if elapsed > 0.0:
                            t = tokens + elapsed * rate
                            tokens = t if t < burst else burst
                            accrued_at = now
                if backlog >= queue_cap:
                    reason = 0
                elif bucket and tokens < 1.0:
                    reason = 1
                else:
                    reason = -1
                if reason >= 0:
                    signal = tokens if bucket else math.nan
                    shed_rows.append((now, q, reason, backlog, signal))
                    continue
                if backlog > max_adm:
                    max_adm = backlog
                if bucket:
                    tokens -= 1.0
                adm_idx.append(q)
            g_list, pts, start_id = select(state, entry, now)
            live = 0  # the lowest pick index the query submits
            if failed_l is not None:
                i_hit = pq - 1
                while i_hit >= 0 and not failed_l[g_list[i_hit]]:
                    i_hit -= 1
                if i_hit >= 0:
                    # the fall-back re-covers from ring 0's owner of the
                    # failed point; a flagged owner means it would raise
                    o = bisect_right(starts0, pts[i_hit]) - 1
                    if lost_l is None or not lost_l[lo0 + (o if o >= 0 else n0 - 1)]:
                        # the reference path's fall-back owns this query
                        bufs.stop_idx[0] = q
                        bufs.stop_g[:] = g_list
                        bufs.stop_start_id[0] = start_id
                        break
                    live = i_hit + 1
            rtt = rtt_l[j]
            j += 1

            # widths + reserve (FIFO over sub-queries, first occurrence
            # syncs the live queue, repeats accumulate)
            v = fmod(start_id + off0, 1.0)
            if v < 0.0:
                v += 1.0
            if v >= 1.0:
                v -= 1.0
            prev = v
            w_list = []
            res = {}
            res_get = res.get
            for i in range(pq):
                d = pts[i]
                w = fmod(d - prev, 1.0)
                if w < 0.0:
                    w += 1.0
                if w >= 1.0:
                    w -= 1.0
                w_list.append(w)
                prev = d
                g = g_list[i]
                spd_g = spd_l[g]
                service = fe_fixed + (w * dataset) / (
                    spd_g if spd_g > 1e-9 else 1e-9
                )
                base = res_get(g)
                if base is None:
                    base = busy_l[g]
                res[g] = (base if base > now else now) + service

            finish = now
            mw = 0.0
            ms = 0.0
            half = rtt / 2.0
            arr_t = now + half
            # submit + EWMA observe (LIFO: the reference path pops, and a
            # drop stops at its failed piece)
            for i in range(pq - 1, live - 1, -1):
                g = g_list[i]
                work = w_list[i] * dataset
                b = busy_l[g]
                wait = b - now
                if wait < 0.0:
                    wait = 0.0
                start_t = arr_t if arr_t > b else b
                service = srv_fixed_l[g] + work / srv_speed_l[g]
                f = start_t + service
                busy_l[g] = f
                if gated and f > bmax:
                    bmax = f
                bt_l[g] += service
                om_l[g] += work
                tasks_l[g] += 1
                cc_l[g] += 1
                if f > ls_l[g]:
                    ls_l[g] = f
                touched.add(g)
                sg_append(g)
                ssv_append(service)
                swk_append(work)
                sf_append(f)
                sst_append(start_t)
                eff = service - fe_fixed
                if eff > 0.0 and work > 0.0:
                    spd_l[g] = om_alpha * spd_l[g] + alpha * (work / eff)
                fh = f + half
                if fh > finish:
                    finish = fh
                if wait > mw:
                    mw = wait
                if service > ms:
                    ms = service
            for i in range(live - 1, -1, -1):
                # a drop's unsubmitted picks
                sg_append(g_list[i])
                ssv_append(nan)
                swk_append(nan)
                sf_append(nan)
                sst_append(nan)

            # write-through the final per-server values (only the last
            # value per server matters to the next query's estimates)
            for g in res:
                busy_np[g] = busy_l[g]
                s_g = spd_l[g]
                if spd_np[g] != s_g:
                    spd_np[g] = s_g
                    Q[g] = wd / s_g
            snap_due = 1

            if live:
                q_total.append(nan)
                q_mw.append(nan)
                q_ms.append(nan)
            else:
                q_total.append(finish - now)
                q_mw.append(mw)
                q_ms.append(ms)
            q_sent.append(pq - live)

        if not nq and u < n_due:
            apply_updates(start, 0)

        plan.busy_time[:] = bt_l
        plan.objects[:] = om_l
        plan.tasks[:] = tasks_l
        plan.completed[:] = cc_l
        plan.last_seen[:] = ls_l
        if touched:
            plan.touched[list(touched)] = True
        if updates is not None:
            updates.next = u0 + u
            updates.snap_due = snap_due
            updates.n_written = n_written
            updates.n_rows = n_rows = len(rows)
            if n_rows:
                rg, rat, rt, rs, rf = zip(*rows)
                updates.row_g[:n_rows] = rg
                updates.row_at[:n_rows] = rat
                updates.row_t[:n_rows] = rt
                updates.row_start[:n_rows] = rs
                updates.row_finish[:n_rows] = rf
        m = j * pq if nq else 0
        if nq:
            bufs.sub_g[:m] = sg
            bufs.sub_service[:m] = ssv
            bufs.sub_work[:m] = swk
            bufs.sub_finish[:m] = sf
            bufs.sub_start[:m] = sst
            bufs.q_total[:j] = q_total
            bufs.q_mw[:j] = q_mw
            bufs.q_ms[:j] = q_ms
            bufs.q_sent[:j] = q_sent
        if j:
            rn = len(res)
            bufs.res_n[0] = rn
            keys = list(res)
            bufs.res_g[:rn] = keys
            bufs.res_v[:rn] = [res[g] for g in keys]
        if gated:
            gate.tokens = tokens
            gate.accrued_at = accrued_at
            gate.backlog_hwm = hwm
            gate.max_admitted_backlog = max_adm
            gate.n_admitted = len(adm_idx)
            gate.adm_idx[: len(adm_idx)] = adm_idx
            n_shed = len(shed_rows)
            gate.n_shed = n_shed
            if n_shed:
                st, si, sr, sb, ss = zip(*shed_rows)
                gate.shed_time[:n_shed] = st
                gate.shed_idx[:n_shed] = si
                gate.shed_reason[:n_shed] = sr
                gate.shed_backlog[:n_shed] = sb
                gate.shed_signal[:n_shed] = ss
        return j
