"""The batched query execution path over a :class:`~repro.cluster.Deployment`.

``Deployment.run_query`` costs milliseconds of interpreter time per query:
it re-syncs every node's statistics, rebuilds owner views, and walks the
rotation sweep heap with a Python estimator closure.  This module runs
the same system with no per-query python on its hot path:

* **Always-fresh mirrors.**  Every quantity scheduling depends on lives in
  flat numpy arrays ordered by ring position: ``busy`` (live server
  queues), ``spd`` (EWMA speed estimates) and ``failed`` (the failed
  servers).  The next query's estimates are therefore always exact --
  freshness is what makes the batched schedule provably bit-identical.

* **One commit path.**  Between two cut points (callback actions, the
  chunk cap) the engine hands the kernel a whole chunk of queries at once
  through :meth:`~repro.kernels.base.SweepKernel.commit_batch`: the kernel
  applies the object updates due before each query, then runs sweep
  *and* commit -- widths, reserve, queue submit, EWMA observation,
  write-through -- for every query of the chunk, advancing the live
  mirrors in place and returning the per-sub-query rows in bulk.
  It is the only place a query is committed.  The default
  ``commit_batch`` is the reference python loop (so every kernel takes
  the seam); the compiled kernel fuses the whole chunk into one C call.
  The per-query scheduling decision inside it is a pluggable
  :class:`~repro.kernels.base.SweepKernel` selected by ``kernel=`` (see
  :mod:`repro.kernels`).

* **Chunked accounting.**  Writing ``SimServer``/``NodeStats`` objects,
  building columnar records, feeding listeners and the traffic ledger is
  deferred: the kernel advances per-server accumulator mirrors (busy
  time, objects, tasks, completions, last seen) in submission order, so
  even busy-time sums are bit-exact with updates interleaved, and each
  chunk's per-query columns are flushed straight from the kernel's out
  buffers.  Objects are materialised only where some consumer could
  observe intermediate state: before an action callback, a failure
  delegation, and at the end of the batch.

* **Drop, or stop, delegate, resume.**  Inside a failure window the
  engine passes the failed-server mask, and flags the ring-0 nodes whose
  dead run the fall-back cannot re-cover
  (:func:`~repro.core.failures.lost_nodes`, once per failure epoch).  A
  query whose pick touches a failed server then either commits as
  dropped inside ``commit_batch`` -- its first failed piece lands on a
  flagged run, where the fall-back would raise before drawing anything
  -- or stops the call, and the engine delegates it to the reference
  path (:meth:`Deployment.run_query
  <repro.cluster.deployment.Deployment.run_query>`), which owns the
  rng-consuming re-cover, and the seam resumes after it.  The kernel's
  pick is the decision the reference sweep would make, so the engine
  hands it over and the fall-back skips its own sweep.  A delegation
  costs O(servers it touches): it syncs only the picks' node stats
  (every other node's sync stays pending, as after a bulk chunk), and
  the engine re-reads only the servers ``run_query`` hands back as
  submitted to -- the live picks plus any fall-back replacements, also
  when the query dropped.  A callable ``pq_fn`` is evaluated once per
  query before the span, and each constant-``pq`` run goes through the
  seam.

* **Admission.**  Policies whose decisions need only the arrival time,
  the busiest-server backlog and their own token state (the queue cap,
  AIMD's token bucket) run inside the same ``commit_batch`` call through
  an :class:`~repro.kernels.base.AdmissionGate`.  A policy that feeds on
  per-query delays (``delay_gated``) is asked per query, and the seam
  commits one admitted query at a time.

* **Exact-time action queue.**  :class:`Action` schedules a callback
  *between two specific queries* (before ``arrival_times[index]``).  The
  engine materialises full object state before each callback -- so a
  mid-batch failure, membership change, or control tick sees precisely
  the state the per-query reference path would have produced, and is
  visible to the very next query.

* **Object updates as run data.**  A run's ``(time, position)`` writes
  arrive as ``updates=`` (the index of the query each precedes, and the
  ``(n, 2)`` rows), held as one :class:`~repro.kernels.base.UpdateStream`,
  and each callback carries its place in that stream
  (:attr:`Action.stream_pos`).  Updates cut nothing: the kernel applies
  them inside ``commit_batch`` with the replica-holder rule
  :meth:`Deployment.apply_update <repro.cluster.deployment.Deployment.
  apply_update>` uses; updates outside any query (before a callback,
  after the last query) go through a call with no queries
  (:meth:`_Engine._apply_updates`).

The batched path is only landable because it is *provably the same system*:
for equal seeds it produces bit-identical per-query server sets, latencies,
traces, statistics, and scheduler work counters as the per-query reference
path -- ``tests/test_fastpath.py`` holds that line.

Requires the deployment's front-end to run the default configuration
(``method="heap"``, no range adjustment, no splitting); other configurations
raise and should use :meth:`Deployment.run_queries`.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field
from itertools import groupby
from typing import TYPE_CHECKING, Callable, Optional, Sequence

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

from ..core.covertable import CoverTableCache, require_numpy
from ..core.failures import lost_nodes
from ..kernels.base import (
    AdmissionGate,
    CommitBuffers,
    CommitPlan,
    PqEntry,
    SweepKernel,
    SweepState,
    UpdateStream,
)
from ..kernels.registry import get_kernel
from ..telemetry.listeners import ChunkArrays
from .server import TaskRecord
from .workload import update_rows

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.deployment import Deployment

__all__ = [
    "Action",
    "ACTION_SCOPES",
    "BatchResult",
    "run_queries_fast",
    "run_queries_reference",
]

#: The most queries one ``commit_batch`` call (one accounting chunk)
#: takes; bounds the out-buffer memory.  The flush is O(chunk) numpy work,
#: so larger is mildly better.
CHUNK_CAP = 8192

#: How much of the deployment an action callback may have touched, from the
#: engine's point of view -- picks the cheapest sufficient mirror refresh.
ACTION_SCOPES = ("none", "busy", "values", "membership")


@dataclass
class Action:
    """A callback scheduled between two specific queries of a batch.

    Fires immediately before ``arrival_times[index]`` (an index of
    ``len(arrival_times)`` or beyond fires after the last query).  The
    engine flushes pending accounting and materialises exact object state
    first, so ``fn`` observes precisely what the reference path would
    show at that point in the arrival order.  ``fn`` receives ``time``
    and may return an ``int`` to change the partitioning level ``pq`` for
    subsequent queries (honoured when ``pq_fn`` is not a callable).

    ``stream_pos`` is the callback's place in the run's object-update
    stream (the ``updates=`` run data): the stream's updates before it
    are applied first, the rest after ``fn``.  It must agree with
    ``index`` -- the updates before the place precede queries at or
    before ``index``, the rest queries at or after it -- and the run
    refuses an action whose place does not.  Without updates it is 0.

    ``scope`` declares what ``fn`` may have mutated so the engine can
    refresh its mirrors minimally:

    * ``"none"``       -- nothing the engine mirrors (e.g. pure logging);
    * ``"busy"``       -- server queues/work counters and the stored
      partitioning level (e.g. object updates, set-pq with a possible
      in-flight repartition completing under the sim pump);
    * ``"values"``     -- per-server values: queues, failure flags, speed
      estimates, counters (e.g. fail/recover, estimate perturbation);
    * ``"membership"`` -- anything, including ring membership (default).
    """

    index: int
    time: float
    fn: Callable[[float], Optional[int]]
    scope: str = "membership"
    stream_pos: int = 0

    def __post_init__(self) -> None:
        if self.scope not in ACTION_SCOPES:
            raise ValueError(
                f"unknown action scope {self.scope!r}; pick one of {ACTION_SCOPES}"
            )
        if self.index < 0:
            raise ValueError("action index must be >= 0")
        if not callable(self.fn):
            raise TypeError(f"an action needs a callable fn, got {self.fn!r}")


@dataclass
class BatchResult:
    """Array-backed account of one batched run.

    ``latencies`` holds NaN for dropped queries (failure fall-back could not
    re-cover a dead range); ``query_ids`` holds -1 there.  A dropped query
    counts in ``dropped`` and in ``delegated``, whether the kernel dropped
    it or ``Deployment.run_query`` did.
    """

    arrivals: "np.ndarray"
    latencies: "np.ndarray"
    finishes: "np.ndarray"
    query_ids: "np.ndarray"
    pqs: "np.ndarray"
    completed: int
    dropped: int
    #: per-query server name tuples, populated when record_assignments=True:
    #: a bulk-committed query's picks in query-point order; a query run by
    #: ``Deployment.run_query`` names each server it submitted to once, in
    #: submission order; ``()`` for shed and dropped queries (wherever
    #: they dropped).
    assignments: Optional[list[tuple[str, ...]]]
    #: queries committed through the cover table vs. handed to the
    #: failure handling (delegated to the per-query reference path, or
    #: dropped in the kernel).
    fast_scheduled: int
    delegated: int
    wall_seconds: float
    #: committed queries per flushed accounting chunk (one per
    #: ``commit_batch`` call that committed any; cut at actions,
    #: delegations and the chunk cap; kernel drops cut nothing).
    chunk_sizes: list[int] = field(default_factory=list)
    #: callbacks fired from the exact-time queue during this run.
    actions_applied: int = 0
    #: queries refused by the admission controller (``latencies`` holds
    #: NaN and ``query_ids`` -1 there, like drops -- but sheds never
    #: reached the scheduler, and the per-shed reasons live in the
    #: controller's :class:`~repro.obs.events.ShedLog`).
    shed: int = 0

    def completed_latencies(self) -> "np.ndarray":
        return self.latencies[~np.isnan(self.latencies)]

    def mean_latency(self) -> float:
        done = self.completed_latencies()
        return float(done.mean()) if done.size else float("nan")

    def percentile_latency(self, q: float) -> float:
        done = self.completed_latencies()
        return float(np.percentile(done, q)) if done.size else float("nan")


def _stream_of(updates, n_q: int) -> UpdateStream:
    """A run's object updates (the ``updates=`` run data) as a fresh
    :class:`~repro.kernels.base.UpdateStream`.

    *updates* is ``None`` or a ``(q, rows)`` pair: the index of the query
    each update precedes (non-decreasing) and an ``(n, 2)`` float64 array
    of ``(time, position)`` rows.  Indices past the last query clip to
    the arrival count.
    """
    q, rows = updates if updates is not None else ((), ())
    rows = update_rows(rows)
    q = np.minimum(np.asarray(q, dtype=np.int64), n_q)
    return UpdateStream(q, rows[:, 0], rows[:, 1])


def _sorted_actions(actions, stream: UpdateStream, n_q: int) -> list[Action]:
    """The callbacks in firing order -- by index, then by place in
    *stream*; equal pairs keep caller order -- each checked against the
    stream: a place must agree with its action's index."""
    acts = list(actions or ())
    for a in acts:
        if not isinstance(a, Action):
            raise TypeError(f"actions must be Action instances, got {a!r}")
    acts.sort(key=lambda a: (a.index, a.stream_pos))
    q, n_upd = stream.q, len(stream.q)
    for a in acts:
        at, place = min(a.index, n_q), a.stream_pos
        if not (
            0 <= place <= n_upd
            and (place == 0 or q[place - 1] <= at)
            and (place == n_upd or q[place] >= at)
        ):
            raise ValueError(
                f"action at index {a.index} has stream_pos={place}, which "
                f"disagrees with its index: of the {n_upd} updates, those "
                f"before its place must precede queries at or before {at} "
                "and the rest queries at or after it"
            )
    return acts


class _Engine:
    """One batched run: mirrors, the action queue, and a pluggable
    :class:`~repro.kernels.base.SweepKernel` that schedules and commits
    every query through its ``commit_batch``."""

    def __init__(
        self,
        deployment: "Deployment",
        arrivals: "np.ndarray",
        pq_fn,
        record_assignments: bool,
        actions: Sequence[Action],
        kernel: SweepKernel,
        admission=None,
        updates=None,
    ) -> None:
        self.dep = deployment
        #: admission controller, or None (the default).  Every site below
        #: guards on ``is not None`` (and the seam then passes no gate), so
        #: an admission-free run takes exactly the pre-admission code
        #: path, bit for bit.
        self.admission = admission
        self.fe = deployment.frontend
        self.cfg = deployment.config
        self.network = deployment.network
        self.ledger = deployment.ledger
        self.log = deployment.log
        self.charge = self.cfg.charge_scheduling
        self.dataset = self.fe.dataset_size
        self.fe_fixed = self.fe.config.fixed_overhead
        self.alpha = self.fe.config.ewma_alpha
        self.one_minus_alpha = 1.0 - self.alpha
        self.pq_fn = pq_fn
        self.pq_override: Optional[int] = None
        self.kernel = kernel

        if deployment.cover_tables is None:
            deployment.cover_tables = CoverTableCache()
        self.cache: CoverTableCache = deployment.cover_tables

        n_q = len(arrivals)
        self.n_q = n_q
        #: the run's object updates, applied inside ``commit_batch``; the
        #: run cuts its spans only at the callbacks, each placed in it.
        self.stream = _stream_of(updates, n_q)
        self.callbacks = _sorted_actions(actions, self.stream, n_q)
        self.arrivals = arrivals
        self.arr_l = arrivals.tolist()
        self.latencies = np.full(n_q, np.nan, dtype=np.float64)
        self.finishes = np.full(n_q, np.nan, dtype=np.float64)
        self.query_ids = np.full(n_q, -1, dtype=np.int64)
        self.pqs = np.zeros(n_q, dtype=np.int64)
        self.assignments: Optional[list[tuple[str, ...]]] = (
            [] if record_assignments else None
        )

        self.completed = 0
        self.dropped = 0
        self.shed_n = 0
        self.fast_scheduled = 0
        self.delegated = 0
        self.actions_applied = 0
        self.chunk_sizes: list[int] = []

        #: NodeStats.busy_until reservations of the *last* scheduled query
        #: (bulk or delegated) -- the one piece of front-end state the
        #: reference path leaves holding a prediction rather than a synced
        #: server value.  The queues that query's sync read are in
        #: ``busy`` while ``stream.snap_due`` is set, else in
        #: ``plan.busy_snap`` (snapshotted before a delegated query, or by
        #: the kernel before the first update write after a commit).
        self.last_res: Optional[list[tuple[int, float]]] = None
        self.st_sync_pending = False

        #: per-pq commit out buffers (stable objects, so compiled kernels
        #: can cache raw pointers against them for the whole run).
        self.commit_bufs: dict[int, CommitBuffers] = {}
        self.bulk_cap = min(CHUNK_CAP, max(1, n_q))
        #: the kernel-facing admission state, when the policy's decisions
        #: can be made inside ``commit_batch`` (None otherwise, and always
        #: None without admission -- the seam then runs ungated).
        self.gate: Optional[AdmissionGate] = (
            AdmissionGate(self.bulk_cap)
            if admission is not None and admission.bulk_capable()
            else None
        )

        self._build()
        self.stream.r = self._replicas()

    # -- mirrors -----------------------------------------------------------
    def _build(self) -> None:
        """(Re)build every mirror from live objects (membership scope)."""
        dep, fe = self.dep, self.fe
        self.rings = dep.rings
        nodes_flat = []
        self.ring_lo: list[int] = []
        self.ring_hi: list[int] = []
        self.ring_starts: list[list[float]] = []
        for ring in self.rings:
            nodes = ring.nodes()
            self.ring_lo.append(len(nodes_flat))
            nodes_flat.extend(nodes)
            self.ring_hi.append(len(nodes_flat))
            self.ring_starts.append([nd.start for nd in nodes])
        self.nodes_flat = nodes_flat
        self.names_flat = [nd.name for nd in nodes_flat]
        self.index_of = {name: g for g, name in enumerate(self.names_flat)}
        self.stats_flat = [fe.stats_for(nd) for nd in nodes_flat]
        self.servers_flat = [dep.servers[nd.name] for nd in nodes_flat]
        self.multi_lane = any(s.cores != 1 for s in self.servers_flat)

        n = len(nodes_flat)
        servers_flat, stats_flat = self.servers_flat, self.stats_flat
        self.busy = np.array([s.busy_until for s in servers_flat], dtype=np.float64)
        self.spd = np.array(
            [st.speed_estimate for st in stats_flat], dtype=np.float64
        )
        #: the failed-server mask ``commit_batch`` stops on (passed only
        #: while ``any_failed``).
        self.failed = np.array([s.failed for s in servers_flat], dtype=bool)
        self.any_failed = bool(self.failed.any())
        self.est = np.empty(n, dtype=np.float64)

        #: the kernel-facing view of the mirrors; a fresh instance per
        #: membership epoch so kernels can cache derived data against it.
        self.state = SweepState(
            self.busy,
            self.est,
            self.fe_fixed,
            self.ring_lo,
            self.ring_hi,
            self.ring_starts,
        )

        #: the kernel-facing commit constants + mirrors (paired with
        #: ``state``: a fresh instance per membership epoch).  The kernel
        #: advances the per-server accumulators in place; materialise
        #: copies them back onto the objects.
        self.plan = plan = CommitPlan(
            self.arrivals,
            self.arr_l,
            self.spd,
            [s.fixed_overhead for s in servers_flat],
            [s.speed for s in servers_flat],
            self.alpha,
            self.one_minus_alpha,
            self.dataset,
            update_cost=self.cfg.update_cost,
            busy_time=[s.busy_time for s in servers_flat],
            objects=[s.objects_matched for s in servers_flat],
            tasks=[s.tasks_run for s in servers_flat],
            completed=[st.completed for st in stats_flat],
            last_seen=[st.last_seen for st in stats_flat],
            alive=[nd.alive for nd in nodes_flat],
            trace=[s.keep_trace for s in servers_flat],
        )
        self.bt, self.om, self.tasks = plan.busy_time, plan.objects, plan.tasks
        self.cc, self.ls = plan.completed, plan.last_seen
        self.touched, self.alive = plan.touched, plan.alive
        self.trace_any = plan.trace is not None

        self.tables: dict[int, PqEntry] = {}
        self.p_store_cur = dep.p_store
        self.qid_last = fe._query_counter
        self._mark_lost()

    def _mark_lost(self) -> None:
        """Flag (``plan.lost``) the ring-0 nodes whose dead run the
        fall-back cannot re-cover at the stored partitioning level: a
        query whose first failed piece lands there drops inside
        ``commit_batch``.  None outside failure windows."""
        lost = None
        if self.any_failed:
            lost = np.zeros(len(self.nodes_flat), dtype=bool)
            # ring 0 comes first in the flat order
            lost[lost_nodes(self.rings[0], self.p_store_cur, self.fe.config.failure_delta)] = True
        self.plan.lost = lost

    def _refresh_busy(self) -> bool:
        """Re-read server queues *and* execution counters (a "busy"-scoped
        action submits work, which moves busy_time/tasks_run/objects too).
        Also re-reads p_store: any action may pump the discrete-event
        simulation, which can complete an in-flight repartition.  Returns
        whether p_store moved (the lost flags then need a refresh)."""
        self.busy[:] = [s.busy_until for s in self.servers_flat]
        self.bt[:] = [s.busy_time for s in self.servers_flat]
        self.om[:] = [s.objects_matched for s in self.servers_flat]
        self.tasks[:] = [s.tasks_run for s in self.servers_flat]
        p_store = self.dep.p_store
        moved = p_store != self.p_store_cur
        self.p_store_cur = p_store
        return moved

    def _refresh_values(self) -> None:
        self._refresh_busy()
        self.spd[:] = [st.speed_estimate for st in self.stats_flat]
        self.failed[:] = [s.failed for s in self.servers_flat]
        self.any_failed = bool(self.failed.any())
        self.alive[:] = [nd.alive for nd in self.nodes_flat]
        self.cc[:] = [st.completed for st in self.stats_flat]
        self.ls[:] = [st.last_seen for st in self.stats_flat]
        for entry in self.tables.values():
            np.divide(entry.wd, self.spd, out=entry.Q)
        self._mark_lost()

    # -- accounting ----------------------------------------------------------
    def _emit_records(self, qqid, qnow, fr, qsched, qtotal, pq, qrtt, qmw, qms) -> None:
        """Land one chunk's per-query telemetry as columns.

        The ``q*`` arguments are equal-length per-query float64/int64
        arrays (the committed queries' RTTs, max waits and max services
        among them); they append to the deployment's columnar logs in a
        handful of array copies -- zero per-query python.  Chunk
        listeners receive the arrays directly (one ``observe_chunk`` call
        per flushed chunk).
        """
        dep = self.dep
        nq = len(qnow)
        qpq = np.full(nq, pq, dtype=np.int64)
        log_start = self.log.n_records
        self.log.append_columns(qqid, qnow, fr, qpq, qpq, qsched)
        dep.breakdowns.append_columns(qsched, qrtt, qmw, qms, qtotal)

        if dep.chunk_listeners:
            chunk = ChunkArrays(
                query_ids=qqid,
                arrivals=qnow,
                finishes=fr,
                pqs=qpq,
                subqueries=qpq,
                scheduling=qsched,
                network=qrtt,
                queueing=qmw,
                service=qms,
                total=qtotal,
            )
            for chunk_listener in dep.chunk_listeners:
                chunk_listener.observe_chunk(chunk, log_start, nq)

    def _emit_traces(self, bufs, qqid, qnow, pq) -> None:
        """Append one ``commit_batch`` call's tasks to the traced servers.

        The scheduled queries' sub-query rows come from *bufs* (submit
        order, *pq* rows per query, ids *qqid*, arrivals *qnow*; a
        dropped query's unsubmitted picks are skipped); the update rows
        the kernel wrote to the stream are merged in where they were
        submitted, so each trace stays in submission order.
        """
        servers_flat = self.servers_flat
        nq = 0 if qnow is None else len(qnow)
        m = nq * pq
        if m:
            sg_l = bufs.sub_g[:m].tolist()
            sst_l = bufs.sub_start[:m].tolist()
            sf_l = bufs.sub_finish[:m].tolist()
            swk_l = bufs.sub_work[:m].tolist()
            sent_l = bufs.q_sent[:nq].tolist()
            qid_l = qqid.tolist()
            rtt_l = bufs.rtts[:nq].tolist()
            arr_t = [now + rtt / 2.0 for now, rtt in zip(qnow.tolist(), rtt_l)]
        stream = self.stream
        nr = stream.n_rows
        ug, uat, ut, us, uf = (
            a[:nr].tolist()
            for a in (
                stream.row_g,
                stream.row_at,
                stream.row_t,
                stream.row_start,
                stream.row_finish,
            )
        )
        upd_work = self.plan.upd_work.tolist() if nr else None
        u = 0
        for j in range(m + 1):
            # the update rows submitted before query sub-row j
            while u < nr and uat[u] == j:
                g = ug[u]
                servers_flat[g].trace.append(TaskRecord(-1, ut[u], us[u], uf[u], upd_work[g]))
                u += 1
            if j == m:
                break
            server = servers_flat[sg_l[j]]
            if server.keep_trace:
                k = j // pq
                if j - k * pq < sent_l[k]:
                    server.trace.append(TaskRecord(qid_l[k], arr_t[k], sst_l[j], sf_l[j], swk_l[j]))

    def _materialise(self, sync: bool = True) -> None:
        """Write exact object state (servers + node stats) from the mirrors.

        ``sync=False`` leaves a pending ``NodeStats.busy_until`` sync
        unwritten; a delegated query's own sync supersedes it.
        """
        self.fe._query_counter = self.qid_last
        idx = np.flatnonzero(self.touched)
        if idx.size:
            servers_flat, stats_flat = self.servers_flat, self.stats_flat
            for g, busy, bt, tasks, om, spd, cc, ls in zip(
                idx.tolist(),
                self.busy[idx].tolist(),
                self.bt[idx].tolist(),
                self.tasks[idx].tolist(),
                self.om[idx].tolist(),
                self.spd[idx].tolist(),
                self.cc[idx].tolist(),
                self.ls[idx].tolist(),
            ):
                server = servers_flat[g]
                server._lane_busy_until[0] = busy
                server.busy_time = bt
                server.tasks_run = tasks
                server.objects_matched = om
                st = stats_flat[g]
                st.speed_estimate = spd
                st.completed = cc
                st.last_seen = ls
            self.touched[:] = False
        # NodeStats.busy_until parity: after the last scheduled query, every
        # node reads the server value it synced (the queues as they stood
        # before any later update) except that query's reservations,
        # which keep the reserve prediction (reference-path behaviour).
        if sync and self.st_sync_pending and self.last_res is not None:
            synced = (self.busy if self.stream.snap_due else self.plan.busy_snap).tolist()
            for g, st in enumerate(self.stats_flat):
                st.busy_until = synced[g]
            for g, val in self.last_res:
                self.stats_flat[g].busy_until = val
            self.st_sync_pending = False
            self.stream.snap_due = 0

    # -- actions -----------------------------------------------------------
    def _fire(self, action: Action) -> None:
        """Fire one callback at its place in the update stream: the updates
        before it first, then the callback on materialised state.  The
        updates after its place land with the next kernel call."""
        self._drain(min(action.index, self.n_q), action.stream_pos)
        self._materialise()
        new_pq = action.fn(action.time)
        if new_pq is not None:
            self.pq_override = int(new_pq)
        if action.scope == "membership":
            self._build()
        elif action.scope == "values":
            self._refresh_values()
        elif action.scope == "busy" and self._refresh_busy():
            self._mark_lost()
        self.stream.r = self._replicas()
        self.actions_applied += 1

    def _replicas(self) -> int:
        """Replica holders per object update (``Deployment.apply_update``'s r)."""
        dep = self.dep
        return max(1, round(dep.n / dep.p_store))

    def _drain(self, start: int, end: int) -> None:
        """Bound the update stream at *end* and apply its pending updates
        that precede query *start*, if there are any."""
        stream = self.stream
        stream.end = end
        if stream.next < end and stream.q[stream.next] <= start:
            self._apply_updates(start)

    def _apply_updates(self, start: int) -> None:
        """Apply the pending updates at *start* through a ``commit_batch``
        call with no queries: the updates before a callback, before a
        query the engine admits itself, and after the last query."""
        stream = self.stream
        if self.trace_any:
            stream.reserve_rows(stream.pending(start, 0) * stream.r)
        self.kernel.commit_batch(
            self.state,
            None,
            self.plan,
            None,
            start,
            0,
            None,
            self.failed if self.any_failed else None,
            stream,
        )
        self._settle_updates()

    def _settle_updates(self, bufs=None, qqid=None, qnow=None, pq=0) -> None:
        """After a ``commit_batch`` call: charge its update messages to the
        ledger and write its tasks to the traced servers (*qqid*, *qnow*:
        the scheduled queries, None when there are none)."""
        stream = self.stream
        if stream.n_written:
            self.ledger.record_update(stream.r * stream.n_written)
        if self.trace_any:
            self._emit_traces(bufs, qqid, qnow, pq)

    # -- tables ------------------------------------------------------------
    def _table_for(self, pq: int) -> PqEntry:
        entry = self.tables.get(pq)
        if entry is None:
            table = self.cache.get(self.rings, pq)
            for lo, hi, rt in zip(self.ring_lo, self.ring_hi, table.ring_tables):
                if self.names_flat[lo:hi] != [
                    n.name for n in rt.nodes
                ]:  # pragma: no cover
                    raise RuntimeError(
                        "ring structure changed mid-batch; schedule membership "
                        "edits through the action queue, not around it"
                    )
            entry = PqEntry(table, pq, self.dataset, self.spd)
            self.tables[pq] = entry
        return entry

    def _bufs_for(self, pq: int) -> CommitBuffers:
        bufs = self.commit_bufs.get(pq)
        if bufs is None:
            bufs = CommitBuffers(self.bulk_cap, pq)
            self.commit_bufs[pq] = bufs
        return bufs

    # -- the run -----------------------------------------------------------
    def run(self) -> BatchResult:
        """Drive the batch as spans between cut points.

        A span is a maximal run of queries with no callback inside it;
        updates do not cut it, because the kernel applies the update
        stream inside ``commit_batch``.  Every span goes through the
        kernel's sweep+commit seam (:meth:`_run_seam`) with the stream
        bounded at the next callback's place in it; inside a failure
        window the seam stops at each query that touches a failed server,
        :meth:`_delegate` hands it to the reference path, and the seam
        resumes after it.
        """
        wall_start = time.perf_counter()
        n_q = self.n_q
        cbs = self.callbacks
        n_cb = len(cbs)
        n_upd = len(self.stream.q)
        ci = 0
        pos = 0
        while pos < n_q:
            while ci < n_cb and cbs[ci].index <= pos:
                self._fire(cbs[ci])
                ci += 1
            if ci < n_cb:
                end = min(n_q, cbs[ci].index)
                self.stream.end = cbs[ci].stream_pos
            else:
                end = n_q
                self.stream.end = n_upd
            self._run_seam(pos, end)
            pos = end
        while ci < n_cb:
            self._fire(cbs[ci])
            ci += 1
        self._drain(n_q, n_upd)
        self._materialise()

        wall = time.perf_counter() - wall_start
        return BatchResult(
            arrivals=self.arrivals,
            latencies=self.latencies,
            finishes=self.finishes,
            query_ids=self.query_ids,
            pqs=self.pqs,
            completed=self.completed,
            dropped=self.dropped,
            assignments=self.assignments,
            fast_scheduled=self.fast_scheduled,
            delegated=self.delegated,
            wall_seconds=wall,
            chunk_sizes=self.chunk_sizes,
            actions_applied=self.actions_applied,
            shed=self.shed_n,
        )

    # -- the seam ----------------------------------------------------------
    def _run_seam(self, span_start: int, span_end: int) -> None:
        """Process ``[span_start, span_end)``, cut into constant-``pq`` runs.

        A callable ``pq_fn`` is evaluated once per query, in arrival
        order, before the span; otherwise the whole span shares the
        action-set or fixed level.
        """
        if callable(self.pq_fn):
            pq_fn, default = self.pq_fn, self.cfg.p
            pqs = [pq_fn(now) or default for now in self.arr_l[span_start:span_end]]
            pos = span_start
            for pq, run in groupby(pqs):
                end = pos + sum(1 for _ in run)
                self._commit_run(pos, end, pq)
                pos = end
        else:
            pq = self.pq_override if self.pq_override is not None else self.pq_fn
            self._commit_run(span_start, span_end, pq or self.cfg.p)

    def _commit_run(self, pos: int, end: int, pq: int) -> None:
        """Commit ``[pos, end)`` at partitioning level *pq*.

        Chunks of up to :data:`CHUNK_CAP` queries go to ``commit_batch``
        (:meth:`_commit_chunk`).  A policy that is not
        :meth:`~repro.admission.base.AdmissionPolicy.bulk_capable` keeps
        its per-query ``admit``/``observe`` hooks: the engine applies the
        updates before each query, admits it itself, off the
        busiest-server backlog of the queue mirror, and drives the seam
        one admitted query at a time.  After the run,
        sibling pq tables are re-derived from the speed mirror the kernel
        advanced in place (elementwise division is pure, so a full
        recompute matches the scatter updates bit-wise).
        """
        if pq < self.p_store_cur - 1e-9:
            self._materialise()
            raise ValueError(
                f"pq={pq} below stored partitioning level "
                f"{self.p_store_cur}; reconfigure first (Section 4.5)"
            )
        entry = self._table_for(pq)
        bufs = self._bufs_for(pq)
        admission = self.admission
        if admission is None or self.gate is not None:
            # a stop wastes the chunk's unused RTT pre-draws, so inside a
            # failure window chunks start at one query and double while
            # calls run to their end
            step = 1 if self.any_failed else bufs.cap
            while pos < end:
                nq = min(end - pos, step)
                nxt = self._commit_chunk(pos, nq, pq, entry, bufs)
                step = min(2 * step, bufs.cap) if nxt == pos + nq else 1
                pos = nxt
        else:
            arr_l, busy = self.arr_l, self.busy
            u_end = self.stream.end
            while pos < end:
                # the updates before this query land before its admission
                self._drain(pos, u_end)
                now = arr_l[pos]
                backlog = float(busy.max()) - now
                if backlog < 0.0:
                    backlog = 0.0
                if admission.admit(pos, now, backlog) is None:
                    pos = self._commit_chunk(pos, 1, pq, entry, bufs)
                    continue
                self.pqs[pos] = pq
                self.shed_n += 1
                if self.assignments is not None:
                    self.assignments.append(())
                pos += 1
        for tb in self.tables.values():
            if tb is not entry:
                np.divide(tb.wd, self.spd, out=tb.Q)

    def _commit_chunk(
        self, pos: int, nq: int, pq: int, entry: PqEntry, bufs: CommitBuffers
    ) -> int:
        """One ``commit_batch`` call over ``[pos, pos + nq)``; returns the
        index to resume at.

        The chunk's RTTs are pre-drawn in arrival order.  A gate (sheds
        draw no RTT) or a failed-server mask (the stopped query draws
        none either) can leave some unused, so then the network rng is
        snapshotted first and, after the call, rewound and re-drawn once
        per scheduled query (a drop draws one too): the stream advances
        draw for draw as on the reference path.  The scheduled queries
        are flushed straight from the out buffers; a stopped query then
        goes to :meth:`_delegate`.
        """
        gate = self.gate
        failed = self.failed if self.any_failed else None
        network = self.network
        if gate is not None:
            self.admission.export_bulk(gate)
        snapshot = (
            network.rng.getstate() if gate is not None or failed is not None else None
        )
        bufs.rtts[:nq] = network.sample_rtts(nq)
        stream = self.stream
        if self.trace_any:
            stream.reserve_rows(stream.pending(pos, nq) * stream.r)
        t0 = time.perf_counter()
        n = self.kernel.commit_batch(
            self.state, entry, self.plan, bufs, pos, nq, gate, failed, stream
        )
        wall = time.perf_counter() - t0
        seen = self._close_chunk(pos, nq, n, pq, wall, entry, bufs, snapshot)
        if seen == nq:
            return pos + nq
        stop = pos + seen
        self._delegate(
            stop,
            self.arr_l[stop],
            pq,
            entry,
            bufs.stop_g.tolist(),
            float(bufs.stop_start_id[0]),
        )
        return stop + 1

    def _close_chunk(
        self,
        pos: int,
        nq: int,
        n: int,
        pq: int,
        chunk_wall: float,
        entry: PqEntry,
        bufs: CommitBuffers,
        snapshot,
    ) -> int:
        """Settle one ``commit_batch`` call: fix the rng stream, hand a
        gate's outcome to the policy, flush the *n* scheduled queries.
        Returns how many of the chunk's queries the call settled (the
        stopped query, if any, is the next one)."""
        stop = int(bufs.stop_idx[0])
        seen = nq if stop < 0 else stop - pos
        if n < nq and snapshot is not None:
            self.network.rng.setstate(snapshot)
            self.network.sample_rtts(n)
        if self.gate is not None:
            self.admission.import_bulk(self.gate)
            self.shed_n += seen - n
        qqid, qnow = self._flush_bulk(pos, seen, n, pq, chunk_wall, entry, bufs)
        self._settle_updates(bufs, qqid, qnow, pq)
        if n:
            rn = int(bufs.res_n[0])
            self.last_res = list(
                zip(bufs.res_g[:rn].tolist(), bufs.res_v[:rn].tolist())
            )
            self.st_sync_pending = True
        return seen

    def _flush_bulk(
        self,
        pos: int,
        nq: int,
        n_rows: int,
        pq: int,
        chunk_wall: float,
        entry: PqEntry,
        bufs: CommitBuffers,
    ) -> tuple:
        """Account one chunk straight from the kernel's out buffers;
        returns the scheduled queries' ids and arrival times (None, None
        when it scheduled none).

        The kernel has already advanced every per-server mirror, so this
        writes per-query columns only.  Per-query ``scheduling_delay`` is
        the chunk's kernel wall time amortised over its committed queries
        (the fused call does not observe per-query boundaries; with
        ``charge_scheduling`` the amortised value is what lands in the
        latency).

        Of the chunk's *nq* queries the first *n_rows* rows of the out
        buffers belong to the scheduled ones; without a gate that is all
        of them, in order.  Gated chunks scatter by the gate's admitted
        indices and leave shed slots as shed: NaN latency, ``-1`` id, the
        recorded ``pq``, and ``()`` assignments.  A row that submitted
        fewer than *pq* pieces is a dropped query (:meth:`_settle_drops`):
        it takes a query id, the front-end work counters and its messages,
        but no log row.
        """
        self.pqs[pos : pos + nq] = pq
        sent = bufs.q_sent[:n_rows]
        done = sent == pq
        n_adm = int(np.count_nonzero(done))
        if self.assignments is not None:
            self.assignments.extend(self._bulk_assignments(bufs, pos, nq, n_rows, pq, done))
        if n_rows == 0:
            return None, None
        gated = self.gate is not None
        rows = self.gate.adm_idx[:n_rows] if gated else slice(pos, pos + n_rows)
        qnow = self.arrivals[rows]
        qid0 = self.qid_last
        qqid = np.arange(qid0 + 1, qid0 + n_rows + 1, dtype=np.int64)
        self.qid_last = qid0 + n_rows

        fe = self.fe
        fe.total_iterations += n_rows * entry.iterations
        fe.total_estimates += n_rows * entry.estimates
        fe.queries_scheduled += n_rows
        fe._query_counter = self.qid_last
        self.dep.scheduling_wallclock += chunk_wall
        self.ledger.record_query(n_rows * pq)
        cols = (qnow, qqid, bufs.q_total[:n_rows], bufs.rtts[:n_rows],
                bufs.q_mw[:n_rows], bufs.q_ms[:n_rows])
        if n_adm == n_rows:
            self.ledger.record_result(n_rows * pq)
        else:
            self.ledger.record_result(int(sent.sum()))
            self._settle_drops(bufs, sent, pq)
            if not gated:
                rows = np.arange(pos, pos + n_rows)
            rows = rows[done]
            cols = tuple(a[done] for a in cols)
        if n_adm == 0:
            return qqid, qnow
        cnow, cqid, qtotal, qrtt, qmw, qms = cols

        sched_each = chunk_wall / n_adm
        if self.charge:
            qtotal = qtotal + sched_each
        fr = cnow + qtotal
        delay = fr - cnow
        self.latencies[rows] = delay
        self.finishes[rows] = fr
        self.query_ids[rows] = cqid
        if gated:
            # the same (arrival, total) pairs the per-query path observes
            self.admission.observe_chunk(cnow, qtotal)
        elif self.admission is not None:
            # the one-query drive: the policy's own per-query hook
            self.admission.observe(float(cnow[0]), float(qtotal[0]))
        self._emit_records(
            cqid, cnow, fr, np.full(n_adm, sched_each), qtotal, pq, qrtt, qmw, qms
        )
        self.completed += n_adm
        self.fast_scheduled += n_adm
        self.chunk_sizes.append(n_adm)
        return qqid, qnow

    def _settle_drops(self, bufs, sent, pq) -> None:
        """Count the queries the kernel dropped, and leave each of their
        unsubmitted picks one more ``NodeStats.outstanding``: the reserve
        counted every pick, and only the submitted pieces completed."""
        drops = np.flatnonzero(sent != pq)
        n_drop = len(drops)
        picks = bufs.sub_g[: len(sent) * pq].reshape(-1, pq)[drops]
        unsent = picks[np.arange(pq) >= sent[drops, None]]
        stats_flat = self.stats_flat
        counts = np.bincount(unsent)
        for g in np.flatnonzero(counts).tolist():
            stats_flat[g].outstanding += int(counts[g])
        self.dropped += n_drop
        self.delegated += n_drop
        self.log.dropped += n_drop

    def _bulk_assignments(self, bufs, pos, nq, n_rows, pq, done) -> list:
        """The chunk's per-query server names, ``()`` for shed and dropped
        queries."""
        names = self.names_flat
        # sub rows are in submit (LIFO) order; assignments record the
        # selection (point) order, so reverse each query's row
        rows = bufs.sub_g[: n_rows * pq].reshape(n_rows, pq)[:, ::-1].tolist()
        picked = [
            tuple(names[g] for g in row) if ok else ()
            for row, ok in zip(rows, done.tolist())
        ]
        if n_rows == nq:
            return picked
        out: list[tuple[str, ...]] = [()] * nq
        for slot, sel in zip((self.gate.adm_idx[:n_rows] - pos).tolist(), picked):
            out[slot] = sel
        return out

    def _delegate(
        self,
        q_i: int,
        now: float,
        pq: int,
        entry: PqEntry,
        g_list: list[int],
        start_id: float,
    ) -> None:
        """Route one failure-window query through the reference path.

        ``commit_batch`` stopped at this query because its pick touches a
        failed server.  The pick (*g_list*, *start_id*) is the decision
        the reference sweep would make on this state, so it is handed
        over and the reference path does not sweep again.

        The cost is O(servers the query touches), not O(fleet):
        :meth:`Deployment.run_query
        <repro.cluster.deployment.Deployment.run_query>` syncs only the
        picked nodes' ``NodeStats.busy_until``, and every other node's
        sync stays pending here, as after a bulk chunk (``plan.busy_snap``:
        the queues before the query; ``last_res``: the picks'
        reservations).
        Afterwards only the servers the query submitted to (its live
        picks plus any fall-back replacements, also when it dropped) are
        re-read into the mirrors and into each table's ``Q``.
        """
        self._materialise(sync=False)
        self.plan.busy_snap[:] = self.busy
        self.stream.snap_due = 0
        nodes = self.nodes_flat
        pick = (
            [nodes[g] for g in g_list],
            start_id,
            entry.iterations,
            entry.estimates,
        )
        dep = self.dep
        record = dep.run_query(now, pq, pick)
        self.delegated += 1
        stats_flat = self.stats_flat
        self.last_res = [(g, stats_flat[g].busy_until) for g in g_list]
        self.st_sync_pending = True
        executed = tuple(dict.fromkeys(dep.last_submitted))
        self._reread([self.index_of[name] for name in executed])
        self.qid_last = self.fe._query_counter
        self.pqs[q_i] = pq
        if record is None:
            self.dropped += 1
        else:
            self.completed += 1
            self.query_ids[q_i] = record.query_id
            self.finishes[q_i] = record.finish
            self.latencies[q_i] = record.delay
            if self.admission is not None:
                self.admission.observe(now, record.delay)
        if self.assignments is not None:
            self.assignments.append(executed if record is not None else ())

    def _reread(self, idx: list[int]) -> None:
        """Re-read the servers at flat indices *idx* (and their node stats)
        into the mirrors, and re-derive every table's ``Q`` there
        (elementwise, so the same bits as a full recompute)."""
        servers = [self.servers_flat[g] for g in idx]
        stats = [self.stats_flat[g] for g in idx]
        self.busy[idx] = [s.busy_until for s in servers]
        self.bt[idx] = [s.busy_time for s in servers]
        self.om[idx] = [s.objects_matched for s in servers]
        self.tasks[idx] = [s.tasks_run for s in servers]
        self.spd[idx] = [st.speed_estimate for st in stats]
        self.cc[idx] = [st.completed for st in stats]
        self.ls[idx] = [st.last_seen for st in stats]
        spd = self.spd[idx]
        for tb in self.tables.values():
            tb.Q[idx] = tb.wd / spd


def _check_frontend(deployment: "Deployment") -> None:
    fecfg = deployment.frontend.config
    if fecfg.method != "heap" or fecfg.adjust_ranges or fecfg.max_splits > 0:
        raise ValueError(
            "the batched path supports the default front-end configuration "
            "(method='heap', adjust_ranges=False, max_splits=0); use "
            "Deployment.run_queries for other configurations"
        )


def run_queries_fast(
    deployment: "Deployment",
    arrival_times: Sequence[float],
    pq_fn: Callable[[float], int] | int | None = None,
    record_assignments: bool = False,
    actions: Sequence[Action] | None = None,
    kernel: SweepKernel | str | None = None,
    admission=None,
    updates=None,
) -> BatchResult:
    """Run a whole arrival trace through the batched path.

    Mirrors :meth:`Deployment.run_queries` (including per-query ``pq_fn``
    support) and leaves the deployment in the same state the reference path
    would have.  *actions* schedules callbacks at exact query indices; see
    :class:`Action`.  *updates* is the run's object-update stream, a
    ``(q, rows)`` pair of query indices and an ``(n, 2)`` array of
    ``(time, position)`` rows (each update lands before query ``q``, with
    :meth:`Deployment.apply_update <repro.cluster.deployment.Deployment.
    apply_update>`'s rule); each action's ``stream_pos`` places it in
    that stream.  *kernel* picks the scheduling kernel by registry name
    (or instance); every kernel is bit-identical to the reference path
    (see :mod:`repro.kernels`).  Failure-window queries delegate to the
    per-query reference path, so fall-back semantics stay exact
    everywhere; the kernel's pick is handed to the fall-back, which then
    does not sweep again.

    *admission* installs an admission controller at the arrival seam: a
    policy name/spec, an :class:`~repro.admission.base.AdmissionPolicy`
    instance, or ``None``/``"none"`` for accept-all.  Passthrough specs
    resolve to ``None`` before the engine sees them, so the default run
    is bit-identical to the pre-admission engine.  Policies whose
    decisions depend only on the arrival time, the busiest-server backlog
    and their own token state (``aimd``, or a queue cap alone) are made
    inside the kernel's ``commit_batch`` call; ``delay_gated`` reads the
    windowed p99 before every query, so the engine admits each query
    itself and commits one admitted query per ``commit_batch`` call.
    Either way the results are bit-identical.
    """
    require_numpy()
    _check_frontend(deployment)
    from ..admission.registry import resolve_admission

    arrivals = np.asarray(arrival_times, dtype=np.float64)
    adm = resolve_admission(admission)
    engine = _Engine(
        deployment,
        arrivals,
        pq_fn,
        record_assignments,
        actions,
        get_kernel(kernel),
        admission=adm,
        updates=updates,
    )
    if engine.multi_lane:
        # Multi-lane SimServers fall outside the closed-form queue mirror;
        # run the reference path with the same exact-time action semantics
        # (the kernel knob is moot there -- the reference path schedules
        # through the original heap).
        return run_queries_reference(
            deployment,
            arrival_times,
            pq_fn,
            record_assignments=record_assignments,
            actions=actions,
            admission=adm,
            updates=updates,
        )
    return engine.run()


def run_queries_reference(
    deployment: "Deployment",
    arrival_times: Sequence[float],
    pq_fn: Callable[[float], int] | int | None = None,
    record_assignments: bool = False,
    actions: Sequence[Action] | None = None,
    admission=None,
    updates=None,
) -> BatchResult:
    """The per-query reference path with the same exact-time action queue.

    Semantically interchangeable with :func:`run_queries_fast` -- the
    scenario runner uses it as the ``engine="reference"`` backend so both
    engines share one definition of *when* an action or an update lands.
    *updates* is the same run data: each one goes through
    :meth:`Deployment.apply_update
    <repro.cluster.deployment.Deployment.apply_update>` before the query
    it precedes, and before a callback placed after it.  *admission* is
    the same knob as on the batched path, with the same backlog/delay
    signals (the busiest server's queued seconds, completed delays by
    arrival), so shed decisions are engine-independent.
    """
    require_numpy()
    from ..admission.registry import resolve_admission

    admission = resolve_admission(admission)
    wall_start = time.perf_counter()
    arrivals = np.asarray(arrival_times, dtype=np.float64)
    n_q = len(arrivals)
    stream = _stream_of(updates, n_q)
    acts = _sorted_actions(actions, stream, n_q)
    latencies = np.full(n_q, np.nan, dtype=np.float64)
    finishes = np.full(n_q, np.nan, dtype=np.float64)
    query_ids = np.full(n_q, -1, dtype=np.int64)
    pqs = np.zeros(n_q, dtype=np.int64)
    assignments: Optional[list[tuple[str, ...]]] = (
        [] if record_assignments else None
    )
    cfg = deployment.config
    servers = deployment.servers
    completed = dropped = shed = 0
    pq_override: Optional[int] = None
    actions_applied = 0
    ai = 0
    arr_l = arrivals.tolist()
    # the update stream, read once: row u precedes query q_l[u]
    q_l = stream.q.tolist()
    rows = np.column_stack((stream.t, stream.pos)).tolist()
    u = 0

    def apply_until(end: int) -> None:
        """Apply the stream's updates before place *end*."""
        nonlocal u
        for t_u, pos in rows[u:end]:
            deployment.apply_update(t_u, at=pos)
        u = end

    def fire(action: Action) -> Optional[int]:
        apply_until(action.stream_pos)
        return action.fn(action.time)

    for q_i in range(n_q):
        while ai < len(acts) and acts[ai].index <= q_i:
            new_pq = fire(acts[ai])
            if new_pq is not None:
                pq_override = int(new_pq)
            actions_applied += 1
            ai += 1
        apply_until(bisect.bisect_right(q_l, q_i, u))
        now = arr_l[q_i]
        if callable(pq_fn):
            pq = pq_fn(now)
        else:
            pq = pq_override if pq_override is not None else pq_fn
        pq = pq or cfg.p
        pqs[q_i] = pq
        if admission is not None:
            backlog = max(s.busy_until for s in servers.values()) - now
            if backlog < 0.0:
                backlog = 0.0
            if admission.admit(q_i, now, backlog) is not None:
                shed += 1
                if assignments is not None:
                    assignments.append(())
                continue
        record = deployment.run_query(now, pq)
        if record is None:
            dropped += 1
        else:
            completed += 1
            query_ids[q_i] = record.query_id
            finishes[q_i] = record.finish
            latencies[q_i] = record.delay
            if admission is not None:
                admission.observe(now, record.delay)
        if assignments is not None:
            executed = tuple(dict.fromkeys(deployment.last_submitted))
            assignments.append(executed if record is not None else ())
    while ai < len(acts):
        new_pq = fire(acts[ai])
        if new_pq is not None:
            pq_override = int(new_pq)
        actions_applied += 1
        ai += 1
    apply_until(len(rows))
    wall = time.perf_counter() - wall_start
    return BatchResult(
        arrivals=arrivals,
        latencies=latencies,
        finishes=finishes,
        query_ids=query_ids,
        pqs=pqs,
        completed=completed,
        dropped=dropped,
        assignments=assignments,
        fast_scheduled=0,
        delegated=n_q,
        wall_seconds=wall,
        chunk_sizes=[],
        actions_applied=actions_applied,
        shed=shed,
    )
