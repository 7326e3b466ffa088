"""The batched query execution path over a :class:`~repro.cluster.Deployment`.

``Deployment.run_query`` costs milliseconds of interpreter time per query:
it re-syncs every node's statistics, rebuilds owner views, and walks the
rotation sweep heap with a Python estimator closure.  PR 2 replaced the
sweep with a precomputed :class:`~repro.core.covertable.CoverTable`, which
made *scheduling* nearly free but left ~70 us/query of per-query Python in
the accounting loop (reserve/submit/EWMA).  This module removes that loop:

* **Always-fresh mirrors.**  Every quantity scheduling depends on lives in
  flat arrays ordered by ring position: ``busy`` (live server queues) and
  ``speed`` (EWMA speed estimates), shadowed by plain Python lists so the
  per-query closed-form updates cost scalar float arithmetic, not numpy
  scalar boxing.  The next query's estimates are therefore always exact --
  freshness is what makes the batched schedule provably bit-identical.

* **Chunked accounting.**  The expensive half of the old loop -- writing
  ``SimServer``/``NodeStats`` objects, building ``QueryRecord``s, feeding
  listeners and the traffic ledger -- commutes into per-server reductions.
  Queries accumulate into flat chunk buffers; a chunk is flushed with a
  handful of numpy ops (``np.add.at`` preserves per-server float addition
  order, so even busy-time sums are bit-exact) whenever an action fires, a
  failure-window query must be delegated, the buffer cap is reached, or the
  batch ends.  The topological cut points of the arrival order are exactly
  the points where some consumer could observe intermediate state.

* **Pluggable scheduling kernels.**  The per-query decision itself --
  estimate evaluation, the precomputed rotation sweep, the final
  assignment -- is delegated to a :class:`~repro.kernels.base.SweepKernel`
  selected by the ``kernel=`` parameter.  The default ``exact_numpy`` is
  this engine's original inline code and stays the bit-identical oracle;
  ``compiled`` runs the same arithmetic as one fused C call, and
  ``approx_topk`` trades a documented deviation bound for a smaller sweep
  (see :mod:`repro.kernels`).  Accounting, mirrors, actions, and the
  failure fall-back are shared across kernels.

* **The bulk commit seam.**  Between two cut points (exact-time actions,
  failure windows, the chunk cap) the engine hands the kernel a whole
  span of queries at once through
  :meth:`~repro.kernels.base.SweepKernel.commit_batch`: the kernel runs
  sweep *and* commit -- widths, reserve, queue submit, EWMA observation,
  write-through -- for every query of the chunk, advancing the live
  mirrors in place and returning the per-sub-query rows in bulk, which
  :meth:`_Engine._flush_bulk` turns into the same numpy reductions the
  buffered path uses.  The default ``commit_batch`` is the reference
  python loop (so every kernel takes the seam); the compiled kernel
  fuses the whole span into one C call, which removes the last
  per-query python from the hot path.  Admission policies whose
  decisions need only the arrival time, the busiest-server backlog and
  their own token state (the queue cap, AIMD's token bucket) run inside
  the same call through an :class:`~repro.kernels.base.AdmissionGate`.
  Failure windows, per-query ``pq_fn`` callables and delay-fed policies
  (``delay_gated``) stay on the inline per-query loop, where the
  delegation machinery and rng draw order live.

* **Exact-time action queue.**  :class:`Action` schedules work *between
  two specific queries* (before ``arrival_times[index]``): a callback,
  object updates given as data, or both.  The engine flushes and
  materialises full object state before each callback -- so a mid-batch
  failure, membership change, or control tick sees precisely the state
  the per-query reference path would have produced, and is visible to
  the very next query.  Update data needs no materialise: the engine
  applies each ``(time, position)`` write on its mirrors
  (:meth:`_Engine._apply_updates`), with the replica-holder rule
  :meth:`Deployment.apply_update <repro.cluster.deployment.Deployment.
  apply_update>` uses.

The batched path is only landable because it is *provably the same system*:
for equal seeds it produces bit-identical per-query server sets, latencies,
traces, statistics, and scheduler work counters as the per-query reference
path -- ``tests/test_fastpath.py`` holds that line.  Queries whose schedule
touches a failed server are delegated, one at a time, to the reference path
so the (rare, rng-consuming) failure fall-back machinery stays the single
source of truth.  An exact kernel's pick for such a query is the decision
the reference sweep would make, so the engine hands it to the fall-back,
which then skips its own sweep; an inexact kernel's pick is not handed
over.

Requires the deployment's front-end to run the default configuration
(``method="heap"``, no range adjustment, no splitting); other configurations
raise and should use :meth:`Deployment.run_queries`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

from ..core.covertable import CoverTableCache, require_numpy
from ..kernels.base import (
    AdmissionGate,
    CommitBuffers,
    CommitPlan,
    PqEntry,
    SweepKernel,
    SweepState,
)
from ..kernels.registry import get_kernel
from ..obs.profiler import resolve_profile
from ..telemetry.listeners import ChunkArrays, drive_legacy_listeners
from .server import TaskRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.deployment import Deployment

__all__ = [
    "Action",
    "ACTION_SCOPES",
    "BatchResult",
    "run_queries_fast",
    "run_queries_reference",
]

#: Queries buffered before a chunk is force-flushed (bounds buffer memory;
#: the flush itself is O(chunk) numpy work, so larger is mildly better).
#: Also the span size of one bulk ``commit_batch`` call, so chunk cuts are
#: identical between the buffered and bulk paths.
CHUNK_CAP = 8192

#: Minimum span length for which a python-commit kernel is routed through
#: the bulk seam; shorter spans use the inline per-query loop (results are
#: bit-identical either way -- the bulk machinery just carries fixed
#: per-span costs that want amortising).  Kernels with
#: ``fused_commit = True`` (one C call per span) always take the seam.
BULK_MIN_SPAN = 32

#: How much of the deployment an action callback may have touched, from the
#: engine's point of view -- picks the cheapest sufficient mirror refresh.
ACTION_SCOPES = ("none", "busy", "values", "membership")


@dataclass
class Action:
    """Work scheduled between two specific queries of a batch: a callback,
    object updates given as data, or both.

    Fires immediately before ``arrival_times[index]`` (an index of
    ``len(arrival_times)`` or beyond fires after the last query).  For a
    callback the engine flushes pending accounting and materialises exact
    object state first, so ``fn`` observes precisely what the reference
    path would show at that point in the arrival order.  ``fn`` receives
    ``time`` and may return an ``int`` to change the partitioning level
    ``pq`` for subsequent queries (honoured when ``pq_fn`` is not a
    callable).

    ``updates`` holds ``(time, position)`` object updates, applied in
    order after ``fn`` with :meth:`~repro.cluster.deployment.Deployment.
    apply_update`'s semantics.  The reference path calls that method; the
    batched engine applies them on its own mirrors, with no materialise
    and no refresh.

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
    fn: Optional[Callable[[float], Optional[int]]] = None
    scope: str = "membership"
    updates: Sequence[tuple[float, float]] = ()

    def __post_init__(self) -> None:
        if self.scope not in ACTION_SCOPES:
            raise ValueError(
                f"unknown action scope {self.scope!r}; pick one of {ACTION_SCOPES}"
            )
        if self.index < 0:
            raise ValueError("action index must be >= 0")
        if self.fn is None and not self.updates:
            raise ValueError("an action needs a callback, updates, or both")


@dataclass
class BatchResult:
    """Array-backed account of one batched run.

    ``latencies`` holds NaN for dropped queries (failure fall-back could not
    re-cover a dead range); ``query_ids`` holds -1 there.
    """

    arrivals: "np.ndarray"
    latencies: "np.ndarray"
    finishes: "np.ndarray"
    query_ids: "np.ndarray"
    pqs: "np.ndarray"
    completed: int
    dropped: int
    #: per-query server name tuples, populated when record_assignments=True.
    assignments: Optional[list[tuple[str, ...]]]
    #: queries scheduled through the cover table vs. delegated to the
    #: per-query reference path (failure handling).
    fast_scheduled: int
    delegated: int
    wall_seconds: float
    #: sizes of the accounting chunks that were flushed (cut at actions,
    #: delegations, the buffer cap, and batch end).
    chunk_sizes: list[int] = field(default_factory=list)
    #: actions fired from the exact-time queue during this run.
    actions_applied: int = 0
    #: the run's :class:`~repro.obs.profiler.PhaseProfiler` when profiling
    #: was enabled (``profile=`` / ``REPRO_PROFILE``); None otherwise.
    profile: Optional[object] = None
    #: queries refused by the admission controller (``latencies`` holds
    #: NaN and ``query_ids`` -1 there, like drops -- but sheds never
    #: reached the scheduler, and the per-shed reasons live in the
    #: controller's :class:`~repro.admission.records.ShedLog`).
    shed: int = 0

    def completed_latencies(self) -> "np.ndarray":
        return self.latencies[~np.isnan(self.latencies)]

    def mean_latency(self) -> float:
        done = self.completed_latencies()
        return float(done.mean()) if done.size else float("nan")

    def percentile_latency(self, q: float) -> float:
        done = self.completed_latencies()
        return float(np.percentile(done, q)) if done.size else float("nan")


def _sorted_actions(actions) -> list[Action]:
    acts = list(actions or ())
    for a in acts:
        if not isinstance(a, Action):
            raise TypeError(f"actions must be Action instances, got {a!r}")
    # stable: equal indices keep caller order
    acts.sort(key=lambda a: a.index)
    return acts


class _Engine:
    """One batched run: mirrors, chunk buffers, the action queue, and a
    pluggable :class:`~repro.kernels.base.SweepKernel` doing the per-query
    scheduling decision."""

    def __init__(
        self,
        deployment: "Deployment",
        arrivals: "np.ndarray",
        pq_fn,
        record_assignments: bool,
        actions: Sequence[Action],
        kernel: SweepKernel,
        profiler=None,
        admission=None,
    ) -> None:
        self.dep = deployment
        #: admission controller, or None (the default).  Like the
        #: profiler, every site below guards on ``is not None`` (and the
        #: bulk seam passes no gate), so an admission-free run takes
        #: exactly the pre-admission code path, bit for bit.
        self.admission = admission
        #: phase profiler, or None (the default).  Every instrumentation
        #: site below guards on ``is not None`` so an unprofiled run makes
        #: no profiler calls at all, and profiling only ever reads the
        #: monotonic clock -- results stay bit-identical either way.
        self.prof = profiler
        self.fe = deployment.frontend
        self.cfg = deployment.config
        self.network = deployment.network
        self.ledger = deployment.ledger
        self.log = deployment.log
        self.servers = deployment.servers
        self.charge = self.cfg.charge_scheduling
        self.dataset = self.fe.dataset_size
        self.fe_fixed = self.fe.config.fixed_overhead
        self.alpha = self.fe.config.ewma_alpha
        self.one_minus_alpha = 1.0 - self.alpha
        self.pq_fn = pq_fn
        self.pq_override: Optional[int] = None
        self.record_assignments = record_assignments
        self.actions = actions
        self.kernel = kernel

        if deployment.cover_tables is None:
            deployment.cover_tables = CoverTableCache()
        self.cache: CoverTableCache = deployment.cover_tables

        n_q = len(arrivals)
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

        #: NodeStats.busy_until reservation of the *last* fast query -- the
        #: one piece of front-end state the reference path leaves holding a
        #: prediction rather than a synced server value.
        self.last_res: Optional[list[tuple[int, float]]] = None
        self.st_sync_pending = False
        #: the queue shadow as that last fast query left it, snapshotted
        #: when a data update moves the queues before the sync is written
        #: (None: ``busy_l`` is still that state).
        self.st_busy: Optional[list[float]] = None

        #: per-pq bulk-commit out buffers (stable objects, so compiled
        #: kernels can cache raw pointers against them for the whole run).
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
        self._reset_buffers()

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
        self.stats_flat = [fe.stats_for(nd) for nd in nodes_flat]
        self.servers_flat = [dep.servers[nd.name] for nd in nodes_flat]
        self.single_ring = len(self.rings) == 1
        self.trace_any = any(s.keep_trace for s in dep.servers.values())
        self.multi_lane = any(s.cores != 1 for s in self.servers_flat)

        n = len(nodes_flat)
        self.busy_l = [s.busy_until for s in self.servers_flat]
        self.spd_l = [st.speed_estimate for st in self.stats_flat]
        self.srv_speed_l = [s.speed for s in self.servers_flat]
        self.srv_fixed_l = [s.fixed_overhead for s in self.servers_flat]
        self.failed_l = [s.failed for s in self.servers_flat]
        self.busy = np.array(self.busy_l, dtype=np.float64)
        self.spd = np.array(self.spd_l, dtype=np.float64)
        self.est = np.empty(n, dtype=np.float64)
        # absolute per-server accumulator mirrors (flushed chunks land here,
        # materialise copies them back onto the objects)
        self.bt = np.array([s.busy_time for s in self.servers_flat])
        self.om = np.array([s.objects_matched for s in self.servers_flat])
        self.tasks = np.array(
            [s.tasks_run for s in self.servers_flat], dtype=np.int64
        )
        # one object update's work and service time per server, in
        # SimServer.submit's float ops (work = cost * speed)
        srv_speed = np.array(self.srv_speed_l, dtype=np.float64)
        self.upd_work = self.cfg.update_cost * srv_speed
        self.upd_svc = np.array(self.srv_fixed_l, dtype=np.float64) + (
            self.upd_work / srv_speed
        )
        self.cc = np.array(
            [st.completed for st in self.stats_flat], dtype=np.int64
        )
        self.ls = np.array([st.last_seen for st in self.stats_flat])
        self.touched = np.zeros(n, dtype=bool)

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
        self.kernel.bind(self.state)

        #: the kernel-facing commit constants + mirrors (paired with
        #: ``state``: a fresh instance per membership epoch).
        self.plan = CommitPlan(
            self.arrivals,
            self.arr_l,
            self.spd,
            self.srv_fixed_l,
            self.srv_speed_l,
            self.alpha,
            self.one_minus_alpha,
            self.dataset,
        )

        self.tables: dict[int, PqEntry] = {}
        self.any_failed = any(s.failed for s in dep.servers.values())
        self.p_store_cur = dep.p_store
        self.qid_last = fe._query_counter
        self.it_acc = 0
        self.est_acc = 0
        self.qs_acc = 0
        self.wall_acc = 0.0
        self.led_qmsg = 0
        self.led_rmsg = 0

    def _refresh_busy(self) -> None:
        """Re-read server queues *and* execution counters (a "busy"-scoped
        action submits work, which moves busy_time/tasks_run/objects too).
        Also re-reads p_store: any action may pump the discrete-event
        simulation, which can complete an in-flight repartition."""
        self.busy_l = [s.busy_until for s in self.servers_flat]
        self.busy[:] = self.busy_l
        self.bt[:] = [s.busy_time for s in self.servers_flat]
        self.om[:] = [s.objects_matched for s in self.servers_flat]
        self.tasks[:] = [s.tasks_run for s in self.servers_flat]
        self.p_store_cur = self.dep.p_store

    def _refresh_values(self) -> None:
        self._refresh_busy()
        self.spd_l = [st.speed_estimate for st in self.stats_flat]
        self.spd[:] = self.spd_l
        self.failed_l = [s.failed for s in self.servers_flat]
        self.cc[:] = [st.completed for st in self.stats_flat]
        self.ls[:] = [st.last_seen for st in self.stats_flat]
        for entry in self.tables.values():
            np.divide(entry.wd, self.spd, out=entry.Q)
        self.any_failed = any(s.failed for s in self.dep.servers.values())
        self.p_store_cur = self.dep.p_store

    # -- chunk buffers -----------------------------------------------------
    def _reset_buffers(self) -> None:
        #: per sub-query rows ``(g, service, work, finish, start)``,
        #: flattened across the chunk's queries in submit order.
        self.subs: list[tuple] = []
        #: per query rows ``(q_i, now, pq, qid, rtt, sched, total, mw, ms)``.
        self.qrows: list[tuple] = []

    def _flush(self) -> None:
        """Account the buffered chunk with array reductions + one record pass."""
        nq = len(self.qrows)
        if nq == 0:
            return
        prof = self.prof
        if prof is not None:
            prof.begin("flush")
        sg_t, ssv_t, swk_t, sf_t, sst_t = zip(*self.subs)
        sg = np.array(sg_t, dtype=np.intp)
        ssv = np.array(ssv_t)
        swk = np.array(swk_t)
        sf = np.array(sf_t)
        # np.add.at applies unbuffered, element-by-element in index order,
        # so repeated-server float sums keep the reference addition order.
        np.add.at(self.bt, sg, ssv)
        np.add.at(self.om, sg, swk)
        counts = np.bincount(sg, minlength=len(self.tasks))
        self.tasks += counts
        self.cc += counts
        # per-server finishes are monotone, so last-in-order == max
        np.maximum.at(self.ls, sg, sf)
        self.touched[sg] = True

        qidx_t, qnow_t, qpq_t, qqid_t, qrtt_t, qsched_t, qtotal_t, qmw_t, qms_t = zip(
            *self.qrows
        )
        qidx = np.array(qidx_t, dtype=np.intp)
        qnow = np.array(qnow_t)
        qtotal = np.array(qtotal_t)
        fr = qnow + qtotal
        delay = fr - qnow
        self.latencies[qidx] = delay
        self.finishes[qidx] = fr
        qqid = np.array(qqid_t, dtype=np.int64)
        qpq = np.array(qpq_t, dtype=np.int64)
        self.query_ids[qidx] = qqid
        self.pqs[qidx] = qpq

        self._emit_records(
            qqid,
            qnow,
            fr,
            qpq,
            np.array(qrtt_t),
            np.array(qsched_t),
            qtotal,
            np.array(qmw_t),
            np.array(qms_t),
            sg_t,
            sst_t,
            sf_t,
            swk_t,
        )

        dep = self.dep
        fe = self.fe
        fe.total_iterations += self.it_acc
        fe.total_estimates += self.est_acc
        fe.queries_scheduled += self.qs_acc
        fe._query_counter = self.qid_last
        self.it_acc = self.est_acc = self.qs_acc = 0
        dep.scheduling_wallclock += self.wall_acc
        self.wall_acc = 0.0
        # accumulate through the ledger's own methods so the per-message
        # byte constants live in exactly one place (network.py)
        self.ledger.record_query(self.led_qmsg)
        self.ledger.record_result(self.led_rmsg)
        self.led_qmsg = self.led_rmsg = 0

        self.chunk_sizes.append(nq)
        self._reset_buffers()
        if prof is not None:
            prof.end()

    def _emit_records(
        self,
        qqid,
        qnow,
        fr,
        qpq,
        qrtt,
        qsched,
        qtotal,
        qmw,
        qms,
        sg_l,
        sst_l,
        sf_l,
        swk_l,
    ) -> None:
        """Land one chunk's per-query telemetry as columns.

        All ``q*`` arguments are equal-length per-query float64/int64
        arrays; they append to the deployment's columnar logs in a
        handful of array copies -- zero per-query python on listener-free
        runs.  Chunk listeners receive the arrays directly (one
        ``observe_chunk`` call per flushed chunk); legacy per-query
        ``query_listeners``, when any are registered, are driven off the
        same columns by materialising each row as the exact
        :class:`QueryRecord` the per-query path would have built.
        Shared by the buffered flush (tuple rows) and the bulk flush
        (kernel out buffers), so the two paths cannot drift in what they
        record.  ``s*`` are flat per-sub-query sequences in submit order,
        consumed ``qpq[k]`` at a time (only read when tracing is on).
        """
        dep = self.dep
        nq = len(qnow)
        log_start = self.log.n_records
        self.log.append_columns(qqid, qnow, fr, qpq, qpq, qsched)
        dep.breakdowns.append_columns(qsched, qrtt, qmw, qms, qtotal)
        if self.admission is not None:
            self.admission.log.record_chunk(log_start, nq, self.admission.shed)

        prof = self.prof
        has_listeners = bool(dep.chunk_listeners or dep.query_listeners)
        if prof is not None and has_listeners:
            prof.begin("listeners")

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

        if dep.query_listeners:
            # tolist() only on the legacy path: callbacks see python
            # scalars, exactly as the per-query reference path built them
            drive_legacy_listeners(
                dep.query_listeners,
                qqid.tolist(),
                qnow.tolist(),
                fr.tolist(),
                qpq.tolist(),
                qpq.tolist(),
                qsched.tolist(),
            )

        if prof is not None and has_listeners:
            prof.end()

        if self.trace_any:
            servers_flat = self.servers_flat
            qpq_l = qpq.tolist()
            qnow_l = qnow.tolist()
            qrtt_l = qrtt.tolist()
            qqid_l = qqid.tolist()
            off = 0
            for k in range(nq):
                pq = qpq_l[k]
                arr_t = qnow_l[k] + qrtt_l[k] / 2.0
                qid = qqid_l[k]
                for j in range(off, off + pq):
                    server = servers_flat[sg_l[j]]
                    if server.keep_trace:
                        server.trace.append(
                            TaskRecord(qid, arr_t, sst_l[j], sf_l[j], swk_l[j])
                        )
                off += pq

    def _materialise(self) -> None:
        """Flush, then write exact object state (servers + node stats)."""
        prof = self.prof
        if prof is not None:
            prof.begin("materialise")
        self._flush()
        self.fe._query_counter = self.qid_last
        idx = np.nonzero(self.touched)[0]
        if idx.size:
            for g in idx.tolist():
                server = self.servers_flat[g]
                server._lane_busy_until[0] = self.busy_l[g]
                server.busy_time = float(self.bt[g])
                server.tasks_run = int(self.tasks[g])
                server.objects_matched = float(self.om[g])
                st = self.stats_flat[g]
                st.speed_estimate = self.spd_l[g]
                st.completed = int(self.cc[g])
                st.last_seen = float(self.ls[g])
            self.touched[:] = False
        # NodeStats.busy_until parity: after the last fast query, every node
        # reads the server value it synced (the queues as they stood
        # before any later data update) except that query's reservations,
        # which keep the reserve prediction (reference-path behaviour).
        if self.st_sync_pending and self.last_res is not None:
            synced = self.st_busy if self.st_busy is not None else self.busy_l
            for g, st in enumerate(self.stats_flat):
                st.busy_until = synced[g]
            for g, val in self.last_res:
                self.stats_flat[g].busy_until = val
            self.st_sync_pending = False
            self.st_busy = None
        if prof is not None:
            prof.end()

    # -- actions -----------------------------------------------------------
    def _fire(self, action: Action) -> None:
        prof = self.prof
        if prof is not None:
            prof.begin("actions")
        if action.fn is not None:
            self._materialise()
            new_pq = action.fn(action.time)
            if new_pq is not None:
                self.pq_override = int(new_pq)
            if action.scope == "membership":
                self._build()
            elif action.scope == "values":
                self._refresh_values()
            elif action.scope == "busy":
                self._refresh_busy()
        if action.updates:
            self._apply_updates(action.updates)
        self.actions_applied += 1
        if prof is not None:
            prof.end()

    def _apply_updates(self, updates) -> None:
        """Apply object updates on the mirrors, as
        :meth:`~repro.cluster.deployment.Deployment.apply_update` does on
        the objects.

        Each update charges one fixed-cost write to the alive replica
        holders clockwise from its position
        (:meth:`~repro.core.ring.Ring.replica_holders`), skipping failed
        servers: the queue, busy-time, task and object mirrors move in
        ``SimServer.submit``'s float ops, and ``touched`` hands them to
        the next materialise.  The pending chunk is flushed first, so
        per-server sums keep the reference addition order and chunks are
        cut where they always were.
        """
        self._flush()
        if self.st_sync_pending and self.st_busy is None:
            self.st_busy = self.busy_l[:]
        dep = self.dep
        r = max(1, round(dep.n / dep.p_store))
        holders_of = self.rings[0].replica_holders
        failed_l = self.failed_l if self.any_failed else None
        busy, bt, om, tasks = self.busy, self.bt, self.om, self.tasks
        upd_svc, upd_work = self.upd_svc, self.upd_work
        record_update = self.ledger.record_update
        for t, pos in updates:
            holders = holders_of(pos, r)
            if not holders:
                continue  # an all-dead ring takes no write traffic
            record_update(r)
            if failed_l is not None:
                holders = [g for g in holders if not failed_l[g]]
                if not holders:
                    continue
            # one update's holders are distinct servers, so fancy-indexed
            # writes give each exactly SimServer.submit's float ops
            h = np.array(holders, dtype=np.intp)
            start = busy[h]
            np.maximum(start, t, out=start)
            svc = upd_svc[h]
            finish = start + svc
            busy[h] = finish
            bt[h] += svc
            om[h] += upd_work[h]
            tasks[h] += 1
            self.touched[h] = True
            if self.trace_any:
                # the rows SimServer.submit appends for a traced server
                for g, s0, f0 in zip(holders, start.tolist(), finish.tolist()):
                    server = self.servers_flat[g]
                    if server.keep_trace:
                        server.trace.append(
                            TaskRecord(-1, t, s0, f0, float(upd_work[g]))
                        )
        self.busy_l = busy.tolist()

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

    # -- the hot loop ------------------------------------------------------
    def run(self) -> BatchResult:
        """Drive the batch as spans between cut points.

        A span is a maximal run of queries with no exact-time action
        inside it.  Spans outside failure windows (and without a
        per-query ``pq_fn`` callable or an admission policy that needs
        per-query delay feedback) go through the kernel's bulk
        sweep+commit seam (:meth:`_run_span_bulk`); everything else takes
        the inline per-query path (:meth:`_run_span`), which owns the
        failure-delegation machinery.  Both produce bit-identical state.
        """
        wall_start = time.perf_counter()
        n_q = len(self.arr_l)
        acts = self.actions
        n_act = len(acts)
        ai = 0
        pq_callable = callable(self.pq_fn)
        pos = 0
        while pos < n_q:
            while ai < n_act and acts[ai].index <= pos:
                self._fire(acts[ai])
                ai += 1
            end = n_q if ai >= n_act else min(n_q, acts[ai].index)
            if (
                not pq_callable
                and not self.any_failed
                and (self.admission is None or self.gate is not None)
                and (self.kernel.fused_commit or end - pos >= BULK_MIN_SPAN)
            ):
                pos = self._run_span_bulk(pos, end)
            else:
                pos = self._run_span(pos, end)
        while ai < n_act:
            self._fire(acts[ai])
            ai += 1
        self._materialise()

        wall = time.perf_counter() - wall_start
        if self.prof is not None:
            self.prof.add_wall(wall)
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
            profile=self.prof,
            shed=self.shed_n,
        )

    # -- the bulk seam -----------------------------------------------------
    def _bufs_for(self, pq: int) -> CommitBuffers:
        bufs = self.commit_bufs.get(pq)
        if bufs is None:
            bufs = CommitBuffers(self.bulk_cap, pq)
            self.commit_bufs[pq] = bufs
        return bufs

    def _run_span_bulk(self, span_start: int, span_end: int) -> int:
        """Process ``[span_start, span_end)`` through the fused seam.

        Chunks of up to :data:`CHUNK_CAP` queries go to the kernel's
        ``commit_batch`` (the span is failure-free and pq-constant by the
        caller's checks), which advances the live mirror arrays in place;
        each chunk is flushed straight from the bulk out buffers.  After
        the span the scalar list shadows and any sibling pq tables are
        re-derived from the arrays.

        With an admission gate the kernel also makes the span's admission
        decisions.  Shed queries draw no RTT, so the chunk pre-draws one
        RTT per query from a snapshot of the network rng and, after the
        call, rewinds it and re-draws exactly one per admitted query: the
        stream advances draw for draw as on the per-query path.
        """
        pq = self.pq_override if self.pq_override is not None else self.pq_fn
        pq = pq or self.cfg.p
        if pq < self.p_store_cur - 1e-9:
            self._materialise()
            raise ValueError(
                f"pq={pq} below stored partitioning level "
                f"{self.p_store_cur}; reconfigure first (Section 4.5)"
            )
        entry = self._table_for(pq)
        plan = self.plan
        bufs = self._bufs_for(pq)
        gate = self.gate
        commit = self.kernel.commit_batch
        sample_rtts = self.network.sample_rtts
        rng = self.network.rng
        perf = time.perf_counter
        perf_ns = time.perf_counter_ns
        prof = self.prof
        cap = bufs.cap
        admitted = 0
        pos = span_start
        while pos < span_end:
            nq = min(span_end - pos, cap)
            if gate is not None:
                self.admission.export_bulk(gate)
                snapshot = rng.getstate()
            if prof is None:
                # pre-draw the span's RTTs in arrival order: the rng stream
                # must advance exactly as the per-query path would
                bufs.rtts[:nq] = sample_rtts(nq)
                t0 = perf()
                n_adm = commit(self.state, entry, plan, bufs, pos, nq, gate)
                chunk_wall = perf() - t0
                if gate is not None:
                    self._close_gate(nq, n_adm, snapshot)
                self._flush_bulk(pos, nq, n_adm, pq, chunk_wall, entry, bufs)
            else:
                # same statements bracketed by clock reads only -- the rng
                # stream and the float sequence are untouched
                c0 = perf_ns()
                bufs.rtts[:nq] = sample_rtts(nq)
                draw_ns = perf_ns() - c0
                prof.add_ns("arrival_draw", draw_ns)
                t0 = perf()
                n_adm = commit(self.state, entry, plan, bufs, pos, nq, gate)
                chunk_wall = perf() - t0
                prof.add_s("sweep_commit", chunk_wall)
                prof.begin("flush")
                if gate is not None:
                    self._close_gate(nq, n_adm, snapshot)
                self._flush_bulk(pos, nq, n_adm, pq, chunk_wall, entry, bufs)
                flush_ns = prof.end()
                prof.record_chunk(
                    pos, nq, c0, draw_ns, int(chunk_wall * 1e9), flush_ns
                )
            admitted += n_adm
            pos += nq
        # re-derive the scalar shadows and sibling pq tables from the
        # arrays the kernel advanced in place (elementwise division is
        # pure, so a full recompute matches the scatter updates bit-wise)
        self.busy_l = self.busy.tolist()
        self.spd_l = self.spd.tolist()
        for tb in self.tables.values():
            if tb is not entry:
                np.divide(tb.wd, self.spd, out=tb.Q)
        if admitted:
            rn = int(bufs.res_n[0])
            self.last_res = list(
                zip(bufs.res_g[:rn].tolist(), bufs.res_v[:rn].tolist())
            )
            self.st_sync_pending = True
            self.st_busy = None
        return span_end

    def _close_gate(self, nq: int, n_adm: int, snapshot) -> None:
        """Hand a gated chunk's outcome to the policy; fix the rng stream."""
        if n_adm < nq:
            self.network.rng.setstate(snapshot)
            self.network.sample_rtts(n_adm)
        self.admission.import_bulk(self.gate)
        self.shed_n += nq - n_adm

    def _flush_bulk(
        self,
        pos: int,
        nq: int,
        n_adm: int,
        pq: int,
        chunk_wall: float,
        entry: PqEntry,
        bufs: CommitBuffers,
    ) -> None:
        """Account one bulk chunk straight from the kernel's out buffers.

        The same reductions as :meth:`_flush`, minus the tuple-buffer
        transposition: the kernel already delivered flat arrays in submit
        order.  Per-query ``scheduling_delay`` is the chunk's kernel wall
        time amortised over its admitted queries (the fused call does not
        observe per-query boundaries; with ``charge_scheduling`` the
        amortised value is what lands in the latency).

        Of the chunk's *nq* queries the first *n_adm* rows of the out
        buffers belong to the admitted ones; without a gate that is all
        of them, in order.  Gated chunks scatter by the gate's admitted
        indices and leave shed slots as shed: NaN latency, ``-1`` id, the
        recorded ``pq``, and ``()`` assignments.
        """
        self.pqs[pos : pos + nq] = pq
        if self.assignments is not None:
            self.assignments.extend(self._bulk_assignments(bufs, pos, nq, n_adm, pq))
        if n_adm == 0:
            return
        gated = self.gate is not None
        rows = self.gate.adm_idx[:n_adm] if gated else slice(pos, pos + nq)
        m = n_adm * pq
        sg = bufs.sub_g[:m]
        np.add.at(self.bt, sg, bufs.sub_service[:m])
        np.add.at(self.om, sg, bufs.sub_work[:m])
        counts = np.bincount(sg, minlength=len(self.tasks))
        self.tasks += counts
        self.cc += counts
        np.maximum.at(self.ls, sg, bufs.sub_finish[:m])
        self.touched[sg] = True

        qnow = self.arrivals[rows]
        qtotal = bufs.q_total[:n_adm]
        sched_each = chunk_wall / n_adm
        if self.charge:
            qtotal = qtotal + sched_each
        fr = qnow + qtotal
        delay = fr - qnow
        self.latencies[rows] = delay
        self.finishes[rows] = fr
        qid0 = self.qid_last
        qqid = np.arange(qid0 + 1, qid0 + n_adm + 1, dtype=np.int64)
        self.query_ids[rows] = qqid
        self.qid_last = qid0 + n_adm
        if gated:
            # the same (arrival, total) pairs the per-query path observes
            self.admission.observe_chunk(qnow, qtotal)

        if self.trace_any:
            sg_l = sg.tolist()
            sst_l = bufs.sub_start[:m].tolist()
            sf_l = bufs.sub_finish[:m].tolist()
            swk_l = bufs.sub_work[:m].tolist()
        else:
            sg_l = sst_l = sf_l = swk_l = ()
        self._emit_records(
            qqid,
            qnow,
            fr,
            np.full(n_adm, pq, dtype=np.int64),
            bufs.rtts[:n_adm],
            np.full(n_adm, sched_each),
            qtotal,
            bufs.q_mw[:n_adm],
            bufs.q_ms[:n_adm],
            sg_l,
            sst_l,
            sf_l,
            swk_l,
        )

        fe = self.fe
        fe.total_iterations += n_adm * entry.iterations
        fe.total_estimates += n_adm * entry.estimates
        fe.queries_scheduled += n_adm
        fe._query_counter = self.qid_last
        self.dep.scheduling_wallclock += chunk_wall
        self.ledger.record_query(n_adm * pq)
        self.ledger.record_result(n_adm * pq)
        self.completed += n_adm
        self.fast_scheduled += n_adm
        self.chunk_sizes.append(n_adm)

    def _bulk_assignments(self, bufs, pos, nq, n_adm, pq) -> list:
        """The chunk's per-query server names, ``()`` for shed queries."""
        names = self.names_flat
        # sub rows are in submit (LIFO) order; assignments record the
        # selection (point) order, so reverse each query's row
        rows = bufs.sub_g[: n_adm * pq].reshape(n_adm, pq)[:, ::-1].tolist()
        picked = [tuple(names[g] for g in row) for row in rows]
        if n_adm == nq:
            return picked
        out: list[tuple[str, ...]] = [()] * nq
        for slot, sel in zip((self.gate.adm_idx[:n_adm] - pos).tolist(), picked):
            out[slot] = sel
        return out

    # -- the per-query path ------------------------------------------------
    def _run_span(self, span_start: int, span_end: int) -> int:
        """Process ``[span_start, span_end)`` one query at a time.

        This is the path that owns failure delegation (select first, check
        the schedule against the failed set, hand the query to the
        reference path when it hits), per-query ``pq_fn`` evaluation, and
        admission policies that feed on per-query delays; it is also what
        short spans use when the kernel's bulk commit is a python loop
        anyway.  Commit arithmetic here, the kernel's default
        ``commit_batch``, and ``roar_commit_batch`` in ``csrc/sweep.c``
        are three copies of the same float-op sequence, pinned together by
        the differential tests.
        """
        cfg = self.cfg
        dataset = self.dataset
        fe_fixed = self.fe_fixed
        alpha = self.alpha
        om_alpha = self.one_minus_alpha
        fmod = math.fmod
        perf = time.perf_counter
        pq_fn = self.pq_fn
        pq_callable = callable(pq_fn)
        charge = self.charge
        sample_rtt = self.network.sample_rtt
        record_assignments = self.assignments is not None
        select = self.kernel.select
        arr = self.arr_l
        admission = self.admission

        # aliases refreshed whenever mirrors rebuild (delegation)
        def local_state():
            return (
                self.busy_l,
                self.spd_l,
                self.busy,
                self.spd,
                self.state,
                self.srv_fixed_l,
                self.srv_speed_l,
                self.any_failed,
                self.failed_l,
            )

        (
            busy_l,
            spd_l,
            busy_np,
            spd_np,
            state,
            srv_fixed_l,
            srv_speed_l,
            any_failed,
            failed_l,
        ) = local_state()
        last_pq = -1
        entry = None
        prof = self.prof
        span_sched = 0.0
        if prof is not None:
            prof.begin("commit")
        # busiest-server queue, kept as a running max (a commit only ever
        # raises busy_l[g]; a delegation rebuilds the mirrors, so recompute)
        bmax = max(busy_l) if admission is not None else 0.0

        for q_i in range(span_start, span_end):
            now = arr[q_i]
            if pq_callable:
                pq = pq_fn(now)
            else:
                pq = self.pq_override if self.pq_override is not None else pq_fn
            pq = pq or cfg.p

            # -- admission: decide before any scheduling work or rng draw,
            # off the busiest-server backlog the queue mirror exposes -----
            if admission is not None:
                backlog = bmax - now
                if backlog < 0.0:
                    backlog = 0.0
                if admission.admit(q_i, now, backlog) is not None:
                    self.pqs[q_i] = pq
                    self.shed_n += 1
                    if record_assignments:
                        self.assignments.append(())
                    continue

            if pq != last_pq:
                if pq < self.p_store_cur - 1e-9:
                    self._materialise()
                    raise ValueError(
                        f"pq={pq} below stored partitioning level "
                        f"{self.p_store_cur}; reconfigure first (Section 4.5)"
                    )
                entry = self._table_for(pq)
                last_pq = pq

            # -- the scheduling decision: estimates + sweep + assignment,
            # delegated to the pluggable kernel (exact_numpy by default;
            # see repro.kernels for the ABI and the alternatives) ----------
            t0 = perf()
            g_list, pts, start_id = select(state, entry, now)
            sched_wall = perf() - t0

            # -- failure window: the reference path owns the fall-back -----
            if any_failed and any(failed_l[g] for g in g_list):
                self._delegate(q_i, now, pq, entry, g_list, start_id)
                (
                    busy_l,
                    spd_l,
                    busy_np,
                    spd_np,
                    state,
                    srv_fixed_l,
                    srv_speed_l,
                    any_failed,
                    failed_l,
                ) = local_state()
                if admission is not None:
                    bmax = max(busy_l)
                continue

            # -- commit (identical arithmetic to run_query) ----------------
            self.qid_last += 1
            qid = self.qid_last
            self.wall_acc += sched_wall
            if prof is not None:
                span_sched += sched_wall
            rtt = sample_rtt()

            # widths + reserve (FIFO over sub-queries, first occurrence
            # syncs the live queue, repeats accumulate)
            v = fmod(start_id + entry.off0, 1.0)
            if v < 0.0:
                v += 1.0
            if v >= 1.0:
                v -= 1.0
            prev = v
            w_list = []
            res: dict[int, float] = {}
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
            self.last_res = list(res.items())
            self.st_sync_pending = True
            self.st_busy = None

            finish = now
            mw = 0.0
            ms = 0.0
            half = rtt / 2.0
            arr_t = now + half
            subs = self.subs
            subs_append = subs.append
            # submit + EWMA observe (LIFO: the reference path pops)
            for i in range(pq - 1, -1, -1):
                g = g_list[i]
                work = w_list[i] * dataset
                b = busy_l[g]
                wait = b - now
                if wait < 0.0:
                    wait = 0.0
                start = arr_t if arr_t > b else b
                service = srv_fixed_l[g] + work / srv_speed_l[g]
                f = start + service
                busy_l[g] = f
                if f > bmax:
                    bmax = f
                subs_append((g, service, work, f, start))
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

            # write-through the final per-server values (only the last
            # value per server matters to the next query's estimates)
            tables = self.tables
            one_table = entry if len(tables) == 1 else None
            for g in res:
                busy_np[g] = busy_l[g]
                s_g = spd_l[g]
                if spd_np[g] != s_g:
                    spd_np[g] = s_g
                    if one_table is not None:
                        one_table.Q[g] = one_table.wd / s_g
                    else:
                        for tb in tables.values():
                            tb.Q[g] = tb.wd / s_g

            total = finish - now + (sched_wall if charge else 0.0)
            self.qrows.append(
                (q_i, now, pq, qid, rtt, sched_wall, total, mw, ms)
            )
            if admission is not None:
                # same delay the reference path's QueryRecord carries
                # (wall-free unless charge_scheduling is on)
                admission.observe(now, total)
            self.completed += 1
            self.fast_scheduled += 1
            self.led_qmsg += pq
            self.led_rmsg += pq
            self.it_acc += entry.iterations
            self.est_acc += entry.estimates
            self.qs_acc += 1
            if record_assignments:
                names = self.names_flat
                self.assignments.append(tuple(names[g] for g in g_list))
            if len(self.qrows) >= CHUNK_CAP:
                self._flush()

        if prof is not None:
            # the kernel's select time goes to sweep_commit; the rest of
            # the inline loop (reserve/submit/EWMA python) is "commit"
            prof.add_s("sweep_commit", span_sched)
            prof.end()
        return span_end

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

        An exact kernel's pick (*g_list*, *start_id*) is the decision the
        reference sweep would make on this state, so it is handed over
        and the reference path does not sweep again; an inexact kernel's
        pick is not, and the reference path runs its own sweep.
        """
        prof = self.prof
        if prof is not None:
            prof.begin("delegate")
        self._materialise()
        pre_lens = None
        if self.assignments is not None:
            pre_lens = {
                name: len(s.trace)
                for name, s in self.servers.items()
                if s.keep_trace
            }
        pick = None
        if self.kernel.exact:
            nodes = self.nodes_flat
            pick = (
                [nodes[g] for g in g_list],
                start_id,
                entry.iterations,
                entry.estimates,
            )
        record = self.dep.run_query(now, pq, pick)
        self.delegated += 1
        self.last_res = None
        self.st_sync_pending = False
        self._refresh_values()
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
        if pre_lens is not None:
            # Delegated schedules (plus failure replacements) are only
            # observable through server traces; only this query ran, so
            # the executors are exactly the servers whose traces grew.
            if record is not None:
                executed = tuple(
                    name
                    for name, before in pre_lens.items()
                    if len(self.servers[name].trace) > before
                )
            else:
                executed = ()
            self.assignments.append(executed)
        if prof is not None:
            prof.end()


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
    profile=None,
    admission=None,
) -> BatchResult:
    """Run a whole arrival trace through the batched path.

    Mirrors :meth:`Deployment.run_queries` (including per-query ``pq_fn``
    support) and leaves the deployment in the same state the reference path
    would have.  *actions* schedules callbacks at exact query indices; see
    :class:`Action`.  *kernel* picks the scheduling kernel by registry name
    (or instance); the default ``exact_numpy`` is bit-identical to the
    reference path, others trade exactness or portability for speed (see
    :mod:`repro.kernels`).  Failure-window queries delegate to the
    per-query reference path, so fall-back semantics stay exact
    everywhere; exact kernels hand their pick to the fall-back, which
    then does not sweep again, while inexact ones let it sweep.

    *profile* enables the engine-phase profiler: pass ``True`` (or a
    :class:`~repro.obs.profiler.PhaseProfiler` to accumulate across runs);
    the default ``None`` defers to the ``REPRO_PROFILE`` environment
    variable.  When on, the result's ``profile`` attribute carries
    per-phase totals and per-chunk samples; results are bit-identical to
    an unprofiled run either way (see :mod:`repro.obs.profiler`).

    *admission* installs an admission controller at the arrival seam: a
    policy name/spec, an :class:`~repro.admission.base.AdmissionPolicy`
    instance, or ``None``/``"none"`` for accept-all.  Passthrough specs
    resolve to ``None`` before the engine sees them, so the default run
    is bit-identical to the pre-admission engine.  Policies whose
    decisions depend only on the arrival time, the busiest-server backlog
    and their own token state (``aimd``, or a queue cap alone) are made
    inside the kernel's bulk ``commit_batch`` call; ``delay_gated`` reads
    the windowed p99 before every query and keeps the per-query path.
    Either way the results are bit-identical.
    """
    require_numpy()
    _check_frontend(deployment)
    from ..admission.registry import resolve_admission

    arrivals = np.asarray(arrival_times, dtype=np.float64)
    acts = _sorted_actions(actions)
    prof = resolve_profile(profile)
    adm = resolve_admission(admission)
    engine = _Engine(
        deployment,
        arrivals,
        pq_fn,
        record_assignments,
        acts,
        get_kernel(kernel),
        profiler=prof,
        admission=adm,
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
            actions=acts,
            profile=prof,
            admission=adm,
        )
    return engine.run()


def run_queries_reference(
    deployment: "Deployment",
    arrival_times: Sequence[float],
    pq_fn: Callable[[float], int] | int | None = None,
    record_assignments: bool = False,
    actions: Sequence[Action] | None = None,
    profile=None,
    admission=None,
) -> BatchResult:
    """The per-query reference path with the same exact-time action queue.

    Semantically interchangeable with :func:`run_queries_fast` -- the
    scenario runner uses it as the ``engine="reference"`` backend so both
    engines share one definition of *when* an action lands.  *profile* is
    the same knob as on the batched path; here the per-query work lands
    in a single ``reference`` phase (plus ``actions``).  *admission* is
    the same knob too, with the same backlog/delay signals (the busiest
    server's queued seconds, completed delays by arrival), so shed
    decisions are engine-independent.
    """
    require_numpy()
    from ..admission.registry import resolve_admission

    prof = resolve_profile(profile)
    admission = resolve_admission(admission)
    perf_ns = time.perf_counter_ns
    wall_start = time.perf_counter()
    arrivals = np.asarray(arrival_times, dtype=np.float64)
    acts = _sorted_actions(actions)
    n_q = len(arrivals)
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

    def fire(action: Action) -> Optional[int]:
        new_pq = action.fn(action.time) if action.fn is not None else None
        for t_u, pos in action.updates:
            deployment.apply_update(t_u, at=pos)
        return new_pq

    for q_i in range(n_q):
        while ai < len(acts) and acts[ai].index <= q_i:
            if prof is None:
                new_pq = fire(acts[ai])
            else:
                a0 = perf_ns()
                new_pq = fire(acts[ai])
                prof.add_ns("actions", perf_ns() - a0)
            if new_pq is not None:
                pq_override = int(new_pq)
            actions_applied += 1
            ai += 1
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
        pre_lens = None
        if assignments is not None:
            pre_lens = {
                name: len(s.trace) for name, s in servers.items() if s.keep_trace
            }
        if prof is None:
            record = deployment.run_query(now, pq)
        else:
            r0 = perf_ns()
            record = deployment.run_query(now, pq)
            prof.add_ns("reference", perf_ns() - r0)
        if record is None:
            dropped += 1
        else:
            completed += 1
            query_ids[q_i] = record.query_id
            finishes[q_i] = record.finish
            latencies[q_i] = record.delay
            if admission is not None:
                admission.observe(now, record.delay)
        if pre_lens is not None:
            if record is not None:
                executed = tuple(
                    name
                    for name, before in pre_lens.items()
                    if len(servers[name].trace) > before
                )
            else:
                executed = ()
            assignments.append(executed)
    while ai < len(acts):
        if prof is None:
            new_pq = fire(acts[ai])
        else:
            a0 = perf_ns()
            new_pq = fire(acts[ai])
            prof.add_ns("actions", perf_ns() - a0)
        if new_pq is not None:
            pq_override = int(new_pq)
        actions_applied += 1
        ai += 1
    wall = time.perf_counter() - wall_start
    if prof is not None:
        prof.add_wall(wall)
    if admission is not None:
        # no chunks on this path: one whole-run summary row keeps the
        # shedchunk_* column totals comparable across engines
        admission.log.record_chunk(0, completed, admission.shed)
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
        profile=prof,
        shed=shed,
    )
