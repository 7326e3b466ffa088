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

The ABI (``SweepKernel.select(state, entry, now) -> (server_set, points,
start_id)``) is deliberately narrow:

* ``state`` is a :class:`SweepState`: the engine's always-fresh per-server
  mirrors (busy-until, a scratch estimate buffer) plus the static ring
  geometry of the current batch segment.  The engine rebuilds it whenever
  an action may have moved membership and calls :meth:`SweepKernel.bind`
  so kernels can re-derive cached views (e.g. raw pointers).
* ``entry`` is a :class:`PqEntry`: per-(rings, pq) static data resolved
  from the :class:`~repro.core.covertable.CoverTable`, including the
  pre-divided work/speed quotients the estimate needs.
* the return value is the *complete* scheduling decision: global server
  indices per sub-query, the query points, and the chosen start id.  The
  engine commits it without re-deriving anything, so a kernel's choice is
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
the live mirrors (``state.busy``, ``plan.spd``, ``entry.Q``) in place and
returns the per-sub-query chunk-buffer rows in bulk through a
:class:`CommitBuffers`, which the engine flushes with a handful of numpy
reductions.  It is the only place the engine commits a query.  The
default implementation is the reference python loop; the compiled kernel
overrides it with a single C call per chunk.  The exactness contract
extends to it unchanged (an override must produce bit-identical *state*,
not just decisions).

**The failure stop.**  Inside a failure window the engine passes the
failed-server mask.  ``commit_batch`` then stops before committing the
first scheduled query whose pick touches a failed server, leaves every
mirror as the last committed query left it, and reports the stopped
query's index and pick in ``bufs.stop_*``; the engine hands that query to
the reference path's fall-back and resumes the seam after it.

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
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import TYPE_CHECKING, ClassVar, Sequence

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
    "assignment_at",
    "check_commit_args",
]


class KernelUnavailableError(RuntimeError):
    """A kernel cannot run in this environment (e.g. no C toolchain)."""


class SweepState:
    """Per-batch-segment view the engine hands every ``select`` call.

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
    membership epoch).  ``spd`` is the live EWMA speed-estimate mirror --
    the commit's one mutable array beyond ``state.busy`` and ``entry.Q``;
    the ``*_l`` plain-list shadows exist so the pure-python default commit
    pays scalar float arithmetic, not numpy scalar boxing.  ``arrivals``
    is the whole batch's arrival times; spans address into it by index so
    compiled kernels can cache one raw pointer per batch.
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
    ) -> None:
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
    it is the last entry of ``adm_idx`` and counts in ``n_admitted``.
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


def check_commit_args(
    state: SweepState,
    entry: PqEntry,
    plan: CommitPlan,
    bufs: CommitBuffers,
    start: int,
    nq: int,
    gate: "AdmissionGate | None",
    failed: "np.ndarray | None",
) -> None:
    """Refuse a ``commit_batch`` call before any mirror moves.

    The compiled kernel reads and writes through raw pointers, so an
    index past ``plan.arrivals``, a span longer than the out buffers, or
    buffers sized for another ``pq`` would corrupt memory instead of
    raising; the python loop would fail part-way, after it had moved
    ``busy``.  Each check names the argument at fault.
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
    if nq > bufs.cap:
        raise ValueError(f"commit_batch: nq={nq} exceeds bufs.cap={bufs.cap}")
    if bufs.pq != entry.pq:
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

    Subclasses set ``name`` (the registry key) and implement
    :meth:`select`, bit-identical to the oracle.  ``bind`` is an
    optional hook called whenever the engine's :class:`SweepState` is
    rebuilt -- kernels holding derived caches (pointers, strided views)
    refresh them there.
    """

    name: ClassVar[str] = "abstract"
    #: one-line human description for ``repro kernels``.
    description: ClassVar[str] = ""

    def bind(self, state: SweepState) -> None:  # pragma: no cover - hook
        """Called when the engine (re)builds its mirrors."""

    def select(
        self, state: SweepState, entry: PqEntry, now: float
    ) -> tuple[list[int], list[float], float]:
        """Schedule one query: ``-> (server_set, points, start_id)``.

        *server_set* holds global server indices, one per sub-query point.
        The engine never reads ``state.est`` after the call -- it is a
        scratch buffer kernels may use (the numpy kernels evaluate all n
        estimates into it; the compiled kernel computes estimates lazily
        at its gather sites and leaves it untouched).
        """
        raise NotImplementedError

    def commit_batch(
        self,
        state: SweepState,
        entry: PqEntry,
        plan: CommitPlan,
        bufs: CommitBuffers,
        start: int,
        nq: int,
        gate: "AdmissionGate | None" = None,
        failed: "np.ndarray | None" = None,
    ) -> int:
        """Fused sweep+commit over queries ``start .. start + nq``.

        Contract: on return the live mirrors (``state.busy``, ``plan.spd``,
        ``entry.Q``) hold exactly the state the per-query reference path
        would have produced after the last committed query, and *bufs*
        holds the committed queries' chunk-buffer rows (sub-query rows in
        submit order, per-query totals, the last committed query's
        reserve map; ``res_*`` are left alone when nothing was
        committed).  The caller guarantees a span-constant ``pq`` matching
        *entry* and ``bufs.rtts[:nq]`` pre-drawn in arrival order; the
        arguments are checked (:func:`check_commit_args`) before any
        mirror moves.  Returns the number of committed queries.

        With a *gate* each query first passes the admission pre-check
        (see :class:`AdmissionGate`); only admitted queries are scheduled,
        and they fill the out buffers densely in arrival order.

        *failed* is the failed-server mask (a bool array over the global
        server index), or None outside failure windows.  With a mask the
        call stops before committing the first scheduled query whose pick
        touches a failed server: ``bufs.stop_idx[0]`` is that query's
        index (-1 when the call ran to the end) and ``bufs.stop_g`` /
        ``bufs.stop_start_id`` its pick, which the engine hands to the
        reference path's fall-back.  The stopped query draws no RTT.

        The engine times this call as one opaque span: its wall is what
        the chunk accounting charges to scheduling and what the phase
        profiler (:mod:`repro.obs.profiler`) reports as ``sweep_commit``
        -- kernels must not do unrelated work here or the per-phase
        attribution in ``repro profile`` lies.

        This default implementation is the reference python commit loop
        -- the same scalar float operations in the same order as
        ``Deployment.run_query`` and as ``roar_commit_batch`` in
        ``csrc/sweep.c`` (the two are pinned together by the differential
        tests).  Override it only with something bit-identical.
        """
        check_commit_args(state, entry, plan, bufs, start, nq, gate, failed)
        bufs.stop_idx[0] = -1
        select = self.select
        busy_np = state.busy
        spd_np = plan.spd
        Q = entry.Q
        wd = entry.wd
        off0 = entry.off0
        pq = entry.pq
        # plain-list shadows: the per-query updates are scalar float
        # arithmetic, which python floats do ~5x cheaper than numpy scalars
        busy_l = busy_np.tolist()
        spd_l = spd_np.tolist()
        srv_fixed_l = plan.srv_fixed_l
        srv_speed_l = plan.srv_speed_l
        fe_fixed = state.fe_fixed
        alpha = plan.alpha
        om_alpha = plan.om_alpha
        dataset = plan.dataset
        arr_l = plan.arr_l
        rtt_l = bufs.rtts[:nq].tolist()
        failed_l = failed.tolist() if failed is not None else None
        fmod = math.fmod

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
        res: dict[int, float] = {}
        if gate is not None:
            queue_cap = gate.queue_cap
            bucket = gate.bucket
            rate = gate.rate
            burst = gate.burst
            tokens = gate.tokens
            accrued_at = gate.accrued_at
            hwm = gate.backlog_hwm
            max_adm = gate.max_admitted_backlog
            # running max of the queue mirror: exact, because a commit
            # only ever raises busy[g]
            bmax = max(busy_l)
            adm_idx: list[int] = []
            shed_rows: list[tuple] = []
        j = 0  # admitted queries so far

        for k in range(nq):
            q = start + k
            now = arr_l[q]
            if gate is not None:
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
            if failed_l is not None and any(failed_l[g] for g in g_list):
                # the reference path's fall-back owns this query
                bufs.stop_idx[0] = q
                bufs.stop_g[:] = g_list
                bufs.stop_start_id[0] = start_id
                break
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
            # submit + EWMA observe (LIFO: the reference path pops)
            for i in range(pq - 1, -1, -1):
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
                if gate is not None and f > bmax:
                    bmax = f
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

            # write-through the final per-server values (only the last
            # value per server matters to the next query's estimates)
            for g in res:
                busy_np[g] = busy_l[g]
                s_g = spd_l[g]
                if spd_np[g] != s_g:
                    spd_np[g] = s_g
                    Q[g] = wd / s_g

            q_total.append(finish - now)
            q_mw.append(mw)
            q_ms.append(ms)

        m = j * pq
        bufs.sub_g[:m] = sg
        bufs.sub_service[:m] = ssv
        bufs.sub_work[:m] = swk
        bufs.sub_finish[:m] = sf
        bufs.sub_start[:m] = sst
        bufs.q_total[:j] = q_total
        bufs.q_mw[:j] = q_mw
        bufs.q_ms[:j] = q_ms
        if j:
            rn = len(res)
            bufs.res_n[0] = rn
            keys = list(res)
            bufs.res_g[:rn] = keys
            bufs.res_v[:rn] = [res[g] for g in keys]
        if gate is not None:
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
