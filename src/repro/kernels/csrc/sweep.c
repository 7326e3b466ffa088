/* The compiled scheduling kernel: Algorithm 1's precomputed sweep in C,
 * plus the fused per-chunk commit stage.
 *
 * roar_sweep_select replaces the engine's per-query scheduling block --
 * estimate evaluation, the owner-timeline sweep (min across rings / max
 * across points / first strict minimum across evaluated configurations,
 * pruned by a witness point that, once rejected, jumps the sweep to its
 * next owner change), and the final assignment re-derivation by binary
 * search.
 * roar_commit_batch goes further: it consumes a whole chunk of
 * queries per call, running the sweep AND the closed-form commit for
 * each -- sub-query widths, the front-end reserve, queue submit, EWMA
 * speed observation, and the q_over_s write-through -- against the live
 * mirror arrays, emitting the per-sub-query chunk-buffer rows in bulk
 * for the engine's per-query columns.  It is the engine's only commit when
 * the compiled kernel runs.  Inside a failure window a query whose pick
 * touches a failed server either drops in the kernel -- when the failure
 * fall-back could not re-cover the dead run its first failed piece lands
 * on -- or stops the call, reporting that pick, and the engine hands the
 * query to the reference path's fall-back.
 * Every float operation replicates the python oracle's order exactly
 * (IEEE-754 doubles, same comparisons, same tie-breaking; the build
 * passes -ffp-contract=off so the EWMA's a*b + c*d cannot be contracted
 * into an FMA), so the results are bit-identical; the speedup comes from
 * fusing per-query python interpretation and ~10 numpy dispatches into
 * one pass per chunk.
 *
 * The library is plain C with no Python.h dependency: it is built with
 * the system C compiler into a shared object and driven through ctypes
 * (see repro/kernels/compiled.py), which is what lets `repro[fast]`
 * degrade gracefully to the pure-python oracle when no toolchain exists.
 *
 * roar_commit_batch also applies the run's object updates (the update
 * stream, roar_updates): each one just before the query it precedes, so
 * an update and a query that hit the same server advance the queue, busy
 * time and object mirrors in submission order, and a call with nq == 0
 * applies the updates pending at `start` alone.
 *
 * ABI notes (revision 8): `owners` is the (n_rings, pq, n_configs)
 * C-contiguous owner timeline of ring-LOCAL node indices; `ring_lo[r]`
 * maps them to global server indices (the order of `busy` / `q_over_s` /
 * `starts_flat`).  `next_change` is the (pq, n_configs) C-contiguous
 * next-owner-change index (KernelPack.next_change), and `n_eval` the
 * length of the evaluated prefix: revision 5 replaced the per-config
 * `evaluated` byte mask with these two.  `starts_flat` holds each ring's
 * sorted node start positions in the global order.  Revision 6 added the
 * failed-server mask (`failed`, one byte per server, NULL outside failure
 * windows) and the stop report (`stop`, `stop_g`, `stop_start_id`) to
 * roar_commit_args.  Revision 7 added the per-server accumulators the
 * commit now advances itself (busy time, objects, tasks, completed,
 * last seen, touched), the update constants and mirrors (alive flags,
 * one update's work and service time, the trace mask, the queue
 * snapshot) and the update stream (`upd`); with nq == 0 the sweep's
 * entry fields and every `bufs` pointer may be NULL.  Revision 8 added
 * the drop: `lost` (one byte per server, NULL outside failure windows)
 * flags the ring-0 nodes whose dead run the fall-back cannot re-cover,
 * and `q_sent` reports how many pieces each scheduled query submitted.
 * All int buffers are int64 (numpy intp on LP64); bool buffers are one
 * byte per server.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* The reference estimator: (max(busy - now, 0) + fixed) + work*d/speed.
 * A pure function of per-server state, evaluated lazily at gather sites:
 * the pruned sweep reads about one estimate per ring per owner change of
 * its witness point, so computing on demand beats materialising all n
 * estimates up front. */
static inline double est_of(
    const double *busy, const double *q_over_s, double now, double fe_fixed,
    int64_t i)
{
    double e = busy[i] - now;
    if (e < 0.0) {
        e = 0.0;
    }
    return (e + fe_fixed) + q_over_s[i];
}

/* bisect_left: first index in a[0..len) with a[index] >= v (python's
 * bisect.bisect_left comparison, so a NaN lands where it does there). */
static int64_t lower_bound(const double *a, int64_t len, double v) {
    int64_t lo = 0, hi = len;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (a[mid] < v) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    return lo;
}

/* bisect_right: first index in a[0..len) with v < a[index]. */
static int64_t upper_bound(const double *a, int64_t len, double v) {
    int64_t lo = 0, hi = len;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (v < a[mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    return lo;
}

/* All per-query-invariant inputs, filled once per (state, entry) pair by
 * the ctypes driver; per query the foreign call then marshals just two
 * arguments (block pointer + now), which matters at a few us/sweep. */
typedef struct {
    const double *busy;            /* [n] live queue mirror                */
    const double *q_over_s;        /* [n] work*dataset/speed_estimate      */
    double fe_fixed;
    int64_t n;
    const int64_t *owners;         /* [n_rings*pq*n_configs] ring-local    */
    const int64_t *ring_lo;        /* [n_rings] global index of ring start */
    const int64_t *ring_hi;        /* [n_rings] global index past ring end */
    int64_t n_rings;
    int64_t pq;
    int64_t n_configs;
    int64_t n_eval;                /* evaluated prefix: configs [0,n_eval) */
    const int64_t *next_change;    /* [pq*n_configs] next owner change     */
    const double *config_start_id; /* [n_configs] candidate start ids      */
    const double *offs;            /* [pq] query point offsets i/pq        */
    const double *starts_flat;     /* [n] node starts, global order        */
    int64_t *g_out;                /* [pq] out: global server indices      */
    double *pts_out;               /* [pq] out: query points               */
    double *start_id_out;          /* [1]  out: chosen start id            */
} roar_sweep_args;

/* Point p's value at config c: the min estimate across rings of its
 * owners, ring 0 first and replaced only on a strict `<` (the gather's
 * order, so even signed-zero ties resolve as before). */
static inline double point_value(const roar_sweep_args *a, double now,
                                 int64_t p, int64_t c)
{
    const int64_t ring_stride = a->pq * a->n_configs;
    const int64_t *o = a->owners + p * a->n_configs + c;
    double f = est_of(a->busy, a->q_over_s, now, a->fe_fixed,
                      a->ring_lo[0] + o[0]);
    int64_t r;
    for (r = 1; r < a->n_rings; r++) {
        const double v = est_of(a->busy, a->q_over_s, now, a->fe_fixed,
                                a->ring_lo[r] + o[r * ring_stride]);
        if (v < f) {
            f = v;
        }
    }
    return f;
}

int64_t roar_sweep_select(const roar_sweep_args *a, double now)
{
    const double *busy = a->busy;
    const double *q_over_s = a->q_over_s;
    const double fe_fixed = a->fe_fixed;
    const int64_t *ring_lo = a->ring_lo;
    const int64_t *ring_hi = a->ring_hi;
    const int64_t n_rings = a->n_rings;
    const int64_t pq = a->pq;
    const int64_t n_configs = a->n_configs;
    const int64_t n_eval = a->n_eval;
    const int64_t *next_change = a->next_change;
    const double *config_start_id = a->config_start_id;
    const double *offs = a->offs;
    const double *starts_flat = a->starts_flat;
    int64_t *g_out = a->g_out;
    double *pts_out = a->pts_out;
    double *start_id_out = a->start_id_out;
    int64_t r, p, c;

    /* The witness-pruned sweep.  A config wins only when its makespan (the
     * max of its point values) is strictly below best_mk, the best so far,
     * and one point at or above best_mk already rules that out.  The
     * witness `w` is such a point at the last config that was checked:
     * test it first, and only when it has dropped below best_mk look for
     * another point at or above it (the first one found is the new
     * witness).  When there is none, every point value of the config has
     * just been computed, so the config wins with best_mk = their exact
     * max, and the point holding it becomes the witness.
     *
     * A rejected witness stays rejected until the owner of its point
     * changes: its value is fixed while its owners are, and best_mk only
     * falls.  So after either rejection the sweep jumps to
     * next_change[w][c], the witness point's next owner change, and reads
     * about one estimate per owner along the witness's track instead of
     * one per config.  Only the last config can be masked, so the loop
     * runs over the evaluated prefix [0, n_eval), which also ends a jump
     * that runs past the table.
     *
     * Exactness: the point values are the doubles the full gather would
     * produce, max/min of the same doubles are exact, every skipped config
     * has a makespan >= best_mk, and a config still wins only on a strict
     * `<` -- so the chosen config is the first strict minimum among
     * evaluated configs, what np.argmin over the inf-masked makespans
     * picks. */
    double best_mk = INFINITY;
    int64_t best = 0;
    int64_t w = 0;
    for (c = 0; c < n_eval; c++) {
        double mk = point_value(a, now, w, c);
        if (mk >= best_mk) {
            c = next_change[w * n_configs + c] - 1;
            continue;
        }
        int64_t arg = w, hit = -1;
        for (p = 0; p < pq; p++) {
            if (p == w) {
                continue;
            }
            const double v = point_value(a, now, p, c);
            if (v >= best_mk) {
                hit = p;
                break;
            }
            if (v > mk) {
                mk = v;
                arg = p;
            }
        }
        if (hit >= 0) {
            w = hit;
            c = next_change[w * n_configs + c] - 1;
            continue;
        }
        best_mk = mk;
        best = c;
        w = arg;
    }
    const double start_id = config_start_id[best];
    *start_id_out = start_id;

    /* final assignment re-derived at start_id: binary search per point,
     * min-estimate ring wins strictly-first */
    for (p = 0; p < pq; p++) {
        double v = fmod(start_id + offs[p], 1.0);
        if (v < 0.0) {
            v += 1.0;
        }
        if (v >= 1.0) {
            v -= 1.0;
        }
        pts_out[p] = v;
        if (n_rings == 1) {
            int64_t len = ring_hi[0] - ring_lo[0];
            int64_t idx = upper_bound(starts_flat + ring_lo[0], len, v) - 1;
            if (idx < 0) {
                idx = len - 1;
            }
            g_out[p] = ring_lo[0] + idx;
        } else {
            int64_t best_g = -1;
            double best_fin = INFINITY;
            for (r = 0; r < n_rings; r++) {
                int64_t len = ring_hi[r] - ring_lo[r];
                int64_t idx = upper_bound(starts_flat + ring_lo[r], len, v) - 1;
                if (idx < 0) {
                    idx = len - 1;
                }
                int64_t g = ring_lo[r] + idx;
                double fin_v = est_of(busy, q_over_s, now, fe_fixed, g);
                if (fin_v < best_fin) {
                    best_fin = fin_v;
                    best_g = g;
                }
            }
            g_out[p] = best_g;
        }
    }
    return best;
}

/* -- the fused commit stage ------------------------------------------------
 *
 * Everything the python engine does between the scheduling decision and
 * the chunk flush is closed-form per-server float arithmetic: sub-query
 * widths from the chosen start id, the front-end's FIFO reserve, the
 * LIFO queue submit with EWMA speed observation, and the q_over_s
 * write-through that keeps the estimate quotient fresh for the next
 * query's sweep.  roar_commit_batch runs sweep + commit for a whole
 * chunk of queries in one call, advancing the live mirrors (`busy_mut`,
 * `spd`, `q_over_s_mut` and the per-server accumulators `busy_time`,
 * `objects`, `tasks`, `completed`, `last_seen`, `touched`) in place and
 * emitting the per-sub-query rows (server, service, work, finish, start;
 * submit order) plus the per-query reductions (total delay, max wait,
 * max service) into the engine-owned out buffers the flush reads.
 *
 * Exactness: each operation replicates the python oracle's scalar float
 * ops in the same order (SweepKernel.commit_batch in kernels/base.py);
 * any divergence from the exact_numpy oracle is a bug.  The caller
 * guarantees that pq is constant across the span and that start, nq and
 * the buffers are in bounds (kernels/compiled.py checks them first).
 *
 * Failure drop and stop: with a non-NULL `failed` mask, a scheduled
 * query whose pick holds a failed server is settled by its highest pick
 * index i* on a failed server -- the first failed piece
 * Deployment.run_query's LIFO loop pops.  When `lost` flags ring 0's
 * owner of point i* (bisect-right on ring 0's starts, as
 * Ring.node_in_charge), the fall-back would raise before placing a
 * piece, so the query drops here: it reserves every pick, submits pieces
 * pq-1 .. i*+1 with the commit's float ops, and fills its out row with
 * q_sent = pq-1-i*, its unsubmitted picks (continuing the LIFO order,
 * NaN service/work/finish/start) and NaN totals.  Otherwise the query is
 * not committed: its index goes to *stop, its pick to stop_g /
 * *stop_start_id, and the call returns the number scheduled before it;
 * the mirrors and res_* are as that last scheduled query left them.
 * *stop is -1 when the call ran to the end.
 *
 * Admission pre-check: with a non-NULL `gate`, each arrival first sees
 * backlog = max(busy) - now (clipped at 0), kept as a running max that
 * is exact because a commit or an update only ever raises busy[g].  The
 * token bucket (when `bucket`) accrues once at `now` -- AIMDAdmission._accrue,
 * operation for operation -- then the query is shed on the queue cap
 * (code 0) or on an empty bucket (code 1), or admitted.  Admitted query
 * j takes rtts[j] and fills out row j; shed queries emit one shed row
 * and consume nothing else.
 */
typedef struct {
    double queue_cap;              /* shed when backlog >= queue_cap      */
    double rate;                   /* token rate (bucket only)            */
    double burst;                  /* token ceiling (bucket only)         */
    double tokens;                 /* in/out: bucket level                */
    double accrued_at;             /* in/out: last accrual, NaN = never   */
    double backlog_hwm;            /* in/out: largest backlog seen        */
    double max_admitted_backlog;   /* in/out: largest admitted backlog    */
    int64_t bucket;                /* 1: token bucket after the queue cap */
    int64_t n_shed;                /* out: shed rows written              */
    int64_t *adm_idx;              /* [cap] out: admitted query indices   */
    double *shed_time;             /* [cap] out: shed arrival time        */
    int64_t *shed_idx;             /* [cap] out: shed query index         */
    int64_t *shed_reason;          /* [cap] out: 0 queue-cap, 1 rate      */
    double *shed_backlog;          /* [cap] out: backlog at the decision  */
    double *shed_signal;           /* [cap] out: tokens (NaN w/o bucket)  */
} roar_gate;

/* The update stream (kernels/base.py UpdateStream): update u precedes
 * query q[u] (non-decreasing), happens at t[u] and writes the object at
 * ring position pos[u].  Before query q -- or at `start` in a call with
 * no queries -- every update in [next, end) with q[u] <= q is applied by
 * Deployment.apply_update's rule: the first r alive nodes of ring 0
 * clockwise from the position (bisect-left on the starts, then the walk
 * Ring.replica_holders makes) hold it; a failed server skips the write,
 * every other holder takes one fixed-cost task in SimServer.submit's
 * float ops.  snap_due is set by each commit and cleared by the first
 * write after it, which first copies busy to busy_snap (the queues the
 * last committed query's NodeStats sync read). */
typedef struct {
    const int64_t *q;              /* [n_upd] query each update precedes  */
    const double *t;               /* [n_upd] update time                 */
    const double *pos;             /* [n_upd] ring position               */
    int64_t next;                  /* in/out: first update not applied    */
    int64_t end;                   /* apply none at or past this index    */
    int64_t r;                     /* alive holders per update            */
    int64_t snap_due;              /* in/out: snapshot before next write  */
    int64_t n_written;             /* out: updates that found a holder    */
    int64_t n_rows;                /* out: trace rows written             */
    int64_t *row_g;                /* out: traced holder                  */
    int64_t *row_at;               /* out: query sub-rows emitted before  */
    double *row_t;                 /* out: update time                    */
    double *row_start;             /* out: task start                     */
    double *row_finish;            /* out: task finish                    */
} roar_updates;

typedef struct {
    roar_sweep_args sweep;         /* embedded; its busy/q_over_s alias   */
                                   /* busy_mut/q_over_s_mut below         */
    const double *srv_fixed;       /* [n] per-server fixed overhead       */
    const double *srv_speed;       /* [n] true server speeds (submit)     */
    double alpha;                  /* EWMA weight of the new observation  */
    double om_alpha;               /* 1 - alpha                           */
    double dataset;                /* dataset size (work = width*dataset) */
    double wd;                     /* work*dataset of this pq entry       */
    double off0;                   /* -1/pq (first width wraps from here) */
    const double *arrivals;        /* [n_total] full-batch arrival times  */
    const double *rtts;            /* [>=nq] span's pregenerated RTT draws */
    double *busy_mut;              /* [n] live queue mirror, writable     */
    double *spd;                   /* [n] live EWMA speed mirror          */
    double *q_over_s_mut;          /* [n] wd/spd quotient, kept fresh     */
    double *wbuf;                  /* [pq] scratch: sub-query widths      */
    int64_t *res_g;                /* [pq] out: last query's reserve keys */
    double *res_v;                 /* [pq] out: last query's reserve vals */
    int64_t *res_n;                /* [1]  out: reserve entry count       */
    int64_t *sub_g;                /* [cap*pq] out: global server index   */
    double *sub_service;           /* [cap*pq] out: service time          */
    double *sub_work;              /* [cap*pq] out: objects matched       */
    double *sub_finish;            /* [cap*pq] out: finish time           */
    double *sub_start;             /* [cap*pq] out: execution start       */
    double *q_total;               /* [cap] out: finish - now             */
    double *q_mw;                  /* [cap] out: max sub-query wait       */
    double *q_ms;                  /* [cap] out: max sub-query service    */
    int64_t *q_sent;               /* [cap] out: pieces submitted         */
    roar_gate *gate;               /* admission pre-check, NULL = none    */
    const uint8_t *failed;         /* [n] failed-server mask, NULL = none */
    const uint8_t *lost;           /* [n] unrecoverable ring-0 nodes, or  */
                                   /* NULL: every failed pick stops       */
    int64_t *stop;                 /* [1] out: stopped query, -1 = none   */
    int64_t *stop_g;               /* [pq] out: the stopped query's pick  */
    double *stop_start_id;         /* [1] out: its start id               */
    double *busy_time;             /* [n] SimServer.busy_time mirror      */
    double *objects;               /* [n] SimServer.objects_matched       */
    int64_t *tasks;                /* [n] SimServer.tasks_run             */
    int64_t *completed;            /* [n] NodeStats.completed             */
    double *last_seen;             /* [n] NodeStats.last_seen             */
    uint8_t *touched;              /* [n] out: servers this run wrote     */
    const uint8_t *alive;          /* [n] ring node alive flags           */
    const double *upd_work;        /* [n] one update's objects            */
    const double *upd_service;     /* [n] one update's service time       */
    const uint8_t *trace;          /* [n] traced servers, NULL = none     */
    double *busy_snap;             /* [n] out: queues at the last sync    */
    roar_updates *upd;             /* the update stream, NULL = none      */
} roar_commit_args;

/* Apply every pending update with q[u] <= q_bound (see roar_updates).
 * `at` is the number of query sub-rows the call has emitted; `bmax` the
 * gate's running max (NULL without a gate). */
static void apply_updates(const roar_commit_args *a, roar_updates *u,
                          int64_t q_bound, int64_t at, double *bmax)
{
    const roar_sweep_args *sw = &a->sweep;
    const int64_t lo0 = sw->ring_lo[0];
    const int64_t n0 = sw->ring_hi[0] - lo0;
    const double *starts0 = sw->starts_flat + lo0;
    const uint8_t *failed = a->failed;
    const int64_t r = u->r, end = u->end;
    double *busy = a->busy_mut;
    int64_t k = u->next, snap_due = u->snap_due;
    int64_t n_written = u->n_written, n_rows = u->n_rows;
    while (k < end && u->q[k] <= q_bound) {
        const double t = u->t[k];
        const int64_t i = lower_bound(starts0, n0, u->pos[k]);
        int64_t found = 0, c;
        k++;
        for (c = 0; c < n0 && found < r; c++) {
            int64_t j = i + c;
            if (j >= n0) {
                j -= n0;
            }
            const int64_t g = lo0 + j;
            if (!a->alive[g]) {
                continue;
            }
            found++;
            if (failed != NULL && failed[g]) {
                continue;
            }
            if (snap_due) {
                memcpy(a->busy_snap, busy, (size_t)sw->n * sizeof(double));
                snap_due = 0;
            }
            const double b = busy[g];
            const double s0 = b > t ? b : t;
            const double svc = a->upd_service[g];
            const double f = s0 + svc;
            busy[g] = f;
            a->busy_time[g] += svc;
            a->objects[g] += a->upd_work[g];
            a->tasks[g] += 1;
            a->touched[g] = 1;
            if (bmax != NULL && f > *bmax) {
                *bmax = f;
            }
            if (a->trace != NULL && a->trace[g]) {
                u->row_g[n_rows] = g;
                u->row_at[n_rows] = at;
                u->row_t[n_rows] = t;
                u->row_start[n_rows] = s0;
                u->row_finish[n_rows] = f;
                n_rows++;
            }
        }
        if (found > 0) {
            n_written++;
        }
    }
    u->next = k;
    u->snap_due = snap_due;
    u->n_written = n_written;
    u->n_rows = n_rows;
}

int64_t roar_commit_batch(const roar_commit_args *a, int64_t start,
                          int64_t nq)
{
    const roar_sweep_args *sw = &a->sweep;
    const int64_t pq = sw->pq;
    const double fe_fixed = sw->fe_fixed;
    const int64_t *g_list = sw->g_out;
    const double *pts = sw->pts_out;
    const double *srv_fixed = a->srv_fixed;
    const double *srv_speed = a->srv_speed;
    const double alpha = a->alpha, om_alpha = a->om_alpha;
    const double dataset = a->dataset, wd = a->wd, off0 = a->off0;
    double *busy = a->busy_mut;
    double *spd = a->spd;
    double *q_over_s = a->q_over_s_mut;
    double *wbuf = a->wbuf;
    int64_t *res_g = a->res_g;
    double *res_v = a->res_v;
    roar_gate *gate = a->gate;
    const uint8_t *failed = a->failed;
    const uint8_t *lost = a->lost;
    const int64_t lo0 = sw->ring_lo[0];
    const int64_t n0 = sw->ring_hi[0] - lo0;
    const double *starts0 = sw->starts_flat + lo0;
    roar_updates *upd = a->upd;
    double *busy_time = a->busy_time, *objects = a->objects;
    double *last_seen = a->last_seen;
    int64_t *tasks = a->tasks, *completed = a->completed;
    uint8_t *touched = a->touched;
    int64_t si = 0, adm = 0, ns = 0;
    int64_t k, i, j;
    double bmax = 0.0, hwm = 0.0, max_adm = 0.0, tokens = 0.0;
    double accrued_at = 0.0;
    double *bmax_p = gate != NULL ? &bmax : NULL;
    if (gate != NULL) {
        bmax = busy[0];
        for (j = 1; j < sw->n; j++) {
            if (busy[j] > bmax) {
                bmax = busy[j];
            }
        }
        hwm = gate->backlog_hwm;
        max_adm = gate->max_admitted_backlog;
        tokens = gate->tokens;
        accrued_at = gate->accrued_at;
    }
    if (a->stop != NULL) {
        *a->stop = -1;
    }

    for (k = 0; k < nq; k++) {
        if (upd != NULL && upd->next < upd->end && upd->q[upd->next] <= start + k) {
            apply_updates(a, upd, start + k, si, bmax_p);
        }
        const double now = a->arrivals[start + k];
        if (gate != NULL) {
            double backlog = bmax - now;
            if (backlog < 0.0) {
                backlog = 0.0;
            }
            if (backlog > hwm) {
                hwm = backlog;
            }
            if (gate->bucket) {
                if (isnan(accrued_at)) {
                    accrued_at = now;
                } else {
                    const double elapsed = now - accrued_at;
                    if (elapsed > 0.0) {
                        const double t = tokens + elapsed * gate->rate;
                        tokens = t < gate->burst ? t : gate->burst;
                        accrued_at = now;
                    }
                }
            }
            int64_t reason = -1;
            if (backlog >= gate->queue_cap) {
                reason = 0;
            } else if (gate->bucket && tokens < 1.0) {
                reason = 1;
            }
            if (reason >= 0) {
                gate->shed_time[ns] = now;
                gate->shed_idx[ns] = start + k;
                gate->shed_reason[ns] = reason;
                gate->shed_backlog[ns] = backlog;
                gate->shed_signal[ns] = gate->bucket ? tokens : NAN;
                ns++;
                continue;
            }
            if (backlog > max_adm) {
                max_adm = backlog;
            }
            if (gate->bucket) {
                tokens -= 1.0;
            }
            gate->adm_idx[adm] = start + k;
        }
        (void)roar_sweep_select(sw, now);
        const double start_id = sw->start_id_out[0];
        int64_t live = 0;  /* the lowest pick index the query submits */
        if (failed != NULL) {
            int64_t hit = pq - 1;
            while (hit >= 0 && !failed[g_list[hit]]) {
                hit--;
            }
            if (hit >= 0) {
                /* the fall-back re-covers from ring 0's owner of the
                 * failed point; a flagged owner means it would raise */
                int64_t o = upper_bound(starts0, n0, pts[hit]) - 1;
                if (o < 0) {
                    o = n0 - 1;
                }
                if (lost == NULL || !lost[lo0 + o]) {
                    /* the reference path's fall-back owns it */
                    *a->stop = start + k;
                    for (i = 0; i < pq; i++) {
                        a->stop_g[i] = g_list[i];
                    }
                    *a->stop_start_id = start_id;
                    break;
                }
                live = hit + 1;
            }
        }
        const double rtt = a->rtts[adm];

        /* widths + reserve (FIFO over sub-queries; the first occurrence
         * of a server syncs the live queue, repeats accumulate) */
        double v = fmod(start_id + off0, 1.0);
        if (v < 0.0) {
            v += 1.0;
        }
        if (v >= 1.0) {
            v -= 1.0;
        }
        double prev = v;
        int64_t rn = 0;
        for (i = 0; i < pq; i++) {
            const double d = pts[i];
            double w = fmod(d - prev, 1.0);
            if (w < 0.0) {
                w += 1.0;
            }
            if (w >= 1.0) {
                w -= 1.0;
            }
            wbuf[i] = w;
            prev = d;
            const int64_t g = g_list[i];
            const double spd_g = spd[g];
            const double service =
                fe_fixed + (w * dataset) / (spd_g > 1e-9 ? spd_g : 1e-9);
            int64_t slot = -1;
            for (j = 0; j < rn; j++) {  /* pq is small: linear map */
                if (res_g[j] == g) {
                    slot = j;
                    break;
                }
            }
            double base;
            if (slot < 0) {
                base = busy[g];
                slot = rn;
                res_g[rn++] = g;
            } else {
                base = res_v[slot];
            }
            res_v[slot] = (base > now ? base : now) + service;
        }
        *a->res_n = rn;

        /* submit + EWMA observe (LIFO: the reference path pops, and a
         * drop stops at its failed piece) */
        double finish = now, mw = 0.0, ms = 0.0;
        const double half = rtt / 2.0;
        const double arr_t = now + half;
        for (i = pq - 1; i >= live; i--) {
            const int64_t g = g_list[i];
            const double work = wbuf[i] * dataset;
            const double b = busy[g];
            double wait = b - now;
            if (wait < 0.0) {
                wait = 0.0;
            }
            const double start_t = arr_t > b ? arr_t : b;
            const double service = srv_fixed[g] + work / srv_speed[g];
            const double f = start_t + service;
            busy[g] = f;
            if (gate != NULL && f > bmax) {
                bmax = f;
            }
            busy_time[g] += service;
            objects[g] += work;
            tasks[g] += 1;
            completed[g] += 1;
            if (f > last_seen[g]) {
                last_seen[g] = f;
            }
            touched[g] = 1;
            a->sub_g[si] = g;
            a->sub_service[si] = service;
            a->sub_work[si] = work;
            a->sub_finish[si] = f;
            a->sub_start[si] = start_t;
            si++;
            const double eff = service - fe_fixed;
            if (eff > 0.0 && work > 0.0) {
                spd[g] = om_alpha * spd[g] + alpha * (work / eff);
            }
            const double fh = f + half;
            if (fh > finish) {
                finish = fh;
            }
            if (wait > mw) {
                mw = wait;
            }
            if (service > ms) {
                ms = service;
            }
        }
        for (i = live - 1; i >= 0; i--) {  /* a drop's unsubmitted picks */
            a->sub_g[si] = g_list[i];
            a->sub_service[si] = NAN;
            a->sub_work[si] = NAN;
            a->sub_finish[si] = NAN;
            a->sub_start[si] = NAN;
            si++;
        }

        /* write-through: q_over_s tracks wd/spd for the touched servers
         * (only the final per-server speed matters to the next sweep) */
        for (j = 0; j < rn; j++) {
            const int64_t g = res_g[j];
            q_over_s[g] = wd / spd[g];
        }
        if (live > 0) {
            a->q_total[adm] = NAN;
            a->q_mw[adm] = NAN;
            a->q_ms[adm] = NAN;
        } else {
            a->q_total[adm] = finish - now;
            a->q_mw[adm] = mw;
            a->q_ms[adm] = ms;
        }
        a->q_sent[adm] = pq - live;
        adm++;
        if (upd != NULL) {
            upd->snap_due = 1;
        }
    }
    if (nq == 0 && upd != NULL) {
        apply_updates(a, upd, start, 0, bmax_p);
    }
    if (gate != NULL) {
        gate->tokens = tokens;
        gate->accrued_at = accrued_at;
        gate->backlog_hwm = hwm;
        gate->max_admitted_backlog = max_adm;
        gate->n_shed = ns;
    }
    return adm;
}

/* Build-probe symbol so the loader can verify the ABI revision it built. */
int64_t roar_sweep_abi_version(void) { return 8; }
