"""Live metrics collection for the closed-loop control plane.

The paper evaluates ROAR with *offline* statistics: run an experiment, then
summarise the delay log.  A controller needs the same signals *online* --
what is p99 latency right now, how loaded are the servers, how deep are the
queues -- computed over sliding windows so decisions react to the recent
past rather than the whole run.

:class:`MetricsCollector` is the observation half of the loop:

* it subscribes to a deployment's ``chunk_listeners`` hook (one
  :meth:`~repro.telemetry.ChunkListener.observe_chunk` call per flushed
  chunk on the batched engine) and folds whole numpy slices of completed
  queries into a sliding latency window plus a cumulative log-bucketed
  histogram -- no per-query python on the hot path;
* a periodic sampling tick (driven by :meth:`sample_servers`) records
  per-server utilisation over the sampling interval and instantaneous
  queue depths;
* :meth:`snapshot` freezes everything into a :class:`MetricsSnapshot` --
  the only thing controllers are allowed to see, which keeps policies
  decoupled from the deployment internals.

All window statistics are bit-identical to the historic deque-backed
implementation: means keep python left-to-right summation, percentiles run
the exact interpolation arithmetic via
:func:`~repro.telemetry.columns.array_percentile` (``np.partition``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

from ..sim.server import SimServer
from ..telemetry.columns import GrowArray, array_percentile
from ..telemetry.listeners import ChunkArrays, ChunkListener
from ..telemetry.records import QueryRecord, percentile

__all__ = [
    "SlidingWindow",
    "LatencyHistogram",
    "MetricsSnapshot",
    "MetricsCollector",
]

#: compact the window's backing arrays once this many pruned rows pile up
#: at the front (and they outnumber the live ones)
_COMPACT_MIN = 4096


class SlidingWindow:
    """Timestamped samples retained for a fixed trailing duration.

    Columnar: timestamps and values live in parallel
    :class:`~repro.telemetry.columns.GrowArray` columns with a prune
    cursor, so a whole chunk of samples lands as one array copy and
    pruning is a ``searchsorted`` instead of a popleft loop.  Semantics
    match the historic deque implementation exactly: samples must arrive
    in time order, pruning keeps ``t >= now - duration``, and the summary
    statistics reproduce the same float operations bit for bit.
    """

    def __init__(self, duration: float) -> None:
        if duration <= 0:
            raise ValueError(f"window duration must be positive, got {duration}")
        self.duration = duration
        self._t = GrowArray()
        self._v = GrowArray()
        self._lo = 0  # rows below this index are pruned

    def _last_time(self) -> float | None:
        if self._t.n > self._lo:
            return float(self._t.view()[-1])
        return None

    def add(self, t: float, value: float) -> None:
        last = self._last_time()
        if last is not None and t < last:
            raise ValueError("samples must arrive in time order")
        self._t.append(t)
        self._v.append(value)

    def extend(self, ts, values) -> None:
        """Bulk-append one chunk of (time, value) samples, in time order."""
        ts = np.asarray(ts, dtype=np.float64)
        if ts.size == 0:
            return
        last = self._last_time()
        if (last is not None and ts[0] < last) or (
            ts.size > 1 and bool(np.any(ts[1:] < ts[:-1]))
        ):
            raise ValueError("samples must arrive in time order")
        self._t.extend(ts)
        self._v.extend(values)

    def prune(self, now: float) -> None:
        cutoff = now - self.duration
        lo = int(np.searchsorted(self._t.view(), cutoff, side="left"))
        if lo > self._lo:
            self._lo = lo
        if self._lo >= _COMPACT_MIN and self._lo * 2 >= self._t.n:
            self._t.shift_down(self._lo)
            self._v.shift_down(self._lo)
            self._lo = 0

    def _live(self) -> "np.ndarray":
        return self._v.view()[self._lo :]

    def values(self, now: float | None = None) -> list[float]:
        if now is not None:
            self.prune(now)
        return self._live().tolist()

    def __len__(self) -> int:
        return self._t.n - self._lo

    def mean(self, now: float | None = None) -> float:
        vals = self.values(now)
        return sum(vals) / len(vals) if vals else math.nan

    def percentile(self, q: float, now: float | None = None) -> float:
        if now is not None:
            self.prune(now)
        live = self._live()
        return array_percentile(live, q) if live.size else math.nan

    def rate(self, now: float) -> float:
        """Samples per second over the window (arrival-rate estimator).

        Always divides by the full window duration: dividing by the span
        back to the oldest *retained* sample explodes when the window holds
        one recent straggler (1 sample / milliseconds = thousands of qps),
        and that figure feeds the planner.  The cost is a conservative
        under-read during the first window of the run.
        """
        self.prune(now)
        return len(self) / self.duration


class LatencyHistogram:
    """Cumulative log-bucketed latency histogram (whole-run aggregate).

    Buckets grow geometrically from *lo* to *hi*; quantiles are linearly
    interpolated within the winning bucket.  The histogram complements the
    sliding window: the window answers "now", the histogram answers "the
    whole run" without retaining every sample.
    """

    def __init__(
        self, lo: float = 1e-4, hi: float = 100.0, buckets_per_decade: int = 10
    ) -> None:
        if not (0 < lo < hi):
            raise ValueError("need 0 < lo < hi")
        n_decades = math.log10(hi / lo)
        n_buckets = max(1, int(math.ceil(n_decades * buckets_per_decade)))
        ratio = (hi / lo) ** (1.0 / n_buckets)
        self.bounds = [lo * ratio**i for i in range(n_buckets + 1)]
        self._bounds_arr = np.array(self.bounds)
        self.counts = [0] * (n_buckets + 2)  # + underflow/overflow
        self.total = 0

    def record(self, value: float) -> None:
        self.total += 1
        if value < self.bounds[0]:
            self.counts[0] += 1
            return
        if value >= self.bounds[-1]:
            self.counts[-1] += 1
            return
        lo, hi = 0, len(self.bounds) - 1
        while lo + 1 < hi:  # binary search for the bucket
            mid = (lo + hi) // 2
            if value >= self.bounds[mid]:
                lo = mid
            else:
                hi = mid
        self.counts[lo + 1] += 1

    def record_many(self, values) -> None:
        """Bucket one chunk of samples in a single vectorised pass.

        ``searchsorted(bounds, v, side='right')`` returns exactly the
        count index the scalar binary search increments: 0 for underflow,
        ``len(bounds)`` (== the overflow slot) for ``v >= bounds[-1]``,
        and ``lo + 1`` for an interior bucket.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        self.total += int(values.size)
        idx = np.searchsorted(self._bounds_arr, values, side="right")
        binc = np.bincount(idx, minlength=len(self.counts))
        counts = self.counts
        for i, c in enumerate(binc.tolist()):
            if c:
                counts[i] += c

    def quantile(self, q: float) -> float:
        """The *q*-th (0..100) quantile, interpolated within its bucket."""
        if self.total == 0:
            return math.nan
        target = (q / 100.0) * self.total
        seen = 0
        for i, count in enumerate(self.counts):
            if seen + count >= target and count > 0:
                frac = (target - seen) / count
                if i == 0:
                    return self.bounds[0]
                if i == len(self.counts) - 1:
                    return self.bounds[-1]
                lo, hi = self.bounds[i - 1], self.bounds[i]
                return lo + frac * (hi - lo)
            seen += count
        return self.bounds[-1]


@dataclass(frozen=True)
class MetricsSnapshot:
    """Frozen view of the system handed to controllers each tick.

    These fields are the controller's *only* inputs, which is what makes
    the decision audit trail complete: :class:`~repro.obs.events.DecisionLog`
    copies ``p50``/``p95``/``p99``, ``max_queue_depth``,
    ``mean_utilisation``, ``qps``, ``n_queries`` and ``n_servers`` into
    every decision record, so ``repro explain`` can reconstruct exactly
    what a policy saw (and re-derive the p99 from archived delay columns
    -- the window samples by arrival time, see ``docs/observability.md``).
    """

    time: float
    window: float  # trailing seconds the query stats cover
    n_queries: int  # completed queries inside the window
    qps: float  # completion rate over the window
    mean_latency: float
    p50: float
    p95: float
    p99: float
    n_servers: int
    utilisation: Mapping[str, float]  # per-server, over the last interval
    queue_depths: Mapping[str, float]  # seconds of backlog per server

    @property
    def mean_utilisation(self) -> float:
        """Mean per-server utilisation; NaN before the first full interval."""
        if not self.utilisation:
            return math.nan
        return sum(self.utilisation.values()) / len(self.utilisation)

    @property
    def max_utilisation(self) -> float:
        return max(self.utilisation.values(), default=0.0)

    @property
    def load_imbalance(self) -> float:
        """Definition 3's max/mean load ratio over the last interval."""
        if not self.utilisation:
            return 1.0
        mean = self.mean_utilisation
        if mean <= 0:
            return 1.0
        return self.max_utilisation / mean

    @property
    def max_queue_depth(self) -> float:
        return max(self.queue_depths.values(), default=0.0)


class MetricsCollector(ChunkListener):
    """Observation plane: sliding latency windows + periodic server samples."""

    def __init__(self, window: float = 30.0) -> None:
        self.window = SlidingWindow(window)
        self.histogram = LatencyHistogram()
        self.queries_seen = 0
        self._last_sample_time: float | None = None
        self._last_busy: dict[str, float] = {}
        self._utilisation: dict[str, float] = {}
        self._queue_depths: dict[str, float] = {}
        self.snapshots: list[MetricsSnapshot] = []

    # -- hooks -------------------------------------------------------------
    def attach(self, deployment) -> "MetricsCollector":
        """Subscribe to a deployment's completion stream.

        Registers on ``chunk_listeners``: the batched engine then feeds
        whole flushed chunks through :meth:`observe_chunk` and the
        reference path feeds single records through
        :meth:`observe_record` -- identical statistics either way.
        """
        deployment.chunk_listeners.append(self)
        return self

    def observe_query(self, record: QueryRecord) -> None:
        # Samples are indexed by *arrival* time: the analytic execution model
        # resolves a query's completion at dispatch, and arrivals -- unlike
        # finishes -- reach us in monotone order.
        self.queries_seen += 1
        self.window.add(record.arrival, record.delay)
        self.histogram.record(record.delay)

    def observe_record(self, record: QueryRecord, breakdown=None) -> None:
        self.observe_query(record)

    def observe_chunk(self, arrays: ChunkArrays, start: int, nq: int) -> None:
        delays = arrays.delays()
        self.queries_seen += nq
        self.window.extend(arrays.arrivals, delays)
        self.histogram.record_many(delays)

    def sample_servers(
        self, now: float, servers: Mapping[str, SimServer]
    ) -> None:
        """Record per-server utilisation since the previous sample.

        Utilisation is the *delta* of each server's cumulative busy time over
        the sampling interval -- an instantaneous load signal, unlike
        :meth:`SimServer.utilisation` which averages over the whole run.
        """
        prev = self._last_sample_time
        interval = None if prev is None else max(now - prev, 1e-9)
        utilisation: dict[str, float] = {}
        busy_now: dict[str, float] = {}
        for name, server in servers.items():
            busy_now[name] = server.busy_time
            if interval is not None:
                delta = server.busy_time - self._last_busy.get(name, 0.0)
                utilisation[name] = min(1.0, max(0.0, delta / (interval * server.cores)))
        # The first sample only establishes the busy-time baseline: there is
        # no interval to average over yet, so utilisation stays empty (NaN
        # aggregate) rather than fabricating an idle pool.
        self._last_busy = busy_now
        self._last_sample_time = now
        self._utilisation = utilisation
        self._queue_depths = {
            name: server.queue_backlog(now) for name, server in servers.items()
        }

    # -- reporting ---------------------------------------------------------
    def snapshot(self, now: float, record: bool = True) -> MetricsSnapshot:
        vals = self.window.values(now)
        has = bool(vals)
        snap = MetricsSnapshot(
            time=now,
            window=self.window.duration,
            n_queries=len(vals),
            qps=self.window.rate(now),
            mean_latency=sum(vals) / len(vals) if has else math.nan,
            p50=percentile(vals, 50) if has else math.nan,
            p95=percentile(vals, 95) if has else math.nan,
            p99=percentile(vals, 99) if has else math.nan,
            n_servers=len(self._utilisation),
            utilisation=dict(self._utilisation),
            queue_depths=dict(self._queue_depths),
        )
        if record:
            self.snapshots.append(snap)
        return snap
