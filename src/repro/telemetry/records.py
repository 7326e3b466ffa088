"""Columnar query records: the primary result representation.

Historically every completed query appended a :class:`QueryRecord` (and a
:class:`QueryBreakdown`) object to python lists -- ~2.5 us of interpreter
time per query, the last per-query python on the batched fast path.  This
module inverts the representation: the *columns* (flat float64/int64
arrays, one row per query) are primary, and the record objects are
materialised lazily when (and only when) somebody indexes or iterates the
legacy views.

* :class:`DelayLog` keeps the Chapter 6 summary API (mean/percentile/
  exploding-queue detection) but stores columns; ``log.records`` returns a
  :class:`RecordView`, a list-like lazy materialiser.
* :class:`BreakdownLog` does the same for ``deployment.breakdowns``.
* Bulk appends (:meth:`DelayLog.append_columns`) land a whole flushed chunk
  as a handful of array copies -- zero per-query python.

Every summary statistic reproduces the historic float operations exactly
(python left-to-right sums stay python sums; percentiles go through
:func:`~repro.telemetry.columns.array_percentile`, which is bit-identical
to the sorted-list formula), so the golden regression pins hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

from .columns import GrowArray, array_percentile

__all__ = [
    "EXPLODING_SLOPE",
    "QueryRecord",
    "QueryBreakdown",
    "DelayLog",
    "RecordView",
    "BreakdownLog",
    "linear_fit",
    "percentile",
]

#: Slope of the fitted delay(time) line above which the run is deemed
#: saturated (queries/sec backlog growing without bound) -- Section 6.1.
EXPLODING_SLOPE = 0.1


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit ``y = a*x + b``; returns (slope, intercept)."""
    n = len(xs)
    if n != len(ys):
        raise ValueError("xs and ys must have equal length")
    if n == 0:
        return 0.0, 0.0
    if n == 1:
        return 0.0, ys[0]
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        return 0.0, mean_y
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, mean_y - slope * mean_x


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) with linear interpolation."""
    if len(values) == 0:
        raise ValueError("empty sequence")
    return array_percentile(np.asarray(values, dtype=np.float64), q)


@dataclass(slots=True)
class QueryRecord:
    """Timing of one completed query."""

    query_id: int
    arrival: float
    finish: float
    pq: int = 0
    subqueries: int = 0
    scheduling_delay: float = 0.0

    @property
    def delay(self) -> float:
        return self.finish - self.arrival


@dataclass(slots=True)
class QueryBreakdown:
    """Fig 7.11's delay decomposition for one query."""

    scheduling: float  # real wall-clock spent in the scheduler
    network: float  # rtt components
    queueing: float  # max sub-query wait behind prior work
    service: float  # max sub-query execution time
    total: float


class RecordView:
    """List-like lazy view over a :class:`DelayLog`'s columns.

    Supports ``len``, integer/negative indexing, slicing, iteration, and
    ``append`` (which writes a row back into the columns), which covers
    every historical use of ``log.records``.  Indexing materialises a fresh
    :class:`QueryRecord`; two reads of the same row return equal (but not
    identical) objects.
    """

    __slots__ = ("_log",)

    def __init__(self, log: "DelayLog") -> None:
        self._log = log

    def __len__(self) -> int:
        return self._log.n_records

    def __bool__(self) -> bool:
        return self._log.n_records > 0

    def _make(self, i: int) -> QueryRecord:
        log = self._log
        return QueryRecord(
            query_id=int(log._qid.view()[i]),
            arrival=float(log._arrival.view()[i]),
            finish=float(log._finish.view()[i]),
            pq=int(log._pq.view()[i]),
            subqueries=int(log._subqueries.view()[i]),
            scheduling_delay=float(log._sched.view()[i]),
        )

    def __getitem__(self, key):
        n = self._log.n_records
        if isinstance(key, slice):
            return [self._make(i) for i in range(*key.indices(n))]
        i = key
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("record index out of range")
        return self._make(i)

    def __iter__(self) -> Iterator[QueryRecord]:
        for i in range(self._log.n_records):
            yield self._make(i)

    def append(self, record: QueryRecord) -> None:
        self._log.add(record)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RecordView of {self._log.n_records} records>"


class BreakdownLog:
    """List-like columnar store of :class:`QueryBreakdown` rows."""

    __slots__ = ("_scheduling", "_network", "_queueing", "_service", "_total")

    _FIELDS = ("scheduling", "network", "queueing", "service", "total")

    def __init__(self) -> None:
        self._scheduling = GrowArray()
        self._network = GrowArray()
        self._queueing = GrowArray()
        self._service = GrowArray()
        self._total = GrowArray()

    def __len__(self) -> int:
        return self._total.n

    def __bool__(self) -> bool:
        return self._total.n > 0

    def append(self, b: QueryBreakdown) -> None:
        self._scheduling.append(b.scheduling)
        self._network.append(b.network)
        self._queueing.append(b.queueing)
        self._service.append(b.service)
        self._total.append(b.total)

    def append_columns(self, scheduling, network, queueing, service, total) -> None:
        """Bulk-append one flushed chunk (parallel equal-length sequences)."""
        self._scheduling.extend(scheduling)
        self._network.extend(network)
        self._queueing.extend(queueing)
        self._service.extend(service)
        self._total.extend(total)

    def _make(self, i: int) -> QueryBreakdown:
        return QueryBreakdown(
            scheduling=float(self._scheduling.view()[i]),
            network=float(self._network.view()[i]),
            queueing=float(self._queueing.view()[i]),
            service=float(self._service.view()[i]),
            total=float(self._total.view()[i]),
        )

    def __getitem__(self, key):
        n = len(self)
        if isinstance(key, slice):
            return [self._make(i) for i in range(*key.indices(n))]
        i = key
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("breakdown index out of range")
        return self._make(i)

    def __iter__(self) -> Iterator[QueryBreakdown]:
        for i in range(len(self)):
            yield self._make(i)

    def column(self, name: str) -> "np.ndarray":
        """The named column's filled prefix (live view; copy to retain)."""
        if name not in self._FIELDS:
            raise KeyError(name)
        return getattr(self, f"_{name}").view()

    def columns(self) -> dict:
        return {name: self.column(name) for name in self._FIELDS}


class DelayLog:
    """Accumulates completed queries (columnar) and summarises them.

    The summary methods produce the floats of the historic
    list-of-records log bit for bit; the per-query rows live in flat
    columns and ``records`` is a lazy :class:`RecordView`.
    """

    __slots__ = (
        "_qid",
        "_arrival",
        "_finish",
        "_pq",
        "_subqueries",
        "_sched",
        "dropped",
    )

    def __init__(self, dropped: int = 0) -> None:
        self._qid = GrowArray(dtype="int64")
        self._arrival = GrowArray()
        self._finish = GrowArray()
        self._pq = GrowArray(dtype="int64")
        self._subqueries = GrowArray(dtype="int64")
        self._sched = GrowArray()
        self.dropped = dropped  # queries not serviced (yield accounting)

    # -- writing -----------------------------------------------------------
    def add(self, record: QueryRecord) -> None:
        self._qid.append(record.query_id)
        self._arrival.append(record.arrival)
        self._finish.append(record.finish)
        self._pq.append(record.pq)
        self._subqueries.append(record.subqueries)
        self._sched.append(record.scheduling_delay)

    def append_columns(
        self, query_ids, arrivals, finishes, pqs, subqueries, scheduling
    ) -> None:
        """Bulk-append one flushed chunk (parallel equal-length sequences)."""
        self._qid.extend(query_ids)
        self._arrival.extend(arrivals)
        self._finish.extend(finishes)
        self._pq.extend(pqs)
        self._subqueries.extend(subqueries)
        self._sched.extend(scheduling)

    # -- access ------------------------------------------------------------
    @property
    def n_records(self) -> int:
        return self._arrival.n

    def __len__(self) -> int:
        return self._arrival.n

    @property
    def records(self) -> RecordView:
        return RecordView(self)

    _COLUMNS = ("query_id", "arrival", "finish", "pq", "subqueries", "scheduling")
    _COL_ATTRS = ("_qid", "_arrival", "_finish", "_pq", "_subqueries", "_sched")

    def column(self, name: str) -> "np.ndarray":
        """The named column's filled prefix (live view; copy to retain)."""
        try:
            attr = self._COL_ATTRS[self._COLUMNS.index(name)]
        except ValueError:
            raise KeyError(name) from None
        return getattr(self, attr).view()

    def columns(self) -> dict:
        return {name: self.column(name) for name in self._COLUMNS}

    # -- summaries (historic float semantics, array-backed) ----------------
    def delays(self) -> list[float]:
        # elementwise float64 subtraction == python float subtraction, bit
        # for bit, so this matches the historic [r.delay for r in records]
        return (self._finish.view() - self._arrival.view()).tolist()

    def is_exploding(self) -> bool:
        """Apply the paper's slope test to delay(arrival_time)."""
        if self.n_records < 2:
            return False
        xs = self._arrival.view().tolist()
        ys = self.delays()
        slope, _ = linear_fit(xs, ys)
        return slope > EXPLODING_SLOPE

    def mean_delay(self) -> float:
        """Mean delay, or ``inf`` when the queue is exploding (paper rule)."""
        if self.n_records == 0:
            return math.nan
        if self.is_exploding():
            return math.inf
        delays = self.delays()
        # python left-to-right sum, not np.sum: pairwise summation would
        # drift the golden pins by a few ulps
        return sum(delays) / len(delays)

    def raw_mean_delay(self) -> float:
        delays = self.delays()
        return sum(delays) / len(delays) if delays else math.nan

    def max_delay(self) -> float:
        if self.n_records == 0:
            return math.nan
        return float(np.max(self._finish.view() - self._arrival.view()))

    def percentile_delay(self, q: float) -> float:
        if self.n_records == 0:
            raise ValueError("empty sequence")
        return array_percentile(self._finish.view() - self._arrival.view(), q)

    def yield_fraction(self) -> float:
        """Brewer's *yield*: serviced queries / offered queries."""
        total = self.n_records + self.dropped
        return self.n_records / total if total else 1.0

    def throughput(self, elapsed: float) -> float:
        return self.n_records / elapsed if elapsed > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DelayLog(records=<{self.n_records} rows>, dropped={self.dropped})"
