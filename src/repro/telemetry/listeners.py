"""The chunk-array listener API.

The batched engine accounts queries in chunks (see
:mod:`repro.sim.fastpath`): between two cut points it produces flat arrays
-- one row per query -- and flushes them in one pass.  Chunk listeners are
the matching observation API: instead of one python call per completed
query, a listener receives **one call per flushed chunk** with the chunk's
columns as numpy arrays.  On action-free spans this removes the last
per-query python from the hot path.

* :class:`ChunkArrays` is the per-chunk column bundle (borrowed views --
  copy anything you retain past the call).
* :class:`ChunkListener` is the subscriber base class.  Register instances
  on ``deployment.chunk_listeners``.  The per-query reference path feeds
  the same subscribers through :meth:`ChunkListener.observe_record`, whose
  default adapts a single record into a one-row chunk -- so a listener
  written against arrays works identically under either engine.
"""

from __future__ import annotations

from dataclasses import dataclass

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

from .records import QueryRecord

__all__ = [
    "ChunkArrays",
    "ChunkListener",
]


@dataclass(frozen=True)
class ChunkArrays:
    """One flushed chunk's per-query columns (parallel, equal-length).

    Arrays are *borrowed*: they may be views into engine-owned buffers that
    are reused after the listener returns.  Copy (or reduce) inside
    ``observe_chunk``; never store the arrays themselves.
    """

    query_ids: "np.ndarray"  # int64
    arrivals: "np.ndarray"  # float64, monotone within and across chunks
    finishes: "np.ndarray"  # float64
    pqs: "np.ndarray"  # int64
    subqueries: "np.ndarray"  # int64
    scheduling: "np.ndarray"  # float64, scheduler wall-clock per query
    network: "np.ndarray"  # float64, rtt per query
    queueing: "np.ndarray"  # float64, max sub-query wait
    service: "np.ndarray"  # float64, max sub-query execution time
    total: "np.ndarray"  # float64, end-to-end delay

    def __len__(self) -> int:
        return len(self.arrivals)

    def delays(self) -> "np.ndarray":
        """Per-query delay (finish - arrival) for this chunk."""
        return self.finishes - self.arrivals

    @classmethod
    def from_record(
        cls, record: QueryRecord, breakdown=None
    ) -> "ChunkArrays":
        """A one-row chunk adapting a single per-query record."""

        def f64(x):
            return np.array([x], dtype=np.float64)

        def i64(x):
            return np.array([x], dtype=np.int64)

        return cls(
            query_ids=i64(record.query_id),
            arrivals=f64(record.arrival),
            finishes=f64(record.finish),
            pqs=i64(record.pq),
            subqueries=i64(record.subqueries),
            scheduling=f64(record.scheduling_delay),
            network=f64(breakdown.network if breakdown is not None else 0.0),
            queueing=f64(breakdown.queueing if breakdown is not None else 0.0),
            service=f64(breakdown.service if breakdown is not None else 0.0),
            total=f64(
                breakdown.total
                if breakdown is not None
                else record.finish - record.arrival
            ),
        )


class ChunkListener:
    """Base class for chunk-array subscribers.

    Implement :meth:`observe_chunk`.  ``observe_record`` is the per-query
    adapter used by the reference path (and by failure-window queries the
    batched engine delegates to it); the default wraps the record in a
    one-row chunk, so array-native subclasses only implement one method.
    Subclasses with a cheap scalar path (e.g. the metrics collector) may
    override ``observe_record`` directly.
    """

    def observe_chunk(self, arrays: ChunkArrays, start: int, nq: int) -> None:
        """One flushed chunk: *nq* queries whose first row is global record
        index *start* in the deployment's log."""
        raise NotImplementedError

    def observe_record(self, record: QueryRecord, breakdown=None) -> None:
        self.observe_chunk(ChunkArrays.from_record(record, breakdown), -1, 1)

