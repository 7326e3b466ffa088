"""Columnar telemetry: chunk listeners, lazy logs, snapshots, archives.

The result-representation layer of the reproduction.  Per-query telemetry
(records, breakdowns, listener callbacks) historically cost more
interpreter time than scheduling itself; this subsystem makes the batched
engine's flat chunk arrays the *primary* representation:

* :mod:`~repro.telemetry.columns` -- growable columns and bit-exact array
  percentiles;
* :mod:`~repro.telemetry.records` -- the columnar :class:`DelayLog` /
  :class:`BreakdownLog` with lazy :class:`QueryRecord` /
  :class:`QueryBreakdown` materialisation;
* :mod:`~repro.telemetry.listeners` -- the :class:`ChunkListener` API
  (one call per flushed chunk);
* :mod:`~repro.telemetry.snapshot` -- capture/restore of full deployment
  state, byte-identical continuation;
* :mod:`~repro.telemetry.archive` -- compressed columnar run archives
  (npz) behind ``repro archive info/diff``, written whole-run or
  streamed append-per-chunk (:class:`ArchiveWriter`).

See ``docs/telemetry.md`` for the contracts.
"""

from .columns import GrowArray, array_percentile
from .listeners import ChunkArrays, ChunkListener
from .records import (
    EXPLODING_SLOPE,
    BreakdownLog,
    DelayLog,
    QueryBreakdown,
    QueryRecord,
    RecordView,
    linear_fit,
    percentile,
)

__all__ = [
    "GrowArray",
    "array_percentile",
    "ChunkArrays",
    "ChunkListener",
    "EXPLODING_SLOPE",
    "BreakdownLog",
    "DelayLog",
    "QueryBreakdown",
    "QueryRecord",
    "RecordView",
    "linear_fit",
    "percentile",
    "SNAPSHOT_SCHEMA",
    "Snapshot",
    "SnapshotError",
    "capture_deployment",
    "restore_deployment",
    "ARCHIVE_SCHEMA",
    "ArchiveWriter",
    "RunArchive",
    "collect_columns",
    "write_archive",
    "write_archive_columns",
    "read_archive",
    "archive_info",
    "archive_diff",
]


def __getattr__(name):  # lazy: snapshot/archive pull in cluster and numpy
    if name in (
        "SNAPSHOT_SCHEMA",
        "Snapshot",
        "SnapshotError",
        "capture_deployment",
        "restore_deployment",
    ):
        from . import snapshot

        return getattr(snapshot, name)
    if name in (
        "ARCHIVE_SCHEMA",
        "ArchiveWriter",
        "RunArchive",
        "collect_columns",
        "write_archive",
        "write_archive_columns",
        "read_archive",
        "archive_info",
        "archive_diff",
    ):
        from . import archive

        return getattr(archive, name)
    raise AttributeError(name)
