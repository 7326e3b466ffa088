"""Control-decision audit trail: why did the controller act?

Every controller tick appends one structured record per decision (or one
``hold`` record when the controller looked and did nothing) to a columnar
:class:`DecisionLog`: the window inputs the controller saw (p50/p95/p99,
backlog, utilisation, qps), the decision kind and magnitude, and the
**exact query index** the tick landed at in the arrival stream (from the
engine's action queue).  The columns ride inside the PR-6 run archives,
so ``repro explain <archive.npz>`` reconstructs the full decision
timeline offline -- and cross-checks each record's p99 against the
archived per-query delay columns.

All values are simulated-time quantities: the log is deterministic and
bit-identical across engines, unlike wall-clock columns.

Example -- a log round-trips through the archive layer::

    >>> import tempfile, os
    >>> from repro.telemetry.archive import ArchiveWriter, read_archive
    >>> log = DecisionLog()
    >>> log.record_hold(5.0, 120, "slo-elasticity", "steady")
    >>> class _A:
    ...     time, controller, kind, detail, value = 9.0, "slo-elasticity", \
"grow", "p99 1.80 > slo", 2.0
    >>> log.record_action(_A(), query_index=250)
    >>> path = os.path.join(tempfile.mkdtemp(), "dec.npz")
    >>> ArchiveWriter(path).close(meta={"decisions": log.meta(window=20.0)},
    ...                           extra_columns=log.columns())
    >>> [r.kind for r in decisions_from_archive(read_archive(path))]
    ['hold', 'grow']
    >>> decisions_from_archive(read_archive(path))[1].query_index
    250
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "DecisionLog",
    "DecisionRecord",
    "decisions_from_archive",
    "explain_archive",
    "render_decisions",
]

#: Snapshot fields copied into each record, in column order.
_SNAPSHOT_FIELDS = (
    ("dec_p50", "p50"),
    ("dec_p95", "p95"),
    ("dec_p99", "p99"),
    ("dec_backlog", "max_queue_depth"),
    ("dec_utilisation", "mean_utilisation"),
    ("dec_qps", "qps"),
)

#: Every ``dec_*`` column: one value per decision row.
_COLUMNS = (
    "dec_time",
    "dec_query_index",
    "dec_controller",
    "dec_kind",
    "dec_value",
    *(col for col, _ in _SNAPSHOT_FIELDS),
    "dec_n_queries",
    "dec_n_servers",
)


@dataclass(frozen=True)
class DecisionRecord:
    """One controller tick outcome, reconstructed from archive columns."""

    time: float
    query_index: int
    controller: str
    kind: str  # grow / shrink / repartition / add-frontend / ... / hold
    detail: str
    value: Optional[float]
    p50: float
    p95: float
    p99: float
    backlog: float
    utilisation: float
    qps: float
    n_queries: int
    n_servers: int

    @property
    def is_hold(self) -> bool:
        return self.kind == "hold"


class DecisionLog:
    """Columnar accumulator of controller decisions.

    Numeric inputs live in ``GrowArray`` columns (``dec_*``); the string
    fields (controller name, decision kind, free-text detail) are interned
    into side tables carried in archive meta, keeping the columns pure
    numerics that the generic archive reader round-trips.
    """

    def __init__(self) -> None:
        from ..telemetry.columns import GrowArray

        self._time = GrowArray(dtype="float64")
        self._query_index = GrowArray(dtype="int64")
        self._controller = GrowArray(dtype="int64")
        self._kind = GrowArray(dtype="int64")
        self._value = GrowArray(dtype="float64")
        self._numeric = {
            col: GrowArray(dtype="float64") for col, _ in _SNAPSHOT_FIELDS
        }
        self._n_queries = GrowArray(dtype="int64")
        self._n_servers = GrowArray(dtype="int64")
        self._controllers: list[str] = []
        self._kinds: list[str] = []
        self._details: list[str] = []

    def __len__(self) -> int:
        return self._time.n

    @property
    def n(self) -> int:
        return self._time.n

    def _intern(self, table: list[str], value: str) -> int:
        try:
            return table.index(value)
        except ValueError:
            table.append(value)
            return len(table) - 1

    def _append(
        self,
        time: float,
        query_index: int,
        controller: str,
        kind: str,
        detail: str,
        value,
        snapshot,
    ) -> None:
        self._time.append(float(time))
        self._query_index.append(int(query_index))
        self._controller.append(self._intern(self._controllers, controller))
        self._kind.append(self._intern(self._kinds, kind))
        self._value.append(float("nan") if value is None else float(value))
        self._details.append(detail)
        for col, attr in _SNAPSHOT_FIELDS:
            raw = getattr(snapshot, attr, None) if snapshot is not None else None
            self._numeric[col].append(float("nan") if raw is None else float(raw))
        self._n_queries.append(
            int(getattr(snapshot, "n_queries", -1)) if snapshot is not None else -1
        )
        self._n_servers.append(
            int(getattr(snapshot, "n_servers", -1)) if snapshot is not None else -1
        )

    # -- recording ---------------------------------------------------------
    def record_action(self, action, query_index: int = -1, snapshot=None) -> None:
        """Append one fired ``ControlAction`` (duck-typed) + its inputs."""
        self._append(
            action.time,
            query_index,
            action.controller,
            action.kind,
            action.detail,
            getattr(action, "value", None),
            snapshot,
        )

    def record_hold(
        self,
        now: float,
        query_index: int,
        controller: str,
        reason: str,
        snapshot=None,
    ) -> None:
        """Append a no-op tick (reason: no-signal / cooldown / steady)."""
        self._append(now, query_index, controller, "hold", reason, None, snapshot)

    # -- persistence -------------------------------------------------------
    def columns(self) -> dict:
        """Archive-ready ``dec_*`` numpy columns (copies)."""
        cols = {
            "dec_time": self._time.copy(),
            "dec_query_index": self._query_index.copy(),
            "dec_controller": self._controller.copy(),
            "dec_kind": self._kind.copy(),
            "dec_value": self._value.copy(),
            "dec_n_queries": self._n_queries.copy(),
            "dec_n_servers": self._n_servers.copy(),
        }
        for col, _ in _SNAPSHOT_FIELDS:
            cols[col] = self._numeric[col].copy()
        return cols

    def meta(self, window: Optional[float] = None) -> dict:
        """The interning tables + metrics-window length, for archive meta."""
        out = {
            "schema": 1,
            "controllers": list(self._controllers),
            "kinds": list(self._kinds),
            "details": list(self._details),
        }
        if window is not None:
            out["window"] = float(window)
        return out

    def records(self, window_meta: Optional[dict] = None) -> list:
        """The log as :class:`DecisionRecord` objects (no archive trip)."""
        meta = window_meta or self.meta()
        return _build_records(self.columns(), meta)


def _build_records(columns: dict, meta: dict) -> list:
    controllers = meta.get("controllers", [])
    kinds = meta.get("kinds", [])
    details = meta.get("details", [])
    n = len(columns["dec_time"])
    out = []
    for i in range(n):
        value = float(columns["dec_value"][i])
        out.append(
            DecisionRecord(
                time=float(columns["dec_time"][i]),
                query_index=int(columns["dec_query_index"][i]),
                controller=controllers[int(columns["dec_controller"][i])],
                kind=kinds[int(columns["dec_kind"][i])],
                detail=details[i] if i < len(details) else "",
                value=None if math.isnan(value) else value,
                p50=float(columns["dec_p50"][i]),
                p95=float(columns["dec_p95"][i]),
                p99=float(columns["dec_p99"][i]),
                backlog=float(columns["dec_backlog"][i]),
                utilisation=float(columns["dec_utilisation"][i]),
                qps=float(columns["dec_qps"][i]),
                n_queries=int(columns["dec_n_queries"][i]),
                n_servers=int(columns["dec_n_servers"][i]),
            )
        )
    return out


def decisions_from_archive(archive) -> list:
    """Rebuild :class:`DecisionRecord` objects from a read archive.

    *archive* is the object ``repro.telemetry.archive.read_archive``
    returns; raises ``ValueError`` when it carries no decision columns
    (the scenario ran without a control plane), and when a ``dec_*``
    column is missing, ragged, or indexes past its interned table, or the
    ``details`` table in meta does not hold one entry per row.
    """
    from ..telemetry.archive import check_row_columns

    if not any(name.startswith("dec_") for name in archive.columns):
        raise ValueError(
            "archive has no decision columns (dec_*): the run had no control plane"
        )
    meta = archive.meta.get("decisions", {})
    check_row_columns(
        archive.path, archive.columns, _COLUMNS,
        interned={
            "dec_controller": meta.get("controllers", []),
            "dec_kind": meta.get("kinds", []),
        },
    )
    n, details = archive.columns["dec_time"].size, meta.get("details", [])
    if len(details) != n:  # free text, one entry per row
        raise ValueError(
            f"{archive.path}: meta table 'details' has {len(details)} "
            f"entries, 'dec_time' has {n}; the archive is corrupt -- write "
            "it again"
        )
    return _build_records(archive.columns, meta)


def check_window_p99s(archive, window, rows) -> list:
    """Recompute each row's windowed p99 from the archived delay columns.

    A window samples logged queries by **arrival time**: at ``row.time``
    it holds every row with ``time - window <= arrival <= time``.  The
    recomputed p99 must equal the recorded ``row.p99`` bit for bit (NaN
    for an empty window).  Returns ``[(row, same, p99, n_window), ...]``;
    without a *window* or the ``log_*`` columns every row reads
    ``(row, False, nan, -1)``.
    """
    from ..telemetry.columns import array_percentile

    arrivals = archive.columns.get("log_arrival")
    finishes = archive.columns.get("log_finish")
    out = []
    for row in rows:
        if window is None or arrivals is None or finishes is None:
            out.append((row, False, float("nan"), -1))
            continue
        mask = (arrivals >= row.time - window) & (arrivals <= row.time)
        vals = finishes[mask] - arrivals[mask]
        n_window = int(vals.size)
        p99 = float(array_percentile(vals, 99)) if n_window else float("nan")
        same = (p99 == row.p99) or (math.isnan(p99) and math.isnan(row.p99))
        out.append((row, same, p99, n_window))
    return out


def explain_archive(archive) -> list:
    """Cross-check each decision's window inputs against the delay columns.

    The controller's sliding window samples by arrival time, and dropped
    queries appear in neither the log nor the collector, so recomputing
    the p99 over the archived rows (:func:`check_window_p99s`) must
    reproduce the recorded input bit-for-bit, and the window's row count
    must match the recorded ``n_queries``.

    Returns ``[(record, ok, recomputed_p99, n_window), ...]``.
    """
    records = decisions_from_archive(archive)
    window = archive.meta.get("decisions", {}).get("window")
    return [
        (rec, same and rec.n_queries in (-1, n_window), p99, n_window)
        for rec, same, p99, n_window in check_window_p99s(archive, window, records)
    ]


def render_decisions(records, checks=None) -> str:
    """The ``repro explain`` timeline table.

    *checks* is :func:`explain_archive` output for the same archive; when
    given, its per-record verdicts replace *records* entirely (they carry
    the same :class:`DecisionRecord` objects plus the cross-check result).
    """
    lines = [
        f"{'time':>8s} {'query#':>8s} {'controller':20s} {'decision':14s} "
        f"{'value':>8s} {'p99':>8s} {'backlog':>8s} {'check':>6s}  detail"
    ]
    if checks:
        rows = [(rec, "ok" if ok else "FAIL") for rec, ok, _, _ in checks]
    else:
        rows = [(rec, "-") for rec in records]
    for rec, check in rows:
        value = f"{rec.value:>8.3g}" if rec.value is not None else f"{'-':>8s}"
        p99 = f"{rec.p99:>8.3f}" if not math.isnan(rec.p99) else f"{'-':>8s}"
        backlog = (
            f"{rec.backlog:>8.0f}" if not math.isnan(rec.backlog) else f"{'-':>8s}"
        )
        lines.append(
            f"{rec.time:>8.2f} {rec.query_index:>8d} {rec.controller:20s} "
            f"{rec.kind:14s} {value} {p99} {backlog} {check:>6s}  {rec.detail}"
        )
    return "\n".join(lines)
