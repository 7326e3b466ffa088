"""The event tables a run archive carries beside its per-query columns.

Three kinds of event explain a run: control decisions (``dec_*``, one row
per controller tick, :class:`DecisionLog`), admission sheds (``shed_*``,
one row per shed query) and admission ticks (``adm_*``, one row per
policy tick), the last two in a :class:`ShedLog`.  Each is an
:class:`EventTable`: a record dataclass stored as one ``GrowArray``
column per field, named ``prefix + field``.  String fields become
indexes into tables carried in archive meta (decision ``controllers``
and ``kinds``, shed ``reasons``), or, for the free-text decision
``detail``, a per-row meta list (``details``), so the columns stay pure
numerics.  Every row records the **exact query index** its event landed
at in the arrival stream.

All values are simulated-time quantities: the tables diff bit for bit
across engines.  ``repro explain <archive.npz>`` reads them back
(:meth:`EventTable.read` refuses a malformed table, naming the file, the
column and the fix) and cross-checks each row's windowed p99 against the
archived delay columns (:meth:`EventTable.cross_check`).

Example -- a decision log round-trips through the archive layer::

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

import dataclasses
import math
import typing
from dataclasses import dataclass
from typing import Optional

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

from ..telemetry.columns import GrowArray, array_percentile

__all__ = [
    "EventTable",
    "DecisionLog",
    "DecisionRecord",
    "ShedLog",
    "ShedRecord",
    "AdmissionTick",
    "check_row_columns",
    "decisions_from_archive",
    "admission_from_archive",
    "explain_archive",
    "explain_admission",
    "render_decisions",
    "render_admission",
]

#: the fix every malformed-table error names.
_FIX = "the archive is corrupt -- write it again"


@dataclass(frozen=True)
class DecisionRecord:
    """One controller tick outcome."""

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


@dataclass(frozen=True)
class ShedRecord:
    """One shed query."""

    time: float
    query_index: int
    reason: str  # queue-cap / rate / p99 / ...
    backlog: float  # busiest-server backlog (seconds) at the decision
    signal: float  # policy gating signal (tokens for aimd, p99 for delay_gated)


@dataclass(frozen=True)
class AdmissionTick:
    """One admission-controller tick."""

    time: float
    query_index: int
    rate: float  # token rate after adaptation (NaN for rateless policies)
    p99: float  # windowed p99 delay the tick saw (NaN when window empty)
    backlog_hwm: float  # backlog high-water mark since the previous tick
    accepted: int  # running accepted count at the tick
    shed: int  # running shed count at the tick
    cap_queries: float  # queue cap expressed in queries (rate * cap seconds)


def _intern(table: list, value: str) -> int:
    """The index of *value* in *table*, appended on first sight."""
    try:
        return table.index(value)
    except ValueError:
        table.append(value)
        return len(table) - 1


class EventTable:
    """Rows of one *record* dataclass, one column per field.

    An ``int`` field is an int64 column and any other a float64 column
    (an ``Optional`` one stores ``None`` as NaN and reads NaN back as
    ``None``).  A ``str`` field is named in *interned*, mapping it to the
    meta table its int64 column indexes, or in *text*, mapping it to a
    per-row meta list that takes the place of a column.
    """

    def __init__(
        self,
        record: type,
        prefix: str,
        interned: dict | None = None,
        text: dict | None = None,
    ) -> None:
        hints = typing.get_type_hints(record)
        self.record, self.prefix = record, prefix
        self._interned, self._text = dict(interned or {}), dict(text or {})
        self._optional = {f for f, h in hints.items() if h == Optional[float]}
        self._columns = {
            f.name: GrowArray("int64" if hints[f.name] in (int, str) else "float64")
            for f in dataclasses.fields(record)
            if f.name not in self._text
        }
        #: column names, in storage order.
        self.names = tuple(prefix + f for f in self._columns)
        self.tables = {
            key: [] for key in (*self._interned.values(), *self._text.values())
        }

    def __len__(self) -> int:
        return len(next(iter(self._columns.values())))

    def append(self, **row) -> None:
        """Append one row; *row* names every field of the record."""
        for field, col in self._columns.items():
            value = row[field]
            if field in self._interned:
                value = _intern(self.tables[self._interned[field]], value)
            col.append(math.nan if value is None else value)
        for field, key in self._text.items():
            self.tables[key].append(row[field])

    def extend(self, **columns) -> None:
        """Append a run of rows, one array per field.

        An interned field takes ``(codes, strings)``: ``codes[i]`` indexes
        *strings*, and new strings are interned in order of first
        appearance, so the columns and tables match what per-row
        :meth:`append` calls would have built.
        """
        for field, key in self._interned.items():
            codes, strings = columns[field]
            codes = np.asarray(codes, dtype=np.int64)
            uniq, first = np.unique(codes, return_index=True)
            lut = np.zeros(len(strings), dtype=np.int64)
            for code in uniq[np.argsort(first)].tolist():
                lut[code] = _intern(self.tables[key], strings[code])
            columns[field] = lut[codes]
        for field, col in self._columns.items():
            col.extend(columns[field])

    def columns(self) -> dict:
        """Archive-ready numpy columns (copies)."""
        return {self.prefix + f: col.copy() for f, col in self._columns.items()}

    def meta(self) -> dict:
        """The string tables, for archive meta."""
        return {"schema": 1, **{k: list(v) for k, v in self.tables.items()}}

    def records(self, meta: Optional[dict] = None) -> list:
        """The rows as records (no archive trip)."""
        return self.build(self.columns(), meta or self.meta())

    def build(self, columns: dict, meta: dict) -> list:
        """Records from this table's *columns* and its string tables in *meta*."""
        values = {}
        for field in self._columns:
            col = columns[self.prefix + field].tolist()
            if field in self._interned:
                table = meta.get(self._interned[field], [])
                col = [table[i] for i in col]
            elif field in self._optional:
                col = [None if math.isnan(v) else v for v in col]
            values[field] = col
        for field, key in self._text.items():
            values[field] = meta.get(key, [])
        rows = zip(*values.values(), strict=True)
        return [self.record(**dict(zip(values, row))) for row in rows]

    def read(self, archive, meta: dict) -> list:
        """Records from a read archive, whose meta for this table is *meta*.

        Raises ``ValueError`` naming the archive, the column and the fix
        when a column is missing, ragged or indexes past its string table,
        or a per-row meta list does not hold one entry per row.
        """
        check_row_columns(
            archive.path, archive.columns, self.names,
            interned={
                self.prefix + f: meta.get(key, []) for f, key in self._interned.items()
            },
        )
        n = archive.columns[self.names[0]].size
        for key in self._text.values():
            entries = meta.get(key, [])
            if len(entries) != n:
                raise ValueError(
                    f"{archive.path}: meta table {key!r} has {len(entries)} "
                    f"entries, {self.names[0]!r} has {n}; {_FIX}"
                )
        return self.build(archive.columns, meta)

    @staticmethod
    def cross_check(archive, records, window) -> list:
        """Recompute each record's windowed p99 from the archived delays.

        A window samples logged queries by **arrival time**: at
        ``rec.time`` it holds every row with ``time - window <= arrival
        <= time``.  The recomputed p99 must equal the recorded ``rec.p99``
        bit for bit (NaN for an empty window), and a record that counts
        its window (``n_queries``, -1 when unknown) must count the same
        rows.  Returns ``[(rec, ok, p99, n_window), ...]``; without a
        *window* or the ``log_*`` columns every row reads
        ``(rec, False, nan, -1)``.
        """
        arrivals = archive.columns.get("log_arrival")
        finishes = archive.columns.get("log_finish")
        out = []
        for rec in records:
            if window is None or arrivals is None or finishes is None:
                out.append((rec, False, math.nan, -1))
                continue
            mask = (arrivals >= rec.time - window) & (arrivals <= rec.time)
            vals = finishes[mask] - arrivals[mask]
            n_window = int(vals.size)
            p99 = float(array_percentile(vals, 99)) if n_window else math.nan
            same = (p99 == rec.p99) or (math.isnan(p99) and math.isnan(rec.p99))
            counted = getattr(rec, "n_queries", -1) in (-1, n_window)
            out.append((rec, same and counted, p99, n_window))
        return out


def check_row_columns(path, columns: dict, names, interned: dict | None = None) -> None:
    """Refuse a table of event rows that an archive carries.

    Every column in *names* must be present and hold as many values as
    the first; every column named in *interned* must hold indexes into
    its side table (a list from archive meta).  Otherwise raise
    ``ValueError`` naming *path*, the column and the fix -- not a
    ``KeyError`` or an ``IndexError`` while the records are rebuilt.
    """
    for name in names:
        if name not in columns:
            raise ValueError(f"{path}: column {name!r} is missing; {_FIX}")
    n = columns[names[0]].size
    for name in names[1:]:
        if columns[name].size != n:
            raise ValueError(
                f"{path}: column {name!r} has {columns[name].size} values, "
                f"{names[0]!r} has {n}; {_FIX}"
            )
    for name, table in (interned or {}).items():
        col = columns[name]
        bad = col[~((col >= 0) & (col < len(table)))]
        if bad.size:
            raise ValueError(
                f"{path}: column {name!r} holds index {bad[0]:g}, outside "
                f"its {len(table)}-entry table in meta; {_FIX}"
            )


# -- control decisions ------------------------------------------------------
#: snapshot attribute behind each window-input field of a decision.
_SNAPSHOT_FIELDS = {
    "p50": "p50",
    "p95": "p95",
    "p99": "p99",
    "backlog": "max_queue_depth",
    "utilisation": "mean_utilisation",
    "qps": "qps",
}


class DecisionLog(EventTable):
    """The ``dec_*`` table: one row per controller tick, with the window
    inputs (p50/p95/p99, backlog, utilisation, qps) the controller saw."""

    def __init__(self) -> None:
        super().__init__(
            DecisionRecord, "dec_",
            interned={"controller": "controllers", "kind": "kinds"},
            text={"detail": "details"},
        )

    def record_action(self, action, query_index: int = -1, snapshot=None) -> None:
        """Append one fired ``ControlAction`` (duck-typed) + its inputs."""
        self._record(
            action.time, query_index, action.controller, action.kind,
            action.detail, getattr(action, "value", None), snapshot,
        )

    def record_hold(
        self, now: float, query_index: int, controller: str, reason: str, snapshot=None
    ) -> None:
        """Append a no-op tick (reason: no-signal / cooldown / steady)."""
        self._record(now, query_index, controller, "hold", reason, None, snapshot)

    def _record(self, time, query_index, controller, kind, detail, value, snapshot):
        inputs = {f: getattr(snapshot, a, None) for f, a in _SNAPSHOT_FIELDS.items()}
        counts = {f: getattr(snapshot, f, -1) for f in ("n_queries", "n_servers")}
        self.append(
            time=time, query_index=query_index, controller=controller, kind=kind,
            detail=detail, value=value, **inputs, **counts,
        )

    def meta(self, window: Optional[float] = None) -> dict:
        """The string tables + metrics-window length, for archive meta."""
        out = super().meta()
        if window is not None:
            out["window"] = float(window)
        return out


def decisions_from_archive(archive) -> list:
    """Rebuild :class:`DecisionRecord` objects from a read archive.

    *archive* is the object ``repro.telemetry.archive.read_archive``
    returns; raises ``ValueError`` when it carries no decision columns
    (the scenario ran without a control plane) or a malformed table
    (:meth:`EventTable.read`).
    """
    if not any(name.startswith("dec_") for name in archive.columns):
        raise ValueError(
            "archive has no decision columns (dec_*): the run had no control plane"
        )
    return DecisionLog().read(archive, archive.meta.get("decisions", {}))


def explain_archive(archive) -> list:
    """Cross-check each decision's window inputs against the delay columns.

    The controller's sliding window samples by arrival time, and dropped
    queries appear in neither the log nor the collector, so the p99 and
    the row count recomputed over the archived rows
    (:meth:`EventTable.cross_check`) must reproduce the recorded inputs.

    Returns ``[(record, ok, recomputed_p99, n_window), ...]``.
    """
    window = archive.meta.get("decisions", {}).get("window")
    return EventTable.cross_check(archive, decisions_from_archive(archive), window)


def render_decisions(records, checks=None) -> str:
    """The ``repro explain`` timeline table.

    *checks* is :func:`explain_archive` output for the same archive; when
    given, its per-record verdicts replace *records* entirely.
    """
    lines = [
        f"{'time':>8s} {'query#':>8s} {'controller':20s} {'decision':14s} "
        f"{'value':>8s} {'p99':>8s} {'backlog':>8s} {'check':>6s}  detail"
    ]
    for rec, check in _verdicts(records, checks):
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


def _verdicts(records, checks) -> list:
    if checks:
        return [(rec, "ok" if ok else "FAIL") for rec, ok, _, _ in checks]
    return [(rec, "-") for rec in records]


# -- admission ----------------------------------------------------------------
class ShedLog:
    """Admission's two tables: ``shed_*`` (one row per shed query, with
    the interned reason and the signals the policy saw) and ``adm_*``
    (one row per policy tick: token rate, windowed p99, backlog
    high-water mark, running accepted/shed counts).

    Example::

        >>> log = ShedLog()
        >>> log.record_shed(4.0, 120, "queue-cap", backlog=9.5, signal=1.2)
        >>> log.record_tick(5.0, 130, rate=40.0, p99=1.2, backlog_hwm=9.5,
        ...                 accepted=129, shed=1, cap_queries=38.0)
        >>> sheds, ticks = log.records()
        >>> (sheds[0].reason, sheds[0].query_index, ticks[0].rate)
        ('queue-cap', 120, 40.0)
    """

    def __init__(self) -> None:
        self.sheds = EventTable(ShedRecord, "shed_", interned={"reason": "reasons"})
        self.ticks = EventTable(AdmissionTick, "adm_")

    @property
    def n_sheds(self) -> int:
        return len(self.sheds)

    @property
    def n_ticks(self) -> int:
        return len(self.ticks)

    def record_shed(
        self, time: float, query_index: int, reason: str, backlog: float, signal: float
    ) -> None:
        """Append one shed decision at its exact arrival-stream index."""
        self.sheds.append(
            time=time, query_index=query_index, reason=reason,
            backlog=backlog, signal=signal,
        )

    def record_sheds(
        self, time, query_index, reason_code, backlog, signal, reasons: tuple
    ) -> None:
        """Append a run of shed decisions, one array per column;
        ``reason_code[i]`` indexes into *reasons*."""
        self.sheds.extend(
            time=time, query_index=query_index, reason=(reason_code, reasons),
            backlog=backlog, signal=signal,
        )

    def record_tick(
        self,
        time: float,
        query_index: int,
        rate: float,
        p99: float,
        backlog_hwm: float,
        accepted: int,
        shed: int,
        cap_queries: float,
    ) -> None:
        """Append one controller tick (post-adaptation state + inputs)."""
        self.ticks.append(
            time=time, query_index=query_index, rate=rate, p99=p99,
            backlog_hwm=backlog_hwm, accepted=accepted, shed=shed,
            cap_queries=cap_queries,
        )

    def columns(self) -> dict:
        """Archive-ready ``shed_*``/``adm_*`` columns (copies)."""
        return {**self.sheds.columns(), **self.ticks.columns()}

    def meta(
        self,
        policy: Optional[str] = None,
        window: Optional[float] = None,
        slo: Optional[float] = None,
        queue_cap: Optional[float] = None,
    ) -> dict:
        """The reason table + policy parameters, for archive meta."""
        out = self.sheds.meta()
        if policy is not None:
            out["policy"] = str(policy)
        for key, value in (("window", window), ("slo", slo), ("queue_cap", queue_cap)):
            if value is not None:
                out[key] = float(value)
        return out

    def records(self, meta: Optional[dict] = None) -> tuple[list, list]:
        """The log as (:class:`ShedRecord` list, :class:`AdmissionTick` list)."""
        meta = meta or self.meta()
        return self.sheds.records(meta), self.ticks.records(meta)


def admission_from_archive(archive) -> tuple[list, list, dict]:
    """Rebuild shed records and ticks from a read archive.

    *archive* is the object ``repro.telemetry.archive.read_archive``
    returns; raises ``ValueError`` when it carries no admission columns
    (the scenario ran without an admission controller) or a malformed
    ``shed_*`` or ``adm_*`` table (:meth:`EventTable.read`).
    """
    if not any(name.startswith(("shed_", "adm_")) for name in archive.columns):
        raise ValueError(
            "archive has no admission columns (shed_*): the run had no "
            "admission controller"
        )
    meta = archive.meta.get("admission", {})
    log = ShedLog()
    return log.sheds.read(archive, meta), log.ticks.read(archive, meta), meta


def explain_admission(archive) -> list:
    """Cross-check each tick's windowed p99 against the delay columns.

    The admission window samples completed **admitted** queries by arrival
    time -- exactly the queries in the archived delay log (shed queries
    are logged in ``shed_*``, never in ``log_*``; dropped queries are in
    neither), so the recomputed p99 (:meth:`EventTable.cross_check`) must
    reproduce the recorded input bit for bit.

    Returns ``[(tick, ok, recomputed_p99, n_window), ...]``.
    """
    _, ticks, meta = admission_from_archive(archive)
    return EventTable.cross_check(archive, ticks, meta.get("window"))


def render_admission(sheds, ticks, checks=None, meta=None) -> str:
    """The ``repro explain`` admission section: summary + tick table.

    *checks* is :func:`explain_admission` output for the same archive;
    when given, its per-tick verdicts replace *ticks* entirely.
    """
    meta = meta or {}
    header = f"admission: policy={meta.get('policy') or '?'}"
    for key in ("slo", "window", "queue_cap"):
        if meta.get(key) is not None:
            header += f" {key}={meta[key]:g}"
    by_reason: dict[str, int] = {}
    for rec in sheds:
        by_reason[rec.reason] = by_reason.get(rec.reason, 0) + 1
    reasons = ", ".join(f"{k}={v}" for k, v in sorted(by_reason.items()))
    lines = [
        header,
        f"shed: {len(sheds)} ({reasons or 'none'})",
        f"{'time':>8s} {'query#':>8s} {'rate':>9s} {'p99':>8s} "
        f"{'hwm':>8s} {'acc':>8s} {'shed':>8s} {'check':>6s}",
    ]
    for tick, check in _verdicts(ticks, checks):
        rate = f"{tick.rate:>9.3f}" if not math.isnan(tick.rate) else f"{'-':>9s}"
        p99 = f"{tick.p99:>8.3f}" if not math.isnan(tick.p99) else f"{'-':>8s}"
        lines.append(
            f"{tick.time:>8.2f} {tick.query_index:>8d} {rate} {p99} "
            f"{tick.backlog_hwm:>8.2f} {tick.accepted:>8d} "
            f"{tick.shed:>8d} {check:>6s}"
        )
    return "\n".join(lines)
