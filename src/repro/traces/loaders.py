"""Builtin trace dataloaders: CSV, JSONL, run archives, recordings.

Each loader normalises one external file format into a :class:`Trace`
(sorted arrival times + ``(time, position)`` update pairs).  Loaders are
constructed by the registry with keyword parameters parsed from the spec
suffix (``csv:time_col=ts,delimiter=;``), so format quirks live in the
spec string, not in code.  Malformed input raises
:class:`~repro.traces.spec.TraceFormatError` naming the file, the line,
and the knob that would fix it.
"""

from __future__ import annotations

import csv
import json
import math

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

from .spec import Trace, TraceFormatError

__all__ = [
    "TraceLoader",
    "CsvTraceLoader",
    "JsonlTraceLoader",
    "ArchiveTraceLoader",
    "RecordingTraceLoader",
]

_QUERY_KINDS = frozenset({"query", "q", "request", "read"})
_UPDATE_KINDS = frozenset({"update", "u", "write"})


class TraceLoader:
    """Base class for trace dataloaders.

    Subclasses set :attr:`name`/:attr:`description` and implement
    :meth:`load`; keyword parameters from the registry spec suffix arrive
    through ``__init__``.  Third-party loaders subclass this and call
    :func:`repro.traces.register_loader`.
    """

    name = "abstract"
    description = ""

    def load(self, source: str) -> Trace:
        raise NotImplementedError

    def _finish(
        self, source: str, arrivals: list, updates: list, meta: dict
    ) -> Trace:
        if not arrivals:
            raise TraceFormatError(
                f"{source}: no query rows found; a trace needs at least "
                "one query arrival"
            )
        arr = np.sort(np.asarray(arrivals, dtype=np.float64), kind="stable")
        updates.sort(key=lambda tp: tp[0])
        meta = {"source": str(source), "loader": self.name, **meta}
        return Trace(arrivals=arr, updates=tuple(updates), meta=meta)


def _parse_time(raw, source: str, line: int, col: str) -> float:
    try:
        t = float(raw)
    except (TypeError, ValueError):
        raise TraceFormatError(
            f"{source}:{line}: cannot parse {col!r} value {raw!r} as a "
            "number"
        ) from None
    if not math.isfinite(t):
        raise TraceFormatError(
            f"{source}:{line}: {col!r} value {raw!r} is not a finite time; "
            "fix or drop the row"
        )
    if t < 0.0:
        raise TraceFormatError(
            f"{source}:{line}: negative time {t!r}; trace times must be "
            ">= 0 (epoch timestamps are fine -- rebase shifts them)"
        )
    return t


def _classify(kind, source: str, line: int) -> bool:
    """True for a query row, False for an update row."""
    k = str(kind).strip().lower()
    if k in _QUERY_KINDS or k == "":
        return True
    if k in _UPDATE_KINDS:
        return False
    raise TraceFormatError(
        f"{source}:{line}: unknown row kind {kind!r} (expected one of "
        f"{sorted(_QUERY_KINDS)} or {sorted(_UPDATE_KINDS)})"
    )


def _parse_pos(raw, source: str, line: int, col: str) -> float:
    if raw is None or str(raw).strip() == "":
        raise TraceFormatError(
            f"{source}:{line}: update row missing a {col!r} value (ring "
            "position in [0, 1))"
        )
    try:
        p = float(raw)
    except (TypeError, ValueError):
        raise TraceFormatError(
            f"{source}:{line}: cannot parse {col!r} value {raw!r} as a "
            "number"
        ) from None
    if not math.isfinite(p):
        raise TraceFormatError(
            f"{source}:{line}: {col!r} value {raw!r} is not a finite ring "
            "position; fix or drop the row"
        )
    # real logs key updates by object id, not ring position; wrapping
    # modulo 1.0 maps any non-negative key onto the ring deterministically
    return p % 1.0


class CsvTraceLoader(TraceLoader):
    """Request logs as CSV with a header row.

    Columns: *time_col* (required, seconds or any monotone unit),
    *kind_col* (optional; ``query``/``update``, empty means query), and
    *pos_col* (required on update rows: ring position, wrapped mod 1.0).
    """

    name = "csv"
    description = "CSV request/update log (params: time_col, kind_col, pos_col, delimiter)"

    def __init__(
        self,
        time_col: str = "time",
        kind_col: str = "kind",
        pos_col: str = "pos",
        delimiter: str = ",",
    ) -> None:
        self.time_col = str(time_col)
        self.kind_col = str(kind_col)
        self.pos_col = str(pos_col)
        self.delimiter = str(delimiter)

    def load(self, source: str) -> Trace:
        arrivals: list[float] = []
        updates: list[tuple[float, float]] = []
        try:
            fp = open(source, newline="", encoding="utf-8")
        except OSError as exc:
            raise TraceFormatError(f"{source}: cannot open: {exc}") from exc
        with fp:
            reader = csv.DictReader(fp, delimiter=self.delimiter)
            header = reader.fieldnames
            if header is None:
                raise TraceFormatError(f"{source}: empty file (no CSV header)")
            if self.time_col not in header:
                raise TraceFormatError(
                    f"{source}: no {self.time_col!r} column in header "
                    f"{header!r}; pass csv:time_col=<name> to pick the "
                    "timestamp column"
                )
            for row in reader:
                line = reader.line_num
                t = _parse_time(row.get(self.time_col), source, line, self.time_col)
                if _classify(row.get(self.kind_col, ""), source, line):
                    arrivals.append(t)
                else:
                    updates.append(
                        (t, _parse_pos(row.get(self.pos_col), source, line, self.pos_col))
                    )
        return self._finish(
            source, arrivals, updates, {"format": "csv", "columns": list(header)}
        )


class JsonlTraceLoader(TraceLoader):
    """Request logs as JSON Lines -- one object per line.

    Keys: *time_key* (required), *kind_key* (optional, query/update),
    *pos_key* (required on update rows).  Blank lines are skipped.
    """

    name = "jsonl"
    description = "JSON-lines request/update log (params: time_key, kind_key, pos_key)"

    def __init__(
        self,
        time_key: str = "time",
        kind_key: str = "kind",
        pos_key: str = "pos",
    ) -> None:
        self.time_key = str(time_key)
        self.kind_key = str(kind_key)
        self.pos_key = str(pos_key)

    def load(self, source: str) -> Trace:
        arrivals: list[float] = []
        updates: list[tuple[float, float]] = []
        try:
            fp = open(source, encoding="utf-8")
        except OSError as exc:
            raise TraceFormatError(f"{source}: cannot open: {exc}") from exc
        with fp:
            for line_num, line in enumerate(fp, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceFormatError(
                        f"{source}:{line_num}: invalid JSON: {exc.msg}"
                    ) from exc
                if not isinstance(obj, dict):
                    raise TraceFormatError(
                        f"{source}:{line_num}: expected a JSON object per "
                        f"line, got {type(obj).__name__}"
                    )
                if self.time_key not in obj:
                    raise TraceFormatError(
                        f"{source}:{line_num}: no {self.time_key!r} key; "
                        "pass jsonl:time_key=<name> to pick the timestamp "
                        "key"
                    )
                t = _parse_time(obj[self.time_key], source, line_num, self.time_key)
                if _classify(obj.get(self.kind_key, ""), source, line_num):
                    arrivals.append(t)
                else:
                    updates.append(
                        (t, _parse_pos(obj.get(self.pos_key), source, line_num, self.pos_key))
                    )
        return self._finish(source, arrivals, updates, {"format": "jsonl"})


class ArchiveTraceLoader(TraceLoader):
    """Replays the arrival stream of a telemetry run archive.

    The archive's ``log_arrival`` column (every serviced query's arrival
    time) becomes the trace; the update stream is empty.  To re-drive a
    run's *exact* stimulus including updates, record it (``repro
    record``) and use the ``recording`` loader instead.  A recording is
    a run archive too, so an unreadable ``.npz`` -- which cannot tell
    which it was -- lands here and is named as either.
    """

    name = "archive"
    description = "telemetry run archive (.npz) arrival stream"

    def load(self, source: str) -> Trace:
        from repro.telemetry.archive import read_archive

        try:
            arch = read_archive(source, kind="run archive or recording")
        except OSError as exc:
            raise TraceFormatError(f"{source}: cannot open: {exc}") from exc
        except ValueError as exc:  # names the file, the problem and the fix
            raise TraceFormatError(str(exc)) from exc
        arrivals = np.sort(
            np.asarray(arch.columns["log_arrival"], dtype=np.float64),
            kind="stable",
        )
        meta = {
            "source": str(source),
            "loader": self.name,
            "format": "archive",
            "archive_meta": {
                k: v for k, v in arch.meta.items() if k not in ("schema",)
            },
        }
        if arrivals.size == 0:
            raise TraceFormatError(f"{source}: archive holds zero queries")
        return Trace(arrivals=arrivals, meta=meta)


class RecordingTraceLoader(TraceLoader):
    """The stimulus stream of a ``repro record`` recording (.npz).

    Unlike the ``archive`` loader this reproduces the *offered* stimulus
    -- every drawn arrival (including queries that were later dropped)
    plus the full update stream -- so replaying it as a plain trace
    re-offers exactly what the recorded run saw.
    """

    name = "recording"
    description = "recorded-run stimulus (.npz from repro record)"

    def load(self, source: str) -> Trace:
        from .record import read_recording

        try:
            rec = read_recording(source)
        except OSError as exc:
            raise TraceFormatError(f"{source}: cannot open: {exc}") from exc
        except ValueError as exc:  # names the file, the problem and the fix
            raise TraceFormatError(str(exc)) from exc
        stim = rec.stimulus
        meta = {
            "source": str(source),
            "loader": self.name,
            "format": "recording",
            "scenario": rec.meta.get("scenario"),
        }
        return Trace(arrivals=stim.arrivals, updates=stim.updates, meta=meta)
