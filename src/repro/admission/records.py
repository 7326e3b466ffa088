"""Columnar admission telemetry: who was shed, when, and why.

Every shed decision appends one row to a :class:`ShedLog` -- the arrival
time, the **exact query index** in the arrival stream, the interned shed
reason, and the two signals the policy saw (busiest-server backlog and the
policy's own gating signal).  Controller ticks append one ``adm_*`` row
each (token rate, windowed p99, backlog high-water mark, running
accepted/shed counts), and every flushed engine chunk appends one
``shedchunk_*`` row with the chunk's accepted/shed deltas.

All shed/tick rows are simulated-time quantities, deterministic and
bit-identical across engines; the per-chunk rows depend on engine chunking
(the reference path has no chunks and writes a single whole-run summary
row), so archive diffing skips the ``shedchunk_`` prefix the same way it
skips wall-clock columns.

Example -- a log round-trips through the archive layer::

    >>> import tempfile, os
    >>> from repro.telemetry.archive import ArchiveWriter, read_archive
    >>> log = ShedLog()
    >>> log.record_shed(4.0, 120, "queue-cap", backlog=9.5, signal=1.2)
    >>> log.record_tick(5.0, 130, rate=40.0, p99=1.2, backlog_hwm=9.5,
    ...                 accepted=129, shed=1, cap_queries=38.0)
    >>> path = os.path.join(tempfile.mkdtemp(), "shed.npz")
    >>> ArchiveWriter(path).close(meta={"admission": log.meta(policy="aimd")},
    ...                           extra_columns=log.columns())
    >>> sheds, ticks, meta = admission_from_archive(read_archive(path))
    >>> (sheds[0].reason, sheds[0].query_index, ticks[0].rate)
    ('queue-cap', 120, 40.0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "ShedLog",
    "ShedRecord",
    "AdmissionTick",
    "admission_from_archive",
    "explain_admission",
    "render_admission",
]


#: One value per shed query.
_SHED_COLUMNS = (
    "shed_time", "shed_query_index", "shed_reason", "shed_backlog", "shed_signal",
)
#: One value per controller tick.
_TICK_COLUMNS = (
    "adm_time", "adm_query_index", "adm_rate", "adm_p99", "adm_backlog_hwm",
    "adm_accepted", "adm_shed", "adm_cap_queries",
)


@dataclass(frozen=True)
class ShedRecord:
    """One shed query, reconstructed from archive columns."""

    time: float
    query_index: int
    reason: str  # queue-cap / rate / p99 / ...
    backlog: float  # busiest-server backlog (seconds) at the decision
    signal: float  # policy gating signal (tokens for aimd, p99 for delay_gated)


@dataclass(frozen=True)
class AdmissionTick:
    """One admission-controller tick, reconstructed from archive columns."""

    time: float
    query_index: int
    rate: float  # token rate after adaptation (NaN for rateless policies)
    p99: float  # windowed p99 delay the tick saw (NaN when window empty)
    backlog_hwm: float  # backlog high-water mark since the previous tick
    accepted: int  # running accepted count at the tick
    shed: int  # running shed count at the tick
    cap_queries: float  # queue cap expressed in queries (rate * cap seconds)


class ShedLog:
    """Columnar accumulator of shed decisions, ticks, and chunk counts.

    Mirrors :class:`~repro.obs.audit.DecisionLog`: numeric inputs live in
    ``GrowArray`` columns, shed reasons are interned into a side table
    carried in archive meta, so the columns stay pure numerics the generic
    archive reader round-trips.
    """

    def __init__(self) -> None:
        from ..telemetry.columns import GrowArray

        # one row per shed query
        self._shed_time = GrowArray(dtype="float64")
        self._shed_query_index = GrowArray(dtype="int64")
        self._shed_reason = GrowArray(dtype="int64")
        self._shed_backlog = GrowArray(dtype="float64")
        self._shed_signal = GrowArray(dtype="float64")
        # one row per controller tick
        self._adm_time = GrowArray(dtype="float64")
        self._adm_query_index = GrowArray(dtype="int64")
        self._adm_rate = GrowArray(dtype="float64")
        self._adm_p99 = GrowArray(dtype="float64")
        self._adm_backlog_hwm = GrowArray(dtype="float64")
        self._adm_accepted = GrowArray(dtype="int64")
        self._adm_shed = GrowArray(dtype="int64")
        self._adm_cap_queries = GrowArray(dtype="float64")
        # one row per flushed engine chunk (engine-granularity, not gated)
        self._chunk_start = GrowArray(dtype="int64")
        self._chunk_accepted = GrowArray(dtype="int64")
        self._chunk_shed = GrowArray(dtype="int64")
        self._reasons: list[str] = []
        self._chunk_shed_seen = 0

    def __len__(self) -> int:
        return self._shed_time.n

    @property
    def n_sheds(self) -> int:
        return self._shed_time.n

    @property
    def n_ticks(self) -> int:
        return self._adm_time.n

    def _intern(self, value: str) -> int:
        try:
            return self._reasons.index(value)
        except ValueError:
            self._reasons.append(value)
            return len(self._reasons) - 1

    # -- recording ---------------------------------------------------------
    def record_shed(
        self,
        time: float,
        query_index: int,
        reason: str,
        backlog: float,
        signal: float,
    ) -> None:
        """Append one shed decision at its exact arrival-stream index."""
        self._shed_time.append(float(time))
        self._shed_query_index.append(int(query_index))
        self._shed_reason.append(self._intern(reason))
        self._shed_backlog.append(float(backlog))
        self._shed_signal.append(float(signal))

    def record_sheds(
        self,
        time,
        query_index,
        reason_code,
        backlog,
        signal,
        reasons: tuple[str, ...],
    ) -> None:
        """Append a run of shed decisions, one array per column.

        ``reason_code[i]`` indexes into *reasons*.  Reasons are interned
        in order of first appearance, so the columns and the reason table
        match what per-row :meth:`record_shed` calls would have built.
        """
        import numpy as np

        codes = np.asarray(reason_code, dtype=np.int64)
        if codes.size == 0:
            return
        uniq, first = np.unique(codes, return_index=True)
        lut = np.zeros(len(reasons), dtype=np.int64)
        for code in uniq[np.argsort(first)].tolist():
            lut[code] = self._intern(reasons[code])
        self._shed_time.extend(time)
        self._shed_query_index.extend(query_index)
        self._shed_reason.extend(lut[codes])
        self._shed_backlog.extend(backlog)
        self._shed_signal.extend(signal)

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
        self._adm_time.append(float(time))
        self._adm_query_index.append(int(query_index))
        self._adm_rate.append(float(rate))
        self._adm_p99.append(float(p99))
        self._adm_backlog_hwm.append(float(backlog_hwm))
        self._adm_accepted.append(int(accepted))
        self._adm_shed.append(int(shed))
        self._adm_cap_queries.append(float(cap_queries))

    def record_chunk(self, log_start: int, accepted: int, shed_total: int) -> None:
        """Append one engine chunk's accepted count and shed delta.

        *shed_total* is the policy's running shed counter; the log keeps
        the delta since the previous chunk so the column sums to the total.
        """
        self._chunk_start.append(int(log_start))
        self._chunk_accepted.append(int(accepted))
        self._chunk_shed.append(int(shed_total) - self._chunk_shed_seen)
        self._chunk_shed_seen = int(shed_total)

    # -- persistence -------------------------------------------------------
    def columns(self) -> dict:
        """Archive-ready ``shed_*``/``adm_*``/``shedchunk_*`` columns (copies)."""
        return {
            "shed_time": self._shed_time.copy(),
            "shed_query_index": self._shed_query_index.copy(),
            "shed_reason": self._shed_reason.copy(),
            "shed_backlog": self._shed_backlog.copy(),
            "shed_signal": self._shed_signal.copy(),
            "adm_time": self._adm_time.copy(),
            "adm_query_index": self._adm_query_index.copy(),
            "adm_rate": self._adm_rate.copy(),
            "adm_p99": self._adm_p99.copy(),
            "adm_backlog_hwm": self._adm_backlog_hwm.copy(),
            "adm_accepted": self._adm_accepted.copy(),
            "adm_shed": self._adm_shed.copy(),
            "adm_cap_queries": self._adm_cap_queries.copy(),
            "shedchunk_start": self._chunk_start.copy(),
            "shedchunk_accepted": self._chunk_accepted.copy(),
            "shedchunk_shed": self._chunk_shed.copy(),
        }

    def meta(
        self,
        policy: Optional[str] = None,
        window: Optional[float] = None,
        slo: Optional[float] = None,
        queue_cap: Optional[float] = None,
    ) -> dict:
        """The reason interning table + policy parameters, for archive meta."""
        out: dict = {"schema": 1, "reasons": list(self._reasons)}
        if policy is not None:
            out["policy"] = str(policy)
        if window is not None:
            out["window"] = float(window)
        if slo is not None:
            out["slo"] = float(slo)
        if queue_cap is not None:
            out["queue_cap"] = float(queue_cap)
        return out

    def records(self, meta: Optional[dict] = None) -> tuple[list, list]:
        """The log as (:class:`ShedRecord` list, :class:`AdmissionTick` list)."""
        return _build_records(self.columns(), meta or self.meta())


def _build_records(columns: dict, meta: dict) -> tuple[list, list]:
    reasons = meta.get("reasons", [])
    sheds = [
        ShedRecord(
            time=float(columns["shed_time"][i]),
            query_index=int(columns["shed_query_index"][i]),
            reason=reasons[int(columns["shed_reason"][i])],
            backlog=float(columns["shed_backlog"][i]),
            signal=float(columns["shed_signal"][i]),
        )
        for i in range(len(columns["shed_time"]))
    ]
    ticks = [
        AdmissionTick(
            time=float(columns["adm_time"][i]),
            query_index=int(columns["adm_query_index"][i]),
            rate=float(columns["adm_rate"][i]),
            p99=float(columns["adm_p99"][i]),
            backlog_hwm=float(columns["adm_backlog_hwm"][i]),
            accepted=int(columns["adm_accepted"][i]),
            shed=int(columns["adm_shed"][i]),
            cap_queries=float(columns["adm_cap_queries"][i]),
        )
        for i in range(len(columns["adm_time"]))
    ]
    return sheds, ticks


def admission_from_archive(archive) -> tuple[list, list, dict]:
    """Rebuild shed records and ticks from a read archive.

    *archive* is the object ``repro.telemetry.archive.read_archive``
    returns; raises ``ValueError`` when it carries no admission columns
    (the scenario ran without an admission controller), and when a
    ``shed_*`` or ``adm_*`` column is missing, ragged, or indexes past
    its interned table.
    """
    from ..telemetry.archive import check_row_columns

    if not any(name.startswith(("shed_", "adm_")) for name in archive.columns):
        raise ValueError(
            "archive has no admission columns (shed_*): the run had no "
            "admission controller"
        )
    meta = archive.meta.get("admission", {})
    check_row_columns(
        archive.path, archive.columns, _SHED_COLUMNS,
        interned={"shed_reason": meta.get("reasons", [])},
    )
    check_row_columns(archive.path, archive.columns, _TICK_COLUMNS)
    sheds, ticks = _build_records(archive.columns, meta)
    return sheds, ticks, meta


def explain_admission(archive) -> list:
    """Cross-check each tick's windowed p99 against the delay columns.

    The admission window samples completed **admitted** queries by arrival
    time -- exactly the queries in the archived delay log (shed queries
    are logged in ``shed_*``, never in ``log_*``; dropped queries are in
    neither).  Recomputing the p99 over the logged rows
    (:func:`repro.obs.audit.check_window_p99s`, the cross-check
    :func:`repro.obs.audit.explain_archive` runs for controller
    decisions) must reproduce the recorded input bit-for-bit.

    Returns ``[(tick, ok, recomputed_p99, n_window), ...]``.
    """
    from ..obs.audit import check_window_p99s

    _, ticks, meta = admission_from_archive(archive)
    return check_window_p99s(archive, meta.get("window"), ticks)


def render_admission(sheds, ticks, checks=None, meta=None) -> str:
    """The ``repro explain`` admission section: summary + tick table.

    *checks* is :func:`explain_admission` output for the same archive;
    when given, its per-tick verdicts replace *ticks* entirely.
    """
    meta = meta or {}
    lines = []
    policy = meta.get("policy")
    header = f"admission: policy={policy or '?'}"
    for key in ("slo", "window", "queue_cap"):
        if meta.get(key) is not None:
            header += f" {key}={meta[key]:g}"
    lines.append(header)
    by_reason: dict[str, int] = {}
    for rec in sheds:
        by_reason[rec.reason] = by_reason.get(rec.reason, 0) + 1
    reasons = ", ".join(f"{k}={v}" for k, v in sorted(by_reason.items()))
    lines.append(f"shed: {len(sheds)} ({reasons or 'none'})")
    lines.append(
        f"{'time':>8s} {'query#':>8s} {'rate':>9s} {'p99':>8s} "
        f"{'hwm':>8s} {'acc':>8s} {'shed':>8s} {'check':>6s}"
    )
    if checks:
        rows = [(tick, "ok" if ok else "FAIL") for tick, ok, _, _ in checks]
    else:
        rows = [(tick, "-") for tick in ticks]
    for tick, check in rows:
        rate = f"{tick.rate:>9.3f}" if not math.isnan(tick.rate) else f"{'-':>9s}"
        p99 = f"{tick.p99:>8.3f}" if not math.isnan(tick.p99) else f"{'-':>8s}"
        lines.append(
            f"{tick.time:>8.2f} {tick.query_index:>8d} {rate} {p99} "
            f"{tick.backlog_hwm:>8.2f} {tick.accepted:>8d} "
            f"{tick.shed:>8d} {check:>6s}"
        )
    return "\n".join(lines)
