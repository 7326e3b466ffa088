"""The event tables behind ``repro explain``: decisions, sheds, ticks.

Contracts under test:

* **explain output** -- ``repro explain`` on one small archive that
  carries all three tables prints a pinned stdout, stderr and ``--json``
  file, byte for byte;
* **round trip** -- any mix of rows (NaN and ``None`` values, repeated
  and new strings, single and bulk shed appends) written through
  ``ArchiveWriter.close`` reads back as the live records;
* **stored layout** -- column names, dtypes and meta keys are a pinned
  literal, and an archive written with the retired ``shedchunk_*``
  columns still explains unchanged.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.admission import ShedLog
from repro.cli import main
from repro.obs import DecisionLog
from repro.telemetry.archive import write_archive_columns


class _Snapshot:
    """The window inputs a controller saw (a ``MetricsSnapshot`` stand-in)."""

    def __init__(self, p99, n_queries, backlog=2.0, qps=1.0):
        self.p50, self.p95, self.p99 = 0.25, 0.75, p99
        self.max_queue_depth = backlog
        self.mean_utilisation = 0.5
        self.qps = qps
        self.n_queries = n_queries
        self.n_servers = 8


class _Action:
    def __init__(self, time, controller, kind, detail, value):
        self.time, self.controller, self.kind = time, controller, kind
        self.detail, self.value = detail, value


def _log_columns():
    """Eight logged queries, one per second from t=1, with set delays."""
    arrival = np.arange(1.0, 9.0)
    delay = np.array([0.5, 0.25, 1.0, 0.75, 2.0, 0.5, 1.5, 0.25])
    finish = arrival + delay
    pq = np.full(8, 4, dtype=np.int64)
    zeros = np.zeros(8)
    return {
        "log_query_id": np.arange(1, 9, dtype=np.int64),
        "log_arrival": arrival,
        "log_finish": finish,
        "log_pq": pq,
        "log_subqueries": pq.copy(),
        "log_scheduling": zeros,
        "bd_scheduling": zeros.copy(),
        "bd_network": zeros.copy(),
        "bd_queueing": finish - arrival,
        "bd_service": zeros.copy(),
        "bd_total": finish - arrival,
    }


def _pinned_logs():
    """A 3 s window over :func:`_log_columns`: every row's recorded p99
    is the one the archive recomputes, except the repartition action's."""
    decisions = DecisionLog()
    decisions.record_hold(0.5, 0, "slo-elasticity", "no-signal")
    decisions.record_action(
        _Action(4.0, "slo-elasticity", "grow", "p99 1.00 > slo 0.50", 2.0),
        query_index=3, snapshot=_Snapshot(0.9924999999999999, 4),
    )
    decisions.record_action(
        _Action(6.0, "repartition", "repartition", "p 4 -> 2", 2.0),
        query_index=5, snapshot=_Snapshot(1.5, 3, qps=1.5),
    )
    decisions.record_hold(
        8.0, 7, "repartition", "cooldown",
        snapshot=_Snapshot(1.9849999999999999, 4, backlog=0.0),
    )
    admission = ShedLog()
    admission.record_shed(2.5, 2, "queue-cap", backlog=2.5, signal=0.75)
    admission.record_sheds(
        [3.25, 3.5], [4, 5], [1, 0], [0.5, 2.25], [0.0, 0.5], ("queue-cap", "rate")
    )
    admission.record_tick(3.0, 4, rate=math.nan, p99=0.99, backlog_hwm=2.5,
                          accepted=3, shed=1, cap_queries=1.5)
    admission.record_tick(6.0, 7, rate=12.5, p99=1.9699999999999998,
                          backlog_hwm=2.25, accepted=5, shed=3, cap_queries=2.0)
    return decisions, admission


def _write_pinned(path, extra=None):
    decisions, admission = _pinned_logs()
    columns = {
        **_log_columns(), **decisions.columns(), **admission.columns(), **(extra or {})
    }
    write_archive_columns(path, columns, meta={
        "scenario": "pinned",
        "manifest": {
            "git_revision": "0123abc", "host": "pinhost", "kernel": "exact_numpy",
        },
        "decisions": decisions.meta(window=3.0),
        "admission": admission.meta(policy="aimd", window=3.0, slo=0.5, queue_cap=2.0),
    })


_PINNED_STDOUT = """\
archive        : {archive}
provenance     : rev 0123abc, host pinhost, kernel exact_numpy
metrics window : 3 s (sampled by arrival time)
decisions      : 4 (2 actions, 2 holds)
    time   query# controller           decision          value      p99  backlog  check  detail
    0.50        0 slo-elasticity       hold                  -        -        -     ok  no-signal
    4.00        3 slo-elasticity       grow                  2    0.992        2     ok  p99 1.00 > slo 0.50
    6.00        5 repartition          repartition           2    1.500        2   FAIL  p 4 -> 2
    8.00        7 repartition          hold                  -    1.985        0     ok  cooldown
shed decisions : 3 over 2 tick(s) (policy aimd)
admission: policy=aimd slo=0.5 window=3 queue_cap=2
shed: 3 (queue-cap=2, rate=1)
    time   query#      rate      p99      hwm      acc     shed  check
    3.00        4         -    0.990     2.50        3        1     ok
    6.00        7    12.500    1.970     2.25        5        3     ok
json timeline  : {json}
"""

_PINNED_STDERR = """\
cross-check    : 1 record(s) FAILED against the archived delay columns
"""

_PINNED_JSON = """\
{
  "admission": {
    "meta": {
      "policy": "aimd",
      "queue_cap": 2.0,
      "reasons": [
        "queue-cap",
        "rate"
      ],
      "schema": 1,
      "slo": 0.5,
      "window": 3.0
    },
    "sheds": [
      {
        "backlog": 2.5,
        "query_index": 2,
        "reason": "queue-cap",
        "signal": 0.75,
        "time": 2.5
      },
      {
        "backlog": 0.5,
        "query_index": 4,
        "reason": "rate",
        "signal": 0.0,
        "time": 3.25
      },
      {
        "backlog": 2.25,
        "query_index": 5,
        "reason": "queue-cap",
        "signal": 0.5,
        "time": 3.5
      }
    ],
    "ticks": [
      {
        "accepted": 3,
        "backlog_hwm": 2.5,
        "cap_queries": 1.5,
        "check": true,
        "p99": 0.99,
        "query_index": 4,
        "rate": NaN,
        "shed": 1,
        "time": 3.0
      },
      {
        "accepted": 5,
        "backlog_hwm": 2.25,
        "cap_queries": 2.0,
        "check": true,
        "p99": 1.9699999999999998,
        "query_index": 7,
        "rate": 12.5,
        "shed": 3,
        "time": 6.0
      }
    ]
  },
  "decisions": [
    {
      "backlog": NaN,
      "check": true,
      "controller": "slo-elasticity",
      "detail": "no-signal",
      "kind": "hold",
      "n_queries": -1,
      "n_servers": -1,
      "p50": NaN,
      "p95": NaN,
      "p99": NaN,
      "qps": NaN,
      "query_index": 0,
      "time": 0.5,
      "utilisation": NaN,
      "value": null
    },
    {
      "backlog": 2.0,
      "check": true,
      "controller": "slo-elasticity",
      "detail": "p99 1.00 > slo 0.50",
      "kind": "grow",
      "n_queries": 4,
      "n_servers": 8,
      "p50": 0.25,
      "p95": 0.75,
      "p99": 0.9924999999999999,
      "qps": 1.0,
      "query_index": 3,
      "time": 4.0,
      "utilisation": 0.5,
      "value": 2.0
    },
    {
      "backlog": 2.0,
      "check": false,
      "controller": "repartition",
      "detail": "p 4 -> 2",
      "kind": "repartition",
      "n_queries": 3,
      "n_servers": 8,
      "p50": 0.25,
      "p95": 0.75,
      "p99": 1.5,
      "qps": 1.5,
      "query_index": 5,
      "time": 6.0,
      "utilisation": 0.5,
      "value": 2.0
    },
    {
      "backlog": 0.0,
      "check": true,
      "controller": "repartition",
      "detail": "cooldown",
      "kind": "hold",
      "n_queries": 4,
      "n_servers": 8,
      "p50": 0.25,
      "p95": 0.75,
      "p99": 1.9849999999999999,
      "qps": 1.0,
      "query_index": 7,
      "time": 8.0,
      "utilisation": 0.5,
      "value": null
    }
  ]
}"""


def _explain(capsys, archive, json_path):
    rc = main(["explain", str(archive), "--json", str(json_path)])
    out, err = capsys.readouterr()
    return rc, out, err, json_path.read_text(encoding="utf-8")


class TestExplainPinned:
    def test_stdout_stderr_and_json_are_pinned(self, tmp_path, capsys):
        archive, json_path = tmp_path / "pinned.npz", tmp_path / "pinned.json"
        _write_pinned(archive)
        rc, out, err, payload = _explain(capsys, archive, json_path)
        assert rc == 1  # the repartition action's p99 does not recompute
        assert out == _PINNED_STDOUT.format(archive=archive, json=json_path)
        assert err == _PINNED_STDERR
        assert payload == _PINNED_JSON

    def test_retired_shedchunk_columns_explain_unchanged(self, tmp_path, capsys):
        """Archives written while the per-chunk admission counters were
        stored carry three ``shedchunk_*`` columns; readers ignore them."""
        from repro.telemetry.archive import archive_diff, read_archive

        chunk = {
            "shedchunk_start": np.array([0, 3, 5], dtype=np.int64),
            "shedchunk_accepted": np.array([3, 2, 3], dtype=np.int64),
            "shedchunk_shed": np.array([1, 2, 0], dtype=np.int64),
        }
        old, new = tmp_path / "old.npz", tmp_path / "new.npz"
        _write_pinned(old, extra=chunk)
        _write_pinned(new)
        json_path = tmp_path / "old.json"
        rc, out, err, payload = _explain(capsys, old, json_path)
        assert rc == 1
        assert out == _PINNED_STDOUT.format(archive=old, json=json_path)
        assert err == _PINNED_STDERR
        assert payload == _PINNED_JSON

        diff = archive_diff(read_archive(old), read_archive(new))
        assert {n for n, c in diff["columns"].items() if not c["equal"]} == set(chunk)
        assert all(diff["columns"][n]["missing_in"] == "b" for n in chunk)
        assert not diff["gated_identical"]


# ---------------------------------------------------------------------------
# Round trip and stored layout
# ---------------------------------------------------------------------------

#: every event column an archive stores, with its dtype.
_LAYOUT = {
    "dec_time": "<f8", "dec_query_index": "<i8", "dec_controller": "<i8",
    "dec_kind": "<i8", "dec_value": "<f8", "dec_p50": "<f8", "dec_p95": "<f8",
    "dec_p99": "<f8", "dec_backlog": "<f8", "dec_utilisation": "<f8",
    "dec_qps": "<f8", "dec_n_queries": "<i8", "dec_n_servers": "<i8",
    "shed_time": "<f8", "shed_query_index": "<i8", "shed_reason": "<i8",
    "shed_backlog": "<f8", "shed_signal": "<f8",
    "adm_time": "<f8", "adm_query_index": "<i8", "adm_rate": "<f8",
    "adm_p99": "<f8", "adm_backlog_hwm": "<f8", "adm_accepted": "<i8",
    "adm_shed": "<i8", "adm_cap_queries": "<f8",
}
#: the meta keys of each event table, in stored order.
_META_KEYS = {
    "decisions": ["schema", "controllers", "kinds", "details", "window"],
    "admission": ["schema", "reasons", "policy", "window", "slo", "queue_cap"],
}

_values = st.one_of(st.floats(width=64, allow_infinity=False), st.just(math.nan))
_indexes = st.integers(-1, 2**40)
_strings = st.sampled_from(["slo-elasticity", "repartition", "queue-cap", "rate", "p99", ""])
_snapshots = st.one_of(
    st.none(),
    st.builds(
        dict, p50=_values, p95=_values, p99=_values, max_queue_depth=_values,
        mean_utilisation=_values, qps=_values,
        n_queries=st.integers(-1, 10**6), n_servers=st.integers(-1, 10**4),
    ),
)
_decisions = st.lists(st.tuples(
    st.booleans(), _values, _indexes, _strings, _strings, _strings,
    st.one_of(st.none(), _values), _snapshots,
), max_size=8)
_shed_rows = st.tuples(_values, _indexes, _strings, _values, _values)
_sheds = st.lists(st.one_of(
    _shed_rows.map(lambda row: ("one", row)),
    st.tuples(
        st.permutations(["queue-cap", "rate", "p99"]).map(tuple),
        st.lists(st.tuples(_values, _indexes, st.integers(0, 2), _values, _values),
                 max_size=5),
    ).map(lambda bulk: ("bulk", bulk)),
), max_size=6)
_ticks = st.lists(st.tuples(
    _values, _indexes, _values, _values, _values,
    st.integers(0, 10**9), st.integers(0, 10**9), _values,
), max_size=6)


def _expected_decision(is_hold, time, index, controller, kind, detail, value, snap):
    from repro.obs.events import DecisionRecord

    snap = snap or {}
    return DecisionRecord(
        time=time, query_index=index, controller=controller,
        kind="hold" if is_hold else kind, detail=detail,
        value=None if is_hold or value is None or math.isnan(value) else value,
        p50=snap.get("p50", math.nan), p95=snap.get("p95", math.nan),
        p99=snap.get("p99", math.nan), backlog=snap.get("max_queue_depth", math.nan),
        utilisation=snap.get("mean_utilisation", math.nan),
        qps=snap.get("qps", math.nan), n_queries=snap.get("n_queries", -1),
        n_servers=snap.get("n_servers", -1),
    )


def _shed_bytes(log):
    return {k: v.tobytes() for k, v in log.columns().items() if k.startswith("shed_")}


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(decision_rows=_decisions, shed_ops=_sheds, tick_rows=_ticks)
    def test_every_table_reads_back_as_live_records(
        self, decision_rows, shed_ops, tick_rows
    ):
        import os
        import tempfile
        import types

        from repro.obs.events import (
            AdmissionTick, ShedRecord, admission_from_archive, decisions_from_archive,
        )
        from repro.telemetry.archive import ArchiveWriter, read_archive

        decisions, want_decisions = DecisionLog(), []
        for row in decision_rows:
            is_hold, time, index, controller, kind, detail, value, snap = row
            snapshot = types.SimpleNamespace(**snap) if snap is not None else None
            if is_hold:
                decisions.record_hold(time, index, controller, detail, snapshot)
            else:
                action = _Action(time, controller, kind, detail, value)
                decisions.record_action(action, index, snapshot)
            want_decisions.append(_expected_decision(*row))
        admission, want_sheds = ShedLog(), []
        for op, payload in shed_ops:
            if op == "one":
                admission.record_shed(*payload)
                want_sheds.append(ShedRecord(*payload))
                continue
            reasons, rows = payload
            columns = [list(col) for col in zip(*rows)] or [[] for _ in range(5)]
            admission.record_sheds(*columns, reasons)
            want_sheds += [ShedRecord(t, i, reasons[c], b, s) for t, i, c, b, s in rows]
        for row in tick_rows:
            admission.record_tick(*row)
        want_ticks = [AdmissionTick(*row) for row in tick_rows]

        per_row = ShedLog()  # bulk appends intern as per-row ones would
        for rec in want_sheds:
            per_row.record_shed(rec.time, rec.query_index, rec.reason, rec.backlog,
                                rec.signal)
        assert _shed_bytes(per_row) == _shed_bytes(admission)
        assert per_row.meta() == admission.meta()

        live_sheds, live_ticks = admission.records()
        assert repr(decisions.records()) == repr(want_decisions)
        assert repr(live_sheds) == repr(want_sheds)
        assert repr(live_ticks) == repr(want_ticks)

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "events.npz")
            ArchiveWriter(path).close(
                meta={
                    "decisions": decisions.meta(window=20.0),
                    "admission": admission.meta(
                        policy="aimd", window=10.0, slo=0.5, queue_cap=2.0
                    ),
                },
                extra_columns={**decisions.columns(), **admission.columns()},
            )
            archive = read_archive(path)
            with np.load(path) as raw:
                stored = {
                    n: raw[n].dtype.str for n in raw.files
                    if n.startswith(("dec_", "shed_", "adm_"))
                }
        assert stored == _LAYOUT
        for table, keys in _META_KEYS.items():
            assert list(archive.meta[table]) == keys
        assert repr(decisions_from_archive(archive)) == repr(want_decisions)
        sheds, ticks, meta = admission_from_archive(archive)
        assert repr(sheds) == repr(want_sheds)
        assert repr(ticks) == repr(want_ticks)
        assert meta == admission.meta(policy="aimd", window=10.0, slo=0.5, queue_cap=2.0)
