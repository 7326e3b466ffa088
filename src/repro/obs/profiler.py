"""Span recorder: where does a run's wall clock go?

``with SpanRecorder() as rec:`` wraps every entry point named in
:data:`SPANS` -- the scenario runner, the engine's phase methods, both
kernels' ``commit_batch`` and the oracle's per-query ``select``, the RTT
draw, and the cluster, control, admission, telemetry and trace layers --
at class or module level, and puts every original back on exit, also
when the block raises.  Each wrapped call appends its start, end and
enclosing span to ``array`` columns.  Nothing in the engine knows it is
measured: a recorded run is bit-identical to an unrecorded one, and an
unrecorded run runs no recorder code at all (nothing on the scenario
runner's import path imports this module).

A span's *self* time is its duration minus the durations of its direct
children.  Clock readings are integer nanoseconds, so the self times of
every span plus ``unattributed`` -- the block's wall minus its root
spans -- add up to the wall exactly.

Wrappers replace module and class attributes, so call a module function
through its module (``runner.execute_scenario``); a reference bound
before the block still calls the original.

Example -- profile a small scenario::

    >>> from repro.scenarios import builtin_scenarios, runner
    >>> steady = builtin_scenarios(n_servers=8, duration=10.0)[0]
    >>> with SpanRecorder() as rec:
    ...     _ = runner.execute_scenario(steady)
    >>> s = rec.summary()
    >>> s["spans"]["scenarios.execute_scenario"]["calls"]
    1
    >>> s["spans"]["sim.engine"]["calls"], s["spans"]["sim.flush"]["calls"] > 0
    (1, True)
    >>> sum(v["self_ns"] for v in s["spans"].values()) + s["unattributed_ns"] == s["wall_ns"]
    True
    >>> runner.execute_scenario.__name__, hasattr(runner.execute_scenario, "__wrapped__")
    ('execute_scenario', False)
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

__all__ = ["SPANS", "SpanRecorder", "span_owner"]

_ENGINE = ("repro.sim.fastpath", "_Engine")

#: span name -> (module, class or None for a module function, attributes).
#: One name may cover several callables.  The runner binds
#: ``run_queries_reference`` at import, so that binding is the one wrapped.
SPANS = (
    ("scenarios.execute_scenario", "repro.scenarios.runner", None, ("execute_scenario",)),
    ("sim.reference", "repro.scenarios.runner", None, ("run_queries_reference",)),
    ("traces.replay_recording", "repro.traces.record", None, ("replay_recording",)),
    ("traces.read_recording", "repro.traces.record", None, ("read_recording",)),
    ("traces.write_recording", "repro.traces.record", None, ("write_recording",)),
    ("obs.build_manifest", "repro.obs.manifest", None, ("build_manifest",)),
    ("sim.engine", "repro.cluster.deployment", "Deployment", ("run_queries_fast",)),
    ("sim.build", *_ENGINE, ("_build",)),
    ("sim.refresh", *_ENGINE, ("_refresh_values", "_refresh_busy", "_reread")),
    ("sim.commit_chunk", *_ENGINE, ("_commit_chunk",)),
    ("sim.arrival_draw", "repro.sim.network", "NetworkModel", ("sample_rtts",)),
    ("kernels.commit_batch", "repro.kernels.base", "SweepKernel", ("commit_batch",)),
    ("kernels.commit_batch", "repro.kernels.compiled", "CompiledKernel", ("commit_batch",)),
    ("kernels.select", "repro.kernels.exact", "ExactNumpyKernel", ("select",)),
    ("sim.flush", *_ENGINE, ("_flush_bulk",)),
    ("sim.emit_records", *_ENGINE, ("_emit_records",)),
    ("sim.materialise", *_ENGINE, ("_materialise",)),
    ("sim.actions", *_ENGINE, ("_fire",)),
    ("sim.apply_updates", *_ENGINE, ("_apply_updates",)),
    ("sim.delegate", *_ENGINE, ("_delegate",)),
    ("cluster.run_query", "repro.cluster.deployment", "Deployment", ("run_query",)),
    ("cluster.apply_update", "repro.cluster.deployment", "Deployment", ("apply_update",)),
    (
        "cluster.membership",
        "repro.cluster.deployment",
        "Deployment",
        ("fail_node", "recover_node", "add_server", "remove_server"),
    ),
    ("core.cover_table.get", "repro.core.covertable", "CoverTableCache", ("get",)),
    ("core.cover_table.build", "repro.core.covertable", "CoverTable", ("__init__",)),
    ("admission.admit", "repro.admission.base", "AdmissionPolicy", ("admit",)),
    ("admission.tick", "repro.admission.base", "AdmissionPolicy", ("tick",)),
    ("control.observe_chunk", "repro.control.metrics", "MetricsCollector", ("observe_chunk",)),
    ("control.snapshot", "repro.control.metrics", "MetricsCollector", ("snapshot",)),
    ("control.step", "repro.control.controllers", "Controller", ("step",)),
    (
        "telemetry.archive_observe_chunk",
        "repro.telemetry.archive",
        "ArchiveWriter",
        ("observe_chunk",),
    ),
    ("telemetry.archive_close", "repro.telemetry.archive", "ArchiveWriter", ("close",)),
)

#: chrome-trace events kept per span name; the totals cover every span.
CHROME_EVENTS_PER_NAME = 20_000

_MISSING = object()


def span_owner(module: str, cls):
    """The module, or the class in it, that holds a :data:`SPANS` row's
    attributes."""
    owner = importlib.import_module(module)
    return owner if cls is None else getattr(owner, cls)


class SpanRecorder:
    """Records one span per call of every :data:`SPANS` entry point while
    its ``with`` block runs; read the results after the block.

    *clock* returns integer nanoseconds; a test can pass a counter to
    make every duration exact.
    """

    def __init__(self, clock=time.monotonic_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.wall_ns = 0
        self._t0 = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "SpanRecorder":
        ids: dict[str, int] = {}
        try:
            for name, module, cls, attrs in SPANS:
                owner = span_owner(module, cls)
                nid = ids.setdefault(name, len(ids))
                for attr in attrs:
                    self._wrap(owner, attr, nid)
        except BaseException:
            self._restore()
            raise
        self.names = list(ids)
        self._t0 = self.clock()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_ns = self.clock() - self._t0
        self._restore()

    def _wrap(self, owner, attr: str, nid: int) -> None:
        fn = getattr(owner, attr)
        clock, stack = self.clock, self._stack
        name_ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, span)

    def _restore(self) -> None:
        """Put back every original callable, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------
    def summary(self) -> dict:
        """``wall_ns``, ``unattributed_ns`` (the wall minus the root spans)
        and, per span name that was called, ``calls``, ``total_ns`` and
        ``self_ns``."""
        import numpy as np

        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        parents = np.frombuffer(self.parent, dtype=np.int32)
        nested = parents >= 0
        selfs = dur.copy()
        np.subtract.at(selfs, parents[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total_ns = np.zeros(k, dtype=np.int64)
        self_ns = np.zeros(k, dtype=np.int64)
        np.add.at(total_ns, ids, dur)
        np.add.at(self_ns, ids, selfs)
        return {
            "wall_ns": self.wall_ns,
            "unattributed_ns": self.wall_ns - int(dur[~nested].sum()),
            "spans": {
                name: {
                    "calls": int(calls[i]),
                    "total_ns": int(total_ns[i]),
                    "self_ns": int(self_ns[i]),
                }
                for i, name in enumerate(self.names)
                if calls[i]
            },
        }

    def render_table(self) -> str:
        """The ``repro profile`` table: spans by self time, then the
        unattributed rest and the wall."""
        s = self.summary()
        wall = max(s["wall_ns"], 1)
        rows = sorted(s["spans"].items(), key=lambda kv: -kv[1]["self_ns"])
        lines = [f"{'span':32s} {'calls':>8s} {'total ms':>10s} {'self ms':>10s} {'share':>7s}"]
        for name, v in rows:
            lines.append(
                f"{name:32s} {v['calls']:>8d} {v['total_ns'] / 1e6:>10.2f} "
                f"{v['self_ns'] / 1e6:>10.2f} {v['self_ns'] / wall:>7.1%}"
            )
        rest = s["unattributed_ns"]
        lines.append(
            f"{'unattributed':32s} {'-':>8s} {rest / 1e6:>10.2f} "
            f"{rest / 1e6:>10.2f} {rest / wall:>7.1%}"
        )
        lines.append(f"{'wall':32s} {'-':>8s} {s['wall_ns'] / 1e6:>10.2f}")
        return "\n".join(lines)

    def write_chrome_trace(self, path) -> None:
        """Write the spans as chrome://tracing JSON (open it there or at
        ui.perfetto.dev), at most :data:`CHROME_EVENTS_PER_NAME` events per
        span name; ``otherData`` holds the full :meth:`summary`."""
        t0 = self._t0
        kept = [0] * len(self.names)
        events = []
        for nid, start, end in zip(self.name_id, self.start, self.end):
            if kept[nid] >= CHROME_EVENTS_PER_NAME:
                continue
            kept[nid] += 1
            events.append(
                {
                    "name": self.names[nid],
                    "ph": "X",
                    "pid": 0,
                    "tid": 0,
                    "ts": (start - t0) / 1e3,
                    "dur": (end - start) / 1e3,
                }
            )
        other = {"events_per_name_cap": CHROME_EVENTS_PER_NAME, **self.summary()}
        with open(path, "w") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other},
                fh,
            )
            fh.write("\n")
