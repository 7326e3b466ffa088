"""Layer spans recorded from outside the program.

The traced run replaces each layer's public function or method (the
``LAYERS`` table) with a wrapper that records one span per call: name,
start, end, and the enclosing span.  Spans live in compact ``array``
columns while the run lasts and are reduced when it ends; a layer's self
time is its spans' durations minus the time their child spans cover.
Nothing inside ``src/`` is edited: this measures the public calls only.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

import numpy as np

#: span name -> (module, class or None for a module function, attributes).
#: One span name may cover several methods (membership edits).
LAYERS = (
    ("scenarios.execute_scenario", "repro.scenarios.runner", None, ("execute_scenario",)),
    ("traces.replay_recording", "repro.traces.record", None, ("replay_recording",)),
    ("traces.read_recording", "repro.traces.record", None, ("read_recording",)),
    ("traces.write_recording", "repro.traces.record", None, ("write_recording",)),
    ("obs.build_manifest", "repro.obs.manifest", None, ("build_manifest",)),
    ("sim.engine", "repro.cluster.deployment", "Deployment", ("run_queries_fast",)),
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
    ("kernels.commit_batch", "repro.kernels.compiled", "CompiledKernel", ("commit_batch",)),
    ("kernels.select", "repro.kernels.compiled", "CompiledKernel", ("select",)),
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

#: span name -> work units of one call, read from its positional args.
#: ``commit_batch(self, state, entry, plan, bufs, start, nq)``: queries.
WORK_UNITS = {"kernels.commit_batch": lambda args: args[6]}

#: chrome-trace events kept per span name; the totals cover every span.
CHROME_EVENTS_PER_NAME = 20_000

_MISSING = object()


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans are synchronous calls, so a child lies inside its parent and
    children of one parent do not overlap.
    """
    dur = np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    nested = parents >= 0
    child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
    return dur - child


class Tracer:
    """Records spans of wrapped callables; :meth:`restore` unwraps them."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.work = array("q")
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, name: str, work=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        fn = getattr(owner, attr)
        nid = self._intern(name)
        clock = self.clock
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, works, stack = self.parent, self.work, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            works.append(work(args) if work is not None else 0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap every layer entry point in ``LAYERS``."""
        for name, module, cls, attrs in LAYERS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            for attr in attrs:
                self.wrap(owner, attr, name, WORK_UNITS.get(name))
        return self

    def restore(self) -> None:
        """Put back every original callable, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def totals(self) -> dict:
        """Per span name: ``calls``, ``self_s``, ``total_s`` and ``work``."""
        ids = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        selfs = self_times(self.start, self.end, self.parent)
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_ns = np.bincount(ids, weights=selfs, minlength=k)
        total_ns = np.bincount(ids, weights=dur, minlength=k)
        work = np.bincount(ids, weights=np.asarray(self.work, dtype=np.float64), minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "self_s": float(self_ns[i]) / 1e9,
                "total_s": float(total_ns[i]) / 1e9,
                "work": int(work[i]),
            }
            for i, name in enumerate(self.names)
        }

    def attributed_s(self) -> float:
        """Self time summed over every span (= the root spans' durations)."""
        return float(self_times(self.start, self.end, self.parent).sum()) / 1e9

    def write_chrome(self, path, meta: dict | None = None) -> None:
        """Write the spans as a chrome://tracing JSON file."""
        t0 = min(self.start, default=0)
        kept = [0] * len(self.names)
        events = []
        for i in range(len(self.start)):
            nid = self.name_id[i]
            if kept[nid] >= CHROME_EVENTS_PER_NAME:
                continue
            kept[nid] += 1
            events.append(
                {
                    "name": self.names[nid],
                    "ph": "X",
                    "pid": 0,
                    "tid": 0,
                    "ts": (self.start[i] - t0) / 1000.0,
                    "dur": (self.end[i] - self.start[i]) / 1000.0,
                }
            )
        other = dict(meta or {})
        other["events_per_name_cap"] = CHROME_EVENTS_PER_NAME
        other["totals"] = self.totals()
        with open(path, "w") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other},
                fh,
            )
