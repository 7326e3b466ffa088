"""Engine-phase profiler: where does a batched run's wall clock go?

The batched engine (:mod:`repro.sim.fastpath`) reports one end-to-end
wall-clock number per run.  :class:`PhaseProfiler` splits that wall into
the engine's phases -- the arrival-order rng draw, the kernel's fused
sweep+commit, the numpy flush reductions, chunk listeners, exact-time
action callbacks, failure delegation, mirror materialisation -- using
``time.perf_counter_ns`` accumulators, plus per-chunk samples suitable
for a chrome://tracing export.

Two contracts the engine instrumentation holds:

* **Zero cost when off.**  Every instrumentation site in the engine is
  guarded by ``if prof is not None``; an unprofiled run makes no profiler
  calls at all (``tests/test_obs.py`` proves it with the monkeypatch
  trick).
* **Bit-identity when on.**  Profiling only reads the monotonic clock; it
  never touches an rng stream or reorders a float operation, so a
  profiled run's results are byte-identical to an unprofiled one.

Attribution is *exclusive*: nested phases (the listener loop runs inside
a flush, a flush inside an action's materialise) subtract their inclusive
time from the enclosing frame, so phase totals are disjoint and sum to
(at most) the measured wall.  The residual -- span bookkeeping, table
builds, result assembly -- is reported as ``other``.

Example -- profile a tiny batched run::

    >>> from repro.cluster import Deployment, DeploymentConfig, hen_testbed
    >>> dep = Deployment(DeploymentConfig(models=hen_testbed(8), p=4,
    ...                                   seed=1, charge_scheduling=False))
    >>> res = dep.run_queries_fast([i * 0.01 for i in range(64)], 4,
    ...                            profile=True)
    >>> sorted(res.profile.summary()["phases"])
    ['arrival_draw', 'flush', 'materialise', 'sweep_commit']
    >>> res.profile.summary()["n_chunks"]
    1
    >>> resolve_profile(False) is None
    True
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

__all__ = ["PHASES", "PhaseProfiler", "resolve_profile"]

#: Environment variable that enables profiling when the ``profile=`` kwarg
#: is left at its default (None).
PROFILE_ENV = "REPRO_PROFILE"

#: The engine phases, in hot-path order.  ``sweep_commit`` is the
#: kernel's ``commit_batch`` call, the only place the batched engine
#: commits a query; ``reference`` is the per-query reference path.
PHASES = (
    "arrival_draw",
    "sweep_commit",
    "flush",
    "listeners",
    "actions",
    "delegate",
    "materialise",
    "reference",
)

_TRUTHY = frozenset({"1", "true", "yes", "on"})


class PhaseProfiler:
    """Accumulates exclusive per-phase wall time in nanoseconds.

    ``begin``/``end`` bracket a phase with proper nesting (a child's
    inclusive time is subtracted from its parent's exclusive total);
    ``add_ns``/``add_s`` fold an externally measured duration into a
    phase (and out of the currently open frame, if any).  Per-chunk
    samples land in append-only columns for the trace export.
    """

    __slots__ = (
        "epoch_ns",
        "totals_ns",
        "counts",
        "wall_ns",
        "_stack",
        "_chunk_start",
        "_chunk_nq",
        "_chunk_t0",
        "_chunk_draw",
        "_chunk_kernel",
        "_chunk_flush",
    )

    def __init__(self) -> None:
        from ..telemetry.columns import GrowArray

        self.epoch_ns = time.perf_counter_ns()
        self.totals_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.wall_ns = 0
        #: open frames: [phase, t0_ns, child_ns]
        self._stack: list[list] = []
        self._chunk_start = GrowArray(dtype="int64")
        self._chunk_nq = GrowArray(dtype="int64")
        self._chunk_t0 = GrowArray(dtype="int64")
        self._chunk_draw = GrowArray(dtype="int64")
        self._chunk_kernel = GrowArray(dtype="int64")
        self._chunk_flush = GrowArray(dtype="int64")

    # -- accumulation ------------------------------------------------------
    def begin(self, phase: str) -> None:
        self._stack.append([phase, time.perf_counter_ns(), 0])

    def end(self) -> int:
        """Close the innermost frame; returns its *inclusive* duration (ns)."""
        phase, t0, child = self._stack.pop()
        dur = time.perf_counter_ns() - t0
        self.totals_ns[phase] = self.totals_ns.get(phase, 0) + dur - child
        self.counts[phase] = self.counts.get(phase, 0) + 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def add_ns(self, phase: str, ns: int) -> None:
        """Fold an externally measured duration into *phase*.

        Also charged to the open frame's children, so a measurement taken
        inside a ``begin``/``end`` bracket is not double counted.
        """
        self.totals_ns[phase] = self.totals_ns.get(phase, 0) + ns
        self.counts[phase] = self.counts.get(phase, 0) + 1
        if self._stack:
            self._stack[-1][2] += ns

    def add_s(self, phase: str, seconds: float) -> None:
        self.add_ns(phase, int(seconds * 1e9))

    def add_wall(self, seconds: float) -> None:
        """Account one engine run's end-to-end wall clock."""
        self.wall_ns += int(seconds * 1e9)

    def record_chunk(
        self,
        start: int,
        nq: int,
        t0_ns: int,
        draw_ns: int,
        kernel_ns: int,
        flush_ns: int,
    ) -> None:
        """One bulk chunk's sample: query range + phase durations."""
        self._chunk_start.append(start)
        self._chunk_nq.append(nq)
        self._chunk_t0.append(t0_ns - self.epoch_ns)
        self._chunk_draw.append(draw_ns)
        self._chunk_kernel.append(kernel_ns)
        self._chunk_flush.append(flush_ns)

    # -- reporting ---------------------------------------------------------
    @property
    def n_chunks(self) -> int:
        return self._chunk_start.n

    def total_ns(self) -> int:
        return sum(self.totals_ns.values())

    def coverage(self) -> float:
        """Fraction of the measured wall the phase totals explain."""
        if self.wall_ns <= 0:
            return float("nan")
        return self.total_ns() / self.wall_ns

    def summary(self) -> dict:
        """JSON-ready totals: per-phase ns + call counts, wall, coverage."""
        return {
            "wall_ns": self.wall_ns,
            "phases": {
                name: {"ns": ns, "calls": self.counts.get(name, 0)}
                for name, ns in sorted(self.totals_ns.items())
            },
            "coverage": self.coverage(),
            "n_chunks": self.n_chunks,
        }

    def phase_us_per_query(self, n_queries: int) -> dict[str, float]:
        """Per-phase microseconds per query (``repro profile --json``)."""
        n = max(int(n_queries), 1)
        return {
            name: round(1e-3 * ns / n, 4)
            for name, ns in sorted(self.totals_ns.items())
        }

    def columns(self) -> dict:
        """Per-chunk samples as archive-ready numpy columns."""
        return {
            "prof_chunk_start": self._chunk_start.copy(),
            "prof_chunk_nq": self._chunk_nq.copy(),
            "prof_chunk_t0_ns": self._chunk_t0.copy(),
            "prof_chunk_draw_ns": self._chunk_draw.copy(),
            "prof_chunk_kernel_ns": self._chunk_kernel.copy(),
            "prof_chunk_flush_ns": self._chunk_flush.copy(),
        }

    def render_table(self, n_queries: int | None = None) -> str:
        """Human-readable phase breakdown (the ``repro profile`` table)."""
        wall = self.wall_ns
        lines = [
            f"{'phase':14s} {'calls':>8s} {'total ms':>10s} "
            f"{'us/query':>10s} {'share':>7s}"
        ]
        order = [p for p in PHASES if p in self.totals_ns]
        order += [p for p in sorted(self.totals_ns) if p not in order]
        for name in order:
            ns = self.totals_ns[name]
            per_q = (
                f"{1e-3 * ns / n_queries:>10.2f}"
                if n_queries
                else f"{'-':>10s}"
            )
            share = f"{ns / wall:>6.1%}" if wall > 0 else f"{'-':>7s}"
            lines.append(
                f"{name:14s} {self.counts.get(name, 0):>8d} "
                f"{ns / 1e6:>10.2f} {per_q} {share}"
            )
        if wall > 0:
            other = wall - self.total_ns()
            per_q = (
                f"{1e-3 * other / n_queries:>10.2f}"
                if n_queries
                else f"{'-':>10s}"
            )
            lines.append(
                f"{'other':14s} {'-':>8s} {other / 1e6:>10.2f} "
                f"{per_q} {other / wall:>6.1%}"
            )
            lines.append(
                f"{'wall':14s} {'-':>8s} {wall / 1e6:>10.2f} "
                f"{'':>10s} {self.coverage():>6.1%} covered"
            )
        return "\n".join(lines)

    def chrome_trace(self) -> dict:
        """The chunk spans as a chrome://tracing / Perfetto JSON object.

        One "X" (complete) event per phase per bulk chunk, laid out
        back-to-back from each chunk's real start timestamp; load the
        file at ``chrome://tracing`` or https://ui.perfetto.dev.
        """
        events = []
        starts = self._chunk_start.view().tolist()
        nqs = self._chunk_nq.view().tolist()
        t0s = self._chunk_t0.view().tolist()
        draws = self._chunk_draw.view().tolist()
        kernels = self._chunk_kernel.view().tolist()
        flushes = self._chunk_flush.view().tolist()
        for i in range(len(starts)):
            ts = t0s[i] / 1e3  # chrome trace timestamps are microseconds
            args = {"chunk": i, "start": starts[i], "nq": nqs[i]}
            for name, dur_ns in (
                ("arrival_draw", draws[i]),
                ("sweep_commit", kernels[i]),
                ("flush", flushes[i]),
            ):
                events.append(
                    {
                        "name": name,
                        "cat": "engine",
                        "ph": "X",
                        "ts": round(ts, 3),
                        "dur": round(dur_ns / 1e3, 3),
                        "pid": 1,
                        "tid": 1,
                        "args": args,
                    }
                )
                ts += dur_ns / 1e3
        for name, ns in sorted(self.totals_ns.items()):
            events.append(
                {
                    "name": f"total:{name}",
                    "cat": "totals",
                    "ph": "X",
                    "ts": 0.0,
                    "dur": round(ns / 1e3, 3),
                    "pid": 1,
                    "tid": 2,
                    "args": {"calls": self.counts.get(name, 0)},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
            fh.write("\n")


def resolve_profile(profile) -> Optional[PhaseProfiler]:
    """The engine-facing knob: kwarg beats environment beats off.

    * ``None`` (the default) -- consult ``REPRO_PROFILE`` (truthy values:
      1/true/yes/on, case-insensitive);
    * an existing :class:`PhaseProfiler` -- use it (accumulates across
      runs);
    * any other truthy value -- a fresh profiler; falsy -- off.
    """
    if profile is None:
        env = os.environ.get(PROFILE_ENV, "")
        if env.strip().lower() in _TRUTHY:
            return PhaseProfiler()
        return None
    if isinstance(profile, PhaseProfiler):
        return profile
    return PhaseProfiler() if profile else None
