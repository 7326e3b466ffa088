"""The trace vocabulary: normalised stimulus streams and the ``TraceSpec``.

A :class:`Trace` is what every dataloader produces: query arrival times
plus an optional object-update stream, normalised into the scenario
engine's existing ``Workload``/``Update`` vocabulary (arrivals drive the
query stream exactly like a :class:`~repro.scenarios.spec.WorkloadSpec`;
updates join the run's exact-time update stream exactly like an
:class:`~repro.scenarios.spec.UpdateSpec` stream).  A :class:`TraceSpec`
is the declarative handle -- a file path plus a loader name -- accepted
anywhere a ``WorkloadSpec`` is (``Scenario.workload``, the matrix,
``repro record``), so every external request log becomes a workload with
no new code.

Examples::

    >>> t = Trace(arrivals=(0.0, 0.5, 2.0), updates=((1.0, 0.25),))
    >>> t.n_queries, t.n_updates, t.horizon
    (3, 1, 2.0)
    >>> Trace(arrivals=(2.0, 1.0))
    Traceback (most recent call last):
        ...
    ValueError: trace arrivals must be sorted ascending
    >>> spec = TraceSpec(source="requests.csv", loader="csv:time_col=ts")
    >>> spec.kind
    'trace'
    >>> TraceSpec(source="")
    Traceback (most recent call last):
        ...
    ValueError: TraceSpec needs a source path
"""

from __future__ import annotations

from dataclasses import dataclass, field

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

from ..sim.workload import update_rows

__all__ = ["Trace", "TraceFormatError", "TraceSpec"]


class TraceFormatError(ValueError):
    """A trace file could not be parsed into the stream vocabulary.

    The message always names the offending file (and line, where one
    exists) plus the loader knob that would fix the problem -- malformed
    external data must fail loudly and actionably, never half-load.
    """


def update_problem(rows: "np.ndarray") -> tuple[str, str] | None:
    """The first bad row of an ``(n, 2)`` update array, as ``(field,
    message)`` with field ``"time"`` or ``"pos"``; None when every time is
    finite and non-negative and every position lies in ``[0, 1)``."""
    times, pos = rows[:, 0], rows[:, 1]
    bad = np.flatnonzero(~(np.isfinite(times) & (times >= 0.0)))
    if bad.size:
        i = int(bad[0])
        return "time", (
            f"update {i} has time {float(times[i])!r}; update times must be "
            "finite and non-negative"
        )
    bad = np.flatnonzero(~((pos >= 0.0) & (pos < 1.0)))
    if bad.size:
        i = int(bad[0])
        return "pos", f"update {i} has ring position {float(pos[i])!r} outside [0, 1)"
    return None


@dataclass(frozen=True)
class Trace:
    """One normalised stimulus stream.

    ``arrivals`` are the query arrival times (seconds, finite, sorted
    ascending); ``updates`` are ``(time, ring position)`` pairs exactly as
    :meth:`~repro.cluster.deployment.Deployment.apply_update` consumes
    them, with finite non-negative times in order.  ``meta`` carries
    loader provenance (source path, loader name, anything the file's own
    metadata offered).
    """

    arrivals: "np.ndarray"
    updates: tuple = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        arr = np.asarray(self.arrivals, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("trace arrivals must be one-dimensional")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"trace arrival {i} is {float(arr[i])!r}; arrival times must "
                "be finite"
            )
        if arr.size and float(arr[0]) < 0.0:
            raise ValueError("trace arrivals must be non-negative")
        if arr.size > 1 and bool((np.diff(arr) < 0.0).any()):
            raise ValueError("trace arrivals must be sorted ascending")
        rows = update_rows(self.updates)
        problem = update_problem(rows)
        if problem is not None:
            field_, message = problem
            hint = "; loaders should wrap positions modulo 1.0" if field_ == "pos" else ""
            raise ValueError(f"trace {message}{hint}")
        if bool((np.diff(rows[:, 0]) < 0.0).any()):
            raise ValueError("trace updates must be sorted by time")
        object.__setattr__(self, "arrivals", arr)
        object.__setattr__(self, "updates", tuple(map(tuple, rows.tolist())))

    @property
    def n_queries(self) -> int:
        return int(self.arrivals.size)

    @property
    def n_updates(self) -> int:
        return len(self.updates)

    @property
    def horizon(self) -> float:
        """Last stimulus timestamp (0.0 for an empty trace)."""
        last_q = float(self.arrivals[-1]) if self.arrivals.size else 0.0
        last_u = self.updates[-1][0] if self.updates else 0.0
        return max(last_q, last_u)

    def normalised(
        self,
        time_scale: float = 1.0,
        rebase: bool = True,
        limit: int | None = None,
    ) -> "Trace":
        """A copy with uniform time normalisation applied.

        *rebase* shifts the earliest stimulus to t=0 (real logs start at
        epoch timestamps); *time_scale* then multiplies every time (e.g.
        ``0.001`` replays a millisecond-stamped log in seconds, ``0.1``
        replays a day of traffic in a tenth of the time); *limit* keeps
        only the first *limit* queries (updates past the new horizon are
        dropped with them).
        """
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        arr = self.arrivals
        ups = self.updates
        if rebase and (arr.size or ups):
            t0 = min(
                float(arr[0]) if arr.size else float("inf"),
                ups[0][0] if ups else float("inf"),
            )
            if t0 > 0.0:
                arr = arr - t0
                ups = tuple((t - t0, p) for t, p in ups)
        if time_scale != 1.0:
            arr = arr * time_scale
            ups = tuple((t * time_scale, p) for t, p in ups)
        if limit is not None and arr.size > limit:
            arr = arr[:limit]
            horizon = float(arr[-1]) if arr.size else 0.0
            ups = tuple((t, p) for t, p in ups if t <= horizon)
        return Trace(arrivals=arr, updates=ups, meta=dict(self.meta))


@dataclass(frozen=True)
class TraceSpec:
    """A declarative real-trace workload: a source file plus a loader.

    Accepted anywhere a :class:`~repro.scenarios.spec.WorkloadSpec` is:
    as ``Scenario.workload``, through ``repro matrix --trace`` and
    ``repro record --trace``.  *loader* is a registry spec
    (``name[:key=value,...]``, see :mod:`repro.traces.registry`); ``None``
    infers the loader from the file itself.  The normalisation knobs
    (*time_scale*, *rebase*, *limit*) are loader-independent and applied
    after loading -- loader-specific parsing options ride in the loader
    spec's parameter suffix instead.
    """

    source: str
    loader: str | None = None
    time_scale: float = 1.0
    rebase: bool = True
    limit: int | None = None

    def __post_init__(self) -> None:
        if not self.source:
            raise ValueError("TraceSpec needs a source path")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be >= 1")
        if self.loader is not None:
            from .registry import is_known_loader

            if not is_known_loader(self.loader):
                raise ValueError(
                    f"unknown trace loader {self.loader!r}; see "
                    "repro.traces.loader_names()"
                )

    @property
    def kind(self) -> str:
        """Workload-kind tag (display parity with ``WorkloadSpec.kind``)."""
        return "trace"

    @property
    def horizon(self) -> float:
        """Last stimulus timestamp.  Loads the source file; callers that
        also need the arrivals should call :meth:`load` once instead."""
        return self.load().horizon

    def load(self) -> Trace:
        """Load and normalise the trace through the dataloader registry."""
        from .registry import load_trace

        return load_trace(
            self.source,
            loader=self.loader,
            time_scale=self.time_scale,
            rebase=self.rebase,
            limit=self.limit,
        )
