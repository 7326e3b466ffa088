"""The admission-policy contract and the shared queue-cap machinery.

An :class:`AdmissionPolicy` sits at the front of the engine's arrival
loop: for every query it sees the arrival time and the busiest-server
backlog (seconds of queued work, from the engine's queue mirrors) and
either admits the query or sheds it with a reason.  Completed-query
delays flow back in through :meth:`AdmissionPolicy.observe` -- the same
arrival-ordered sliding window the control plane's
:class:`~repro.control.metrics.MetricsCollector` keeps -- and the
exact-time action queue drives :meth:`AdmissionPolicy.tick` at scheduled
query indices, where adaptive policies (AIMD) adjust their rate.

**Queue-cap sizing.**  Every non-passthrough policy bounds the backlog a
query may be admitted into: ``queue_cap = cap_multiple * slo`` seconds.
This is the buffer-sizing argument (Spang et al.) translated to the
serving path: backlog measured in *seconds of work* is the bandwidth-delay
product divided by the bandwidth, so capping queued-work-seconds at a
small multiple of the target delay bounds worst-case queueing delay at
that multiple of the SLO regardless of service rate.  The equivalent cap
in *queries* -- observed service rate x cap seconds -- is recorded at
every tick (``cap_queries``) so the classic BDP form stays inspectable.

Example::

    >>> from repro.admission import get_policy
    >>> pol = get_policy("delay_gated:slo=0.5,cap_multiple=2")
    >>> pol.queue_cap
    1.0
    >>> pol.admit(0, now=0.0, backlog=0.2)  # under cap, window empty
    >>> pol.admit(1, now=0.1, backlog=5.0)  # over the 1.0s cap
    'queue-cap'
    >>> (pol.accepted, pol.shed)
    (1, 1)
"""

from __future__ import annotations

import math
from typing import Optional

from ..control.metrics import SlidingWindow
from ..obs.events import ShedLog

__all__ = ["AdmissionPolicy"]


class AdmissionPolicy:
    """Base class: queue-cap pre-check, telemetry, and the tick loop.

    Subclasses implement :meth:`_decide` (shed reason or ``None`` per
    query) and optionally :meth:`_adapt` (rate adjustment at ticks) and
    :meth:`_consume` (charge an admitted query, e.g. a token).
    """

    #: registry name, set by subclasses.
    name = "base"
    description = ""
    #: accept-all marker: :func:`~repro.admission.resolve_admission` maps
    #: passthrough policies to ``None`` so the engine runs the untouched
    #: (bit-identical) no-admission code path.
    passthrough = False

    def __init__(
        self,
        slo: float = 1.0,
        window: float = 10.0,
        cap_multiple: float = 4.0,
    ) -> None:
        if slo <= 0:
            raise ValueError(f"slo must be positive, got {slo}")
        if cap_multiple <= 0:
            raise ValueError(f"cap_multiple must be positive, got {cap_multiple}")
        self.slo = float(slo)
        self.cap_multiple = float(cap_multiple)
        #: admission ceiling in seconds of busiest-server backlog.
        self.queue_cap = self.cap_multiple * self.slo
        self.window = SlidingWindow(float(window))
        self.log = ShedLog()
        self.accepted = 0
        self.shed = 0
        #: largest backlog any *admitted* query entered (cap invariant).
        self.max_admitted_backlog = 0.0
        self._backlog_hwm = 0.0

    # -- the per-query decision -------------------------------------------
    def admit(self, query_index: int, now: float, backlog: float) -> Optional[str]:
        """Admit (``None``) or shed (reason string) one arriving query.

        *backlog* is the busiest-server queued work in seconds; the
        queue-cap check runs first, then the policy's own gate.
        """
        if backlog > self._backlog_hwm:
            self._backlog_hwm = backlog
        if backlog >= self.queue_cap:
            reason: Optional[str] = "queue-cap"
        else:
            reason = self._decide(now, backlog)
        if reason is None:
            self.accepted += 1
            if backlog > self.max_admitted_backlog:
                self.max_admitted_backlog = backlog
            self._consume(now)
            return None
        self.shed += 1
        self.log.record_shed(now, query_index, reason, backlog, self.signal(now))
        return reason

    def observe(self, now: float, delay: float) -> None:
        """Feed one completed query's delay back (arrival-ordered)."""
        self.window.add(now, delay)

    # -- the bulk seam -----------------------------------------------------
    #: hooks whose base-class versions :meth:`bulk_capable` relies on.
    _BULK_HOOKS = ("admit", "observe", "_decide", "_consume", "signal")

    def bulk_capable(self) -> bool:
        """Can the engine's fused seam make this policy's decisions?

        True when each decision depends only on the arrival time, the
        busiest-server backlog, and state the policy exports through
        :meth:`export_bulk` -- no delay feedback between two ticks.  The
        base class qualifies (queue cap only) unless a subclass overrides
        a per-query hook; subclasses with exportable state override this.
        """
        return self._hooks_of(AdmissionPolicy)

    def _hooks_of(self, owner: type) -> bool:
        cls = type(self)
        return all(
            getattr(cls, hook, None) is getattr(owner, hook, None)
            for hook in self._BULK_HOOKS
        )

    def export_bulk(self, gate) -> None:
        """Write this policy's state into a kernel ``AdmissionGate``."""
        gate.queue_cap = self.queue_cap
        gate.bucket = False
        gate.backlog_hwm = self._backlog_hwm
        gate.max_admitted_backlog = self.max_admitted_backlog

    def import_bulk(self, gate) -> None:
        """Take back a gated span's outcome: counters, marks, shed rows."""
        n = gate.n_shed
        self.accepted += gate.n_admitted
        self.shed += n
        self._backlog_hwm = gate.backlog_hwm
        self.max_admitted_backlog = gate.max_admitted_backlog
        if n:
            self.log.record_sheds(
                gate.shed_time[:n],
                gate.shed_idx[:n],
                gate.shed_reason[:n],
                gate.shed_backlog[:n],
                gate.shed_signal[:n],
                gate.REASONS,
            )

    def observe_chunk(self, times, delays) -> None:
        """Feed a chunk of admitted delays back at once (arrival order)."""
        self.window.extend(times, delays)

    def tick(self, now: float, query_index: int = -1) -> None:
        """One exact-time controller tick: adapt, then log the state."""
        p99 = self.window.percentile(99, now)
        self._adapt(now, p99)
        self.log.record_tick(
            now,
            query_index,
            self.current_rate(),
            p99,
            self._backlog_hwm,
            self.accepted,
            self.shed,
            self.window.rate(now) * self.queue_cap,
        )
        self._backlog_hwm = 0.0

    # -- subclass hooks ----------------------------------------------------
    def _decide(self, now: float, backlog: float) -> Optional[str]:
        """Policy gate for a query already under the queue cap."""
        return None

    def _adapt(self, now: float, p99: float) -> None:
        """Adjust internal rate/state at a tick (default: nothing)."""

    def _consume(self, now: float) -> None:
        """Charge one admitted query (default: nothing)."""

    def current_rate(self) -> float:
        """The policy's token rate, NaN for rateless policies."""
        return math.nan

    def signal(self, now: float) -> float:
        """The gating signal recorded with shed events, NaN by default."""
        return math.nan

    def meta(self) -> dict:
        """Archive meta for this policy's :class:`ShedLog`."""
        return self.log.meta(
            policy=self.name,
            window=self.window.duration,
            slo=self.slo,
            queue_cap=self.queue_cap,
        )
