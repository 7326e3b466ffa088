"""The built-in admission policies: none, aimd, delay_gated.

* ``none`` is today's accept-all.  It is *passthrough*: the engine never
  even sees it (:func:`~repro.admission.resolve_admission` maps it to
  ``None``), so the default stays bit-identical to every pre-admission
  run by construction.
* ``aimd`` paces admissions with a token bucket whose rate follows
  additive-increase / multiplicative-decrease (Garg & Young's online
  end-to-end congestion control, applied to the serving path): each tick
  the rate grows by ``increase`` queries/s while the windowed p99 sits
  within the SLO and the backlog stayed under the queue cap, and halves
  (``decrease``) on congestion.  The rate is clamped to
  ``[floor, capacity]`` at every adjustment.
* ``delay_gated`` sheds whenever the windowed p99 delay exceeds
  ``slo_multiple * slo`` -- a purely delay-triggered gate with no paced
  rate, the "robust but blunt" corner of the Contracts trade-off.

All three inherit the queue-cap backstop from
:class:`~repro.admission.base.AdmissionPolicy` (``none`` overrides it
away: accept-all means accept-all).

Example -- AIMD clamps its rate to [floor, capacity]::

    >>> pol = AIMDAdmission(slo=0.5, floor=5.0, capacity=50.0, rate=49.0,
    ...                     increase=4.0)
    >>> pol.tick(1.0)   # empty window: not congested -> additive increase
    >>> pol.current_rate()
    50.0
    >>> pol.observe(1.5, delay=2.0)  # one slow query: p99 > slo
    >>> for t in range(2, 9): pol.tick(float(t))
    >>> pol.current_rate()  # multiplicative decrease, floored
    5.0
"""

from __future__ import annotations

import math
from typing import Optional

from .base import AdmissionPolicy

__all__ = ["NoneAdmission", "AIMDAdmission", "DelayGatedAdmission"]


class NoneAdmission(AdmissionPolicy):
    """Accept-all: the bit-identity default (and a no-op if instantiated)."""

    name = "none"
    description = "accept every query (the pre-admission default)"
    passthrough = True

    def admit(self, query_index: int, now: float, backlog: float) -> Optional[str]:
        if backlog > self._backlog_hwm:
            self._backlog_hwm = backlog
        self.accepted += 1
        if backlog > self.max_admitted_backlog:
            self.max_admitted_backlog = backlog
        return None


class AIMDAdmission(AdmissionPolicy):
    """Token-bucket pacing with AIMD rate adaptation at ticks.

    Tokens accrue continuously at the current rate (up to *burst*); each
    admitted query spends one.  A query with no token available is shed
    with reason ``rate``.  At every tick the rate is adapted: congestion
    (windowed p99 above the SLO, or the backlog high-water mark at/over
    the queue cap) multiplies it by *decrease*, otherwise *increase*
    queries/s are added; the result is clamped to ``[floor, capacity]``.
    """

    name = "aimd"
    description = "AIMD token-rate pacing off delay/backlog signals"

    def __init__(
        self,
        slo: float = 1.0,
        window: float = 10.0,
        cap_multiple: float = 4.0,
        floor: float = 1.0,
        capacity: Optional[float] = None,
        rate: Optional[float] = None,
        increase: float = 2.0,
        decrease: float = 0.5,
        burst: float = 8.0,
    ) -> None:
        super().__init__(slo=slo, window=window, cap_multiple=cap_multiple)
        if floor <= 0:
            raise ValueError(f"floor must be positive, got {floor}")
        if capacity is not None and capacity < floor:
            raise ValueError(f"capacity {capacity} below floor {floor}")
        if not 0.0 < decrease < 1.0:
            raise ValueError(f"decrease must be in (0, 1), got {decrease}")
        if increase <= 0:
            raise ValueError(f"increase must be positive, got {increase}")
        if burst < 1.0:
            raise ValueError(f"burst must be >= 1 token, got {burst}")
        self.floor = float(floor)
        self.capacity = math.inf if capacity is None else float(capacity)
        if rate is None:
            rate = self.capacity if math.isfinite(self.capacity) else self.floor
        if not self.floor <= rate <= self.capacity:
            raise ValueError(
                f"initial rate {rate} outside [{self.floor}, {self.capacity}]"
            )
        self._rate = float(rate)
        self.increase = float(increase)
        self.decrease = float(decrease)
        self.burst = float(burst)
        self._tokens = self.burst
        self._accrued_at: Optional[float] = None

    def _accrue(self, now: float) -> None:
        if self._accrued_at is None:
            self._accrued_at = now
            return
        elapsed = now - self._accrued_at
        if elapsed > 0.0:
            self._tokens = min(self.burst, self._tokens + elapsed * self._rate)
            self._accrued_at = now

    def _decide(self, now: float, backlog: float) -> Optional[str]:
        self._accrue(now)
        return None if self._tokens >= 1.0 else "rate"

    def _consume(self, now: float) -> None:
        self._accrue(now)
        self._tokens -= 1.0

    def _adapt(self, now: float, p99: float) -> None:
        congested = (not math.isnan(p99) and p99 > self.slo) or (
            self._backlog_hwm >= self.queue_cap
        )
        if congested:
            self._rate = max(self.floor, self._rate * self.decrease)
        else:
            self._rate = min(self.capacity, self._rate + self.increase)

    def current_rate(self) -> float:
        return self._rate

    def signal(self, now: float) -> float:
        self._accrue(now)
        return self._tokens

    # the rate only moves at ticks, so between two ticks a decision needs
    # just the queue cap and the bucket: the fused seam can make it
    _BULK_HOOKS = AdmissionPolicy._BULK_HOOKS + ("_accrue",)

    def bulk_capable(self) -> bool:
        return self._hooks_of(AIMDAdmission)

    def export_bulk(self, gate) -> None:
        super().export_bulk(gate)
        gate.bucket = True
        gate.rate = self._rate
        gate.burst = self.burst
        gate.tokens = self._tokens
        gate.accrued_at = math.nan if self._accrued_at is None else self._accrued_at

    def import_bulk(self, gate) -> None:
        super().import_bulk(gate)
        self._tokens = gate.tokens
        if not math.isnan(gate.accrued_at):
            self._accrued_at = gate.accrued_at


class DelayGatedAdmission(AdmissionPolicy):
    """Shed while the windowed p99 delay exceeds ``slo_multiple * slo``."""

    name = "delay_gated"
    description = "shed when windowed p99 exceeds an SLO multiple"

    def __init__(
        self,
        slo: float = 1.0,
        window: float = 10.0,
        cap_multiple: float = 4.0,
        slo_multiple: float = 1.0,
    ) -> None:
        super().__init__(slo=slo, window=window, cap_multiple=cap_multiple)
        if slo_multiple <= 0:
            raise ValueError(f"slo_multiple must be positive, got {slo_multiple}")
        self.slo_multiple = float(slo_multiple)

    def _decide(self, now: float, backlog: float) -> Optional[str]:
        p99 = self.window.percentile(99, now)
        if not math.isnan(p99) and p99 > self.slo_multiple * self.slo:
            return "p99"
        return None

    def signal(self, now: float) -> float:
        return self.window.percentile(99, now)
