"""A small discrete-event simulation engine.

The analytical evaluation in the paper (Chapter 6) is driven by a simple
numerical simulation: queries arrive at discrete times following a Poisson
process, a front-end scheduler assigns sub-queries to servers, and servers
execute tasks serially.  This engine provides the clock and event queue that
simulation is built on.

Events are ``(time, seq, callback)`` triples ordered by time with a sequence
number as tiebreaker so simultaneous events run in scheduling order (which
keeps runs deterministic).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

__all__ = ["Event", "Simulation"]


class Event:
    """A scheduled callback.  Supports cancellation."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class Simulation:
    """Event loop with a virtual clock starting at 0.0 seconds."""

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._seq = itertools.count()
        self.now: float = 0.0
        self.events_run: int = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run *callback* ``delay`` seconds from the current time."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        event = Event(self.now + delay, next(self._seq), callback)
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Run *callback* at absolute simulation time *time*."""
        return self.schedule(max(0.0, time - self.now), callback)

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is exhausted."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.now = event.time
            self.events_run += 1
            event.callback()
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the event queue, optionally stopping at time *until*.

        When *until* is given the clock is advanced to exactly *until* even
        if the last event fires earlier.
        """
        count = 0
        while self._queue:
            if max_events is not None and count >= max_events:
                return
            next_time = self.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            self.step()
            count += 1
        if until is not None and self.now < until:
            self.now = until
