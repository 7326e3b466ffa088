"""Workload generators: query arrival processes and load traces.

Chapter 6 drives the simulator with Poisson arrivals at a configurable mean;
Chapter 7's dynamic-p experiment (Fig 7.5) uses a diurnal load trace with a
2x-4x peak-to-trough ratio (Section 4.9.1 cites this range for real online
services).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

__all__ = [
    "PoissonArrivals",
    "UniformArrivals",
    "DiurnalTrace",
    "StepTrace",
    "arrivals_from_rate_fn",
    "batched_poisson_times",
    "batched_uniform_times",
    "batched_arrivals_from_rate_fn",
    "update_rows",
    "zipf_update_times",
]


@dataclass
class PoissonArrivals:
    """Open-loop Poisson query arrivals with constant *rate* (queries/sec)."""

    rate: float
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        self._rng = random.Random(self.seed)

    def times(self, count: int, start: float = 0.0) -> list[float]:
        """The first *count* arrival times after *start*."""
        out = []
        t = start
        for _ in range(count):
            t += self._rng.expovariate(self.rate)
            out.append(t)
        return out

    def __iter__(self) -> Iterator[float]:
        t = 0.0
        while True:
            t += self._rng.expovariate(self.rate)
            yield t


@dataclass
class UniformArrivals:
    """Deterministic evenly spaced arrivals (closed-form sanity baseline)."""

    rate: float

    def times(self, count: int, start: float = 0.0) -> list[float]:
        gap = 1.0 / self.rate
        return [start + (i + 1) * gap for i in range(count)]


@dataclass
class DiurnalTrace:
    """A sinusoidal day/night load pattern.

    ``rate(t) = base * (1 + amplitude * sin(2*pi*t/period))`` with amplitude
    chosen so the peak:trough ratio matches the requested value (default 3x,
    inside the paper's 2x-4x range).
    """

    base_rate: float
    period: float = 86400.0
    peak_to_trough: float = 3.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.peak_to_trough < 1.0:
            raise ValueError("peak_to_trough must be >= 1")
        # base*(1+a) / base*(1-a) = ratio  =>  a = (ratio-1)/(ratio+1)
        self.amplitude = (self.peak_to_trough - 1.0) / (self.peak_to_trough + 1.0)

    def rate(self, t: float) -> float:
        return self.base_rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period + self.phase)
        )


@dataclass
class StepTrace:
    """Piecewise-constant load: list of (start_time, rate) steps."""

    steps: Sequence[tuple[float, float]]

    def rate(self, t: float) -> float:
        current = 0.0
        for start, rate in self.steps:
            if t >= start:
                current = rate
            else:
                break
        return current


def arrivals_from_rate_fn(
    rate_fn: Callable[[float], float],
    horizon: float,
    max_rate: float,
    seed: int | None = None,
) -> list[float]:
    """Sample a non-homogeneous Poisson process by thinning.

    *max_rate* must upper-bound ``rate_fn`` over ``[0, horizon]``.
    """
    if max_rate <= 0:
        raise ValueError("max_rate must be positive")
    rng = random.Random(seed)
    out: list[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(max_rate)
        if t > horizon:
            break
        if rng.random() <= rate_fn(t) / max_rate:
            out.append(t)
    return out


# -- batched (vectorised) generation -----------------------------------------
#
# The scenario matrix runs millions of arrivals; drawing them one
# ``expovariate`` at a time is itself a hot loop.  These generators produce
# whole traces with a few numpy operations.  They use numpy's Generator
# streams, so their sequences differ from the random.Random-based classes
# above for the same seed -- callers pick one generator per experiment and
# feed the *same* trace to whichever execution path they compare.


def batched_poisson_times(
    rate: float, count: int, seed: int | None = None, start: float = 0.0
):
    """The first *count* arrivals of a constant-rate Poisson process."""
    import numpy as np

    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=count)
    return start + np.cumsum(gaps)


def batched_uniform_times(rate: float, duration: float):
    """Deterministic evenly spaced arrivals over ``(0, duration]``.

    The vectorised sibling of :class:`UniformArrivals` (same times:
    ``gap, 2*gap, ...``), used by the scenario runner's ``uniform`` kind.
    """
    import numpy as np

    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    n = max(1, int(round(rate * duration)))
    gap = 1.0 / rate
    return gap * np.arange(1, n + 1)


def zipf_update_times(
    rate: float,
    horizon: float,
    hotspots: int = 16,
    zipf_s: float = 1.1,
    jitter: float = 0.01,
    seed: int | None = None,
):
    """A Zipf-skewed object-update stream: an ``(n, 2)`` float64 array of
    ``(time, ring position)`` rows, in time order.

    Poisson arrivals at *rate*; each update lands near one of *hotspots*
    ring positions chosen with Zipf(*zipf_s*) rank probabilities and
    uniform ``+-jitter`` spread, modelling hot-object write skew
    (the scenario vocabulary's :class:`~repro.scenarios.spec.UpdateSpec`).
    """
    import numpy as np

    if rate <= 0:
        raise ValueError("update rate must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(
        1.0 / rate, size=max(1, int(horizon * rate * 1.2) + 8)
    )
    times = np.cumsum(gaps)
    times = times[times <= horizon]
    ranks = np.arange(1, hotspots + 1, dtype=float)
    weights = ranks ** (-zipf_s)
    weights /= weights.sum()
    centers = rng.random(hotspots)
    idx = rng.choice(hotspots, size=times.size, p=weights)
    pos = (centers[idx] + rng.uniform(-jitter, jitter, times.size)) % 1.0
    return np.column_stack((times, pos))


def update_rows(updates):
    """*updates* as an ``(n, 2)`` float64 array of ``(time, position)``
    rows, the shape :func:`zipf_update_times` draws; anything else raises
    :class:`ValueError`."""
    import numpy as np

    rows = np.asarray(updates, dtype=np.float64)
    if rows.size == 0:
        return rows.reshape(0, 2)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError(
            f"updates must be an (n, 2) array of (time, position) rows, "
            f"got shape {rows.shape}"
        )
    return rows


def batched_arrivals_from_rate_fn(
    rate_fn: Callable[[float], float],
    horizon: float,
    max_rate: float,
    seed: int | None = None,
):
    """Vectorised thinning sampler for a non-homogeneous Poisson process.

    *max_rate* must upper-bound ``rate_fn`` over ``[0, horizon]``; the
    candidate stream is generated in bulk and thinned with one vectorised
    ``rate_fn`` evaluation (rate functions built from numpy ufuncs are
    applied array-at-a-time; plain Python rate functions still work).
    """
    import numpy as np

    if max_rate <= 0:
        raise ValueError("max_rate must be positive")
    if horizon <= 0:
        return np.empty(0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    times = []
    t = 0.0
    # ~horizon*max_rate candidates expected; draw in chunks until past the
    # horizon so the tail is never truncated.
    chunk = max(1024, int(horizon * max_rate * 1.1))
    while t <= horizon:
        gaps = rng.exponential(1.0 / max_rate, size=chunk)
        cand = t + np.cumsum(gaps)
        times.append(cand)
        t = float(cand[-1])
    cand = np.concatenate(times)
    cand = cand[cand <= horizon]
    accept = rng.random(cand.size)
    try:
        rates = np.asarray(rate_fn(cand), dtype=np.float64)
        if rates.shape != cand.shape:
            raise ValueError
    except Exception:
        rates = np.fromiter(
            (rate_fn(float(x)) for x in cand), dtype=np.float64, count=cand.size
        )
    return cand[accept <= rates / max_rate]
