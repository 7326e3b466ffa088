"""Growable columnar storage and bit-exact array statistics.

The telemetry subsystem keeps per-query results as flat numpy columns
rather than lists of per-query objects: a chunk of queries lands as one
array copy, summary statistics run as array reductions, and the objects
the legacy API exposes (:class:`~repro.telemetry.records.QueryRecord`,
:class:`~repro.telemetry.records.QueryBreakdown`) are materialised lazily,
on demand.

Two invariants matter here:

* **Loss-free storage.**  Columns are float64/int64, so every python float
  or int that goes in comes back bit-identical.
* **Bit-exact statistics.**  :func:`array_percentile` reproduces the exact
  float operations of the historic sorted-list implementation (now
  :func:`repro.telemetry.records.percentile`) via ``np.partition``, so the golden
  regression pins -- and every controller threshold decision derived from a
  percentile -- are unchanged by the columnar port.
"""

from __future__ import annotations

import math

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

__all__ = ["GrowArray", "array_percentile"]

_MIN_CAP = 64


class GrowArray:
    """An append-only 1-D array with amortised-doubling growth.

    Scalar appends and bulk extends both cost O(1) amortised per element;
    :meth:`view` exposes the filled prefix without copying.
    """

    __slots__ = ("_data", "n")

    def __init__(self, dtype="float64", capacity: int = _MIN_CAP) -> None:
        self._data = np.empty(max(int(capacity), 1), dtype=dtype)
        self.n = 0

    def __len__(self) -> int:
        return self.n

    @property
    def dtype(self):
        return self._data.dtype

    def _reserve(self, extra: int) -> None:
        need = self.n + extra
        cap = len(self._data)
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        data = np.empty(cap, dtype=self._data.dtype)
        data[: self.n] = self._data[: self.n]
        self._data = data

    def append(self, value) -> None:
        self._reserve(1)
        self._data[self.n] = value
        self.n += 1

    def extend(self, values) -> None:
        values = np.asarray(values, dtype=self._data.dtype)
        k = len(values)
        if k == 0:
            return
        self._reserve(k)
        self._data[self.n : self.n + k] = values
        self.n += k

    def view(self) -> "np.ndarray":
        """The filled prefix (a live view -- copy before holding long-term)."""
        return self._data[: self.n]

    def copy(self) -> "np.ndarray":
        return self._data[: self.n].copy()

    def shift_down(self, lo: int) -> int:
        """Drop the first *lo* elements in place; returns the new length."""
        if lo <= 0:
            return self.n
        keep = self.n - lo
        self._data[:keep] = self._data[lo : self.n]
        self.n = keep
        return keep


def array_percentile(values: "np.ndarray", q: float) -> float:
    """The *q*-th percentile (0..100) with linear interpolation.

    Bit-identical to the historic sorted-list implementation
    (``sorted(values)`` + the same interpolation arithmetic): sorting order
    on float64 is total here (telemetry columns hold no NaNs), and the
    interpolation ``data[lo] + (data[hi] - data[lo]) * (pos - lo)`` runs the
    identical float64 operations.  ``np.partition`` places the two order
    statistics without sorting the whole array.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n == 0:
        raise ValueError("empty sequence")
    if n == 1:
        return float(values[0])
    pos = (q / 100.0) * (n - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    lo = min(max(lo, 0), n - 1)
    hi = min(max(hi, 0), n - 1)
    if lo == hi:
        part = np.partition(values, lo)
        return float(part[lo])
    part = np.partition(values, (lo, hi))
    d_lo = float(part[lo])
    d_hi = float(part[hi])
    return d_lo + (d_hi - d_lo) * (pos - lo)
