"""The exact numpy kernel: the differential oracle.

This is byte-for-byte the sweep block that lived inline in
``_FastBatch.run`` before the kernel seam existed -- the same numpy
operations in the same order on the same arrays, so its decisions (and
the float arithmetic behind them) are bit-identical to the per-query
reference path.  Every other kernel is measured against it.
"""

from __future__ import annotations

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

from .base import PqEntry, SweepKernel, SweepState, assignment_at

__all__ = ["ExactNumpyKernel"]


class ExactNumpyKernel(SweepKernel):
    """Algorithm 1's sweep, vectorised, bit-identical to the reference path.

    Estimates are ``(max(busy - now, 0) + fixed) + work*dataset/speed`` in
    exactly the reference estimator's float-op order; the sweep gathers
    each ring's estimates through the precomputed owner timeline, takes
    the min across rings and the max across query points, and picks the
    first configuration attaining the global minimum among evaluated ones
    ("strictly better, first wins").  This kernel *is* the oracle: the
    engine's pre-refactor inline code, moved verbatim.
    """

    name = "exact_numpy"
    description = "bit-exact vectorised sweep (the oracle; default)"

    def select(
        self, state: SweepState, entry: PqEntry, now: float
    ) -> tuple[list[int], list[float], float]:
        est = state.est
        # -- estimates: (backlog + fixed) + (work*dataset/speed), same
        # float-op order as FrontEnd.make_estimator -----------------------
        np.subtract(state.busy, now, out=est)
        np.maximum(est, 0.0, out=est)
        np.add(est, state.fe_fixed, out=est)
        np.add(est, entry.Q, out=est)

        # -- the precomputed sweep: gather owners, min over rings, max
        # over points, first-wins argmin over evaluated configs ------------
        if state.single_ring:
            fin = est[entry.owners[0]]
        else:
            fin = est[state.ring_lo[0] : state.ring_hi[0]][entry.owners[0]]
            for r in range(1, state.n_rings):
                other = est[state.ring_lo[r] : state.ring_hi[r]][entry.owners[r]]
                np.minimum(fin, other, out=fin)
        mk = fin.max(axis=0)
        if entry.noeval.size:
            mk[entry.noeval] = np.inf
        best = int(mk.argmin())
        start_id = entry.csi[best]

        g_list, pts = assignment_at(state, entry, est, start_id)
        return g_list, pts, start_id
