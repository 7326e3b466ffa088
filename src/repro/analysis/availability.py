"""Fault-tolerance analysis (Section 6.2, Fig 6.8).

*Strict* operations require a query to visit every object; the system is
unavailable for a strict query when some object has lost all its replicas
(or, for SW without fall-back, when no failure-free rotation exists).  With
independent fail-stop probability ``f`` per server:

* **PTN** -- a query needs one alive server per cluster; an object is lost
  only if its whole cluster of r servers is down:
  ``unavail = 1 - (1 - f^r)^p``.
* **SW (no fall-back)** -- the r rotations use disjoint server sets; the
  query fails unless some rotation is fully alive:
  ``unavail = (1 - (1-f)^p)^r``.  Much worse than PTN.
* **ROAR (with fall-back)** -- any object is reachable while at least one
  server intersecting its replication arc is alive; strict unavailability
  is the probability of ``r`` *consecutive* dead nodes somewhere on the
  ring (~``n * f^r * (1-f)`` for small f -- PTN-like).  Multi-ring ROAR
  needs a simultaneous dead run in *every* ring over the same object,
  computed by Monte Carlo.

The node-count models above implicitly assume **uniform ranges** (every
dead run of k nodes covers exactly ``k/n`` of the ring).  The deployed
fall-back (:mod:`repro.core.failures`) is stricter and *geometric*: it
treats a maximal contiguous run of dead nodes as one hole and raises
:class:`~repro.core.failures.FailureCoverageError` -- an honest dropped
query, never a silent partial harvest -- exactly when the hole's **range
length** reaches the replacement width ``1/p_store - delta``.  On rings
balanced by speed (Section 4.6) ranges are deliberately unequal, so a
run of *few, wide* nodes can lose coverage while ``r`` narrow ones
cannot.  :func:`coverage_unavailability_mc` / :func:`ring_unavailability_mc`
model that run-length condition directly over the actual range lengths;
for uniform rings they coincide with :func:`roar_unavailability_mc`
(``k/n >= 1/p`` iff ``k >= r``), which the tests assert trial for trial.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

__all__ = [
    "ptn_unavailability",
    "sw_unavailability",
    "roar_run_unavailability",
    "roar_unavailability_mc",
    "coverage_unavailability_mc",
    "ring_unavailability_mc",
    "max_dead_run_length",
    "multiring_unavailability_mc",
]


def ptn_unavailability(f: float, r: int, p: int) -> float:
    """1 - (1 - f^r)^p: some cluster entirely dead."""
    _check_f(f)
    return 1.0 - (1.0 - f**r) ** p


def sw_unavailability(f: float, r: int, p: int) -> float:
    """(1 - (1-f)^p)^r: no rotation fully alive (rotations are disjoint)."""
    _check_f(f)
    return (1.0 - (1.0 - f) ** p) ** r


def roar_run_unavailability(f: float, r: int, n: int) -> float:
    """First-order approximation: P(some run of >= r consecutive failures).

    For small f the expected number of such runs on a circular ring of n
    nodes is ``n * f^r * (1 - f)``, and P ~ that expectation.
    """
    _check_f(f)
    return min(1.0, n * (f**r) * (1.0 - f))


def roar_unavailability_mc(
    f: float, r: int, n: int, trials: int = 20_000, seed: int = 0
) -> float:
    """Monte Carlo strict unavailability for single-ring ROAR.

    A trial is unavailable if the ring (n nodes, uniform ranges) contains a
    circular run of >= r dead nodes -- i.e. some replication arc has lost
    every holder.
    """
    _check_f(f)
    rng = random.Random(seed)
    bad = 0
    for _ in range(trials):
        alive = [rng.random() >= f for _ in range(n)]
        if _has_dead_run(alive, r):
            bad += 1
    return bad / trials


def max_dead_run_length(
    lengths: Sequence[float], alive: Sequence[bool]
) -> float:
    """Longest circular run of dead nodes, measured in *range length*.

    ``lengths[i]`` is node i's range length (ring order, summing to ~1);
    the run metric is what the failure fall-back compares against the
    replacement width ``1/p_store - delta`` (see ``core.failures``).
    Returns 1.0 when every node is dead.
    """
    n = len(alive)
    if n != len(lengths):
        raise ValueError("lengths and alive must have equal length")
    if not any(alive):
        return 1.0
    best = 0.0
    run = 0.0
    # walk twice around to catch wrapping runs; runs reset at live nodes
    for i in range(2 * n):
        if not alive[i % n]:
            run += lengths[i % n]
            if run > best:
                best = run
        else:
            run = 0.0
        if i >= n and run == 0.0:
            break  # past the wrap with no open run: nothing new can grow
    return min(best, 1.0)


def coverage_unavailability_mc(
    lengths: Sequence[float],
    p_store: float,
    f: float,
    delta: float = 0.0,
    trials: int = 20_000,
    seed: int = 0,
) -> float:
    """Monte Carlo strict unavailability under run-length coverage loss.

    A trial fails when some contiguous dead run's total *range length*
    reaches the replacement width ``1/p_store - delta`` -- the fall-back's
    own span check (:func:`repro.core.failures.coverable`), under which
    :func:`repro.core.failures.replacement_subqueries` raises
    :class:`~repro.core.failures.FailureCoverageError` and the deployment
    records an honest drop.  Unlike the node-count model
    (:func:`roar_unavailability_mc`), this is exact for heterogeneous
    rings whose ranges were balanced to speed: one very fast (wide) dead
    node can exceed the width on its own while many slow (narrow) ones
    cannot.

    Alive draws match :func:`roar_unavailability_mc` (one uniform draw
    per node per trial, same order), so on uniform rings the two agree
    trial for trial.
    """
    from ..core.failures import coverable

    _check_f(f)
    if p_store <= 0:
        raise ValueError(f"p_store must be positive, got {p_store}")
    width = 1.0 / float(p_store) - delta
    rng = random.Random(seed)
    n = len(lengths)
    bad = 0
    for _ in range(trials):
        alive = [rng.random() >= f for _ in range(n)]
        if not coverable(max_dead_run_length(lengths, alive), width):
            bad += 1
    return bad / trials


def ring_unavailability_mc(
    ring,
    p_store: float,
    f: float,
    delta: float = 0.0,
    trials: int = 20_000,
    seed: int = 0,
) -> float:
    """:func:`coverage_unavailability_mc` over a live ``core.Ring``.

    Reads the actual node range lengths in ring order, so the estimate
    reflects whatever balancing/reconfiguration has done to the layout.
    """
    return coverage_unavailability_mc(
        ring.range_lengths(), p_store, f, delta=delta, trials=trials, seed=seed
    )


def multiring_unavailability_mc(
    f: float,
    r: int,
    n: int,
    k_rings: int = 2,
    trials: int = 20_000,
    seed: int = 0,
) -> float:
    """Monte Carlo strict unavailability for k-ring ROAR.

    Each ring holds n/k nodes and r/k consecutive replicas per object; an
    object is lost only if its holders are all dead in *every* ring.  We
    test a grid of object positions per trial.
    """
    _check_f(f)
    if r % k_rings != 0 or n % k_rings != 0:
        raise ValueError("k_rings must divide both n and r")
    rng = random.Random(seed)
    n_per = n // k_rings
    r_per = r // k_rings
    positions = 4 * n  # dense object-position grid
    bad = 0
    for _ in range(trials):
        rings_alive = [
            [rng.random() >= f for _ in range(n_per)] for _ in range(k_rings)
        ]
        # Per ring, precompute whether the run starting at each node is all-dead.
        dead_run = []
        for alive in rings_alive:
            dr = [
                all(not alive[(i + j) % n_per] for j in range(r_per))
                for i in range(n_per)
            ]
            dead_run.append(dr)
        unavailable = False
        for g in range(positions):
            pos = g / positions
            lost_everywhere = True
            for ring_idx in range(k_rings):
                node = int(pos * n_per) % n_per
                if not dead_run[ring_idx][node]:
                    lost_everywhere = False
                    break
            if lost_everywhere:
                unavailable = True
                break
        if unavailable:
            bad += 1
    return bad / trials


def _has_dead_run(alive: Sequence[bool], run: int) -> bool:
    """Any circular run of >= run consecutive False values?"""
    n = len(alive)
    if run > n:
        return False
    if not any(alive):
        return True
    count = 0
    # Walk twice around to catch wrapping runs; early exit on success.
    for i in range(2 * n):
        if not alive[i % n]:
            count += 1
            if count >= run:
                return True
        else:
            count = 0
    return False


def _check_f(f: float) -> None:
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"failure probability must be in [0, 1], got {f}")
