"""The ROAR front-end server (Section 4.8).

Front-ends receive queries, split them into sub-queries, choose targets with
the scheduling algorithm, track per-node statistics, detect failures via
sub-query timers, and assemble results.  This class is deployment-agnostic:
it holds the *decision* logic and bookkeeping, while an execution layer (the
cluster simulator, or unit tests) drives it.

Per-node statistics maintained (paper list):

* the node's range (implied by the ring object);
* liveness (last time seen up);
* outstanding scheduled work and its expected finish time (``busy_until``);
* an exponentially-weighted moving average of processing speed, updated from
  each completed sub-query.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .._rng import ensure_rng
from .adjust import PlannedSub, QueryPlan, adjust_ranges, plan_from_schedule, split_slowest
from .failures import split_failed
from .ids import cw_distance, frac
from .node import SubQuery
from .ring import Ring, RingNode
from .scheduler import (
    Estimator,
    ScheduleResult,
    schedule_heap,
    schedule_naive,
    schedule_random,
)

__all__ = ["NodeStats", "FrontEndConfig", "FrontEnd"]


@dataclass
class NodeStats:
    """Front-end's view of one storage node."""

    speed_estimate: float
    busy_until: float = 0.0
    last_seen: float = 0.0
    outstanding: int = 0
    completed: int = 0

    def backlog(self, now: float) -> float:
        return max(0.0, self.busy_until - now)


@dataclass
class FrontEndConfig:
    """Tunables for scheduling behaviour."""

    #: scheduling method: "heap" (Algorithm 1), "naive", or "random".
    method: str = "heap"
    #: random starting points evaluated when method == "random".
    random_starts: int = 3
    #: apply the range-adjustment optimisation (Section 4.8.2).
    adjust_ranges: bool = False
    #: maximum sub-query splits applied per query (0 disables).
    max_splits: int = 0
    #: EWMA weight given to each new speed observation.
    ewma_alpha: float = 0.2
    #: fixed per-sub-query overhead (seconds) assumed by estimates.
    fixed_overhead: float = 0.0
    #: delta margin used by failure fall-back (Section 4.4).
    failure_delta: float = 1e-6


class FrontEnd:
    """Scheduling brain of a ROAR deployment."""

    def __init__(
        self,
        rings: Ring | Sequence[Ring],
        dataset_size: float,
        config: FrontEndConfig | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.rings: list[Ring] = [rings] if isinstance(rings, Ring) else list(rings)
        if not self.rings:
            raise ValueError("at least one ring required")
        self.dataset_size = float(dataset_size)
        self.config = config or FrontEndConfig()
        self.rng = ensure_rng(rng)
        self.stats: dict[str, NodeStats] = {}
        for ring in self.rings:
            for node in ring:
                self.stats[node.name] = NodeStats(speed_estimate=node.speed)
        self._query_counter = 0
        #: scheduling work counters for the Fig 7.12 comparison.
        self.total_iterations = 0
        self.total_estimates = 0
        self.queries_scheduled = 0

    # -- statistics ---------------------------------------------------------
    def stats_for(self, node: RingNode) -> NodeStats:
        st = self.stats.get(node.name)
        if st is None:
            st = NodeStats(speed_estimate=node.speed)
            self.stats[node.name] = st
        return st

    def set_speed_estimate(self, node_name: str, speed: float) -> None:
        """Override a speed estimate (used by estimation-error experiments)."""
        self.stats[node_name].speed_estimate = speed

    def perturb_speed_estimates(self, rel_error: float, rng=None) -> None:
        """Inject multiplicative uniform noise of +-rel_error into estimates.

        Fig 6.5 studies scheduler robustness to wrong speed estimates.
        """
        rng = rng or self.rng
        for ring in self.rings:
            for node in ring:
                factor = 1.0 + rng.uniform(-rel_error, rel_error)
                self.stats[node.name].speed_estimate = max(
                    node.speed * factor, 1e-9
                )

    def observe_completion(
        self, node: RingNode, work_objects: float, service_time: float, now: float
    ) -> None:
        """Update the EWMA speed estimate from a finished sub-query."""
        st = self.stats_for(node)
        st.outstanding = max(0, st.outstanding - 1)
        st.completed += 1
        st.last_seen = now
        effective = service_time - self.config.fixed_overhead
        if effective > 0 and work_objects > 0:
            observed = work_objects / effective
            a = self.config.ewma_alpha
            st.speed_estimate = (1 - a) * st.speed_estimate + a * observed

    def mark_failed(self, node: RingNode) -> None:
        node.alive = False

    def mark_recovered(self, node: RingNode, now: float) -> None:
        node.alive = True
        self.stats_for(node).last_seen = now

    # -- estimation -----------------------------------------------------------
    def make_estimator(self, now: float) -> Estimator:
        """Finish-delay estimator closure over the current statistics.

        Predicted delay for a sub-query covering *fraction* of the ID space:
        queued backlog + fixed overhead + (fraction * D) / estimated speed.
        """
        dataset = self.dataset_size
        fixed = self.config.fixed_overhead
        stats = self.stats

        def estimate(node: RingNode, fraction: float) -> float:
            st = stats.get(node.name)
            speed = st.speed_estimate if st else node.speed
            backlog = st.backlog(now) if st else 0.0
            return backlog + fixed + (fraction * dataset) / speed

        return estimate

    # -- scheduling -------------------------------------------------------------
    def next_query_id(self) -> int:
        self._query_counter += 1
        return self._query_counter

    def schedule_query(
        self,
        now: float,
        pq: int,
        p_store: float | None = None,
    ) -> tuple[int, QueryPlan, ScheduleResult]:
        """Choose targets for a ``pq``-way query arriving at *now*.

        Returns ``(query_id, plan, raw_schedule)``.  The plan already has
        range adjustment / splitting applied per configuration, and failed
        delivery targets are *not* yet resolved -- call
        :meth:`resolve_failures` on the generated sub-queries (the execution
        layer does this when a timer fires or a target is known-dead).
        """
        if pq < 1:
            raise ValueError("pq must be >= 1")
        estimator = self.make_estimator(now)
        method = self.config.method
        if method == "heap":
            result = schedule_heap(self.rings, pq, estimator)
        elif method == "naive":
            result = schedule_naive(self.rings, pq, estimator)
        elif method == "random":
            result = schedule_random(
                self.rings, pq, estimator, k=self.config.random_starts, rng=self.rng
            )
        else:
            raise ValueError(f"unknown scheduling method {method!r}")
        qid, plan = self.plan_query(result, estimator, p_store)
        return qid, plan, result

    def adopt_schedule(
        self,
        now: float,
        assignment: Sequence[RingNode],
        start_id: float,
        iterations: int,
        estimates: int,
        p_store: float | None = None,
    ) -> tuple[int, QueryPlan, ScheduleResult]:
        """:meth:`schedule_query` for a decision made elsewhere.

        The batched engine's kernels run Algorithm 1 on mirrors of
        these statistics; when such a query has to fall back to the
        per-query path, its pick (the nodes per query point, the start id
        and the sweep's work counters) is adopted here instead of being
        swept again.  Each node's finish estimate is re-evaluated at
        *now*, so the plan is the one :meth:`schedule_query` would build.
        """
        estimator = self.make_estimator(now)
        work = 1.0 / len(assignment)
        finishes = [estimator(node, work) for node in assignment]
        result = ScheduleResult(
            start_id=frac(start_id),
            assignment=list(assignment),
            finishes=finishes,
            makespan=max(finishes),
            iterations=iterations,
            estimates=estimates,
        )
        qid, plan = self.plan_query(result, estimator, p_store)
        return qid, plan, result

    def plan_query(
        self,
        result: ScheduleResult,
        estimator: Estimator,
        p_store: float | None = None,
    ) -> tuple[int, QueryPlan]:
        """The bookkeeping every scheduled query pays: count the sweep's
        work, turn the schedule into a plan (range adjustment and splitting
        per configuration), and issue the query id."""
        pq = result.p
        p_store = float(p_store if p_store is not None else pq)
        self.total_iterations += result.iterations
        self.total_estimates += result.estimates
        self.queries_scheduled += 1

        plan = plan_from_schedule(result, estimator)
        if self.config.adjust_ranges:
            plan = adjust_ranges(plan, self.rings, estimator, p_store)
        if self.config.max_splits > 0:
            plan = split_slowest(
                plan, self.rings, estimator, p_store, max_splits=self.config.max_splits
            )
        return self.next_query_id(), plan

    def reserve(self, plan: QueryPlan, now: float) -> None:
        """Record the expected load of a dispatched plan in node stats."""
        fixed = self.config.fixed_overhead
        for sub in plan.subs:
            st = self.stats_for(sub.node)
            service = fixed + (sub.width * self.dataset_size) / max(
                st.speed_estimate, 1e-9
            )
            st.busy_until = max(st.busy_until, now) + service
            st.outstanding += 1

    def resolve_failures(
        self, subqueries: list[SubQuery], p_store: float
    ) -> list[tuple[SubQuery, RingNode]]:
        """Replace sub-queries addressed to dead nodes (Section 4.4)."""
        primary = self.rings[0]
        return split_failed(
            primary,
            subqueries,
            p_store,
            delta=self.config.failure_delta,
            rng=self.rng,
        )

    # -- reporting ----------------------------------------------------------------
    def mean_iterations(self) -> float:
        if self.queries_scheduled == 0:
            return 0.0
        return self.total_iterations / self.queries_scheduled
