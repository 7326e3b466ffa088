"""Multiple front-end servers (Section 4.8.3).

One front-end scales to a thousand servers, but fault tolerance and further
scaling want several.  The paper's design: front-ends schedule *completely
decoupled* -- each keeps its own outstanding-work predictions and speed
estimates -- which works because CPU/memory-bound matching degrades linearly
with concurrent tasks, and oscillations are avoided by averaging server
statistics over many queries (slow EWMAs).

:class:`MultiFrontEndDeployment` runs ``k`` independent
:class:`~repro.core.frontend.FrontEnd` instances over one shared server
pool, round-robining (or hashing) client queries across them, and measures
the price of decoupling: each front-end only *sees its own* dispatches, so
its backlog estimates under-count true server queues by roughly a factor of
``k``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ..core.frontend import FrontEnd, FrontEndConfig
from ..core.membership import MembershipServer
from ..sim.server import SimServer
from ..telemetry.listeners import ChunkListener
from ..telemetry.records import DelayLog, QueryRecord

__all__ = ["MultiFrontEndDeployment"]


class MultiFrontEndDeployment:
    """Shared server pool driven by k decoupled front-end schedulers."""

    def __init__(
        self,
        speeds: Sequence[float],
        p: int,
        n_frontends: int = 2,
        dataset_size: float = 1e6,
        fixed_overhead: float = 0.002,
        ewma_alpha: float = 0.05,
        seed: int = 1,
        shared_view: bool = False,
    ) -> None:
        if n_frontends < 1:
            raise ValueError("need at least one front-end")
        self.p = p
        self.dataset_size = float(dataset_size)
        #: when True front-ends sync busy_until from the real servers before
        #: scheduling (a perfectly shared view -- the comparison baseline).
        self.shared_view = shared_view
        self.rng = random.Random(seed)
        self.membership = MembershipServer.build_balanced(
            list(speeds), n_rings=1, rng=self.rng
        )
        self.ring = self.membership.rings[0]
        self.servers = {
            node.name: SimServer(node.name, node.speed, fixed_overhead=fixed_overhead)
            for node in self.ring
        }
        # Decoupled front-ends must not deterministically agree on "the"
        # best rotation -- synchronized choices pile every query onto the
        # same servers and the blind spots compound.  Randomised rotation
        # sampling decorrelates them at a small optimality cost; with a
        # perfectly shared view the deterministic sweep is safe.
        method = "heap" if (shared_view or n_frontends == 1) else "random"
        self.frontends = [
            FrontEnd(
                self.ring,
                dataset_size,
                FrontEndConfig(
                    fixed_overhead=fixed_overhead,
                    ewma_alpha=ewma_alpha,
                    method=method,
                    random_starts=3,
                ),
                rng=random.Random(seed + i),
            )
            for i in range(n_frontends)
        ]
        self.log = DelayLog()
        self._counter = 0
        self._fe_seed = seed + n_frontends
        #: chunk-array subscribers; fed via ``observe_record`` here (the
        #: multi-front-end path has no batched engine).
        self.chunk_listeners: list[ChunkListener] = []

    def _pick_frontend(self) -> FrontEnd:
        fe = self.frontends[self._counter % len(self.frontends)]
        self._counter += 1
        return fe

    # -- front-end elasticity (driven by the control plane) ---------------------
    @property
    def n_frontends(self) -> int:
        return len(self.frontends)

    def add_frontend(self) -> FrontEnd:
        """Add one more decoupled scheduler over the shared pool.

        New front-ends start with catalogue speed estimates and an empty
        outstanding-work view; the slow EWMAs converge them (Section 4.8.3).
        """
        self._fe_seed += 1
        fe = FrontEnd(
            self.ring,
            self.dataset_size,
            FrontEndConfig(
                fixed_overhead=self.frontends[0].config.fixed_overhead,
                ewma_alpha=self.frontends[0].config.ewma_alpha,
                method="random" if not self.shared_view else "heap",
                random_starts=3,
            ),
            rng=random.Random(self._fe_seed),
        )
        self.frontends.append(fe)
        if not self.shared_view:
            # A pool scaled up from a single front-end may still hold a
            # deterministic heap scheduler; once decoupled peers exist,
            # every member must sample randomised rotations or their
            # synchronized choices pile load (see the constructor comment).
            for existing in self.frontends:
                existing.config.method = "random"
        return fe

    def remove_frontend(self) -> None:
        """Retire one front-end (its in-flight statistics are discarded)."""
        if len(self.frontends) <= 1:
            raise ValueError("need at least one front-end")
        self.frontends.pop()

    def run_query(self, now: float) -> QueryRecord:
        frontend = self._pick_frontend()
        if self.shared_view:
            for node in self.ring:
                frontend.stats_for(node).busy_until = self.servers[
                    node.name
                ].busy_until
        qid, plan, _ = frontend.schedule_query(now, self.p)
        frontend.reserve(plan, now)
        finish = now
        for sub in plan.subs:
            server = self.servers[sub.node.name]
            work = sub.width * self.dataset_size
            f = server.submit(now, work, query_id=qid)
            frontend.observe_completion(
                sub.node, work, server.service_time(work), f
            )
            finish = max(finish, f)
        record = QueryRecord(
            query_id=self._counter,
            arrival=now,
            finish=finish,
            pq=self.p,
            subqueries=len(plan.subs),
        )
        self.log.add(record)
        for chunk_listener in self.chunk_listeners:
            chunk_listener.observe_record(record)
        return record

    def run(self, arrival_times: Sequence[float]) -> DelayLog:
        for t in arrival_times:
            self.run_query(t)
        return self.log

    # -- health metrics ---------------------------------------------------------
    def estimate_divergence(self) -> float:
        """Mean relative disagreement between front-ends' speed estimates.

        A proxy for the oscillation risk Section 4.8.3 warns about; slow
        EWMAs keep this small.
        """
        if len(self.frontends) < 2:
            return 0.0
        total = 0.0
        count = 0
        for node in self.ring:
            estimates = [
                fe.stats[node.name].speed_estimate for fe in self.frontends
            ]
            mean = sum(estimates) / len(estimates)
            if mean > 0:
                total += (max(estimates) - min(estimates)) / mean
                count += 1
        return total / count if count else 0.0

    def utilisation(self) -> float:
        elapsed = max((r.finish for r in self.log.records), default=1.0)
        busy = sum(s.busy_time for s in self.servers.values())
        return busy / (elapsed * len(self.servers))
