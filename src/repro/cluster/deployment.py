"""A full simulated PPS-on-ROAR deployment (the Chapter 7 rig).

Couples the core front-end (real scheduling code, real wall-clock cost) with
simulated storage servers (the Definition 8 computation model), the
membership server, the reconfigurator, and failure/update injection.  Every
Chapter 7 experiment drives one of these:

* p sweeps measuring delay / throughput / per-node CPU load (Figs 7.1-7.3);
* update load vs query throughput (Fig 7.4);
* dynamic p changes tracking load under a delay target (Fig 7.5);
* sudden node failures and the sub-query splitting fall-back (Fig 7.6);
* query-time load balancing with pq > p (Figs 7.7/7.8);
* range load balancing (Figs 7.9/7.10);
* per-query delay breakdown at the front-end (Fig 7.11);
* large-scale runs (Table 7.3).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..core.failures import FailureCoverageError
from ..core.frontend import FrontEnd, FrontEndConfig
from ..core.membership import MembershipServer
from ..core.node import RoarNode, SubQuery
from ..core.objects import DataObject, generate_objects
from ..core.reconfig import ReconfigPhase, Reconfigurator
from ..core.ring import Ring, RingNode
from ..sim.energy import EnergyReport, measure_energy
from ..sim.network import NetworkModel, TrafficLedger
from ..sim.server import SimServer
from ..telemetry.listeners import ChunkListener
from ..telemetry.records import (
    BreakdownLog,
    DelayLog,
    QueryBreakdown,
    QueryRecord,
)
from .models import MODEL_CATALOGUE, ServerModel, hen_testbed, make_sim_server

__all__ = ["DeploymentConfig", "QueryBreakdown", "Deployment", "DynamicPController"]


@dataclass
class DeploymentConfig:
    """Parameters of a simulated deployment."""

    models: Sequence[ServerModel] = field(default_factory=hen_testbed)
    p: int = 5
    n_rings: int = 1
    dataset_size: float = 5_000_000.0  # metadata items across the system
    in_memory: bool = True
    seed: int = 1
    frontend: FrontEndConfig = field(default_factory=FrontEndConfig)
    network: NetworkModel | None = None
    #: detection latency for sudden failures (front-end timers, Section 4.8).
    failure_timeout: float = 0.25
    #: average per-sub-query fixed overhead if not taken from the model.
    fixed_overhead: float | None = None
    #: keep real object replicas on nodes (needed for harvest verification;
    #: costs memory, so large-scale runs leave it off).
    store_objects: bool = False
    n_objects_stored: int = 2000
    #: object update cost in seconds of server time per replica.
    update_cost: float = 0.002
    #: charge the scheduler's real wall-clock into query latency (the
    #: Fig 7.11 accounting).  Turn off for bit-reproducible runs: latency
    #: then contains simulated components only, which is what the golden
    #: regression tests and the batched/per-query differential tests pin.
    charge_scheduling: bool = True


class Deployment:
    """One running system: rings + servers + front-end + coordinator."""

    def __init__(self, config: DeploymentConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        models = list(config.models)
        speeds = [m.speed(config.in_memory) for m in models]
        self.membership = MembershipServer.build_balanced(
            speeds, n_rings=config.n_rings, rng=self.rng
        )
        self.rings = self.membership.rings
        self.model_of: dict[str, str] = {}
        self.servers: dict[str, SimServer] = {}
        fixed = config.fixed_overhead
        for ring in self.rings:
            for node in ring:
                idx = int(node.name.split("-")[-1])
                model = models[idx]
                server = make_sim_server(node.name, model, config.in_memory)
                if fixed is not None:
                    server.fixed_overhead = fixed
                self.servers[node.name] = server
                self.model_of[node.name] = model.name

        fe_config = config.frontend
        if fixed is not None:
            fe_config.fixed_overhead = fixed
        else:
            fe_config.fixed_overhead = sum(m.fixed_overhead for m in models) / len(models)
        self.frontend = FrontEnd(
            self.rings, config.dataset_size, fe_config, rng=self.rng
        )
        self.network = config.network or NetworkModel.data_center(config.seed)
        self.ledger = TrafficLedger()
        self.log = DelayLog()
        self.breakdowns = BreakdownLog()
        self.scheduling_wallclock = 0.0

        # Optional real object stores (harvest verification).
        self.stores: dict[str, RoarNode] = {}
        self.reconfig: Reconfigurator | None = None
        if config.store_objects:
            objects = generate_objects(
                config.n_objects_stored, random.Random(config.seed + 7)
            )
            primary = self.rings[0]
            self.stores = {n.name: RoarNode(n) for n in primary}
            self.reconfig = Reconfigurator(primary, self.stores, objects, config.p)
            self.reconfig.initial_load()

        #: known-dead bookkeeping: name -> time the front-end learned of it.
        self._known_dead: dict[str, float] = {}
        #: the servers the last :meth:`run_query` call submitted to, in
        #: submission order (its callers re-read or report exactly these).
        self.last_submitted: list[str] = []

        #: chunk-array subscribers (:class:`~repro.telemetry.ChunkListener`):
        #: one ``observe_chunk`` call per flushed chunk on the batched path,
        #: ``observe_record`` per query on the reference path.
        self.chunk_listeners: list[ChunkListener] = []
        #: servers drained out by elastic shrinking, kept for accounting.
        self.retired: dict[str, SimServer] = {}
        self._next_node_idx = len(models)
        #: precomputed ring-cover tables for the batched query path, keyed
        #: by (pq, ring versions); lazily created by run_queries_fast.
        self.cover_tables = None

    # -- basic facts ------------------------------------------------------------
    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rings)

    @property
    def p_store(self) -> float:
        if self.reconfig is not None:
            return self.reconfig.p_store
        return float(self.config.p)

    def total_speed(self) -> float:
        return sum(s.speed for s in self.servers.values() if not s.failed)

    # -- failure injection --------------------------------------------------------
    def fail_node(self, name: str, now: float) -> None:
        """Sudden fail-stop at *now*; detected after ``failure_timeout``."""
        self.servers[name].fail()
        self._known_dead[name] = now + self.config.failure_timeout
        for ring in self.rings:
            try:
                node = ring.get(name)
            except KeyError:
                continue
            node.alive = False  # routing layer flag; scheduler still sweeps it

    def _is_known_dead(self, name: str, now: float) -> bool:
        t = self._known_dead.get(name)
        return t is not None and now >= t

    def recover_node(self, name: str, now: float) -> None:
        """Bring a failed (but not removed) server back into service."""
        server = self.servers[name]
        server.recover(now)
        self._known_dead.pop(name, None)
        for ring in self.rings:
            try:
                node = ring.get(name)
            except KeyError:
                continue
            self.frontend.mark_recovered(node, now)

    # -- elasticity (driven by the control plane) ---------------------------------
    def add_server(
        self, model: ServerModel, now: float = 0.0, ring_id: int | None = None
    ) -> str:
        """Grow the pool: insert a fresh server at the hottest ring spot.

        The membership server picks the placement (Section 4.9); if object
        stores are enabled the newcomer downloads the replicas its range
        requires before serving, and the transfer is charged to the
        reconfigurator's ledger.  Returns the new server's name.
        """
        name = f"node-{self._next_node_idx}"
        self._next_node_idx += 1
        node = self.membership.add_server(
            name, model.speed(self.config.in_memory), ring_id=ring_id
        )
        server = make_sim_server(name, model, self.config.in_memory)
        if self.config.fixed_overhead is not None:
            server.fixed_overhead = self.config.fixed_overhead
        server.recover(now)  # no lane may start before the server exists
        self.servers[name] = server
        self.model_of[name] = model.name
        self.frontend.stats_for(node)
        primary = self.rings[0]
        if self.reconfig is not None and node.ring_id == 0:
            self.stores[name] = RoarNode(node)
            self.reconfig.load_node_range(name, primary.range_of(node))
        return name

    def remove_server(self, name: str, now: float = 0.0) -> None:
        """Shrink the pool: drain *name*; its predecessor absorbs the range.

        With object stores enabled the predecessor downloads the absorbed
        range's replicas (a controlled removal, not a failure).
        """
        owner_ring = None
        node = None
        for ring in self.rings:
            try:
                node = ring.get(name)
            except KeyError:
                continue
            owner_ring = ring
            break
        if node is None or owner_ring is None:
            raise KeyError(name)
        if len(owner_ring) <= 1:
            raise ValueError("cannot remove the last node of a ring")
        pred = owner_ring.predecessor(node)
        self.membership.remove_server(name)
        if self.reconfig is not None and owner_ring is self.rings[0]:
            self.stores.pop(name, None)
            self.reconfig.node_departed(name)
            self.reconfig.load_node_range(
                pred.name, owner_ring.range_of(pred)
            )
        self.retired[name] = self.servers.pop(name)
        self._known_dead.pop(name, None)
        self.frontend.stats.pop(name, None)

    def handle_long_term_failure(self, name: str, now: float = 0.0) -> None:
        """Declare a dead node permanent: redistribute its range (Section 4.9).

        The predecessor absorbs the range and re-replicates it, after which
        failure fall-back no longer needs to route around the hole.
        """
        self.remove_server(name, now=now)

    def max_dead_range(self) -> float:
        """Widest contiguous run of ring range owned by failed nodes.

        Failure fall-back needs replacement width ``1/p`` to exceed this
        (Section 4.4), so it caps how far re-partitioning may raise p.
        Adjacent dead nodes act as one combined hole -- the fall-back splits
        around the whole run -- so the cap must measure runs, not single
        nodes.
        """
        worst = 0.0
        for ring in self.rings:
            run = 0.0
            first_run = None  # run starting at index 0, may wrap via the end
            for node, length in zip(ring.nodes(), ring.range_lengths()):
                if not node.alive:
                    run += length
                    worst = max(worst, run)
                else:
                    if first_run is None:
                        first_run = run
                    run = 0.0
            if first_run is None:  # every node dead: the whole circle
                worst = max(worst, 1.0)
            elif run > 0.0:  # wrap: tail run joins the head run
                worst = max(worst, run + first_run)
        return worst

    # -- queries -------------------------------------------------------------------
    def run_query(
        self, now: float, pq: int | None = None, pick: tuple | None = None
    ) -> Optional[QueryRecord]:
        """Execute one query end-to-end; returns its timing record.

        Returns ``None`` (and counts the query as dropped) when failure
        fall-back cannot re-cover a dead node's range -- the objects are
        unavailable until re-replication.

        Either way :attr:`last_submitted` then names the servers the
        query submitted a piece to, in submission order (a server hit
        twice is named twice): its live picks plus any fall-back
        replacements, including those that ran before a drop.

        Without a *pick*, every node's ``NodeStats.busy_until`` is first
        synced to its server's queue, and the front-end sweeps.

        *pick* is an Algorithm 1 decision already made on identical state,
        ``(assignment, start_id, iterations, estimates)``: the node per
        query point, the start id, and the sweep's work counters.  The
        front-end adopts it instead of sweeping again
        (:meth:`~repro.core.frontend.FrontEnd.adopt_schedule`).  With a
        pick, only the picked nodes' ``busy_until`` is synced: adoption
        and :meth:`~repro.core.frontend.FrontEnd.reserve` read no other
        node's.  Every other node keeps whatever it held, and the caller
        owes it the sync a pick-less call would have written (its
        server's queue as it stood before the query).  The batched
        engine is the one caller that passes a pick, when it hands a
        failure-window query to this path, and it writes that sync
        lazily.
        """
        pq = pq or self.config.p
        p_store = self.p_store
        if pq < p_store - 1e-9:
            raise ValueError(
                f"pq={pq} below stored partitioning level {p_store}; "
                "reconfigure first (Section 4.5)"
            )
        # Sync the front-end's outstanding-work view with reality before
        # scheduling (its per-node busy_until predictions are what the
        # estimator consumes).
        if pick is None:
            synced = [node for ring in self.rings for node in ring]
        else:
            synced = pick[0]
        stats_for, servers = self.frontend.stats_for, self.servers
        for node in synced:
            stats_for(node).busy_until = servers[node.name].busy_until
        submitted: list[str] = []
        self.last_submitted = submitted

        sched_start = time.perf_counter()
        if pick is None:
            qid, plan, _ = self.frontend.schedule_query(now, pq, p_store)
        else:
            qid, plan, _ = self.frontend.adopt_schedule(now, *pick, p_store=p_store)
        sched_wall = time.perf_counter() - sched_start
        self.scheduling_wallclock += sched_wall
        self.frontend.reserve(plan, now)

        subs = plan.to_subqueries(qid)
        self.ledger.record_query(len(subs))
        finish = now
        max_wait = 0.0
        max_service = 0.0
        rtt = self.network.sample_rtt()
        pieces: list[tuple[SubQuery, RingNode, float]] = []  # (sub, node, submit time)
        for sub, planned in zip(subs, plan.subs):
            pieces.append((sub, planned.node, now))

        while pieces:
            sub, node, submit_at = pieces.pop()
            server = self.servers[node.name]
            if server.failed:
                detect_at = max(submit_at, self._known_dead.get(node.name, submit_at))
                try:
                    replacements = self.frontend.resolve_failures([sub], p_store)
                except FailureCoverageError:
                    # The dead range exceeds the replication arc: that data
                    # is unavailable until re-replication.  The query is
                    # dropped and charged against yield (Section 4.4).
                    self.log.dropped += 1
                    return None
                self.ledger.record_query(len(replacements))
                for rep_sub, rep_node in replacements:
                    pieces.append((rep_sub, rep_node, detect_at))
                continue
            work = sub.work_fraction() * self.config.dataset_size
            wait = server.queue_backlog(submit_at)
            f = server.submit(submit_at + rtt / 2.0, work, query_id=qid)
            submitted.append(node.name)
            service = server.service_time(work)
            self.frontend.observe_completion(node, work, service, f)
            max_wait = max(max_wait, wait)
            max_service = max(max_service, service)
            finish = max(finish, f + rtt / 2.0)
            self.ledger.record_result(1)

        total = finish - now + (sched_wall if self.config.charge_scheduling else 0.0)
        record = QueryRecord(
            query_id=qid,
            arrival=now,
            finish=now + total,
            pq=pq,
            subqueries=len(subs),
            scheduling_delay=sched_wall,
        )
        self.log.add(record)
        breakdown = QueryBreakdown(
            scheduling=sched_wall,
            network=rtt,
            queueing=max_wait,
            service=max_service,
            total=total,
        )
        self.breakdowns.append(breakdown)
        for chunk_listener in self.chunk_listeners:
            chunk_listener.observe_record(record, breakdown)
        return record

    def run_queries(
        self,
        arrival_times: Sequence[float],
        pq_fn: Callable[[float], int] | int | None = None,
    ) -> DelayLog:
        """Run a whole arrival trace; *pq_fn* may vary pq over time."""
        for t in arrival_times:
            if callable(pq_fn):
                pq = pq_fn(t)
            else:
                pq = pq_fn
            self.run_query(t, pq)
        return self.log

    def run_queries_fast(
        self,
        arrival_times: Sequence[float],
        pq_fn: Callable[[float], int] | int | None = None,
        record_assignments: bool = False,
        actions: Sequence | None = None,
        kernel=None,
        admission=None,
        updates=None,
    ):
        """Run an arrival trace through the batched query path.

        Produces state (logs, server counters, front-end statistics)
        identical to :meth:`run_queries`, orders of magnitude faster; see
        :func:`repro.sim.fastpath.run_queries_fast` and
        ``docs/architecture.md`` for how.  *actions* schedules
        :class:`~repro.sim.fastpath.Action` callbacks (events, control
        ticks) to land between two specific queries with exact event-time
        semantics; *updates* is the run's object-update stream (query
        indices with an ``(n, 2)`` array of ``(time, position)`` rows),
        applied as data before the query each precedes.  *kernel*
        selects the scheduling kernel by registry name (default
        ``exact_numpy``, the bit-exact oracle;
        ``compiled`` fuses sweep and commit into one C call per chunk --
        see :mod:`repro.kernels` and ``docs/kernels.md``).
        *admission* installs an admission controller at the arrival seam
        (policy name/spec or instance; the default ``None``/"none" is
        accept-all and bit-identical to the pre-admission engine -- see
        :mod:`repro.admission` and ``docs/admission.md``).

        Example -- three queries, then one scheduled through an explicit
        kernel, against an 8-server testbed::

            >>> from repro.cluster import (Deployment, DeploymentConfig,
            ...                            hen_testbed)
            >>> dep = Deployment(DeploymentConfig(models=hen_testbed(8),
            ...                                   p=4, seed=1))
            >>> result = dep.run_queries_fast([0.0, 0.01, 0.02], 4)
            >>> (result.completed, result.dropped, len(dep.log.records))
            (3, 0, 3)
            >>> result.latencies.shape
            (3,)
            >>> dep.run_queries_fast([0.03], 4, kernel="exact_numpy").completed
            1
        """
        from ..sim.fastpath import run_queries_fast

        return run_queries_fast(
            self,
            arrival_times,
            pq_fn,
            record_assignments=record_assignments,
            actions=actions,
            kernel=kernel,
            admission=admission,
            updates=updates,
        )

    # -- updates (Fig 7.4) ------------------------------------------------------------
    def apply_update(self, now: float, at: float | None = None) -> None:
        """One object update: every replica holder pays the update cost.

        With replication level ``r = n/p`` an update lands on ~r servers; we
        model it as r fixed-cost tasks on the nodes covering a replication
        arc starting at *at* in ``[0, 1)`` (default: uniform random --
        scenario workloads pass Zipf-skewed positions to model hot
        objects).  The holders are the r alive ring nodes clockwise from
        *at* (:meth:`~repro.core.ring.Ring.replica_holders`, the rule the
        batched engine applies on its mirrors too); failed servers among
        them skip the write.
        """
        r = max(1, round(self.n / self.p_store))
        primary = self.rings[0]
        start = self.rng.random() if at is None else at
        holders = primary.replica_holders(start, r)
        if not holders:
            return
        nodes = primary.nodes()
        cost_items = self.config.update_cost  # seconds of server time
        for i in holders:
            server = self.servers[nodes[i].name]
            if not server.failed:
                server.submit(now, cost_items * server.speed)
        self.ledger.record_update(r)

    # -- reporting ------------------------------------------------------------------
    def mean_cpu_load(self, elapsed: float) -> float:
        loads = [s.utilisation(elapsed) for s in self.servers.values()]
        return sum(loads) / len(loads)

    def per_node_load(self, elapsed: float) -> dict[str, float]:
        return {name: s.utilisation(elapsed) for name, s in self.servers.items()}

    def energy(self, elapsed: float) -> EnergyReport:
        return measure_energy(
            self.servers.values(), elapsed, model_of=self.model_of
        )

    def reset_measurements(self) -> None:
        for server in self.servers.values():
            server.reset()
        self.log = DelayLog()
        self.breakdowns = BreakdownLog()
        self.ledger = TrafficLedger()
        self.scheduling_wallclock = 0.0


class DynamicPController:
    """Tracks a delay target by adjusting pq (and p via reconfiguration).

    The Fig 7.5 behaviour: when the rolling mean delay exceeds the target,
    raise pq (more parallelism, immediately safe); when delay is comfortably
    below target, lower pq toward the stored level -- and if the floor is
    the binding constraint, ask the reconfigurator to *decrease* p (grow
    replicas) so a lower pq becomes safe once downloads finish.
    """

    def __init__(
        self,
        deployment: Deployment,
        target_delay: float,
        window: int = 25,
        headroom: float = 0.6,
        pq_min: int = 2,
        pq_max: int | None = None,
    ) -> None:
        self.deployment = deployment
        self.target = target_delay
        self.window = window
        self.headroom = headroom
        self.pq_min = pq_min
        self.pq_max = pq_max or deployment.n
        self.pq = max(int(math.ceil(deployment.p_store)), pq_min)
        self.history: list[tuple[float, int, float]] = []  # (time, pq, mean delay)

    def rolling_mean_delay(self) -> float:
        records = self.deployment.log.records[-self.window :]
        if not records:
            return 0.0
        return sum(r.delay for r in records) / len(records)

    def step(self, now: float) -> int:
        """Re-evaluate pq after recent queries; returns the pq to use."""
        mean = self.rolling_mean_delay()
        floor = int(math.ceil(self.deployment.p_store - 1e-9))
        if mean > self.target and self.pq < self.pq_max:
            self.pq = min(self.pq_max, max(self.pq + 1, int(self.pq * 1.25)))
        elif mean < self.headroom * self.target and self.pq > max(floor, self.pq_min):
            self.pq = max(floor, self.pq_min, self.pq - 1)
        self.pq = max(self.pq, floor)
        self.history.append((now, self.pq, mean))
        return self.pq
