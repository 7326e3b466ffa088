"""Control policies: observe a :class:`MetricsSnapshot`, actuate the system.

Two knobs make ROAR elastic (Sections 4.5 / 4.9):

* the **server set** -- the membership server can insert servers at hot
  spots or drain cool ones (the cloud "add/remove machines" knob);
* the **partitioning level** -- ``p`` (and the query-time ``pq``) trade
  per-server work against per-sub-query fixed overheads, and can be walked
  online through :class:`~repro.core.reconfig.Reconfigurator`.

Controllers here close the loop over those knobs.  They never touch the
deployment directly: every actuation goes through a :class:`ControlTarget`
adapter -- :class:`DeploymentActuator` over a full
:class:`~repro.cluster.Deployment` in the scenario runner, a stub in unit
tests.

The policy style follows threshold controllers from congestion control
(AIMD flavoured): react multiplicatively-ish to SLO violations, recover
conservatively, and impose a cooldown so the loop cannot oscillate faster
than its own measurement window.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

from ..cluster.models import MODEL_CATALOGUE
from ..core.reconfig import ReconfigPhase
from .metrics import MetricsSnapshot

if TYPE_CHECKING:
    from ..cluster.deployment import Deployment
    from ..scenarios.spec import ControlSpec
    from ..sim.engine import Simulation

__all__ = [
    "ControlAction",
    "ControlTarget",
    "DeploymentActuator",
    "FrontendPool",
    "Controller",
    "SLOElasticityController",
    "RepartitionController",
    "FrontendElasticityController",
]


@dataclass(frozen=True)
class ControlAction:
    """One actuation, kept for the scenario audit trail."""

    time: float
    controller: str
    kind: str  # add_server | remove_server | set_pq | request_p | ...
    detail: str
    value: float | None = None


class ControlTarget(Protocol):
    """What a deployment must expose for the controllers to drive it."""

    @property
    def n_servers(self) -> int: ...

    @property
    def pq(self) -> int: ...

    @property
    def p_store(self) -> float: ...

    @property
    def reconfig_stable(self) -> bool: ...

    @property
    def p_safety_cap(self) -> int | None:
        """Highest p the data layer tolerates right now (None = unbounded).

        With failed nodes on the ring, replacement sub-queries need
        ``1/p`` to exceed the widest dead range (Section 4.4)."""
        ...

    def set_pq(self, pq: int) -> None: ...

    def request_p(self, p_new: int) -> bool: ...

    def add_server(self) -> str: ...

    def remove_server(self) -> str | None: ...


class DeploymentActuator:
    """:class:`ControlTarget` over a :class:`~repro.cluster.Deployment`.

    Owns the live ``pq`` setting and translates controller intents into
    deployment edits; replica movement for level changes is spread across
    simulated time via per-node reconfiguration steps scheduled on *sim*
    (``control.drop_seconds`` / ``control.grow_seconds`` across the ring).
    """

    def __init__(
        self, deployment: "Deployment", sim: "Simulation", control: "ControlSpec"
    ) -> None:
        self.deployment = deployment
        self.sim = sim
        self.control = control
        self.pq = int(math.ceil(deployment.p_store - 1e-9))

    @property
    def n_servers(self) -> int:
        return len(self.deployment.servers)

    @property
    def p_store(self) -> float:
        return self.deployment.p_store

    @property
    def reconfig_stable(self) -> bool:
        rc = self.deployment.reconfig
        return rc is None or rc.phase == ReconfigPhase.STABLE

    @property
    def p_safety_cap(self) -> int | None:
        worst = self.deployment.max_dead_range()
        if worst <= 0.0:
            return None
        return max(1, int(1.0 / worst - 1e-6))

    def set_pq(self, pq: int) -> None:
        floor = int(math.ceil(self.deployment.p_store - 1e-9))
        self.pq = max(int(pq), floor, 1)

    def request_p(self, p_new: int) -> bool:
        rc = self.deployment.reconfig
        if rc is None or rc.phase != ReconfigPhase.STABLE:
            return False
        if p_new == rc.p_target:
            return False
        status = rc.request_p(p_new)
        span = (
            self.control.drop_seconds
            if status.phase == ReconfigPhase.SHRINKING_REPLICAS
            else self.control.grow_seconds
        )
        names = sorted(node.name for node in rc.ring)
        for i, name in enumerate(names):
            self.sim.schedule(
                span * (i + 1) / len(names), lambda n=name: rc.node_step(n)
            )
        return True

    def add_server(self) -> str:
        model = MODEL_CATALOGUE[self.control.growth_model]
        return self.deployment.add_server(model, now=self.sim.now)

    def remove_server(self) -> str | None:
        ring = self.deployment.rings[0]
        if len(ring) <= 1:
            return None
        cool = self.deployment.membership.coolest_node(ring)
        if cool is None:
            return None
        self.deployment.remove_server(cool.name, now=self.sim.now)
        return cool.name


class FrontendPool(Protocol):
    """Actuation surface for front-end scaling."""

    @property
    def n_frontends(self) -> int: ...

    def add_frontend(self) -> None: ...

    def remove_frontend(self) -> None: ...


class Controller(ABC):
    """Base class: cooldown gating plus an action audit trail."""

    name = "controller"

    def __init__(self, cooldown: float = 10.0) -> None:
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        self.cooldown = cooldown
        self.actions: list[ControlAction] = []
        self._last_action = -math.inf
        #: optional :class:`~repro.obs.events.DecisionLog`; when attached,
        #: every tick leaves a structured record -- actions with their
        #: inputs, and explicit holds with the reason (no-signal /
        #: cooldown / steady).
        self.decision_log = None

    def step(
        self,
        now: float,
        snapshot: MetricsSnapshot,
        query_index: int = -1,
    ) -> list[ControlAction]:
        """Evaluate the policy once; returns the actions it took.

        *query_index* is the exact arrival-stream index the tick landed
        at (from the engine's action queue); it only feeds the attached
        decision log and never influences the policy.
        """
        log = self.decision_log
        if snapshot.n_queries == 0:
            if log is not None:
                log.record_hold(now, query_index, self.name, "no-signal", snapshot)
            return []  # no signal yet; don't steer blind
        if now - self._last_action < self.cooldown:
            if log is not None:
                log.record_hold(now, query_index, self.name, "cooldown", snapshot)
            return []
        actions = self.decide(now, snapshot)
        if actions:
            self._last_action = now
            self.actions.extend(actions)
            if log is not None:
                for action in actions:
                    log.record_action(action, query_index, snapshot)
        elif log is not None:
            log.record_hold(now, query_index, self.name, "steady", snapshot)
        return actions

    @abstractmethod
    def decide(self, now: float, snapshot: MetricsSnapshot) -> list[ControlAction]:
        """Policy body; called only when the cooldown has expired."""

    def _act(
        self, now: float, kind: str, detail: str, value: float | None = None
    ) -> ControlAction:
        return ControlAction(now, self.name, kind, detail, value)


class SLOElasticityController(Controller):
    """Grow/shrink the server set to hold a p99 latency SLO.

    Scale-out triggers on either signal: the tail SLO is violated, or mean
    utilisation exceeds the high watermark (the queueing knee is close).
    The step size scales with how badly the SLO is blown -- a flash crowd
    that pushes p99 to several times the target gets several servers per
    decision, not a one-at-a-time drip that loses the race with the queue.
    Scale-in requires *both* comfortable latency and a cool pool, retires
    one server at a time, and obeys its own (much longer) cooldown --
    growth is urgent, shrink is thrift.
    """

    name = "slo-elasticity"

    def __init__(
        self,
        target: ControlTarget,
        slo_p99: float,
        min_servers: int = 2,
        max_servers: int = 256,
        high_utilisation: float = 0.75,
        low_utilisation: float = 0.20,
        shrink_margin: float = 0.4,
        max_grow_step: int = 4,
        cooldown: float = 10.0,
        shrink_cooldown: float | None = None,
    ) -> None:
        super().__init__(cooldown)
        if slo_p99 <= 0:
            raise ValueError("slo_p99 must be positive")
        if not min_servers <= max_servers:
            raise ValueError("min_servers must be <= max_servers")
        self.target = target
        self.slo_p99 = slo_p99
        self.min_servers = min_servers
        self.max_servers = max_servers
        self.high_utilisation = high_utilisation
        self.low_utilisation = low_utilisation
        self.shrink_margin = shrink_margin
        self.max_grow_step = max(1, max_grow_step)
        self.shrink_cooldown = (
            6 * cooldown if shrink_cooldown is None else shrink_cooldown
        )
        self._last_shrink = -math.inf

    def _grow_step(self, p99: float, util: float) -> int:
        """Servers to add, proportional to the severity of the breach."""
        severity = 1.0
        if not math.isnan(p99):
            severity = max(severity, p99 / self.slo_p99)
        if not math.isnan(util) and self.high_utilisation > 0:
            severity = max(severity, util / self.high_utilisation)
        return min(self.max_grow_step, max(1, int(math.ceil(severity - 1.0))))

    def decide(self, now: float, snapshot: MetricsSnapshot) -> list[ControlAction]:
        p99 = snapshot.p99
        util = snapshot.mean_utilisation
        n = self.target.n_servers
        actions: list[ControlAction] = []
        # Deep queues mean work already committed beyond the next window --
        # a leading indicator the latency percentiles only confirm later.
        queued = snapshot.max_queue_depth > self.slo_p99
        hot = (
            (not math.isnan(p99) and p99 > self.slo_p99)
            or util > self.high_utilisation  # False while util is NaN
            or queued
        )
        # Shrinking demands positive evidence of idleness: a NaN utilisation
        # (no full sampling interval yet) must not read as "cool".
        cool = (
            not math.isnan(p99)
            and p99 < self.shrink_margin * self.slo_p99
            and not math.isnan(util)
            and util < self.low_utilisation
            and not queued
        )
        if hot and n < self.max_servers:
            step = min(self._grow_step(p99, util), self.max_servers - n)
            for _ in range(step):
                name = self.target.add_server()
                actions.append(
                    self._act(
                        now,
                        "add_server",
                        f"p99={p99 * 1e3:.0f}ms util={util:.0%} -> +{name}",
                        value=self.target.n_servers,
                    )
                )
        elif cool and n > self.min_servers:
            if now - self._last_shrink < self.shrink_cooldown:
                return actions
            name = self.target.remove_server()
            if name is not None:
                self._last_shrink = now
                actions.append(
                    self._act(
                        now,
                        "remove_server",
                        f"p99={p99 * 1e3:.0f}ms util={util:.0%} -> -{name}",
                        value=self.target.n_servers,
                    )
                )
        return actions


class RepartitionController(Controller):
    """Walk the partitioning level online to hold the SLO (Section 4.5).

    * Tail latency above the SLO, or load imbalance past the threshold:
      *increase* p.  Arcs shrink, so the new level is immediately safe --
      the controller raises ``pq`` in the same tick and replica drops
      proceed in the background.  More partitioning only helps when delay
      is service-time dominated, so the step is gated on utilisation
      headroom: a saturated pool is the elasticity controller's problem,
      and adding per-sub-query overheads there makes things worse.
    * Latency comfortably under the SLO: *decrease* p to shed fixed
      overheads and query bandwidth.  Arcs grow, so queries must keep the
      old ``pq`` until every node's download completes; the deferred
      ``pq`` drop happens in a later tick once the reconfigurator
      re-stabilises.

    With *planner* set, the policy instead steps toward the partitioning
    level :func:`repro.analysis.planner.recommend_configuration` picks from
    the *measured* arrival rate -- the Chapter 2 advisor consuming live
    metrics rather than closed-form inputs.
    """

    name = "repartition"

    def __init__(
        self,
        target: ControlTarget,
        slo_p99: float,
        p_min: int = 1,
        p_max: int = 64,
        imbalance_threshold: float = 2.0,
        imbalance_latency_gate: float = 0.7,
        shrink_margin: float = 0.4,
        util_ceiling: float = 0.60,
        cooldown: float = 15.0,
        planner: Callable[[MetricsSnapshot], int | None] | None = None,
    ) -> None:
        super().__init__(cooldown)
        if slo_p99 <= 0:
            raise ValueError("slo_p99 must be positive")
        if not 1 <= p_min <= p_max:
            raise ValueError("need 1 <= p_min <= p_max")
        self.target = target
        self.slo_p99 = slo_p99
        self.p_min = p_min
        self.p_max = p_max
        self.imbalance_threshold = imbalance_threshold
        self.imbalance_latency_gate = imbalance_latency_gate
        self.shrink_margin = shrink_margin
        self.util_ceiling = util_ceiling
        self.planner = planner

    def _clamp(self, p: int) -> int:
        p = max(self.p_min, min(self.p_max, p))
        cap = self.target.p_safety_cap
        if cap is not None:
            # Availability beats the configured floor: above the cap a dead
            # node's range cannot be re-covered.
            p = min(p, max(1, cap))
        return p

    def _desired_p(self, snapshot: MetricsSnapshot) -> int:
        """Where the policy wants p, before rate limiting to one step."""
        current = self.target.pq
        if self.planner is not None:
            rec = self.planner(snapshot)
            if rec is not None:
                return self._clamp(rec)
            return self._clamp(current)
        p99 = snapshot.p99
        util = snapshot.mean_utilisation
        latency_hot = not math.isnan(p99) and p99 > self.slo_p99
        # Heterogeneous pools show chronic max/mean skew even when healthy;
        # imbalance only justifies more partitioning when the tail is
        # actually approaching the SLO, otherwise p ratchets up for nothing.
        imbalanced = (
            snapshot.load_imbalance > self.imbalance_threshold
            and not math.isnan(util)
            and util > 0.05
            and not math.isnan(p99)
            and p99 > self.imbalance_latency_gate * self.slo_p99
        )
        if (latency_hot or imbalanced) and (
            not math.isnan(util) and util < self.util_ceiling
        ):
            return self._clamp(current + 1)
        if not math.isnan(p99) and p99 < self.shrink_margin * self.slo_p99:
            return self._clamp(current - 1)
        return self._clamp(current)

    def decide(self, now: float, snapshot: MetricsSnapshot) -> list[ControlAction]:
        actions: list[ControlAction] = []
        if not self.target.reconfig_stable:
            return actions  # one level change in flight at a time
        floor = int(math.ceil(self.target.p_store - 1e-9))
        desired = self._desired_p(snapshot)
        current = self.target.pq
        if desired == current:
            return actions
        step = current + 1 if desired > current else current - 1
        if step > current:
            # p up: shrinking arcs, instantly safe to raise pq.
            if self.target.request_p(step):
                self.target.set_pq(step)
                actions.append(
                    self._act(
                        now,
                        "request_p",
                        f"p {current} -> {step} (shrink arcs; pq raised now)",
                        value=step,
                    )
                )
        else:
            if step < floor:
                # Must first re-replicate down to `step`; queries keep the
                # old pq until the downloads complete.
                if self.target.request_p(step):
                    actions.append(
                        self._act(
                            now,
                            "request_p",
                            f"p {floor} -> {step} (grow arcs; pq drops when "
                            "downloads finish)",
                            value=step,
                        )
                    )
            else:
                # Replicas already cover the lower level; drop pq directly.
                self.target.set_pq(step)
                actions.append(
                    self._act(
                        now, "set_pq", f"pq {current} -> {step}", value=step
                    )
                )
        return actions


class FrontendElasticityController(Controller):
    """Scale the number of decoupled front-ends over a shared pool.

    Front-end pressure shows up as *scheduling* latency, not server load:
    the signal is queries-per-second per front-end against a nominal
    capacity, with the p99 SLO as an emergency trigger.
    """

    name = "frontend-elasticity"

    def __init__(
        self,
        pool: FrontendPool,
        qps_per_frontend: float,
        slo_p99: float | None = None,
        min_frontends: int = 1,
        max_frontends: int = 16,
        cooldown: float = 10.0,
    ) -> None:
        super().__init__(cooldown)
        if qps_per_frontend <= 0:
            raise ValueError("qps_per_frontend must be positive")
        self.pool = pool
        self.qps_per_frontend = qps_per_frontend
        self.slo_p99 = slo_p99
        self.min_frontends = min_frontends
        self.max_frontends = max_frontends

    def decide(self, now: float, snapshot: MetricsSnapshot) -> list[ControlAction]:
        k = self.pool.n_frontends
        per_fe = snapshot.qps / max(k, 1)
        slo_breach = (
            self.slo_p99 is not None
            and not math.isnan(snapshot.p99)
            and snapshot.p99 > self.slo_p99
        )
        actions: list[ControlAction] = []
        if (per_fe > self.qps_per_frontend or slo_breach) and k < self.max_frontends:
            self.pool.add_frontend()
            actions.append(
                self._act(
                    now,
                    "add_frontend",
                    f"{per_fe:.1f} qps/frontend over {self.qps_per_frontend:.1f}",
                    value=self.pool.n_frontends,
                )
            )
        elif per_fe < 0.4 * self.qps_per_frontend and k > self.min_frontends:
            self.pool.remove_frontend()
            actions.append(
                self._act(
                    now,
                    "remove_frontend",
                    f"{per_fe:.1f} qps/frontend under capacity",
                    value=self.pool.n_frontends,
                )
            )
        return actions
