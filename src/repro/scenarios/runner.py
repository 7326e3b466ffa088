"""Executes a declarative :class:`~repro.scenarios.spec.Scenario`.

One runner drives every layer the same way regardless of what the scenario
throws at it: the deployment serves the arrival trace (on the batched fast
path by default, or the per-query reference path), timed events and churn
edit the membership, Zipf-skewed updates heat replica holders, and -- when a
:class:`ControlSpec` is present -- the control plane (metrics collector,
SLO elasticity, online re-partitioning, optionally steered by the
live-metrics planner) closes the loop at its tick interval, actuating
through a :class:`~repro.control.controllers.DeploymentActuator`.  The
``repro control`` closed loops are ordinary scenarios
(:func:`~repro.scenarios.matrix.control_scenario`) run here.

Execution has **exact event-time semantics**: the stimulus timeline is
compiled with numpy (:func:`compile_timeline`) to exact query indices.
Every event, churn tick, control tick and admission tick becomes an
:class:`~repro.sim.fastpath.Action` callback bound to the query index
where its timestamp falls, and the object updates stay one ``(n, 2)``
array of ``(time, position)`` rows from the draw to the kernel, each
bound to the query it precedes.  The batched engine fires each callback
*between those two queries* with fully materialised deployment state,
and applies the updates as data on its own mirrors, so a mid-batch
update is visible to the very next query, at full batch speed.  The
``engine="reference"`` backend replays the same timeline through the
per-query path, so both engines agree on *when* every stimulus lands.
Discrete-event work scheduled on the internal
:class:`~repro.sim.engine.Simulation` (reconfiguration node steps,
delayed elastic grows) is pumped at every callback, and at the first
update of each run of same-index updates when the scenario has a control
spec or a repartition event, its only sources.  Every random choice
derives from ``Scenario.seed``; two runs of one scenario are identical.
"""

from __future__ import annotations

import contextlib
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as _np

from ..cluster.deployment import Deployment, DeploymentConfig
from ..cluster.models import MODEL_CATALOGUE, ServerModel, ec2_fleet, hen_testbed
from ..control.controllers import (
    Controller,
    DeploymentActuator,
    RepartitionController,
    SLOElasticityController,
)
from ..control.metrics import MetricsCollector
from ..core.reconfig import ReconfigPhase
from ..sim.engine import Simulation
from ..sim.energy import PowerProfile
from ..sim.fastpath import Action, run_queries_reference
from ..sim.workload import (
    batched_arrivals_from_rate_fn,
    batched_uniform_times,
    zipf_update_times,
)
from ..traces.spec import TraceSpec
from .spec import Scenario

__all__ = [
    "ScenarioExecution",
    "ScenarioResult",
    "auto_rate",
    "build_deployment",
    "build_models",
    "compile_timeline",
    "execute_scenario",
    "generate_arrivals",
    "run_scenario_spec",
]

ENGINES = ("batched", "reference")


# -- fleet construction -------------------------------------------------------
def build_models(scenario: Scenario) -> list[ServerModel]:
    if scenario.fleet == "hen":
        return hen_testbed(scenario.n_servers)
    if scenario.fleet == "ec2":
        return ec2_fleet(scenario.n_servers, seed=scenario.seed + 17)
    if scenario.fleet == "uniform":
        return [MODEL_CATALOGUE["dell-1950"]] * scenario.n_servers
    # custom: explicit per-server speeds (cores=1 so speed() == match_rate).
    base = MODEL_CATALOGUE["dell-1950"]
    return [
        ServerModel(
            name=f"custom-{i}",
            cores=1,
            match_rate=speed,
            disk_rate=speed,
            fixed_overhead=base.fixed_overhead,
            power=PowerProfile(idle_watts=200.0, busy_watts=300.0),
        )
        for i, speed in enumerate(scenario.speeds or ())
    ]


def auto_rate(
    models: Sequence[ServerModel],
    p: int,
    dataset_size: float,
    target_util: float = 0.35,
) -> float:
    """Arrival rate putting the pool at roughly *target_util* utilisation."""
    mean_speed = sum(m.speed(True) for m in models) / len(models)
    mean_fixed = sum(m.fixed_overhead for m in models) / len(models)
    service = mean_fixed + (dataset_size / p) / mean_speed
    return target_util * len(models) / (p * service)


def build_deployment(scenario: Scenario) -> Deployment:
    return Deployment(
        DeploymentConfig(
            models=build_models(scenario),
            p=scenario.p,
            n_rings=scenario.n_rings,
            dataset_size=scenario.dataset_size,
            seed=scenario.seed,
            store_objects=scenario.needs_stores,
            n_objects_stored=scenario.n_objects_stored,
            charge_scheduling=False,  # scenarios pin simulated latency only
        )
    )


# -- workload -----------------------------------------------------------------
def _vector_rate_fn(scenario: Scenario):
    """Array-capable rate(t) for the batched thinning sampler."""
    w = scenario.workload
    d = w.duration
    if w.kind == "poisson":
        rate = w.rate
        return (lambda t: _np.full_like(_np.asarray(t, dtype=float), rate)), rate
    if w.kind == "diurnal":
        amp = (w.peak_to_trough - 1.0) / (w.peak_to_trough + 1.0)
        base = w.rate

        def rate_fn(t):
            # start at the trough, peak mid-run
            return base * (
                1.0 + amp * _np.sin(2.0 * _np.pi * _np.asarray(t) / d - _np.pi / 2.0)
            )

        return rate_fn, base * (1.0 + amp)
    if w.kind == "flash-crowd":
        base = w.rate
        peak = base * w.surge_factor
        t0 = w.surge_start_frac * d
        t1 = t0 + w.surge_duration_frac * d
        decay = max(w.decay_frac * d, 1e-9)

        def rate_fn(t):
            t = _np.asarray(t, dtype=float)
            after = base + (peak - base) * _np.exp(-(t - t1) / decay)
            return _np.where(t < t0, base, _np.where(t <= t1, peak, after))

        return rate_fn, peak
    if w.kind == "ramp":
        end = w.end_rate if w.end_rate is not None else 2.0 * w.rate

        def rate_fn(t):
            t = _np.asarray(t, dtype=float)
            fracs = _np.clip(t / d, 0.0, 1.0)
            return w.rate + fracs * (end - w.rate)

        return rate_fn, max(w.rate, end)
    raise ValueError(f"no rate function for workload kind {w.kind!r}")


def generate_arrivals(scenario: Scenario) -> "_np.ndarray":
    """The scenario's full arrival trace (identical for either engine)."""
    w = scenario.workload
    if isinstance(w, TraceSpec):
        return w.load().arrivals
    if w.kind == "replay":
        return _np.asarray(sorted(w.trace or ()), dtype=float)
    if w.kind == "uniform":
        return batched_uniform_times(w.rate, w.duration)
    rate_fn, max_rate = _vector_rate_fn(scenario)
    return batched_arrivals_from_rate_fn(
        rate_fn, horizon=w.duration, max_rate=max_rate, seed=scenario.seed + 101
    )


def _generate_updates(scenario: Scenario, horizon: float) -> "_np.ndarray":
    """Zipf-skewed update stream: ``(n, 2)`` (time, ring position) rows."""
    spec = scenario.updates
    if spec is None:
        return _np.empty((0, 2))
    return zipf_update_times(
        spec.rate,
        horizon,
        hotspots=spec.hotspots,
        zipf_s=spec.zipf_s,
        jitter=spec.jitter,
        seed=scenario.seed + 211,
    )


def compile_timeline(arrivals, updates, callback_times, pump: bool) -> tuple:
    """Bind a run's stimulus timeline to exact query indices, with numpy.

    *updates* is the run's ``(n, 2)`` float64 array of ``(time,
    position)`` rows in insertion order (the seed-drawn updates, then the
    trace's); *callback_times* holds the callback entries' times (events,
    churn, control and admission ticks) in their ``(time, priority,
    sequence)`` order.  Every entry lands before the first query that
    arrives strictly after it.

    Returns ``(q, rows, cb_index, cb_place, pump_place)``:

    * ``rows``: the updates in time order -- one stable sort, so
      same-time updates keep insertion order -- and ``q``, the index of
      the query each precedes;
    * ``cb_index`` and ``cb_place``: each callback's query index and its
      place in ``rows``.  The updates at or before a callback's time come
      first, so an update at the same instant goes before it;
    * ``pump_place``: with *pump*, the first row of each maximal group of
      same-index updates with no callback between them (each group gets
      one pump callback there); empty without.
    """
    rows = updates[_np.argsort(updates[:, 0], kind="stable")]
    times = _np.ascontiguousarray(rows[:, 0])
    q = _np.searchsorted(arrivals, times, side="right")
    callback_times = _np.asarray(callback_times, dtype=_np.float64)
    cb_index = _np.searchsorted(arrivals, callback_times, side="right")
    cb_place = _np.searchsorted(times, callback_times, side="right")
    pump_place = _np.empty(0, dtype=_np.intp)
    if pump and len(q):
        split = cb_place[(cb_place > 0) & (cb_place < len(q))]
        pump_place = _np.unique(
            _np.concatenate(([0], _np.flatnonzero(_np.diff(q)) + 1, split))
        )
    return q, rows, cb_index, cb_place, pump_place


# -- results ------------------------------------------------------------------
@dataclass
class ScenarioExecution:
    """Raw outcome of one scenario execution (pre-summary).

    What the differential tests consume: the live deployment,
    the engine's array-backed :class:`~repro.sim.fastpath.BatchResult`
    (including per-query assignments when requested), and the execution
    bookkeeping the summary layer folds into a :class:`ScenarioResult`.
    """

    scenario: Scenario
    engine: str
    kernel: str
    deployment: Deployment
    batch: object  # BatchResult
    servers_start: int
    horizon: float
    updates_applied: int
    events_applied: int
    controllers: list
    pq_end: int
    notes: list[str]
    wall_seconds: float
    #: the control plane's :class:`~repro.obs.events.DecisionLog` (None
    #: when the scenario has no control spec).
    decisions: object = None
    #: the admission controller (an
    #: :class:`~repro.admission.base.AdmissionPolicy` carrying its
    #: :class:`~repro.obs.events.ShedLog`); None when the scenario
    #: has no admission spec or the policy is accept-all.
    admission: object = None
    #: the run's provenance manifest (:mod:`repro.obs.manifest`), as its
    #: archive or recording carries it.
    manifest: Optional[dict] = None


@dataclass
class ScenarioResult:
    """Comparable metrics for one scenario run."""

    scenario: Scenario
    engine: str
    kernel: str
    offered: int
    completed: int
    dropped: int
    yield_fraction: float
    mean_delay: float
    p99_delay: float
    max_delay: float
    throughput: float
    mean_utilisation: float
    servers_start: int
    servers_end: int
    p_store_end: float
    pq_end: int
    updates_applied: int
    events_applied: int
    control_actions: int
    #: what the Chapter 2 capacity advisor would have picked for this load.
    planned_p: int | None
    wall_seconds: float
    fast_fraction: float
    #: queries refused by the admission controller (0 without one).
    shed: int = 0
    #: shed / offered.
    shed_rate: float = 0.0
    #: completed queries meeting the admission SLO, per second of horizon
    #: (NaN when the scenario has no admission spec to define the SLO).
    goodput: float = math.nan
    #: the admission SLO the goodput column is measured against.
    slo: float | None = None
    notes: list[str] = field(default_factory=list)


# -- execution ----------------------------------------------------------------
def execute_scenario(
    scenario: Scenario,
    engine: str = "batched",
    kernel: str | None = None,
    record_assignments: bool = False,
    archive_path: str | None = None,
    record_path: str | None = None,
    stimulus=None,
) -> ScenarioExecution:
    """Execute one scenario end to end; returns the raw execution.

    *kernel* overrides ``scenario.kernel`` (batched engine only).  With
    *record_assignments* the batch result carries every query's server
    set -- what the kernel differential tests compare.  *archive_path*
    streams the run's telemetry columns into a compressed archive as the
    run progresses (:class:`repro.telemetry.archive.ArchiveWriter`).

    *record_path* writes the run's archive as a recording
    (:mod:`repro.traces.record`): the drawn stimulus (arrivals +
    exact-time updates) rides in it as ``stim_*`` columns.  *stimulus*
    injects a previously recorded :class:`~repro.traces.record.Stimulus`
    instead of drawing one -- the replay half of record-then-replay --
    and the replay's archive is a recording too.  Archives written while
    recording or replaying omit the wall-clock-derived columns, so two
    such archives of the same stimulus diff byte-identically.  Given both
    *archive_path* and *record_path*, the one file is compressed once and
    copied to the second path.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; pick one of {ENGINES}")
    kernel = kernel if kernel is not None else scenario.kernel
    wall_start = time.perf_counter()
    deployment = build_deployment(scenario)
    servers_start = len(deployment.servers)
    # -- stimulus: drawn from the scenario, or injected verbatim -----------
    drawn = _np.empty((0, 2))
    if stimulus is not None:
        arrivals = _np.asarray(stimulus.arrivals, dtype=float)
        horizon = float(stimulus.horizon)
        given = stimulus.updates
    else:
        w = scenario.workload
        given = ()
        if isinstance(w, TraceSpec):
            trace = w.load()  # load once: arrivals, horizon and updates
            arrivals = trace.arrivals
            horizon = float(trace.horizon)
            given = trace.updates
        else:
            arrivals = generate_arrivals(scenario)
            horizon = float(w.horizon)
        drawn = _generate_updates(scenario, horizon)
    # seed-drawn Zipf updates first, then trace-supplied ones: the
    # timeline compile's stable sort keeps this insertion order on time
    # ties, and recordings replay the same concatenation, so record and
    # replay see identical update ordering.
    updates = _np.concatenate(
        (drawn, _np.asarray(given, dtype=_np.float64).reshape(-1, 2))
    )
    sim = Simulation()
    event_rng = random.Random(scenario.seed + 31)
    notes: list[str] = []

    # control plane (optional)
    collector: Optional[MetricsCollector] = None
    controllers: list[Controller] = []
    actuator: Optional[DeploymentActuator] = None
    ctl = scenario.control
    decision_log = None
    if ctl is not None:
        from ..obs.events import DecisionLog

        decision_log = DecisionLog()
        collector = MetricsCollector(window=ctl.metrics_window).attach(deployment)
        actuator = DeploymentActuator(deployment, sim, ctl)
        if scenario.pq is not None:
            actuator.set_pq(scenario.pq)
        if "elasticity" in ctl.policies:
            controllers.append(
                SLOElasticityController(
                    actuator,
                    slo_p99=ctl.slo_p99,
                    min_servers=ctl.min_servers or max(2, scenario.n_servers // 2),
                    max_servers=ctl.max_servers or 2 * scenario.n_servers,
                    cooldown=2 * ctl.interval,
                )
            )
        if "repartition" in ctl.policies:
            controllers.append(
                RepartitionController(
                    actuator,
                    slo_p99=ctl.slo_p99,
                    p_min=ctl.p_min or max(1, scenario.p - 2),
                    p_max=ctl.p_max
                    or max(scenario.p, min(4 * scenario.p, scenario.n_servers)),
                    cooldown=3 * ctl.interval,
                    planner=(
                        _planner_fn(scenario, deployment) if ctl.planner else None
                    ),
                )
            )
        for controller in controllers:
            controller.decision_log = decision_log

    # admission controller (optional; accept-all resolves to None so the
    # engine takes the untouched bit-identical code path)
    from ..admission.registry import build_admission

    admission_controller = build_admission(scenario.admission)

    # -- the callback entries of the stimulus timeline ---------------------
    # Same-time callbacks keep the boundary order events, churn, control,
    # admission; an update at the same instant goes before all of them.
    entries: list[tuple[float, int, int, str, object]] = []  # (t, prio, seq, kind, payload)

    def add_entry(t: float, prio: int, kind: str, payload: object) -> None:
        entries.append((t, prio, len(entries), kind, payload))

    for e in scenario.events:
        if e.at <= horizon:
            add_entry(e.at, 0, "event", e)
    if scenario.churn is not None:
        c = scenario.churn
        stop = c.stop if c.stop is not None else horizon
        t = c.start + c.interval
        while t <= min(stop, horizon):
            add_entry(t, 1, "churn", c)
            t += c.interval
    if ctl is not None:
        t = ctl.interval
        while t <= horizon:
            add_entry(t, 2, "control", None)
            t += ctl.interval
    if admission_controller is not None:
        t = scenario.admission.tick
        while t <= horizon:
            add_entry(t, 3, "admission", None)
            t += scenario.admission.tick
    entries.sort(key=lambda en: en[:3])

    current_pq = scenario.pq or scenario.p
    events_applied = 0

    def pq_now() -> int:
        return actuator.pq if actuator is not None else current_pq

    def apply_event(e, now: float) -> None:
        nonlocal current_pq, events_applied
        events_applied += 1
        alive = sorted(
            n for n, s in deployment.servers.items() if not s.failed
        )
        if e.action == "fail":
            names = [e.target] if e.target else event_rng.sample(
                alive, min(e.count, len(alive))
            )
            for name in names:
                deployment.fail_node(name, now)
        elif e.action == "fail-rack":
            by_idx = sorted(alive, key=lambda n: int(n.split("-")[-1]))
            hi = max(1, len(by_idx) - e.count)
            start = e.value if e.value is not None else event_rng.randrange(hi)
            for name in by_idx[start : start + e.count]:
                deployment.fail_node(name, now)
        elif e.action == "rebuild":
            dead = [n for n, s in deployment.servers.items() if s.failed]
            for name in [e.target] if e.target else dead:
                if name in deployment.servers and deployment.servers[name].failed:
                    try:
                        deployment.handle_long_term_failure(name, now=now)
                    except ValueError:
                        notes.append(f"rebuild skipped last node {name}")
        elif e.action == "recover":
            dead = [n for n, s in deployment.servers.items() if s.failed]
            for name in [e.target] if e.target else dead:
                if name in deployment.servers:
                    deployment.recover_node(name, now)
        elif e.action == "add-server":
            for _ in range(e.count):
                deployment.add_server(MODEL_CATALOGUE[e.model], now=now)
        elif e.action == "remove-server":
            for _ in range(e.count):
                if e.target and e.target in deployment.servers:
                    name = e.target
                else:
                    cool = deployment.membership.coolest_node(deployment.rings[0])
                    name = cool.name if cool else None
                if name is None:
                    break
                try:
                    deployment.remove_server(name, now=now)
                except ValueError:
                    notes.append("remove-server skipped (last ring node)")
                    break
        elif e.action == "rebalance":
            deployment.membership.move_cool_to_hot(0)
        elif e.action == "set-pq":
            current_pq = max(
                int(e.value), int(math.ceil(deployment.p_store - 1e-9))
            )
            if actuator is not None:
                actuator.set_pq(int(e.value))
        elif e.action == "repartition":
            if actuator is not None:
                if actuator.request_p(int(e.value)):
                    actuator.set_pq(max(actuator.pq, int(e.value)))
            else:
                _repartition_inline(deployment, sim, int(e.value), notes)
                # raising p shrinks arcs: pq must follow immediately
                # (Section 4.5); lowering p leaves pq at the old floor until
                # the downloads complete.
                current_pq = max(current_pq, int(e.value))

    def apply_churn(c, t: float) -> None:
        nonlocal events_applied
        events_applied += 1
        for _ in range(c.add):
            deployment.add_server(MODEL_CATALOGUE[c.model], now=t)
        for _ in range(c.remove):
            cool = deployment.membership.coolest_node(deployment.rings[0])
            if cool is None or len(deployment.rings[0]) <= max(2, scenario.p):
                break
            try:
                deployment.remove_server(cool.name, now=t)
            except ValueError:
                break

    def apply_control(t: float, query_index: int = -1) -> None:
        assert collector is not None
        collector.sample_servers(t, deployment.servers)
        snapshot = collector.snapshot(t)
        for controller in controllers:
            controller.step(t, snapshot, query_index=query_index)

    # Scope tells the batched engine how much mirror state an action may
    # have invalidated.  The simulation pump can fire delayed elastic
    # grow/shrink callbacks whenever a control loop is active, so every
    # action is conservatively "membership" in that case.
    # set-pq mutates no server state itself, but its fire() still pumps the
    # simulation, which can complete an in-flight repartition -- "busy"
    # re-reads p_store (and queues) so the engine's mirror stays exact.
    _EVENT_SCOPES = {
        "fail": "values",
        "recover": "values",
        "fail-rack": "values",
        "set-pq": "busy",
    }
    # Only the control actuator and event-driven repartitions schedule
    # simulation work, so only then do update groups get a pump callback.
    pump = ctl is not None or any(e.action == "repartition" for e in scenario.events)

    def make_action(t: float, kind: str, payload: object, index: int, place: int) -> Action:
        def fire(now: float) -> int:
            sim.run(until=now)  # fire pending reconfiguration steps
            if kind == "event":
                apply_event(payload, now)
            elif kind == "churn":
                apply_churn(payload, now)
            elif kind == "control":
                # the action's own index IS the tick's exact position in
                # the arrival stream -- it lands in the decision log
                apply_control(now, query_index=index)
            elif kind == "admission":
                admission_controller.tick(now, query_index=index)
            return pq_now()

        if ctl is not None:
            scope = "membership"
        elif kind == "event":
            scope = _EVENT_SCOPES.get(payload.action, "membership")
        elif kind in ("admission", "pump"):
            # mutates controller state only (or nothing), but the fire()
            # pump can complete an in-flight event-driven repartition
            # (see set-pq)
            scope = "busy"
        else:
            scope = "membership"
        return Action(index=index, time=t, fn=fire, scope=scope, stream_pos=place)

    # -- compile the timeline to exact query indices -------------------------
    q, update_rows, cb_index, cb_place, pump_place = compile_timeline(
        arrivals, updates, [en[0] for en in entries], pump
    )
    actions = [
        make_action(t, kind, payload, index, place)
        for (t, _, _, kind, payload), index, place in zip(
            entries, cb_index.tolist(), cb_place.tolist()
        )
    ]
    # a pump goes after any callback at its place: ties keep list order
    actions += [
        make_action(t, "pump", None, index, place)
        for t, index, place in zip(
            update_rows[pump_place, 0].tolist(),
            q[pump_place].tolist(),
            pump_place.tolist(),
        )
    ]

    # telemetry archive: streamed append-per-chunk during the run, so a
    # day-scale trace replay never holds its columns in memory twice.
    # Record/replay archives omit the wall-clock columns -- those measure
    # this machine, not the simulated system, and would break the
    # bit-identity diff between a recorded run and its replay.
    archive_writer = None
    as_recording = record_path is not None or stimulus is not None
    if archive_path is not None or record_path is not None:
        from ..telemetry.archive import ArchiveWriter

        archive_writer = ArchiveWriter(
            record_path if record_path is not None else archive_path,
            meta={
                "scenario": scenario.name,
                "engine": engine,
                "seed": scenario.seed,
                "n_servers": scenario.n_servers,
                "p": scenario.p,
            },
            wall_columns=not as_recording,
        )
        deployment.chunk_listeners.append(archive_writer)

    # drive it: one engine call, stimuli land at exact query indices
    try:
        if engine == "batched":
            from ..kernels import get_kernel
            from ..kernels.registry import canonical_spec

            # resolve once (the engine reuses the instance) and report the
            # registry name, aliases resolved
            kernel_obj = get_kernel(kernel)
            kernel_name = (
                canonical_spec(kernel) if isinstance(kernel, str) else kernel_obj.name
            )
            batch_result = deployment.run_queries_fast(
                arrivals,
                pq_now(),
                actions=actions,
                kernel=kernel_obj,
                record_assignments=record_assignments,
                admission=admission_controller,
                updates=(q, update_rows),
            )
        else:
            batch_result = run_queries_reference(
                deployment,
                arrivals,
                pq_now(),
                actions=actions,
                record_assignments=record_assignments,
                admission=admission_controller,
                updates=(q, update_rows),
            )
            kernel_name = "reference"
        sim.run(until=horizon)  # drain sim work scheduled after the last action
    except BaseException:
        if archive_writer is not None:
            archive_writer.abort()
        raise

    from ..obs.manifest import build_manifest
    from .spec import scenario_to_dict

    manifest = build_manifest(
        kernel=kernel_name,
        seeds={"scenario": scenario.seed},
        config=scenario_to_dict(scenario),
        extra={"engine": engine},
    )

    if archive_writer is not None:
        deployment.chunk_listeners.remove(archive_writer)
        close_meta = {"kernel": kernel_name, "manifest": manifest}
        extra_columns = None
        if decision_log is not None:
            # decision records are simulated-time quantities: they diff
            # bit-identically across engines, unlike wall-clock columns
            extra_columns = decision_log.columns()
            close_meta["decisions"] = decision_log.meta(window=ctl.metrics_window)
        if admission_controller is not None:
            # shed_*/adm_* rows are simulated-time too
            extra_columns = {
                **(extra_columns or {}),
                **admission_controller.log.columns(),
            }
            close_meta["admission"] = admission_controller.meta()
        if as_recording:
            from ..traces.record import Stimulus, write_recording

            write_recording(
                archive_writer,
                scenario,
                stimulus
                if stimulus is not None
                else Stimulus(arrivals=arrivals, updates=updates, horizon=horizon),
                dropped=deployment.log.dropped,
                meta=close_meta,
                extra_columns=extra_columns,
            )
        else:
            archive_writer.close(
                dropped=deployment.log.dropped,
                meta=close_meta,
                extra_columns=extra_columns,
            )
        if archive_path is not None and record_path is not None:
            with contextlib.suppress(shutil.SameFileError):  # one path for both
                shutil.copyfile(record_path, archive_path)

    return ScenarioExecution(
        scenario=scenario,
        engine=engine,
        kernel=kernel_name,
        deployment=deployment,
        batch=batch_result,
        servers_start=servers_start,
        horizon=horizon,
        updates_applied=len(updates),
        events_applied=events_applied,
        controllers=controllers,
        pq_end=pq_now(),
        notes=notes,
        wall_seconds=time.perf_counter() - wall_start,
        decisions=decision_log,
        admission=admission_controller,
        manifest=manifest,
    )


def run_scenario_spec(
    scenario: Scenario,
    engine: str = "batched",
    kernel: str | None = None,
    archive_path: str | None = None,
) -> ScenarioResult:
    """Execute one scenario end to end and summarise it."""
    ex = execute_scenario(
        scenario, engine=engine, kernel=kernel, archive_path=archive_path
    )
    deployment = ex.deployment
    horizon = ex.horizon
    log = deployment.log
    delays = log.delays()
    completed = len(delays)
    batch = ex.batch
    shed = getattr(batch, "shed", 0)
    offered = completed + log.dropped + shed
    mean_delay = (sum(delays) / completed) if completed else math.nan
    control_actions = sum(len(c.actions) for c in ex.controllers)
    planned = _planned_p(scenario, deployment, offered, horizon)
    elapsed = max(horizon, 1e-9)
    fast_n = batch.fast_scheduled
    delegated_n = batch.delegated
    # goodput = completed queries meeting the admission SLO, per second;
    # only defined when the scenario declares an SLO (AdmissionSpec) --
    # the Contracts-style overload column where accept-all loses
    slo = scenario.admission.slo if scenario.admission is not None else None
    if slo is not None:
        goodput = sum(1 for d in delays if d <= slo) / elapsed
    else:
        goodput = math.nan
    return ScenarioResult(
        scenario=scenario,
        engine=ex.engine,
        kernel=ex.kernel,
        offered=offered,
        completed=completed,
        dropped=log.dropped,
        yield_fraction=log.yield_fraction(),
        mean_delay=mean_delay,
        p99_delay=log.percentile_delay(99) if completed else math.nan,
        max_delay=max(delays) if completed else math.nan,
        throughput=completed / elapsed,
        mean_utilisation=deployment.mean_cpu_load(elapsed),
        servers_start=ex.servers_start,
        servers_end=len(deployment.servers),
        p_store_end=deployment.p_store,
        pq_end=ex.pq_end,
        updates_applied=ex.updates_applied,
        events_applied=ex.events_applied,
        control_actions=control_actions,
        planned_p=planned,
        wall_seconds=ex.wall_seconds,
        fast_fraction=fast_n / max(fast_n + delegated_n, 1),
        shed=shed,
        shed_rate=shed / offered if offered else 0.0,
        goodput=goodput,
        slo=slo,
        notes=ex.notes,
    )


def _repartition_inline(
    deployment: Deployment, sim: Simulation, p_new: int, notes: list[str]
) -> None:
    """Event-driven p change without a control actuator (spread over 5 s)."""
    rc = deployment.reconfig
    if rc is None:
        notes.append("repartition skipped: scenario has no object stores")
        return
    if rc.phase != ReconfigPhase.STABLE or p_new == rc.p_target:
        notes.append(f"repartition to {p_new} skipped (not stable or no-op)")
        return
    rc.request_p(p_new)
    names = sorted(node.name for node in rc.ring)
    for i, name in enumerate(names):
        sim.schedule(5.0 * (i + 1) / len(names), lambda n=name: rc.node_step(n))


def _planner_fn(scenario: Scenario, deployment: Deployment):
    """The repartition policy's planner: the capacity advisor over live
    metrics, re-reading the surviving servers' speeds at every tick."""
    from ..analysis.planner import recommend_from_metrics

    initial = deployment.servers.values()
    mean_fixed = sum(s.fixed_overhead for s in initial) / len(initial)

    def recommend(snapshot) -> int | None:
        speeds = [s.speed for s in deployment.servers.values() if not s.failed]
        if not speeds:
            return None
        rec = recommend_from_metrics(
            snapshot,
            dataset_size=scenario.dataset_size,
            speeds=speeds,
            # the advisor targets *mean* delay; mean ~ half the tail SLO
            target_delay=scenario.control.slo_p99 / 2.0,
            fixed_overhead=mean_fixed,
        )
        return rec.chosen.p if rec.chosen is not None else None

    return recommend


def _planned_p(
    scenario: Scenario, deployment: Deployment, offered: int, horizon: float
) -> int | None:
    """The analysis layer's recommendation for the load this scenario saw."""
    try:
        from ..analysis.planner import WorkloadSpec as PlannerSpec
        from ..analysis.planner import recommend_configuration

        speeds = [s.speed for s in deployment.servers.values() if not s.failed]
        if not speeds or offered == 0:
            return None
        target = (
            scenario.control.slo_p99 / 2.0 if scenario.control is not None else 0.5
        )
        rec = recommend_configuration(
            PlannerSpec(
                dataset_size=scenario.dataset_size,
                query_rate=offered / max(horizon, 1e-9),
                update_rate=scenario.updates.rate if scenario.updates else 0.0,
                target_delay=target,
                speeds=speeds,
                fixed_overhead=sum(
                    s.fixed_overhead for s in deployment.servers.values()
                )
                / len(deployment.servers),
            )
        )
        return rec.chosen.p if rec.chosen is not None else None
    except Exception:  # pragma: no cover - advisory column only
        return None
