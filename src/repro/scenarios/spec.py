"""The declarative scenario vocabulary.

Everything an adversarial environment can throw at a ROAR cluster is spelled
out as data: workload shape, object popularity, fleet heterogeneity, failure
and churn schedules, and the control policies allowed to fight back.  Specs
are frozen dataclasses so a scenario grid can be generated with
:func:`dataclasses.replace` and compared/hashed safely; every random choice
the runner makes derives from ``Scenario.seed``, so a scenario *is* its
outcome.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

__all__ = [
    "WorkloadSpec",
    "UpdateSpec",
    "ChurnSpec",
    "EventSpec",
    "ControlSpec",
    "AdmissionSpec",
    "Scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "WORKLOAD_KINDS",
    "EVENT_ACTIONS",
    "FLEETS",
]

WORKLOAD_KINDS = ("poisson", "uniform", "diurnal", "flash-crowd", "ramp", "replay")

EVENT_ACTIONS = (
    "fail",
    "fail-rack",
    "rebuild",
    "recover",
    "add-server",
    "remove-server",
    "rebalance",
    "set-pq",
    "repartition",
)

FLEETS = ("hen", "uniform", "ec2", "custom")


@dataclass(frozen=True)
class WorkloadSpec:
    """Query arrival process over ``[0, duration]``.

    ``rate`` is the base arrival rate (queries/s).  Kind-specific shape
    knobs use fractions of the duration so one spec scales across horizons:

    * ``flash-crowd``: a ``surge_factor``x plateau over
      ``[surge_start_frac, surge_start_frac + surge_duration_frac]`` with
      exponential decay (``decay_frac``);
    * ``diurnal``: one sinusoidal period with the requested
      ``peak_to_trough`` ratio, starting at the trough;
    * ``ramp``: linear climb from ``rate`` to ``end_rate``;
    * ``replay``: verbatim ``trace`` times (rate/duration ignored).

    Examples::

        >>> WorkloadSpec(kind="flash-crowd", rate=100.0, duration=60.0).horizon
        60.0
        >>> WorkloadSpec(kind="replay", trace=(0.0, 0.5, 2.0)).horizon
        2.0
        >>> WorkloadSpec(kind="warp")
        Traceback (most recent call last):
            ...
        ValueError: unknown workload kind 'warp'; pick one of ('poisson', \
'uniform', 'diurnal', 'flash-crowd', 'ramp', 'replay')
    """

    kind: str = "poisson"
    rate: float = 50.0
    duration: float = 60.0
    surge_factor: float = 4.0
    surge_start_frac: float = 0.25
    surge_duration_frac: float = 0.30
    decay_frac: float = 0.05
    peak_to_trough: float = 3.0
    end_rate: float | None = None
    trace: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; pick one of {WORKLOAD_KINDS}"
            )
        if self.kind == "replay":
            if not self.trace:
                raise ValueError("replay workloads need a non-empty trace")
        else:
            if self.rate <= 0:
                raise ValueError("rate must be positive")
            if self.duration <= 0:
                raise ValueError("duration must be positive")
            # the thinning sampler needs the peak to bound every rate
            if self.surge_factor < 1.0:
                raise ValueError("surge_factor must be >= 1")
            if self.end_rate is not None and self.end_rate <= 0:
                raise ValueError("end_rate must be positive")

    @property
    def horizon(self) -> float:
        if self.kind == "replay":
            return max(self.trace) if self.trace else 0.0
        return self.duration


@dataclass(frozen=True)
class UpdateSpec:
    """Object-update stream with Zipf popularity skew.

    ``rate`` updates/s land on ``hotspots`` ring positions whose selection
    probability follows a Zipf(``zipf_s``) rank distribution (``zipf_s=0``
    degenerates to uniform across the hotspots); each update jitters
    ``jitter`` around its hotspot so a hot *region*, not a single point,
    heats up.  This is the write-skew half of "object popularity": the
    replica holders of hot arcs pay the update cost and show up as load
    imbalance for the balancer / repartition policies to handle.

    Updates land with **exact event-time semantics**: the runner compiles
    each one to an action at the precise query index where its timestamp
    falls, so an update is visible to the very next query on either engine.

    Example -- a hot write stream with mild skew::

        >>> spec = UpdateSpec(rate=50.0, zipf_s=1.2, hotspots=8)
        >>> spec.hotspots
        8
        >>> UpdateSpec(rate=-1.0)
        Traceback (most recent call last):
            ...
        ValueError: update rate must be positive
    """

    rate: float = 20.0
    zipf_s: float = 1.1
    hotspots: int = 16
    jitter: float = 0.01

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("update rate must be positive")
        if self.hotspots < 1:
            raise ValueError("need at least one hotspot")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be non-negative")


@dataclass(frozen=True)
class ChurnSpec:
    """Periodic membership churn: every ``interval`` seconds starting at
    ``start``, add ``add`` servers (of ``model``) and drain ``remove``."""

    interval: float = 10.0
    add: int = 1
    remove: int = 1
    start: float = 0.0
    stop: float | None = None
    model: str = "dell-1950"

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("churn interval must be positive")
        if self.add < 0 or self.remove < 0:
            raise ValueError("add/remove must be non-negative")


@dataclass(frozen=True)
class EventSpec:
    """One timed action against the deployment.

    Actions (``EVENT_ACTIONS``): ``fail`` (count servers, or ``target``),
    ``fail-rack`` (a contiguous block of machine indices -- the correlated
    failure), ``rebuild`` (declare still-dead servers permanently failed and
    redistribute their ranges), ``recover``, ``add-server`` /
    ``remove-server``, ``rebalance`` (membership moves the coolest node to
    the hottest spot), ``set-pq``, and ``repartition`` (walk the stored p
    online via the reconfigurator; requires object stores).

    ``at`` is honoured exactly: the event fires between the last query
    arriving at or before ``at`` and the first one after it, on both the
    batched and the reference engine.
    """

    at: float
    action: str
    target: str | None = None
    count: int = 1
    value: int | None = None
    model: str = "dell-1950"

    def __post_init__(self) -> None:
        if self.action not in EVENT_ACTIONS:
            raise ValueError(
                f"unknown event action {self.action!r}; pick one of {EVENT_ACTIONS}"
            )
        if self.at < 0:
            raise ValueError("event time must be non-negative")
        if self.action in ("set-pq", "repartition") and self.value is None:
            raise ValueError(f"{self.action} needs a value")


@dataclass(frozen=True)
class ControlSpec:
    """Closed-loop policies allowed to react during the scenario.

    ``None`` bounds default from the scenario's shape: servers within
    ``[max(2, n // 2), 2n]``, ``p`` within ``[max(1, p - 2),
    max(p, min(4p, n))]``.  With ``planner`` set, the repartition policy
    steps toward the level the live-metrics capacity planner
    (:func:`repro.analysis.planner.recommend_from_metrics`) picks instead
    of following latency thresholds.
    """

    policies: tuple[str, ...] = ("elasticity",)
    slo_p99: float = 1.0
    interval: float = 5.0
    metrics_window: float = 20.0
    min_servers: int | None = None
    max_servers: int | None = None
    p_min: int | None = None
    p_max: int | None = None
    grow_seconds: float = 20.0
    drop_seconds: float = 4.0
    growth_model: str = "dell-1950"
    planner: bool = False

    def __post_init__(self) -> None:
        known = {"elasticity", "repartition"}
        unknown = [p for p in self.policies if p not in known]
        if unknown or not self.policies:
            raise ValueError(
                f"unknown policies {unknown!r}; pick from {sorted(known)}"
            )
        if self.slo_p99 <= 0 or self.interval <= 0:
            raise ValueError("slo_p99 and interval must be positive")


@dataclass(frozen=True)
class AdmissionSpec:
    """Per-frontend admission control (load shedding / pacing).

    ``policy`` names a registered admission policy, optionally with a
    ``:key=value,...`` parameter suffix (see :mod:`repro.admission`).
    The default ``"none"`` is accept-all and leaves every run
    bit-identical to an admission-free one.  The remaining fields tune
    whichever policy runs, so ``repro matrix --admission`` can swap the
    policy name while holding the comparison knobs fixed; ``None`` fields
    defer to the policy's own defaults.

    ``slo`` is the target delay (seconds) -- it sizes the queue cap
    (``cap_multiple * slo`` seconds of backlog) and defines goodput
    (completed queries meeting the SLO).  ``tick`` is the controller's
    adaptation interval, enforced at exact query indices through the
    engine's action queue.
    """

    policy: str = "none"
    slo: float = 1.0
    window: float = 10.0
    cap_multiple: float = 4.0
    tick: float = 1.0
    #: AIMD knobs (ignored by rateless policies).
    floor: float | None = None
    capacity: float | None = None
    rate: float | None = None
    increase: float | None = None
    decrease: float | None = None
    burst: float | None = None
    #: delay_gated knob.
    slo_multiple: float | None = None

    def __post_init__(self) -> None:
        from ..admission.registry import is_known_policy

        if not is_known_policy(self.policy):
            raise ValueError(
                f"unknown admission policy {self.policy!r}; see "
                "repro.admission.policy_names()"
            )
        if self.slo <= 0 or self.window <= 0 or self.tick <= 0:
            raise ValueError("slo, window, and tick must be positive")
        if self.cap_multiple <= 0:
            raise ValueError("cap_multiple must be positive")


@dataclass(frozen=True)
class Scenario:
    """One fully specified environment for a ROAR deployment.

    Every random choice the runner makes derives from ``seed``, so a
    scenario *is* its outcome; :meth:`with_` produces grid variants.

    Examples::

        >>> s = Scenario(name="steady", n_servers=8, p=4)
        >>> s.with_(n_servers=16).n_servers
        16
        >>> s.needs_stores        # repartition policies need object stores
        False
        >>> big = s.with_(events=(EventSpec(at=5.0, action="repartition",
        ...                                 value=8),))
        >>> big.needs_stores
        True
        >>> Scenario(name="bad", n_servers=4, p=9)
        Traceback (most recent call last):
            ...
        ValueError: need 1 <= p <= n_servers
    """

    name: str
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    n_servers: int = 20
    fleet: str = "hen"
    #: explicit speeds (objects/s) for fleet="custom" heterogeneity studies.
    speeds: tuple[float, ...] | None = None
    p: int = 4
    pq: int | None = None
    n_rings: int = 1
    dataset_size: float = 2_000_000.0
    seed: int = 1
    events: tuple[EventSpec, ...] = ()
    churn: ChurnSpec | None = None
    updates: UpdateSpec | None = None
    control: ControlSpec | None = None
    #: keep real object replicas (needed by repartition; costs memory).
    store_objects: bool | None = None
    n_objects_stored: int = 200
    #: scheduling kernel for the batched engine (a registry name or alias
    #: such as "exact_numpy" or "compiled"); None uses the engine default
    #: (the bit-exact oracle).  Ignored by the reference engine, which
    #: schedules through the original heap.
    kernel: str | None = None
    #: admission control at the engine's arrival seam; None (or
    #: policy="none") accepts every query, bit-identical to the
    #: pre-admission engine.
    admission: AdmissionSpec | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.fleet not in FLEETS:
            raise ValueError(f"unknown fleet {self.fleet!r}; pick one of {FLEETS}")
        if self.fleet == "custom" and not self.speeds:
            raise ValueError("fleet='custom' needs explicit speeds")
        if self.speeds is not None and len(self.speeds) != self.n_servers:
            raise ValueError("speeds must have length n_servers")
        if self.n_servers < 2:
            raise ValueError("need at least 2 servers")
        if not 1 <= self.p <= self.n_servers:
            raise ValueError("need 1 <= p <= n_servers")
        if self.pq is not None and self.pq < self.p:
            raise ValueError("pq must be >= p")
        if self.kernel is not None:
            from ..kernels.registry import is_known_kernel

            if not is_known_kernel(self.kernel):
                raise ValueError(
                    f"unknown scheduling kernel {self.kernel!r}; see "
                    "repro.kernels.kernel_names()"
                )

    @property
    def needs_stores(self) -> bool:
        """Object stores are required by online repartitioning."""
        if self.store_objects is not None:
            return self.store_objects
        if any(e.action == "repartition" for e in self.events):
            return True
        return self.control is not None and "repartition" in self.control.policies

    def with_(self, **overrides) -> "Scenario":
        """A copy with field overrides (grid-sweep convenience)."""
        return replace(self, **overrides)


# -- serialisation ------------------------------------------------------------
# Scenarios travel inside recordings (repro record / replay), so they need
# a JSON-stable round trip.  The only polymorphic field is ``workload``
# (WorkloadSpec or a repro.traces.TraceSpec); a ``__type__`` tag tells the
# two apart on the way back in.


def scenario_to_dict(scenario: Scenario) -> dict:
    """A JSON-serialisable dict that :func:`scenario_from_dict` inverts.

    Example::

        >>> s = Scenario(name="steady", n_servers=8, p=4,
        ...              events=(EventSpec(at=5.0, action="rebalance"),))
        >>> scenario_from_dict(scenario_to_dict(s)) == s
        True
    """
    data = asdict(scenario)
    data["workload"]["__type__"] = (
        "workload" if isinstance(scenario.workload, WorkloadSpec) else "trace"
    )
    return data


def scenario_from_dict(data: dict) -> Scenario:
    """Rebuild a :class:`Scenario` from :func:`scenario_to_dict` output."""
    d = dict(data)
    wd = dict(d.pop("workload"))
    wtype = wd.pop("__type__", "workload")
    if wtype == "trace":
        from ..traces.spec import TraceSpec

        workload = TraceSpec(**wd)
    elif wtype == "workload":
        if wd.get("trace") is not None:
            wd["trace"] = tuple(wd["trace"])
        workload = WorkloadSpec(**wd)
    else:
        raise ValueError(f"unknown workload type tag {wtype!r}")
    d["workload"] = workload
    d["events"] = tuple(EventSpec(**e) for e in d.get("events") or ())
    for key, cls in (
        ("churn", ChurnSpec),
        ("updates", UpdateSpec),
        ("control", ControlSpec),
        ("admission", AdmissionSpec),
    ):
        raw = d.get(key)
        if raw is not None:
            raw = dict(raw)
            if key == "control":
                raw["policies"] = tuple(raw.get("policies") or ())
            if key == "updates":
                # knob of the retired segment-batched runner; older
                # recordings still carry it
                raw.pop("batch_interval", None)
            d[key] = cls(**raw)
    if d.get("speeds") is not None:
        d["speeds"] = tuple(d["speeds"])
    return Scenario(**d)
