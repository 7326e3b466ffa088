"""Record-then-replay: capture a run's drawn stimulus, re-drive it bit-exactly.

A *recording* freezes everything a scenario execution drew from its seeds
-- the full arrival trace, the exact-time update stream -- plus the
scenario itself and the baseline telemetry columns the recorded run
produced.  :func:`replay_recording` rebuilds the scenario, injects the
frozen stimulus (no re-drawing), runs it on any engine/kernel combination,
and verifies the replay against the baseline with the same differential
oracle the CI bit-identity gate uses (:func:`repro.telemetry.archive.
archive_diff`): every simulated-time column must match byte for byte.
Wall-clock-derived columns (``log_scheduling``/``bd_scheduling``) are
measurements of *this machine right now*, not of the simulated system, so
recordings do not store them and replays do not compare them.

``repro record`` / ``repro replay`` are the CLI veneer; recordings are
``.npz`` files readable by :func:`numpy.load` and replayable as plain
traces through the ``recording`` dataloader.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import dataclass, field

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

__all__ = [
    "RECORDING_SCHEMA",
    "Recording",
    "ReplayReport",
    "Stimulus",
    "StimulusError",
    "is_recording",
    "read_recording",
    "recording_to_archive",
    "replay_recording",
    "write_recording",
]

#: Version of the recording layout; readers refuse what they cannot parse.
RECORDING_SCHEMA = 1

#: The drawn-stimulus columns every recording carries.
_STIMULUS_COLUMNS = ("stim_arrivals", "stim_update_times", "stim_update_pos")

#: The simulated-time telemetry columns a recording stores as its baseline
#: (the archive columns minus the wall-clock pair).
_BASELINE_COLUMNS = (
    "log_query_id",
    "log_arrival",
    "log_finish",
    "log_pq",
    "log_subqueries",
    "bd_network",
    "bd_queueing",
    "bd_service",
    "bd_total",
)


class StimulusError(ValueError):
    """A malformed stimulus stream; ``column`` names its recording column."""

    def __init__(self, column: str, message: str) -> None:
        super().__init__(message)
        self.column = column


@dataclass(frozen=True)
class Stimulus:
    """The drawn stimulus of one execution: what replay re-injects.

    ``arrivals`` is every offered query arrival (dropped queries
    included); ``updates`` is the full exact-time ``(time, position)``
    update stream; ``horizon`` is the scenario horizon the run drained to.
    Events, churn and control ticks are *not* stored: they are
    deterministic functions of the scenario (timed schedules plus
    seed-derived RNG), so rebuilding the scenario reproduces them exactly.

    Update times must be finite and non-negative and positions must lie
    in ``[0, 1)``, as for :class:`~repro.traces.spec.Trace`; anything else
    raises :class:`StimulusError`.  The stream need not be sorted: a run
    appends trace-supplied updates after its seed-drawn ones.
    """

    arrivals: "np.ndarray"
    updates: tuple = ()
    horizon: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.arrivals, dtype=np.float64)
        ups = tuple((float(t), float(p)) for t, p in self.updates)
        if ups:
            times, pos = np.array(ups, dtype=np.float64).T
            bad = np.flatnonzero(~(np.isfinite(times) & (times >= 0.0)))
            if bad.size:
                i = int(bad[0])
                raise StimulusError(
                    "stim_update_times",
                    f"update {i} has time {float(times[i])!r}; update times must be "
                    "finite and non-negative",
                )
            bad = np.flatnonzero(~((pos >= 0.0) & (pos < 1.0)))
            if bad.size:
                i = int(bad[0])
                raise StimulusError(
                    "stim_update_pos",
                    f"update {i} has ring position {float(pos[i])!r} outside [0, 1)",
                )
        object.__setattr__(self, "arrivals", arr)
        object.__setattr__(self, "updates", ups)


@dataclass
class Recording:
    """One recorded run: meta + stimulus + baseline telemetry columns."""

    meta: dict
    stimulus: Stimulus
    baseline: dict = field(default_factory=dict)
    path: str | None = None

    @property
    def scenario_dict(self) -> dict:
        return self.meta["scenario"]

    @property
    def engine(self) -> str:
        return self.meta.get("engine", "batched")

    @property
    def kernel(self) -> str:
        return self.meta.get("kernel", "")


def write_recording(
    path,
    scenario,
    stimulus: Stimulus,
    deployment,
    engine: str,
    kernel: str,
    manifest: dict | None = None,
) -> None:
    """Freeze one executed run at *path* (``.npz``).

    *scenario* is the executed :class:`~repro.scenarios.spec.Scenario`,
    *stimulus* the drawn arrival/update streams, *deployment* the
    post-run deployment whose telemetry becomes the baseline.  *manifest*
    is the provenance dict (:func:`repro.obs.manifest.build_manifest`);
    when omitted one is built in place, so every recording carries its
    provenance.
    """
    from ..obs.manifest import build_manifest
    from ..scenarios.spec import scenario_to_dict

    scenario_dict = scenario_to_dict(scenario)
    if manifest is None:
        manifest = build_manifest(
            kernel=kernel, config=scenario_dict, extra={"engine": engine}
        )
    from ..telemetry.archive import collect_columns

    meta = {
        "schema": RECORDING_SCHEMA,
        "kind": "recording",
        "scenario": scenario_dict,
        "engine": engine,
        "kernel": kernel,
        "dropped": deployment.log.dropped,
        "horizon": stimulus.horizon,
        "manifest": manifest,
    }
    payload = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    baseline = collect_columns(deployment, wall_columns=False)
    arrays = {
        "stim_arrivals": np.asarray(stimulus.arrivals, dtype=np.float64),
        "stim_update_times": np.asarray(
            [t for t, _ in stimulus.updates], dtype=np.float64
        ),
        "stim_update_pos": np.asarray(
            [p for _, p in stimulus.updates], dtype=np.float64
        ),
    }
    arrays.update({f"base_{k}": v for k, v in baseline.items()})
    np.savez_compressed(path, meta_json=payload, **arrays)


def is_recording(path) -> bool:
    """True when *path* is a readable recording ``.npz`` (cheap peek).

    Reads only the metadata.  Anything unreadable -- a missing,
    truncated, empty or non-zip file, or one without ``meta_json`` -- is
    not a recording: the peek returns False and leaves naming the
    problem to the reader the caller picks next.
    """
    try:
        with np.load(path) as data:
            if "meta_json" not in data.files:
                return False
            meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile, zlib.error):
        return False
    return isinstance(meta, dict) and meta.get("kind") == "recording"


def read_recording(path) -> Recording:
    """Read a recording written by :func:`write_recording`.

    A malformed file raises :class:`ValueError` naming the path, the
    problem (the column, where one is missing or corrupt) and the fix; a
    missing file raises ``OSError``.
    """
    from ..telemetry.archive import read_meta_npz

    meta, columns = read_meta_npz(path, "recording")
    if meta.get("kind") != "recording":
        raise ValueError(
            f"{path}: not a recording (kind={meta.get('kind')!r}); "
            "run archives replay through the 'archive' trace loader"
        )
    schema = meta.get("schema")
    if schema != RECORDING_SCHEMA:
        raise ValueError(
            f"{path}: recording schema {schema!r} not supported "
            f"(this build reads schema {RECORDING_SCHEMA}); record the run "
            "again with this build"
        )
    for column in _STIMULUS_COLUMNS:
        if column not in columns:
            raise ValueError(
                f"{path}: column {column!r} is missing; the recording is "
                "corrupt -- record the run again"
            )
    arrivals = np.asarray(columns["stim_arrivals"], dtype=np.float64)
    times = columns["stim_update_times"]
    pos = columns["stim_update_pos"]
    baseline = {
        k[len("base_") :]: v for k, v in columns.items() if k.startswith("base_")
    }
    if times.shape != pos.shape:
        raise ValueError(
            f"{path}: columns 'stim_update_times' {times.shape} and "
            f"'stim_update_pos' {pos.shape} disagree; the recording is "
            "corrupt -- record the run again"
        )
    updates = tuple(zip(times.tolist(), pos.tolist()))
    try:
        stimulus = Stimulus(
            arrivals=arrivals,
            updates=updates,
            horizon=float(meta.get("horizon", arrivals[-1] if arrivals.size else 0.0)),
        )
    except StimulusError as exc:
        raise ValueError(
            f"{path}: column {exc.column!r}: {exc}; the recording is corrupt "
            "-- record the run again"
        ) from exc
    return Recording(
        meta=meta, stimulus=stimulus, baseline=baseline, path=str(path)
    )


def recording_to_archive(recording: Recording, path) -> None:
    """Extract a recording's baseline columns as a plain run archive.

    The result reads/diffs like any :func:`~repro.telemetry.archive.
    write_archive` output (wall-clock columns absent on both sides of any
    record/replay diff, so ``--strict`` comparisons stay meaningful).
    """
    from ..telemetry.archive import write_archive_columns

    meta = {
        "scenario": recording.scenario_dict.get("name"),
        "engine": recording.engine,
        "kernel": recording.kernel,
        "wall_columns": False,
        "recorded": True,
    }
    write_archive_columns(
        path,
        dict(recording.baseline),
        meta=meta,
        dropped=recording.meta.get("dropped", 0),
    )


@dataclass
class ReplayReport:
    """Outcome of one replay: the execution plus the oracle's verdict."""

    recording: Recording
    execution: object  # ScenarioExecution
    engine: str
    kernel: str
    verified: bool  # whether the oracle ran
    identical: bool  # byte-identical simulated-time telemetry
    diff: dict = field(default_factory=dict)

    @property
    def mismatching_columns(self) -> list[str]:
        return sorted(
            name
            for name, entry in self.diff.get("columns", {}).items()
            if not entry.get("equal", False)
        )


def replay_recording(
    recording,
    engine: str | None = None,
    kernel: str | None = None,
    archive_path: str | None = None,
    verify: bool = True,
) -> ReplayReport:
    """Re-drive a recording's stimulus and verify bit-identity.

    *recording* is a :class:`Recording` or a path.  *engine* / *kernel*
    default to what was recorded, which is the bit-identity contract; any
    other engine/kernel combination must match too (that is the point of
    replay -- the differential oracle across configurations).
    *archive_path* writes the replayed run's wall-free archive for
    external diffing.
    """
    if not isinstance(recording, Recording):
        recording = read_recording(recording)
    from ..scenarios.runner import execute_scenario
    from ..scenarios.spec import scenario_from_dict
    from ..telemetry.archive import ARCHIVE_SCHEMA, RunArchive, archive_diff

    scenario = scenario_from_dict(recording.scenario_dict)
    engine = engine if engine is not None else recording.engine
    if kernel is None and engine == "batched":
        recorded = recording.kernel
        if recorded and recorded != "reference":
            kernel = recorded
    execution = execute_scenario(
        scenario,
        engine=engine,
        kernel=kernel,
        stimulus=recording.stimulus,
        archive_path=archive_path,
    )
    verified = False
    identical = False
    diff: dict = {}
    if verify:
        from ..telemetry.archive import collect_columns

        base = RunArchive(
            meta={"schema": ARCHIVE_SCHEMA},
            columns=dict(recording.baseline),
        )
        replayed = RunArchive(
            meta={"schema": ARCHIVE_SCHEMA},
            columns=collect_columns(execution.deployment, wall_columns=False),
        )
        diff = archive_diff(base, replayed)
        verified = True
        identical = bool(diff["identical"])
    return ReplayReport(
        recording=recording,
        execution=execution,
        engine=engine,
        kernel=execution.kernel,
        verified=verified,
        identical=identical,
        diff=diff,
    )
