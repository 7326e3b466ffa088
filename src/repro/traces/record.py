"""Record-then-replay: capture a run's drawn stimulus, re-drive it bit-exactly.

A *recording* is the run archive of one scenario execution plus
everything the run drew from its seeds -- the full arrival trace and the
exact-time update stream, stored as ``stim_*`` columns -- with
``kind="recording"``, the horizon and the scenario itself in its
metadata.  The archive's own simulated-time columns are the baseline:
:func:`replay_recording` rebuilds the scenario, injects the frozen
stimulus (no re-drawing), runs it on any engine/kernel combination, and
verifies the replay against the baseline with the same differential
oracle the CI bit-identity gate uses (:func:`repro.telemetry.archive.
archive_diff`): every simulated-time column must match byte for byte.
Wall-clock-derived columns (``log_scheduling``/``bd_scheduling``) are
measurements of *this machine right now*, not of the simulated system, so
recordings do not store them and replays do not compare them.

Being a run archive, a recording reads as one: ``repro archive info``,
``repro archive diff`` and ``repro explain`` take it as it is.  ``repro
record`` / ``repro replay`` are the CLI veneer; recordings are ``.npz``
files, replayable as plain traces through the ``recording`` dataloader.
Read them with :func:`read_recording` or
:func:`~repro.telemetry.archive.read_archive`: the writer leaves out the
columns the others rebuild (``stim_arrivals`` repeats ``log_arrival``
unless queries were dropped or shed), so a raw :func:`numpy.load` sees
only the stored ones.
"""

from __future__ import annotations

import json
import math
import zipfile
import zlib
from dataclasses import dataclass, field

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

from ..sim.workload import update_rows
from .spec import update_problem

__all__ = [
    "RECORDING_LAYOUT",
    "Recording",
    "ReplayReport",
    "Stimulus",
    "StimulusError",
    "is_recording",
    "read_recording",
    "replay_recording",
    "write_recording",
]

#: Version of the recording layout (meta ``recording_layout``); readers
#: refuse what they cannot parse.  Recordings from before the layout was
#: versioned kept a second copy of the baseline as ``base_*`` columns;
#: they are refused too.
RECORDING_LAYOUT = 2

#: The drawn-stimulus columns every recording carries.
_STIMULUS_COLUMNS = ("stim_arrivals", "stim_update_times", "stim_update_pos")

#: The recording column of each field of an update row.
_UPDATE_COLUMNS = {"time": "stim_update_times", "pos": "stim_update_pos"}

#: The simulated-time telemetry columns replay verifies against: the
#: archive's per-query columns minus the wall-clock pair.
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
    included); ``updates`` is the full exact-time update stream, an
    ``(n, 2)`` float64 array of ``(time, position)`` rows (its two
    ``stim_update_*`` columns); ``horizon`` is the scenario horizon the
    run drained to.  Events, churn and control ticks are *not* stored:
    they are deterministic functions of the scenario (timed schedules
    plus seed-derived RNG), so rebuilding the scenario reproduces them
    exactly.

    Update times must be finite and non-negative and positions must lie
    in ``[0, 1)``, as for :class:`~repro.traces.spec.Trace`; anything else
    raises :class:`StimulusError` naming the column and the first bad
    update.  The stream need not be sorted: a run appends trace-supplied
    updates after its seed-drawn ones.
    """

    arrivals: "np.ndarray"
    updates: "np.ndarray" = ()
    horizon: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.arrivals, dtype=np.float64)
        try:
            ups = update_rows(self.updates)
        except ValueError as exc:
            raise StimulusError("stim_update_times", str(exc)) from None
        problem = update_problem(ups)
        if problem is not None:
            field_, message = problem
            raise StimulusError(_UPDATE_COLUMNS[field_], message)
        object.__setattr__(self, "arrivals", arr)
        object.__setattr__(self, "updates", ups)

    def columns(self) -> dict:
        """The ``stim_*`` columns a recording stores this stimulus as."""
        ups = self.updates
        return dict(zip(_STIMULUS_COLUMNS, (self.arrivals, ups[:, 0], ups[:, 1])))


@dataclass
class Recording:
    """One recorded run: meta + stimulus + baseline telemetry columns."""

    meta: dict
    stimulus: Stimulus
    baseline: dict = field(default_factory=dict)
    path: str | None = None

    @property
    def scenario_dict(self) -> dict:
        return self.meta["scenario_spec"]

    @property
    def engine(self) -> str:
        return self.meta.get("engine", "batched")

    @property
    def kernel(self) -> str:
        return self.meta.get("kernel", "")


def write_recording(
    writer,
    scenario,
    stimulus: Stimulus,
    dropped: int = 0,
    meta: dict | None = None,
    extra_columns: dict | None = None,
) -> None:
    """Close a run's streaming archive *writer* as a recording.

    *writer* is the :class:`~repro.telemetry.archive.ArchiveWriter` that
    streamed the executed *scenario*'s telemetry; *stimulus* is what the
    run drew or was given.  The ``stim_*`` columns ride beside
    *extra_columns*, and the archive *meta* gains ``kind="recording"``,
    the layout version, the horizon and the scenario dict
    (``scenario_spec``), so the one file is compressed once.  *dropped*
    and *meta* are as for :meth:`~repro.telemetry.archive.ArchiveWriter.
    close`.
    """
    from ..scenarios.spec import scenario_to_dict

    writer.close(
        dropped=dropped,
        meta={
            **(meta or {}),
            "kind": "recording",
            "recording_layout": RECORDING_LAYOUT,
            "horizon": stimulus.horizon,
            "scenario_spec": scenario_to_dict(scenario),
        },
        extra_columns={**(extra_columns or {}), **stimulus.columns()},
    )


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
    """Read a recording: the run archive of a recorded or replayed run.

    A malformed file raises :class:`ValueError` naming the path, the
    problem (the column or meta key, where one is missing or corrupt) and
    the fix; a missing file raises ``OSError``.
    """
    from ..telemetry.archive import ARCHIVE_SCHEMA, check_columns, read_meta_npz

    fix = "the recording is corrupt -- record the run again"
    meta, columns, _ = read_meta_npz(path, "recording", fix)
    if meta.get("kind") != "recording":
        raise ValueError(
            f"{path}: not a recording (kind={meta.get('kind')!r}); "
            "run archives replay through the 'archive' trace loader"
        )
    for key, version in (
        ("recording_layout", RECORDING_LAYOUT),
        ("schema", ARCHIVE_SCHEMA),
    ):
        if meta.get(key) != version:
            raise ValueError(
                f"{path}: {key} {meta.get(key)!r} not supported (this build "
                f"reads {version}); record the run again with this build"
            )
    if "scenario_spec" not in meta:
        raise ValueError(f"{path}: meta key 'scenario_spec' is missing; {fix}")
    check_columns(path, columns, fix)
    for column in _STIMULUS_COLUMNS:
        if column not in columns:
            raise ValueError(f"{path}: column {column!r} is missing; {fix}")
    arrivals = np.asarray(columns["stim_arrivals"], dtype=np.float64)
    times = columns["stim_update_times"]
    pos = columns["stim_update_pos"]
    if times.shape != pos.shape or times.ndim != 1:
        raise ValueError(
            f"{path}: columns 'stim_update_times' {times.shape} and "
            f"'stim_update_pos' {pos.shape} disagree; {fix}"
        )
    horizon = float(meta.get("horizon", arrivals[-1] if arrivals.size else 0.0))
    if not math.isfinite(horizon):
        # the run's tick schedules end at the horizon
        raise ValueError(f"{path}: meta key 'horizon' is {horizon!r}, not a finite time; {fix}")
    try:
        stimulus = Stimulus(
            arrivals=arrivals, updates=np.column_stack((times, pos)), horizon=horizon
        )
    except StimulusError as exc:
        raise ValueError(f"{path}: column {exc.column!r}: {exc}; {fix}") from exc
    baseline = {name: columns[name] for name in _BASELINE_COLUMNS}
    return Recording(
        meta=meta, stimulus=stimulus, baseline=baseline, path=str(path)
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
    *archive_path* writes the replayed run's archive, which is itself a
    recording of the same stimulus.
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
