"""Real-trace replay: dataloaders, the ``TraceSpec`` workload, recordings.

Three pieces turn external request logs and past runs into first-class
workloads (see ``docs/traces.md``):

* :mod:`~repro.traces.registry` -- the dataloader registry
  (``name[:key=value,...]`` specs, third-party :func:`register_loader`),
  with builtin loaders for CSV, JSON-lines, telemetry run archives, and
  recordings (:mod:`~repro.traces.loaders`);
* :class:`TraceSpec` -- a declarative trace workload accepted anywhere a
  :class:`~repro.scenarios.spec.WorkloadSpec` is; its arrivals drive the
  query stream and its updates join the run's update stream;
* :mod:`~repro.traces.record` -- record-then-replay:
  ``execute_scenario(record_path=...)`` writes the run archive plus the
  drawn stimulus (``stim_*`` columns) as one recording, and
  :func:`replay_recording` re-drives it bit-identically on either engine
  and any kernel, verified by the archive differential oracle.
"""

from .loaders import (
    ArchiveTraceLoader,
    CsvTraceLoader,
    JsonlTraceLoader,
    RecordingTraceLoader,
    TraceLoader,
)
from .record import (
    RECORDING_LAYOUT,
    Recording,
    ReplayReport,
    Stimulus,
    StimulusError,
    is_recording,
    read_recording,
    replay_recording,
    write_recording,
)
from .registry import (
    canonical_spec,
    get_loader,
    infer_loader,
    is_known_loader,
    load_trace,
    loader_names,
    loader_specs,
    register_loader,
)
from .spec import Trace, TraceFormatError, TraceSpec

__all__ = [
    "Trace",
    "TraceFormatError",
    "TraceSpec",
    "TraceLoader",
    "ArchiveTraceLoader",
    "CsvTraceLoader",
    "JsonlTraceLoader",
    "RecordingTraceLoader",
    "canonical_spec",
    "get_loader",
    "infer_loader",
    "is_known_loader",
    "load_trace",
    "loader_names",
    "loader_specs",
    "register_loader",
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
