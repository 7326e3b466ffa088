"""Observability: wall-time spans, event tables, run manifests.

Three layers the rest of the toolkit plugs into:

* :mod:`repro.obs.profiler` -- the span recorder: ``with SpanRecorder()``
  wraps a table of entry points (scenario runner, engine phases, kernel
  ``commit_batch``, control, admission, telemetry and trace layers) from
  outside for the block's duration, reports calls, total and self time
  per span plus the unattributed rest of the wall, and exports
  chrome://tracing JSON.  The engine carries no profiling code.
* :mod:`repro.obs.events` -- the columnar event tables a run archive
  carries: control decisions (:class:`DecisionLog`: window inputs, the
  decision, its magnitude), admission sheds and ticks
  (:class:`ShedLog`), each row at the exact query index it landed at.
  ``repro explain`` reads them back and cross-checks them.
* :mod:`repro.obs.manifest` -- provenance manifests (git revision, config
  hash, kernel, seeds, host) stamped into archives, recordings, and
  ``repro profile --json`` summaries.
"""

_EXPORTS = {
    "SpanRecorder": "profiler",
    "DecisionLog": "events",
    "DecisionRecord": "events",
    "decisions_from_archive": "events",
    "explain_archive": "events",
    "render_decisions": "events",
    "build_manifest": "manifest",
    "config_hash": "manifest",
    "git_revision": "manifest",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    mod = importlib.import_module(f".{module}", __name__)
    value = getattr(mod, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
