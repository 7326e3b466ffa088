"""Observability: wall-time spans, decision audit logs, run manifests.

Three layers the rest of the toolkit plugs into:

* :mod:`repro.obs.profiler` -- the span recorder: ``with SpanRecorder()``
  wraps a table of entry points (scenario runner, engine phases, kernel
  ``commit_batch``, control, admission, telemetry and trace layers) from
  outside for the block's duration, reports calls, total and self time
  per span plus the unattributed rest of the wall, and exports
  chrome://tracing JSON.  The engine carries no profiling code.
* :mod:`repro.obs.audit` -- the columnar :class:`DecisionLog` every
  controller tick appends to: window inputs (p50/p95/p99/backlog), the
  decision, its magnitude, and the exact query index it landed at.
  Archived alongside run archives; ``repro explain`` reconstructs it.
* :mod:`repro.obs.manifest` -- provenance manifests (git revision, config
  hash, kernel, seeds, host) stamped into archives, recordings, and
  ``repro profile --json`` summaries.
"""

_EXPORTS = {
    "SpanRecorder": "profiler",
    "DecisionLog": "audit",
    "DecisionRecord": "audit",
    "decisions_from_archive": "audit",
    "explain_archive": "audit",
    "render_decisions": "audit",
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
