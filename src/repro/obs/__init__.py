"""Observability: engine-phase profiling, decision audit logs, run manifests.

Three layers the rest of the toolkit plugs into:

* :mod:`repro.obs.profiler` -- a near-zero-overhead phase profiler for the
  batched engine (``perf_counter_ns`` accumulators around arrival draw,
  kernel sweep+commit, flush, listeners, actions) with per-chunk samples
  and a chrome://tracing export.  Off by default; ``profile=`` kwarg or
  ``REPRO_PROFILE=1`` turns it on.
* :mod:`repro.obs.audit` -- the columnar :class:`DecisionLog` every
  controller tick appends to: window inputs (p50/p95/p99/backlog), the
  decision, its magnitude, and the exact query index it landed at.
  Archived alongside run archives; ``repro explain`` reconstructs it.
* :mod:`repro.obs.manifest` -- provenance manifests (git revision, config
  hash, kernel, seeds, host) stamped into archives, recordings, and
  ``repro profile --json`` summaries.
"""

_EXPORTS = {
    "PhaseProfiler": "profiler",
    "resolve_profile": "profiler",
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
