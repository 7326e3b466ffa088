"""Run manifests: provenance meta stamped into every generated artifact.

A run archive, a stimulus recording, or a profile summary is only
interpretable if you know what produced it: which commit, which
configuration, which kernel, which seeds, on which host.  The manifest is
a small JSON-safe dict answering exactly that, written into archive meta
(``meta["manifest"]``), recording meta, and the ``repro profile --json``
summary.  ``repro archive info --require-manifest`` gates on its
presence.

Example::

    >>> m = build_manifest(kernel="python", seeds={"deployment": 1},
    ...                    config={"n_servers": 16, "p": 4})
    >>> sorted(m)
    ['config_hash', 'git_revision', 'host', 'kernel', 'machine', 'python', \
'schema', 'seeds']
    >>> m["schema"]
    1
    >>> m["config_hash"] == config_hash({"p": 4, "n_servers": 16})
    True
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from typing import Optional

__all__ = ["MANIFEST_SCHEMA", "build_manifest", "config_hash", "git_revision"]

MANIFEST_SCHEMA = 1


def git_revision() -> str:
    """The short HEAD revision, or ``"unknown"`` outside a git checkout.

    Resolved against the package's own directory, not the process cwd,
    so provenance survives running ``repro`` from anywhere.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def config_hash(config) -> str:
    """Order-independent short digest of a configuration mapping."""
    blob = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_manifest(
    kernel: Optional[str] = None,
    seeds: Optional[dict] = None,
    config: Optional[dict] = None,
    profile=None,
    extra: Optional[dict] = None,
) -> dict:
    """Assemble the provenance dict.

    *profile* may be a :class:`~repro.obs.profiler.PhaseProfiler`, whose
    per-phase totals land under ``profile_ns``.  No timestamps: manifests
    of identical runs are identical, so they diff clean.
    """
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "host": platform.node(),
    }
    if kernel is not None:
        manifest["kernel"] = kernel
    if seeds is not None:
        manifest["seeds"] = dict(seeds)
    if config is not None:
        manifest["config_hash"] = config_hash(config)
    if profile is not None and getattr(profile, "totals_ns", None):
        manifest["profile_ns"] = dict(sorted(profile.totals_ns.items()))
    if extra:
        manifest.update(extra)
    return manifest
