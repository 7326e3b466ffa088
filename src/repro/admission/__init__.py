"""Admission control & backpressure: per-frontend load-shedding policies.

The control plane (``repro.control``) scales *capacity*; this package
paces *load*.  An admission policy sits at the engine's arrival seam and
decides, per query, whether to schedule it or shed it -- using the
delay/backlog signals the queue mirrors already expose and queue caps
sized by buffer-sizing theory (see :mod:`repro.admission.base`).

The default policy is ``none`` (accept-all): every existing run stays
bit-identical because :func:`resolve_admission` maps it to ``None`` and
the engine takes the untouched code path.  See ``docs/admission.md``.
"""

from .base import AdmissionPolicy
from .policies import AIMDAdmission, DelayGatedAdmission, NoneAdmission
from ..obs.events import (
    AdmissionTick,
    ShedLog,
    ShedRecord,
    admission_from_archive,
    explain_admission,
    render_admission,
)
from .registry import (
    DEFAULT_POLICY,
    build_admission,
    canonical_spec,
    get_policy,
    is_known_policy,
    policy_names,
    policy_specs,
    register_policy,
    resolve_admission,
)

__all__ = [
    "AdmissionPolicy",
    "AIMDAdmission",
    "DelayGatedAdmission",
    "NoneAdmission",
    "AdmissionTick",
    "ShedLog",
    "ShedRecord",
    "admission_from_archive",
    "explain_admission",
    "render_admission",
    "DEFAULT_POLICY",
    "build_admission",
    "canonical_spec",
    "get_policy",
    "is_known_policy",
    "policy_names",
    "policy_specs",
    "register_policy",
    "resolve_admission",
]
