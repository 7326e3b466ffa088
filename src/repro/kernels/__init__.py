"""Pluggable scheduling kernels behind the differential oracle.

The batched query engine evaluates Algorithm 1's rotation sweep once per
query; this package turns that evaluation into a swappable component with
a narrow ABI (:class:`~repro.kernels.base.SweepKernel`), a registry, and
two built-in implementations:

* ``exact_numpy`` -- the engine's original vectorised sweep, byte for
  byte; bit-identical to the per-query reference path and therefore the
  **oracle** every other kernel is measured against (the default);
* ``compiled``    -- the same arithmetic fused into one C call (built on
  first use against the system toolchain, graceful fallback without one).

Every kernel is exact: ``tests/test_kernels.py`` compares ``compiled``
with ``exact_numpy`` byte for byte, the builtin scenario battery included.
"""

from .base import (
    CommitBuffers,
    CommitPlan,
    KernelUnavailableError,
    PqEntry,
    SweepKernel,
    SweepState,
    assignment_at,
)
from .registry import (
    DEFAULT_KERNEL,
    available_kernels,
    get_kernel,
    kernel_available,
    kernel_names,
    kernel_specs,
    register_kernel,
)

__all__ = [
    "DEFAULT_KERNEL",
    "CommitBuffers",
    "CommitPlan",
    "KernelUnavailableError",
    "PqEntry",
    "SweepKernel",
    "SweepState",
    "assignment_at",
    "available_kernels",
    "get_kernel",
    "kernel_available",
    "kernel_names",
    "kernel_specs",
    "register_kernel",
]
