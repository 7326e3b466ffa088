"""The scheduling-kernel registry.

Kernels are looked up by name or alias wherever a kernel knob exists
(the engine's ``kernel=`` parameter, the scenario ``kernel:`` field,
``repro matrix|profile|record|replay --kernel``).  Third-party kernels
register through :func:`register_kernel`.
"""

from __future__ import annotations

from typing import Callable, Union

from .base import KernelUnavailableError, SweepKernel

__all__ = [
    "DEFAULT_KERNEL",
    "available_kernels",
    "canonical_spec",
    "get_kernel",
    "is_known_kernel",
    "kernel_available",
    "kernel_names",
    "kernel_specs",
    "register_kernel",
]

DEFAULT_KERNEL = "exact_numpy"

_FACTORIES: dict[str, Callable[..., SweepKernel]] = {}
_ALIASES: dict[str, str] = {}


def register_kernel(
    name: str,
    factory: Callable[..., SweepKernel],
    aliases: tuple[str, ...] = (),
    replace: bool = False,
) -> None:
    """Register a kernel factory under *name* (plus optional aliases)."""
    if not replace and (name in _FACTORIES or name in _ALIASES):
        raise ValueError(f"kernel {name!r} is already registered")
    _FACTORIES[name] = factory
    for alias in aliases:
        if not replace and (alias in _FACTORIES or alias in _ALIASES):
            raise ValueError(f"kernel alias {alias!r} is already registered")
        _ALIASES[alias] = name


def kernel_names() -> tuple[str, ...]:
    """Canonical registered kernel names, registration order."""
    return tuple(_FACTORIES)


def get_kernel(spec: Union[str, SweepKernel, None]) -> SweepKernel:
    """Resolve *spec* to a kernel instance.

    ``None`` means the default (:data:`DEFAULT_KERNEL`); an instance
    passes through; a string is a registered name or alias.  Raises
    :class:`~repro.kernels.base.KernelUnavailableError` when the kernel
    exists but cannot run here (e.g. ``compiled`` without a C toolchain)
    and :class:`ValueError` for unknown names.
    """
    if spec is None:
        spec = DEFAULT_KERNEL
    if isinstance(spec, SweepKernel):
        return spec
    return _FACTORIES[canonical_spec(spec)]()


def is_known_kernel(spec: str) -> bool:
    """Cheap name-only validation (no instantiation, no build attempt)."""
    name = spec.strip()
    return name in _FACTORIES or name in _ALIASES


def canonical_spec(spec: str) -> str:
    """Normalise *spec*: resolve an alias to its canonical name.

    Validates the name (raises :class:`ValueError` for unknown kernels)
    without instantiating the kernel -- no build attempt, so it is safe
    to call up front before expensive work.
    """
    name = spec.strip()
    resolved = _ALIASES.get(name, name)
    if resolved not in _FACTORIES:
        raise ValueError(
            f"unknown scheduling kernel {name!r}; registered: "
            f"{', '.join(kernel_names())}"
        )
    return resolved


def kernel_available(name: str) -> bool:
    """True when ``get_kernel(name)`` would succeed in this environment."""
    try:
        get_kernel(name)
        return True
    except KernelUnavailableError:
        return False


def available_kernels() -> tuple[str, ...]:
    """Registered kernels that can actually run in this environment."""
    return tuple(n for n in kernel_names() if kernel_available(n))


def kernel_specs() -> list[dict[str, object]]:
    """Inspection rows for ``repro kernels``: name, availability, description."""
    rows: list[dict[str, object]] = []
    for name in kernel_names():
        try:
            kernel = get_kernel(name)
            rows.append(
                {
                    "name": name,
                    "available": True,
                    "description": kernel.description,
                    "reason": None,
                }
            )
        except KernelUnavailableError as exc:
            rows.append(
                {
                    "name": name,
                    "available": False,
                    "description": "",
                    "reason": str(exc),
                }
            )
    return rows


def _register_builtins() -> None:
    from .compiled import CompiledKernel
    from .exact import ExactNumpyKernel

    register_kernel("exact_numpy", ExactNumpyKernel, aliases=("exact",))
    register_kernel("compiled", CompiledKernel, aliases=("c",))


_register_builtins()
