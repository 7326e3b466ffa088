"""The admission-policy registry.

Policies are looked up by name wherever an admission knob exists (the
engine's ``admission=`` parameter, the scenario ``AdmissionSpec.policy``
field, ``repro matrix --admission``).  Names accept the same optional
parameter suffix as trace loaders -- ``name:key=value[,...]`` --
forwarded to the policy constructor, e.g. ``aimd:floor=5,decrease=0.25``.
Third-party policies register through :func:`register_policy`.

Example::

    >>> sorted(policy_names())
    ['aimd', 'delay_gated', 'none']
    >>> get_policy("aimd:floor=3").floor
    3.0
    >>> resolve_admission("none") is None   # passthrough: engine sees None
    True
    >>> resolve_admission("delay_gated").name
    'delay_gated'
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional, Union

from .._spec import parse_spec
from .base import AdmissionPolicy

__all__ = [
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

DEFAULT_POLICY = "none"

_FACTORIES: dict[str, Callable[..., AdmissionPolicy]] = {}
_ALIASES: dict[str, str] = {}


def register_policy(
    name: str,
    factory: Callable[..., AdmissionPolicy],
    aliases: tuple[str, ...] = (),
    replace: bool = False,
) -> None:
    """Register a policy factory under *name* (plus optional aliases)."""
    if not replace and (name in _FACTORIES or name in _ALIASES):
        raise ValueError(f"admission policy {name!r} is already registered")
    _FACTORIES[name] = factory
    for alias in aliases:
        if not replace and (alias in _FACTORIES or alias in _ALIASES):
            raise ValueError(
                f"admission policy alias {alias!r} is already registered"
            )
        _ALIASES[alias] = name


def policy_names() -> tuple[str, ...]:
    """Canonical registered policy names, registration order."""
    return tuple(_FACTORIES)


def get_policy(spec: Union[str, AdmissionPolicy, None]) -> AdmissionPolicy:
    """Resolve *spec* to a policy instance.

    ``None`` means the default (:data:`DEFAULT_POLICY`, accept-all); an
    instance passes through; a string is looked up in the registry, with
    an optional ``:key=value,...`` parameter suffix.  Raises
    :class:`ValueError` for unknown names.
    """
    if spec is None:
        spec = DEFAULT_POLICY
    if isinstance(spec, AdmissionPolicy):
        return spec
    name, kwargs = parse_spec(spec, "admission")
    name = _ALIASES.get(name, name)
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown admission policy {name!r}; registered: "
            f"{', '.join(policy_names())}"
        )
    return factory(**kwargs)


def resolve_admission(
    spec: Union[str, AdmissionPolicy, None],
) -> Optional[AdmissionPolicy]:
    """Resolve *spec* for the engine: passthrough policies become ``None``.

    This is the bit-identity guard: the default/"none" policy maps to
    ``None`` so the engine runs the exact pre-admission code path (bulk
    seam included) with zero admission branches taken.
    """
    policy = get_policy(spec)
    return None if policy.passthrough else policy


def build_admission(spec) -> Optional[AdmissionPolicy]:
    """Build the engine-side controller from a scenario ``AdmissionSpec``.

    Returns ``None`` for a missing spec or a passthrough policy.  The
    spec's tuning fields are forwarded to the policy constructor filtered
    by its signature, so third-party policies only receive the knobs they
    declare.
    """
    if spec is None:
        return None
    name, kwargs = parse_spec(spec.policy, "admission")
    name = _ALIASES.get(name, name)
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown admission policy {name!r}; registered: "
            f"{', '.join(policy_names())}"
        )
    params = inspect.signature(factory).parameters
    accepts_any = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )
    for field in (
        "slo",
        "window",
        "cap_multiple",
        "floor",
        "capacity",
        "rate",
        "increase",
        "decrease",
        "burst",
        "slo_multiple",
    ):
        value = getattr(spec, field, None)
        if value is None or field in kwargs:
            continue
        if accepts_any or field in params:
            kwargs[field] = value
    return resolve_admission(factory(**kwargs))


def is_known_policy(spec: str) -> bool:
    """Cheap name-only validation (no instantiation)."""
    try:
        name, _ = parse_spec(spec, "admission")
    except ValueError:
        return False
    return name in _FACTORIES or name in _ALIASES


def canonical_spec(spec: str) -> str:
    """Normalise *spec*: resolve aliases, keep any parameter suffix."""
    name, _ = parse_spec(spec, "admission")  # validates the k=v syntax
    resolved = _ALIASES.get(name, name)
    if resolved not in _FACTORIES:
        raise ValueError(
            f"unknown admission policy {name!r}; registered: "
            f"{', '.join(policy_names())}"
        )
    _, _, params = spec.partition(":")
    return f"{resolved}:{params}" if params else resolved


def policy_specs() -> list[dict[str, object]]:
    """Inspection rows for ``repro admission``: name, passthrough, blurb."""
    rows: list[dict[str, object]] = []
    for name in policy_names():
        policy = get_policy(name)
        rows.append(
            {
                "name": name,
                "passthrough": policy.passthrough,
                "description": policy.description,
            }
        )
    return rows


def _register_builtins() -> None:
    from .policies import AIMDAdmission, DelayGatedAdmission, NoneAdmission

    register_policy("none", NoneAdmission, aliases=("accept-all",))
    register_policy("aimd", AIMDAdmission)
    register_policy("delay_gated", DelayGatedAdmission, aliases=("delay",))


_register_builtins()
