"""The ``name:key=value[,key=value...]`` syntax of the registry specs.

The admission-policy and trace-loader registries accept a registered
name with an optional parameter suffix forwarded to the constructor,
e.g. ``aimd:floor=5,decrease=0.25`` or ``csv:time_col=ts``.
"""

from __future__ import annotations

__all__ = ["parse_spec"]


def parse_spec(spec: str, kind: str) -> tuple[str, dict[str, object]]:
    """Split *spec* into its name and constructor keyword arguments.

    Values parse as ``int``, then ``float``, else stay strings.  A
    parameter without ``=`` raises :class:`ValueError` naming the
    registry *kind* (``"admission"``, ``"loader"``).
    """
    name, _, params = spec.partition(":")
    name = name.strip()
    kwargs: dict[str, object] = {}
    if params:
        for item in params.split(","):
            key, sep, raw = item.partition("=")
            if not sep:
                raise ValueError(
                    f"bad {kind} parameter {item!r} in {spec!r}; "
                    "expected key=value"
                )
            raw = raw.strip()
            try:
                value: object = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
            kwargs[key.strip()] = value
    return name, kwargs
