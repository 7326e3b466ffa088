"""The trace-dataloader registry.

Loaders are looked up by name wherever a trace knob exists (the
``TraceSpec.loader`` field, ``repro traces --info``, ``repro matrix
--trace``, ``repro record --trace``).  Names accept an optional parameter suffix
``name:key=value[,key=value...]`` forwarded to the loader constructor,
e.g. ``csv:time_col=ts,delimiter=;``.  Third-party loaders register
through :func:`register_loader`; when no loader is named,
:func:`infer_loader` picks one from the file itself.

Example -- register a loader for a one-number-per-line format and load a
trace through it::

    >>> from repro.traces import TraceLoader, Trace, register_loader, load_trace
    >>> class LinesLoader(TraceLoader):
    ...     name = "lines"
    ...     description = "one arrival time per line"
    ...     def load(self, source):
    ...         with open(source) as fp:
    ...             times = [float(line) for line in fp if line.strip()]
    ...         return self._finish(source, times, [], {"format": "lines"})
    >>> register_loader("lines", LinesLoader, replace=True)
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "t.txt")
    >>> _ = open(path, "w").write("0.5\\n0.1\\n0.9\\n")
    >>> trace = load_trace(path, loader="lines")
    >>> trace.n_queries, [round(float(t), 1) for t in trace.arrivals]
    (3, [0.0, 0.4, 0.8])
"""

from __future__ import annotations

from typing import Callable, Union

from .._spec import parse_spec
from .loaders import (
    ArchiveTraceLoader,
    CsvTraceLoader,
    JsonlTraceLoader,
    RecordingTraceLoader,
    TraceLoader,
)
from .spec import Trace, TraceFormatError

__all__ = [
    "canonical_spec",
    "get_loader",
    "infer_loader",
    "is_known_loader",
    "load_trace",
    "loader_names",
    "loader_specs",
    "register_loader",
]

_FACTORIES: dict[str, Callable[..., TraceLoader]] = {}
_ALIASES: dict[str, str] = {}


def register_loader(
    name: str,
    factory: Callable[..., TraceLoader],
    aliases: tuple[str, ...] = (),
    replace: bool = False,
) -> None:
    """Register a loader factory under *name* (plus optional aliases)."""
    if not replace and (name in _FACTORIES or name in _ALIASES):
        raise ValueError(f"trace loader {name!r} is already registered")
    _FACTORIES[name] = factory
    for alias in aliases:
        if not replace and (alias in _FACTORIES or alias in _ALIASES):
            raise ValueError(
                f"trace loader alias {alias!r} is already registered"
            )
        _ALIASES[alias] = name


def loader_names() -> tuple[str, ...]:
    """Canonical registered loader names, registration order."""
    return tuple(_FACTORIES)


def get_loader(spec: Union[str, TraceLoader]) -> TraceLoader:
    """Resolve *spec* to a loader instance.

    An instance passes through; a string is looked up in the registry,
    with an optional ``:key=value,...`` parameter suffix forwarded to the
    loader constructor.  Raises :class:`ValueError` for unknown names.
    """
    if isinstance(spec, TraceLoader):
        return spec
    name, kwargs = parse_spec(spec, "loader")
    name = _ALIASES.get(name, name)
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown trace loader {name!r}; registered: "
            f"{', '.join(loader_names())}"
        )
    return factory(**kwargs)


def is_known_loader(spec: str) -> bool:
    """Cheap name-only validation (no instantiation, no file access)."""
    try:
        name, _ = parse_spec(spec, "loader")
    except ValueError:
        return False
    return name in _FACTORIES or name in _ALIASES


def canonical_spec(spec: str) -> str:
    """Normalise *spec*: resolve aliases, keep any parameter suffix."""
    name, _ = parse_spec(spec, "loader")  # validates the k=v syntax
    resolved = _ALIASES.get(name, name)
    if resolved not in _FACTORIES:
        raise ValueError(
            f"unknown trace loader {name!r}; registered: "
            f"{', '.join(loader_names())}"
        )
    _, _, params = spec.partition(":")
    return f"{resolved}:{params}" if params else resolved


def loader_specs() -> list[dict[str, object]]:
    """Inspection rows for ``repro traces``: name and description."""
    rows: list[dict[str, object]] = []
    for name in loader_names():
        loader = _FACTORIES[name]
        description = getattr(loader, "description", "") or ""
        aliases = tuple(a for a, n in _ALIASES.items() if n == name)
        rows.append(
            {"name": name, "aliases": aliases, "description": description}
        )
    return rows


def infer_loader(source: str) -> str:
    """Pick a loader name from *source*'s extension (and, for ``.npz``,
    its metadata: recordings vs plain run archives)."""
    src = str(source).lower()
    if src.endswith(".csv"):
        return "csv"
    if src.endswith((".jsonl", ".ndjson")):
        return "jsonl"
    if src.endswith(".npz"):
        from .record import is_recording

        return "recording" if is_recording(source) else "archive"
    raise TraceFormatError(
        f"{source}: cannot infer a trace loader from the extension; pass "
        f"loader= explicitly (registered: {', '.join(loader_names())})"
    )


def load_trace(
    source: str,
    loader: Union[str, TraceLoader, None] = None,
    time_scale: float = 1.0,
    rebase: bool = True,
    limit: int | None = None,
) -> Trace:
    """Load *source* through *loader* (inferred when ``None``) and apply
    the uniform time normalisation (see :meth:`Trace.normalised`)."""
    spec = infer_loader(source) if loader is None else loader
    trace = get_loader(spec).load(str(source))
    return trace.normalised(time_scale=time_scale, rebase=rebase, limit=limit)


def _register_builtins() -> None:
    register_loader("csv", CsvTraceLoader)
    register_loader("jsonl", JsonlTraceLoader, aliases=("ndjson",))
    register_loader("archive", ArchiveTraceLoader)
    register_loader("recording", RecordingTraceLoader, aliases=("rec",))


_register_builtins()
