"""Compressed columnar run archives.

A run archive is the durable form of a run's telemetry: the delay-log and
breakdown columns packed into one compressed ``.npz`` plus a JSON metadata
blob (schema version, drop count, and caller-supplied context such as
scenario name / engine / kernel), at a few tens of bytes per query, so
whole experiment matrices can be kept and diffed instead of re-run.

Each fact is stored once.  :func:`write_meta_npz` -- the one writer of
archives, recordings and snapshots -- leaves out a column that the file's
other columns rebuild byte for byte (``bd_total`` is ``log_finish -
log_arrival``; ``stim_arrivals``, ``log_subqueries`` and ``bd_scheduling``
repeat ``log_arrival``, ``log_pq`` and ``log_scheduling``) and lists it in
meta ``derived``; :func:`read_meta_npz` -- the one reader -- rebuilds it,
so callers see every column either way.  The check runs per file: a run
with drops, sheds or charged scheduling keeps whatever does not repeat.
Every member deflates at :data:`DEFLATE_LEVEL`, and a writer writes
exactly the path it is given, via a temporary file renamed over it once
complete.  A raw :func:`numpy.load` sees only the stored columns.

* :func:`write_archive` / :func:`read_archive` -- writer and reader (a
  recording, :mod:`repro.traces.record`, is an archive too);
* :class:`ArchiveWriter` -- a streaming chunk-listener writer: columns
  spool to disk append-per-chunk during the run, so archiving a day-scale
  trace replay never holds the telemetry in memory twice;
* :func:`archive_info` -- summary (query counts, per-column stats,
  bytes/query) backing ``repro archive info``;
* :func:`archive_diff` -- column-by-column comparison with first-divergence
  reporting, backing ``repro archive diff`` and the CI bit-identity gate.

Example -- write, read back, and diff a small run::

    >>> import tempfile, os
    >>> from repro.cluster import Deployment, DeploymentConfig, hen_testbed
    >>> dep = Deployment(DeploymentConfig(models=hen_testbed(8), p=4,
    ...                                   seed=1, charge_scheduling=False))
    >>> _ = dep.run_queries_fast([i * 0.01 for i in range(32)], 4)
    >>> path = os.path.join(tempfile.mkdtemp(), "run.npz")
    >>> write_archive(path, dep, meta={"scenario": "doctest"})
    >>> arch = read_archive(path)
    >>> arch.n_queries, arch.meta["scenario"]
    (32, 'doctest')
    >>> archive_diff(arch, arch)["identical"]
    True
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import shutil
import tempfile
import zipfile
import zlib
from dataclasses import dataclass

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

from .columns import array_percentile
from .listeners import ChunkListener

__all__ = [
    "ARCHIVE_SCHEMA",
    "ArchiveWriter",
    "RunArchive",
    "collect_columns",
    "write_archive",
    "write_archive_columns",
    "read_archive",
    "archive_info",
    "archive_diff",
]

#: Version of the archive layout; readers refuse archives they cannot parse.
ARCHIVE_SCHEMA = 1

_LOG_COLUMNS = (
    "log_query_id",
    "log_arrival",
    "log_finish",
    "log_pq",
    "log_subqueries",
    "log_scheduling",
)
_BD_COLUMNS = (
    "bd_scheduling",
    "bd_network",
    "bd_queueing",
    "bd_service",
    "bd_total",
)

#: wall-clock-derived columns: diffs report but do not gate on them (the
#: same exclusion the batched/per-query differential tests apply).
_WALL_COLUMNS = frozenset({"log_scheduling", "bd_scheduling"})

#: zlib level of every member the writer deflates.  The float columns
#: hardly compress at any level (to 75-92% of their size), and level 1
#: deflates them in under half the time of zlib's default 6.
DEFLATE_LEVEL = 1

#: Columns the writer leaves out when the same file's stored columns
#: rebuild them byte for byte: name -> (source columns, rebuild).  No
#: source is itself derivable, so the reader rebuilds in any order.
_DERIVED = {
    "stim_arrivals": (("log_arrival",), lambda arrival: arrival.copy()),
    "bd_total": (("log_finish", "log_arrival"), lambda finish, arrival: finish - arrival),
    "log_subqueries": (("log_pq",), lambda pq: pq.copy()),
    "bd_scheduling": (("log_scheduling",), lambda scheduling: scheduling.copy()),
}

#: storage dtype per archive column (little-endian, platform-independent).
_COLUMN_DTYPES = {
    "log_query_id": "<i8",
    "log_pq": "<i8",
    "log_subqueries": "<i8",
}

#: archive column -> :class:`~repro.telemetry.listeners.ChunkArrays` field.
_CHUNK_FIELDS = {
    "log_query_id": "query_ids",
    "log_arrival": "arrivals",
    "log_finish": "finishes",
    "log_pq": "pqs",
    "log_subqueries": "subqueries",
    "log_scheduling": "scheduling",
    "bd_scheduling": "scheduling",
    "bd_network": "network",
    "bd_queueing": "queueing",
    "bd_service": "service",
    "bd_total": "total",
}


def _column_dtype(name: str) -> "np.dtype":
    return np.dtype(_COLUMN_DTYPES.get(name, "<f8"))


def _archive_columns(wall_columns: bool = True) -> tuple[str, ...]:
    names = _LOG_COLUMNS + _BD_COLUMNS
    if wall_columns:
        return names
    return tuple(n for n in names if n not in _WALL_COLUMNS)


@dataclass
class RunArchive:
    """One archived run: JSON ``meta`` + named numpy columns.

    ``derived`` names the columns the file left out and the reader
    rebuilt (every column is in ``columns`` either way).
    """

    meta: dict
    columns: dict
    path: str | None = None
    derived: tuple = ()

    @property
    def n_queries(self) -> int:
        return int(self.columns["log_arrival"].size)

    def delays(self) -> "np.ndarray":
        return self.columns["log_finish"] - self.columns["log_arrival"]


def collect_columns(deployment, wall_columns: bool = True) -> dict:
    """*deployment*'s telemetry columns keyed by archive column name.

    With ``wall_columns=False`` the wall-clock-derived columns
    (``log_scheduling``/``bd_scheduling``) are left out -- the right shape
    for archives that must be bit-identical across runs (record/replay).
    """
    log = deployment.log
    bd = deployment.breakdowns
    sources = {
        "log_query_id": lambda: log.column("query_id"),
        "log_arrival": lambda: log.column("arrival"),
        "log_finish": lambda: log.column("finish"),
        "log_pq": lambda: log.column("pq"),
        "log_subqueries": lambda: log.column("subqueries"),
        "log_scheduling": lambda: log.column("scheduling"),
        "bd_scheduling": lambda: bd.column("scheduling"),
        "bd_network": lambda: bd.column("network"),
        "bd_queueing": lambda: bd.column("queueing"),
        "bd_service": lambda: bd.column("service"),
        "bd_total": lambda: bd.column("total"),
    }
    return {
        name: sources[name]() for name in _archive_columns(wall_columns)
    }


def write_meta_npz(path, meta: dict, columns: dict) -> None:
    """Write *meta* and *columns* as one ``.npz`` at exactly *path*.

    The one writer of archives, recordings and snapshots.  A column of
    the derivation table (``_DERIVED``) that its sources in *columns*
    rebuild byte for byte is left out and listed in the stored meta's
    ``derived`` (a reserved key); :func:`read_meta_npz` rebuilds it.
    Every member deflates at :data:`DEFLATE_LEVEL`.  A value in
    *columns* may be a zero-argument callable that opens the array: it
    is opened when needed and released right after, so a streamed
    archive never maps all its spools at once.  The file is written
    under a temporary name beside *path* and renamed over it once
    complete; on any failure *path* is left as it was.
    """
    if "meta_json" in columns:
        raise ValueError("column name 'meta_json' is reserved for the metadata")

    def load(name):
        col = columns[name]
        return col() if callable(col) else np.asanyarray(col)

    # derive only from sources shaped like log_query_id, as the reader checks
    rows = load("log_query_id").shape if "log_query_id" in columns else None
    derived = []
    for name, (sources, rebuild) in _DERIVED.items():
        if rows is not None and name in columns and all(s in columns for s in sources):
            srcs = [load(s) for s in sources]
            if all(s.shape == rows for s in srcs) and _same_bytes(
                rebuild(*srcs), load(name)
            ):
                derived.append(name)
            del srcs  # release the spools' mappings one check at a time
    stored_meta = {k: v for k, v in meta.items() if k != "derived"}
    if derived:
        stored_meta["derived"] = derived
    payload = np.frombuffer(json.dumps(stored_meta).encode("utf-8"), dtype=np.uint8)
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh, zipfile.ZipFile(
            fh, "w", zipfile.ZIP_DEFLATED, compresslevel=DEFLATE_LEVEL
        ) as zf:
            for name in ("meta_json", *columns):
                if name in derived:
                    continue
                arr = payload if name == "meta_json" else load(name)
                with zf.open(f"{name}.npy", "w", force_zip64=True) as out:
                    np.lib.format.write_array(out, arr)
                del arr
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_archive_columns(
    path, columns: dict, meta: dict | None = None, dropped: int = 0
) -> None:
    """Write pre-collected *columns* as an archive at exactly *path*."""
    full_meta = dict(meta or {})
    full_meta["schema"] = ARCHIVE_SCHEMA
    full_meta.setdefault("dropped", dropped)
    write_meta_npz(path, full_meta, columns)


def write_archive(
    path, deployment, meta: dict | None = None, wall_columns: bool = True
) -> None:
    """Archive *deployment*'s telemetry columns at exactly *path*.

    *meta* is caller context (scenario name, engine, kernel, parameters);
    it must be JSON-serialisable and is stored under the caller's keys
    (reserved keys: ``schema``, ``dropped``, ``derived``).  ``wall_columns=False``
    omits the wall-clock-derived columns, making the archive comparable
    bit-for-bit across runs of the same stimulus.
    """
    columns = collect_columns(deployment, wall_columns=wall_columns)
    full_meta = dict(meta or {})
    if not wall_columns:
        full_meta["wall_columns"] = False
    write_archive_columns(
        path, columns, meta=full_meta, dropped=deployment.log.dropped
    )


class ArchiveWriter(ChunkListener):
    """Streaming archive writer: append-per-chunk, finalise to ``.npz``.

    Register on ``deployment.chunk_listeners`` before the run; every
    flushed chunk's columns are appended to per-column raw spool files (a
    few array-to-bytes copies, no per-query python, nothing retained in
    memory), and :meth:`close` assembles the final archive at exactly
    *path* -- byte-compatible with :func:`write_archive` -- from the
    spools.  Use as a context manager to guarantee cleanup::

        with ArchiveWriter(path, meta={...}) as writer:
            deployment.chunk_listeners.append(writer)
            ...  # run
            writer.close(dropped=deployment.log.dropped)

    Exiting the ``with`` block without :meth:`close` aborts (removes the
    spools, writes nothing) -- a crashed run leaves no half-archive.
    """

    def __init__(
        self, path, meta: dict | None = None, wall_columns: bool = True
    ) -> None:
        self.path = path
        self.meta = dict(meta or {})
        self.n_rows = 0
        self._columns = _archive_columns(wall_columns)
        if not wall_columns:
            self.meta["wall_columns"] = False
        self._spool_dir = tempfile.mkdtemp(prefix="repro-archive-")
        self._spools = {
            name: open(os.path.join(self._spool_dir, name), "wb")
            for name in self._columns
        }
        self._closed = False

    # -- listener interface ------------------------------------------------
    def observe_chunk(self, arrays, start: int, nq: int) -> None:
        if self._closed:
            raise RuntimeError("ArchiveWriter is closed")
        for name, fp in self._spools.items():
            col = getattr(arrays, _CHUNK_FIELDS[name])
            fp.write(
                np.ascontiguousarray(col, dtype=_column_dtype(name)).tobytes()
            )
        self.n_rows += len(arrays)

    # -- lifecycle ---------------------------------------------------------
    def close(
        self,
        dropped: int = 0,
        meta: dict | None = None,
        extra_columns: dict | None = None,
    ) -> None:
        """Finalise the archive (flush spools, write the ``.npz``).

        *extra_columns* adds arbitrary caller-supplied numpy columns
        (e.g. the control plane's ``dec_*`` decision columns) next to the
        streamed per-query ones; :func:`read_archive` returns every
        non-meta column generically, so they round-trip for free.  A
        close that fails -- an extra column that collides with a
        streamed one included -- writes nothing and leaves *path* as it
        was; the spools are discarded either way.
        """
        if self._closed:
            return
        full_meta = dict(self.meta)
        full_meta.update(meta or {})
        full_meta["schema"] = ARCHIVE_SCHEMA
        full_meta.setdefault("dropped", dropped)
        for fp in self._spools.values():
            fp.close()
        try:
            extra = extra_columns or {}
            for name in extra:
                if name in self._columns:
                    raise ValueError(
                        f"extra column {name!r} collides with a "
                        "streamed archive column"
                    )
            streamed = {
                name: functools.partial(self._spooled, name) for name in self._columns
            }
            write_meta_npz(self.path, full_meta, {**streamed, **extra})
        finally:
            self._cleanup()

    def _spooled(self, name: str) -> "np.ndarray":
        """Column *name* mapped from its spool (read-only)."""
        dtype = _column_dtype(name)
        if not self.n_rows:
            return np.empty(0, dtype=dtype)
        spool = os.path.join(self._spool_dir, name)
        return np.memmap(spool, dtype=dtype, mode="r", shape=(self.n_rows,))

    def abort(self) -> None:
        """Discard the spools without writing an archive."""
        if self._closed:
            return
        for fp in self._spools.values():
            fp.close()
        self._cleanup()

    def _cleanup(self) -> None:
        self._closed = True
        shutil.rmtree(self._spool_dir, ignore_errors=True)

    def __enter__(self) -> "ArchiveWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.abort()  # no-op when close() already ran


def read_meta_npz(
    path, kind: str, fix: str, error: type = ValueError
) -> tuple[dict, dict, list]:
    """``(meta, columns, derived)`` of an ``.npz`` that carries a
    ``meta_json`` column -- the one reader behind :func:`read_archive`,
    :func:`~repro.traces.record.read_recording` and
    :meth:`~repro.telemetry.snapshot.Snapshot.load`.

    The columns meta ``derived`` names are rebuilt from the stored ones
    and the key leaves *meta* (it comes back as *derived*), so a caller
    sees the same meta and columns whether :func:`write_meta_npz` left a
    column out or a writer stored them all.  A file that numpy cannot
    read -- truncated, empty, not a zip, or without ``meta_json`` --
    raises *error* with the path, the problem and the fix, not zipfile's
    or numpy's bare exception; a ``derived`` list this build cannot
    rebuild -- an unknown column, or a source column missing or not
    shaped like ``log_query_id`` -- raises *error* naming the path, the
    column and *fix*.  A missing file still raises ``OSError``.
    """
    unreadable = f"the file is truncated or is not a {kind}; write it again"
    try:
        with np.load(path) as data:
            if "meta_json" not in data.files:
                raise KeyError("meta_json")
            meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
            if not isinstance(meta, dict):
                raise ValueError("meta_json is not a JSON object")
            columns = {k: data[k] for k in data.files if k != "meta_json"}
    except KeyError:
        raise error(f"{path}: column 'meta_json' is missing; {unreadable}") from None
    except (zipfile.BadZipFile, zlib.error, EOFError, TypeError, ValueError) as exc:
        raise error(f"{path}: not a readable {kind} ({exc}); {unreadable}") from None
    derived = meta.pop("derived", [])
    if not isinstance(derived, list):
        raise error(f"{path}: meta key 'derived' is not a list of columns; {fix}")
    for name in derived:
        if not isinstance(name, str) or name not in _DERIVED:
            raise error(
                f"{path}: derived column {name!r} is not one this build "
                f"rebuilds; {fix}"
            )
        sources, rebuild = _DERIVED[name]
        for source in ("log_query_id", *sources):
            if source not in columns:
                raise error(
                    f"{path}: column {source!r} is missing, and derived column "
                    f"{name!r} is rebuilt from it; {fix}"
                )
            shape, want = columns[source].shape, columns["log_query_id"].shape
            if shape != want:
                raise error(
                    f"{path}: column {source!r} has shape {shape}, 'log_query_id' "
                    f"has {want}, and derived column {name!r} is rebuilt from it; "
                    f"{fix}"
                )
        columns[name] = rebuild(*(columns[s] for s in sources))
    return meta, columns, derived


def check_columns(path, columns: dict, fix: str, error: type = ValueError) -> None:
    """Refuse *columns* that do not hold one run's per-query telemetry.

    The nine wall-free ``log_*``/``bd_*`` columns must be present and
    every ``log_*``/``bd_*`` column must hold as many values as
    ``log_query_id``; otherwise raise *error* naming *path*, the column
    and *fix* -- not a ``KeyError`` or a numpy shape error downstream.
    """
    for name in _archive_columns(wall_columns=False):
        if name not in columns:
            raise error(f"{path}: column {name!r} is missing; {fix}")
    n = columns["log_query_id"].size
    for name, col in columns.items():
        if name.startswith(("log_", "bd_")) and col.size != n:
            raise error(
                f"{path}: column {name!r} has {col.size} values, "
                f"'log_query_id' has {n}; {fix}"
            )


def read_archive(path, kind: str = "run archive") -> RunArchive:
    """Read an archive written by :func:`write_archive` or
    :class:`ArchiveWriter` -- a recording is one too.

    *kind* names what the file should be in the error an unreadable file
    raises.
    """
    fix = "the archive is corrupt -- write it again"
    meta, columns, derived = read_meta_npz(path, kind, fix)
    schema = meta.get("schema")
    if schema != ARCHIVE_SCHEMA:
        raise ValueError(
            f"{path}: archive schema {schema!r} not supported "
            f"(this build reads schema {ARCHIVE_SCHEMA}); write the archive "
            "again with this build"
        )
    check_columns(path, columns, fix)
    return RunArchive(
        meta=meta, columns=columns, path=str(path), derived=tuple(derived)
    )


def archive_info(archive: RunArchive) -> dict:
    """Summary statistics of one archive (the ``archive info`` payload)."""
    n = archive.n_queries
    info = {
        "path": archive.path,
        "schema": archive.meta.get("schema"),
        "n_queries": n,
        "dropped": archive.meta.get("dropped", 0),
        "columns": sorted(archive.columns),
        "derived": sorted(archive.derived),
        "meta": {
            k: v
            for k, v in archive.meta.items()
            if k not in ("schema", "dropped")
        },
    }
    if archive.path is not None and os.path.exists(archive.path):
        size = os.path.getsize(archive.path)
        info["file_bytes"] = size
        info["bytes_per_query"] = size / n if n else math.nan
    if n:
        delays = archive.delays()
        info["mean_delay"] = float(delays.sum() / n)
        for q in (50, 95, 99):
            info[f"p{q}_delay"] = array_percentile(delays, q)
    return info


def _same_bytes(a: "np.ndarray", b: "np.ndarray") -> bool:
    """Byte-for-byte column equality: dtype, shape and bytes.  A NaN
    column equals itself, and ``0.0`` and ``-0.0`` differ."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _first_divergence(a: "np.ndarray", b: "np.ndarray") -> int:
    """The first index whose element bytes differ (0 for a dtype change;
    the shorter length when one column is a byte-equal prefix)."""
    k = min(a.size, b.size)
    if a.dtype != b.dtype:
        return 0
    elem = np.dtype((np.void, a.dtype.itemsize))
    neq = np.ascontiguousarray(a[:k]).view(elem) != np.ascontiguousarray(b[:k]).view(elem)
    idx = np.nonzero(neq)[0]
    if idx.size:
        return int(idx[0])
    return k  # length mismatch: diverges where the shorter one ends


def archive_diff(a: RunArchive, b: RunArchive) -> dict:
    """Column-by-column comparison of two archives.

    Returns ``{"identical": bool, "gated_identical": bool, "columns":
    {name: {...}}}``.  Columns compare byte for byte (dtype, shape and
    bytes), so a NaN column -- ``adm_rate`` of a rateless policy -- equals
    itself.  ``identical`` requires every shared column equal and no
    column present on one side only; ``gated_identical`` applies
    the differential-test exclusion of wall-clock-derived columns
    (``log_scheduling``/``bd_scheduling``) -- the right predicate for CI
    bit-identity gates.
    """
    names = sorted(set(a.columns) | set(b.columns))
    out: dict = {"columns": {}}
    identical = True
    gated_identical = True
    for name in names:
        ca = a.columns.get(name)
        cb = b.columns.get(name)
        if ca is None or cb is None:
            entry = {"equal": False, "missing_in": "a" if ca is None else "b"}
            identical = False
            if name not in _WALL_COLUMNS:
                gated_identical = False
            out["columns"][name] = entry
            continue
        equal = _same_bytes(ca, cb)
        entry = {"equal": equal, "n_a": int(ca.size), "n_b": int(cb.size)}
        if not equal:
            entry["first_divergence"] = _first_divergence(ca, cb)
            k = min(ca.size, cb.size)
            if k and np.issubdtype(ca.dtype, np.floating):
                entry["max_abs_diff"] = float(
                    np.max(np.abs(ca[:k] - cb[:k]))
                )
            identical = False
            if name not in _WALL_COLUMNS:
                gated_identical = False
        out["columns"][name] = entry
    out["identical"] = identical
    out["gated_identical"] = gated_identical
    return out
