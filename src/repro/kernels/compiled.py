"""The compiled kernel: the whole scheduling block as one C call.

``csrc/sweep.c`` replicates the exact oracle's float arithmetic in C --
estimate evaluation, the owner-timeline sweep, and the final assignment --
fused into a single pass with no temporaries.  The oracle gathers all
``pq * n_rings`` estimates of every configuration through ~10 numpy
dispatches per query; the C sweep keeps a *witness* point whose value
already rules the current best out, and after each rejection jumps to the
witness point's next owner change (``KernelPack.next_change``), so it
reads about one estimate per ring per owner along the witness's track
rather than one per configuration (``docs/kernels.md`` has the exactness
argument and the measured counts).

Build story: the C source has **no Python.h dependency**, so it needs only
a C compiler, not Python headers.  On first use it is compiled with the
system toolchain (``cc``/``gcc``/``clang``) into a per-user cache keyed by
the source hash, then loaded through :mod:`ctypes`.  ``repro[fast]``
installs numpy; the compiled kernel is an opportunistic layer on top --
when no toolchain is present, :func:`compiled_available` is False, the
registry refuses the kernel with a clear message, and everything else
falls back to the pure-python-built oracle.  Set ``REPRO_KERNEL_CACHE``
to relocate the build cache, ``REPRO_NO_COMPILED_KERNEL=1`` to disable
the kernel outright (CI uses this to test the fallback path).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Optional

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

from .base import (
    AdmissionGate,
    CommitBuffers,
    CommitPlan,
    KernelUnavailableError,
    PqEntry,
    SweepKernel,
    SweepState,
    UpdateStream,
    check_commit_args,
)

__all__ = [
    "CompiledKernel",
    "compiled_available",
    "compiled_unavailable_reason",
    "load_sweep_library",
]

_SOURCE = Path(__file__).with_name("csrc") / "sweep.c"
_ABI_VERSION = 8

#: memoised library handle / failure reason (one build attempt per process).
_lib: Optional[ctypes.CDLL] = None
_load_error: Optional[str] = None
_probed = False


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-roar" / "kernels"


def _find_compiler() -> Optional[str]:
    cc = sysconfig.get_config_var("CC")
    candidates = ([cc.split()[0]] if cc else []) + ["cc", "gcc", "clang"]
    for cand in candidates:
        path = shutil.which(cand)
        if path:
            return path
    return None


def _build_library() -> Path:
    """Compile ``sweep.c`` into the cache; returns the shared-object path."""
    source = _SOURCE.read_text()
    tag = hashlib.sha256(
        f"{source}|abi={_ABI_VERSION}|{os.uname().machine}".encode()
    ).hexdigest()[:16]
    out = _cache_dir() / f"roar_sweep_{tag}.so"
    if out.exists():
        return out
    compiler = _find_compiler()
    if compiler is None:
        raise KernelUnavailableError(
            "no C compiler found (looked for $CC, cc, gcc, clang); install "
            "a toolchain or use kernel='exact_numpy'"
        )
    out.parent.mkdir(parents=True, exist_ok=True)
    # build to a temp name then atomically rename: concurrent processes
    # racing the first build must never load a half-written object
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=out.parent)
    os.close(fd)
    try:
        # -march=native is safe for this JIT-style build (the object is
        # always built on the machine that runs it) and optional.
        # -ffp-contract=off is NOT optional: the fused commit's EWMA update
        # (om_alpha*spd + alpha*(work/eff)) is a fused-multiply-add
        # candidate, and both gcc and clang contract by default at -O3,
        # which would change the float results and break the bit-identity
        # contract.  A compiler that rejects the flag therefore cannot
        # build this kernel -- refuse and fall back to the oracle rather
        # than ship silently-drifting floats.
        base = [compiler, "-O3", "-fPIC", "-shared", "-o", tmp, str(_SOURCE), "-lm"]
        attempts = (
            base[:1] + ["-march=native", "-ffp-contract=off"] + base[1:],
            base[:1] + ["-ffp-contract=off"] + base[1:],
        )
        stderr = ""
        for cmd in attempts:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
            if proc.returncode == 0:
                break
            stderr = proc.stderr.strip()
        else:
            raise KernelUnavailableError(
                f"C kernel build failed ({compiler}; -ffp-contract=off is "
                f"required for bit-identity):\n{stderr}"
            )
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return out


def load_sweep_library() -> ctypes.CDLL:
    """Build (once, cached) and load the compiled sweep; memoised."""
    global _lib, _load_error, _probed
    if _lib is not None:
        return _lib
    if _probed and _load_error is not None:
        raise KernelUnavailableError(_load_error)
    _probed = True
    try:
        if os.environ.get("REPRO_NO_COMPILED_KERNEL"):
            raise KernelUnavailableError(
                "compiled kernel disabled via REPRO_NO_COMPILED_KERNEL"
            )
        if np is None:  # pragma: no cover - the image bakes numpy in
            raise KernelUnavailableError("the compiled kernel requires numpy")
        if np.dtype(np.intp).itemsize != 8:  # pragma: no cover - LP64 only
            raise KernelUnavailableError(
                "the compiled kernel assumes 64-bit numpy intp"
            )
        lib = ctypes.CDLL(str(_build_library()))
        lib.roar_sweep_abi_version.restype = ctypes.c_int64
        if lib.roar_sweep_abi_version() != _ABI_VERSION:  # pragma: no cover
            raise KernelUnavailableError("stale compiled kernel ABI; clear the cache")
        fn = lib.roar_sweep_select
        fn.restype = ctypes.c_int64
        fn.argtypes = [ctypes.c_void_p, ctypes.c_double]  # (&args, now)
        cb = lib.roar_commit_batch
        cb.restype = ctypes.c_int64
        cb.argtypes = [  # (&args, start, nq)
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_int64,
        ]
        _lib = lib
        return lib
    except KernelUnavailableError as exc:
        _load_error = str(exc)
        raise


def compiled_available() -> bool:
    """True when the C kernel can be (or already was) built and loaded."""
    try:
        load_sweep_library()
        return True
    except KernelUnavailableError:
        return False


def compiled_unavailable_reason() -> Optional[str]:
    """Why the compiled kernel cannot run, or None when it can."""
    return None if compiled_available() else _load_error


class _SweepArgs(ctypes.Structure):
    """Mirror of ``roar_sweep_args`` in ``csrc/sweep.c`` (keep in sync)."""

    _fields_ = [
        ("busy", ctypes.c_void_p),
        ("q_over_s", ctypes.c_void_p),
        ("fe_fixed", ctypes.c_double),
        ("n", ctypes.c_int64),
        ("owners", ctypes.c_void_p),
        ("ring_lo", ctypes.c_void_p),
        ("ring_hi", ctypes.c_void_p),
        ("n_rings", ctypes.c_int64),
        ("pq", ctypes.c_int64),
        ("n_configs", ctypes.c_int64),
        ("n_eval", ctypes.c_int64),
        ("next_change", ctypes.c_void_p),
        ("config_start_id", ctypes.c_void_p),
        ("offs", ctypes.c_void_p),
        ("starts_flat", ctypes.c_void_p),
        ("g_out", ctypes.c_void_p),
        ("pts_out", ctypes.c_void_p),
        ("start_id_out", ctypes.c_void_p),
    ]


class _CommitArgs(ctypes.Structure):
    """Mirror of ``roar_commit_args`` in ``csrc/sweep.c`` (keep in sync)."""

    _fields_ = [
        ("sweep", _SweepArgs),
        ("srv_fixed", ctypes.c_void_p),
        ("srv_speed", ctypes.c_void_p),
        ("alpha", ctypes.c_double),
        ("om_alpha", ctypes.c_double),
        ("dataset", ctypes.c_double),
        ("wd", ctypes.c_double),
        ("off0", ctypes.c_double),
        ("arrivals", ctypes.c_void_p),
        ("rtts", ctypes.c_void_p),
        ("busy_mut", ctypes.c_void_p),
        ("spd", ctypes.c_void_p),
        ("q_over_s_mut", ctypes.c_void_p),
        ("wbuf", ctypes.c_void_p),
        ("res_g", ctypes.c_void_p),
        ("res_v", ctypes.c_void_p),
        ("res_n", ctypes.c_void_p),
        ("sub_g", ctypes.c_void_p),
        ("sub_service", ctypes.c_void_p),
        ("sub_work", ctypes.c_void_p),
        ("sub_finish", ctypes.c_void_p),
        ("sub_start", ctypes.c_void_p),
        ("q_total", ctypes.c_void_p),
        ("q_mw", ctypes.c_void_p),
        ("q_ms", ctypes.c_void_p),
        ("q_sent", ctypes.c_void_p),
        ("gate", ctypes.c_void_p),
        ("failed", ctypes.c_void_p),
        ("lost", ctypes.c_void_p),
        ("stop", ctypes.c_void_p),
        ("stop_g", ctypes.c_void_p),
        ("stop_start_id", ctypes.c_void_p),
        ("busy_time", ctypes.c_void_p),
        ("objects", ctypes.c_void_p),
        ("tasks", ctypes.c_void_p),
        ("completed", ctypes.c_void_p),
        ("last_seen", ctypes.c_void_p),
        ("touched", ctypes.c_void_p),
        ("alive", ctypes.c_void_p),
        ("upd_work", ctypes.c_void_p),
        ("upd_service", ctypes.c_void_p),
        ("trace", ctypes.c_void_p),
        ("busy_snap", ctypes.c_void_p),
        ("upd", ctypes.c_void_p),
    ]


class _UpdateArgs(ctypes.Structure):
    """Mirror of ``roar_updates`` in ``csrc/sweep.c`` (keep in sync)."""

    _fields_ = [
        ("q", ctypes.c_void_p),
        ("t", ctypes.c_void_p),
        ("pos", ctypes.c_void_p),
        ("next", ctypes.c_int64),
        ("end", ctypes.c_int64),
        ("r", ctypes.c_int64),
        ("snap_due", ctypes.c_int64),
        ("n_written", ctypes.c_int64),
        ("n_rows", ctypes.c_int64),
        ("row_g", ctypes.c_void_p),
        ("row_at", ctypes.c_void_p),
        ("row_t", ctypes.c_void_p),
        ("row_start", ctypes.c_void_p),
        ("row_finish", ctypes.c_void_p),
    ]

    @classmethod
    def for_stream(cls, stream: UpdateStream) -> "_UpdateArgs":
        """The stream's struct (cached on it, rebuilt when its trace rows
        were reallocated), its scalars copied in."""
        cached = stream.ext.get("compiled")
        if cached is None or cached[1] is not stream.row_g:
            args = cls(
                q=stream.q.ctypes.data,
                t=stream.t.ctypes.data,
                pos=stream.pos.ctypes.data,
                row_g=stream.row_g.ctypes.data,
                row_at=stream.row_at.ctypes.data,
                row_t=stream.row_t.ctypes.data,
                row_start=stream.row_start.ctypes.data,
                row_finish=stream.row_finish.ctypes.data,
            )
            stream.ext["compiled"] = (args, stream.row_g)
        else:
            args = cached[0]
        args.next = stream.next
        args.end = stream.end
        args.r = stream.r
        args.snap_due = stream.snap_due
        args.n_written = args.n_rows = 0
        return args

    def copy_out(self, stream: UpdateStream) -> None:
        stream.next = self.next
        stream.snap_due = self.snap_due
        stream.n_written = self.n_written
        stream.n_rows = self.n_rows


class _GateArgs(ctypes.Structure):
    """Mirror of ``roar_gate`` in ``csrc/sweep.c`` (keep in sync)."""

    _fields_ = [
        ("queue_cap", ctypes.c_double),
        ("rate", ctypes.c_double),
        ("burst", ctypes.c_double),
        ("tokens", ctypes.c_double),
        ("accrued_at", ctypes.c_double),
        ("backlog_hwm", ctypes.c_double),
        ("max_admitted_backlog", ctypes.c_double),
        ("bucket", ctypes.c_int64),
        ("n_shed", ctypes.c_int64),
        ("adm_idx", ctypes.c_void_p),
        ("shed_time", ctypes.c_void_p),
        ("shed_idx", ctypes.c_void_p),
        ("shed_reason", ctypes.c_void_p),
        ("shed_backlog", ctypes.c_void_p),
        ("shed_signal", ctypes.c_void_p),
    ]

    @classmethod
    def for_gate(cls, gate: AdmissionGate) -> "_GateArgs":
        """The gate's struct (cached on it), pointing at its out arrays."""
        args = gate.ext.get("compiled")
        if args is None:
            args = cls(
                adm_idx=gate.adm_idx.ctypes.data,
                shed_time=gate.shed_time.ctypes.data,
                shed_idx=gate.shed_idx.ctypes.data,
                shed_reason=gate.shed_reason.ctypes.data,
                shed_backlog=gate.shed_backlog.ctypes.data,
                shed_signal=gate.shed_signal.ctypes.data,
            )
            gate.ext["compiled"] = args
        return args


def _check_block(name: str, arr: "np.ndarray", shape: tuple) -> None:
    """Refuse an index array the C sweep would misread through its pointer."""
    if arr.dtype != np.int64 or arr.shape != shape or not arr.flags.c_contiguous:
        raise ValueError(
            f"KernelPack.{name} must be a C-contiguous int64 array of shape "
            f"{shape}; got {arr.dtype} {arr.shape} "
            f"(C-contiguous: {arr.flags.c_contiguous})"
        )


def _sweep_struct(
    state: SweepState,
    entry: PqEntry,
    starts_flat: "np.ndarray",
    g_buf: "np.ndarray",
    pts_buf: "np.ndarray",
    sid_buf: "np.ndarray",
) -> tuple[_SweepArgs, tuple]:
    """Fill a :class:`_SweepArgs` for (state, entry); returns (struct, holds)."""
    pack = entry.table.kernel_pack()
    pq, n_configs = len(entry.offs), entry.n_configs
    _check_block("owner_stack", pack.owner_stack, (state.n_rings, pq, n_configs))
    _check_block("next_change", pack.next_change, (pq, n_configs))
    lo = np.asarray(state.ring_lo, dtype=np.int64)
    hi = np.asarray(state.ring_hi, dtype=np.int64)
    offs = np.asarray(entry.offs, dtype=np.float64)
    args = _SweepArgs(
        busy=state.busy.ctypes.data,
        q_over_s=entry.Q.ctypes.data,
        fe_fixed=state.fe_fixed,
        n=state.n,
        owners=pack.owner_stack.ctypes.data,
        ring_lo=lo.ctypes.data,
        ring_hi=hi.ctypes.data,
        n_rings=state.n_rings,
        pq=pq,
        n_configs=n_configs,
        n_eval=pack.n_eval,
        next_change=pack.next_change.ctypes.data,
        config_start_id=pack.config_start_id.ctypes.data,
        offs=offs.ctypes.data,
        starts_flat=starts_flat.ctypes.data,
        g_out=g_buf.ctypes.data,
        pts_out=pts_buf.ctypes.data,
        start_id_out=sid_buf.ctypes.data,
    )
    holds = (lo, hi, offs, pack, starts_flat, state)
    return args, holds


class _EntryBlock:
    """Per-(state, entry) argument block cached on ``entry.ext``.

    Every per-query-invariant pointer is written into one
    :class:`_SweepArgs` struct so each ``select`` marshals exactly two
    foreign-call arguments.  The referenced numpy arrays are held on the
    block (``_hold``) so the raw pointers cannot dangle.
    """

    __slots__ = ("args_ptr", "g_buf", "pts_buf", "sid_buf", "state_token", "_hold")

    def __init__(
        self, state: SweepState, entry: PqEntry, starts_flat: "np.ndarray"
    ) -> None:
        pq = len(entry.offs)
        self.g_buf = np.empty(pq, dtype=np.int64)
        self.pts_buf = np.empty(pq, dtype=np.float64)
        self.sid_buf = np.empty(1, dtype=np.float64)
        args, holds = _sweep_struct(
            state, entry, starts_flat, self.g_buf, self.pts_buf, self.sid_buf
        )
        # keep the struct and every array behind its raw pointers alive
        self._hold = (args, holds)
        self.args_ptr = ctypes.addressof(args)
        self.state_token = id(state)


class _CommitBlock:
    """Per-(state, entry, plan, bufs) fused-commit argument block.

    Same idea as :class:`_EntryBlock`, one level up: every pointer a whole
    chunk's sweep+commit needs -- including the engine-owned
    :class:`~repro.kernels.base.CommitBuffers` out arrays, the plan's
    per-server accumulators and the batch's arrival times -- lives in one
    struct, so each chunk marshals three scalar foreign-call arguments
    (block pointer, start index, count).  With no *entry* and *bufs* the
    block serves calls with no queries: the sweep struct carries only the
    ring geometry the update walk reads, and every per-entry pointer is
    NULL.
    """

    __slots__ = (
        "args",
        "args_ptr",
        "state_token",
        "plan_token",
        "bufs_token",
        "_hold",
    )

    def __init__(
        self,
        state: SweepState,
        entry: Optional[PqEntry],
        plan: CommitPlan,
        bufs: Optional[CommitBuffers],
        starts_flat: "np.ndarray",
    ) -> None:
        fields = dict(
            srv_fixed=plan.srv_fixed.ctypes.data,
            srv_speed=plan.srv_speed.ctypes.data,
            alpha=plan.alpha,
            om_alpha=plan.om_alpha,
            dataset=plan.dataset,
            arrivals=plan.arrivals.ctypes.data,
            busy_mut=state.busy.ctypes.data,
            spd=plan.spd.ctypes.data,
            busy_time=plan.busy_time.ctypes.data,
            objects=plan.objects.ctypes.data,
            tasks=plan.tasks.ctypes.data,
            completed=plan.completed.ctypes.data,
            last_seen=plan.last_seen.ctypes.data,
            touched=plan.touched.ctypes.data,
            alive=plan.alive.ctypes.data,
            upd_work=plan.upd_work.ctypes.data,
            upd_service=plan.upd_service.ctypes.data,
            trace=None if plan.trace is None else plan.trace.ctypes.data,
            busy_snap=plan.busy_snap.ctypes.data,
        )
        if entry is None:
            lo = np.asarray(state.ring_lo, dtype=np.int64)
            hi = np.asarray(state.ring_hi, dtype=np.int64)
            sweep = _SweepArgs(
                busy=state.busy.ctypes.data,
                fe_fixed=state.fe_fixed,
                n=state.n,
                ring_lo=lo.ctypes.data,
                ring_hi=hi.ctypes.data,
                n_rings=state.n_rings,
                starts_flat=starts_flat.ctypes.data,
            )
            scratch: tuple = (lo, hi, starts_flat, state)
        else:
            pq = len(entry.offs)
            g_buf = np.empty(pq, dtype=np.int64)
            pts_buf = np.empty(pq, dtype=np.float64)
            sid_buf = np.empty(1, dtype=np.float64)
            sweep, sweep_holds = _sweep_struct(
                state, entry, starts_flat, g_buf, pts_buf, sid_buf
            )
            wbuf = np.empty(pq, dtype=np.float64)
            fields.update(
                wd=entry.wd,
                off0=entry.off0,
                rtts=bufs.rtts.ctypes.data,
                q_over_s_mut=entry.Q.ctypes.data,
                wbuf=wbuf.ctypes.data,
                res_g=bufs.res_g.ctypes.data,
                res_v=bufs.res_v.ctypes.data,
                res_n=bufs.res_n.ctypes.data,
                sub_g=bufs.sub_g.ctypes.data,
                sub_service=bufs.sub_service.ctypes.data,
                sub_work=bufs.sub_work.ctypes.data,
                sub_finish=bufs.sub_finish.ctypes.data,
                sub_start=bufs.sub_start.ctypes.data,
                q_total=bufs.q_total.ctypes.data,
                q_mw=bufs.q_mw.ctypes.data,
                q_ms=bufs.q_ms.ctypes.data,
                q_sent=bufs.q_sent.ctypes.data,
                stop=bufs.stop_idx.ctypes.data,
                stop_g=bufs.stop_g.ctypes.data,
                stop_start_id=bufs.stop_start_id.ctypes.data,
            )
            scratch = (sweep_holds, g_buf, pts_buf, sid_buf, wbuf, bufs)
        args = _CommitArgs(sweep=sweep, **fields)
        # keep the struct and every array behind its raw pointers alive
        self._hold = (args, scratch, plan)
        self.args = args
        self.args_ptr = ctypes.addressof(args)
        self.state_token = id(state)
        self.plan_token = id(plan)
        self.bufs_token = id(bufs)


class CompiledKernel(SweepKernel):
    """Fused C implementation of the exact sweep + commit (bit-identical intent).

    Replicates :class:`~repro.kernels.exact.ExactNumpyKernel`'s float
    arithmetic operation-for-operation in C (verified by the differential
    tests); ships as an on-first-use build against the system C compiler
    with a graceful fallback when none exists.  Any divergence from the
    oracle is a bug.

    Two entry points: :meth:`select` is the per-query sweep, and
    :meth:`commit_batch` is the fused sweep+commit -- one C call per
    chunk of queries, advancing the live mirrors in place and returning
    the chunk-buffer rows in bulk.  The engine commits through
    :meth:`commit_batch` only, failure windows included.
    """

    name = "compiled"
    description = "fused C sweep+commit via ctypes (needs a C toolchain)"

    def __init__(self) -> None:
        lib = load_sweep_library()
        self._fn = lib.roar_sweep_select
        self._commit_fn = lib.roar_commit_batch
        self._state: Optional[SweepState] = None
        self._starts_flat: Optional["np.ndarray"] = None
        self._last_entry: Optional[PqEntry] = None
        self._last_block: Optional[_EntryBlock] = None
        #: the block for calls with no queries (no entry, no bufs)
        self._bare_block: Optional[_CommitBlock] = None

    def bind(self, state: SweepState) -> None:
        self._state = state
        self._last_entry = self._last_block = None
        starts = np.empty(state.n, dtype=np.float64)
        for lo, s in zip(state.ring_lo, state.ring_starts):
            starts[lo : lo + len(s)] = s
        self._starts_flat = starts

    def select(
        self, state: SweepState, entry: PqEntry, now: float
    ) -> tuple[list[int], list[float], float]:
        if state is not self._state:
            self.bind(state)
        if entry is self._last_entry:
            block = self._last_block
        else:
            block = entry.ext.get("compiled")
            if block is None or block.state_token != id(state):
                block = _EntryBlock(state, entry, self._starts_flat)
                entry.ext["compiled"] = block
            self._last_entry, self._last_block = entry, block
        best = self._fn(block.args_ptr, now)
        return (
            block.g_buf.tolist(),
            block.pts_buf.tolist(),
            entry.csi[best],
        )

    def commit_batch(
        self,
        state: SweepState,
        entry: Optional[PqEntry],
        plan: CommitPlan,
        bufs: Optional[CommitBuffers],
        start: int,
        nq: int,
        gate: Optional[AdmissionGate] = None,
        failed: Optional["np.ndarray"] = None,
        updates: Optional[UpdateStream] = None,
    ) -> int:
        check_commit_args(state, entry, plan, bufs, start, nq, gate, failed, updates)
        if state is not self._state:
            self.bind(state)
        block = (
            self._bare_block if entry is None else entry.ext.get("compiled_commit")
        )
        if (
            block is None
            or block.state_token != id(state)
            or block.plan_token != id(plan)
            or block.bufs_token != id(bufs)
        ):
            block = _CommitBlock(state, entry, plan, bufs, self._starts_flat)
            if entry is None:
                self._bare_block = block
            else:
                entry.ext["compiled_commit"] = block
        args = block.args
        if failed is None:
            args.failed = args.lost = None
        else:
            args.failed = failed.ctypes.data
            args.lost = None if plan.lost is None else plan.lost.ctypes.data
        u = None
        if updates is not None:
            u = _UpdateArgs.for_stream(updates)
            args.upd = ctypes.addressof(u)
        else:
            args.upd = None
        if gate is None:
            args.gate = None
            n_scheduled = self._commit_fn(block.args_ptr, start, nq)
        else:
            g = _GateArgs.for_gate(gate)
            g.queue_cap = gate.queue_cap
            g.rate = gate.rate
            g.burst = gate.burst
            g.tokens = gate.tokens
            g.accrued_at = gate.accrued_at
            g.backlog_hwm = gate.backlog_hwm
            g.max_admitted_backlog = gate.max_admitted_backlog
            g.bucket = int(gate.bucket)
            args.gate = ctypes.addressof(g)
            n_scheduled = self._commit_fn(block.args_ptr, start, nq)
            gate.tokens = g.tokens
            gate.accrued_at = g.accrued_at
            gate.backlog_hwm = g.backlog_hwm
            gate.max_admitted_backlog = g.max_admitted_backlog
            # a stopped query passed the pre-check: it counts as admitted
            stopped = bufs is not None and int(bufs.stop_idx[0]) >= 0
            gate.n_admitted = n_scheduled + stopped
            gate.n_shed = g.n_shed
        if u is not None:
            u.copy_out(updates)
        return n_scheduled
