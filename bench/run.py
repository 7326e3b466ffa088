"""The benchmark of record: four workloads, end to end, plus a traced run.

Usage (from the repository root)::

    python bench/run.py                         # 4 workloads x 5 repeats, seed 1
    python bench/run.py --seed 2 --trace 1      # held-out seed, plus traced runs
    python bench/run.py --workload steady-1k --seed 7 --seconds 30 --trace 0
    python bench/run.py --pin --seed 1          # (re)pin the output digests
    python bench/run.py --out bench/out/b       # a second set, into its own directory
    python bench/compare.py bench/out/results.json bench/out/b/results.json

Every repeat runs in its own fresh single-threaded worker process
(``worker.py``), one at a time; repeats interleave across workloads
(repeat-major).  Each repeat times the public ``execute_scenario`` call
(plus ``replay_recording`` for ``crowd-control-replay``) and checks its
outputs: invariants, the replay verdict, and the sha256 of its wall-free
telemetry columns, which must equal the pin in ``expected.json``.  With
``--seconds`` (time-boxed runs that any seed may drive) a seed without a
pin is checked by the invariants and by every repeat agreeing; without
it a missing pin is an error.  ``--trace 1`` adds one traced repeat per
workload that reports the per-layer metrics (see ``trace.py``).

Medians and quartiles go to stdout and to ``<--out>/results.json`` (the
input of ``compare.py``), traces to ``<--out>/trace-<workload>.json``.
With a single workload the last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the
``BENCHMARK.json`` end-to-end metrics, or with ``--trace 1`` its
per-layer ones).  Exit status: 0 when every run is correct, 1 when any
failed, 2 on bad input (reported before any run starts).
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import catalog  # noqa: E402
from compare import summarize  # noqa: E402

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED = os.path.join(BENCH, "expected.json")
WORKER = os.path.join(BENCH, "worker.py")
#: the kernel build cache and per-repeat scratch files.
WORK = os.path.join(BENCH, "out")
#: a repeat that has not finished by then has hung; it counts as failed.
WORKER_TIMEOUT_S = 150
#: set-up-only workers started beside each repeat, so the set-up median
#: rests on three samples per repeat.
EXTRA_SETUPS = 2


class InputError(Exception):
    """Bad input, reported before any run starts."""


def load_benchmark_json(path: str = BENCHMARK_JSON) -> dict:
    """Read ``BENCHMARK.json`` and check it against ``catalog``."""
    try:
        with open(path) as fh:
            spec = json.load(fh)
        lists = (spec["end_to_end"], spec["per_layer"], spec["workloads"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(
            f"{path}: unreadable ({exc!r}); it must be the JSON object with "
            "end_to_end, per_layer and workloads lists at the repository root"
        ) from None
    end_to_end, per_layer, workloads = lists
    for entry in end_to_end:
        known = catalog.END_TO_END.get(entry.get("name"))
        if known is None:
            raise InputError(
                f"{path}: unknown end-to-end metric {entry.get('name')!r}; "
                f"known: {', '.join(catalog.END_TO_END)}"
            )
        if (entry.get("unit"), entry.get("better"), entry.get("bound")) != known:
            raise InputError(
                f"{path}: {entry['name']} must have unit, better, bound = {known} "
                "as in bench/catalog.py; change both together"
            )
    for entry in per_layer:
        known = catalog.PER_LAYER.get(entry.get("name"))
        if known is None:
            raise InputError(
                f"{path}: unknown per-layer metric {entry.get('name')!r}; "
                "see PER_LAYER in bench/catalog.py"
            )
        if (entry.get("unit"), entry.get("better")) != known:
            raise InputError(
                f"{path}: {entry['name']} must have unit, better = {known} "
                "as in bench/catalog.py; change both together"
            )
    for entry in workloads:
        if entry.get("name") not in catalog.WORKLOADS:
            raise InputError(
                f"{path}: unknown workload {entry.get('name')!r}; "
                f"known: {', '.join(catalog.WORKLOADS)}"
            )
    return spec


def load_pins() -> dict:
    try:
        with open(EXPECTED) as fh:
            return json.load(fh)["pins"]
    except (OSError, ValueError, KeyError) as exc:
        raise InputError(
            f"{EXPECTED}: unreadable ({exc!r}); restore it from git or "
            "re-create it with `python bench/run.py --pin --seed 1`"
        ) from None


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        description="Run the benchmark of record.",
        epilog=f"workloads: {', '.join(catalog.WORKLOADS)}",
    )
    ap.add_argument(
        "--workload", "--only", action="append", dest="workloads", metavar="NAME",
        help="run only this workload (repeatable; default: all four)",
    )
    ap.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    ap.add_argument("--repeats", type=int, default=5, help="repeats per workload (default 5)")
    ap.add_argument(
        "--seconds", type=float,
        help="time-box each workload's repeats to this many seconds instead of --repeats",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: add traced runs")
    ap.add_argument("--scale", choices=tuple(catalog.SIZES), default="full")
    ap.add_argument("--pin", action="store_true", help="record output digests for --seed")
    ap.add_argument(
        "--out", default=WORK, metavar="DIR",
        help="where results.json (for compare.py) and the traces go (default bench/out)",
    )
    args = ap.parse_args(argv)
    if args.workloads is None:
        args.workloads = list(catalog.WORKLOADS)
    for name in args.workloads:
        if name not in catalog.WORKLOADS:
            raise InputError(
                f"unknown workload {name!r}; pick from {', '.join(catalog.WORKLOADS)}"
            )
    if args.repeats < 1 or (args.seconds is not None and args.seconds <= 0):
        raise InputError("--repeats and --seconds must be positive")
    return args


def worker_env() -> dict:
    """One thread, no profiler, caches and temp files inside ``bench/out``."""
    env = dict(os.environ)
    env.pop("REPRO_PROFILE", None)
    # users run from cached bytecode; compiling on every import would
    # turn set-up time into compile time
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPYCACHEPREFIX=os.path.join(WORK, "pycache"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        REPRO_KERNEL_CACHE=os.path.join(WORK, "kernel-cache"),
        TMPDIR=os.path.join(WORK, "tmp"),
        # run manifests ask git for the revision; keep it inside the checkout
        GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
    )
    return env


def spawn(spec: dict, env: dict) -> dict:
    """Run one worker to completion; returns its result object."""
    spec = dict(spec, t_spawn=time.perf_counter_ns())
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"problems": [f"worker timed out after {WORKER_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"problems": [f"worker exited {proc.returncode}: " + " | ".join(tail)]}


def run_repeats(args, env: dict) -> tuple[dict, dict, dict]:
    """Repeat-major rounds of untraced repeats, and one traced round.

    Returns (repeats, extra set-up samples, traced repeat) per workload.
    """
    reps = {w: [] for w in args.workloads}
    setups = {w: [] for w in args.workloads}
    budget = args.seconds * len(args.workloads) if args.seconds else None
    start = time.perf_counter()
    longest_round = 0.0

    def one(workload: str, trace: bool, tag: str) -> dict:
        scratch = os.path.join(WORK, "tmp", f"{workload}-{tag}")
        spec = {
            "mode": "run", "workload": workload, "seed": args.seed,
            "scale": args.scale, "trace": trace, "scratch": scratch, "out": args.out,
        }
        result = spawn(spec, env)
        shutil.rmtree(scratch, ignore_errors=True)
        status = "ok" if not result.get("problems") else "FAILED"
        print(
            f"  {workload:<22} {tag:<7} {result.get('queries_per_s', 0):>12.1f} queries/s  {status}",
            file=sys.stderr,
        )
        return result

    traced = {}
    r = 0
    while True:
        t_round = time.perf_counter()
        for workload in args.workloads:
            reps[workload].append(one(workload, False, f"rep{r}"))
            for _ in range(EXTRA_SETUPS):
                sample = spawn(
                    {"mode": "setup", "workload": workload, "seed": args.seed,
                     "scale": args.scale}, env,
                )
                if "setup_s" in sample:
                    setups[workload].append(sample["setup_s"])
        longest_round = max(longest_round, time.perf_counter() - t_round)
        r += 1
        if args.trace and not traced:
            # right after the first round, so the host speed it sees is
            # that of the untraced repeats on either side of it
            traced = {w: one(w, True, "traced") for w in args.workloads}
        if budget is None:
            if r >= args.repeats:
                break
        elif time.perf_counter() - start + longest_round > budget:
            break
    return reps, setups, traced


def summarize_workload(reps: list, setups: list, traced, pin) -> dict:
    """Fold one workload's repeats into checked, summarised metrics."""
    digests = collections.Counter(r["digest"] for r in reps if "digest" in r)
    reference = pin or (digests.most_common(1)[0][0] if digests else None)
    failures = []
    runs = reps + ([traced] if traced else [])
    for k, r in enumerate(runs):
        problems = list(r.get("problems", []))
        if "digest" in r and r["digest"] != reference:
            problems.append(
                f"output digest {r['digest'][:12]} != "
                f"{'pinned' if pin else 'majority'} {reference[:12]}"
            )
        if problems:
            failures.append(f"run {k}{' (traced)' if r is traced else ''}: " + "; ".join(problems))
    timed = [r for r in reps if "queries_per_s" in r]
    metrics = {}
    for name, (unit, better, bound) in catalog.END_TO_END.items():
        if name == "failed_run_frac":
            values = [len(failures) / len(runs)]
        else:
            values = [r[name] for r in timed if name in r]
        if name == "setup_s":
            values += setups
        m = {"unit": unit, "better": better, "bound": bound, "values": values}
        if values:
            m.update(summarize(values))
            # the allocator's address-space layout moves a repeat's peak
            # between two levels ~4% apart; the highest repeat is the
            # peak the workload needs, and stable from run to run
            m["value"] = max(values) if name == "peak_rss_mb" else m["median"]
        metrics[name] = m
    out = {
        "pinned": pin is not None,
        "reference_digest": reference,
        "attempted": len(runs),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
    }
    # the traced repeat ran between the first two untraced ones
    neighbours = [r["wall_s"] for r in reps[:2] if "wall_s" in r]
    if traced and "layers" in traced and neighbours:
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = (
            traced["wall_s"] * len(neighbours) / sum(neighbours) - 1.0
        )
        out["per_layer"] = {
            name: {"unit": unit, "value": layers[name]}
            for name, (unit, _better) in catalog.PER_LAYER.items()
        }
        out["traced_wall_s"] = traced["wall_s"]
        out["trace_file"] = os.path.relpath(traced["trace_file"], ROOT)
    return out


def render(results: dict) -> str:
    lines = [
        f"{'workload':<22} {'metric':<40} {'unit':<10} {'value':>14} "
        f"{'median':>14} {'q1':>14} {'q3':>14}  n"
    ]
    for workload, w in results["workloads"].items():
        for name, m in w["metrics"].items():
            if not m["values"]:
                lines.append(f"{workload:<22} {name:<40} {m['unit']:<10} {'-':>14}")
                continue
            lines.append(
                f"{workload:<22} {name:<40} {m['unit']:<10} {m['value']:>14.6g} "
                f"{m['median']:>14.6g} {m['q1']:>14.6g} {m['q3']:>14.6g}  {len(m['values'])}"
            )
        for name, m in w.get("per_layer", {}).items():
            lines.append(f"{workload:<22} {name:<40} {m['unit']:<10} {m['value']:>14.6g}")
        for failure in w["failures"]:
            lines.append(f"{workload:<22} FAILED {failure}")
    return "\n".join(lines)


def pin(args, env: dict) -> int:
    """Run each workload once and record its digest for ``--seed``."""
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    status = 0
    for workload in args.workloads:
        scratch = os.path.join(WORK, "tmp", f"{workload}-pin")
        result = spawn(
            {"mode": "run", "workload": workload, "seed": args.seed, "scale": args.scale,
             "trace": False, "scratch": scratch, "out": args.out},
            env,
        )
        shutil.rmtree(scratch, ignore_errors=True)
        if result.get("problems") or "digest" not in result:
            print(f"{workload}: not pinned: {result.get('problems')}", file=sys.stderr)
            status = 1
            continue
        expected["pins"].setdefault(args.scale, {}).setdefault(workload, {})[
            str(args.seed)
        ] = result["digest"]
        print(f"{workload}: seed {args.seed} ({args.scale}) pinned {result['digest'][:16]}")
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return status


def main(argv: list[str]) -> int:
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
            raise InputError(
                f"no src/repro package under {ROOT}; run bench/run.py from a "
                "full checkout of the repository"
            )
        args = parse_args(argv)
        bench_spec = load_benchmark_json()
        pins = load_pins()
        seed_pins = {
            w: pins.get(args.scale, {}).get(w, {}).get(str(args.seed))
            for w in args.workloads
        }
        missing = [w for w, d in seed_pins.items() if d is None]
        if missing and args.seconds is None and not args.pin:
            raise InputError(
                f"no pinned digest for seed {args.seed} at scale {args.scale} "
                f"({', '.join(missing)}); pin it first with `python bench/run.py "
                f"--pin --seed {args.seed} --scale {args.scale}`, or pass --seconds "
                "to check an unpinned seed by repeat agreement"
            )
    except InputError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.makedirs(args.out, exist_ok=True)
    env = worker_env()
    # build the compiled kernel and fill the bytecode cache once, before
    # timing: users pay that on first use, not on every run
    scratch = os.path.join(WORK, "tmp", "prepare")
    prep = spawn({"mode": "prepare", "scratch": scratch}, env)
    shutil.rmtree(scratch, ignore_errors=True)
    if not prep.get("ok"):
        print(f"warm-up failed: {prep.get('problems')}", file=sys.stderr)
        if args.pin:
            return 1
    if args.pin:
        return pin(args, env)

    reps, setups, traced = run_repeats(args, env)
    results = {
        "schema": 1,
        "seed": args.seed,
        "scale": args.scale,
        "argv": argv,
        "workloads": {
            w: summarize_workload(reps[w], setups[w], traced.get(w), seed_pins[w])
            for w in args.workloads
        },
    }
    path = os.path.join(args.out, "results.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1)
    print(render(results))
    print(f"results: {os.path.relpath(path, ROOT)}")
    correct = all(w["failed"] == 0 for w in results["workloads"].values())
    if len(args.workloads) == 1:
        w = results["workloads"][args.workloads[0]]
        if args.trace:
            metrics = {
                m["name"]: w["per_layer"][m["name"]]
                for m in bench_spec["per_layer"] if "per_layer" in w
            }
            correct = correct and bool(metrics)
        else:
            metrics = {
                m["name"]: {"value": w["metrics"][m["name"]]["value"], "unit": m["unit"]}
                for m in bench_spec["end_to_end"] if w["metrics"][m["name"]]["values"]
            }
            correct = correct and len(metrics) == len(bench_spec["end_to_end"])
        line = {
            "correct": correct,
            "attempted": w["attempted"],
            "failed": w["failed"],
            "metrics": metrics,
        }
        print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
