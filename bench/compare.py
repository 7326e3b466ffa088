"""Compare two benchmark result files metric by metric.

Usage::

    python bench/compare.py A.json B.json

*A* is the baseline (the parent commit, or the first of two sets), *B*
the candidate; both are ``results.json`` files written by ``run.py``.
For every (metric, workload) pair present in both, it prints each side's
median and quartiles and one verdict:

* ``worse``: B's median is worse than A's by more than the metric's bound;
* ``better``: B beats A in at least 9 of 10 cross pairs of runs and the
  medians differ by more than A's interquartile distance;
* ``unresolved``: neither, and one side's interquartile spread (as a
  share of its median) exceeds the bound, so "unchanged" cannot be told
  from noise;
* ``unchanged``: otherwise.

It exits 1 if any pair is ``worse``, 2 on unreadable input, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys


def summarize(values) -> dict:
    """Median and quartiles, as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if len(values) == 1:
        v = values[0]
        return {"median": v, "q1": v, "q3": v}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 for a zero median)."""
    s = summarize(values)
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def verdict(a, b, better: str, bound: float) -> str:
    """The verdict for baseline runs *a* and candidate runs *b*."""
    sign = 1.0 if better == "higher" else -1.0
    sa, sb = summarize(a), summarize(b)
    base = abs(sa["median"])
    delta = sign * (sb["median"] - sa["median"])
    if delta < -bound * base:
        return "worse"
    wins = losses = 0
    for x in a:
        for y in b:
            d = sign * (y - x)
            wins += d > 0
            losses += d < 0
    if (
        wins + losses
        and wins >= 0.9 * (wins + losses)
        and delta > sa["q3"] - sa["q1"]
    ):
        return "better"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "unchanged"


def compare(a: dict, b: dict) -> list[dict]:
    """One row per (workload, metric) present in both result files."""
    rows = []
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"].get(name)
            if mb is None or not ma["values"] or not mb["values"]:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": ma["unit"],
                    "bound": ma["bound"],
                    "a": summarize(ma["values"]),
                    "b": summarize(mb["values"]),
                    "verdict": verdict(ma["values"], mb["values"], ma["better"], ma["bound"]),
                }
            )
    return rows


def render(rows: list[dict]) -> str:
    header = ("workload", "metric", "unit", "bound", "A median [q1, q3]", "B median [q1, q3]", "verdict")
    cells = [header]
    for r in rows:
        cells.append(
            (
                r["workload"],
                r["metric"],
                r["unit"],
                f"{r['bound']:.2f}",
                "{median:.6g} [{q1:.6g}, {q3:.6g}]".format(**r["a"]),
                "{median:.6g} [{q1:.6g}, {q3:.6g}]".format(**r["b"]),
                r["verdict"],
            )
        )
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    return "\n".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells
    )


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python bench/compare.py A.json B.json", file=sys.stderr)
        return 2
    files = []
    for path in argv[1:]:
        try:
            with open(path) as fh:
                files.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"{path}: unreadable ({exc}); pass results.json files written by bench/run.py", file=sys.stderr)
            return 2
    rows = compare(*files)
    print(render(rows))
    counts = {v: sum(r["verdict"] == v for r in rows) for v in ("better", "unchanged", "unresolved", "worse")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
