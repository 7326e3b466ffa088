"""Shared helpers for the benchmark harness.

Every file in this directory regenerates one table or figure from the
paper's evaluation (README.md maps each file to its figure).  Benchmarks
print the same rows/series the paper reports.  Run with::

    pytest benchmarks/ --benchmark-only
"""

import pytest

from repro._rng import reset_default_streams


@pytest.fixture(autouse=True)
def _isolated_rng_streams():
    """Benchmarks must be order-independent too (seed-leakage audit).

    Components built without an explicit generator draw fallback streams
    from a process-global counter; without a per-test reset, a benchmark's
    numbers would depend on which benchmarks ran before it.
    """
    reset_default_streams()
    yield


def print_series(title, header, rows):
    """Render one figure's data as an aligned text table."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), 12) for h in header]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = []
        for value, w in zip(row, widths):
            if isinstance(value, float):
                cells.append(f"{value:.4g}".ljust(w))
            else:
                cells.append(str(value).ljust(w))
        print("  ".join(cells))


@pytest.fixture
def series_printer():
    return print_series


def run_once(benchmark, fn):
    """Register *fn* with pytest-benchmark, executing it exactly once.

    Experiment benches measure simulated systems; wall-clock of the whole
    experiment is still interesting (it is the cost of regenerating the
    figure) but repetition adds nothing.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def _run(fn):
        return run_once(benchmark, fn)

    return _run
