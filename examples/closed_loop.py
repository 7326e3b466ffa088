"""Closed-loop control plane walkthrough.

Runs the three closed-loop scenarios and shows what the controllers did:
a flash crowd absorbed by elastic scale-out, a compressed diurnal cycle
tracked by re-partitioning, and a correlated rack failure survived via
sub-query splitting plus membership rebuild.  Each one is an ordinary
``Scenario`` (built by ``control_scenario``) run by ``execute_scenario``.

Run with::

    PYTHONPATH=src python examples/closed_loop.py
"""

from repro.scenarios import control_scenario, execute_scenario, phase_p99s


def main() -> None:
    duration = 240.0
    for kind in ("flash-crowd", "diurnal", "rack-failure"):
        ex = execute_scenario(control_scenario(kind, duration=duration, seed=1))
        dep = ex.deployment
        before, crisis, after = phase_p99s(dep.log, kind, duration)
        actions = sorted(
            (a for c in ex.controllers for a in c.actions), key=lambda a: a.time
        )
        print("=" * 64)
        print(f"{kind}: {ex.servers_start} -> {len(dep.servers)} servers, "
              f"p_store {dep.p_store:g}, pq {ex.pq_end}")
        print(f"p99 before / crisis / after: {before * 1000:.0f} / "
              f"{crisis * 1000:.0f} / {after * 1000:.0f} ms")
        print(f"{len(actions)} control actions:")
        for act in actions:
            print(f"  t={act.time:7.1f}s  [{act.controller}] "
                  f"{act.kind}: {act.detail}")
        print()


if __name__ == "__main__":
    main()
