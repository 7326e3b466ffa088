"""Closed-loop elasticity under a flash crowd (control-plane benchmark).

Beyond-paper scenario built from Section 4.5/4.9's machinery: a 4x query
surge hits a comfortable 16-server deployment; the SLO elasticity and
re-partitioning controllers react through live metrics.  The assertion is
the whole point of the control plane: tail latency blows through the SLO
during the crowd and *recovers after adaptation*.
"""

from conftest import print_series

from repro.scenarios import control_scenario, execute_scenario, phase_p99s

SLO = 1.0
DURATION = 240.0


def run_flash_crowd():
    return execute_scenario(
        control_scenario(
            "flash-crowd", n_servers=16, p=4, duration=DURATION, slo=SLO, seed=1
        )
    )


def test_flash_crowd_p99_recovers(once, series_printer):
    ex = once(run_flash_crowd)
    log = ex.deployment.log
    before, crisis, after = phase_p99s(log, "flash-crowd", DURATION)
    actions = [a for c in ex.controllers for a in c.actions]

    series_printer(
        "Closed loop: flash crowd, SLO p99 = 1000 ms",
        ["phase", "p99 (ms)"],
        [("before", before * 1000), ("crisis", crisis * 1000), ("after", after * 1000)],
    )
    series_printer(
        "Control actions",
        ["t (s)", "controller", "action", "value"],
        sorted((a.time, a.controller, a.kind, a.value) for a in actions),
    )

    # The controller acted at least once mid-run (p and the server set).
    kinds = {a.kind for a in actions}
    assert "add_server" in kinds
    assert "request_p" in kinds

    # The crowd hurt: tail latency blew through the SLO.
    assert crisis > SLO

    # Adaptation worked: p99 recovered after the controller reacted --
    # back under the SLO, far below the crisis tail.
    assert after < 0.25 * crisis
    assert after <= SLO
    # and no query was dropped along the way
    assert log.yield_fraction() == 1.0
