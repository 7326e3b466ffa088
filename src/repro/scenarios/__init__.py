"""Declarative scenario matrix over the ROAR deployment and control plane.

A :class:`Scenario` is a single declarative description of an environment --
fleet composition, workload shape, object popularity, failures, churn, and
(optionally) the closed-loop control policies -- that the runner executes
uniformly over the deployment, control, and analysis layers, on either the
batched fast path or the per-query reference path.  The matrix module sweeps
grids of scenarios and renders comparable metric tables (``repro matrix``).
"""

from .spec import (
    AdmissionSpec,
    ChurnSpec,
    ControlSpec,
    EventSpec,
    Scenario,
    UpdateSpec,
    WorkloadSpec,
)
from .runner import (
    ScenarioExecution,
    ScenarioResult,
    build_deployment,
    execute_scenario,
    run_scenario_spec,
)
from .matrix import (
    CONTROL_KINDS,
    MatrixResult,
    builtin_scenarios,
    control_scenario,
    phase_p99s,
    render_table,
    run_matrix,
    trace_scenario,
)
from .spec import scenario_from_dict, scenario_to_dict

__all__ = [
    "CONTROL_KINDS",
    "AdmissionSpec",
    "ChurnSpec",
    "ControlSpec",
    "EventSpec",
    "MatrixResult",
    "Scenario",
    "ScenarioExecution",
    "ScenarioResult",
    "UpdateSpec",
    "WorkloadSpec",
    "build_deployment",
    "builtin_scenarios",
    "control_scenario",
    "execute_scenario",
    "render_table",
    "run_matrix",
    "phase_p99s",
    "run_scenario_spec",
    "scenario_from_dict",
    "scenario_to_dict",
    "trace_scenario",
]
