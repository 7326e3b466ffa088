"""Closed-loop control plane: live metrics, SLO elasticity, online re-partitioning.

The paper's mechanisms (ring edits, :mod:`repro.core.reconfig`, the heap
scheduler) make ROAR *able* to change shape online; this subpackage adds the
thing that *decides* to.  It observes a running deployment through sliding
metric windows, and drives the two elastic knobs -- the server set and the
partitioning level -- from SLO-style policies through a
:class:`DeploymentActuator`.  The loop itself runs inside
:func:`repro.scenarios.execute_scenario` whenever a scenario carries a
:class:`~repro.scenarios.spec.ControlSpec`;
:func:`repro.scenarios.control_scenario` states the flash-crowd, diurnal and
rack-failure closed loops (``repro control``) in that vocabulary.
"""

from .controllers import (
    ControlAction,
    Controller,
    DeploymentActuator,
    FrontendElasticityController,
    RepartitionController,
    SLOElasticityController,
)
from .metrics import (
    LatencyHistogram,
    MetricsCollector,
    MetricsSnapshot,
    SlidingWindow,
)

__all__ = [
    "ControlAction",
    "Controller",
    "DeploymentActuator",
    "FrontendElasticityController",
    "LatencyHistogram",
    "MetricsCollector",
    "MetricsSnapshot",
    "RepartitionController",
    "SLOElasticityController",
    "SlidingWindow",
]
