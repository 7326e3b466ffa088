"""Discrete-event simulation substrate (the Chapter 6 evaluation model)."""

from ..telemetry.records import DelayLog, QueryRecord, linear_fit, percentile
from .energy import DEFAULT_PROFILES, EnergyReport, PowerProfile, measure_energy
from .engine import Event, Simulation
from .fastpath import Action, BatchResult, run_queries_fast, run_queries_reference
from .network import NetworkModel, TrafficLedger
from .queueing import md1_delay, md1_wait, min_p_for_delay, mm1_wait, utilisation
from .server import SimServer, TaskRecord
from .transport import IncastModel, IncastResult, TransportConfig
from .workload import (
    DiurnalTrace,
    PoissonArrivals,
    StepTrace,
    UniformArrivals,
    arrivals_from_rate_fn,
    batched_arrivals_from_rate_fn,
    batched_poisson_times,
    batched_uniform_times,
    zipf_update_times,
)

__all__ = [
    "Action",
    "BatchResult",
    "DEFAULT_PROFILES",
    "DelayLog",
    "DiurnalTrace",
    "EnergyReport",
    "Event",
    "IncastModel",
    "IncastResult",
    "TransportConfig",
    "NetworkModel",
    "PoissonArrivals",
    "PowerProfile",
    "QueryRecord",
    "SimServer",
    "Simulation",
    "StepTrace",
    "TaskRecord",
    "TrafficLedger",
    "UniformArrivals",
    "arrivals_from_rate_fn",
    "batched_arrivals_from_rate_fn",
    "batched_poisson_times",
    "batched_uniform_times",
    "linear_fit",
    "run_queries_fast",
    "run_queries_reference",
    "zipf_update_times",
    "md1_delay",
    "md1_wait",
    "measure_energy",
    "min_p_for_delay",
    "mm1_wait",
    "percentile",
    "utilisation",
]
