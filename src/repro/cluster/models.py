"""Server model catalogue (Table 7.1) and the PPS cost model.

The paper's testbed mixes four server generations; their *relative*
processing speeds are what the heterogeneity experiments exploit.  Rates are
calibrated from the paper's own measurements (Section 5.7):

* Dell PowerEdge 1950 (2x dual-core Xeon 5150 2.66 GHz): ~900k metadata/s
  per matching thread in memory, ~290k/s when disk-bound (1M metadata in
  3.9 s cold, 66 MB/s at 230 B/item);
* Dell PowerEdge 2950: the faster sibling, ~15% quicker;
* Dell PowerEdge 1850: older 2-core box, CPU-bound around 350k/s;
* Sun X4100: the slowest pool member, ~250k/s (Fig 5.7).

Absolute values only set the time scale; every assertion in
``benchmarks/`` is about shapes and ratios.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ..sim.energy import PowerProfile
from ..sim.server import SimServer

__all__ = [
    "ServerModel",
    "MODEL_CATALOGUE",
    "hen_testbed",
    "ec2_fleet",
    "make_sim_server",
]


@dataclass(frozen=True)
class ServerModel:
    """One hardware generation (a Table 7.1 row)."""

    name: str
    cores: int
    match_rate: float  # metadata matched per second, per matching thread
    disk_rate: float  # metadata streamed from disk per second
    fixed_overhead: float  # per-sub-query fixed cost (seconds)
    power: PowerProfile

    def speed(self, in_memory: bool = True) -> float:
        """Effective serial processing speed for the scheduler model.

        In-memory matching parallelises across cores until the I/O thread
        saturates at ~2x a single matcher (Section 5.7: plateau at 2+
        threads without the memory cache, linear to 4 with it); we use the
        4-thread in-memory figure.  Disk-bound speed is the stream rate.
        """
        if in_memory:
            return self.match_rate * min(self.cores, 4)
        return self.disk_rate


MODEL_CATALOGUE: dict[str, ServerModel] = {
    "dell-1950": ServerModel(
        name="dell-1950",
        cores=4,
        match_rate=900_000.0,
        disk_rate=290_000.0,
        fixed_overhead=0.004,
        power=PowerProfile(idle_watts=210.0, busy_watts=305.0),
    ),
    "dell-2950": ServerModel(
        name="dell-2950",
        cores=4,
        match_rate=1_050_000.0,
        disk_rate=330_000.0,
        fixed_overhead=0.004,
        power=PowerProfile(idle_watts=220.0, busy_watts=320.0),
    ),
    "dell-1850": ServerModel(
        name="dell-1850",
        cores=2,
        match_rate=350_000.0,
        disk_rate=290_000.0,
        fixed_overhead=0.006,
        power=PowerProfile(idle_watts=190.0, busy_watts=260.0),
    ),
    "sun-x4100": ServerModel(
        name="sun-x4100",
        cores=2,
        match_rate=250_000.0,
        disk_rate=230_000.0,
        fixed_overhead=0.006,
        power=PowerProfile(idle_watts=180.0, busy_watts=245.0),
    ),
}


def hen_testbed(n: int = 47) -> list[ServerModel]:
    """A heterogeneous pool like the Hen deployment (47 ROAR nodes).

    Roughly half newer Dells, a quarter older Dells, a quarter Suns --
    equipment bought over time, per Section 3.3's motivation.
    """
    out: list[ServerModel] = []
    quota = {
        "dell-1950": round(n * 0.40),
        "dell-2950": round(n * 0.15),
        "dell-1850": round(n * 0.25),
    }
    for model_name, count in quota.items():
        out.extend([MODEL_CATALOGUE[model_name]] * count)
    while len(out) < n:
        out.append(MODEL_CATALOGUE["sun-x4100"])
    return out[:n]


def ec2_fleet(n: int = 1000, seed: int = 11) -> list[ServerModel]:
    """A large homogeneous-ish fleet (the Table 7.3 EC2 run): one instance
    type, but with the mild speed variation EC2 instances exhibit."""
    rng = random.Random(seed)
    base = MODEL_CATALOGUE["dell-1850"]
    out = []
    for i in range(n):
        factor = rng.uniform(0.85, 1.15)
        out.append(
            ServerModel(
                name=f"ec2-{i}",
                cores=base.cores,
                match_rate=base.match_rate * factor,
                disk_rate=base.disk_rate * factor,
                fixed_overhead=base.fixed_overhead,
                power=base.power,
            )
        )
    return out


def make_sim_server(
    name: str, model: ServerModel, in_memory: bool = True
) -> SimServer:
    """Instantiate a simulator server from a catalogue model."""
    return SimServer(
        name=name,
        speed=model.speed(in_memory),
        fixed_overhead=model.fixed_overhead,
        cores=1,  # the scheduler model is serial; cores are in speed()
        power_idle=model.power.idle_watts,
        power_busy=model.power.busy_watts,
    )
