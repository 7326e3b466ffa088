"""repro: a reproduction of ROAR (Rendezvous On A Ring, SIGCOMM 2009).

Subpackages:

* :mod:`repro.core` -- the ROAR algorithm: continuous ring, scheduling,
  failure handling, reconfiguration, load balancing, membership.
* :mod:`repro.rendezvous` -- the Distributed Rendezvous abstraction and the
  PTN / SW / RAND / dual baselines.
* :mod:`repro.sim` -- discrete-event simulation substrate (the paper's
  Chapter 6 evaluation model).
* :mod:`repro.pps` -- Privacy Preserving Search, the paper's application:
  encrypted keyword/numeric/range matching, metadata store, match engine.
* :mod:`repro.cluster` -- full simulated deployments of PPS-on-ROAR (the
  Chapter 7 experimental rig).
* :mod:`repro.analysis` -- closed-form models: bandwidth, delay bounds,
  availability, index-based-vs-PPS trade-off.
* :mod:`repro.control` -- closed-loop control plane: live metrics windows,
  SLO-driven elasticity, online re-partitioning, the deployment actuator
  (the loop runs inside :mod:`repro.scenarios`).
"""

__version__ = "1.1.0"

__all__ = ["core", "rendezvous", "sim", "pps", "cluster", "analysis", "control"]
