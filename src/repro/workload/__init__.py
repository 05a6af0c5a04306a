"""Open-loop workload engine: arrival processes, specs, and injection.

The paper evaluates at closed-loop maximum load; the production question
("how much does kernel-wise right-sizing buy under *real* traffic?")
needs open-loop arrivals, bursty rates, and heterogeneous request mixes.
This package is that traffic layer, in three parts:

* :mod:`repro.workload.arrivals` — deterministic arrival processes
  (Poisson, bursty ON-OFF, diurnal-rate, trace replay) driven by named
  :mod:`repro.sim.rng` streams so runs stay bit-identical;
* :mod:`repro.workload.spec` — frozen, hashable, JSON/YAML-serialisable
  workload specs (homogeneous / heterogeneous mixes / trace replay)
  that join the content-addressed cache key;
* :mod:`repro.workload.client` — the one open-loop injector, compiling
  a spec into sim-clock requests for every open-loop run: each
  :func:`~repro.server.rate_experiment.run_rate_experiment` (through
  :meth:`repro.server.setup.ServingSetup.add_workload`) and each fleet
  run (through the cluster router).

``krisp-repro load`` (and :func:`repro.exp.load.run_load_curve`) sweep a
spec across offered rates into latency-vs-rate curves.
"""

from repro.workload.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    OnOffArrivals,
    PoissonArrivals,
    TraceArrivals,
    arrival_from_dict,
    arrival_kind,
    arrival_to_dict,
)
from repro.workload.client import WorkloadClient
from repro.workload.spec import (
    HeterogeneousWorkloadSpec,
    HomogeneousWorkloadSpec,
    RequestClass,
    TraceEntry,
    TraceWorkloadSpec,
    WorkloadSpec,
    check_deployment,
    load_workload,
    spec_hash,
    workload_from_dict,
    workload_from_yaml,
    workload_to_yaml,
)

__all__ = [
    "ArrivalProcess",
    "DiurnalArrivals",
    "OnOffArrivals",
    "PoissonArrivals",
    "TraceArrivals",
    "arrival_from_dict",
    "arrival_kind",
    "arrival_to_dict",
    "WorkloadClient",
    "HeterogeneousWorkloadSpec",
    "HomogeneousWorkloadSpec",
    "RequestClass",
    "TraceEntry",
    "TraceWorkloadSpec",
    "WorkloadSpec",
    "check_deployment",
    "load_workload",
    "spec_hash",
    "workload_from_dict",
    "workload_from_yaml",
    "workload_to_yaml",
]
