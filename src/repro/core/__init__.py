"""KRISP: the paper's primary contribution.

* :mod:`~repro.core.allocation` — partition resource-mask generation
  (paper Algorithm 1) with the *Packed*, *Distributed*, and *Conserved*
  SE-distribution policies of Fig. 7.
* :mod:`~repro.core.perfdb` — the per-kernel performance database holding
  profiled minimum-CU requirements (amortised at library install time,
  Section IV-B).
* :mod:`~repro.core.rightsizing` — the runtime-side kernel-wise
  right-sizer that tags each launch with its partition size, and its
  predictive variant.
* :mod:`~repro.core.pools` — the pooled and contention-aware variants of
  the Algorithm-1 mask generator.
* :mod:`~repro.core.krisp` — ties right-sizing and allocation into the
  command-processor extension (:class:`KrispAllocator`) and a convenience
  :class:`KrispSystem` assembling a KRISP-enabled runtime.
"""

from repro.core.allocation import DistributionPolicy, ResourceMaskGenerator
from repro.core.krisp import KrispAllocator, KrispConfig, KrispSystem
from repro.core.perfdb import PerfDatabase
from repro.core.rightsizing import KernelRightSizer

__all__ = [
    "DistributionPolicy",
    "ResourceMaskGenerator",
    "KrispAllocator",
    "KrispConfig",
    "KrispSystem",
    "PerfDatabase",
    "KernelRightSizer",
]
