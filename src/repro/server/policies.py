"""The five spatial-partitioning policies under evaluation (Section VI-A).

Each policy's ``setup`` wires per-worker streams over a shared device:

* **MPS Default** — concurrent kernels share every CU with no isolation
  (AMD's default concurrency, equivalent to unrestricted Nvidia MPS).
* **Static Equal** — equal-sized, non-overlapping per-worker CU
  partitions.
* **Model Right-Size** — prior work's upper bound: each worker's stream
  is masked to the model's profiled kneepoint; partitions overlap only
  when the models no longer fit (open-circle cases in the paper's plots).
* **KRISP-O** — kernel-scoped partitions with unlimited CU
  oversubscription.
* **KRISP-I** — kernel-scoped partitions with isolation (overlap limit
  0); kernels may receive fewer CUs than their minimum when isolated
  resources run out.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.core.allocation import DistributionPolicy, ResourceMaskGenerator
from repro.core.krisp import KrispConfig, KrispSystem
from repro.gpu.counters import CUKernelCounters
from repro.gpu.cu_mask import CUMask
from repro.gpu.device import GpuDevice
from repro.models.zoo import ModelSpec
from repro.runtime.hsa import HsaRuntime
from repro.runtime.stream import Stream
from repro.server.profiles import combined_database, model_right_size
from repro.server.worker import StreamLike
from repro.sim.engine import Simulator

__all__ = ["WorkerPlan", "Policy", "POLICY_NAMES", "get_policy"]


@dataclass(frozen=True)
class WorkerPlan:
    """One co-located worker: which model it serves at which batch size."""

    model: ModelSpec
    batch_size: int = 32


class Policy(ABC):
    """A spatial-partitioning policy building per-worker streams."""

    name: str = ""

    @abstractmethod
    def setup(self, sim: Simulator, device: GpuDevice,
              plans: Sequence[WorkerPlan]) -> list[StreamLike]:
        """Create one stream per worker plan over the shared device."""


class MpsDefaultPolicy(Policy):
    """All workers share all CUs with no restriction."""

    name = "mps-default"

    def setup(self, sim, device, plans):
        runtime = HsaRuntime(sim, device)
        return [Stream(runtime, name=f"w{i}") for i in range(len(plans))]


class StaticEqualPolicy(Policy):
    """Equal-sized, non-overlapping partitions (flat CU slices).

    For 2 and 4 workers on an MI50 the slices coincide with whole shader
    engines (30 CUs = 2 SEs, 15 CUs = 1 SE), matching how MIG-style equal
    partitioning falls on cluster boundaries.
    """

    name = "static-equal"

    def setup(self, sim, device, plans):
        runtime = HsaRuntime(sim, device)
        topology = device.topology
        share = topology.total_cus // len(plans)
        if share < 1:
            raise ValueError("more workers than CUs")
        streams = []
        for i in range(len(plans)):
            stream = Stream(runtime, name=f"w{i}")
            cus = range(i * share, (i + 1) * share)
            stream.queue.set_cu_mask(CUMask.from_cus(topology, cus))
            streams.append(stream)
        return streams


class ModelRightSizePolicy(Policy):
    """Prior work's model-wise right-sizing (GSLICE / Gpulet / PARIS).

    Worker partitions are sized to each model's profiled kneepoint and
    placed with the Conserved allocator; when the kneepoints no longer
    fit on the device, partitions overlap on the least-loaded CUs.
    """

    name = "model-rightsize"

    def setup(self, sim, device, plans):
        runtime = HsaRuntime(sim, device)
        topology = device.topology
        generator = ResourceMaskGenerator(
            topology, policy=DistributionPolicy.CONSERVED, overlap_limit=None
        )
        placement = CUKernelCounters(topology)
        streams = []
        for i, plan in enumerate(plans):
            size = model_right_size(plan.model.name, plan.batch_size)
            mask = generator.generate(size, placement)
            placement.assign(mask)
            stream = Stream(runtime, name=f"w{i}")
            stream.queue.set_cu_mask(mask)
            streams.append(stream)
        return streams


class KrispPolicy(Policy):
    """Kernel-scoped partitions under one :class:`KrispConfig`."""

    def __init__(self, name: str, config: KrispConfig,
                 emulated: bool = False) -> None:
        self.name = name
        self.config = config
        self.emulated = emulated

    def setup(self, sim, device, plans):
        batch = plans[0].batch_size
        names = tuple(sorted({plan.model.name for plan in plans}))
        database = combined_database(names, batch)
        system = KrispSystem(sim, device, database, config=self.config)
        # Each stream degrades to its model-wise right-size when a kernel
        # is missing from the perf-DB (a complete DB never consults it).
        return [
            system.create_stream(
                f"w{i}",
                emulated=self.emulated,
                fallback_cus=model_right_size(plan.model.name,
                                              plan.batch_size),
            )
            for i, plan in enumerate(plans)
        ]


#: Paper ordering of the evaluated policies.
POLICY_NAMES: tuple[str, ...] = (
    "mps-default",
    "static-equal",
    "model-rightsize",
    "krisp-o",
    "krisp-i",
)


def get_policy(name: str, krisp: Optional[KrispConfig] = None,
               emulated: bool = False) -> Policy:
    """Policy factory.

    ``krisp`` carries the KRISP settings (overlap budget, reshape,
    allocation and sizing policies); an unset ``overlap_limit`` means
    unlimited for KRISP-O and isolation (0) for KRISP-I.  ``emulated``
    selects the barrier-packet emulation.  Both are ignored by the
    non-KRISP policies.
    """
    if name == "mps-default":
        return MpsDefaultPolicy()
    if name == "static-equal":
        return StaticEqualPolicy()
    if name == "model-rightsize":
        return ModelRightSizePolicy()
    if name in ("krisp-o", "krisp-i"):
        krisp = krisp or KrispConfig()
        if name == "krisp-i" and krisp.overlap_limit is None:
            krisp = replace(krisp, overlap_limit=0)
        return KrispPolicy(name, krisp, emulated=emulated)
    raise KeyError(f"unknown policy {name!r}; available: {POLICY_NAMES}")
