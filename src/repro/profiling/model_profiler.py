"""Model-level sensitivity profiling (paper Fig. 3 and Table III).

Times complete inference passes under stream-scoped CU masks of
decreasing size, yielding the latency/throughput-vs-active-CUs curves
prior work uses for *model-wise* right-sizing, and the resulting
kneepoint.  A pass alone on an idle device has a closed form, so no
simulator is built: the ``profiling-oracle`` check holds the fold equal
to the simulated pass (:mod:`repro.check.profiling`) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.allocation import DistributionPolicy
from repro.gpu.command_processor import CommandProcessorConfig
from repro.gpu.cu_mask import CUMask
from repro.gpu.exec_model import (
    ExecutionModelConfig,
    bandwidth_demand,
    isolated_latency,
    memory_throttle,
)
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.topology import GpuTopology
from repro.models.zoo import ModelSpec
from repro.profiling.kernel_profiler import KernelProfiler

__all__ = [
    "ModelSensitivity",
    "run_inference_once",
    "profile_model",
    "kernel_mincu_trace",
]

#: Firmware cost of consuming one dispatch packet, paid before every
#: kernel of a pass (the command processor's default timing).
_DISPATCH_LATENCY = CommandProcessorConfig().packet_process_latency


@dataclass(frozen=True)
class ModelSensitivity:
    """Latency/throughput of one model versus active-CU restriction."""

    model_name: str
    batch_size: int
    cu_counts: tuple[int, ...]
    latencies: tuple[float, ...]
    right_size: int
    full_latency: float

    def throughputs(self) -> tuple[float, ...]:
        """Requests per second at each CU count (batch / latency)."""
        return tuple(self.batch_size / lat for lat in self.latencies)

    def latency_at(self, cus: int) -> float:
        """Profiled latency at a swept CU count."""
        return self.latencies[self.cu_counts.index(cus)]


def run_inference_once(
    trace: Sequence[KernelDescriptor],
    mask: CUMask,
    exec_config: Optional[ExecutionModelConfig] = None,
) -> float:
    """End-to-end latency in seconds of one inference pass alone on an
    idle device whose stream is masked to ``mask``.

    Each kernel waits for its predecessor (the stream's barrier bit),
    then for the packet processor, then runs alone at its isolated
    latency, throttled only when its own bandwidth demand exceeds the
    budget: the simulator's two ``now + delay`` steps, in its order.
    """
    config = exec_config or ExecutionModelConfig()
    dispatch = _DISPATCH_LATENCY
    latencies: dict[KernelDescriptor, float] = {}
    t = 0.0
    for desc in trace:
        latency = latencies.get(desc)
        if latency is None:
            demand = bandwidth_demand(desc, mask)
            latency = latencies[desc] = (
                isolated_latency(desc, mask, config)
                / memory_throttle(desc, demand, demand, config))
        t = t + dispatch
        t = t + latency
    return t


def profile_model(
    model: ModelSpec,
    batch_size: int = 32,
    cu_counts: Optional[Sequence[int]] = None,
    tolerance: float = 0.05,
    topology: Optional[GpuTopology] = None,
    exec_config: Optional[ExecutionModelConfig] = None,
    policy: DistributionPolicy = DistributionPolicy.CONSERVED,
) -> ModelSensitivity:
    """Sweep active CUs for a whole model (the Fig. 3 experiment).

    The model's right-size (kneepoint) is the smallest swept CU count
    whose latency stays within ``tolerance`` of the full-GPU latency for
    every larger swept count — the same diminishing-returns criterion
    prior work profiles.
    """
    topology = topology or GpuTopology.mi50()
    if cu_counts is None:
        cu_counts = tuple(range(2, topology.total_cus + 1, 2))
    cu_counts = tuple(sorted(set(cu_counts)))
    if not cu_counts:
        raise ValueError("cu_counts must be non-empty")
    trace = model.trace(batch_size, topology)
    # Non-hidden host time is CU-independent; it adds a constant to every
    # point of the sweep (and flattens the relative curve, exactly as on
    # real hardware).
    host_time = model.host_gap_total(batch_size)
    mask_for = KernelProfiler(topology, policy=policy).mask_for
    latencies = [run_inference_once(trace, mask_for(n), exec_config)
                 + host_time for n in cu_counts]
    full_mask = CUMask.all_cus(topology)
    full_latency = run_inference_once(trace, full_mask, exec_config) + host_time
    budget = full_latency * (1.0 + tolerance)
    right_size = topology.total_cus
    for n, latency in sorted(zip(cu_counts, latencies), reverse=True):
        if latency <= budget:
            right_size = n
        else:
            break
    return ModelSensitivity(
        model_name=model.name,
        batch_size=batch_size,
        cu_counts=cu_counts,
        latencies=tuple(latencies),
        right_size=right_size,
        full_latency=full_latency,
    )


def kernel_mincu_trace(
    model: ModelSpec,
    batch_size: int = 32,
    profiler: Optional[KernelProfiler] = None,
) -> list[int]:
    """Per-kernel minimum-CU sequence over one inference pass (Fig. 4)."""
    profiler = profiler or KernelProfiler()
    cache: dict = {}
    result = []
    for desc in model.trace(batch_size, profiler.topology):
        key = (desc.name, desc.kernel_size, desc.bytes_in)
        if key not in cache:
            cache[key] = profiler.min_cus(desc)
        result.append(cache[key])
    return result
