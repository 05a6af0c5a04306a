"""Profiling oracle: the folded inference pass against the simulator.

:func:`simulate_inference_once` runs a pass through a fresh simulator,
device, HSA runtime and masked stream, the run the fold
(:func:`~repro.profiling.model_profiler.run_inference_once`) replaced.
:func:`check_profiling_oracle` requires the two to agree bit for bit on
every pinned profiling case and every mask the right-size sweep visits,
under the default timing model and under a budget that throttles.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.gpu.cu_mask import CUMask
from repro.gpu.device import GpuDevice
from repro.gpu.exec_model import ExecutionModelConfig
from repro.gpu.kernel import KernelDescriptor
from repro.models.zoo import get_model
from repro.profiling.kernel_profiler import KernelProfiler
from repro.profiling.model_profiler import run_inference_once
from repro.runtime.hsa import HsaRuntime
from repro.runtime.stream import Stream
from repro.sim.engine import Simulator

__all__ = ["PROFILING_CASES", "check_profiling_oracle",
           "simulate_inference_once"]

#: The (model, batch) pairs of ``tests/test_profiling_pins.py``.
PROFILING_CASES = (("mobilenet", 4), ("squeezenet", 1), ("squeezenet", 4),
                   ("squeezenet", 8))


def simulate_inference_once(
    trace: Sequence[KernelDescriptor],
    mask: CUMask,
    exec_config: Optional[ExecutionModelConfig] = None,
) -> float:
    """Execute one inference pass alone on a fresh simulated device;
    returns its end-to-end latency in seconds."""
    sim = Simulator()
    device = GpuDevice(sim, mask.topology, exec_config=exec_config)
    stream = Stream(HsaRuntime(sim, device), name="profile")
    stream.queue.set_cu_mask(mask)
    for desc in trace:
        stream.launch_kernel(desc)
    sim.run()
    if device.busy():
        raise RuntimeError("inference did not drain; simulator deadlock")
    return sim.now


def check_profiling_oracle() -> tuple[list[str], dict[str, Any]]:
    """The fold equals the simulator on every case, mask and config."""
    profiler = KernelProfiler()
    masks = [profiler.mask_for(n)
             for n in range(2, profiler.topology.total_cus + 1)]
    masks.append(CUMask.all_cus(profiler.topology))
    violations: list[str] = []
    for model_name, batch in PROFILING_CASES:
        trace = get_model(model_name).trace(batch, profiler.topology)
        for config in (ExecutionModelConfig(),
                       ExecutionModelConfig(mem_bandwidth_budget=0.3)):
            for mask in masks:
                folded = run_inference_once(trace, mask, config)
                simulated = simulate_inference_once(trace, mask, config)
                if folded != simulated:
                    violations.append(
                        f"{model_name} b{batch} on {mask.count()} CUs "
                        f"(budget {config.mem_bandwidth_budget}): fold "
                        f"{folded!r} != simulator {simulated!r}")
    return violations, {"passes_compared": 2 * len(masks)
                        * len(PROFILING_CASES)}
