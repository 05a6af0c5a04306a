"""Emulation-bracket audit: the Section V-B correction and mask laws.

Replays the fig12 measurement — the four latencies of the paper's
correction — and checks it as a set of identities rather than a chart:

* the emulation overhead ``L_over = L_emu(Base) - L_real(Base)`` is
  non-negative (the bracket can only cost time);
* the corrected latency satisfies the paper's identity
  ``L_real(KRISP) = L_emu(KRISP) - (L_emu(Base) - L_real(Base))``
  exactly, and lands within 5% of the directly simulated native-KRISP
  latency (the cross-validation only a simulator can perform);
* the bracket accounting balances: exactly two barrier packets per
  kernel launched;
* every kernel dispatched on the emulated stream ran strictly inside
  the queue mask applied for it (recorded at IOCTL retirement via
  ``EmulatedKernelScopedStream(record_masks=True)``, matched in order
  against the device's kernel trace), and no applied mask was empty.
"""

from __future__ import annotations

import math
from typing import Any

from repro.core.krisp import KrispConfig, KrispSystem
from repro.gpu.device import GpuDevice
from repro.models.zoo import get_model
from repro.profiling.kernel_profiler import build_database
from repro.runtime.emulation import (
    EmulatedKernelScopedStream,
    FullGpuAllocator,
    corrected_latency,
    emulation_overhead,
)
from repro.runtime.hsa import HsaRuntime
from repro.runtime.stream import Stream
from repro.sim.engine import Simulator

__all__ = ["check_emulation_correction"]

#: The fig12 benchmark's pinned recovery tolerance.
_CORRECTION_TOL = 0.05


def _run_pass(make_stream, model, passes, record_trace=False):
    sim = Simulator()
    device = GpuDevice(sim, record_trace=record_trace)
    stream = make_stream(sim, device)
    for _ in range(passes):
        for descriptor in model.trace(32):
            stream.launch_kernel(descriptor)
    sim.run()
    return sim.now / passes, stream, device


def check_emulation_correction(
    model_name: str = "squeezenet", passes: int = 2,
) -> tuple[list[str], dict[str, Any]]:
    """Run the four fig12 passes and audit the correction identities."""
    model = get_model(model_name)
    database = build_database(model.trace(32))

    def native_base(sim, device):
        return Stream(HsaRuntime(sim, device))

    def emu_base(sim, device):
        return EmulatedKernelScopedStream(
            HsaRuntime(sim, device), allocator=FullGpuAllocator())

    def emu_krisp(sim, device):
        system = KrispSystem(sim, device, database,
                             config=KrispConfig(overlap_limit=0))
        # Built directly (rather than via create_stream) to switch on
        # mask recording for the audit below.
        return EmulatedKernelScopedStream(
            system.runtime, allocator=system.allocator,
            rightsizer=system.rightsizer, config=system.emulation_config,
            record_masks=True)

    def native_krisp(sim, device):
        system = KrispSystem(sim, device, database,
                             config=KrispConfig(overlap_limit=0))
        return system.create_stream()

    l_real_base, _, _ = _run_pass(native_base, model, passes)
    l_emu_base, _, _ = _run_pass(emu_base, model, passes)
    l_emu_krisp, emu_stream, emu_device = _run_pass(
        emu_krisp, model, passes, record_trace=True)
    l_native_krisp, _, _ = _run_pass(native_krisp, model, passes)

    violations: list[str] = []

    # The correction: non-negative overhead, exact identity, recovery.
    try:
        l_over = emulation_overhead(l_emu_base, l_real_base)
    except ValueError as exc:
        return ([f"{model_name}: {exc}"],
                {"l_real_base": l_real_base, "l_emu_base": l_emu_base})
    corrected = corrected_latency(l_emu_krisp, l_over)
    identity = max(0.0, l_emu_krisp - (l_emu_base - l_real_base))
    if not math.isclose(corrected, identity, rel_tol=1e-12, abs_tol=1e-15):
        violations.append(
            f"{model_name}: correction identity broken — corrected "
            f"{corrected!r} != L_emu_krisp - L_over = {identity!r}")
    error = abs(corrected - l_native_krisp) / l_native_krisp
    if error >= _CORRECTION_TOL:
        violations.append(
            f"{model_name}: corrected latency {corrected:.6f}s misses the "
            f"native KRISP latency {l_native_krisp:.6f}s by "
            f"{error:.1%} (tolerance {_CORRECTION_TOL:.0%})")

    # Bracket accounting: two barrier packets per kernel.
    expected_kernels = model.kernel_count * passes
    if emu_stream.kernels_launched != expected_kernels:
        violations.append(
            f"{model_name}: stream launched {emu_stream.kernels_launched} "
            f"kernels, expected {expected_kernels}")
    if emu_stream.barriers_injected != 2 * emu_stream.kernels_launched:
        violations.append(
            f"{model_name}: {emu_stream.barriers_injected} barriers for "
            f"{emu_stream.kernels_launched} kernels (expected 2 per kernel)")

    # Mask law: each dispatched kernel ran inside the mask applied for
    # it.  Per-stream B1 serialisation orders dispatches one-to-one with
    # IOCTL retirements, so the device trace and the applied-mask log
    # line up by index.
    applied = emu_stream.masks_applied
    trace = emu_device.trace
    if len(applied) != expected_kernels or len(trace) != expected_kernels:
        violations.append(
            f"{model_name}: recorded {len(applied)} applied masks and "
            f"{len(trace)} dispatches for {expected_kernels} kernels")
    for index, (mask, record) in enumerate(zip(applied, trace)):
        if mask.is_empty():
            violations.append(
                f"{model_name}: kernel {index} had an empty queue mask")
        if record.mask.bits & ~mask.bits:
            violations.append(
                f"{model_name}: kernel {index} "
                f"({record.launch.descriptor.name}) dispatched on CUs "
                "outside its applied queue mask")

    details = {
        "l_real_base": l_real_base,
        "l_over": l_over,
        "l_emu_krisp": l_emu_krisp,
        "corrected": corrected,
        "l_native_krisp": l_native_krisp,
        "recovery_error": error,
        "kernels": expected_kernels,
    }
    return violations, details
