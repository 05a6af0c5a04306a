"""Tests for the chrome-trace exporter."""

import json

from repro.analysis.trace_export import export_chrome_trace, trace_events
from repro.gpu.cu_mask import CUMask
from repro.gpu.device import GpuDevice
from repro.gpu.exec_model import ExecutionModelConfig
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.gpu.topology import GpuTopology
from repro.sim.engine import Simulator

TOPO = GpuTopology.mi50()


def traced_device():
    sim = Simulator()
    device = GpuDevice(sim, TOPO,
                       exec_config=ExecutionModelConfig(launch_overhead=0.0),
                       record_trace=True)
    desc = KernelDescriptor(name="gemm", workgroups=30, occupancy=1,
                            wg_duration=1e-4, mem_intensity=0.0)
    device.launch(KernelLaunch(desc, requested_cus=30, tag="w0"),
                  CUMask.first_n(TOPO, 30))
    device.launch(KernelLaunch(desc, tag="w1"),
                  CUMask.from_cus(TOPO, range(30, 60)))
    sim.run()
    return device


def test_trace_events_structure():
    device = traced_device()
    events = trace_events(device.trace)
    meta = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {m["args"]["name"] for m in meta} == {"w0", "w1"}
    assert len(spans) == 2
    span = spans[0]
    assert span["name"] == "gemm"
    assert span["dur"] > 0
    assert span["args"]["cus"] == 30


def test_export_chrome_trace_round_trip(tmp_path):
    device = traced_device()
    path = tmp_path / "trace.json"
    count = export_chrome_trace(device.trace, path)
    payload = json.loads(path.read_text())
    assert len(payload["traceEvents"]) == count == 4


def test_unfinished_records_skipped():
    sim = Simulator()
    device = GpuDevice(sim, TOPO, record_trace=True)
    desc = KernelDescriptor(name="k", workgroups=10, wg_duration=1.0)
    device.launch(KernelLaunch(desc), CUMask.all_cus(TOPO))
    # Do not run the simulator: the kernel never finishes.
    spans = [e for e in trace_events(device.trace) if e["ph"] == "X"]
    assert spans == []
