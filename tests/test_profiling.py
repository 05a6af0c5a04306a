"""Tests for the kernel and model profilers."""

import pytest

from repro.check.profiling import simulate_inference_once
from repro.core.perfdb import PerfDatabase
from repro.gpu.cu_mask import CUMask
from repro.gpu.exec_model import ExecutionModelConfig, isolated_latency
from repro.gpu.topology import GpuTopology
from repro.models.kernels import compute_kernel, full_gpu_kernel, streaming_kernel
from repro.models.zoo import get_model
from repro.profiling.kernel_profiler import KernelProfiler, build_database
from repro.profiling.model_profiler import (
    kernel_mincu_trace,
    profile_model,
    run_inference_once,
)

TOPO = GpuTopology.mi50()


def test_profiler_analytic_matches_simulator():
    """The analytic profiling latency equals a real simulated run."""
    profiler = KernelProfiler()
    for desc in (compute_kernel("c", 26, 1e-4),
                 streaming_kernel("s", 8, 5e-5),
                 full_gpu_kernel("f", 1e-3, waves=2)):
        for n in (10, 26, 45, 60):
            mask = profiler.mask_for(n)
            analytic = profiler.latency_at(desc, n)
            # One extra packet-processing hop exists in the full stack;
            # account for it explicitly.
            simulated = simulate_inference_once([desc], mask)
            assert simulated == pytest.approx(analytic, rel=0.05)


FOLD_MODELS = ("albert", "alexnet", "mobilenet", "resnext101", "shufflenet",
               "squeezenet", "vgg19")
FOLD_CUS = (1, 2, 3, 7, 15, 20, 31, 46, 59, 60)
FOLD_CONFIGS = (ExecutionModelConfig(),
                ExecutionModelConfig(mem_bandwidth_budget=0.3))


@pytest.mark.parametrize("model_name", FOLD_MODELS)
def test_fold_equals_simulated_pass_bit_for_bit(model_name):
    """The folded pass is the simulator's end time, not an estimate: 80
    cases per model (4 batches x 10 CU counts x 2 timing models)."""
    model = get_model(model_name)
    masks = [KernelProfiler().mask_for(n) for n in FOLD_CUS]
    for batch in (1, 4, 8, 32):
        trace = model.trace(batch, TOPO)
        for config in FOLD_CONFIGS:
            for mask in masks:
                assert (run_inference_once(trace, mask, config)
                        == simulate_inference_once(trace, mask, config)), (
                    batch, mask.count(), config)


def test_min_cus_monotone_tolerance():
    """A looser tolerance never increases the profiled minCU."""
    desc = compute_kernel("c", 26, 1e-4)
    tight = KernelProfiler(tolerance=0.01).min_cus(desc)
    loose = KernelProfiler(tolerance=0.50).min_cus(desc)
    assert loose <= tight


def test_latency_curve_is_flat_above_mincu():
    profiler = KernelProfiler()
    desc = compute_kernel("c", 20, 1e-4)
    curve = profiler.latency_curve(desc, cu_counts=range(20, 61, 5))
    values = list(curve.values())
    assert max(values) <= min(values) * 1.05


def test_profile_returns_full_record():
    profiler = KernelProfiler()
    profile = profiler.profile(compute_kernel("c", 12, 1e-4),
                               with_curve=True)
    assert profile.min_cus == 12
    assert profile.total_cus == 60
    assert profile.restriction_tolerance == pytest.approx(0.8)
    assert len(profile.latencies) == 60


def test_build_database_dedups_by_key():
    kernels = [compute_kernel("a", 12, 1e-4)] * 5 + [compute_kernel("b", 26, 1e-4)]
    db = build_database(kernels)
    assert len(db) == 2
    assert db.lookup(compute_kernel("a", 12, 1e-4)) == 12


def test_build_database_covers_model_trace():
    db = build_database(get_model("squeezenet").trace(32))
    for desc in get_model("squeezenet").trace(32):
        assert db.lookup(desc) is not None


def test_profile_model_right_size_and_curve():
    sens = profile_model(get_model("albert"), cu_counts=range(4, 61, 4))
    assert sens.right_size == 12
    # Latency should be non-increasing (within tolerance) as CUs grow.
    assert sens.latencies[0] >= sens.latencies[-1]
    assert sens.latency_at(60) == sens.latencies[-1]
    assert len(sens.throughputs()) == len(sens.cu_counts)


def test_profile_model_rejects_empty_sweep():
    with pytest.raises(ValueError):
        profile_model(get_model("albert"), cu_counts=[])


def test_kernel_mincu_trace_shape():
    model = get_model("albert")
    trace = kernel_mincu_trace(model)
    assert len(trace) == model.kernel_count
    # The Fig. 4 phase behaviour: mostly small requirements with periodic
    # full-device spikes.
    assert max(trace) == 60
    small = sum(1 for m in trace if m <= 15)
    assert small / len(trace) > 0.7


def test_kernel_mincu_trace_resnext_mostly_large():
    trace = kernel_mincu_trace(get_model("resnext101"))
    # resnext has many high-minCU kernels (its grouped convolutions) but
    # also many small ones within the pass (the paper's opportunity).
    assert sum(1 for m in trace if m >= 50) >= 33
    assert sum(1 for m in trace if m <= 15) > 100
