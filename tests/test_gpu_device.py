"""Unit tests for the device execution engine, counters, and energy."""

import pytest

from repro.gpu.counters import CUKernelCounters
from repro.gpu.cu_mask import CUMask
from repro.gpu.device import GpuDevice
from repro.gpu.exec_model import ExecutionModelConfig
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.gpu.power import EnergyMeter, PowerModel
from repro.gpu.topology import GpuTopology
from repro.sim.engine import Simulator

TOPO = GpuTopology.mi50()
CFG = ExecutionModelConfig(launch_overhead=0.0, intra_cu_alpha=1.0)


def make_device(sim, **kwargs):
    kwargs.setdefault("exec_config", CFG)
    return GpuDevice(sim, TOPO, **kwargs)


def launch_of(workgroups=60, occupancy=1, wg_duration=1e-3, mem=0.0, name="k"):
    return KernelLaunch(KernelDescriptor(
        name=name, workgroups=workgroups, occupancy=occupancy,
        wg_duration=wg_duration, mem_intensity=mem,
    ))


def test_single_kernel_completes_at_isolated_latency():
    sim = Simulator()
    device = make_device(sim)
    done = []
    record = device.launch(launch_of(), CUMask.all_cus(TOPO),
                           on_complete=lambda r: done.append(sim.now))
    sim.run()
    # 60 WGs over 4 SEs = 15 per SE on 15 CUs, occupancy 1 -> 1 wave of 1ms
    assert done == [pytest.approx(1e-3)]
    assert record.end_time == pytest.approx(1e-3)
    assert device.kernels_completed == 1
    assert not device.busy()


def test_counters_track_launch_and_retire():
    sim = Simulator()
    device = make_device(sim)
    mask = CUMask.first_n(TOPO, 10)
    device.launch(launch_of(), mask)
    assert device.counters.busy_cus() == 10
    assert device.counters.total_assigned() == 10
    sim.run()
    assert device.counters.busy_cus() == 0


def test_counters_keep_high_water_marks():
    counters = CUKernelCounters(TOPO)
    a = CUMask.first_n(TOPO, 10)
    b = CUMask.first_n(TOPO, 6)
    counters.assign(a)
    counters.assign(b)          # overlaps a on CUs 0-5
    assert counters.busy_cus() == 10
    assert counters.peak_busy_cus == 10
    counters.release(a)
    counters.release(b)
    assert counters.busy_cus() == 0
    # Peaks survive the drain back to idle.
    assert counters.peak_busy_cus == 10


def test_experiment_result_surfaces_peak_occupancy():
    from repro.server.experiment import ExperimentConfig, run_experiment
    result = run_experiment(ExperimentConfig(
        model_names=("squeezenet",), policy="mps-default",
        requests_scale=0.1,
    ))
    assert 0 < result.peak_cu_occupancy <= TOPO.total_cus


def test_two_kernels_disjoint_masks_do_not_interfere():
    sim = Simulator()
    device = make_device(sim)
    ends = {}
    mask_a = CUMask.from_cus(TOPO, [TOPO.cu_index(se, c) for se in range(4) for c in range(7)])
    mask_b = CUMask.from_cus(TOPO, [TOPO.cu_index(se, c) for se in range(4) for c in range(7, 14)])
    # 28 WGs on 28 CUs (7/SE): 1 wave each.
    device.launch(launch_of(workgroups=28, name="a"), mask_a,
                  on_complete=lambda r: ends.setdefault("a", sim.now))
    device.launch(launch_of(workgroups=28, name="b"), mask_b,
                  on_complete=lambda r: ends.setdefault("b", sim.now))
    sim.run()
    assert ends["a"] == pytest.approx(1e-3)
    assert ends["b"] == pytest.approx(1e-3)


def test_two_kernels_sharing_cus_slow_down_fairly():
    sim = Simulator()
    device = make_device(sim)
    ends = {}
    mask = CUMask.all_cus(TOPO)
    # 600 WGs -> 10 waves alone (10ms); sharing all CUs with alpha=1 -> 20ms.
    device.launch(launch_of(workgroups=600, name="a"), mask,
                  on_complete=lambda r: ends.setdefault("a", sim.now))
    device.launch(launch_of(workgroups=600, name="b"), mask,
                  on_complete=lambda r: ends.setdefault("b", sim.now))
    sim.run()
    assert ends["a"] == pytest.approx(20e-3, rel=1e-6)
    assert ends["b"] == pytest.approx(20e-3, rel=1e-6)


def test_rate_rescaling_on_mid_flight_contention():
    """A kernel that runs half its work alone then shares finishes at
    t = half_alone + half_shared, exercising progress re-accounting."""
    sim = Simulator()
    device = make_device(sim)
    ends = {}
    mask = CUMask.all_cus(TOPO)
    device.launch(launch_of(workgroups=600, name="a"), mask,
                  on_complete=lambda r: ends.setdefault("a", sim.now))
    # At t=5ms kernel a is 50% done; b joins and both run at half rate.
    sim.schedule(5e-3, lambda: device.launch(
        launch_of(workgroups=600, name="b"), mask,
        on_complete=lambda r: ends.setdefault("b", sim.now)))
    sim.run()
    # a: 5ms alone (50%) + 10ms shared (50%) -> ends at 15ms.
    assert ends["a"] == pytest.approx(15e-3, rel=1e-6)
    # b: shares for 10ms (50% done at t=15ms), then runs alone 5ms.
    assert ends["b"] == pytest.approx(20e-3, rel=1e-6)


def test_memory_bound_kernels_throttle_each_other():
    sim = Simulator()
    device = make_device(sim)
    ends = {}
    half_a = CUMask.from_cus(TOPO, [TOPO.cu_index(se, c) for se in range(4) for c in range(7)])
    half_b = CUMask.from_cus(TOPO, [TOPO.cu_index(se, c) for se in range(4) for c in range(8, 15)])
    # Each demands mem_intensity * 28/60 = 0.7 * 0.466 = 0.326; two -> 0.65 < 1
    # so no throttle; with intensity 1.0 -> demand 0.933 total ... make both 1.0
    # and masks of 45 CUs to oversubscribe.
    big_a = CUMask.first_n(TOPO, 45)
    device.launch(launch_of(workgroups=4500, mem=1.0, name="a"), big_a,
                  on_complete=lambda r: ends.setdefault("a", sim.now))
    device.launch(launch_of(workgroups=4500, mem=1.0, name="b"), big_a,
                  on_complete=lambda r: ends.setdefault("b", sim.now))
    sim.run()
    # Demand 2 * 0.75 = 1.5 > 1. CU sharing alone gives 2x; BW gives extra 1.5x.
    # Without BW model both end at 2 * alone; check they end strictly later.
    alone_sim = Simulator()
    alone_dev = make_device(alone_sim)
    alone_end = []
    alone_dev.launch(launch_of(workgroups=4500, mem=1.0), big_a,
                     on_complete=lambda r: alone_end.append(alone_sim.now))
    alone_sim.run()
    assert ends["a"] > 2.0 * alone_end[0] * 1.2


def test_empty_mask_rejected():
    sim = Simulator()
    device = make_device(sim)
    with pytest.raises(ValueError):
        device.launch(launch_of(), CUMask.none(TOPO))


def test_wrong_topology_mask_rejected():
    sim = Simulator()
    device = make_device(sim)
    with pytest.raises(ValueError):
        device.launch(launch_of(), CUMask.all_cus(GpuTopology.mi100()))


def test_energy_integrates_busy_and_idle():
    sim = Simulator()
    power = PowerModel(p_static=10.0, p_se_active=0.0, p_cu_busy=1.0,
                       p_cu_idle=0.0)
    device = make_device(sim, power_model=power)
    # 15 WGs on SE0's 15 CUs -> 1 wave of 1ms; 15 CUs busy for 1ms.
    device.launch(launch_of(workgroups=15), CUMask.first_n(TOPO, 15))
    sim.run(until=2e-3)
    device.finalize()
    # busy segment: (10 + 15) * 1ms ; idle segment: 10 * 1ms
    assert device.meter.energy_joules == pytest.approx(25e-3 + 10e-3)
    assert device.meter.utilization(2e-3) == pytest.approx(15 * 1e-3 / (2e-3 * 60))


def test_trace_recording():
    sim = Simulator()
    device = make_device(sim, record_trace=True)
    device.launch(launch_of(name="traced"), CUMask.all_cus(TOPO))
    sim.run()
    assert len(device.trace) == 1
    assert device.trace[0].launch.descriptor.name == "traced"
    assert device.trace[0].end_time is not None


def test_counters_overflow_guard():
    counters = CUKernelCounters(TOPO)
    mask = CUMask.first_n(TOPO, 1)
    for _ in range(TOPO.max_kernels_per_cu):
        counters.assign(mask)
    with pytest.raises(OverflowError):
        counters.assign(mask)


def test_counters_underflow_guard():
    counters = CUKernelCounters(TOPO)
    with pytest.raises(ValueError):
        counters.release(CUMask.first_n(TOPO, 1))


def _counter_state(counters):
    return (counters.snapshot(), counters.busy_cus(),
            counters.total_assigned(), list(counters.se_loads_view()))


def test_refused_assign_and_release_leave_counters_unchanged():
    topo = GpuTopology(num_se=2, cus_per_se=3, max_kernels_per_cu=2)
    counters = CUKernelCounters(topo)
    third = CUMask.from_cus(topo, [3])
    counters.assign(third)
    counters.assign(third)      # CU 3 full
    before = _counter_state(counters)
    with pytest.raises(OverflowError, match="CU 3 already holds 2"):
        counters.assign(CUMask.first_n(topo, 4))
    assert _counter_state(counters) == before
    assert counters.audit() == []

    counters = CUKernelCounters(topo)
    counters.assign(CUMask.first_n(topo, 2))
    before = _counter_state(counters)
    with pytest.raises(ValueError, match="CU 2 counter underflow"):
        counters.release(CUMask.first_n(topo, 3))
    assert _counter_state(counters) == before
    assert counters.audit() == []


def test_counters_se_load():
    counters = CUKernelCounters(TOPO)
    counters.assign(CUMask.from_cus(TOPO, [0, 1, 15]))
    assert counters.se_load(0) == 2
    assert counters.se_load(1) == 1
    assert counters.se_load(2) == 0


def test_power_model_mi50_range():
    power = PowerModel()
    assert power.peak_power(TOPO) == pytest.approx(290.0)
    assert power.idle_power(TOPO) == pytest.approx(170.0)


def test_energy_meter_charges_each_segment_at_the_busy_set_it_is_given():
    meter = EnergyMeter(PowerModel(), TOPO)
    # [0, 1] idle: 140 W static + 60 idle CUs at 0.5 W.
    meter.advance(1.0, 0, 0)
    assert meter.energy_joules == pytest.approx(170.0)
    assert meter.busy_cu_seconds == 0.0
    # [1, 1.5] with 30 busy CUs on 2 SEs: 140 + 2*9 + 30*1.9 + 30*0.5.
    meter.advance(1.5, 30, 2)
    # A zero-length segment charges nothing, whatever its busy set.
    meter.advance(1.5, 60, 4)
    # [1.5, 3.5] fully busy: 140 + 4*9 + 60*1.9.
    meter.advance(3.5, 60, 4)
    assert meter.energy_joules == pytest.approx(170.0 + 230.0 * 0.5
                                                + 290.0 * 2.0)
    assert meter.busy_cu_seconds == pytest.approx(30 * 0.5 + 60 * 2.0)
    assert meter.utilization(3.5) == pytest.approx(135.0 / (3.5 * 60))


def test_energy_meter_rejects_time_reversal():
    meter = EnergyMeter(PowerModel(), TOPO)
    meter.advance(1.0, 0, 0)
    with pytest.raises(ValueError):
        meter.advance(0.5, 0, 0)
