"""Unit tests for server components: queue, metrics, clients, worker."""

import numpy as np
import pytest

from repro.gpu.device import GpuDevice
from repro.gpu.exec_model import ExecutionModelConfig
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.topology import GpuTopology
from repro.runtime.hsa import HsaRuntime
from repro.runtime.stream import Stream
from repro.server.frontend import ClosedLoopClient
from repro.server.metrics import BoxplotStats, LatencyStats, geomean, percentile
from repro.server.request import InferenceRequest, RequestQueue
from repro.server.worker import HostCostModel, Worker
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.workload import (
    HomogeneousWorkloadSpec,
    PoissonArrivals,
    WorkloadClient,
)

TOPO = GpuTopology.mi50()


# -- metrics ----------------------------------------------------------------

def test_percentile_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 95) == 95
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 95) == 7.0


def test_percentile_validation():
    with pytest.raises(ValueError, match="empty sample set"):
        percentile([], 95)
    with pytest.raises(ValueError, match=r"out of \(0, 100\]"):
        percentile([1.0], 0)
    with pytest.raises(ValueError, match=r"out of \(0, 100\]"):
        percentile([1.0], 101)
    with pytest.raises(ValueError):
        percentile([1.0], -5)
    # A bad pct fails fast even when the samples are empty too.
    with pytest.raises(ValueError, match=r"out of \(0, 100\]"):
        percentile([], 0)


def test_percentile_nearest_rank_edges():
    samples = [10.0, 20.0, 30.0, 40.0]
    # pct just above 0 clamps to the first rank, never rank 0.
    assert percentile(samples, 1e-9) == 10.0
    assert percentile(samples, 25) == 10.0
    # Nearest-rank rounds up: 26% of 4 samples -> rank 2.
    assert percentile(samples, 26) == 20.0
    assert percentile(samples, 100) == 40.0
    # Single sample answers every pct.
    assert percentile([7.0], 1e-9) == 7.0
    assert percentile([7.0], 100) == 7.0
    # Unsorted input is sorted, not trusted.
    assert percentile([40.0, 10.0, 30.0, 20.0], 50) == 20.0


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_latency_stats():
    stats = LatencyStats.from_samples([1.0, 2.0, 3.0, 4.0])
    assert stats.count == 4
    assert stats.mean == 2.5
    assert stats.p50 == 2.0
    assert stats.maximum == 4.0
    with pytest.raises(ValueError):
        LatencyStats.from_samples([])


def test_latency_stats_p999():
    samples = [float(i) for i in range(10_000)]
    stats = LatencyStats.from_samples(samples)
    assert stats.p99 == 9899.0
    assert stats.p95 < stats.p99 <= stats.p999 <= stats.maximum
    # from_samples and the standalone helper agree on the same rank.
    assert stats.p999 == percentile(samples, 99.9)
    # Small sample sets degrade to the max, never crash.
    assert LatencyStats.from_samples([1.0, 2.0]).p999 == 2.0


def test_boxplot_stats():
    stats = BoxplotStats.from_samples(list(map(float, range(1, 101))))
    assert stats.minimum == 1.0
    assert stats.q1 == 25.0
    assert stats.median == 50.0
    assert stats.q3 == 75.0
    assert stats.maximum == 100.0


# -- request queue ------------------------------------------------------------

def test_queue_fifo_order():
    sim = Simulator()
    queue = RequestQueue(sim)
    for i in range(3):
        queue.put(InferenceRequest("m", 32, arrival_time=float(i)))
    assert queue.pop().arrival_time == 0.0
    assert queue.pop().arrival_time == 1.0
    assert len(queue) == 1


def test_queue_blocking_get():
    sim = Simulator()
    queue = RequestQueue(sim)
    woke = []
    queue.get_signal().on_fire(lambda v: woke.append(sim.now))
    sim.schedule(5.0, lambda: queue.put(
        InferenceRequest("m", 32, arrival_time=sim.now)))
    sim.run()
    assert woke == [5.0]


def test_queue_pop_empty_raises():
    queue = RequestQueue(Simulator())
    with pytest.raises(IndexError):
        queue.pop()


def test_request_latency_requires_completion():
    request = InferenceRequest("m", 32, arrival_time=0.0)
    with pytest.raises(ValueError):
        request.latency
    with pytest.raises(ValueError):
        request.service_latency


# -- host cost model -----------------------------------------------------------

def test_host_cost_draws_are_positive_and_near_mean():
    rng = np.random.default_rng(0)
    costs = HostCostModel(pre_mean=1e-3)
    draws = [costs.draw(costs.pre_mean, rng) for _ in range(500)]
    assert all(d > 0 for d in draws)
    assert np.mean(draws) == pytest.approx(1e-3, rel=0.2)


def test_host_cost_zero_mean():
    rng = np.random.default_rng(0)
    assert HostCostModel().draw(0.0, rng) == 0.0


# -- worker + closed loop -------------------------------------------------------

def make_worker_stack(segments, stop_time=1.0):
    sim = Simulator()
    device = GpuDevice(sim, TOPO,
                       exec_config=ExecutionModelConfig(launch_overhead=0.0))
    runtime = HsaRuntime(sim, device)
    stream = Stream(runtime, name="w")
    queue = RequestQueue(sim)
    client = ClosedLoopClient(sim, queue, "m", 32, concurrency=1,
                              stop_time=stop_time)
    worker = Worker(
        sim, "w0", stream, segments, queue,
        rng=np.random.default_rng(1),
        host_costs=HostCostModel(pre_mean=1e-4, post_mean=1e-4),
        stop_time=stop_time,
        on_complete=client.on_request_complete,
    )
    return sim, device, worker


def simple_segment(gap=0.0):
    desc = KernelDescriptor(name="k", workgroups=60, wg_duration=1e-3,
                            occupancy=1, mem_intensity=0.0)
    return [([desc], gap)]


def test_worker_processes_closed_loop_requests():
    sim, device, worker = make_worker_stack(simple_segment(), stop_time=0.1)
    sim.run()
    # Each request ~1.2ms -> roughly 80 requests in 100ms.
    assert 50 <= worker.stats.requests_processed <= 100
    assert device.kernels_completed == worker.stats.requests_processed


def test_worker_respects_host_gaps():
    sim, device, fast = make_worker_stack(simple_segment(gap=0.0),
                                          stop_time=0.1)
    sim.run()
    sim2, device2, slow = make_worker_stack(simple_segment(gap=2e-3),
                                            stop_time=0.1)
    sim2.run()
    assert slow.stats.requests_processed < fast.stats.requests_processed


def test_worker_latency_accounting():
    sim, device, worker = make_worker_stack(simple_segment(), stop_time=0.05)
    sim.run()
    latencies = worker.stats.latencies_in(0.0, 0.05)
    assert latencies
    assert all(1e-3 < lat < 3e-3 for lat in latencies)


def test_poisson_client_rate():
    """The open-loop client at a Poisson spec issues about ``rate``
    arrivals per second into its queue."""
    sim = Simulator()
    queue = RequestQueue(sim)
    spec = HomogeneousWorkloadSpec("m", PoissonArrivals(rate=1000.0),
                                   batch_size=32)
    client = WorkloadClient(sim, spec, queue.offer, rng=RngRegistry(2),
                            stop_time=1.0)
    sim.run()
    assert client.issued == pytest.approx(1000, rel=0.2)
    assert queue.enqueued == client.issued


def test_closed_loop_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        ClosedLoopClient(sim, RequestQueue(sim), "m", 32, concurrency=0)
