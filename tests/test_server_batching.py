"""Tests for dynamic batching."""

import pytest

from repro.server.batching import DynamicBatcher, SingleRequest
from repro.server.request import RequestQueue
from repro.sim.engine import Simulator


def make_batcher(max_batch_size=4, max_delay=1e-3):
    sim = Simulator()
    queue = RequestQueue(sim)
    batcher = DynamicBatcher(sim, queue, "m",
                             max_batch_size=max_batch_size,
                             max_delay=max_delay)
    return sim, queue, batcher


def submit(sim, batcher, at, n=1):
    for _ in range(n):
        sim.schedule(at, lambda: batcher.submit(
            SingleRequest("m", arrival_time=sim.now)))


def test_full_batch_flushes_immediately():
    sim, queue, batcher = make_batcher(max_batch_size=4)
    submit(sim, batcher, 0.0, n=4)
    sim.run(until=1e-6)
    assert len(queue) == 1
    batch = queue.pop()
    assert batch.batch_size == 4
    assert batch.arrival_time == 0.0


def test_timeout_flushes_partial_batch():
    sim, queue, batcher = make_batcher(max_batch_size=8, max_delay=1e-3)
    submit(sim, batcher, 0.0, n=3)
    sim.run()
    assert batcher.batches_emitted == 1
    batch = queue.pop()
    assert batch.batch_size == 3
    # Flush happened at the max_delay deadline.
    assert sim.now == pytest.approx(1e-3)


def test_oversized_burst_splits_into_batches():
    sim, queue, batcher = make_batcher(max_batch_size=4, max_delay=1e-3)
    submit(sim, batcher, 0.0, n=10)
    sim.run()
    assert batcher.batches_emitted == 3
    sizes = [queue.pop().batch_size for _ in range(3)]
    assert sizes == [4, 4, 2]


def test_single_latency_includes_batching_delay():
    sim, queue, batcher = make_batcher(max_batch_size=8, max_delay=2e-3)
    request = SingleRequest("m", arrival_time=0.0)
    sim.schedule(0.0, lambda: batcher.submit(request))
    sim.run()
    batch = queue.pop()
    batch.start_time = sim.now
    batch.completion_time = 5e-3
    assert request.latency == pytest.approx(5e-3)


def test_wrong_model_rejected():
    sim, queue, batcher = make_batcher()
    with pytest.raises(ValueError):
        batcher.submit(SingleRequest("other", arrival_time=0.0))


def test_batcher_validation():
    sim = Simulator()
    queue = RequestQueue(sim)
    with pytest.raises(ValueError):
        DynamicBatcher(sim, queue, "m", max_batch_size=0)
    with pytest.raises(ValueError):
        DynamicBatcher(sim, queue, "m", max_delay=-1.0)
