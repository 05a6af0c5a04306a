"""Sim-time sampling of device and server state into a metrics registry.

A :class:`SimSampler` is a recurring simulator event that snapshots the
observable state of one experiment cell at a fixed simulated interval:

* CU occupancy (busy CUs, plus a streaming histogram of its
  distribution — the Fig. 5 under-utilisation view);
* per-SE kernel load (Algorithm 1's decision input);
* running kernel count;
* memory-bandwidth pressure (total resident demand over the device
  budget);
* request-queue depths.

Samples land in gauges/histograms of a :class:`~repro.obs.metrics.
MetricsRegistry` and — when tracing is enabled on the simulator — as
Chrome counter tracks, so Perfetto shows occupancy and bandwidth
pressure directly under the kernel timeline.

Sampling is read-only: it never mutates device, queue, or RNG state, so
a sampled run produces bit-identical experiment results to an unsampled
one.  Device and queues are duck-typed (standard-library-only module).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.obs.metrics import MetricsRegistry, linear_buckets

__all__ = ["SimSampler"]

#: Default sampling period in simulated seconds (250 µs: ~4k samples per
#: second of simulated serving, fine enough to catch per-kernel phases).
DEFAULT_INTERVAL = 250e-6

#: Sampling runs at low priority so a tick scheduled at the same instant
#: as a launch/retire observes the post-transition state.
_SAMPLE_PRIORITY = 100


class SimSampler:
    """Periodic sim-clock sampler for one device (plus request queues)."""

    def __init__(
        self,
        sim: Any,
        device: Any,
        registry: MetricsRegistry,
        queues: Sequence[Any] = (),
        interval: float = DEFAULT_INTERVAL,
        prefix: str = "krisp",
    ) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be > 0")
        self.sim = sim
        self.device = device
        self.registry = registry
        #: Live view of the cell's queues: the sequence the caller owns
        #: (``ServingSetup.queues``), NOT a copy, so queues created
        #: after the sampler — per-model ``wl-{model}`` queues of a
        #: workload attached later, autoscaler pools — are sampled too.
        self.queues = queues
        self.interval = interval
        self.prefix = prefix
        self.stop_time: Optional[float] = None

        topology = device.topology
        self._occupancy = registry.gauge(
            f"{prefix}_cu_occupancy", "CUs with at least one resident kernel")
        self._occupancy_hist = registry.histogram(
            f"{prefix}_cu_occupancy_hist",
            "sampled distribution of busy CUs",
            buckets=linear_buckets(4.0, 4.0, topology.total_cus // 4),
        )
        self._running = registry.gauge(
            f"{prefix}_running_kernels", "kernels currently executing")
        self._se_load = [
            registry.gauge(f"{prefix}_se_load",
                           "sum of per-CU kernel counts in the SE",
                           se=str(se))
            for se in range(topology.num_se)
        ]
        self._bw_pressure = registry.gauge(
            f"{prefix}_mem_bw_pressure",
            "total resident bandwidth demand over the device budget")
        self._bw_hist = registry.histogram(
            f"{prefix}_mem_bw_pressure_hist",
            "sampled distribution of bandwidth pressure",
            buckets=linear_buckets(0.25, 0.25, 16),
        )
        # Queue-depth gauges are created lazily in :meth:`sample` so a
        # queue named after construction still gets its series on the
        # next tick.
        self._queue_depth: dict[str, Any] = {}
        self._samples = registry.counter(
            f"{prefix}_samples_total", "sim-time samples taken")

    def start(self, stop_time: Optional[float] = None) -> None:
        """Begin sampling now; stop after ``stop_time`` (None = never).

        The sampler re-arms itself while the simulation has events, so a
        bounded ``stop_time`` keeps ``sim.run(until=...)`` loops from
        ticking forever on sampler events alone.
        """
        self.stop_time = stop_time
        self.sim.schedule(self.sim.now, self._tick, priority=_SAMPLE_PRIORITY)

    def _tick(self) -> None:
        self.sample()
        next_time = self.sim.now + self.interval
        if self.stop_time is None or next_time <= self.stop_time:
            self.sim.schedule(next_time, self._tick,
                              priority=_SAMPLE_PRIORITY)

    def sample(self) -> None:
        """Take one snapshot at the current simulated time."""
        device = self.device
        counters = device.counters
        busy = counters.busy_cus()
        self._occupancy.set(busy)
        self._occupancy_hist.observe(busy)
        self._running.set(device.running_count())
        for se, gauge in enumerate(self._se_load):
            gauge.set(counters.se_load(se))
        pressure = (device.bandwidth_demand
                    / device.exec_config.mem_bandwidth_budget)
        self._bw_pressure.set(pressure)
        self._bw_hist.observe(pressure)
        for queue in self.queues:
            gauge = self._queue_depth.get(queue.name)
            if gauge is None:
                gauge = self.registry.gauge(
                    f"{self.prefix}_queue_depth",
                    "pending requests in the queue", queue=queue.name)
                self._queue_depth[queue.name] = gauge
            gauge.set(len(queue))
        self._samples.inc()

        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.counter_sample("cu_occupancy", busy)
            tracer.counter_sample("running_kernels", device.running_count())
            tracer.counter_sample("mem_bw_pressure", round(pressure, 6))
