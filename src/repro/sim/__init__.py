"""Discrete-event simulation engine.

This package provides the substrate on which the GPU device, runtime, and
inference server are simulated.  It is a small but complete discrete-event
kernel: a priority-queue event loop (:class:`~repro.sim.engine.Simulator`),
timed callbacks, wakeable processes, and named deterministic RNG streams
(:class:`~repro.sim.rng.RngRegistry`).
"""

from repro.sim.engine import Simulator
from repro.sim.process import Process, Signal
from repro.sim.rng import RngRegistry

__all__ = ["Simulator", "Process", "Signal", "RngRegistry"]
