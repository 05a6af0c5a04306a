"""Offline profilers (the paper's right-sizing inputs).

* :mod:`~repro.profiling.kernel_profiler` — sweeps CU allocations for a
  single kernel and finds its *minimum required CUs* (the fewest CUs with
  the same latency as the full GPU, Section IV-B); builds the performance
  database the runtime right-sizer consults.
* :mod:`~repro.profiling.model_profiler` — times whole inference passes
  (folded over the trace) under restricted stream masks to obtain the
  latency/throughput-vs-CUs curves of Fig. 3 and the model-wise
  right-size ("kneepoint") used by prior work.
"""

from repro.profiling.kernel_profiler import KernelProfiler, build_database
from repro.profiling.model_profiler import (
    ModelSensitivity,
    kernel_mincu_trace,
    profile_model,
    run_inference_once,
)

__all__ = [
    "KernelProfiler",
    "build_database",
    "ModelSensitivity",
    "kernel_mincu_trace",
    "profile_model",
    "run_inference_once",
]
