"""Memoised offline profiling inputs for server policies.

Model-wise right-sizes (the Model Right-Size policy's input) and kernel
performance databases (KRISP's input) are the analogue of the paper's
install-time profiling databases.  Both are deterministic functions of
the model zoo and the timing model and cheap to compute — a right-size
sweep folds 60 profiling passes in milliseconds — so they are memoised
in-process only, and a timing-model or zoo change can never serve a
stale one.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.perfdb import PerfDatabase
from repro.models.zoo import get_model
from repro.profiling.kernel_profiler import KernelProfiler, build_database
from repro.profiling.model_profiler import profile_model

__all__ = ["combined_database", "model_database", "model_right_size"]

_RIGHTSIZE_TOLERANCE = 0.05


@lru_cache(maxsize=None)
def model_right_size(model_name: str, batch_size: int = 32) -> int:
    """Profiled model-wise right-size (kneepoint) in CUs.

    This is the quantity every prior-work policy in Table II profiles
    offline: the kneepoint of a sweep over every CU count from 2 to 60.
    """
    return profile_model(
        get_model(model_name),
        batch_size=batch_size,
        cu_counts=range(2, 61),
        tolerance=_RIGHTSIZE_TOLERANCE,
    ).right_size


@lru_cache(maxsize=None)
def model_database(model_name: str, batch_size: int = 32,
                   tolerance: float = 0.05) -> PerfDatabase:
    """Kernel performance database for one model at one batch size.

    Cheap (analytic profiling), so memoised in-process only.
    """
    profiler = KernelProfiler(tolerance=tolerance)
    return build_database(get_model(model_name).trace(batch_size), profiler)


def combined_database(model_names: tuple[str, ...],
                      batch_size: int = 32) -> PerfDatabase:
    """Merged database covering every kernel of the given models."""
    merged = PerfDatabase()
    for name in model_names:
        merged.merge(model_database(name, batch_size))
    return merged
