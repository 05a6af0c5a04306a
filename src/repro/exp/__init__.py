"""Grid orchestration: one cell executor and one content store.

The evaluation grids of the paper (Fig. 13's policies x workers x models,
Fig. 15's 28 model pairs, Fig. 16's overlap-limit sweep) and the
harness's own grids (load curves, chaos, fleets) are embarrassingly
parallel: every cell is frozen and seed-deterministic.  This package
exploits that shape once, for every grid:

* :mod:`repro.exp.cache` — the content-addressed on-disk
  :class:`ContentStore` (``results/``, ``rate/`` and ``cluster/``
  namespaces), so a cell computed once is never recomputed until the
  configuration, the timing-model constants, or the repro version
  changes;
* :mod:`repro.exp.cells` — the :class:`Cell` protocol and
  :func:`run_cells`, which does the store lookups and writes, fans the
  misses out over a process pool, and retries and reports failures;
* :mod:`repro.exp.sweep` — a grid builder plus :func:`run_sweep` over
  closed-loop cells, with a structured report;
* :mod:`repro.exp.chaos` — policy × fault-scenario resilience grids
  scored against each policy's fault-free baseline;
* :mod:`repro.exp.load` — latency-vs-offered-rate curves over
  :mod:`repro.workload` specs, one rate cell per point.

The fleet grid (:func:`repro.cluster.run_fleet`) runs
:class:`~repro.cluster.ClusterCell` cells through the same executor.
"""

from repro.exp.cache import (
    CacheStats,
    ContentStore,
    JsonStore,
    cache_key,
    default_cache,
    fingerprint,
    rate_cache_key,
    rate_result_from_dict,
    rate_result_hash,
    rate_result_to_dict,
)
from repro.exp.cells import (
    Cell,
    CellOutcome,
    ExperimentCell,
    RateCell,
    cached_run_experiment,
    run_cells,
)
from repro.exp.chaos import (
    CHAOS_SCENARIOS,
    ChaosCell,
    ChaosReport,
    build_scenario,
    run_chaos,
)
from repro.exp.load import (
    DEFAULT_SCALES,
    LoadCurveReport,
    LoadPoint,
    run_load_curve,
)
from repro.exp.sweep import (
    CellFailure,
    Sweep,
    SweepReport,
    default_jobs,
    run_sweep,
)

__all__ = [
    "CacheStats",
    "ContentStore",
    "JsonStore",
    "cache_key",
    "default_cache",
    "fingerprint",
    "rate_cache_key",
    "rate_result_from_dict",
    "rate_result_hash",
    "rate_result_to_dict",
    "Cell",
    "CellOutcome",
    "ExperimentCell",
    "RateCell",
    "cached_run_experiment",
    "run_cells",
    "DEFAULT_SCALES",
    "LoadCurveReport",
    "LoadPoint",
    "run_load_curve",
    "CHAOS_SCENARIOS",
    "ChaosCell",
    "ChaosReport",
    "build_scenario",
    "run_chaos",
    "CellFailure",
    "Sweep",
    "SweepReport",
    "default_jobs",
    "run_sweep",
]
