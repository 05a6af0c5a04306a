"""The content-addressed result store shared by every grid.

Every grid cell — a closed-loop :class:`~repro.server.experiment
.ExperimentConfig`, an open-loop rate point, a fleet cell — is a frozen,
seed-deterministic description of one run, so its result is a pure
function of (cell, timing-model constants, repro version).  Keys are a
stable SHA-256 digest of exactly that triple (:func:`cache_key`,
:func:`rate_cache_key`, :func:`~repro.cluster.experiment
.cluster_cache_key`): change any config field, any
:class:`~repro.gpu.exec_model.ExecutionModelConfig` default, the device
topology, or the package version, and the key changes with it.  Stale
results can never be served across a model change.

:class:`ContentStore` keeps one file per cell under the cell's namespace
(``results/``, ``rate/``, ``cluster/``).  Corrupt or truncated files are
*misses*, never crashes: they are counted in :class:`CacheStats`,
logged, evicted, and recomputed.  All writes are best-effort (a
read-only cache directory degrades to no caching) and *atomic* —
published via a same-directory temp file and ``os.replace``.

Entries live in 256 two-hex-prefix shard subdirectories (keys are
uniform SHA-256 hex) so big sweeps never degrade into one flat directory
of tens of thousands of files; flat entries written by pre-sharding
versions are found and migrated into their shard on first read, keys
unchanged (see :func:`locate_entry`).

Set ``REPRO_CACHE_DIR`` to relocate the store; delete the directory to
clear it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import repro
from repro.gpu.exec_model import ExecutionModelConfig
from repro.gpu.topology import GpuTopology
from repro.server.experiment import (
    SLO_FACTOR,
    ExperimentConfig,
    ExperimentResult,
    WorkerResult,
)
from repro.server.metrics import LatencyStats
from repro.server.slo import ResilienceStats, SloGuard

__all__ = [
    "CacheStats",
    "ContentStore",
    "cache_key",
    "default_cache",
    "fingerprint",
    "locate_entry",
    "rate_cache_key",
    "rate_result_from_dict",
    "rate_result_hash",
    "rate_result_to_dict",
    "result_hash",
    "sharded_entry_path",
]

logger = logging.getLogger(__name__)

#: Bump when the serialized payload layout changes (invalidates entries).
#: Schema 2: adds ``LatencyStats.p999`` and ``peak_cu_occupancy``.
CACHE_SCHEMA = 2


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (same-directory temp file +
    ``os.replace``).

    Concurrent writers — two pooled sweep workers storing the same key —
    each publish a complete file; readers see either the old entry or a
    new one, never an interleaved or truncated mix, and a writer dying
    mid-write can no longer clobber a previously good entry.  Raises
    ``OSError`` like a plain write would (callers keep their best-effort
    handling); the temp file is cleaned up on failure.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def cache_root() -> Path:
    """Root of the on-disk cache (``REPRO_CACHE_DIR`` or the default)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    return Path(root) if root else Path.home() / ".cache" / "repro-krisp"


def sharded_entry_path(directory: Path, key: str) -> Path:
    """Canonical location of ``key``'s entry: a two-hex-prefix shard.

    Large sweeps accumulate tens of thousands of entries; a flat
    directory makes every miss (and every ``ls``) scan all of them.
    Keys are uniform SHA-256 hex, so the first two characters split the
    store into 256 evenly loaded subdirectories.
    """
    return directory / key[:2] / f"{key}.json"


def locate_entry(directory: Path, key: str) -> Path:
    """Where to *read* ``key``'s entry, migrating flat legacy files.

    Pre-sharding stores kept every entry directly in ``directory``.
    Reads prefer the sharded location; a flat legacy file is moved into
    its shard on first touch (best-effort, atomic ``os.replace``).  The
    migration is idempotent under races: when two readers touch the same
    flat entry, the first ``os.replace`` wins and the loser — whose own
    rename fails because the source vanished — serves the winner's
    sharded file.  A rename that fails with the flat file still in place
    (cross-device store, read-only directory) falls back to an atomic
    copy, and to the flat path itself if even that fails — never a miss,
    never a vanished path.  A key present in neither place resolves to
    the sharded path, so miss handling targets the canonical location.
    """
    sharded = sharded_entry_path(directory, key)
    if sharded.exists():
        return sharded
    legacy = directory / f"{key}.json"
    if legacy.exists():
        try:
            sharded.parent.mkdir(parents=True, exist_ok=True)
            os.replace(legacy, sharded)
            return sharded
        except OSError:
            pass
        if sharded.exists():
            # Lost the migrate race: another reader already moved it.
            return sharded
        try:
            text = legacy.read_text()
        except OSError:
            # The flat file vanished between the rename attempt and the
            # read (racer finished mid-way), or is unreadable.
            return legacy if legacy.exists() else sharded
        # Flat file still present and readable, but not renamable
        # (EXDEV/EACCES): migrate by atomic copy, best-effort unlink.
        try:
            _atomic_write_text(sharded, text)
        except OSError:
            return legacy
        try:
            os.unlink(legacy)
        except OSError:
            pass
        return sharded
    return sharded


def fingerprint() -> dict[str, Any]:
    """The code-relevant constants folded into every cache key.

    A result is only reusable while the experiment cell *and* the model
    that produced it are unchanged, so the key covers the repro version,
    the payload schema, the evaluation topology, the timing-model
    defaults, and the SLO definition.
    """
    topo = GpuTopology.mi50()
    exec_defaults = ExecutionModelConfig()
    return {
        "version": repro.__version__,
        "schema": CACHE_SCHEMA,
        "topology": dataclasses.asdict(topo),
        "exec_model": dataclasses.asdict(exec_defaults),
        "slo_factor": SLO_FACTOR,
    }


def config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    """JSON-native form of one experiment cell (tuples become lists, so
    the dict compares equal to its own JSON round-trip)."""
    data = dataclasses.asdict(config)
    data["model_names"] = list(data["model_names"])
    # Only-when-non-default folding (same contract as the fault/guard
    # key fields): the allocation-policy knobs postdate most cached
    # results, and dropping them at their defaults keeps every
    # pre-existing cache key and result hash byte-identical.
    if data.get("allocation") == "krisp":
        del data["allocation"]
    if data.get("sizing") == "static":
        del data["sizing"]
    return data


def config_from_dict(payload: dict[str, Any]) -> ExperimentConfig:
    """Inverse of :func:`config_to_dict`."""
    data = dict(payload)
    data["model_names"] = tuple(data["model_names"])
    return ExperimentConfig(**data)


def cache_key(config: ExperimentConfig,
              constants: Optional[dict[str, Any]] = None,
              faults=None,
              guard: Optional[SloGuard] = None,
              cluster: Optional[dict[str, Any]] = None) -> str:
    """Stable content hash of (config, code constants, repro version).

    ``faults`` (a :class:`~repro.faults.FaultSchedule`), ``guard``
    (a :class:`~repro.server.slo.SloGuard`), and ``cluster`` (a
    JSON-native fleet-topology payload, see :func:`~repro.cluster
    .experiment.cluster_cache_key`) are folded in **only when given**,
    so every pre-existing single-device fault-free key — and every
    cached result under it — is untouched by the fault and fleet
    layers.
    """
    payload = {
        "config": config_to_dict(config),
        "constants": constants if constants is not None else fingerprint(),
    }
    if faults is not None:
        payload["faults"] = faults.to_dict()
    if guard is not None:
        payload["guard"] = guard.to_dict()
    if cluster is not None:
        payload["cluster"] = cluster
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -- result (de)serialisation ------------------------------------------------

def result_to_dict(result: ExperimentResult) -> dict[str, Any]:
    """JSON-friendly form of one experiment result.

    Floats survive a JSON round-trip bit-exactly (``repr`` round-trip),
    so a cache hit reproduces the live result field-for-field.  The
    ``resilience`` block appears only on guarded/fault-injected results,
    keeping every fault-free payload byte-identical to schema 2.
    """
    payload = {
        "config": config_to_dict(result.config),
        "workers": [
            {
                "model_name": w.model_name,
                "requests_completed": w.requests_completed,
                "rps": w.rps,
                "latency": dataclasses.asdict(w.latency),
            }
            for w in result.workers
        ],
        "window": result.window,
        "total_rps": result.total_rps,
        "energy_joules": result.energy_joules,
        "energy_per_request": result.energy_per_request,
        "gpu_utilization": result.gpu_utilization,
        "peak_cu_occupancy": result.peak_cu_occupancy,
    }
    if result.resilience is not None:
        payload["resilience"] = result.resilience.to_dict()
    return payload


def result_hash(result: ExperimentResult) -> str:
    """Content hash of one result's canonical JSON payload.

    Every float in the payload survives JSON bit-exactly, so two runs
    hash equally iff they produced the identical float sequence — the
    identity the incremental rate-recompute path is held to (and what
    ``krisp-repro check`` compares against each scenario's pin).
    """
    canonical = json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def result_from_dict(payload: dict[str, Any]) -> ExperimentResult:
    """Inverse of :func:`result_to_dict`."""
    return ExperimentResult(
        config=config_from_dict(payload["config"]),
        workers=tuple(
            WorkerResult(
                model_name=w["model_name"],
                requests_completed=w["requests_completed"],
                rps=w["rps"],
                latency=LatencyStats(**w["latency"]),
            )
            for w in payload["workers"]
        ),
        window=payload["window"],
        total_rps=payload["total_rps"],
        energy_joules=payload["energy_joules"],
        energy_per_request=payload["energy_per_request"],
        gpu_utilization=payload["gpu_utilization"],
        peak_cu_occupancy=payload.get("peak_cu_occupancy", 0),
        resilience=(ResilienceStats.from_dict(payload["resilience"])
                    if "resilience" in payload else None),
    )


# -- stores ------------------------------------------------------------------

@dataclass
class CacheStats:
    """Hit/miss/store/invalidation accounting for one store."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Corrupt, truncated, or key-mismatched entries treated as misses.
    invalidations: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class ContentStore:
    """Content-addressed store of grid-cell results, one file per cell.

    A cell (:class:`~repro.exp.cells.Cell`) names its namespace —
    ``results/`` (closed loop), ``rate/`` (open loop) or ``cluster/``
    (fleet) — and its key, and encodes/decodes its own payload; the
    store owns the layout, the stats, and the failure policy.  Any
    unreadable, corrupt, or mismatched entry (a closed-loop entry whose
    stored config differs from the cell's) is a counted miss and is
    evicted so the recomputed result can take its place.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        """``root=None`` re-reads ``REPRO_CACHE_DIR`` on every access, so
        one long-lived instance follows environment changes."""
        self._root = root
        self.stats = CacheStats()

    def root(self) -> Path:
        return self._root if self._root is not None else cache_root()

    def path_for(self, cell) -> Path:
        """Canonical (sharded) location of ``cell``'s entry."""
        return sharded_entry_path(self.root() / cell.namespace, cell.key())

    def get(self, cell) -> Any:
        """Cached result of ``cell``, or ``None`` on any kind of miss."""
        path = locate_entry(self.root() / cell.namespace, cell.key())
        try:
            raw = path.read_text()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self.stats.misses += 1
            self.stats.invalidations += 1
            return None
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("cache entry is not an object")
            result = cell.decode(payload)
        except (ValueError, KeyError, TypeError):
            self.stats.misses += 1
            self.stats.invalidations += 1
            logger.warning("discarding corrupt %s cache entry %s",
                           cell.namespace, path)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return result

    def put(self, cell, result) -> None:
        """Best-effort store of ``cell``'s result (atomic publish)."""
        payload = {"constants": fingerprint(), **cell.encode(result)}
        try:
            _atomic_write_text(self.path_for(cell),
                               json.dumps(payload, indent=2, sort_keys=True))
            self.stats.stores += 1
        except OSError:
            pass


# -- open-loop (rate/workload) results ---------------------------------------

def rate_cache_key(config: ExperimentConfig, offered_rps: float,
                   duration: float,
                   constants: Optional[dict[str, Any]] = None,
                   workload=None, faults=None,
                   guard: Optional[SloGuard] = None,
                   cluster: Optional[dict[str, Any]] = None) -> str:
    """Stable content hash of one open-loop run's inputs.

    ``workload`` (a :mod:`repro.workload` spec), ``faults``, ``guard``,
    and ``cluster`` (a JSON-native fleet-topology payload) are folded
    in **only when given** — the :func:`cache_key` convention — so
    plain Poisson keys are unaffected by the workload and fleet layers.
    ``duration`` must be the *actual* run length (resolve defaults via
    :func:`~repro.server.rate_experiment.default_rate_duration` before
    keying).
    """
    payload: dict[str, Any] = {
        "kind": "rate",
        "config": config_to_dict(config),
        "constants": constants if constants is not None else fingerprint(),
        "offered_rps": offered_rps,
        "duration": duration,
    }
    if workload is not None:
        payload["workload"] = workload.to_dict()
    if faults is not None:
        payload["faults"] = faults.to_dict()
    if guard is not None:
        payload["guard"] = guard.to_dict()
    if cluster is not None:
        payload["cluster"] = cluster
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def rate_result_to_dict(result) -> dict[str, Any]:
    """JSON-native form of one :class:`~repro.server.rate_experiment
    .RateResult` (floats survive bit-exactly; the ``resilience`` block
    appears only on guarded/fault-injected runs)."""
    payload: dict[str, Any] = {
        "offered_rps": result.offered_rps,
        "achieved_rps": result.achieved_rps,
        "latency": dataclasses.asdict(result.latency),
        "queue_residue": result.queue_residue,
    }
    if result.resilience is not None:
        payload["resilience"] = result.resilience.to_dict()
    return payload


def rate_result_from_dict(payload: dict[str, Any]):
    """Inverse of :func:`rate_result_to_dict`."""
    from repro.server.rate_experiment import RateResult
    return RateResult(
        offered_rps=payload["offered_rps"],
        achieved_rps=payload["achieved_rps"],
        latency=LatencyStats(**payload["latency"]),
        queue_residue=payload["queue_residue"],
        resilience=(ResilienceStats.from_dict(payload["resilience"])
                    if "resilience" in payload else None),
    )


def rate_result_hash(result) -> str:
    """Content hash of one rate result's canonical JSON payload."""
    canonical = json.dumps(
        rate_result_to_dict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


_DEFAULT_STORE = ContentStore()


def default_cache() -> ContentStore:
    """The process-wide result store (root follows ``REPRO_CACHE_DIR``)."""
    return _DEFAULT_STORE
