"""Pooled/contention-aware allocation policies (repro.core.pools).

Three contracts under test:

* **Lawfulness** — every pool-served mask satisfies the MaskLawChecker
  laws L1-L4 at the original request, across randomized churn, overlap
  limits, and the contention-biased path, with the counters audit clean
  throughout (:func:`run_pool_program` folds both in).
* **Bit-identity of the default path** — ``allocation="krisp"`` is
  byte-identical to the pre-policy code: the maskgen churn digest, the
  fig13a cache key, and the legacy cache-key payload are all pinned.
* **Policy mechanics** — pool-entry shape, the interference model, the
  predictive right-sizer's shrink rules, and the device's pool-switch
  ledger.
"""

import pytest

from repro.check.invariants import run_pool_program
from repro.check.scenarios import _churn_masks
from repro.core.allocation import (
    DistributionPolicy,
    ResourceMaskGenerator,
    se_distribution,
)
from repro.core.perfdb import PerfDatabase
from repro.core.pools import (
    ALLOCATION_POLICIES,
    SIZING_POLICIES,
    PooledMaskAllocator,
    PredictiveRightSizer,
    default_size_classes,
    interference_slowdown,
)
from repro.core.rightsizing import KernelRightSizer
from repro.exp.cache import cache_key, config_to_dict, result_hash
from repro.gpu.counters import CUKernelCounters
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.topology import GpuTopology
from repro.server.experiment import ExperimentConfig, run_experiment
from repro.sim.engine import Simulator

TOPO = GpuTopology.mi50()

#: Digest of 2000 maskgen-churn iterations, captured on main before the
#: pooled-allocation layer landed.  ``allocation="krisp"`` must keep the
#: Algorithm-1 float/bit sequences untouched.
PIN2000 = "c3a16b82fd1496d1805a4719cd128920c47a07ff14c514db2de97d309a38add3"

#: The fig13a pin cell and key from test_serving_setup — the policy
#: knobs must not move fault-free cells to new cache addresses.
FIG13A = ExperimentConfig(("squeezenet",) * 2, policy="krisp-i",
                          batch_size=32, seed=0, requests_scale=0.5)
FIG13A_KEY = "a0b294025055a22ab3ac059aab1a18bd43d622b614cfbc23f37b96a86cdaa9ca"

FAST = ExperimentConfig(("squeezenet",) * 2, policy="krisp-i",
                        batch_size=4, requests_scale=0.1)


# -- lawfulness under churn --------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("overlap_limit", (None, 0, 8))
def test_pool_program_laws_hold(seed, overlap_limit):
    violations = run_pool_program(
        seed=seed, iterations=120, overlap_limit=overlap_limit,
        reshape=bool(seed % 2))
    assert violations == []


@pytest.mark.parametrize("seed", range(4))
def test_pool_program_laws_hold_under_contention(seed):
    violations = run_pool_program(seed=seed, iterations=120,
                                  contention=True)
    assert violations == []


def test_pool_program_distributed_policy():
    violations = run_pool_program(
        seed=3, iterations=120, policy=DistributionPolicy.DISTRIBUTED)
    assert violations == []


def test_pool_stats_account_every_allocation():
    stats: dict = {}
    run_pool_program(seed=0, iterations=200, stats_out=stats)
    assert stats["allocations"] == 0  # generate() path, not allocate()
    assert stats["pool_hits"] + stats["fallbacks"] > 0
    assert stats["degraded"] == 0


# -- pool construction -------------------------------------------------------
def test_default_size_classes_mi50():
    assert default_size_classes(60, 15) == (2, 4, 7, 15, 30, 45, 60)


def test_pool_entries_are_class_sized_and_balanced():
    allocator = PooledMaskAllocator(ResourceMaskGenerator(TOPO))
    for cls, entries in allocator._pools.items():
        targets = sorted(se_distribution(cls, TOPO, allocator.policy))
        assert entries, f"class {cls} has an empty pool"
        for mask in entries:
            assert mask.count() == cls
            per_se = sorted(len([cu for cu in mask.cu_tuple
                                 if cu in TOPO.cus_in_se(se)])
                            for se in range(TOPO.num_se))
            # Same balanced per-SE split as Algorithm 1's distribution.
            assert per_se == targets


def test_pool_allocator_rejects_bad_knobs():
    gen = ResourceMaskGenerator(TOPO)
    with pytest.raises(ValueError):
        PooledMaskAllocator(gen, repack_budget=-1)
    with pytest.raises(ValueError):
        PooledMaskAllocator(gen, size_classes=(0, 4))
    with pytest.raises(ValueError):
        PooledMaskAllocator(gen, switch_cost_s=-1e-6)


def test_pool_selection_prefers_unloaded_entries():
    allocator = PooledMaskAllocator(ResourceMaskGenerator(TOPO))
    counters = CUKernelCounters(TOPO)
    first = allocator.generate(15, counters)
    counters.assign(first)
    second = allocator.generate(15, counters)
    # A fresh pool has >= 2 disjoint 15-CU entries: the optimizer must
    # not stack the second kernel on the loaded one.
    assert not (first.bits & second.bits)


# -- default-path bit-identity -----------------------------------------------
def test_krisp_churn_digest_is_pinned():
    run = _churn_masks(ResourceMaskGenerator(TOPO, reshape=True),
                       iterations=2000)
    assert run.result_hash == PIN2000


def test_explicit_default_policies_equal_legacy_config():
    explicit = ExperimentConfig(("squeezenet",) * 2, policy="krisp-i",
                                batch_size=32, seed=0, requests_scale=0.5,
                                allocation="krisp", sizing="static")
    assert explicit == FIG13A
    assert cache_key(explicit) == FIG13A_KEY


def test_config_to_dict_folds_default_policies():
    data = config_to_dict(FIG13A)
    assert "allocation" not in data
    assert "sizing" not in data
    pooled = config_to_dict(ExperimentConfig(
        ("squeezenet",), allocation="pooled", sizing="predictive"))
    assert pooled["allocation"] == "pooled"
    assert pooled["sizing"] == "predictive"


def test_config_rejects_unknown_policies():
    with pytest.raises(ValueError):
        ExperimentConfig(("squeezenet",), allocation="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(("squeezenet",), sizing="bogus")


def test_cli_choices_match_policy_rosters():
    from repro.cli import (
        _ALLOCATION_CHOICES,
        _FAULT_SCENARIOS,
        _SIZING_CHOICES,
    )
    from repro.exp.chaos import CHAOS_SCENARIOS

    assert _ALLOCATION_CHOICES == ALLOCATION_POLICIES
    assert _SIZING_CHOICES == SIZING_POLICIES
    assert _FAULT_SCENARIOS == CHAOS_SCENARIOS


# -- interference model ------------------------------------------------------
def test_interference_slowdown_under_budget_is_one():
    assert interference_slowdown(0.8, 0.5, 1.0) == 1.0
    assert interference_slowdown(0.8, 1.0, 1.0) == 1.0
    assert interference_slowdown(0.8, 2.0, 0.0) == 1.0


def test_interference_slowdown_matches_throttle_inverse():
    # 2x oversubscription at 80% memory intensity: throttle 0.2 + 0.8/2.
    assert interference_slowdown(0.8, 2.0, 1.0) == pytest.approx(1.0 / 0.6)
    # Pure compute never slows down.
    assert interference_slowdown(0.0, 10.0, 1.0) == 1.0


# -- predictive right-sizer --------------------------------------------------
class _DeviceStub:
    def __init__(self, scale=1.0, demand=0.0, budget=1.0):
        self.fault_latency_scale = scale
        self.bandwidth_demand = demand
        self.exec_config = type("C", (), {"mem_bandwidth_budget": budget})()


def _desc(mem=0.9, name="gemm"):
    return KernelDescriptor(name=name, workgroups=60, occupancy=1,
                            wg_duration=1e-3, mem_intensity=mem)


def _oracle(min_cus=40):
    db = PerfDatabase()
    db.record(_desc(), min_cus)
    return KernelRightSizer(db, TOPO)


def test_predictive_shrinks_memory_bound_kernels_over_budget():
    device = _DeviceStub(demand=2.0, budget=1.0)
    sizer = PredictiveRightSizer(_oracle(40), device)
    # share 0.5, mem 0.9: 40 * (0.1 + 0.45) = 22.
    assert sizer(_desc()) == 22
    assert sizer.adjusted == 1


def test_predictive_leaves_compute_bound_and_under_budget_alone():
    over = PredictiveRightSizer(_oracle(40), _DeviceStub(demand=2.0))
    assert over(_desc(mem=0.2)) == 40
    under = PredictiveRightSizer(_oracle(40), _DeviceStub(demand=0.5))
    assert under(_desc()) == 40
    assert over.adjusted == under.adjusted == 0


def test_predictive_skips_straggler_windows():
    device = _DeviceStub(scale=4.0, demand=2.0)
    sizer = PredictiveRightSizer(_oracle(40), device)
    assert sizer(_desc()) == 40


def test_predictive_floors_at_min_cus_and_never_grows():
    device = _DeviceStub(demand=100.0, budget=1.0)
    sizer = PredictiveRightSizer(_oracle(8), device, min_cus=4)
    assert sizer(_desc(mem=1.0)) == 4


def test_predictive_delegates_oracle_surface():
    oracle = _oracle()
    sizer = PredictiveRightSizer(oracle, _DeviceStub())
    assert sizer.database is oracle.database
    assert sizer.topology is oracle.topology
    assert sizer.fallback_cus is oracle.fallback_cus
    assert sizer.unprofiled is oracle.unprofiled
    unknown = _desc(name="unseen")
    assert sizer(unknown) == TOPO.total_cus  # fallback passes through
    assert sizer.degraded == oracle.degraded == 1


# -- pool-switch ledger ------------------------------------------------------
def test_pool_switch_ledger_audits_clean():
    device = GpuDevice(Simulator(), TOPO)
    assert device.pool_switches == 0
    device.charge_pool_switch(5e-6)
    device.charge_pool_switch(5e-6)
    assert device.pool_switches == 2
    assert device.pool_switch_cost_s == pytest.approx(1e-5)
    assert device.audit_state() == []
    with pytest.raises(ValueError):
        device.charge_pool_switch(-1e-9)


def test_pool_switch_cost_without_switches_is_a_violation():
    device = GpuDevice(Simulator(), TOPO)
    device.pool_switch_cost_s = 1e-6  # corrupt the ledger directly
    assert any("pool" in v for v in device.audit_state())


# -- end-to-end serving cells ------------------------------------------------
@pytest.mark.parametrize("allocation,sizing", [
    ("pooled", "static"),
    ("pooled-contention", "predictive"),
])
def test_policy_cells_run_and_replay_identically(allocation, sizing):
    config = ExperimentConfig(
        ("squeezenet",) * 2, policy="krisp-i", batch_size=4,
        requests_scale=0.1, allocation=allocation, sizing=sizing)
    audits: list = []
    from repro.server.options import RunOptions

    def audit(setup, injector):
        audits.append(setup.device.audit_state())

    first = run_experiment(config, RunOptions(audit=audit))
    second = run_experiment(config)
    assert result_hash(first) == result_hash(second)
    assert audits == [[]]
    assert first.total_rps > 0


def test_pooled_cell_differs_from_krisp_cell():
    krisp = run_experiment(FAST)
    pooled = run_experiment(
        ExperimentConfig(("squeezenet",) * 2, policy="krisp-i",
                         batch_size=4, requests_scale=0.1,
                         allocation="pooled"))
    # Different mask placements -> different (but both valid) results.
    assert result_hash(krisp) != result_hash(pooled)
