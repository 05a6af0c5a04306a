"""Pooled/contention-aware allocation and predictive sizing policies.

Three contracts under test:

* **Lawfulness** — every pool-served mask satisfies the MaskLawChecker
  laws L1-L4 at the original request, across randomized churn, overlap
  limits, and the contention-biased path, with the counters audit clean
  throughout (:func:`run_mask_program` folds both in).
* **Bit-identity of the default path** — ``allocation="krisp"`` is
  byte-identical to the pre-policy code: the maskgen churn digest, the
  fig13a cache key, and the legacy cache-key payload are all pinned.
* **Policy mechanics** — pool-entry shape, the interference model, the
  predictive right-sizer's shrink rules, and the device's pool-switch
  ledger.
"""

import pytest

from repro.check.invariants import run_mask_program
from repro.check.scenarios import _churn_masks
from repro.core.allocation import (
    DistributionPolicy,
    ResourceMaskGenerator,
    se_distribution,
)
from repro.core.perfdb import PerfDatabase
from repro.core.pools import (
    PooledMaskGenerator,
    default_size_classes,
    interference_slowdown,
)
from repro.core.rightsizing import KernelRightSizer, PredictiveRightSizer
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
    violations = run_mask_program(
        seed=seed, iterations=120, overlap_limit=overlap_limit,
        reshape=bool(seed % 2), allocation="pooled")
    assert violations == []


@pytest.mark.parametrize("seed", range(4))
def test_pool_program_laws_hold_under_contention(seed):
    violations = run_mask_program(seed=seed, iterations=120,
                                  allocation="pooled-contention")
    assert violations == []


def test_pool_program_distributed_policy():
    violations = run_mask_program(
        seed=3, iterations=120, policy=DistributionPolicy.DISTRIBUTED,
        allocation="pooled")
    assert violations == []


def test_pool_stats_account_every_allocation():
    stats: dict = {}
    run_mask_program(seed=0, iterations=200, allocation="pooled",
                     stats_out=stats)
    # Every request is a pool hit, a repack or an Algorithm-1 fallback.
    assert sum(stats.values()) == 200


def test_contention_churn_scores_the_bias():
    # The contention churn runs over a device above its bandwidth
    # budget, so its placements (and pool statistics) must differ from
    # the plain pool's on the same request stream, both law-clean.
    plain: dict = {}
    biased: dict = {}
    assert run_mask_program(seed=0, iterations=300, allocation="pooled",
                            stats_out=plain) == []
    assert run_mask_program(seed=0, iterations=300,
                            allocation="pooled-contention",
                            stats_out=biased) == []
    assert plain != biased


# -- pool construction -------------------------------------------------------
def test_default_size_classes_mi50():
    assert default_size_classes(60, 15) == (2, 4, 7, 15, 30, 45, 60)


def test_pool_entries_are_class_sized_and_balanced():
    generator = PooledMaskGenerator(TOPO)
    for cls, entries in generator._pools.items():
        targets = sorted(se_distribution(cls, TOPO, generator.policy))
        assert entries, f"class {cls} has an empty pool"
        for mask in entries:
            assert mask.count() == cls
            per_se = sorted(len([cu for cu in mask.cu_tuple
                                 if cu in TOPO.cus_in_se(se)])
                            for se in range(TOPO.num_se))
            # Same balanced per-SE split as Algorithm 1's distribution.
            assert per_se == targets


def test_pool_selection_prefers_unloaded_entries():
    generator = PooledMaskGenerator(TOPO)
    counters = CUKernelCounters(TOPO)
    first = generator.generate(15, counters)
    counters.assign(first)
    second = generator.generate(15, counters)
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
    from repro.cli import _FAULT_SCENARIOS
    from repro.exp.chaos import CHAOS_SCENARIOS

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


def _predictive(device, min_cus=40):
    db = PerfDatabase()
    db.record(_desc(), min_cus)
    return PredictiveRightSizer(db, TOPO, device)


def test_predictive_shrinks_memory_bound_kernels_over_budget():
    device = _DeviceStub(demand=2.0, budget=1.0)
    sizer = _predictive(device, 40)
    # share 0.5, mem 0.9: 40 * (0.1 + 0.45) = 22.
    assert sizer(_desc()) == 22
    assert sizer.adjusted == 1


def test_predictive_leaves_compute_bound_and_under_budget_alone():
    over = _predictive(_DeviceStub(demand=2.0), 40)
    assert over(_desc(mem=0.2)) == 40
    under = _predictive(_DeviceStub(demand=0.5), 40)
    assert under(_desc()) == 40
    assert over.adjusted == under.adjusted == 0


def test_predictive_skips_straggler_windows():
    device = _DeviceStub(scale=4.0, demand=2.0)
    sizer = _predictive(device, 40)
    assert sizer(_desc()) == 40


def test_predictive_floors_at_min_cus_and_never_grows():
    device = _DeviceStub(demand=100.0, budget=1.0)
    sizer = _predictive(device, 8)
    assert sizer(_desc(mem=1.0)) == 4  # PREDICTIVE_MIN_CUS


def test_predictive_sizer_is_a_right_sizer():
    sizer = _predictive(_DeviceStub())
    assert isinstance(sizer, KernelRightSizer)
    unknown = _desc(name="unseen")
    assert sizer(unknown) == TOPO.total_cus  # fallback passes through
    assert sizer.degraded == 1
    assert sizer.unprofiled == {"unseen"}


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


# -- pinned policy cells -----------------------------------------------------
#: (allocation, sizing, emulated) -> (colo4 sha256, chaos sha256).  The
#: pooled, contention-aware and predictive policies reach no
#: ``krisp-repro check`` pin, so these hold their serving cells fixed:
#: the colo4 cell plain, and the same cell under the chaos scenario's
#: mixed faults and guard.  Identical under any ``PYTHONHASHSEED``.
POLICY_PINS = {
    ("pooled", "static", False): (
        "b6661f09af32bcadf7f6b2dede191cef6826892e964cf06f861d4e283be6f9e6",
        "bc7ee876cf37ea721b411e5d2fec5d9b11039f5d528570fd8c2a21ebd90375ad"),
    ("pooled-contention", "static", False): (
        "58267c1a76ffac12bb67929af484007757e88d3b453018c64615462e8a39918e",
        "339aa9b9571a6b26bb3bdfdc2a95709cb4e70a9d73387769056a21bce4e06019"),
    ("krisp", "predictive", False): (
        "8fc608c5021973ccd9255ccb85417979a2fb2e08760efbf08b64e3f428776249",
        "2c897d94ea2fde3f3d36cb96dd16e628d0673a1ed3fa5a56abad93a2eba4dacb"),
    ("pooled-contention", "predictive", False): (
        "1f82bf7a95746a27bd6f3b644b1f25eb284fb77990c2e8db38665a30b1da1bd1",
        "d748c520ccd204a196298ef1e36cace7d809afdeccdd7ce62bae42635b120077"),
    ("krisp", "static", True): (
        "e72abe42c31f91b3cb56f9171093f315c73a36b4a48c1b5f9384a8f9ce57cb67",
        "855e5d374431c6f62e2f242bb71a90a3731a41afd579794a3f320cf8be24b71f"),
    ("pooled-contention", "predictive", True): (
        "7266b7086867ffbd01fbc1e2cabe6fc0269c8f4c366edab8e2863e4aaf22207b",
        "48bacf8bf5226ab7be8b077092f26be9d70341eebcde0fd9211ec964275c877f"),
}


@pytest.mark.parametrize("chaos", (False, True), ids=("colo4", "chaos"))
@pytest.mark.parametrize("allocation,sizing,emulated", tuple(POLICY_PINS))
def test_policy_cells_are_pinned(allocation, sizing, emulated, chaos):
    from dataclasses import replace

    from repro.check.scenarios import CHAOS_GUARD, COLO4_CONFIG, chaos_faults
    from repro.server.options import RunOptions

    config = replace(COLO4_CONFIG, allocation=allocation, sizing=sizing,
                     emulated=emulated)
    options = RunOptions()
    if chaos:
        options = RunOptions(faults=chaos_faults(config), guard=CHAOS_GUARD)
    pin = POLICY_PINS[(allocation, sizing, emulated)][int(chaos)]
    assert result_hash(run_experiment(config, options)) == pin
