"""Property sweep: the audit invariants hold across 100 randomized
seeded small configurations, including fault-injected runs.

Three families, 100 configs total:

* 40 Algorithm-1 mask programs cycling policy, overlap limit, and
  reshape mode (seeds 0-39);
* 40 device programs with fault/bandwidth churn in both recompute
  modes (seeds 0-39);
* 20 end-to-end mini experiments cycling policy, worker count, and
  batch size, odd seeds under the mixed fault schedule with the chaos
  guard, all audited for the device self-audit and request
  conservation (seeds 0-19).
"""

import pytest

from repro.check import (
    request_conservation,
    run_device_program,
    run_mask_program,
)
from repro.check.scenarios import CHAOS_GUARD, chaos_faults
from repro.core.allocation import DistributionPolicy
from repro.server.experiment import ExperimentConfig, run_experiment
from repro.server.options import RunOptions

_POLICIES = list(DistributionPolicy)
_LIMITS = (None, 0, 4, 12)
_CELL_POLICIES = ("mps-default", "static-equal", "model-rightsize",
                  "krisp-i", "krisp-o")
_MODELS = ("squeezenet", "shufflenet", "mobilenet")


@pytest.mark.parametrize("seed", range(40))
def test_mask_program_invariants_hold(seed):
    violations = run_mask_program(
        seed=seed,
        iterations=60,
        policy=_POLICIES[seed % len(_POLICIES)],
        overlap_limit=_LIMITS[seed % len(_LIMITS)],
        reshape=bool(seed % 2),
    )
    assert violations == []


@pytest.mark.parametrize("seed", range(40))
def test_device_program_invariants_hold(seed):
    violations = run_device_program(
        seed=seed,
        steps=40,
        full_recompute=bool(seed % 2),
        with_faults=True,
    )
    assert violations == []


def _mini_config(seed: int) -> ExperimentConfig:
    workers = 1 + seed % 3
    return ExperimentConfig(
        model_names=tuple(_MODELS[(seed + i) % len(_MODELS)]
                          for i in range(workers)),
        policy=_CELL_POLICIES[seed % len(_CELL_POLICIES)],
        batch_size=(1, 8)[seed % 2],
        seed=seed,
        requests_scale=0.05,
    )


@pytest.mark.parametrize("seed", range(20))
def test_experiment_invariants_hold(seed):
    config = _mini_config(seed)
    injected = bool(seed % 2)
    observed = []

    def audit(setup, injector):
        assert (injector is not None) == injected
        observed.append(setup.device.audit_state())
        observed.append(request_conservation(setup, injector))

    run_experiment(
        config,
        RunOptions(
            faults=chaos_faults(config) if injected else None,
            guard=CHAOS_GUARD if injected else None,
            audit=audit,
        ),
    )
    assert observed != [] and all(v == [] for v in observed)
