"""Property tests: the sim core's bit-identity contract.

The device's rate recompute (the incremental production path vs the
``full_recompute=True`` oracle) is a pure implementation detail: both
modes must drain the same events in the same order and produce the
identical float sequence.  These tests drive
randomly generated launch / retire / fault / time-advance programs
(hypothesis-shrinkable, so a violation minimises to a small program)
through both modes and require byte-identical completion order, per-step
rate snapshots, and therefore an identical content hash of the whole
run.

Alongside the random programs, pin tests freeze the equal-timestamp
tie-break (priority, then schedule order) that the batching fast path
must preserve.
"""

import hashlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gpu.cu_mask import CUMask
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.gpu.topology import GpuTopology
from repro.sim.engine import Simulator

MAX_LIVE = 40

DESCRIPTORS = (
    KernelDescriptor("conv_a", workgroups=96, mem_intensity=0.0),
    KernelDescriptor("conv_b", workgroups=48, mem_intensity=0.3,
                     flat_time=2e-6),
    KernelDescriptor("gemm", workgroups=240, mem_intensity=0.5),
    KernelDescriptor("stream", workgroups=24, mem_intensity=0.9,
                     flat_time=1e-6),
    KernelDescriptor("tiny", workgroups=4, mem_intensity=0.2),
)

_TOTAL_CUS = GpuTopology.mi50().total_cus

#: The ``full_recompute`` settings every program must agree across:
#: the production path, then the full-sweep oracle.
UNIVERSES = (False, True)

# -- program generation -------------------------------------------------------

_launch = st.tuples(
    st.just("launch"),
    st.integers(0, len(DESCRIPTORS) - 1),
    st.lists(st.integers(0, _TOTAL_CUS - 1),
             min_size=1, max_size=8, unique=True).map(sorted),
    st.sampled_from(("w0", "w1")),
)
_advance = st.tuples(
    st.just("advance"),
    st.floats(1e-6, 400e-6, allow_nan=False, allow_infinity=False),
)
_fault_scale = st.tuples(
    st.just("fault_scale"),
    st.sampled_from((1.0, 1.5, 2.0, 3.5)),
    st.sampled_from(("w0", None)),
)
_fault_bw = st.tuples(
    st.just("fault_bw"),
    st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False),
)

#: Launch/advance dominate so programs keep a loaded device (the regime
#: where incremental recompute and batching actually diverge if wrong).
_step = st.one_of(_launch, _launch, _advance, _advance,
                  _fault_scale, _fault_bw)

programs = st.lists(_step, min_size=30, max_size=200)


def _drive(program, full_recompute: bool):
    """Replay ``program`` in one recompute mode; return its observable
    record."""
    sim = Simulator()
    device = GpuDevice(sim, full_recompute=full_recompute)
    topology = device.topology
    completions: list[tuple[str, float]] = []
    live = [0]

    def on_complete(record):
        live[0] -= 1
        completions.append((record.launch.descriptor.name, sim.now))

    snapshots = []
    for step in program:
        op = step[0]
        if op == "launch":
            if live[0] < MAX_LIVE:
                _, desc_idx, cus, tag = step
                device.launch(
                    KernelLaunch(descriptor=DESCRIPTORS[desc_idx], tag=tag),
                    CUMask.from_cus(topology, cus),
                    on_complete=on_complete)
                live[0] += 1
        elif op == "advance":
            sim.run(until=sim.now + step[1])
        elif op == "fault_scale":
            device.set_fault_latency_scale(step[1], tag=step[2])
        else:
            device.add_fault_bandwidth_demand(step[1])
        # One live completion per resident: every rate change cancels
        # the completion it supersedes.
        assert sim.pending() == device.running_count()
        snapshots.append(tuple(
            (r.launch.descriptor.name, r.seq_no, r.eff_latency, r.progress)
            for r in device.residents()))

    sim.run(until=sim.now + 1.0)  # drain remaining completions
    return {
        "snapshots": snapshots,
        "completions": completions,
        "events": sim.events_executed,
        "batches": sim.batches_drained,
        # repr round-trips floats exactly, so equal hashes == equal bits.
        "hash": hashlib.sha256(
            repr((snapshots, completions)).encode()).hexdigest(),
    }


@given(programs)
@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_programs_agree_across_all_universes(program):
    reference = _drive(program, UNIVERSES[0])
    for universe in UNIVERSES[1:]:
        other = _drive(program, universe)
        assert other["snapshots"] == reference["snapshots"], universe
        assert other["completions"] == reference["completions"], universe
        assert other["hash"] == reference["hash"], universe
        # The modes must also agree on how events group into instants.
        assert other["events"] == reference["events"], universe
        assert other["batches"] == reference["batches"], universe


# -- equal-timestamp tie-break pin --------------------------------------------

def test_equal_timestamp_ties_drain_by_priority_then_schedule_order():
    """The documented tie-break — (priority, seq) — survives batching.

    Four events share one instant; the engine must drain them as a
    single batch ordered by priority, then schedule order.
    """
    sim = Simulator()
    order: list[str] = []
    sim.schedule(1.0, lambda: order.append("p0-first"), priority=0)
    sim.schedule(1.0, lambda: order.append("p-10"), priority=-10)
    sim.schedule(1.0, lambda: order.append("p0-second"), priority=0)
    sim.schedule(1.0, lambda: order.append("p10"), priority=10)
    sim.schedule(0.5, lambda: order.append("early"), priority=50)
    sim.run()
    assert order == ["early", "p-10", "p0-first", "p0-second", "p10"]
    assert sim.batches_drained == 2


def test_same_instant_insertion_during_drain_stays_in_the_batch():
    """A callback scheduling work at the *current* instant must see it
    run at that instant (after already-pending same-time events of equal
    priority — it drew a later seq), in the same batch.
    """
    sim = Simulator()
    order: list[str] = []

    def first():
        order.append("first")
        sim.schedule(sim.now, lambda: order.append("nested"))

    sim.schedule(1.0, first)
    sim.schedule(1.0, lambda: order.append("second"))
    sim.run()
    assert sim.now == 1.0
    assert order == ["first", "second", "nested"]
    assert sim.batches_drained == 1
