"""Unit tests for GPU topology."""

import pytest

from repro.gpu.topology import GpuTopology


def test_mi50_shape():
    topo = GpuTopology.mi50()
    assert topo.num_se == 4
    assert topo.cus_per_se == 15
    assert topo.total_cus == 60
    assert topo.threads_per_cu == 2560
    assert topo.max_threads == 153600  # the paper's stated GPU thread limit


def test_mi100_shape():
    topo = GpuTopology.mi100()
    assert topo.total_cus == 120


def test_cu_index_round_trip():
    topo = GpuTopology.mi50()
    for se in range(topo.num_se):
        for cu in range(topo.cus_per_se):
            idx = topo.cu_index(se, cu)
            assert topo.se_of(idx) == se


def test_cus_in_se():
    topo = GpuTopology.mi50()
    assert list(topo.cus_in_se(0)) == list(range(0, 15))
    assert list(topo.cus_in_se(3)) == list(range(45, 60))


def test_bounds_checking():
    topo = GpuTopology.mi50()
    with pytest.raises(ValueError):
        topo.cu_index(4, 0)
    with pytest.raises(ValueError):
        topo.cu_index(0, 15)
    with pytest.raises(ValueError):
        topo.se_of(60)
    with pytest.raises(ValueError):
        topo.cus_in_se(-1)


def test_invalid_topology_rejected():
    with pytest.raises(ValueError):
        GpuTopology(num_se=0, cus_per_se=15)
    with pytest.raises(ValueError):
        GpuTopology(num_se=4, cus_per_se=0)


@pytest.mark.parametrize("limit", [-3, 0, 128])
def test_kernel_limit_outside_counter_lanes_rejected(limit):
    with pytest.raises(ValueError, match="max_kernels_per_cu"):
        GpuTopology(max_kernels_per_cu=limit)


@pytest.mark.parametrize("limit", [1, 32, 127])
def test_kernel_limit_within_counter_lanes_accepted(limit):
    assert GpuTopology(max_kernels_per_cu=limit).max_kernels_per_cu == limit
