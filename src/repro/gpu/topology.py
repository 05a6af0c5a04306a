"""GPU compute topology: shader engines and compute units.

The evaluation platform of the paper is an AMD MI50: 60 compute units (CUs)
organised as 4 shader engines (SEs) of 15 CUs each, 2560 threads per CU.
:func:`GpuTopology.mi50` builds that preset; other shapes (e.g. an
MI100-like 120-CU part) are available for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GpuTopology"]


@dataclass(frozen=True)
class GpuTopology:
    """Static shape and limits of a simulated GPU.

    Attributes
    ----------
    num_se:
        Number of shader engines (clusters).
    cus_per_se:
        Compute units in each shader engine.
    threads_per_cu:
        Maximum resident threads per CU (2560 on MI50).
    wavefront_size:
        Threads per wavefront (64 on GCN/CDNA).
    max_kernels_per_cu:
        Maximum concurrently resident kernels per CU, in ``[1, 127]``.
        The paper sizes the per-CU kernel counters at 5 bits because a
        GPU handles at most 32 concurrent streams (the default); 127 is
        the bound of the packed counter lanes
        (:class:`~repro.gpu.counters.CUKernelCounters`).
    mem_bandwidth_frac:
        Peak global memory bandwidth expressed as a dimensionless budget of
        1.0; kernels demand fractions of it (see
        :mod:`repro.gpu.exec_model`).
    name:
        Human-readable device name.
    """

    num_se: int = 4
    cus_per_se: int = 15
    threads_per_cu: int = 2560
    wavefront_size: int = 64
    max_kernels_per_cu: int = 32
    name: str = "generic-gpu"

    def __post_init__(self) -> None:
        if self.num_se < 1 or self.cus_per_se < 1:
            raise ValueError("topology must have at least one SE and one CU")
        if not 1 <= self.max_kernels_per_cu <= 127:
            raise ValueError(
                f"max_kernels_per_cu {self.max_kernels_per_cu} outside "
                "[1, 127]")

    @property
    def total_cus(self) -> int:
        """Total compute units on the device."""
        return self.num_se * self.cus_per_se

    @property
    def max_threads(self) -> int:
        """Maximum concurrently resident threads on the whole GPU."""
        return self.total_cus * self.threads_per_cu

    def cu_index(self, se: int, cu: int) -> int:
        """Flatten an (SE, CU-within-SE) pair to a global CU index."""
        self._check_se(se)
        if not 0 <= cu < self.cus_per_se:
            raise ValueError(f"cu {cu} out of range [0, {self.cus_per_se})")
        return se * self.cus_per_se + cu

    def se_of(self, cu_index: int) -> int:
        """Shader engine that owns global CU ``cu_index``."""
        if not 0 <= cu_index < self.total_cus:
            raise ValueError(f"cu index {cu_index} out of range")
        return cu_index // self.cus_per_se

    def cus_in_se(self, se: int) -> range:
        """Global CU indices belonging to shader engine ``se``."""
        self._check_se(se)
        start = se * self.cus_per_se
        return range(start, start + self.cus_per_se)

    def _check_se(self, se: int) -> None:
        if not 0 <= se < self.num_se:
            raise ValueError(f"se {se} out of range [0, {self.num_se})")

    @classmethod
    def mi50(cls) -> "GpuTopology":
        """AMD MI50: 4 SEs x 15 CUs = 60 CUs, 2560 threads/CU."""
        return cls(num_se=4, cus_per_se=15, threads_per_cu=2560,
                   wavefront_size=64, name="AMD-MI50")

    @classmethod
    def mi100(cls) -> "GpuTopology":
        """MI100-like part: 8 SEs x 15 CUs = 120 CUs."""
        return cls(num_se=8, cus_per_se=15, threads_per_cu=2560,
                   wavefront_size=64, name="AMD-MI100")
