"""Compute-unit bitmasks.

A :class:`CUMask` is the unit of spatial partitioning on AMD GPUs: bit *i*
set means global CU *i* may run the kernel's workgroups.  The class is an
immutable value type so masks can be freely shared, hashed, and used as
dictionary keys by the allocator and profilers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from repro.gpu.topology import GpuTopology

__all__ = ["CUMask"]


@dataclass(frozen=True, eq=True)
class CUMask:
    """An immutable set of enabled compute units for one topology."""

    topology: GpuTopology
    bits: int

    def __post_init__(self) -> None:
        limit = (1 << self.topology.total_cus) - 1
        if self.bits < 0 or self.bits > limit:
            raise ValueError(
                f"mask 0x{self.bits:x} has bits outside the "
                f"{self.topology.total_cus}-CU device"
            )

    # -- constructors -----------------------------------------------------
    @classmethod
    def all_cus(cls, topology: GpuTopology) -> "CUMask":
        """Mask enabling every CU on the device."""
        return cls(topology, (1 << topology.total_cus) - 1)

    @classmethod
    def none(cls, topology: GpuTopology) -> "CUMask":
        """Empty mask (no CUs)."""
        return cls(topology, 0)

    @classmethod
    def from_cus(cls, topology: GpuTopology, cus: Iterable[int]) -> "CUMask":
        """Mask enabling exactly the given global CU indices."""
        bits = 0
        for cu in cus:
            if not 0 <= cu < topology.total_cus:
                raise ValueError(f"cu index {cu} out of range")
            bits |= 1 << cu
        return cls(topology, bits)

    @classmethod
    def first_n(cls, topology: GpuTopology, n: int) -> "CUMask":
        """Mask enabling the first ``n`` global CU indices."""
        if not 0 <= n <= topology.total_cus:
            raise ValueError(f"n={n} out of range")
        return cls(topology, (1 << n) - 1)

    def __hash__(self) -> int:
        # Hash by bits alone: equal masks (same topology AND bits) hash
        # equally, and an int hash is much cheaper than the generated
        # dataclass hash over the (topology, bits) field tuple — masks
        # key the device's launch-invariant memo on the hot path.
        return hash(self.bits)

    # -- queries ----------------------------------------------------------
    @cached_property
    def cu_tuple(self) -> tuple[int, ...]:
        """Enabled global CU indices, ascending, computed once."""
        bits = self.bits
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return tuple(out)

    @cached_property
    def cus_by_se(self) -> tuple[tuple[int, ...], ...]:
        """Enabled global CU indices of each shader engine (one tuple per
        SE, empty where the mask holds none), computed once."""
        per_se = self.topology.cus_per_se
        groups: list[list[int]] = [[] for _ in range(self.topology.num_se)]
        for cu in self.cu_tuple:
            groups[cu // per_se].append(cu)
        return tuple(map(tuple, groups))

    @cached_property
    def se_counts(self) -> tuple[tuple[int, int], ...]:
        """``(se, enabled CUs)`` for every SE the mask touches, ascending."""
        return tuple((se, len(cus)) for se, cus in enumerate(self.cus_by_se)
                     if cus)

    @cached_property
    def lanes_ones(self) -> int:
        """The mask spread to the counters' 8-bit lanes: 1 in lane *i*
        for every enabled CU *i* (see
        :class:`~repro.gpu.counters.CUKernelCounters`)."""
        lanes = 0
        for cu in self.cu_tuple:
            lanes |= 1 << (cu << 3)
        return lanes

    @cached_property
    def lanes_high(self) -> int:
        """Bit 7 of every enabled CU's lane: the flag bit the counters'
        lane-wise comparisons test."""
        return self.lanes_ones << 7

    def count(self) -> int:
        """Number of enabled CUs."""
        return self.bits.bit_count()

    def cus(self) -> Iterator[int]:
        """Enabled global CU indices in ascending order."""
        return iter(self.cu_tuple)

    def has(self, cu: int) -> bool:
        """Whether global CU ``cu`` is enabled."""
        return bool(self.bits >> cu & 1)

    def per_se_counts(self) -> list[int]:
        """Enabled-CU count inside each shader engine."""
        return list(map(len, self.cus_by_se))

    def active_ses(self) -> list[int]:
        """Shader engines that contain at least one enabled CU."""
        return [se for se, n in enumerate(self.per_se_counts()) if n > 0]

    def is_empty(self) -> bool:
        """True when no CU is enabled."""
        return self.bits == 0

    # -- word encoding ------------------------------------------------------
    def to_words(self, word_bits: int = 32) -> tuple[int, ...]:
        """Fixed-width little-endian word encoding of the mask.

        Word ``i`` bit ``j`` maps to global CU ``i * word_bits + j`` —
        the layout ``hsa_amd_queue_cu_set_mask`` expects for its uint32
        array.  Always emits enough words to cover the whole device, so
        the encoding length is a function of the topology alone.
        """
        if word_bits < 1:
            raise ValueError("word_bits must be >= 1")
        num_words = -(-self.topology.total_cus // word_bits)
        word_mask = (1 << word_bits) - 1
        return tuple((self.bits >> (i * word_bits)) & word_mask
                     for i in range(num_words))

    @classmethod
    def from_words(cls, topology: GpuTopology, words: Iterable[int],
                   word_bits: int = 32) -> "CUMask":
        """Inverse of :meth:`to_words`; validates word range and device
        bounds (bits beyond ``total_cus`` are rejected, not dropped).

        The device bound is checked per word so an imported trace with a
        stray high bit — typically inside the *last* word, where the
        encoding has slack beyond ``total_cus`` — is rejected with the
        offending word and CU position named, never silently aliased
        into a valid mask.
        """
        if word_bits < 1:
            raise ValueError("word_bits must be >= 1")
        total = topology.total_cus
        bits = 0
        for i, word in enumerate(words):
            if not 0 <= word < (1 << word_bits):
                raise ValueError(
                    f"word {i} (0x{word:x}) out of {word_bits}-bit range")
            base = i * word_bits
            allowed = max(0, total - base)
            stray = word >> allowed
            if stray:
                position = base + allowed + stray.bit_length() - 1
                raise ValueError(
                    f"word {i} (0x{word:x}) sets CU {position}, outside "
                    f"the {total}-CU device")
            bits |= word << base
        return cls(topology, bits)

    # -- set algebra --------------------------------------------------------
    def union(self, other: "CUMask") -> "CUMask":
        """CUs enabled in either mask."""
        self._check_same_device(other)
        return CUMask(self.topology, self.bits | other.bits)

    def intersect(self, other: "CUMask") -> "CUMask":
        """CUs enabled in both masks."""
        self._check_same_device(other)
        return CUMask(self.topology, self.bits & other.bits)

    def subtract(self, other: "CUMask") -> "CUMask":
        """CUs enabled here but not in ``other``."""
        self._check_same_device(other)
        return CUMask(self.topology, self.bits & ~other.bits)

    def invert(self) -> "CUMask":
        """CUs *not* enabled in this mask."""
        return CUMask(self.topology,
                      ~self.bits & (1 << self.topology.total_cus) - 1)

    def _check_same_device(self, other: "CUMask") -> None:
        if other.topology != self.topology:
            raise ValueError("masks belong to different topologies")

    def __str__(self) -> str:
        return (f"CUMask({self.count()}/{self.topology.total_cus} CUs, "
                f"per-SE {self.per_se_counts()})")
