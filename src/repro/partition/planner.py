"""Radix-bit planning for multi-pass partitioned joins (section 5.1).

The Triton join picks its radix bits from three constraints:

1. After all passes, each build partition's hash table must fit the
   scratchpad — with the paper's 2048-entry bucket-chaining tables this
   means ``2^(B1+B2+B3) >= |R| / 2048``.
2. The first pass must produce partition pairs small enough that two
   R/S pairs fit into half the GPU memory (for pipelining):
   ``|R_i| + |S_i| <= C / 4``.
3. Each pass's fanout must be supported by the partitioner's buffers;
   the paper uses 6-10 radix bits (Hierarchical) for pass 1 and 9 bits
   (Shared) for pass 2, with an optional third pass for the remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.errors import PlanError
from repro.hw.specs import SystemSpec

#: The paper's first-pass radix-bit window (section 6.1).
MIN_FIRST_PASS_BITS = 6
MAX_FIRST_PASS_BITS = 10
#: The paper's second-pass bits (Shared with 9 radix bits).
SECOND_PASS_BITS = 9
#: Hard bound so degenerate configurations fail loudly.
MAX_TOTAL_BITS = 27


@dataclass(frozen=True)
class RadixPlan:
    """Radix bits per pass for one partitioned join."""

    bits_per_pass: List[int]

    @property
    def passes(self) -> int:
        return len(self.bits_per_pass)

    @property
    def total_bits(self) -> int:
        return sum(self.bits_per_pass)

    @property
    def bits1(self) -> int:
        return self.bits_per_pass[0]

    @property
    def bits2(self) -> int:
        return self.bits_per_pass[1] if self.passes > 1 else 0

    @property
    def fanout1(self) -> int:
        return 1 << self.bits1


def plan_radix_join(
    build_rows: int,
    probe_rows: int,
    tuple_bytes: int,
    system: SystemSpec,
    single_pass: bool = False,
) -> RadixPlan:
    """Choose radix bits for a (multi-pass) radix-partitioned join.

    With ``single_pass=True`` the plan mimics the CPU radix join's
    single partitioning pass (the paper uses 12-14 bits there).
    """
    if build_rows <= 0 or probe_rows <= 0:
        raise PlanError("cardinalities must be positive")

    # Constraint 1: each final build partition (and its 2048-entry
    # bucket-chaining hash table) must fit into the scratchpad.
    scratchpad = system.gpu.usable_scratchpad_bytes
    total_bits = max(
        1,
        math.ceil(math.log2(max(build_rows * tuple_bytes / scratchpad, 1))),
    )
    if total_bits > MAX_TOTAL_BITS:
        raise PlanError(
            f"workload needs 2^{total_bits} partitions; exceeds the "
            f"supported maximum of 2^{MAX_TOTAL_BITS}"
        )

    if single_pass:
        return RadixPlan(bits_per_pass=[total_bits])

    # Constraint 2: pipelineable first-pass partition pairs.
    pair_bytes = (build_rows + probe_rows) * tuple_bytes
    pair_budget = system.gpu_memory_capacity / 4
    capacity_bits = max(0, math.ceil(math.log2(max(pair_bytes / pair_budget, 1))))

    bits1 = min(
        MAX_FIRST_PASS_BITS,
        max(MIN_FIRST_PASS_BITS, total_bits - SECOND_PASS_BITS, capacity_bits),
    )
    remaining = max(0, total_bits - bits1)
    if remaining == 0:
        return RadixPlan(bits_per_pass=[bits1])
    bits2 = min(SECOND_PASS_BITS, remaining)
    remaining -= bits2
    passes = [bits1, bits2]
    if remaining > 0:
        # Optional third pass handles the remainder (section 5.1).
        passes.append(remaining)
    return RadixPlan(bits_per_pass=passes)
