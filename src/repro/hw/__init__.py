"""Hardware model for the AC922 fast-interconnect system.

This package models the machine the paper evaluates on — an IBM AC922 with
a POWER9 CPU and an Nvidia V100 GPU connected by NVLink 2.0 — closely
enough that the paper's micro-architectural effects (packet overheads,
transaction coalescing, TLB miss plateaus, IOMMU walker throughput) emerge
from first principles plus the paper's own measured constants.

Public entry points:

- :mod:`repro.hw.specs` — immutable spec dataclasses and system presets.
- :mod:`repro.hw.interconnect` — the NVLink 2.0 packet/transaction model.
- :mod:`repro.hw.tlb` — GPU TLB + IOMMU address-translation model.
- :mod:`repro.hw.memory` — the Fig. 12 GPU/CPU page interleaving.
- :mod:`repro.hw.gpu` / :mod:`repro.hw.cpu` — processor models.
- :mod:`repro.hw.counters` — hardware performance counters.
- :mod:`repro.hw.power` — the energy/power model.
"""

from repro.hw.specs import (
    CpuSpec,
    GpuSpec,
    InterconnectSpec,
    MemorySpec,
    SystemSpec,
    ac922,
    v100_pcie,
    xeon_system,
)
from repro.hw.counters import PerfCounters
from repro.hw.interconnect import AccessPattern, InterconnectModel
from repro.hw.memory import InterleavedMapping
from repro.hw.tlb import TranslationModel
from repro.hw.gpu import GpuModel
from repro.hw.cpu import CpuModel
from repro.hw.power import PowerModel

__all__ = [
    "AccessPattern",
    "CpuModel",
    "CpuSpec",
    "GpuModel",
    "GpuSpec",
    "InterconnectModel",
    "InterconnectSpec",
    "InterleavedMapping",
    "MemorySpec",
    "PerfCounters",
    "PowerModel",
    "SystemSpec",
    "TranslationModel",
    "ac922",
    "v100_pcie",
    "xeon_system",
]
