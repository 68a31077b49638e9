"""NVLink 2.0 packet and memory-transaction model.

Reproduces the behaviour measured in section 3.4.1 (Figure 6):

- The GPU coalesces CPU-memory accesses into 128-byte, cacheline-aligned
  memory transactions.
- Each packet carries a 16-byte header and 1-256 bytes of payload; small
  reads are padded to a 32-byte payload, and small writes carry an extra
  16-byte "byte enable" header extension.
- Random-access bandwidth grows linearly with the access granularity until
  it matches sequential bandwidth at 128 bytes.
- Misaligned accesses lose bandwidth: a 512-byte access misaligned by 16
  bytes loses ~20% for reads and ~56% for writes.

The sub-128-byte regime is latency/occupancy bound: the measured curves
correspond to a fixed sustainable *access rate* (in-flight transactions
divided by round-trip latency) of ~730 M reads/s and ~450 M writes/s; the
rate constants below are derived from Figure 6(a) and documented as
calibration inputs in EXPERIMENTS.md.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hw.specs import InterconnectSpec


class Op(enum.Enum):
    """Direction of a memory access as seen from the GPU."""

    READ = "read"
    WRITE = "write"


class AccessPattern(enum.Enum):
    """Spatial locality of an access stream."""

    SEQUENTIAL = "sequential"
    RANDOM = "random"


# Sustainable random-access rates over NVLink 2.0 (accesses/second) in the
# sub-transaction regime, derived from Figure 6(a): e.g. 44.1 GiB/s at a
# 64-byte read granularity = 740 M reads/s. These encode the product of
# in-flight transaction capacity and round-trip latency.
RANDOM_READ_RATE_PER_S = 7.3e8
RANDOM_WRITE_RATE_PER_S = 4.5e8

# A partially covered cacheline write costs a read-modify-write style
# round trip; the per-partial-transaction time is calibrated from
# Figure 6(b): a 512-byte write misaligned by 16 bytes (3 full + 2
# partial lines) achieves 44% of the aligned bandwidth
# (3 * 1.88 ns + 2 * P = 512 B / 27.8 GiB/s  =>  P = 5.76 ns).
MISALIGNED_PARTIAL_WRITE_SECONDS = 5.76e-9


@dataclass(frozen=True)
class WireCost:
    """Physical cost of moving a block of payload across the link.

    Attributes:
        payload_bytes: useful bytes requested by the program.
        to_gpu_bytes: physical bytes flowing CPU -> GPU (read responses,
            write acknowledgements).
        to_cpu_bytes: physical bytes flowing GPU -> CPU (read requests,
            write packets).
        transactions: number of memory transactions issued.
    """

    payload_bytes: int
    to_gpu_bytes: int
    to_cpu_bytes: int
    transactions: int

    def repeated(self, total_bytes: int) -> "WireCost":
        """The cost of ``total_bytes`` moved in accesses like this one."""
        accesses = math.ceil(total_bytes / self.payload_bytes)
        return WireCost(
            payload_bytes=total_bytes,
            to_gpu_bytes=self.to_gpu_bytes * accesses,
            to_cpu_bytes=self.to_cpu_bytes * accesses,
            transactions=self.transactions * accesses,
        )


class InterconnectModel:
    """Bandwidth and packet-cost model of one CPU<->GPU interconnect."""

    def __init__(self, spec: InterconnectSpec) -> None:
        self.spec = spec

    # -- packet accounting -------------------------------------------------

    def wire_cost(self, access_bytes: int, op: Op, aligned: bool = True) -> WireCost:
        """Wire cost of one access of ``access_bytes`` issued by an SM.

        The access is split into packets of at most
        ``spec.sm_max_payload_bytes`` (128 B, one L1 cacheline). Read
        payloads below 32 bytes are padded; every read also sends a
        header-sized request packet in the opposite direction, which we
        charge to the same total. Sub-line writes carry the byte-enable
        extension. Misaligned accesses split at the boundary cachelines:
        writes gain an extra packet header and two byte-enable
        extensions, reads an extra padded response (the Fig. 18c
        overhead growth of the Linear partitioner).
        """
        if access_bytes <= 0:
            raise ConfigurationError(
                f"access size must be positive, got {access_bytes!r}"
            )
        spec = self.spec
        max_payload = spec.sm_max_payload_bytes
        full, rest = divmod(access_bytes, max_payload)
        payload_sizes = [max_payload] * full + ([rest] if rest else [])
        to_gpu = 0
        to_cpu = 0
        for payload in payload_sizes:
            if op is Op.READ:
                padded = max(payload, spec.min_read_payload_bytes)
                # header-only request packet out, response header + payload in
                to_cpu += spec.packet_header_bytes
                to_gpu += spec.packet_header_bytes + padded
            else:
                packet = spec.packet_header_bytes + payload
                if payload < spec.transaction_bytes:
                    packet += spec.write_byte_enable_bytes
                to_cpu += packet
                # header-only write acknowledgement
                to_gpu += spec.packet_header_bytes
        transactions = len(payload_sizes)
        if not aligned:
            transactions += 1
            if op is Op.READ:
                to_gpu += spec.packet_header_bytes + spec.min_read_payload_bytes
                to_cpu += spec.packet_header_bytes
            else:
                to_cpu += (
                    spec.packet_header_bytes + 2 * spec.write_byte_enable_bytes
                )
        return WireCost(
            payload_bytes=access_bytes,
            to_gpu_bytes=to_gpu,
            to_cpu_bytes=to_cpu,
            transactions=transactions,
        )

    # -- bandwidth ----------------------------------------------------------

    def effective_bandwidth(
        self,
        access_bytes: int,
        op: Op,
        pattern: AccessPattern = AccessPattern.RANDOM,
        aligned: bool = True,
        duplex: bool = False,
    ) -> float:
        """Achievable payload bandwidth in bytes/s for an access stream.

        Reproduces Figure 6: linear growth with granularity for random
        accesses, saturation at the 128-byte transaction size, and the
        alignment penalties of Figure 6(b).
        """
        if access_bytes <= 0:
            raise ConfigurationError(
                f"access size must be positive, got {access_bytes!r}"
            )
        spec = self.spec
        peak = spec.duplex_bytes_per_s if duplex else spec.effective_bytes_per_s

        if pattern is AccessPattern.SEQUENTIAL:
            # The coalescing unit merges adjacent accesses of any size into
            # full transactions; alignment is irrelevant for long streams.
            return peak

        txn = spec.transaction_bytes
        if access_bytes < txn:
            if op is Op.READ or aligned:
                rate = (
                    RANDOM_READ_RATE_PER_S
                    if op is Op.READ
                    else RANDOM_WRITE_RATE_PER_S
                )
                return min(peak, access_bytes * rate)
            # Misaligned sub-line writes are pure partial-line RMWs.
            return min(
                peak, access_bytes / MISALIGNED_PARTIAL_WRITE_SECONDS
            )

        if aligned:
            return peak
        # Misaligned accesses span one extra cacheline (Fig. 6(b)): reads
        # fetch lines+1 transactions; writes turn the two boundary lines
        # into partial (read-modify-write) transactions.
        lines = access_bytes // txn
        line_seconds = txn / peak
        if op is Op.READ:
            return peak * lines / (lines + 1)
        misaligned_seconds = (
            max(lines - 1, 0) * line_seconds
            + 2 * MISALIGNED_PARTIAL_WRITE_SECONDS
        )
        return access_bytes / misaligned_seconds
