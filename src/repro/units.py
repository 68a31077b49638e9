"""Byte, time, and cardinality units used throughout the library.

The paper mixes decimal (GB/s, electrical link rates) and binary (GiB,
memory capacities) units; we keep both spellings explicit to avoid the
ambiguity. Cardinalities follow the paper's "M tuples" = 1e6 tuples
convention.
"""

from __future__ import annotations

# --- binary byte units -------------------------------------------------

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

# --- decimal byte units (used for electrical link/memory rates) --------

KB = 1000
MB = 1000 * KB
GB = 1000 * MB

# --- time units (seconds) ----------------------------------------------

NS = 1e-9
US = 1e-6
MS = 1e-3

# --- cardinality units --------------------------------------------------

M_TUPLES = 1_000_000
G_TUPLES = 1_000_000_000


def gib(n: float) -> float:
    """Return ``n`` gibibytes expressed in bytes."""
    return n * GIB


def gib_per_s(rate: float) -> float:
    """Return a rate given in GiB/s expressed in bytes/s."""
    return rate * GIB


#: Suffix multipliers for :func:`parse_bytes`. Binary (``Ki``/``Mi``/…)
#: and bare single-letter (``K``/``M``/…) spellings are both powers of
#: two — CLI memory budgets follow memory-capacity convention, not link
#: rates.
_BYTE_SUFFIXES = {
    "": 1,
    "B": 1,
    "K": KIB,
    "KB": KIB,
    "KIB": KIB,
    "M": MIB,
    "MB": MIB,
    "MIB": MIB,
    "G": GIB,
    "GB": GIB,
    "GIB": GIB,
    "T": TIB,
    "TB": TIB,
    "TIB": TIB,
}


def parse_bytes(text: str) -> int:
    """Parse a human byte size like ``"512M"``, ``"1.5GiB"``, ``"4096"``.

    All suffixes are binary multiples (``M`` == ``MiB`` == 2**20); the
    returned value is an ``int`` byte count. Raises :class:`ValueError`
    on unknown suffixes or non-positive sizes.
    """
    stripped = text.strip()
    index = len(stripped)
    while index > 0 and not (stripped[index - 1].isdigit() or stripped[index - 1] == "."):
        index -= 1
    number, suffix = stripped[:index], stripped[index:].strip().upper()
    if not number:
        raise ValueError(f"no numeric part in byte size {text!r}")
    if suffix not in _BYTE_SUFFIXES:
        raise ValueError(f"unknown byte-size suffix {suffix!r} in {text!r}")
    value = float(number) * _BYTE_SUFFIXES[suffix]
    if value <= 0:
        raise ValueError(f"byte size must be positive, got {text!r}")
    return int(value)


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= ``n`` (n must be positive)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n!r}")
    return 1 << (n - 1).bit_length()
