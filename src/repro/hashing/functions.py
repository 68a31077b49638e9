"""Vectorized hash functions.

The joins use the multiply-shift scheme of Dietzfelbinger et al., as in
the paper (section 6.1); the Fibonacci constant variant is the Bloom
filter's second hash. All functions
take int64 numpy arrays and return non-negative int64 hashes (or bucket
indices when ``bits`` is given).

Selectors are bit windows of one multiply-shift product. The radix
passes read low windows (:func:`radix_window`): pass 1 the lowest
``bits1`` bits, pass 2 the bits just above them. A lone
:class:`~repro.hashing.bucket_chaining.BucketChainingTable` buckets by
the top bits (:func:`bucket_of`). The grouped join kernel
(:mod:`repro.hashing.batch`) buckets each pass-1 partition by the pass-2
window instead. Multiply-shift's low ``n`` bits depend only on the
key's low ``n`` bits, as a bijection, so that window spreads a
partition's dense keys over distinct buckets. Which window picks the
bucket never changes a join's output, because equal keys agree on
every window.

Hot-path note: int64 and uint64 share an itemsize, so all conversions
here are zero-copy ``view``s rather than ``astype`` copies, and callers
that need several selectors from the same keys (a radix window per pass
plus a bucket index) should hash once with :func:`hash_u64` and slice
windows out of it with :func:`radix_window` / :func:`bucket_of`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

# A fixed odd 64-bit multiplier (random, chosen once) for multiply-shift.
MULTIPLY_SHIFT_A = np.uint64(0x9E2F_96BF_4DDC_B80D | 1)
# Knuth's golden-ratio constant for Fibonacci hashing.
FIBONACCI_A = np.uint64(0x9E37_79B9_7F4A_7C15)

_SIGN_CLEAR = np.uint64(0x7FFF_FFFF_FFFF_FFFF)


def _as_uint64(keys: np.ndarray) -> np.ndarray:
    keys = np.asarray(keys)
    if keys.dtype == np.uint64:
        return keys
    if keys.dtype != np.int64:
        keys = keys.astype(np.int64)
    return keys.view(np.uint64)


def _finish(hashed: np.ndarray, bits: int | None) -> np.ndarray:
    if bits is not None:
        if not 0 < bits <= 63:
            raise ConfigurationError(f"bits must be in [1, 63], got {bits}")
        # Shifting by >= 1 leaves the sign bit clear, so the int64 view
        # is already non-negative — no masking pass needed.
        return (hashed >> np.uint64(64 - bits)).view(np.int64)
    # Clear the sign bit so the int64 view is non-negative.
    return (hashed & _SIGN_CLEAR).view(np.int64)


def hash_u64(keys: np.ndarray) -> np.ndarray:
    """The raw 64-bit multiply-shift product as ``uint64``.

    The single hash every selector derives from: the low bits (below
    the sign bit) are the radix windows (:func:`radix_window`), which
    also give the grouped kernel its buckets, and the top ``bits`` are a
    standalone table's bucket index (:func:`bucket_of`). Hash once,
    slice many.
    """
    with np.errstate(over="ignore"):
        return _as_uint64(keys) * MULTIPLY_SHIFT_A


def bucket_of(hashed: np.ndarray, bits: int) -> np.ndarray:
    """Top-bits bucket index from a precomputed :func:`hash_u64` array.

    Identical to ``multiply_shift(keys, bits=bits)`` without re-hashing.
    :class:`~repro.hashing.bucket_chaining.BucketChainingTable` buckets
    by it; the grouped join kernel does only on its reference and
    fallback paths (see :mod:`repro.hashing.batch`).
    """
    return _finish(hashed, bits)


def radix_window(hashed: np.ndarray, bits: int, offset: int = 0) -> np.ndarray:
    """Radix selector window from a precomputed :func:`hash_u64` array.

    Identical to ``radix_bits_of(keys, bits, offset)`` without
    re-hashing. Windows live below the sign bit (``offset + bits <= 63``),
    so the raw and sign-cleared hashes agree on every window. Offset 0
    is pass 1's partition selector; offset ``bits1`` is pass 2's, and
    the grouped join kernel's bucket index.
    """
    if bits <= 0:
        raise ConfigurationError("bits must be positive")
    if offset < 0 or offset + bits > 63:
        raise ConfigurationError(
            f"radix window [{offset}, {offset + bits}) out of range"
        )
    mask = np.uint64((1 << bits) - 1)
    if offset == 0:
        # Pass 1 and the spill writer: one pass over the hashes.
        return (hashed & mask).view(np.int64)
    return ((hashed >> np.uint64(offset)) & mask).view(np.int64)


def multiply_shift(keys: np.ndarray, bits: int | None = None) -> np.ndarray:
    """Multiply-shift hashing: ``(a * k) >> (64 - bits)``.

    With ``bits`` set, returns the top ``bits`` bits, values in
    ``[0, 2**bits)``. Without ``bits``, returns full-width hashes.
    """
    return _finish(hash_u64(keys), bits)


def fibonacci_hash(keys: np.ndarray, bits: int | None = None) -> np.ndarray:
    """Fibonacci (golden ratio) multiplicative hashing."""
    with np.errstate(over="ignore"):
        hashed = _as_uint64(keys) * FIBONACCI_A
    return _finish(hashed, bits)


def radix_bits_of(keys: np.ndarray, bits: int, offset: int = 0) -> np.ndarray:
    """Radix partition selector over the *hashed* key.

    The radix join partitions by the lower ``bits`` of the hashed join
    key starting at bit ``offset`` (section 5.1: pass 1 uses the lowest
    B1 bits, pass 2 the next-higher B2 bits). Using hash bits rather than
    raw key bits keeps partitions balanced for arbitrary key
    distributions.
    """
    return radix_window(hash_u64(keys), bits, offset)
