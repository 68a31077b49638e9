"""Linear-time scatter kernels shared by the functional layer.

The functional layer's hot loops all order tuples by a *small dense
integer* selector — a radix window, a ``(group, bucket)`` slot, a
``(group, key)`` composite — for which a comparison sort is wasted
work: the paper itself materializes partitions with a histogram, an
exclusive prefix sum, and a stable scatter (section 4, Figure 20).
This package is that discipline on the CPU: counting orders, dense
offset tables for O(1) probes, and first-occurrence claims, each
byte-identical to the ``np.argsort(kind="stable")`` path it replaces
(pass ``reference=True`` or use :func:`force_reference` to cross-check).
"""

from repro.kernels.scatter import (
    COUNTING_DOMAIN_FACTOR,
    DENSE_FLOOR_ENTRIES,
    claim_first,
    counting_offsets_free,
    counting_order,
    counting_order_and_offsets,
    dense_table_fits,
    exclusive_scan,
    force_reference,
    reference_mode_active,
)

__all__ = [
    "COUNTING_DOMAIN_FACTOR",
    "DENSE_FLOOR_ENTRIES",
    "claim_first",
    "counting_offsets_free",
    "counting_order",
    "counting_order_and_offsets",
    "dense_table_fits",
    "exclusive_scan",
    "force_reference",
    "reference_mode_active",
]
