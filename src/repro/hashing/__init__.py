"""Hash functions and hash table schemes.

The paper configures a multiply-shift hash function for all joins
(section 6.1) and evaluates three hashing schemes: linear probing with a
50% load factor, bucket chaining with 2048 buckets, and perfect hashing
(an array join over the dense primary keys). Each scheme is implemented
functionally on numpy arrays and also exposes an access-cost profile
(accesses per build/probe tuple, table size, access granularity) that
the join cost models consume.
"""

from repro.hashing.batch import grouped_bucket_chaining_join
from repro.hashing.functions import (
    fibonacci_hash,
    hash_u64,
    multiply_shift,
    radix_window,
)
from repro.hashing.hash_table import HashScheme, HashTable, TableProfile
from repro.hashing.linear_probing import LinearProbingTable
from repro.hashing.bucket_chaining import BucketChainingTable
from repro.hashing.perfect import PerfectTable

__all__ = [
    "BucketChainingTable",
    "HashScheme",
    "HashTable",
    "LinearProbingTable",
    "PerfectTable",
    "TableProfile",
    "fibonacci_hash",
    "grouped_bucket_chaining_join",
    "hash_u64",
    "multiply_shift",
    "radix_window",
]
