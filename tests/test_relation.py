"""Unit tests for the columnar relation (repro.data.relation)."""

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.errors import ConfigurationError


def make(rows=10, payloads=1, nominal=None):
    keys = np.arange(1, rows + 1, dtype=np.int64)
    cols = {f"attr{i}": keys * (i + 2) for i in range(payloads)}
    return Relation(keys, cols, nominal_rows=nominal, name="t")


class TestConstruction:
    def test_basic(self):
        r = make(5)
        assert len(r) == 5
        assert r.payload_columns == 1

    def test_keys_coerced_to_int64(self):
        r = Relation(np.array([1, 2, 3], dtype=np.int32))
        assert r.keys.dtype == np.int64

    def test_payload_shape_checked(self):
        with pytest.raises(ConfigurationError):
            Relation(np.arange(3), {"bad": np.arange(4)})

    def test_keys_must_be_1d(self):
        with pytest.raises(ConfigurationError):
            Relation(np.zeros((2, 2)))

    def test_nominal_cannot_be_smaller(self):
        with pytest.raises(ConfigurationError):
            make(10, nominal=5)


class TestSizes:
    def test_tuple_bytes(self):
        assert make(payloads=0).tuple_bytes == 8
        assert make(payloads=1).tuple_bytes == 16  # paper default
        assert make(payloads=16).tuple_bytes == 136

    def test_nominal_bytes(self):
        r = make(10, nominal=1000)
        assert r.nominal_bytes == 1000 * 16
        assert r.materialized_bytes == 10 * 16

    def test_scale_divisor(self):
        assert make(10, nominal=1000).scale_divisor == pytest.approx(100.0)

    def test_scale_divisor_identity(self):
        assert make(10).scale_divisor == 1.0


class TestAccess:
    def test_column_names(self):
        assert make().column_names() == ["key", "attr0"]

    def test_key_column(self):
        r = make(3)
        assert list(r.column("key")) == [1, 2, 3]

    def test_payload_column(self):
        r = make(3)
        assert list(r.column("attr0")) == [2, 4, 6]

    def test_unknown_column(self):
        with pytest.raises(ConfigurationError):
            make().column("ghost")


class TestTake:
    def test_reorders_all_columns_together(self):
        r = make(5)
        taken = r.take(np.array([4, 0, 2]))
        assert list(taken.keys) == [5, 1, 3]
        assert list(taken.payloads["attr0"]) == [10, 2, 6]

    def test_nominal_scales_proportionally(self):
        r = make(10, nominal=1000)
        half = r.take(np.arange(5))
        assert half.nominal_rows == 500

    def test_with_nominal_rows(self):
        r = make(10).with_nominal_rows(500)
        assert r.nominal_rows == 500
        assert len(r) == 10

    def test_take_empty(self):
        taken = make(5).take(np.array([], dtype=np.int64))
        assert len(taken) == 0
