"""ChunkedRelation: disk-shard round-trips and partition-range reads."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.chunked import MIN_SHARD_ROWS, ChunkedRelation
from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.hashing.functions import hash_u64, radix_window


def make_relation(rows, seed=0, payload_columns=1, name="R"):
    rng = np.random.default_rng(seed)
    keys = rng.permutation(rows).astype(np.int64) + 1
    payloads = {
        f"attr{i}": rng.integers(0, 2**40, rows).astype(np.int64)
        for i in range(payload_columns)
    }
    return Relation(keys, payloads, name=name)


def row_order(relation):
    """A permutation sorting the relation's rows lexicographically."""
    columns = [relation.column(c) for c in relation.column_names()]
    return np.lexsort(tuple(reversed(columns)))


def assert_same_rows(a: Relation, b: Relation):
    """The two relations hold the same multiset of rows (any order)."""
    assert a.column_names() == b.column_names()
    assert len(a) == len(b)
    oa, ob = row_order(a), row_order(b)
    for column in a.column_names():
        np.testing.assert_array_equal(
            a.column(column)[oa], b.column(column)[ob]
        )


class TestRoundTrip:
    def test_bits0_is_byte_identical_row_for_row(self, tmp_path):
        relation = make_relation(3000, seed=1, payload_columns=2)
        chunked = ChunkedRelation.from_relation(
            relation, tmp_path / "r", shard_rows=700, bits=0
        )
        back = chunked.to_relation()
        for column in relation.column_names():
            np.testing.assert_array_equal(
                back.column(column), relation.column(column)
            )
        assert back.nominal_rows == relation.nominal_rows
        assert back.name == relation.name

    def test_partitioned_round_trip_preserves_rows(self, tmp_path):
        relation = make_relation(2500, seed=2, payload_columns=2)
        chunked = ChunkedRelation.from_relation(
            relation, tmp_path / "r", shard_rows=600, bits=3
        )
        assert_same_rows(chunked.to_relation(), relation)

    def test_reopen_from_meta_sees_the_same_relation(self, tmp_path):
        relation = make_relation(1500, seed=3)
        written = ChunkedRelation.from_relation(
            relation, tmp_path / "r", shard_rows=512, bits=2
        )
        reopened = ChunkedRelation(tmp_path / "r")
        assert reopened.columns == written.columns
        assert reopened.shards == written.shards
        assert reopened.shard_rows == written.shard_rows
        assert reopened.bits == written.bits
        assert len(reopened) == len(relation)
        assert_same_rows(reopened.to_relation(), relation)

    def test_empty_relation(self, tmp_path):
        relation = make_relation(0)
        chunked = ChunkedRelation.from_relation(
            relation, tmp_path / "r", shard_rows=512, bits=2
        )
        assert chunked.shards == 0
        assert len(chunked) == 0
        assert len(chunked.to_relation()) == 0
        np.testing.assert_array_equal(
            chunked.partition_sizes(), np.zeros(4, dtype=np.int64)
        )


class TestPartitionReads:
    def test_partition_ranges_cover_exactly_the_radix_partitions(
        self, tmp_path
    ):
        bits = 3
        relation = make_relation(2200, seed=4)
        chunked = ChunkedRelation.from_relation(
            relation, tmp_path / "r", shard_rows=512, bits=bits
        )
        sizes = chunked.partition_sizes()
        assert sizes.sum() == len(relation)
        seen = 0
        for p in range(chunked.fanout):
            keys = chunked.partition_range_column("key", p, p + 1)
            assert len(keys) == sizes[p]
            if len(keys):
                selector = radix_window(hash_u64(keys), bits, 0)
                assert (selector == p).all()
            groups = chunked.partition_range_groups(p, p + 1)
            np.testing.assert_array_equal(
                groups, np.full(len(keys), p, dtype=np.int64)
            )
            seen += len(keys)
        assert seen == len(relation)

    def test_multi_partition_range_matches_per_partition_reads(
        self, tmp_path
    ):
        relation = make_relation(1800, seed=5)
        chunked = ChunkedRelation.from_relation(
            relation, tmp_path / "r", shard_rows=512, bits=2
        )
        combined = chunked.partition_range_column("key", 1, 3)
        groups = chunked.partition_range_groups(1, 3)
        assert len(combined) == len(groups)
        assert set(np.unique(groups)) <= {1, 2}
        sizes = chunked.partition_sizes()
        assert len(combined) == sizes[1] + sizes[2]
        # The same rows, partition by partition.
        per_partition = np.concatenate(
            [np.sort(chunked.partition_range_column("key", p, p + 1))
             for p in (1, 2)]
        )
        np.testing.assert_array_equal(
            np.sort(combined), np.sort(per_partition)
        )


class TestLifecycleAndErrors:
    def test_close_releases_files_and_reads_reopen(self, tmp_path):
        relation = make_relation(2000, seed=8, payload_columns=2)
        chunked = ChunkedRelation.from_relation(
            relation, tmp_path / "r", shard_rows=512, bits=2
        )
        first = [
            chunked.partition_range_column(c, 1, 3) for c in chunked.columns
        ]
        files = list(chunked._files.values())
        assert len(files) == len(chunked.columns)
        chunked.close()
        assert all(file.closed for file, _offset, _dtype in files)
        for column, before in zip(chunked.columns, first):
            np.testing.assert_array_equal(
                chunked.partition_range_column(column, 1, 3), before
            )
        chunked.delete()
        assert chunked._files == {}

    def test_delete_removes_the_directory(self, tmp_path):
        relation = make_relation(600, seed=7)
        chunked = ChunkedRelation.from_relation(
            relation, tmp_path / "r", shard_rows=512
        )
        assert chunked.bytes_on_disk() > 0
        chunked.delete()
        assert not (tmp_path / "r").exists()

    def test_tiny_shard_rows_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ChunkedRelation.from_relation(
                make_relation(600), tmp_path / "r",
                shard_rows=MIN_SHARD_ROWS - 1,
            )

    def test_negative_bits_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ChunkedRelation.from_relation(
                make_relation(600), tmp_path / "r", shard_rows=512, bits=-1
            )

    def test_unknown_column_rejected(self, tmp_path):
        chunked = ChunkedRelation.from_relation(
            make_relation(600), tmp_path / "r", shard_rows=512
        )
        with pytest.raises(ConfigurationError):
            chunked.partition_range_column("nope", 0, 1)

    def test_format_1_directory_rejected(self, tmp_path):
        """The one-file-per-shard layout is not read back as format 2."""
        chunked = ChunkedRelation.from_relation(
            make_relation(600), tmp_path / "r", shard_rows=512
        )
        meta_path = tmp_path / "r" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format"] = 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError, match="format: 1"):
            ChunkedRelation(chunked.directory)

    def test_missing_or_foreign_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ChunkedRelation(tmp_path / "missing")
        (tmp_path / "bad").mkdir()
        (tmp_path / "bad" / "meta.json").write_text(
            json.dumps({"format": 999})
        )
        with pytest.raises(ConfigurationError):
            ChunkedRelation(tmp_path / "bad")


@st.composite
def relations(draw):
    rows = draw(st.integers(min_value=0, max_value=2000))
    payload_columns = draw(st.integers(min_value=0, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return make_relation(rows, seed=seed, payload_columns=payload_columns)


@given(
    relations(),
    st.integers(min_value=MIN_SHARD_ROWS, max_value=1500),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_property_round_trip(tmp_path_factory, relation, shard_rows, bits):
    """Any relation survives sharding at any (shard_rows, bits).

    ``bits=0`` must be byte-identical row for row; partitioned layouts
    must preserve the multiset of whole rows (keys stay glued to their
    payloads through the permutation).
    """
    directory = tmp_path_factory.mktemp("chunk")
    chunked = ChunkedRelation.from_relation(
        relation, directory / "r", shard_rows=shard_rows, bits=bits
    )
    back = chunked.to_relation()
    if bits == 0:
        for column in relation.column_names():
            np.testing.assert_array_equal(
                back.column(column), relation.column(column)
            )
    else:
        assert_same_rows(back, relation)
    assert chunked.partition_sizes().sum() == len(relation)
    chunked.delete()
