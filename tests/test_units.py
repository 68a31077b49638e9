"""Unit tests for repro.units."""

import pytest

from repro import units


class TestByteUnits:
    def test_binary_units_scale_by_1024(self):
        assert units.MIB == 1024 * units.KIB
        assert units.GIB == 1024 * units.MIB
        assert units.TIB == 1024 * units.GIB

    def test_decimal_units_scale_by_1000(self):
        assert units.GB == 1000 * units.MB == 1_000_000 * units.KB

    def test_gib_round_trip(self):
        assert units.gib(2.5) == 2.5 * units.GIB

    def test_rates(self):
        assert units.gib_per_s(1) == units.GIB


class TestParseBytes:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1024", 1024),
            ("64B", 64),
            ("600K", 600 * units.KIB),
            ("1.5M", int(1.5 * units.MIB)),
            ("2MiB", 2 * units.MIB),
            ("1G", units.GIB),
            ("1gb", units.GIB),
            (" 2 T ", 2 * units.TIB),
        ],
    )
    def test_accepted_spellings(self, text, expected):
        assert units.parse_bytes(text) == expected

    @pytest.mark.parametrize("text", ["", "G", "1X", "-5M", "0"])
    def test_rejected_spellings(self, text):
        with pytest.raises(ValueError):
            units.parse_bytes(text)


class TestPowersOfTwo:

    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (2, 2), (3, 4), (1000, 1024), (1025, 2048)]
    )
    def test_next_power_of_two(self, n, expected):
        assert units.next_power_of_two(n) == expected

    def test_next_power_of_two_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            units.next_power_of_two(0)
