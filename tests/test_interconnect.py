"""Unit tests for the NVLink 2.0 packet model (repro.hw.interconnect)."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.interconnect import AccessPattern, InterconnectModel, Op
from repro.hw.specs import nvlink2
from repro.units import GIB


@pytest.fixture(scope="module")
def model():
    return InterconnectModel(nvlink2())


class TestWireCost:
    def test_full_line_read(self, model):
        cost = model.wire_cost(128, Op.READ)
        # request header out + response header + payload in
        assert cost.to_cpu_bytes == 16
        assert cost.to_gpu_bytes == 16 + 128
        assert cost.transactions == 1

    def test_small_read_padded_to_32(self, model):
        cost = model.wire_cost(4, Op.READ)
        assert cost.to_gpu_bytes == 16 + 32

    def test_full_line_write(self, model):
        cost = model.wire_cost(128, Op.WRITE)
        assert cost.to_cpu_bytes == 16 + 128
        assert cost.to_gpu_bytes == 16  # ack

    def test_small_write_has_byte_enable(self, model):
        cost = model.wire_cost(16, Op.WRITE)
        assert cost.to_cpu_bytes == 16 + 16 + 16

    def test_multi_packet_access(self, model):
        cost = model.wire_cost(512, Op.WRITE)
        assert cost.transactions == 4
        assert cost.to_cpu_bytes == 4 * (16 + 128)

    def test_misaligned_write_extra_overhead(self, model):
        aligned = model.wire_cost(512, Op.WRITE, aligned=True)
        misaligned = model.wire_cost(512, Op.WRITE, aligned=False)
        assert misaligned.to_cpu_bytes > aligned.to_cpu_bytes
        assert misaligned.transactions == aligned.transactions + 1

    def test_rejects_nonpositive_access(self, model):
        with pytest.raises(ConfigurationError):
            model.wire_cost(0, Op.READ)


class TestBandwidthCurve:
    """The Fig. 6(a) calibration targets, within 10%."""

    PAPER = {
        (4, Op.READ): 2.6, (4, Op.WRITE): 1.8,
        (16, Op.READ): 10.4, (16, Op.WRITE): 5.9,
        (64, Op.READ): 44.1, (64, Op.WRITE): 25.3,
        (128, Op.READ): 63.8, (128, Op.WRITE): 63.6,
        (512, Op.READ): 63.8, (512, Op.WRITE): 63.6,
    }

    @pytest.mark.parametrize("granularity,op", list(PAPER))
    def test_matches_paper_within_15_percent(self, model, granularity, op):
        measured = model.effective_bandwidth(granularity, op) / GIB
        paper = self.PAPER[(granularity, op)]
        assert measured == pytest.approx(paper, rel=0.15)

    def test_linear_growth_below_transaction_size(self, model):
        bw_16 = model.effective_bandwidth(16, Op.READ)
        bw_32 = model.effective_bandwidth(32, Op.READ)
        assert bw_32 == pytest.approx(2 * bw_16)

    def test_saturation_at_128_bytes(self, model):
        bw_128 = model.effective_bandwidth(128, Op.READ)
        bw_512 = model.effective_bandwidth(512, Op.READ)
        assert bw_512 == pytest.approx(bw_128)

    def test_reads_beat_writes_sub_line(self, model):
        # Paper: small reads are 44-74% faster than small writes.
        for g in (4, 8, 16, 32, 64):
            ratio = model.effective_bandwidth(g, Op.READ) / \
                model.effective_bandwidth(g, Op.WRITE)
            assert 1.3 < ratio < 1.9

    def test_sequential_ignores_granularity(self, model):
        for g in (4, 64, 512):
            bw = model.effective_bandwidth(g, Op.READ, AccessPattern.SEQUENTIAL)
            assert bw == model.spec.effective_bytes_per_s

    def test_duplex_cap(self, model):
        duplex = model.effective_bandwidth(128, Op.WRITE, duplex=True)
        assert duplex == pytest.approx(model.spec.duplex_bytes_per_s)
        assert duplex < model.effective_bandwidth(128, Op.WRITE)


class TestAlignmentPenalties:
    """The Fig. 6(b) calibration targets."""

    def test_misaligned_read_loses_about_20_percent(self, model):
        aligned = model.effective_bandwidth(512, Op.READ)
        misaligned = model.effective_bandwidth(512, Op.READ, aligned=False)
        assert misaligned / aligned == pytest.approx(0.8, abs=0.03)

    def test_misaligned_write_loses_about_56_percent(self, model):
        aligned = model.effective_bandwidth(512, Op.WRITE)
        misaligned = model.effective_bandwidth(512, Op.WRITE, aligned=False)
        assert misaligned / aligned == pytest.approx(0.44, abs=0.05)

    def test_misalignment_penalty_shrinks_with_size(self, model):
        # Boundary effects amortize over large accesses.
        small = model.effective_bandwidth(256, Op.WRITE, aligned=False)
        large = model.effective_bandwidth(16384, Op.WRITE, aligned=False)
        peak = model.effective_bandwidth(16384, Op.WRITE, aligned=True)
        assert large > small
        assert large / peak > 0.9
