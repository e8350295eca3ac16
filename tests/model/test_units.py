"""Unit conversions: the Size/BW and CPU/speed terms of Sec. III-D."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model import units


class TestConversions:
    def test_gb_to_bytes_decimal_convention(self):
        assert units.gb_to_bytes(1.0) == 1_000_000_000

    def test_bytes_to_mb(self):
        assert units.bytes_to_mb(2_500_000) == pytest.approx(2.5)

    def test_j_to_kj(self):
        assert units.j_to_kj(3264.0) == pytest.approx(3.264)


class TestTransferTime:
    def test_basic_formula(self):
        # 100 MB over 100 Mbit/s = 800 Mbit / 100 Mbit/s = 8 s.
        assert units.transfer_time_s(100.0, 100.0) == pytest.approx(8.0)

    def test_zero_payload_is_free(self):
        assert units.transfer_time_s(0.0, 44.0) == 0.0

    def test_zero_payload_ignores_bad_bandwidth(self):
        assert units.transfer_time_s(0.0, 0.0) == 0.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            units.transfer_time_s(-1.0, 44.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            units.transfer_time_s(10.0, 0.0)

    @given(
        size=st.floats(0.001, 1e4),
        bw=st.floats(0.1, 1e4),
    )
    def test_time_positive_and_scales_inversely(self, size, bw):
        t = units.transfer_time_s(size, bw)
        assert t > 0
        assert units.transfer_time_s(size, 2 * bw) == pytest.approx(t / 2)


class TestProcessingTime:
    def test_paper_scale_example(self):
        # 4 410 000 MI at 36 000 MI/s ≈ 122.5 s (ha-train on medium).
        assert units.processing_time_s(4_410_000, 36_000) == pytest.approx(122.5)

    def test_zero_load_free(self):
        assert units.processing_time_s(0.0, 36_000) == 0.0

    def test_zero_speed_rejected(self):
        with pytest.raises(ValueError):
            units.processing_time_s(100.0, 0.0)

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            units.processing_time_s(-1.0, 100.0)


class TestValidators:
    def test_require_positive_accepts(self):
        assert units.require_positive(3.5, "x") == 3.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_require_positive_rejects(self, bad):
        with pytest.raises(ValueError):
            units.require_positive(bad, "x")

    def test_require_non_negative_accepts_zero(self):
        assert units.require_non_negative(0.0, "x") == 0.0

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_require_non_negative_rejects(self, bad):
        with pytest.raises(ValueError):
            units.require_non_negative(bad, "x")
