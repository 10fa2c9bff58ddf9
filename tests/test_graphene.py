"""Phase codebook tests."""

import math

import numpy as np
import pytest

from thzris.graphene import build_codebook


class TestBuildCodebook:
    def test_calibrated_codebook(self):
        cb = build_codebook(math.radians(306.82), 2, mean_amplitude=0.8)
        expect_deg = [0.0, 76.705, 153.41, 230.115]
        assert [math.degrees(p) for p in cb.phases_rad] == pytest.approx(expect_deg)
        assert cb.mean_amplitude == pytest.approx(0.8)

    def test_one_bit_full_circle(self):
        cb = build_codebook(2 * math.pi, 1)
        assert [math.degrees(p) for p in cb.phases_rad] == pytest.approx([0.0, 180.0])

    def test_zero_bits_rejected(self):
        with pytest.raises(ValueError):
            build_codebook(math.radians(306.82), 0)

    def test_phases_strictly_increasing_below_max(self):
        for bits in (1, 2, 3, 5):
            for max_deg in (60.0, 306.82, 360.0):
                cb = build_codebook(math.radians(max_deg), bits)
                phases = cb.phases_rad
                assert np.all(np.diff(phases) > 0)
                assert phases[-1] < math.radians(max_deg)
                assert phases[0] == 0.0

    def test_phases_bit_equal_to_scalar_formula(self):
        # the CSV goldens were recorded with phases k * max / 2^bits in Python floats
        for bits in range(1, 17):
            for max_deg in (1e-3, 30.0, 60.0, 100.0, 180.0, 270.0, 306.82, 360.0):
                max_rad = math.radians(max_deg)
                n = 2 ** bits
                got = build_codebook(max_rad, bits).phases_rad.tolist()
                assert got == [k * max_rad / n for k in range(n)]

    def test_mean_amplitude_band_enforced(self):
        with pytest.raises(ValueError, match="mean_amplitude"):
            build_codebook(math.radians(306.82), 1, mean_amplitude=0.25)
