"""Cascaded channel, SVD transceivers, rate expressions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzris.beamforming import (BeamformerPair, achievable_rate,
                                cascaded_channel, svd_beamformers)


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def jensen_upper_bound(he: np.ndarray, snr_linear: float, n_streams: int) -> float:
    """Concavity upper bound N_s log2(1 + snr/N_s tr(H_e H_e^H)) of the rate.

    Tight exactly when the effective channel is rank one and carries a single
    stream.
    """
    total_power = float(np.sum(np.abs(np.asarray(he)) ** 2))
    return n_streams * math.log2(1.0 + snr_linear / n_streams * total_power)


def closed_form_rate(he, snr, ns):
    s = np.linalg.svd(he, compute_uv=False)
    return float(np.sum(np.log2(1.0 + snr / ns * s[:ns] ** 2)))


class TestCascadedChannel:
    def test_zero_phases_scale_product(self):
        rng = np.random.default_rng(1)
        h1, h2 = crandn(rng, 6, 4), crandn(rng, 3, 6)
        theta = np.full(6, 0.8 + 0j)
        np.testing.assert_allclose(cascaded_channel(h1, h2, theta),
                                   0.8 * h2 @ h1, rtol=1e-12)

    def test_single_element_outer_product(self):
        rng = np.random.default_rng(2)
        h1, h2 = crandn(rng, 1, 4), crandn(rng, 3, 1)
        theta = 0.8 * np.exp(1j * np.array([1.3]))
        expect = theta[0] * np.outer(h2[:, 0], h1[0, :])
        np.testing.assert_allclose(cascaded_channel(h1, h2, theta), expect, rtol=1e-12)

    def test_matches_rank_one_accumulation(self):
        rng = np.random.default_rng(3)
        h1, h2 = crandn(rng, 5, 4), crandn(rng, 3, 5)
        theta = 0.8 * np.exp(1j * rng.uniform(0, 2 * math.pi, 5))
        oracle = np.zeros((3, 4), dtype=complex)
        for n in range(5):
            oracle += theta[n] * np.outer(h2[:, n], h1[n, :])
        np.testing.assert_allclose(cascaded_channel(h1, h2, theta), oracle, rtol=1e-10)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="mismatch"):
            cascaded_channel(crandn(rng, 6, 4), crandn(rng, 3, 5), np.full(5, 0.8 + 0j))


class TestSvdBeamformers:
    def test_diagonal_channel(self):
        he = np.zeros((3, 4), dtype=complex)
        he[0, 0], he[1, 1], he[2, 2] = 3.0, 2.0, 1.0
        pair = svd_beamformers(he, 2)
        lam = pair.combiner.conj().T @ he @ pair.precoder
        np.testing.assert_allclose(np.abs(lam), np.diag([3.0, 2.0]), atol=1e-10)

    def test_diagonalization_and_ordering(self):
        rng = np.random.default_rng(5)
        he = crandn(rng, 8, 6)
        pair = svd_beamformers(he, 4)
        lam = pair.combiner.conj().T @ he @ pair.precoder
        off = lam - np.diag(np.diag(lam))
        assert np.linalg.norm(off) <= 1e-10 * np.linalg.norm(he)
        diag = np.abs(np.diag(lam))
        assert np.all(np.diff(diag) <= 1e-12)

    def test_power_constraint_and_orthonormality(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            he = crandn(rng, 6, 9)
            pair = svd_beamformers(he, 3)
            assert np.linalg.norm(pair.precoder) ** 2 == pytest.approx(3.0, abs=1e-10)
            np.testing.assert_allclose(pair.precoder.conj().T @ pair.precoder,
                                       np.eye(3), atol=1e-10)
            np.testing.assert_allclose(pair.combiner.conj().T @ pair.combiner,
                                       np.eye(3), atol=1e-10)

    def test_full_reconstruction(self):
        rng = np.random.default_rng(7)
        he = crandn(rng, 6, 9)
        u, s, vh = np.linalg.svd(he, full_matrices=False)
        assert (np.linalg.norm(he - u @ np.diag(s) @ vh)
                <= 1e-10 * np.linalg.norm(he))

    def test_too_many_streams_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="n_streams"):
            svd_beamformers(crandn(rng, 3, 4), 4)


class TestAchievableRate:
    def test_zero_snr_zero_rate(self):
        rng = np.random.default_rng(9)
        he = crandn(rng, 4, 5)
        pair = svd_beamformers(he, 2)
        assert achievable_rate(he, pair, 0.0) == 0.0

    def test_diagonal_closed_form(self):
        he = np.diag([3.0, 2.0]).astype(complex)
        pair = svd_beamformers(he, 2)
        expect = math.log2(1 + 9 / 2) + math.log2(1 + 4 / 2)
        assert achievable_rate(he, pair, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_general_form_equals_singular_value_form(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            he = crandn(rng, 6, 8)
            ns = int(rng.integers(1, 5))
            snr = float(rng.uniform(0.01, 100.0))
            pair = svd_beamformers(he, ns)
            general = achievable_rate(he, pair, snr)
            assert general == pytest.approx(closed_form_rate(he, snr, ns), rel=1e-8)

    def test_rate_invariant_under_global_phase(self):
        rng = np.random.default_rng(11)
        he = crandn(rng, 4, 6)
        pair = svd_beamformers(he, 2)
        base = achievable_rate(he, pair, 5.0)
        for c in (0.4, 1.9, math.pi):
            rotated = np.exp(1j * c) * he
            pair_c = svd_beamformers(rotated, 2)
            assert achievable_rate(rotated, pair_c, 5.0) == pytest.approx(base, rel=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_ris=st.integers(1, 12),
           n_ms=st.integers(1, 6), n_bs=st.integers(1, 6), n_streams=st.integers(1, 6),
           shift=st.floats(-20.0, 20.0), snr=st.floats(1e-3, 1e3))
    def test_ris_global_phase_shift_keeps_rates(self, seed, n_ris, n_ms, n_bs, n_streams,
                                                shift, snr):
        """Shifting every RIS phase by c multiplies H_e by e^{jc}: rates stay."""
        rng = np.random.default_rng(seed)
        h1, h2 = crandn(rng, n_ris, n_bs), crandn(rng, n_ms, n_ris)
        phases = rng.uniform(0, 2 * math.pi, n_ris)
        ns = min(n_streams, n_ms, n_bs)
        rates = []
        for phi in (phases, phases + shift):
            he = cascaded_channel(h1, h2, 0.8 * np.exp(1j * phi))
            rates.append(achievable_rate(he, svd_beamformers(he, ns), snr))
        assert rates[1] == pytest.approx(rates[0], rel=1e-9, abs=1e-12)

    def test_singular_combiner_gram_raises(self):
        rng = np.random.default_rng(12)
        he = crandn(rng, 4, 4)
        col = crandn(rng, 4, 1)
        degenerate = BeamformerPair(precoder=np.hstack([col, col]) / math.sqrt(2),
                                    combiner=np.hstack([col, col]),
                                    n_streams=2)
        with pytest.raises(np.linalg.LinAlgError):
            achievable_rate(he, degenerate, 1.0)

    def test_negative_snr_rejected(self):
        rng = np.random.default_rng(13)
        he = crandn(rng, 3, 3)
        with pytest.raises(ValueError):
            achievable_rate(he, svd_beamformers(he, 1), -1.0)


class TestJensenUpperBound:
    def test_rank_one_single_stream_equality(self):
        rng = np.random.default_rng(14)
        he = np.outer(crandn(rng, 4), crandn(rng, 5))
        pair = svd_beamformers(he, 1)
        snr = 3.7
        assert jensen_upper_bound(he, snr, 1) == pytest.approx(
            achievable_rate(he, pair, snr), rel=1e-10)

    def test_bound_dominates_rate(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            he = crandn(rng, 5, 7)
            ns = int(rng.integers(1, 5))
            snr = float(rng.uniform(0.0, 50.0))
            pair = svd_beamformers(he, ns)
            assert jensen_upper_bound(he, snr, ns) >= achievable_rate(he, pair, snr) - 1e-12

    def test_diagonal_closed_form(self):
        he = np.diag([3.0, 2.0]).astype(complex)
        assert jensen_upper_bound(he, 1.0, 2) == pytest.approx(
            2 * math.log2(1 + 13 / 2), rel=1e-12)
