"""Geometric THz channel model tests.

The steering-vector and reconstruction oracles below re-evaluate the model
sums with explicit python loops, independent of the vectorized implementation.
Frozen gain values come from a standalone 50-digit evaluation.
"""

import cmath
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from thzris import channel
from thzris.channel import (SPEED_OF_LIGHT, ArrayGeometry, Hop, PathKind, hop_arrays,
                            hop_factors, hop_matrix, hop_reference, los_gain,
                            nlos_gain, referenced_hop, ris_root, sample_channel, sample_paths,
                            upa_dims, upa_response)
from thzris.harness import ExperimentConfig, _ris_paths, preset, stream_rng
from thzris.optimizer import build_quadratic_form

WAVELENGTH = SPEED_OF_LIGHT / 1.6e12


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(n_bs=16, n_ris=16, n_ms=4, m_bs=4, m_ms=4, n_streams=2,
                n_realizations=1)
    base.update(overrides)
    return ExperimentConfig(**base)


def loop_upa(geom, az, el, lam):
    """Independent element-by-element evaluation of the steering vector."""
    out = np.zeros(geom.n_x * geom.n_y, dtype=complex)
    for p in range(geom.n_x):
        for q in range(geom.n_y):
            phase = (2 * math.pi * geom.element_spacing_m / lam
                     * (p * math.sin(el) * math.cos(az) + q * math.cos(el)))
            out[p * geom.n_y + q] = cmath.exp(1j * phase)
    return out / math.sqrt(geom.n_x * geom.n_y)


class TestUpaResponse:
    def test_broadside_all_equal(self):
        geom = ArrayGeometry(4, 4, WAVELENGTH / 2)
        a = upa_response(geom, math.pi / 2, math.pi / 2, WAVELENGTH)
        np.testing.assert_allclose(a, np.full(16, 0.25 + 0j), atol=1e-12)

    def test_zero_elevation_depends_only_on_q(self):
        geom = ArrayGeometry(3, 4, WAVELENGTH / 2)
        a = upa_response(geom, 0.3, 0.0, WAVELENGTH).reshape(3, 4)
        expect_row = np.exp(1j * math.pi * np.arange(4)) / math.sqrt(12)
        for p in range(3):
            np.testing.assert_allclose(a[p], expect_row, atol=1e-12)

    def test_matches_loop_oracle(self):
        geom = ArrayGeometry(4, 4, WAVELENGTH / 2)
        got = upa_response(geom, 0.7, 1.1, WAVELENGTH)
        np.testing.assert_allclose(got, loop_upa(geom, 0.7, 1.1, WAVELENGTH),
                                   rtol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            nx, ny = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            geom = ArrayGeometry(nx, ny, 70e-6)
            a = upa_response(geom, rng.uniform(0, 2 * math.pi),
                             rng.uniform(0, math.pi), WAVELENGTH)
            assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_upa_dims_near_square(self):
        assert upa_dims(16) == (4, 4)
        assert upa_dims(512) == (32, 16)
        assert upa_dims(32) == (8, 4)
        assert upa_dims(7) == (7, 1)


class TestPathGains:
    def test_speed_of_light_is_exact_si(self):
        assert SPEED_OF_LIGHT == 299792458.0

    def test_absorption_off_is_free_space(self):
        config = ExperimentConfig(bs_ms_m=25.0, kappa_per_m=0.0)
        expect = SPEED_OF_LIGHT / (4 * math.pi * 1.6e12 * 25.0)
        assert abs(los_gain(config, Hop.BS_MS_DIRECT)) == pytest.approx(expect, rel=1e-12)

    def test_doubling_distance_halves_magnitude(self):
        config = ExperimentConfig(bs_ris_m=10.0, ris_ms_m=20.0, kappa_per_m=0.0)
        near, far = los_gain(config, Hop.BS_RIS), los_gain(config, Hop.RIS_MS)
        assert abs(near) == pytest.approx(2 * abs(far), rel=1e-12)

    def test_frozen_los_gain(self):
        config = ExperimentConfig(bs_ms_m=25.0, kappa_per_m=0.2)
        gain = los_gain(config, Hop.BS_MS_DIRECT)
        assert abs(gain) == pytest.approx(4.8956982603763823e-08, rel=1e-12)
        # delay phase is ~8.4e5 rad before reduction; double-precision argument
        # rounding leaves ~1e-10 relative slack on the complex value
        assert gain.real == pytest.approx(-3.1659314349199118e-08, rel=1e-9)
        assert gain.imag == pytest.approx(3.7342656046454816e-08, rel=1e-9)

    def test_perfect_absorber_kills_reflection(self):
        config = ExperimentConfig(bs_ris_m=10.0, xi=0.0)
        assert nlos_gain(config, Hop.BS_RIS, 6.0, 7.0) == 0.0

    def test_degenerate_detour_matches_los_form(self):
        config = ExperimentConfig(bs_ris_m=10.0, kappa_per_m=0.2, xi=1e-6)
        got = nlos_gain(config, Hop.BS_RIS, 4.0, 6.0)  # r1 + r2 == r
        expect_mag = (SPEED_OF_LIGHT * 1e-6 / (4 * math.pi * 1.6e12 * 10.0)
                      * math.exp(-0.5 * 0.2 * 10.0))
        assert abs(got) == pytest.approx(expect_mag, rel=1e-12)
        assert cmath.phase(got) == pytest.approx(cmath.phase(los_gain(config, Hop.BS_RIS)),
                                                 abs=1e-6)

    def test_frozen_nlos_gain(self):
        config = ExperimentConfig(bs_ris_m=10.0, kappa_per_m=0.2, xi=1e-6)
        gain = nlos_gain(config, Hop.BS_RIS, 6.0, 7.0)
        assert abs(gain) == pytest.approx(3.1258251236322122e-13, rel=1e-12)
        assert gain.real == pytest.approx(-1.5367809726633133e-13, rel=1e-9)
        assert gain.imag == pytest.approx(-2.7219638031374214e-13, rel=1e-9)

    def test_short_detour_rejected(self):
        config = ExperimentConfig(bs_ris_m=10.0)
        with pytest.raises(ValueError):
            nlos_gain(config, Hop.BS_RIS, 4.0, 5.0)


class TestSampleChannel:
    def test_los_only_rank_one(self):
        config = tiny_config(n_nlos=0)
        h, paths = sample_channel(config, Hop.BS_RIS, stream_rng(1, 0, "h1"))
        assert len(paths) == 1 and paths[0].kind is PathKind.LOS
        assert np.linalg.matrix_rank(h) == 1

    def test_los_only_frobenius_norm(self):
        config = tiny_config(n_nlos=0)
        h, paths = sample_channel(config, Hop.BS_RIS, stream_rng(1, 0, "h1"))
        expect = config.n_bs * config.n_ris * abs(paths[0].complex_gain) ** 2
        assert np.linalg.norm(h) ** 2 == pytest.approx(expect, rel=1e-12)

    def test_rank_bounded_by_path_count(self):
        config = tiny_config(n_nlos=2)
        for r in range(5):
            h, paths = sample_channel(config, Hop.RIS_MS, stream_rng(9, r, "h2"))
            assert len(paths) == 3
            assert np.linalg.matrix_rank(h) <= 3

    def test_reconstruction_from_paths(self):
        """Sampled matrix equals the model sum over its own emitted paths."""
        config = tiny_config(n_nlos=2)
        for hop in (Hop.BS_RIS, Hop.RIS_MS, Hop.BS_MS_DIRECT):
            h, paths = sample_channel(config, hop, stream_rng(5, 3, hop.value))
            rx, tx = hop_arrays(config, hop)
            n_nlos = sum(1 for p in paths if p.kind is PathKind.NLOS)
            oracle = np.zeros((rx.size, tx.size), dtype=complex)
            for p in paths:
                w = (math.sqrt(tx.size * rx.size) if p.kind is PathKind.LOS
                     else math.sqrt(tx.size * rx.size / n_nlos))
                arx = loop_upa(rx, p.aoa_azimuth_rad, p.aoa_elevation_rad, WAVELENGTH)
                atx = loop_upa(tx, p.aod_azimuth_rad, p.aod_elevation_rad, WAVELENGTH)
                oracle += w * p.complex_gain * np.outer(arx, atx.conj())
            assert (np.linalg.norm(h - oracle) / np.linalg.norm(oracle)) <= 1e-12

    @pytest.mark.parametrize("n_nlos", [0, 2, 4])
    def test_sample_paths_draws_as_sample_channel(self, n_nlos):
        """sample_paths returns sample_channel's paths and leaves the stream where
        sample_channel leaves it."""
        config = tiny_config(n_nlos=n_nlos)
        for hop in Hop:
            rng_a, rng_b = stream_rng(3, 1, hop.value), stream_rng(3, 1, hop.value)
            assert sample_paths(config, hop, rng_a) == sample_channel(config, hop, rng_b)[1]
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_hop_factors_rebuild_the_matrix(self):
        """R diag(w) T^H of a path list's factors is its hop matrix."""
        config = tiny_config(n_nlos=3)
        for hop in Hop:
            h, paths = sample_channel(config, hop, stream_rng(5, 2, hop.value))
            rx, w, tx = hop_factors(config, hop, paths)
            assert rx.shape == (h.shape[0], len(paths)) and tx.shape == (h.shape[1], len(paths))
            assert np.linalg.norm(rx @ np.diag(w) @ tx.conj().T - h) <= 1e-12 * np.linalg.norm(h)

    def test_zero_excess_detours_never_fall_short(self):
        """Without a detour excess, r0 u + r0 (1 - u) can round below r0 and
        make nlos_gain raise; the sampler moves r2 up until it does not."""
        config = tiny_config(n_nlos=3, nlos_excess_min_m=0.0, nlos_excess_max_m=0.0)
        for hop in Hop:
            for r in range(200):
                sample_channel(config, hop, stream_rng(1, r, hop.value))

    def test_direct_hop_has_no_los(self):
        config = tiny_config()
        _, paths = sample_channel(config, Hop.BS_MS_DIRECT, stream_rng(2, 0, "d"))
        assert len(paths) == config.n_nlos_direct
        assert all(p.kind is PathKind.NLOS for p in paths)

    def test_deterministic_given_stream(self):
        config = tiny_config()
        h_a, paths_a = sample_channel(config, Hop.BS_RIS, stream_rng(42, 7, "h1"))
        h_b, paths_b = sample_channel(config, Hop.BS_RIS, stream_rng(42, 7, "h1"))
        np.testing.assert_array_equal(h_a, h_b)
        assert paths_a == paths_b

    def test_distinct_streams_differ(self):
        config = tiny_config()
        h_a, _ = sample_channel(config, Hop.BS_RIS, stream_rng(42, 0, "h1"))
        h_b, _ = sample_channel(config, Hop.BS_RIS, stream_rng(42, 1, "h1"))
        assert np.linalg.norm(h_a - h_b) > 0

    def test_angles_within_ranges(self):
        config = tiny_config(n_nlos=4)
        _, paths = sample_channel(config, Hop.BS_RIS, stream_rng(11, 0, "h1"))
        for p in paths:
            assert 0 <= p.aoa_azimuth_rad < 2 * math.pi
            assert 0 <= p.aoa_elevation_rad < math.pi
            assert 0 <= p.aod_azimuth_rad < 2 * math.pi
            assert 0 <= p.aod_elevation_rad < math.pi

    def test_ris_spacing_is_element_period(self):
        config = tiny_config()
        rx, tx = hop_arrays(config, Hop.BS_RIS)
        assert rx.element_spacing_m == config.ris_element_period_m
        assert tx.element_spacing_m == pytest.approx(WAVELENGTH / 2)


class TestReconstructHelper:
    @pytest.mark.parametrize("preset_name", ["fig7-desk", "fig7-paper"])
    def test_bit_equal_to_model_sum(self, preset_name):
        """hop_matrix reads its vectors and weights from hop_factors and still
        adds weight * gain * a_rx a_tx^H path by path, bit for bit: dumps and
        sweep rows depend on every bit of the hops."""
        config = preset(preset_name)
        for hop in Hop:
            paths = sample_paths(config, hop, stream_rng(1, 0, hop.value))
            h = hop_matrix(config, hop, paths)
            rx, tx = hop_arrays(config, hop)
            lam = SPEED_OF_LIGHT / config.carrier_freq_hz
            n_nlos = sum(1 for p in paths if p.kind is PathKind.NLOS)
            oracle = np.zeros((rx.size, tx.size), dtype=complex)
            for p in paths:
                w = (math.sqrt(tx.size * rx.size) if p.kind is PathKind.LOS
                     else math.sqrt(tx.size * rx.size / n_nlos))
                arx = upa_response(rx, p.aoa_azimuth_rad, p.aoa_elevation_rad, lam)
                atx = upa_response(tx, p.aod_azimuth_rad, p.aod_elevation_rad, lam)
                oracle += w * p.complex_gain * np.outer(arx, atx.conj())
            assert np.array_equal(h, oracle)

    def test_empty_path_list_is_zero(self):
        config = tiny_config()
        h = hop_matrix(config, Hop.RIS_MS, ())
        assert h.shape == (config.n_ms, config.n_ris) and not h.any()


class TestRisRoot:
    @pytest.mark.parametrize("name, overrides", [
        ("fig7-desk", {}), ("fig7-paper", {}), ("fig8-desk", dict(n_ris=16, n_nlos=4)),
        ("fig7-desk", dict(n_nlos=0)), ("fig7-desk", dict(xi=0.0))])
    def test_gram_equals_referenced_hop(self, name, overrides):
        """P P^H is the referenced hop's Gram on its RIS side, Hr Hr^H for h1 and
        Hr^H Hr for h2, with min(n_other, L) columns; xi = 0 zeroes the reflected
        paths' gains, and n_nlos = 0 leaves the LoS path alone. The norm the
        replay summary prints, hop_reference ||P||_F, is the raw hop's."""
        cfg = replace(preset(name), sweep="none", sweep_grid=(), **overrides)
        for hop, n_other in ((Hop.BS_RIS, cfg.n_bs), (Hop.RIS_MS, cfg.n_ms)):
            paths = sample_paths(cfg, hop, stream_rng(cfg.master_seed, 3, hop.value))
            hr = referenced_hop(cfg, hop, paths)
            gram = hr @ hr.conj().T if hop is Hop.BS_RIS else hr.conj().T @ hr
            p = ris_root(cfg, hop, paths)
            assert p.shape == (cfg.n_ris, min(n_other, len(paths)))
            assert np.linalg.norm(p @ p.conj().T - gram) <= 1e-12 * np.linalg.norm(gram)
            raw = np.linalg.norm(hop_matrix(cfg, hop, paths))
            norm = hop_reference(cfg, hop) * np.linalg.norm(p)
            assert norm == pytest.approx(raw, rel=1e-12)

    def test_realization_keeps_roots_through_pickle(self, monkeypatch):
        """ChannelRealization.roots is both hops' ris_root, built at the first
        access and kept, also in a copy pickled to a worker, which builds none."""
        cfg, built, root = tiny_config(), [], channel.ris_root
        monkeypatch.setattr(channel, "ris_root", lambda *args: built.append(args[1]) or root(*args))
        real = _ris_paths(cfg, 0)
        p1, p2 = real.roots
        assert real.roots[0] is p1 and built == [Hop.BS_RIS, Hop.RIS_MS]
        assert np.array_equal(p1, root(cfg, Hop.BS_RIS, real.paths_h1))
        assert np.array_equal(p2, root(cfg, Hop.RIS_MS, real.paths_h2))
        sent = pickle.loads(pickle.dumps(real))
        assert sent == real and all(map(np.array_equal, sent.roots, real.roots))
        assert built == [Hop.BS_RIS, Hop.RIS_MS]


class TestPresetRegime:
    def test_fig7_desk_form_is_rank_one(self):
        """At xi = 1e-6 the reflected paths sit far below LoS, so the sweep's
        trace-normalized form D of fig7-desk realization 0 is rank one: one
        stream carries nearly all of the rate (lambda2 / lambda1 reads ~3e-13;
        it is ~3e-5 at xi = 0.01)."""
        cfg = preset("fig7-desk")
        h1, h2 = (sample_channel(cfg, hop, stream_rng(cfg.master_seed, 0, hop.value))[0]
                  / hop_reference(cfg, hop) for hop in (Hop.BS_RIS, Hop.RIS_MS))
        form, _ = build_quadratic_form(h1, h2).trace_normalized()
        lam = np.linalg.eigvalsh(form.matrix)
        assert lam[-2] / lam[-1] < 1e-9
