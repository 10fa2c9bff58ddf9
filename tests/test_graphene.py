"""Tunable-element physics and codebook tests.

Frozen reference values were produced by a standalone mpmath evaluation
(50 digits) of the same closed-form expressions, using the SI-exact h, e, kB
and c and the CODATA 2022 epsilon_0 that graphene.py defines.
"""

import math

import numpy as np
import pytest

from thzris.graphene import (BOLTZMANN, ELEMENTARY_CHARGE, HBAR,
                             ElementGeometry, GrapheneParams,
                             analytic_phase_response, build_codebook,
                             effective_permittivity,
                             fermi_level_from_voltage, surface_conductivity)

EV = 1.602176634e-19
OMEGA_16THZ = 2.0 * math.pi * 1.6e12


class TestSurfaceConductivity:
    def test_zero_fermi_level_reduces_to_ln2(self):
        # cosh(0) = 1 forces the thermal factor to ln 2 exactly
        params = GrapheneParams()
        got = surface_conductivity(params, 0.0, OMEGA_16THZ)
        kT = BOLTZMANN * params.temperature_K
        pref = 2 * ELEMENTARY_CHARGE**2 / (math.pi * HBAR**2) * kT * math.log(2.0)
        expect = pref * 1j / (OMEGA_16THZ + 1j / params.relaxation_time_s)
        assert got == pytest.approx(expect, rel=1e-14)
        # frozen mpmath value
        assert got.real == pytest.approx(4.1333560239682380e-05, rel=1e-12)
        assert got.imag == pytest.approx(4.1553026942623148e-04, rel=1e-12)

    def test_lossless_limit_is_purely_imaginary(self):
        params = GrapheneParams(relaxation_time_s=1e12)  # tau -> infinity
        sigma = surface_conductivity(params, 0.1 * EV, OMEGA_16THZ)
        assert abs(sigma.real) / abs(sigma) < 1e-10

    def test_frozen_value_at_0p2_ev(self):
        # independent 50-digit evaluation of the same expression
        sigma = surface_conductivity(GrapheneParams(), 0.2 * EV, OMEGA_16THZ)
        assert sigma.real == pytest.approx(2.3069183436509247e-04, rel=1e-12)
        assert sigma.imag == pytest.approx(2.3191672706704893e-03, rel=1e-12)

    def test_magnitude_monotone_in_fermi_level(self):
        params = GrapheneParams()
        levels = np.linspace(0.0, 2.0, 25) * EV
        mags = [abs(surface_conductivity(params, ef, OMEGA_16THZ)) for ef in levels]
        assert all(a <= b + 1e-18 for a, b in zip(mags, mags[1:]))

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            surface_conductivity(GrapheneParams(), math.nan, OMEGA_16THZ)
        with pytest.raises(ValueError):
            surface_conductivity(GrapheneParams(), 0.1 * EV, math.inf)
        with pytest.raises(ValueError):
            surface_conductivity(GrapheneParams(), -0.1 * EV, OMEGA_16THZ)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GrapheneParams(temperature_K=0.0)
        with pytest.raises(ValueError):
            GrapheneParams(relaxation_time_s=-1e-12)


class TestFermiLevelFromVoltage:
    def test_charge_neutral_no_residual(self):
        params = GrapheneParams(residual_carrier_density_m2=0.0,
                                compensating_voltage_V=0.3)
        assert fermi_level_from_voltage(params, 0.3) == 0.0

    def test_residual_density_floor(self):
        params = GrapheneParams(residual_carrier_density_m2=1e15,
                                compensating_voltage_V=0.0)
        expect = HBAR * params.fermi_velocity_m_s * math.sqrt(math.pi * 1e15)
        assert fermi_level_from_voltage(params, 0.0) == pytest.approx(expect, rel=1e-14)

    def test_frozen_value_at_1v(self):
        params = GrapheneParams(residual_carrier_density_m2=1e15,
                                electrode_capacitivity=1e16,
                                compensating_voltage_V=0.0)
        got = fermi_level_from_voltage(params, 1.0)
        assert got == pytest.approx(5.9108657749675195e-21, rel=1e-13)

    def test_even_around_compensating_voltage(self):
        params = GrapheneParams(compensating_voltage_V=0.7,
                                electrode_capacitivity=1e18)
        for delta in (0.1, 0.5, 2.3, 17.0):
            up = fermi_level_from_voltage(params, 0.7 + delta)
            down = fermi_level_from_voltage(params, 0.7 - delta)
            assert up == down


class TestEffectivePermittivity:
    def test_vacuum_limit(self):
        assert effective_permittivity(0.0, OMEGA_16THZ, 1e-9) == 1.0

    def test_purely_imaginary_sigma_gives_real_permittivity(self):
        s = 2.5e-4
        eps = effective_permittivity(1j * s, OMEGA_16THZ, 1e-9)
        expect = 1.0 - s / (OMEGA_16THZ * 8.8541878188e-12 * 1e-9)
        assert eps.imag == 0.0
        assert eps.real == pytest.approx(expect, rel=1e-12)

    def test_frozen_chained_value(self):
        sigma = surface_conductivity(GrapheneParams(), 0.2 * EV, OMEGA_16THZ)
        eps = effective_permittivity(sigma, OMEGA_16THZ, 1e-9)
        assert eps.real == pytest.approx(-26053.544932429265, rel=1e-12)
        assert eps.imag == pytest.approx(2591.6935100037561, rel=1e-12)

    def test_zero_thickness_rejected(self):
        with pytest.raises(ValueError):
            effective_permittivity(1e-4 + 1e-4j, OMEGA_16THZ, 0.0)

    def test_passivity(self):
        # Re(sigma) >= 0 implies Im(eps_eff) >= 0 under e^{+j w t}
        rng = np.random.default_rng(7)
        for _ in range(50):
            sigma = complex(rng.uniform(0, 1e-3), rng.uniform(-1e-2, 1e-2))
            eps = effective_permittivity(sigma, OMEGA_16THZ, 1e-9)
            assert eps.imag >= 0.0


class TestAnalyticPhaseResponse:
    def test_unit_permittivity(self):
        # a k0 = pi with n_eff = 1 and m = 1 gives zero phase
        freq = 1.6e12
        k0 = 2 * math.pi * freq / 299792458.0
        geom = ElementGeometry(patch_width_m=math.pi / k0,
                               period_m=math.pi / k0 * 1.1, resonance_order=1)
        assert analytic_phase_response(geom, 1.0, freq) == pytest.approx(0.0, abs=1e-12)

    def test_exact_square_permittivity(self):
        freq = 1.6e12
        k0 = 2 * math.pi * freq / 299792458.0
        geom = ElementGeometry(patch_width_m=(math.pi / 2) / k0,
                               period_m=math.pi / k0, resonance_order=2)
        got = analytic_phase_response(geom, 4.0, freq)
        assert got == pytest.approx(math.pi, rel=1e-12)

    def test_frozen_chained_phase(self):
        sigma = surface_conductivity(GrapheneParams(), 0.2 * EV, OMEGA_16THZ)
        eps = effective_permittivity(sigma, OMEGA_16THZ, 1e-9)
        phi = analytic_phase_response(ElementGeometry(), eps, 1.6e12)
        assert phi == pytest.approx(-14.604719238714590, rel=1e-12)

    def test_monotone_trend_over_fermi_sweep(self):
        # Fig-1 geometry at 1.6 THz: the analytic cavity model accumulates
        # phase monotonically as the Fermi level rises from 0 to 2 eV. Only
        # the trend is meaningful; the calibrated 306.82 deg range comes from
        # full-wave simulation.
        params = GrapheneParams()
        geom = ElementGeometry()
        phases = []
        for ef_ev in np.linspace(0.0, 2.0, 21):
            sigma = surface_conductivity(params, ef_ev * EV, OMEGA_16THZ)
            eps = effective_permittivity(sigma, OMEGA_16THZ,
                                         geom.graphene_thickness_m)
            phases.append(analytic_phase_response(geom, eps, 1.6e12))
        diffs = np.diff(phases)
        assert np.all(diffs < 0.0)
        assert abs(phases[-1] - phases[0]) > math.radians(306.82)


class TestBuildCodebook:
    def test_calibrated_codebook(self):
        cb = build_codebook(math.radians(306.82), 2, uniform_amplitude=0.8)
        expect_deg = [0.0, 76.705, 153.41, 230.115]
        assert [math.degrees(p) for p in cb.phases_rad] == pytest.approx(expect_deg)
        assert cb.mean_amplitude == pytest.approx(0.8)
        assert cb.amplitudes == (0.8, 0.8, 0.8, 0.8)

    def test_one_bit_full_circle(self):
        cb = build_codebook(2 * math.pi, 1)
        assert [math.degrees(p) for p in cb.phases_rad] == pytest.approx([0.0, 180.0])

    def test_explicit_amplitude_list_mean(self):
        cb = build_codebook(math.radians(306.82), 2,
                            amplitudes=[0.5, 0.7, 0.9, 1.0])
        assert cb.mean_amplitude == pytest.approx(0.775)

    def test_wrong_amplitude_list_length(self):
        with pytest.raises(ValueError, match="2\\^bits"):
            build_codebook(math.radians(306.82), 2, amplitudes=[0.8, 0.8])

    def test_zero_bits_rejected(self):
        with pytest.raises(ValueError):
            build_codebook(math.radians(306.82), 0)

    def test_phases_strictly_increasing_below_max(self):
        for bits in (1, 2, 3, 5):
            for max_deg in (60.0, 306.82, 360.0):
                cb = build_codebook(math.radians(max_deg), bits)
                phases = np.asarray(cb.phases_rad)
                assert np.all(np.diff(phases) > 0)
                assert phases[-1] < math.radians(max_deg)
                assert phases[0] == 0.0

    def test_mean_amplitude_band_enforced(self):
        with pytest.raises(ValueError, match="mean_amplitude"):
            build_codebook(math.radians(306.82), 1, amplitudes=[0.2, 0.3])
