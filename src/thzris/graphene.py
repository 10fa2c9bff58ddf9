"""Electrically tunable graphene reflecting element.

Models the voltage-controlled surface conductivity of a graphene patch, the
effective permittivity of the resonant stack, the analytic (Fabry-Perot cavity)
phase response, and the discrete phase/amplitude codebook that the passive
beamforming pipeline consumes.

Sign convention: e^{+j omega t} time dependence everywhere in this package.
Under that convention a passive sheet has Re(sigma) >= 0 and Im(eps_eff) >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# SI constants: e, h (hbar = h / 2 pi), kB and c are exact in the 2019 SI; eps0 is CODATA 2022
ELEMENTARY_CHARGE = 1.602176634e-19            # C
HBAR = 6.62607015e-34 / (2 * math.pi)          # J s
BOLTZMANN = 1.380649e-23                       # J/K
VACUUM_PERMITTIVITY = 8.8541878188e-12         # F/m
SPEED_OF_LIGHT = 299792458.0                   # m/s


@dataclass(frozen=True)
class GrapheneParams:
    """Material and bias-circuit parameters of the tunable graphene sheet.

    Defaults are typical CVD-graphene values at room temperature, read only by the
    element-physics functions below; the sweep's phase states come from build_codebook.
    """

    temperature_K: float = 300.0
    relaxation_time_s: float = 1e-12
    fermi_velocity_m_s: float = 1e6
    residual_carrier_density_m2: float = 1e15
    electrode_capacitivity: float = 1e16
    compensating_voltage_V: float = 0.0

    def __post_init__(self):
        if not self.temperature_K > 0:
            raise ValueError("temperature_K must be > 0")
        if not self.relaxation_time_s > 0:
            raise ValueError("relaxation_time_s must be > 0")
        if not self.fermi_velocity_m_s > 0:
            raise ValueError("fermi_velocity_m_s must be > 0")
        if self.residual_carrier_density_m2 < 0:
            raise ValueError("residual_carrier_density_m2 must be >= 0")
        if not self.electrode_capacitivity > 0:
            raise ValueError("electrode_capacitivity must be > 0")


@dataclass(frozen=True)
class ElementGeometry:
    """Unit-cell geometry of one reflecting element (graphene patch on a
    grounded quartz substrate)."""

    patch_width_m: float = 66e-6
    period_m: float = 70e-6
    substrate_thickness_m: float = 38e-6
    metal_thickness_m: float = 1e-6
    graphene_thickness_m: float = 1e-9
    resonance_order: int = 1

    def __post_init__(self):
        lengths = (self.patch_width_m, self.period_m, self.substrate_thickness_m,
                   self.metal_thickness_m, self.graphene_thickness_m)
        if any(x <= 0 for x in lengths):
            raise ValueError("all element dimensions must be > 0")
        if not self.patch_width_m < self.period_m:
            raise ValueError("patch_width_m must be < period_m")


@dataclass(frozen=True)
class PhaseCodebook:
    """Discrete phase states of one element plus their reflecting amplitudes.

    phases_rad[k] = k * max_phase_rad / 2^bits for k = 0 .. 2^bits - 1.
    mean_amplitude is the arithmetic mean of the amplitude set and is the
    single scalar the beamforming pipeline applies to every element.
    """

    max_phase_rad: float
    bits: int
    phases_rad: tuple = field(repr=False)
    amplitudes: tuple = field(repr=False)
    mean_amplitude: float

    def __post_init__(self):
        n = 2 ** self.bits
        if len(self.phases_rad) != n or len(self.amplitudes) != n:
            raise ValueError("phase/amplitude lists must have 2^bits entries")
        if not 0.5 <= self.mean_amplitude <= 1.0:
            raise ValueError("mean_amplitude must lie in [0.5, 1]")

    @property
    def size(self) -> int:
        return 2 ** self.bits

    def phases_array(self) -> np.ndarray:
        return np.asarray(self.phases_rad, dtype=float)


def surface_conductivity(params: GrapheneParams, fermi_level_J: float,
                         angular_freq_rad_s: float) -> complex:
    """Sheet conductivity of graphene in the THz intraband (Drude-type) regime.

    sigma = (2 e^2 / (pi hbar^2)) kB T ln[2 cosh(E_F / 2 kB T)] * i/(omega + i/tau)

    Returns S (siemens per square). Raises ValueError on non-finite input.
    """
    if not (math.isfinite(fermi_level_J) and math.isfinite(angular_freq_rad_s)):
        raise ValueError("fermi level and angular frequency must be finite")
    if angular_freq_rad_s <= 0:
        raise ValueError("angular_freq_rad_s must be > 0")
    if fermi_level_J < 0:
        raise ValueError("fermi_level_J must be >= 0")

    kT = BOLTZMANN * params.temperature_K
    prefactor = 2.0 * ELEMENTARY_CHARGE ** 2 / (math.pi * HBAR ** 2) * kT
    # log(2 cosh x) = x + log1p(exp(-2x)) stays finite for large Fermi levels
    x = fermi_level_J / (2.0 * kT)
    thermal = x + math.log1p(math.exp(-2.0 * x))
    drude = 1j / (angular_freq_rad_s + 1j / params.relaxation_time_s)
    return prefactor * thermal * drude


def fermi_level_from_voltage(params: GrapheneParams, applied_voltage_V: float) -> float:
    """Fermi level (J) induced by a gate voltage through the electrode stack.

    Carrier density n_d = sqrt(n_0^2 + alpha_c |V_CNP - V_g|^2), then
    |E_F| = hbar v_F sqrt(pi n_d). Even around the compensating voltage.
    """
    dv = abs(params.compensating_voltage_V - applied_voltage_V)
    n_d = math.hypot(params.residual_carrier_density_m2,
                     math.sqrt(params.electrode_capacitivity) * dv)
    return HBAR * params.fermi_velocity_m_s * math.sqrt(math.pi * n_d)


def effective_permittivity(sigma: complex, angular_freq_rad_s: float,
                           graphene_thickness_m: float) -> complex:
    """Effective permittivity of the graphene sheet treated as a thin slab:
    eps_eff = 1 + i sigma / (omega eps0 t_g)."""
    if graphene_thickness_m <= 0:
        raise ValueError("graphene_thickness_m must be > 0")
    return 1.0 + 1j * sigma / (angular_freq_rad_s * VACUUM_PERMITTIVITY
                               * graphene_thickness_m)


def analytic_phase_response(geom: ElementGeometry, eps_eff: complex,
                            freq_Hz: float) -> float:
    """Reflection phase of the element from the Fabry-Perot cavity model:
    phi = m pi - a k0 Re(n_eff).

    n_eff is the principal square root of eps_eff (branch with Re >= 0).
    This analytic model tracks the trend of the full-wave response; the
    calibrated codebook range (306.82 deg at 1.6 THz) comes from full-wave
    simulation, not from this formula.
    """
    if freq_Hz <= 0:
        raise ValueError("freq_Hz must be > 0")
    n_eff = np.sqrt(complex(eps_eff))
    if n_eff.real < 0:
        n_eff = -n_eff
    k0 = 2.0 * math.pi * freq_Hz / SPEED_OF_LIGHT
    return geom.resonance_order * math.pi - geom.patch_width_m * k0 * n_eff.real


def build_codebook(max_phase_rad: float, bits: int, amplitudes=None,
                   uniform_amplitude: float = 0.8) -> PhaseCodebook:
    """Build the 2^bits-state phase codebook spanning [0, max_phase_rad).

    Either pass an explicit per-state amplitude list (length 2^bits, entries in
    [0, 1]) or a single uniform amplitude applied to all states.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if not 0.0 < max_phase_rad <= 2.0 * math.pi + 1e-12:
        raise ValueError("max_phase_rad must lie in (0, 2*pi]")
    n = 2 ** bits
    phases = tuple(k * max_phase_rad / n for k in range(n))
    if amplitudes is None:
        amps = (float(uniform_amplitude),) * n
    else:
        amps = tuple(float(a) for a in amplitudes)
        if len(amps) != n:
            raise ValueError(f"amplitude list must have 2^bits = {n} entries, "
                             f"got {len(amps)}")
    if any(not 0.0 <= a <= 1.0 for a in amps):
        raise ValueError("amplitudes must lie in [0, 1]")
    mean_amp = sum(amps) / n
    return PhaseCodebook(max_phase_rad=float(max_phase_rad), bits=int(bits),
                         phases_rad=phases, amplitudes=amps,
                         mean_amplitude=mean_amp)
