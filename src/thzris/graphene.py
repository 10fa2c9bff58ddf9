"""Discrete phase codebook of the tunable graphene reflecting element.

The codebook spans [0, max_phase_rad) in 2^bits equal steps. Its range is an
input: the paper's 306.82 deg at 1.6 THz comes from full-wave simulation of the
element, and the config passes it in as phi_max_deg. Every element reflects
with the same mean_amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhaseCodebook:
    """The 2^bits phase states of one element and their common reflecting
    amplitude, the single scalar the beamforming pipeline applies to every
    element."""

    max_phase_rad: float
    bits: int
    mean_amplitude: float

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if not 0.0 < self.max_phase_rad <= 2.0 * math.pi + 1e-12:
            raise ValueError("max_phase_rad must lie in (0, 2*pi]")
        if not 0.5 <= self.mean_amplitude <= 1.0:
            raise ValueError("mean_amplitude must lie in [0.5, 1]")

    @property
    def size(self) -> int:
        return 2 ** self.bits

    @property
    def phases_rad(self) -> np.ndarray:
        """phases_rad[k] = k * max_phase_rad / 2^bits for k = 0 .. 2^bits - 1."""
        return np.arange(self.size) * self.max_phase_rad / self.size


def build_codebook(max_phase_rad: float, bits: int,
                   mean_amplitude: float = 0.8) -> PhaseCodebook:
    """Build the 2^bits-state phase codebook spanning [0, max_phase_rad)."""
    return PhaseCodebook(max_phase_rad=float(max_phase_rad), bits=int(bits),
                         mean_amplitude=float(mean_amplitude))
