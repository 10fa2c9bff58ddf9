"""Sparse geometric THz MIMO channel model.

Each hop (BS->RIS, RIS->MS, and the blocked direct BS->MS baseline) is a sum
of one optional LoS path and L reflected paths:

    H = sqrt(N_tx N_rx) a0 a_rx a_tx^H + sqrt(N_tx N_rx / L) sum_l a_l a_rx,l a_tx,l^H

with unit-norm UPA steering vectors, free-space spreading plus molecular
absorption on the LoS gain, and an additional material reflection coefficient
on each reflected path. Propagation phases carry e^{-j 2 pi f tau} with the
package-wide e^{+j omega t} convention.

A realization is fully determined by its path list, so every sampled matrix
can be reconstructed exactly from the emitted `PathParams` (that is also the
channel-dump replay contract).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .graphene import SPEED_OF_LIGHT

if TYPE_CHECKING:  # pragma: no cover
    from .harness import ExperimentConfig


class Hop(Enum):
    BS_RIS = "h1"
    RIS_MS = "h2"
    BS_MS_DIRECT = "direct"


class PathKind(Enum):
    LOS = "LoS"
    NLOS = "NLoS"


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array on the xy-plane, n_x by n_y elements."""

    n_x: int
    n_y: int
    element_spacing_m: float

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError("array dimensions must be >= 1")
        if self.element_spacing_m <= 0:
            raise ValueError("element_spacing_m must be > 0")

    @property
    def size(self) -> int:
        return self.n_x * self.n_y


@dataclass(frozen=True)
class PathParams:
    """One propagation path: geometry angles, complex gain, absolute delay."""

    kind: PathKind
    aoa_azimuth_rad: float
    aoa_elevation_rad: float
    aod_azimuth_rad: float
    aod_elevation_rad: float
    complex_gain: complex
    delay_s: float


@dataclass(frozen=True)
class LinkGeometry:
    """Propagation parameters of one hop."""

    carrier_freq_Hz: float
    distance_m: float
    absorption_coeff_per_m: float = 0.2
    reflection_coeff: float = 1e-6
    n_nlos_paths: int = 2
    nlos_excess_range_m: tuple = (1.0, 10.0)

    def __post_init__(self):
        if self.distance_m <= 0:
            raise ValueError("distance_m must be > 0")
        if self.absorption_coeff_per_m < 0:
            raise ValueError("absorption_coeff_per_m must be >= 0")
        if not 0.0 <= self.reflection_coeff <= 1.0:
            raise ValueError("reflection_coeff must lie in [0, 1]")
        if self.n_nlos_paths < 0:
            raise ValueError("n_nlos_paths must be >= 0")


@dataclass(frozen=True)
class ChannelRealization:
    """Both hop matrices of one Monte-Carlo draw plus their path lists, the
    realization index and the sweep-point config text that produced them
    (None for both when loaded from a v1 dump)."""

    h1: np.ndarray          # N_RIS x N_BS
    h2: np.ndarray          # N_MS x N_RIS
    paths_h1: tuple
    paths_h2: tuple
    seed: int
    realization: int | None
    config_text: str | None


def upa_dims(n_elements: int) -> tuple:
    """Near-square (n_x, n_y) factorization with n_x >= n_y."""
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    n_y = int(math.isqrt(n_elements))
    while n_elements % n_y:
        n_y -= 1
    return n_elements // n_y, n_y


def upa_response(geom: ArrayGeometry, azimuth_rad: float, elevation_rad: float,
                 wavelength_m: float) -> np.ndarray:
    """Normalized UPA steering vector, flattened p-major (p over n_x, q over n_y).

    Entry (p, q) is exp(j 2 pi d/lambda (p sin(el) cos(az) + q cos(el))) / sqrt(N).
    """
    if wavelength_m <= 0:
        raise ValueError("wavelength_m must be > 0")
    p = np.arange(geom.n_x)[:, None]
    q = np.arange(geom.n_y)[None, :]
    scale = 2.0 * math.pi * geom.element_spacing_m / wavelength_m
    phase = scale * (p * (math.sin(elevation_rad) * math.cos(azimuth_rad))
                     + q * math.cos(elevation_rad))
    return np.exp(1j * phase).ravel() / math.sqrt(geom.size)


def los_gain(link: LinkGeometry) -> complex:
    """LoS complex gain: spreading loss, molecular absorption, delay phase."""
    f = link.carrier_freq_Hz
    r0 = link.distance_m
    tau_los = r0 / SPEED_OF_LIGHT
    mag = (SPEED_OF_LIGHT / (4.0 * math.pi * f * r0)
           * math.exp(-0.5 * link.absorption_coeff_per_m * r0))
    return mag * np.exp(-2j * math.pi * f * tau_los)


def nlos_gain(link: LinkGeometry, r1_m: float, r2_m: float) -> complex:
    """Reflected-path complex gain for a detour of r1 + r2 meters.

    The reflection coefficient of the scattering material multiplies the
    spreading/absorption loss; the delay phase uses the excess path length.
    """
    detour = r1_m + r2_m
    if detour < link.distance_m:
        raise ValueError("r1 + r2 must be >= the direct distance")
    f = link.carrier_freq_Hz
    tau_ref = link.distance_m / SPEED_OF_LIGHT + (detour - link.distance_m) / SPEED_OF_LIGHT
    mag = (SPEED_OF_LIGHT * link.reflection_coeff / (4.0 * math.pi * f * detour)
           * math.exp(-0.5 * link.absorption_coeff_per_m * detour))
    return mag * np.exp(-2j * math.pi * f * tau_ref)


def reconstruct_channel(paths, rx_geom: ArrayGeometry, tx_geom: ArrayGeometry,
                        wavelength_m: float) -> np.ndarray:
    """Assemble the hop matrix from its path list (the defining model sum)."""
    n_rx, n_tx = rx_geom.size, tx_geom.size
    n_nlos = sum(1 for p in paths if p.kind is PathKind.NLOS)
    h = np.zeros((n_rx, n_tx), dtype=complex)
    for p in paths:
        if p.kind is PathKind.LOS:
            weight = math.sqrt(n_tx * n_rx)
        else:
            weight = math.sqrt(n_tx * n_rx / n_nlos)
        a_rx = upa_response(rx_geom, p.aoa_azimuth_rad, p.aoa_elevation_rad, wavelength_m)
        a_tx = upa_response(tx_geom, p.aod_azimuth_rad, p.aod_elevation_rad, wavelength_m)
        h += weight * p.complex_gain * np.outer(a_rx, a_tx.conj())
    return h


def _draw_path_angles(rng) -> tuple:
    aoa_az = rng.uniform(0.0, 2.0 * math.pi)
    aoa_el = rng.uniform(0.0, math.pi)
    aod_az = rng.uniform(0.0, 2.0 * math.pi)
    aod_el = rng.uniform(0.0, math.pi)
    return aoa_az, aoa_el, aod_az, aod_el


def sample_paths(link: LinkGeometry, rng, include_los: bool = True) -> tuple:
    """Draw the path list of one hop.

    Angles are uniform over the sphere sectors (azimuth in [0, 2pi), elevation
    in [0, pi)). Reflected-path detours split the direct distance at a uniform
    fraction in (0.3, 0.7) and add a uniform excess from nlos_excess_range_m.
    """
    paths = []
    if include_los:
        gain = los_gain(link)
        paths.append(PathParams(PathKind.LOS, *_draw_path_angles(rng),
                                complex_gain=complex(gain),
                                delay_s=link.distance_m / SPEED_OF_LIGHT))
    lo, hi = link.nlos_excess_range_m
    for _ in range(link.n_nlos_paths):
        angles = _draw_path_angles(rng)
        u = rng.uniform(0.3, 0.7)
        excess = rng.uniform(lo, hi)
        r1 = link.distance_m * u
        r2 = link.distance_m * (1.0 - u) + excess
        gain = nlos_gain(link, r1, r2)
        delay = (link.distance_m + (r1 + r2 - link.distance_m)) / SPEED_OF_LIGHT
        paths.append(PathParams(PathKind.NLOS, *angles,
                                complex_gain=complex(gain), delay_s=delay))
    return tuple(paths)


def hop_arrays(config: "ExperimentConfig", hop: Hop) -> tuple:
    """(rx_geom, tx_geom) for a hop under the configured terminal sizes.

    BS/MS arrays use half-wavelength spacing; the RIS spacing is the side
    length of one reflecting element.
    """
    lam = SPEED_OF_LIGHT / config.carrier_freq_Hz
    bs = ArrayGeometry(*upa_dims(config.n_bs), element_spacing_m=lam / 2)
    ms = ArrayGeometry(*upa_dims(config.n_ms), element_spacing_m=lam / 2)
    ris = ArrayGeometry(*upa_dims(config.n_ris),
                        element_spacing_m=config.ris_element_period_m)
    if hop is Hop.BS_RIS:
        return ris, bs
    if hop is Hop.RIS_MS:
        return ms, ris
    return ms, bs


def hop_link(config: "ExperimentConfig", hop: Hop) -> LinkGeometry:
    distance = {Hop.BS_RIS: config.bs_ris_m,
                Hop.RIS_MS: config.ris_ms_m,
                Hop.BS_MS_DIRECT: config.bs_ms_m}[hop]
    n_nlos = config.n_nlos_direct if hop is Hop.BS_MS_DIRECT else config.n_nlos
    return LinkGeometry(carrier_freq_Hz=config.carrier_freq_Hz,
                        distance_m=distance,
                        absorption_coeff_per_m=config.kappa_per_m,
                        reflection_coeff=config.xi,
                        n_nlos_paths=n_nlos,
                        nlos_excess_range_m=config.nlos_excess_range_m)


def sample_channel(config: "ExperimentConfig", hop: Hop, rng) -> tuple:
    """Sample one hop matrix; returns (matrix, path list).

    The direct BS->MS hop has its LoS blocked and carries reflected paths
    only. Deterministic given the RNG stream; the matrix equals
    `reconstruct_channel` applied to the returned paths.
    """
    link = hop_link(config, hop)
    include_los = hop is not Hop.BS_MS_DIRECT
    paths = sample_paths(link, rng, include_los=include_los)
    rx_geom, tx_geom = hop_arrays(config, hop)
    lam = SPEED_OF_LIGHT / config.carrier_freq_Hz
    return reconstruct_channel(paths, rx_geom, tx_geom, lam), paths


# --- channel dump / replay -------------------------------------------------

_DUMP_VERSIONS = ("# thzris channel dump v1", "# thzris channel dump v2")


def dump_realization(real: ChannelRealization, config: "ExperimentConfig",
                     path) -> None:
    """Write one realization as plain text (v2): realization index, geometry
    header, the sweep-point config as `config key = value` lines, then one row
    per path (kind, four angles, gain re/im, delay). Enables exact replay."""
    lines = [_DUMP_VERSIONS[1],
             f"realization {real.realization}",
             f"seed {real.seed}",
             f"carrier_freq_hz {config.carrier_freq_Hz!r}"]
    for tag, hop in (("h1", Hop.BS_RIS), ("h2", Hop.RIS_MS)):
        rx, tx = hop_arrays(config, hop)
        lines.append(f"{tag}_rx_geom {rx.n_x} {rx.n_y} {rx.element_spacing_m!r}")
        lines.append(f"{tag}_tx_geom {tx.n_x} {tx.n_y} {tx.element_spacing_m!r}")
    lines += [f"config {line}" for line in real.config_text.splitlines()]
    for tag, paths in (("h1", real.paths_h1), ("h2", real.paths_h2)):
        lines.append(f"paths_{tag} {len(paths)}")
        for p in paths:
            lines.append(" ".join([p.kind.value,
                                   repr(p.aoa_azimuth_rad), repr(p.aoa_elevation_rad),
                                   repr(p.aod_azimuth_rad), repr(p.aod_elevation_rad),
                                   repr(p.complex_gain.real), repr(p.complex_gain.imag),
                                   repr(p.delay_s)]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class DumpError(ValueError):
    """Malformed channel dump; the message names the file and line."""


# header key -> value types; v1 geometry lines carry a trailing role token
_DUMP_HEADER = {"realization": (int,), "seed": (int,), "carrier_freq_hz": (float,),
                "h1_rx_geom": (int, int, float), "h1_tx_geom": (int, int, float),
                "h2_rx_geom": (int, int, float), "h2_tx_geom": (int, int, float),
                "paths_h1": (int,), "paths_h2": (int,)}


def _dump_number(tok: str, cast, where: str):
    try:
        value = cast(tok)
    except ValueError:
        raise DumpError(f"{where}: expected {cast.__name__}, got '{tok}'") from None
    if not math.isfinite(value):
        raise DumpError(f"{where}: non-finite value '{tok}'")
    return value


def _path_row(path, n: int, tok: list) -> PathParams:
    where = f"{path}:{n}"
    if len(tok) != 8 or tok[0] not in ("LoS", "NLoS"):
        raise DumpError(f"{where}: expected a path row (LoS or NLoS, then 7 numbers)")
    num = [_dump_number(t, float, where) for t in tok[1:]]
    return PathParams(PathKind(tok[0]), *num[:4], complex_gain=complex(num[4], num[5]),
                      delay_s=num[6])


def load_realization(path) -> ChannelRealization:
    """Parse a channel dump (v1 or v2) and rebuild both hop matrices from the
    paths. v1 dumps carry no realization index or config, and a trailing array
    role token on their geometry lines, which is ignored. A malformed dump, or
    a hop that rebuilds to an all-zero matrix, raises DumpError naming the
    file and line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    version = lines[0].strip() if lines else ""
    if version not in _DUMP_VERSIONS:
        raise DumpError(f"{path}:1: expected '{_DUMP_VERSIONS[1]}' or v1, got '{version}'")
    v1 = version == _DUMP_VERSIONS[0]
    rows = iter([(n, ln.split()) for n, ln in enumerate(lines, start=1)
                 if ln.strip() and not ln.lstrip().startswith("#")])
    header, paths, config, at = {}, {}, [], {}
    for n, (key, *vals) in rows:
        where = f"{path}:{n}"
        if key == "config" and not v1:
            config.append(" ".join(vals))
            continue
        if key not in _DUMP_HEADER or (v1 and key == "realization") or key in header:
            raise DumpError(f"{where}: unexpected or repeated key '{key}'")
        types = _DUMP_HEADER[key]
        if len(vals) != len(types) + (v1 and key.endswith("_geom")):
            raise DumpError(f"{where}: '{key}' takes {len(types)} values, got {len(vals)}")
        values = header[key] = [_dump_number(tok, cast, where) for tok, cast in zip(vals, types)]
        positive = key == "carrier_freq_hz" or key.endswith("_geom")
        if min(values) < 0 or (positive and min(values) == 0):
            raise DumpError(f"{where}: '{key}' values out of range")
        if key.startswith("paths_"):   # past the end of file reads as an empty row
            at[key] = where
            paths[key] = [_path_row(path, *next(rows, (len(lines) + 1, [])))
                          for _ in range(values[0])]
    missing = [key for key in _DUMP_HEADER if key not in header
               and not (v1 and key == "realization")] + ([] if v1 or config else ["config"])
    if missing:
        raise DumpError(f"{path}:{len(lines)}: dump ends before '{missing[0]}'")
    lam = SPEED_OF_LIGHT / header["carrier_freq_hz"][0]
    geoms = {key: ArrayGeometry(*header[key]) for key in _DUMP_HEADER if key.endswith("_geom")}
    h1 = reconstruct_channel(paths["paths_h1"], geoms["h1_rx_geom"], geoms["h1_tx_geom"], lam)
    h2 = reconstruct_channel(paths["paths_h2"], geoms["h2_rx_geom"], geoms["h2_tx_geom"], lam)
    for key, h in (("paths_h1", h1), ("paths_h2", h2)):
        if not np.any(h):
            raise DumpError(f"{at[key]}: '{key}' rebuilds an all-zero channel")
    return ChannelRealization(
        h1=h1, h2=h2, paths_h1=tuple(paths["paths_h1"]), paths_h2=tuple(paths["paths_h2"]),
        seed=header["seed"][0], realization=header.get("realization", [None])[0],
        config_text="".join(f"{line}\n" for line in config) or None)
