"""Sparse geometric THz MIMO channel model.

Each hop (BS->RIS, RIS->MS, and the blocked direct BS->MS baseline) is a sum
of one optional LoS path and L reflected paths:

    H = sqrt(N_tx N_rx) a0 a_rx a_tx^H + sqrt(N_tx N_rx / L) sum_l a_l a_rx,l a_tx,l^H

with unit-norm UPA steering vectors, free-space spreading plus molecular
absorption on the LoS gain, and an additional material reflection coefficient
on each reflected path. Propagation phases carry e^{-j 2 pi f tau} with the
package-wide e^{+j omega t} convention.

A realization is its path lists: `hop_matrix` builds a hop's matrix from its
`PathParams`, bit for bit as `sample_channel` draws it, so a realization, its
channel dump and its replay hold no matrix (that is also the channel-dump
replay contract). A hop is referenced here only: `referenced_hop` for the dense
form's matrices and `ris_root`, the thin root that stands in for the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .harness import ExperimentConfig

SPEED_OF_LIGHT = 299792458.0   # m/s, exact in the SI


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
    """One propagation path: geometry angles and complex gain, whose phase
    carries the path's delay."""

    kind: PathKind
    aoa_azimuth_rad: float
    aoa_elevation_rad: float
    aod_azimuth_rad: float
    aod_elevation_rad: float
    complex_gain: complex


@dataclass(frozen=True)
class ChannelRealization:
    """One Monte-Carlo draw of both RIS hops: their path lists, the realization
    index and the sweep-point config that drew them. The path lists determine
    the hops, and h1 (N_RIS x N_BS) and h2 (N_MS x N_RIS), which remain only
    for the benchmark's dump check (perfbench) and the tests, rebuild them."""

    paths_h1: tuple
    paths_h2: tuple
    realization: int
    config: "ExperimentConfig"

    @property
    def h1(self) -> np.ndarray:
        return hop_matrix(self.config, Hop.BS_RIS, self.paths_h1)

    @property
    def h2(self) -> np.ndarray:
        return hop_matrix(self.config, Hop.RIS_MS, self.paths_h2)

    @property
    def seed(self) -> int:
        """Seed of the h1 stream, derived from the config's master seed."""
        from .harness import stream_seed   # harness imports this module
        return stream_seed(self.config.master_seed, self.realization, Hop.BS_RIS.value)


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


# hop -> the ExperimentConfig field holding its direct-line length
HOP_DISTANCE = {Hop.BS_RIS: "bs_ris_m", Hop.RIS_MS: "ris_ms_m", Hop.BS_MS_DIRECT: "bs_ms_m"}


def hop_distance(config: "ExperimentConfig", hop: Hop) -> float:
    """Configured length (m) of the hop's direct line."""
    return getattr(config, HOP_DISTANCE[hop])


def los_gain(config: "ExperimentConfig", hop: Hop) -> complex:
    """LoS complex gain: spreading loss, molecular absorption, delay phase."""
    f = config.carrier_freq_hz
    r0 = hop_distance(config, hop)
    tau_los = r0 / SPEED_OF_LIGHT
    mag = (SPEED_OF_LIGHT / (4.0 * math.pi * f * r0)
           * math.exp(-0.5 * config.kappa_per_m * r0))
    return mag * np.exp(-2j * math.pi * f * tau_los)


def nlos_gain(config: "ExperimentConfig", hop: Hop, r1_m: float, r2_m: float) -> complex:
    """Reflected-path complex gain for a detour of r1 + r2 meters.

    The reflection coefficient xi of the scattering material multiplies the
    spreading/absorption loss; the delay phase uses the excess path length.
    """
    r0 = hop_distance(config, hop)
    detour = r1_m + r2_m
    if detour < r0:
        raise ValueError("r1 + r2 must be >= the direct distance")
    f = config.carrier_freq_hz
    tau_ref = r0 / SPEED_OF_LIGHT + (detour - r0) / SPEED_OF_LIGHT
    mag = (SPEED_OF_LIGHT * config.xi / (4.0 * math.pi * f * detour)
           * math.exp(-0.5 * config.kappa_per_m * detour))
    return mag * np.exp(-2j * math.pi * f * tau_ref)


def hop_reference(config: "ExperimentConfig", hop: Hop) -> float:
    """Amplitude a raw hop is divided by: its LoS reference, or for the blocked
    direct hop the cascade budget (product of both RIS-hop references) times the
    excess obstruction loss, which the obstacle adds to its reflected paths."""
    if hop is Hop.BS_MS_DIRECT:
        return (abs(los_gain(config, Hop.BS_RIS)) * abs(los_gain(config, Hop.RIS_MS))
                * 10.0 ** (config.direct_blockage_db / 20.0))
    return abs(los_gain(config, hop))


def _draw_path_angles(rng) -> tuple:
    aoa_az = rng.uniform(0.0, 2.0 * math.pi)
    aoa_el = rng.uniform(0.0, math.pi)
    aod_az = rng.uniform(0.0, 2.0 * math.pi)
    aod_el = rng.uniform(0.0, math.pi)
    return aoa_az, aoa_el, aod_az, aod_el


def hop_arrays(config: "ExperimentConfig", hop: Hop) -> tuple:
    """(rx_geom, tx_geom) for a hop under the configured terminal sizes.

    BS/MS arrays use half-wavelength spacing; the RIS spacing is the side
    length of one reflecting element.
    """
    lam = SPEED_OF_LIGHT / config.carrier_freq_hz
    bs = ArrayGeometry(*upa_dims(config.n_bs), element_spacing_m=lam / 2)
    ms = ArrayGeometry(*upa_dims(config.n_ms), element_spacing_m=lam / 2)
    ris = ArrayGeometry(*upa_dims(config.n_ris),
                        element_spacing_m=config.ris_element_period_m)
    if hop is Hop.BS_RIS:
        return ris, bs
    if hop is Hop.RIS_MS:
        return ms, ris
    return ms, bs


def sample_paths(config: "ExperimentConfig", hop: Hop, rng) -> tuple:
    """Draw one hop's path list.

    The RIS hops carry one LoS path and n_nlos reflected paths; the direct
    BS->MS hop has its LoS blocked and carries n_nlos_direct reflected paths
    only. Angles are uniform over the sphere sectors (azimuth in [0, 2pi),
    elevation in [0, pi)). Reflected-path detours split the direct distance at
    a uniform fraction in (0.3, 0.7) and add a uniform excess in
    [nlos_excess_min_m, nlos_excess_max_m]. Deterministic given the RNG stream.
    """
    r0 = hop_distance(config, hop)
    paths = []
    if hop is not Hop.BS_MS_DIRECT:
        paths.append(PathParams(PathKind.LOS, *_draw_path_angles(rng),
                                complex_gain=complex(los_gain(config, hop))))
    n_nlos = config.n_nlos_direct if hop is Hop.BS_MS_DIRECT else config.n_nlos
    for _ in range(n_nlos):
        angles = _draw_path_angles(rng)
        u = rng.uniform(0.3, 0.7)
        excess = rng.uniform(config.nlos_excess_min_m, config.nlos_excess_max_m)
        r1 = r0 * u
        r2 = r0 * (1.0 - u) + excess
        while r1 + r2 < r0:   # rounding can split a detour of excess 0 short of r0
            r2 = math.nextafter(r2, math.inf)
        paths.append(PathParams(PathKind.NLOS, *angles,
                                complex_gain=complex(nlos_gain(config, hop, r1, r2))))
    return tuple(paths)


def sample_channel(config: "ExperimentConfig", hop: Hop, rng) -> tuple:
    """Sample one hop matrix; returns (matrix, path list). The paths are
    sample_paths' draws, and the matrix is `hop_matrix` of them; only the
    benchmark's dump check (perfbench) and the tests call this."""
    paths = sample_paths(config, hop, rng)
    return hop_matrix(config, hop, paths), paths


def hop_factors(config: "ExperimentConfig", hop: Hop, paths) -> tuple:
    """The path list as (R, w, T) with H = R diag(w) T^H under the configured
    arrays and carrier: column l of R and T is path l's rx and tx steering
    vector, and w[l] its gain times the model's array scale."""
    rx_geom, tx_geom = hop_arrays(config, hop)
    lam = SPEED_OF_LIGHT / config.carrier_freq_hz
    n_rx, n_tx = rx_geom.size, tx_geom.size
    n_nlos = sum(1 for p in paths if p.kind is PathKind.NLOS)
    rx = np.empty((n_rx, len(paths)), dtype=complex)
    tx = np.empty((n_tx, len(paths)), dtype=complex)
    w = np.empty(len(paths), dtype=complex)
    for l, p in enumerate(paths):
        if p.kind is PathKind.LOS:
            scale = math.sqrt(n_tx * n_rx)
        else:
            scale = math.sqrt(n_tx * n_rx / n_nlos)
        w[l] = scale * p.complex_gain
        rx[:, l] = upa_response(rx_geom, p.aoa_azimuth_rad, p.aoa_elevation_rad, lam)
        tx[:, l] = upa_response(tx_geom, p.aod_azimuth_rad, p.aod_elevation_rad, lam)
    return rx, w, tx


def hop_matrix(config: "ExperimentConfig", hop: Hop, paths) -> np.ndarray:
    """The hop matrix of a path list under the configured arrays and carrier:
    the defining model sum of w[l] a_rx,l a_tx,l^H over hop_factors' paths."""
    rx, w, tx = hop_factors(config, hop, paths)
    h = np.zeros((rx.shape[0], tx.shape[0]), dtype=complex)
    for l in range(w.size):
        # a Python complex w[l]: a numpy complex128 scalar rounds the product differently
        h += complex(w[l]) * np.outer(rx[:, l], tx[:, l].conj())
    return h


def referenced_hop(config: "ExperimentConfig", hop: Hop, paths) -> np.ndarray:
    """The hop matrix of a path list divided by its reference; the raw matrix is a temporary."""
    return hop_matrix(config, hop, paths) / hop_reference(config, hop)


def ris_root(config: "ExperimentConfig", hop: Hop, paths) -> np.ndarray:
    """Thin root P (N_ris, or N_bs for the direct hop, x min(n_other, L)) of a hop's
    referenced Gram on that side, built without the matrix Hr = R diag(w) T^H: with Q_X
    the triangular factor of a thin QR of X, P P^H = Hr Hr^H for h1's P = R diag(w) Q_T^H,
    and P P^H = Hr^H Hr for h2's and the direct hop's P = T diag(conj w) Q_R^H."""
    rx, w, tx = hop_factors(config, hop, paths)
    w = w / hop_reference(config, hop)
    if hop is Hop.BS_RIS:
        return (rx * w) @ np.linalg.qr(tx, mode="r").conj().T
    return (tx * w.conj()) @ np.linalg.qr(rx, mode="r").conj().T


# --- channel dump / replay -------------------------------------------------

_DUMP_VERSION = "# thzris channel dump v4"


def dump_realization(real: ChannelRealization, config: "ExperimentConfig",
                     path) -> None:
    """Write one realization drawn under the sweep-point `config` as plain text
    (v4): the realization index, the config as `config key = value` lines, then
    one row per path (kind, four angles, gain re/im). The config is the
    only record of the array geometry, carrier and seed; enables exact replay."""
    from .harness import config_to_text   # harness imports this module
    lines = [_DUMP_VERSION, f"realization {real.realization}"]
    lines += [f"config {line}" for line in config_to_text(config).splitlines()]
    for tag, paths in (("h1", real.paths_h1), ("h2", real.paths_h2)):
        lines.append(f"paths_{tag} {len(paths)}")
        for p in paths:
            lines.append(" ".join([p.kind.value,
                                   repr(p.aoa_azimuth_rad), repr(p.aoa_elevation_rad),
                                   repr(p.aod_azimuth_rad), repr(p.aod_elevation_rad),
                                   repr(p.complex_gain.real), repr(p.complex_gain.imag)]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class DumpError(ValueError):
    """Malformed channel dump; the message names the file and line."""


# header keys, each holding one non-negative int; paths_<hop> precedes its rows
_DUMP_HEADER = ("realization", "paths_h1", "paths_h2")


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
    if len(tok) != 7 or tok[0] not in ("LoS", "NLoS"):
        raise DumpError(f"{where}: expected a path row (LoS or NLoS, then 6 numbers)")
    num = [_dump_number(t, float, where) for t in tok[1:]]
    return PathParams(PathKind(tok[0]), *num[:4], complex_gain=complex(num[4], num[5]))


def load_realization(path) -> ChannelRealization:
    """Parse a v4 channel dump: the config lines give the sweep-point config,
    under which both hops' path rows are checked through their roots (ris_root).

    A malformed dump, a config that sets a sweep (a dump holds one point's
    config), a referenced hop whose squared norm is not positive and finite, or
    a quadratic form whose trace is not, raises DumpError naming the file and
    line, and an unreadable file DumpError naming the file; an invalid config
    line raises ConfigError naming the file and line."""
    from .harness import parse_config   # harness imports this module
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DumpError(f"cannot read channel dump {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DumpError(f"{path}: not UTF-8 text ({exc.reason})") from None
    version = lines[0].strip() if lines else ""
    if version != _DUMP_VERSION:
        raise DumpError(f"{path}:1: expected '{_DUMP_VERSION}', got '{version}'")
    rows = iter([(n, ln.split()) for n, ln in enumerate(lines, start=1)
                 if ln.strip() and not ln.lstrip().startswith("#")])
    header, paths, at = {}, {}, {}
    config = [""] * len(lines)   # config text at its file line, so errors name it
    for n, (key, *vals) in rows:
        where = f"{path}:{n}"
        if key == "config":
            config[n - 1] = " ".join(vals)
            continue
        if key not in _DUMP_HEADER or key in header:
            raise DumpError(f"{where}: unexpected or repeated key '{key}'")
        if len(vals) != 1:
            raise DumpError(f"{where}: '{key}' takes 1 value, got {len(vals)}")
        value = header[key] = _dump_number(vals[0], int, where)
        if value < 0:
            raise DumpError(f"{where}: '{key}' value out of range")
        if key.startswith("paths_"):   # past the end of file reads as an empty row
            at[key] = where
            paths[key] = tuple(_path_row(path, *next(rows, (len(lines) + 1, [])))
                               for _ in range(value))
    missing = [key for key in _DUMP_HEADER if key not in header] + \
        ([] if any(config) else ["config"])
    if missing:
        raise DumpError(f"{path}:{len(lines)}: dump ends before '{missing[0]}'")
    cfg = parse_config(config, path)
    if cfg.sweep != "none":
        n = next(n for n, text in enumerate(config, start=1)
                 if text.split("#", 1)[0].split("=", 1)[0].strip() == "sweep")
        raise DumpError(f"{path}:{n}: a dump holds one sweep point's config, "
                        f"but it sets sweep = {cfg.sweep}")
    ris_norms = []   # each referenced hop's squared norms along its RIS elements
    for key, hop in (("paths_h1", Hop.BS_RIS), ("paths_h2", Hop.RIS_MS)):
        with np.errstate(over="ignore", invalid="ignore"):   # reported below
            ris_norms.append(np.sum(np.abs(ris_root(cfg, hop, paths[key])) ** 2, axis=1))
            norm = float(np.sum(ris_norms[-1]))
        if not 0.0 < norm < math.inf:
            raise DumpError(f"{at[key]}: the referenced {hop.value} hop has squared "
                            f"Frobenius norm {norm:g}, not positive and finite")
    with np.errstate(over="ignore"):   # tr(D) = sum_p ||P1[p]||^2 ||P2[p]||^2
        trace = float(ris_norms[0] @ ris_norms[1])
    if not 0.0 < trace < math.inf:
        raise DumpError(f"{at['paths_h1']}: the referenced hops' quadratic form has "
                        f"trace {trace:g}, not positive and finite")
    return ChannelRealization(paths_h1=paths["paths_h1"], paths_h2=paths["paths_h2"],
                              realization=header["realization"], config=cfg)
