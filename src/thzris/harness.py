"""Experiment orchestration: seeded Monte-Carlo sweeps over schemes and
hardware parameters, aggregated into deterministic CSV tables.

Reproducibility contract: every random draw comes from a generator seeded by
a 64-bit splittable hash of (master_seed, realization index, stream tag), so
results are byte-identical for a given config regardless of worker count or
execution order. A realization is its hops' path lists; a hop matrix is built
from its paths only where it is used, divided by its reference in the same
expression. Wall-clock columns default to zero for the same reason and
are only populated when timing capture is explicitly enabled.

Rate evaluation expresses every channel relative to the configured link
geometry: each RIS hop is divided by its deterministic LoS reference
amplitude, and the blocked direct link by the product of both references (the
cascade budget) plus a configurable excess obstruction loss. Raw THz path
gains sit hundreds of dB below the configured SNR axis, so this constant
offset keeps rates in a meaningful bps/Hz range while preserving every
relative comparison between schemes. The optimizer runs on the
trace-normalized quadratic form for the same reason (order-one step sizes).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, default_rng

from . import beamforming, channel, optimizer
from .channel import Hop, hop_reference
from .graphene import PhaseCodebook, build_codebook
from .optimizer import OptimizerSettings

SCHEMES = ("agd", "cgd", "exhaustive", "no_ris", "random")
# the ExperimentConfig field each sweep_grid value sets; "none" runs the config
# as a single point
SWEEPS = ("none", "n_ris", "phi_max_deg", "bits")

# quantize_phases allocates (n_ris, 2**bits) float arrays: 134 MB each at 16
# bits and n_ris = 256, while 40 bits would ask for terabytes
MAX_BITS = 16
# 10 ** (snr / 10) overflows a float above 3080 dB and the rate's log-det stops
# being finite near 3050 dB; +-300 dB still evaluates at desk and paper scale
MAX_SNR_DB = 300

CGD_CALIBRATION_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
CGD_CALIBRATION_REALIZATIONS = 10
# grid steps whose mean objectives lie this close (relative) to the best tie, and
# the smallest wins: on desk groups 1e-3 and 1e-2 reach the same float, which
# reassociated sums could otherwise split either way
CGD_CALIBRATION_TIE_RTOL = 1e-9


class ConfigError(ValueError):
    """Invalid experiment configuration (bad key, value, or constraint); `key`
    names the config key a failed check is about, if it is about one key."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class SweepRow(NamedTuple):
    sweep_value: float
    scheme: str
    snr_db: float
    mean_rate: float
    std_rate: float
    n_real: int
    mean_iters: float
    mean_wall_ms: float


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment (defaults are desk scale)."""

    n_bs: int = 64
    n_ris: int = 64
    n_ms: int = 16
    m_bs: int = 6
    m_ms: int = 4
    n_streams: int = 4
    carrier_freq_hz: float = 1.6e12
    bs_ris_m: float = 10.0
    ris_ms_m: float = 20.0
    bs_ms_m: float = 25.0
    kappa_per_m: float = 0.2
    xi: float = 1e-6
    n_nlos: int = 2
    n_nlos_direct: int = 3
    nlos_excess_min_m: float = 1.0
    nlos_excess_max_m: float = 10.0
    ris_element_period_m: float = 70e-6
    phi_max_deg: float = 306.82
    bits: int = 2
    mean_amplitude: float = 0.8
    snr_grid_db: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    n_realizations: int = 50
    master_seed: int = 1
    schemes: tuple = ("agd", "cgd", "no_ris", "random")
    sweep: str = "none"
    sweep_grid: tuple = ()
    direct_blockage_db: float = 20.0
    optimizer: OptimizerSettings = OptimizerSettings(fixed_step="auto")

    def codebook(self) -> PhaseCodebook:
        return build_codebook(math.radians(self.phi_max_deg), self.bits,
                              mean_amplitude=self.mean_amplitude)

    def validate(self) -> None:
        for key, value in _config_values(self).items():
            kind = CONFIG_SCHEMA[key][0]
            if kind.startswith("float") and not all(
                    v == "auto" or math.isfinite(v)
                    for v in (value if kind == "float_list" else (value,))):
                raise ConfigError(f"{key} must be finite, got {_format_value(value)}", key)
        if not self.n_bs >= self.m_bs:
            raise ConfigError(f"n_bs >= m_bs violated ({self.n_bs} < {self.m_bs})")
        if not self.m_bs >= self.n_streams:
            raise ConfigError(f"m_bs >= n_streams violated ({self.m_bs} < {self.n_streams})")
        if not self.n_ms >= self.m_ms:
            raise ConfigError(f"n_ms >= m_ms violated ({self.n_ms} < {self.m_ms})")
        if not self.m_ms >= self.n_streams:
            raise ConfigError(f"m_ms >= n_streams violated ({self.m_ms} < {self.n_streams})")
        for key in ("n_bs", "n_ris", "n_ms", "n_streams", "n_realizations",
                    "n_nlos_direct", "bits"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1", key)
        if self.bits > MAX_BITS:
            raise ConfigError(f"bits must be <= {MAX_BITS}", "bits")
        for key in ("carrier_freq_hz", "bs_ris_m", "ris_ms_m", "bs_ms_m",
                    "ris_element_period_m"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be > 0", key)
        for key in ("kappa_per_m", "n_nlos", "nlos_excess_min_m", "direct_blockage_db"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0", key)
        if self.nlos_excess_min_m > self.nlos_excess_max_m:
            raise ConfigError("nlos_excess_min_m <= nlos_excess_max_m violated "
                              f"(min {self.nlos_excess_min_m}, max {self.nlos_excess_max_m})")
        if not 0.0 <= self.xi <= 1.0:
            raise ConfigError("xi must lie in [0, 1]", "xi")
        # in radians, so that a subnormal value cannot leave the codebook a 0 rad span
        if not (0.0 < math.radians(self.phi_max_deg) and self.phi_max_deg <= 360.0):
            raise ConfigError("phi_max_deg must lie in (0, 360]", "phi_max_deg")
        if not 0.5 <= self.mean_amplitude <= 1.0:
            raise ConfigError("mean_amplitude must lie in [0.5, 1]", "mean_amplitude")
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db must not be empty", "snr_grid_db")
        if any(abs(snr) > MAX_SNR_DB for snr in self.snr_grid_db):
            raise ConfigError(f"snr_grid_db values must lie in [-{MAX_SNR_DB}, {MAX_SNR_DB}] dB, "
                              f"got {_format_value(self.snr_grid_db)}", "snr_grid_db")
        for hop in Hop:
            ref = _magnitude(hop_reference, self, hop)
            if not 0.0 < ref < math.inf:
                keys = (("bs_ris_m", "ris_ms_m", "direct_blockage_db") if hop is Hop.BS_MS_DIRECT
                        else (channel.HOP_DISTANCE[hop],))
                raise ConfigError(f"the {hop.value} hop's LoS reference is {ref:g}, not "
                                  "positive and finite; it is computed from "
                                  + ", ".join(("carrier_freq_hz", "kappa_per_m") + keys))
        gain = _magnitude(channel.nlos_gain, self, Hop.BS_MS_DIRECT, self.bs_ms_m,
                          self.nlos_excess_min_m)
        if not math.isfinite(gain):
            raise ConfigError(f"the direct hop's reflected-path gain at its shortest detour is "
                              f"{gain:g}, not finite; it is computed from carrier_freq_hz, "
                              "kappa_per_m, xi, bs_ms_m, nlos_excess_min_m")
        # no_ris divides its hop by the cascade budget, which its gains do not track. Its rate
        # forms s_i^2 and snr/Ns s_i^2 <= max(1, snr) ||H||_F^2 <= bound, as gain is the largest
        bound = _magnitude(lambda: max(1.0, 10.0 ** (max(self.snr_grid_db) / 10.0))
                           * self.n_nlos_direct * self.n_bs * self.n_ms
                           * (gain / _magnitude(hop_reference, self, Hop.BS_MS_DIRECT)) ** 2)
        if not math.isfinite(bound):
            raise ConfigError(f"the direct hop's rate terms are bounded by {bound:g}, not "
                              "finite; the bound is computed from snr_grid_db, n_nlos_direct, "
                              "n_bs, n_ms, carrier_freq_hz, kappa_per_m, xi, bs_ms_m, "
                              "nlos_excess_min_m, bs_ris_m, ris_ms_m, direct_blockage_db")
        unknown = set(self.schemes) - set(SCHEMES)
        if not self.schemes or unknown:
            raise ConfigError(f"schemes must be a non-empty subset of {SCHEMES}"
                              + (f"; unknown: {sorted(unknown)}" if unknown else ""), "schemes")
        if self.sweep not in SWEEPS:
            raise ConfigError(f"sweep must be one of {SWEEPS}", "sweep")
        for key in ("schemes", "snr_grid_db", "sweep_grid"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ConfigError(f"{key} repeats a value: {_format_value(values)}", key)
        # (2^bits)^n_ris > LIMIT, compared by exponent: the power itself grows with n_ris
        if "exhaustive" in self.schemes and \
                self.bits * self.n_ris >= optimizer.EXHAUSTIVE_LIMIT.bit_length():
            raise ConfigError("scheme 'exhaustive' infeasible: (2^bits)^n_ris "
                              f"exceeds {optimizer.EXHAUSTIVE_LIMIT}")
        if self.sweep != "none":
            kind = type(getattr(ExperimentConfig, self.sweep))   # the type of its default
            if not self.sweep_grid:
                raise ConfigError(f"sweep '{self.sweep}' needs a non-empty sweep_grid",
                                  "sweep_grid")
            if any(kind(v) != v for v in self.sweep_grid):
                raise ConfigError(f"sweep '{self.sweep}' needs {kind.__name__} sweep_grid "
                                  f"values, got {_format_value(self.sweep_grid)}",
                                  "sweep_grid")
            for value, point in (p for group in _point_groups(self) for p in group):
                try:
                    point.validate()
                except ConfigError as exc:
                    raise ConfigError(f"sweep_grid value {value:g}: {exc}",
                                      "sweep_grid") from None


def stream_seed(master_seed: int, realization: int, tag: str) -> int:
    """64-bit stream seed: leading 8 bytes of SHA-256('master:realization:tag').

    Documented so channel dumps and sweeps can be replayed bit-exactly by any
    implementation of the same derivation.
    """
    msg = f"{master_seed}:{realization}:{tag}".encode()
    return int.from_bytes(hashlib.sha256(msg).digest()[:8], "big")


def stream_rng(master_seed: int, realization: int, tag: str) -> Generator:
    return default_rng(stream_seed(master_seed, realization, tag))


def _magnitude(fn, *args) -> float:
    """abs(fn(*args)), or inf where its float arithmetic overflows or divides by zero."""
    try:
        return float(abs(fn(*args)))
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _draw_paths(cfg: ExperimentConfig, hop: Hop, r: int, tag: str = "") -> tuple:
    """Realization r's path list of one hop, drawn from stream tag + hop.value."""
    return channel.sample_paths(cfg, hop, stream_rng(cfg.master_seed, r, tag + hop.value))


def _referenced_hop(cfg: ExperimentConfig, hop: Hop, paths) -> np.ndarray:
    """The hop matrix of a path list divided by the hop's reference; the raw
    matrix is a temporary of this expression."""
    return channel.hop_matrix(cfg, hop, paths) / hop_reference(cfg, hop)


def _rates_for_channel(he: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """Rates over snr_grid_db: sum log2(1 + snr/Ns s_i^2) over he's Ns leading singular
    values, achievable_rate's log-det under SVD beamforming; LinAlgError if not finite."""
    s2 = np.linalg.svd(he, compute_uv=False)[:config.n_streams] ** 2
    rates = np.array([np.sum(np.log2(1.0 + 10.0 ** (snr / 10.0) / config.n_streams * s2))
                      for snr in config.snr_grid_db])
    if not np.all(np.isfinite(rates)):
        raise np.linalg.LinAlgError(f"a rate is not finite: {rates}")
    return rates


def _point_groups(config: ExperimentConfig) -> list:
    """The sweep's sorted (sweep_value, point config) pairs, a point config holding
    its grid value in the swept field, in groups that share each realization's RIS
    hops, form, descents and C-GD calibration: one group for a phi_max_deg or bits
    sweep, whose points differ only in the codebook, which descents and calibration
    read only through mean_amplitude, else one group per point."""
    if config.sweep == "none":
        return [[(0.0, config)]]
    kind = type(getattr(ExperimentConfig, config.sweep))
    points = [(float(v), replace(config, sweep="none", sweep_grid=(), **{config.sweep: kind(v)}))
              for v in sorted(config.sweep_grid)]
    return [points] if config.sweep in ("phi_max_deg", "bits") else [[p] for p in points]


def _run_point(real: channel.ChannelRealization, cfgs: list, schemes) -> list:
    """One scheme -> (rates, iterations, wall ms) dict per point config of a
    group, for the RIS schemes on the realization's referenced hops. A-GD and
    C-GD descend once on their trace-normalized form and each point quantizes
    their best phases with its own codebook; random and exhaustive run per
    point. A scheme's wall time spans its optimization through a point's rates.
    The sweep and replay both run this."""
    h1 = _referenced_hop(real.config, Hop.BS_RIS, real.paths_h1)
    h2 = _referenced_hop(real.config, Hop.RIS_MS, real.paths_h2)
    form, _ = optimizer.build_quadratic_form(h1, h2).trace_normalized()
    descents = {}   # scheme -> (best continuous phases, wall ms)
    for scheme, run in (("agd", optimizer.run_agd), ("cgd", optimizer.run_cgd)):
        if scheme in schemes:
            t0 = time.perf_counter()
            best = run(form, cfgs[0].mean_amplitude, cfgs[0].optimizer).best_phases_rad
            descents[scheme] = (best, (time.perf_counter() - t0) * 1e3)
    out = []
    for cfg in cfgs:
        codebook, point = cfg.codebook(), {}
        for scheme in schemes:
            t0, shared_ms = time.perf_counter(), 0.0
            if scheme in descents:
                best, shared_ms = descents[scheme]
                phases = optimizer.quantize_phases(best, codebook)
                n_iters = cfg.optimizer.max_iterations
            elif scheme == "random":
                rng = stream_rng(cfg.master_seed, real.realization, "random")
                phases = optimizer.run_random_phase(form.n_ris, codebook, rng)
                n_iters = 1
            else:   # exhaustive, the one other scheme validate() admits
                phases, _ = optimizer.run_exhaustive(form, codebook)
                n_iters = codebook.size ** form.n_ris
            theta = codebook.mean_amplitude * np.exp(1j * phases)
            he = beamforming.cascaded_channel(h1, h2, theta)
            point[scheme] = (_rates_for_channel(he, cfg), n_iters,
                             shared_ms + (time.perf_counter() - t0) * 1e3)
        out.append(point)
    return out


def _run_realization(r: int, config: ExperimentConfig, groups: list, dump_dir) -> list:
    """One {scheme: (rates, iterations, wall ms)} per sweep point, in point order,
    for channel realization r. The direct hop depends on no swept field, so its
    no_ris result is drawn once and shared by every point; the RIS hops' path
    lists are drawn once per group, and their matrices built only for a RIS scheme."""
    direct = {}
    if "no_ris" in config.schemes:
        paths = _draw_paths(config, Hop.BS_MS_DIRECT, r)
        t0 = time.perf_counter()
        rates = _rates_for_channel(_referenced_hop(config, Hop.BS_MS_DIRECT, paths), config)
        direct["no_ris"] = (rates, 0, (time.perf_counter() - t0) * 1e3)
    ris_schemes = [s for s in config.schemes if s != "no_ris"]
    out = []
    for group in groups:
        cfgs = [cfg for _, cfg in group]
        real = channel.ChannelRealization(
            paths_h1=_draw_paths(cfgs[0], Hop.BS_RIS, r),
            paths_h2=_draw_paths(cfgs[0], Hop.RIS_MS, r), realization=r, config=cfgs[0])
        if dump_dir is not None:
            for cfg in cfgs:
                name = config.sweep   # the file name carries the swept field's value
                suffix = "" if name == "none" else f"_{name}{getattr(cfg, name)}"
                channel.dump_realization(replace(real, config=cfg), cfg,
                                         f"{dump_dir}/real{r:05d}{suffix}.txt")
        results = _run_point(real, cfgs, ris_schemes) if ris_schemes else [{}] * len(cfgs)
        out += [{**direct, **point} for point in results]
    return out


@functools.cache
def _bundled_openblas():
    """The OpenBLAS library numpy bundles (numpy.libs), or None without one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    names = os.listdir(libs) if os.path.isdir(libs) else []
    name = next((n for n in names if n.startswith("libscipy_openblas")), None)
    return None if name is None else ctypes.CDLL(os.path.join(libs, name))


def _set_blas_threads(n: int):
    """Set numpy's OpenBLAS to n threads and return the count it had, or None,
    changing nothing, where that OpenBLAS lacks the thread-count calls."""
    lib = _bundled_openblas()
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or set_threads is None:
        return None
    previous = get()
    set_threads(n)
    return previous


@contextlib.contextmanager
def _blas_threads(n: int):
    """n BLAS threads inside the block, and the count found on entry after it,
    also on an exception. A threaded LAPACK SVD differs in the last bits, so
    rows match across worker counts only if every run uses one thread."""
    previous = _set_blas_threads(n)
    try:
        yield
    finally:
        if previous is not None:
            _set_blas_threads(previous)


@_blas_threads(1)
def replay_realization(path, snr_db: float) -> tuple:
    """The agd and random rates at snr_db of one dumped realization, re-derived
    by the sweep's own per-point code under the dumped point config. Returns
    (summary lines: seed, and each hop's shape, Frobenius norm and path count;
    point config; {scheme: rate})."""
    real = channel.load_realization(path)
    cfg = replace(real.config, snr_grid_db=(snr_db,))
    summary = [f"seed {real.seed}"] + [
        f"{name} {hop.shape[0]}x{hop.shape[1]}  ||{name}||_F = {np.linalg.norm(hop):.6e}"
        f"  paths = {len(paths)}"
        for name, hop, paths in (("h1", real.h1, real.paths_h1), ("h2", real.h2, real.paths_h2))]
    point, = _run_point(real, [cfg], ("agd", "random"))
    return summary, cfg, {scheme: float(res[0][0]) for scheme, res in point.items()}


def _calibration_factor(config: ExperimentConfig, c: int) -> np.ndarray:
    """Calibration realization c's trace-normalized form as its thin path factor
    G (G G^H = D), built from the path lists drawn from the calib- streams; no
    hop matrix or dense form is built. Each w is divided by its hop's
    reference, as the sweep's hops are."""
    hops = []
    for hop in (Hop.BS_RIS, Hop.RIS_MS):
        rx, w, tx = channel.hop_factors(config, hop, _draw_paths(config, hop, c, "calib-"))
        hops.append((rx, w / hop_reference(config, hop), tx))
    return optimizer.trace_normalized_factor(*hops)


def calibrate_fixed_step(config: ExperimentConfig) -> float:
    """Pick the constant step with the best mean objective on a small seeded
    calibration batch (streams disjoint from the main experiment): the smallest
    grid step whose mean is within CGD_CALIBRATION_TIE_RTOL of the best. Every
    form and grid step descends in one block on the forms' stacked path factors.
    A mean that is not finite raises ValueError."""
    factors = np.stack([_calibration_factor(config, c)
                        for c in range(CGD_CALIBRATION_REALIZATIONS)])
    means = optimizer.fixed_step_best_objectives(
        factors, CGD_CALIBRATION_GRID, config.mean_amplitude,
        config.optimizer.max_iterations).mean(axis=0)
    for step, mean_obj in zip(CGD_CALIBRATION_GRID, means):
        if not math.isfinite(mean_obj):
            raise ValueError(f"C-GD calibration at step {step} (n_ris = {config.n_ris}) "
                             f"has mean objective {mean_obj}")
    best_mean = max(means)
    return min(step for step, mean_obj in zip(CGD_CALIBRATION_GRID, means)
               if best_mean - mean_obj <= CGD_CALIBRATION_TIE_RTOL * abs(best_mean))


@_blas_threads(1)
def run_experiment(config: ExperimentConfig, workers: int = 1,
                   dump_dir=None, timing: bool = False) -> tuple:
    """The configured Monte-Carlo sweep's SweepRows, sorted; deterministic for any
    worker count. With cgd calibrated, each point config carries the C-GD step it runs.
    mean_wall_ms is 0 unless `timing` is set, which makes the rows non-reproducible."""
    config.validate()
    groups = _point_groups(config)
    if "cgd" in config.schemes and config.optimizer.fixed_step == "auto":
        for group in groups:   # calibrated once, on the group's first point
            opt = replace(group[0][1].optimizer, fixed_step=calibrate_fixed_step(group[0][1]))
            group[:] = [(value, replace(cfg, optimizer=opt)) for value, cfg in group]
    run = partial(_run_realization, config=config, groups=groups, dump_dir=dump_dir)
    if workers > 1:
        # imported here: the pool loads multiprocessing, socket and logging
        from concurrent.futures import ProcessPoolExecutor
        # one BLAS thread per worker too, so that workers do not oversubscribe the cores
        with ProcessPoolExecutor(max_workers=min(workers, config.n_realizations),
                                 initializer=_set_blas_threads, initargs=(1,)) as pool:
            results = list(pool.map(run, range(config.n_realizations)))
    else:
        results = list(map(run, range(config.n_realizations)))

    rows = []
    for k, (value, _) in enumerate(point for group in groups for point in group):
        for scheme in config.schemes:
            # (R, Q) rates, (R,) iterations and wall ms over the realizations
            rates, iters, wall = map(np.array, zip(*(res[k][scheme] for res in results)))
            for q, snr in enumerate(config.snr_grid_db):
                rows.append(SweepRow(
                    sweep_value=float(value), scheme=scheme, snr_db=float(snr),
                    mean_rate=float(np.mean(rates[:, q])),
                    std_rate=float(np.std(rates[:, q])),
                    n_real=config.n_realizations,
                    mean_iters=float(np.mean(iters)),
                    mean_wall_ms=float(np.mean(wall)) if timing else 0.0))
    return tuple(sorted(rows, key=lambda row: (row.sweep_value, row.scheme, row.snr_db)))


CSV_HEADER = ",".join(SweepRow._fields)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def emit_csv(rows, path) -> None:
    """Write the sweep table: 9-significant-digit floats, LF endings, UTF-8."""
    lines = [CSV_HEADER] + [",".join(_fmt(v) for v in row) for row in rows]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


# --- config files ------------------------------------------------------------

# key -> (value kind, documentation): the one list of config keys, each the
# name of its ExperimentConfig or OptimizerSettings field.
CONFIG_SCHEMA = {
    "n_bs": ("int", "BS antenna count"),
    "n_ris": ("int", "RIS element count"),
    "n_ms": ("int", "MS antenna count"),
    "m_bs": ("int", "BS RF chains"),
    "m_ms": ("int", "MS RF chains"),
    "n_streams": ("int", "spatial streams"),
    "carrier_freq_hz": ("float", "carrier frequency (Hz)"),
    "bs_ris_m": ("float", "BS to RIS distance (m)"),
    "ris_ms_m": ("float", "RIS to MS distance (m)"),
    "bs_ms_m": ("float", "BS to MS direct distance (m)"),
    "kappa_per_m": ("float", "molecular absorption coefficient (1/m)"),
    "xi": ("float", "material reflection coefficient of scatterers"),
    "n_nlos": ("int", "reflected paths per RIS hop"),
    "n_nlos_direct": ("int", "reflected paths of the blocked direct link"),
    "nlos_excess_min_m": ("float", "min detour excess of reflected paths (m)"),
    "nlos_excess_max_m": ("float", "max detour excess of reflected paths (m)"),
    "ris_element_period_m": ("float", "RIS element side length / spacing (m)"),
    "phi_max_deg": ("float", "maximum element phase response (deg)"),
    "bits": ("int", "phase quantization bits"),
    "mean_amplitude": ("float", "mean reflecting amplitude in [0.5, 1]"),
    "snr_grid_db": ("float_list", "SNR grid (dB)"),
    "n_realizations": ("int", "Monte-Carlo channel realizations"),
    "master_seed": ("int", "64-bit master seed"),
    "schemes": ("str_list", f"subset of {'/'.join(SCHEMES)}"),
    "sweep": ("str", f"swept field, one of {'/'.join(SWEEPS)}"),
    "sweep_grid": ("float_list", "values of the swept field (unused for none)"),
    "direct_blockage_db": ("float", "excess obstruction loss of the blocked direct link (dB)"),
    "max_iterations": ("int", "gradient-descent iteration budget"),
    "fixed_step": ("float_or_auto", "C-GD step size; 'auto' calibrates once per n_ris value"),
}


_OPTIMIZER_FIELDS = tuple(f.name for f in fields(OptimizerSettings))


def _config_values(config: ExperimentConfig) -> dict:
    """key -> value of config for every CONFIG_SCHEMA key, in schema order."""
    return {key: getattr(config.optimizer if key in _OPTIMIZER_FIELDS else config, key)
            for key in CONFIG_SCHEMA}


def _parse_value(kind: str, raw: str, where: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind.endswith("_list"):   # an empty value is the empty list
            items = tuple(tok.strip() for tok in raw.split(",")) if raw.strip() else ()
            if "" in items:
                raise ValueError(f"empty list item in '{raw}'")
            return tuple(map(float, items)) if kind == "float_list" else items
        if kind == "float_or_auto":
            return "auto" if raw.lower() == "auto" else float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_config(values: dict) -> ExperimentConfig:
    """Config from parsed key -> value pairs; absent keys keep their defaults.
    An optimizer key OptimizerSettings rejects raises ConfigError naming it."""
    merged = {**_config_values(ExperimentConfig()), **values}
    opt = {name: merged.pop(name) for name in _OPTIMIZER_FIELDS}
    for name, value in opt.items():   # each OptimizerSettings check is about one field
        try:
            OptimizerSettings(**{name: value})
        except ValueError as exc:
            raise ConfigError(str(exc), name) from None
    return ExperimentConfig(optimizer=OptimizerSettings(**opt), **merged)


def load_config(path) -> ExperimentConfig:
    """Parse a key = value config file; unknown keys and constraint violations
    raise ConfigError with the offending location."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:   # its position counts from a read buffer, not the file
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_config(raw_lines, path)


def parse_config(raw_lines, path) -> ExperimentConfig:
    """Config from key = value lines; errors name `path` and the line number, or
    only `path` for a failed check about no single key set in the lines."""
    values, line_of = {}, {}
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (tok.strip() for tok in line.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        values[key] = _parse_value(CONFIG_SCHEMA[key][0], val, f"{path}:{lineno}: {key}")
        line_of[key] = lineno
    try:
        config = _build_config(values)
        config.validate()
    except ConfigError as exc:
        where = f"{path}:{line_of[exc.key]}" if exc.key in line_of else path
        raise ConfigError(f"{where}: {exc}") from exc
    return config


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_text(config: ExperimentConfig) -> str:
    """Render a config as a parseable key = value file."""
    return "".join(f"{key} = {_format_value(value)}\n"
                   for key, value in _config_values(config).items())


def config_reference() -> str:
    """Human-readable reference of every config key, default, and meaning."""
    defaults = _config_values(ExperimentConfig())
    width = max(len(k) for k in CONFIG_SCHEMA)
    lines = ["# experiment config keys (key = default): file format is",
             "# 'key = value' per line, '#' comments, lists comma-separated"]
    for key, (_, doc) in CONFIG_SCHEMA.items():
        lines.append(f"{key:<{width}} = {_format_value(defaults[key]):<24} # {doc}")
    return "\n".join(lines) + "\n"


# --- figure presets -----------------------------------------------------------

# Presets budget 400 gradient iterations: the adaptive scheme's early
# large-step phase needs ~150 iterations at desk scale before it settles, and
# both gradient schemes should run in their converged regime for fair sweeps.
_PRESET_OPT = OptimizerSettings(max_iterations=400, fixed_step="auto")

_DESK = dict(n_bs=64, n_ris=64, n_ms=16, n_realizations=50, optimizer=_PRESET_OPT)
_PAPER = dict(n_bs=512, n_ris=256, n_ms=32, n_realizations=100, optimizer=_PRESET_OPT)

_FIG = {
    "fig5": dict(sweep="phi_max_deg",
                 sweep_grid=(60.0, 120.0, 180.0, 240.0, 306.82, 360.0),
                 snr_grid_db=(10.0,)),
    "fig6": dict(sweep="bits", sweep_grid=(1.0, 2.0, 3.0, 4.0),
                 snr_grid_db=(10.0,)),
    "fig7": dict(sweep="none",
                 snr_grid_db=(-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)),
    "fig8": dict(sweep="n_ris", snr_grid_db=(10.0,)),
}

_FIG8_GRID = {"desk": (16.0, 32.0, 64.0, 96.0, 128.0),
              "paper": (64.0, 128.0, 192.0, 256.0)}


def preset_names() -> list:
    return [f"{fig}-{scale}" for fig in sorted(_FIG) for scale in ("desk", "paper")]


def preset(name: str) -> ExperimentConfig:
    """Built-in experiment presets: fig5..fig8, each at desk and paper scale."""
    try:
        fig, scale = name.split("-")
        if scale not in ("desk", "paper"):
            raise KeyError(scale)
        overrides = dict(_DESK if scale == "desk" else _PAPER)
        overrides.update(_FIG[fig])
        if fig == "fig8":
            overrides["sweep_grid"] = _FIG8_GRID[scale]
    except (ValueError, KeyError):
        raise ConfigError(f"unknown preset '{name}'; available: "
                          f"{', '.join(preset_names())}") from None
    config = replace(ExperimentConfig(), **overrides)
    config.validate()
    return config
