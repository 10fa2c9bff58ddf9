"""Experiment orchestration: seeded Monte-Carlo sweeps over schemes and
hardware parameters, aggregated into deterministic CSV tables.

Reproducibility contract: every random draw comes from a generator seeded by
a 64-bit splittable hash of (master_seed, realization index, stream tag), so
results are byte-identical for a given config regardless of worker count or
execution order. A realization is its hops' path lists. Rates, C-GD, A-GD's stop and
replay's summary read the hops' thin roots (channel.ris_root); only the dense form of
A-GD and exhaustive search builds hop matrices (channel.referenced_hop). The sweep runs
its point groups (_point_groups) in turn: the parent process calibrates a group's C-GD
step, draws each realization's RIS path lists once, writes the group's dumps, builds
each realization's roots once and descends the group's C-GD on their factors as one
block (_factor_descents); a map, over a process pool for workers > 1, runs each
realization's points (_run_point). no_ris (_direct_result) reads no swept field and is
mapped once per run. Each mapped task carries all it reads, so rows and dumps do not
depend on the worker count; wall-clock columns stay zero unless timing is enabled.

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
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, default_rng

from . import channel, optimizer
from .channel import Hop
from .graphene import PhaseCodebook, build_codebook
from .optimizer import OptimizerSettings

SCHEMES = ("agd", "cgd", "exhaustive", "no_ris", "random")
# the ExperimentConfig field each sweep_grid value sets; "none" runs the config
# as a single point
SWEEPS = ("none", "n_ris", "phi_max_deg", "bits")

# quantize_phases allocates (n_ris, 2**bits) float arrays: 134 MB each at 16
# bits and n_ris = 256, while 40 bits would ask for terabytes
MAX_BITS = 16
# channel.upa_dims finds an array's grid by trial division down from isqrt(n),
# at most 256 divisions up to this count, where the dense BS-RIS hop of
# 65536 x 65536 elements would already need 64 GiB
MAX_ELEMENTS = 65536
# channel.sample_paths draws paths one by one and a hop build takes a column a path:
# at desk scale 4096 paths a hop draw in 0.1 s and reference in 0.3 s; 10**10 hang
MAX_PATHS = 4096
# 10 ** (snr / 10) overflows a float above 3080 dB and the rate's log-det stops
# being finite near 3050 dB; +-300 dB still evaluates at desk and paper scale
MAX_SNR_DB = 300

CGD_CALIBRATION_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
CGD_CALIBRATION_REALIZATIONS = 10
# grid steps whose mean objectives lie this close (relative) to the best tie, and
# the smallest wins: on desk groups 1e-3 and 1e-2 reach the same float, which
# reassociated sums could otherwise split either way
CGD_CALIBRATION_TIE_RTOL = 1e-9
# A-GD stops at its first best objective within this (relative) of the bound U,
# which certifies it within this of the continuous optimum. At rank 1, as on every
# preset, A-GD attains U to about 1e-14, but U is widened by 1e-12: at 1e-12 only 2
# of 12 fig7-paper runs certified, while 3e-12 to 1e-10 stopped every run at the
# same iterations; the tightest decade in that range is the pick
AGD_CERTIFICATE_RTOL = 1e-11


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


def _key(default, kind: str, doc: str):
    """A config key's field: its default, the kind of value parsed for it, and
    its config_reference doc."""
    return field(default=default, metadata={"kind": kind, "doc": doc})


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment (defaults are desk scale). Each field
    but `optimizer` is the config key of its name, declared by _key."""

    n_bs: int = _key(64, "int", "BS antenna count")
    n_ris: int = _key(64, "int", "RIS element count")
    n_ms: int = _key(16, "int", "MS antenna count")
    m_bs: int = _key(6, "int", "BS RF chains")
    m_ms: int = _key(4, "int", "MS RF chains")
    n_streams: int = _key(4, "int", "spatial streams")
    carrier_freq_hz: float = _key(1.6e12, "float", "carrier frequency (Hz)")
    bs_ris_m: float = _key(10.0, "float", "BS to RIS distance (m)")
    ris_ms_m: float = _key(20.0, "float", "RIS to MS distance (m)")
    bs_ms_m: float = _key(25.0, "float", "BS to MS direct distance (m)")
    kappa_per_m: float = _key(0.2, "float", "molecular absorption coefficient (1/m)")
    xi: float = _key(1e-6, "float", "material reflection coefficient of scatterers")
    n_nlos: int = _key(2, "int", "reflected paths per RIS hop")
    n_nlos_direct: int = _key(3, "int", "reflected paths of the blocked direct link")
    nlos_excess_min_m: float = _key(1.0, "float", "min detour excess of reflected paths (m)")
    nlos_excess_max_m: float = _key(10.0, "float", "max detour excess of reflected paths (m)")
    ris_element_period_m: float = _key(70e-6, "float", "RIS element side length / spacing (m)")
    phi_max_deg: float = _key(306.82, "float", "maximum element phase response (deg)")
    bits: int = _key(2, "int", "phase quantization bits")
    mean_amplitude: float = _key(0.8, "float", "mean reflecting amplitude in [0.5, 1]")
    snr_grid_db: tuple = _key((-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0), "float_list",
                              "SNR grid (dB)")
    n_realizations: int = _key(50, "int", "Monte-Carlo channel realizations")
    master_seed: int = _key(1, "int", "64-bit master seed")
    schemes: tuple = _key(("agd", "cgd", "no_ris", "random"), "str_list",
                          f"subset of {'/'.join(SCHEMES)}")
    sweep: str = _key("none", "str", f"swept field, one of {'/'.join(SWEEPS)}")
    sweep_grid: tuple = _key((), "float_list", "values of the swept field (empty for none)")
    direct_blockage_db: float = _key(20.0, "float", "excess obstruction loss of the blocked "
                                     "direct link (dB)")
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
        for key in ("n_nlos", "n_nlos_direct"):
            if getattr(self, key) > MAX_PATHS:
                raise ConfigError(f"{key} must be <= {MAX_PATHS}", key)
        for key in ("n_bs", "n_ris", "n_ms"):
            if getattr(self, key) > MAX_ELEMENTS:
                raise ConfigError(f"{key} must be <= {MAX_ELEMENTS}", key)
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
            ref = _magnitude(channel.hop_reference, self, hop)
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
                           * (gain / _magnitude(channel.hop_reference, self,
                                                Hop.BS_MS_DIRECT)) ** 2)
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
        if self.sweep == "none" and self.sweep_grid:
            raise ConfigError("sweep 'none' takes an empty sweep_grid", "sweep_grid")
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


def _rates_for_channel(he: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """Rates over snr_grid_db: sum log2(1 + snr/Ns s_i^2) over the Ns leading singular values
    of he, any matrix with the channel's nonzero singular values (a path core or a root),
    achievable_rate's log-det under SVD beamforming; LinAlgError if not finite."""
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


def _direct_result(config: ExperimentConfig, r: int) -> tuple:
    """Realization r's no_ris (rates, iterations, wall ms), from the direct hop's root
    (P P^H = Hr^H Hr); it reads no swept field, so one result serves every point."""
    paths = _draw_paths(config, Hop.BS_MS_DIRECT, r)
    t0 = time.perf_counter()
    rates = _rates_for_channel(channel.ris_root(config, Hop.BS_MS_DIRECT, paths), config)
    return rates, 0, (time.perf_counter() - t0) * 1e3


def _run_point(cfgs: list, schemes, real, roots: tuple, target=None, cgd=None) -> list:
    """One scheme -> (rates, iterations, wall ms) dict per point config of a group, for the
    RIS schemes on one realization given its hops' roots (P1, P2) (_roots). Rates come
    from the path core P2^H diag(theta) P1, at most L2 x L1, with the singular values of
    H2 diag(theta) H1. A-GD descends once on the trace-normalized form of the referenced
    hops, which only A-GD and exhaustive search read, until a best objective reaches
    `target`; it and C-GD's (best phases, wall ms), `cgd`, come from _factor_descents.
    Each point quantizes both best phases with its own codebook; random and exhaustive
    run per point. A scheme's wall time spans its optimization through a point's rates.
    The sweep and replay both run this."""
    if "agd" in schemes or "exhaustive" in schemes:
        form, _ = optimizer.build_quadratic_form(
            channel.referenced_hop(real.config, Hop.BS_RIS, real.paths_h1),
            channel.referenced_hop(real.config, Hop.RIS_MS, real.paths_h2)).trace_normalized()
    descents = {} if cgd is None else {"cgd": cgd}   # scheme -> (best phases, wall ms)
    if "agd" in schemes:
        t0, mu = time.perf_counter(), cfgs[0].mean_amplitude
        best = optimizer.run_agd(form, mu, cfgs[0].optimizer, target).best_phases_rad
        descents["agd"] = (best, (time.perf_counter() - t0) * 1e3)
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
                phases = optimizer.run_random_phase(cfg.n_ris, codebook, rng)
                n_iters = 1
            else:   # exhaustive, the one other scheme validate() admits
                phases, _ = optimizer.run_exhaustive(form, codebook)
                n_iters = codebook.size ** cfg.n_ris
            theta = codebook.mean_amplitude * np.exp(1j * phases)
            core = (roots[1].conj().T * theta) @ roots[0]   # P2^H diag(theta) P1
            point[scheme] = (_rates_for_channel(core, cfg), n_iters,
                             shared_ms + (time.perf_counter() - t0) * 1e3)
        out.append(point)
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
    """The agd and random rates at snr_db of one dumped realization, re-derived by the
    sweep's own per-point code under the dumped point config from roots and a factor
    built here as the sweep builds them. Returns (summary lines: seed, and each hop's
    shape, Frobenius norm and path count; point config; {scheme: rate})."""
    real = channel.load_realization(path)
    cfg = replace(real.config, snr_grid_db=(snr_db,))
    roots, summary = _roots(cfg, (real.paths_h1, real.paths_h2)), [f"seed {real.seed}"]
    for hop, paths, root in zip((Hop.BS_RIS, Hop.RIS_MS), (real.paths_h1, real.paths_h2), roots):
        norm = channel.hop_reference(cfg, hop) * float(np.linalg.norm(root))
        rx, tx = channel.hop_arrays(cfg, hop)
        summary.append(f"{hop.value} {rx.size}x{tx.size}  ||{hop.value}||_F = "
                       f"{norm:.6e}  paths = {len(paths)}")
    targets, _ = _factor_descents(cfg, [roots], ("agd",))
    point, = _run_point([cfg], ("agd", "random"), real, roots, targets[0])
    return summary, cfg, {scheme: float(res[0][0]) for scheme, res in point.items()}


def _ris_paths(config: ExperimentConfig, r: int, tag: str = "") -> tuple:
    """Realization r's (BS-RIS, RIS-MS) path lists, drawn from the streams tag + hop:
    tag "" for the sweep's, "calib-" for calibration's."""
    return tuple(_draw_paths(config, hop, r, tag) for hop in (Hop.BS_RIS, Hop.RIS_MS))


def _roots(config: ExperimentConfig, paths: tuple) -> tuple:
    """Thin roots (P1, P2) (channel.ris_root) of one realization's RIS hops' path lists."""
    return tuple(channel.ris_root(config, hop, hop_paths)
                 for hop, hop_paths in zip((Hop.BS_RIS, Hop.RIS_MS), paths))


def _factor_descents(config: ExperimentConfig, roots: list, schemes) -> tuple:
    """Each realization's A-GD target and C-GD (best phases, wall ms) for a point group
    whose first point config is `config`, from the thin factors of its realizations'
    roots, built here and freed on return; None unless agd or cgd (for C-GD's, cgd) is in
    `schemes`. A-GD stops at U (1 - AGD_CERTIFICATE_RTOL) of its factor (_objective_bound);
    C-GD descends at the group's step as one block, a realization's ms its share."""
    none, mu = [None] * len(roots), config.mean_amplitude
    if "agd" not in schemes and "cgd" not in schemes:
        return none, none
    p1, p2 = roots[0]   # filled in turn: np.stack of a list holds every factor twice
    factors = np.empty((len(roots), len(p1), p1.shape[1] * p2.shape[1]), dtype=complex)
    for g, pair in zip(factors, roots):
        g[...] = optimizer.trace_normalized_factor(*pair)
    targets = [_objective_bound(g[None], mu) * (1 - AGD_CERTIFICATE_RTOL) for g in factors]
    if "cgd" not in schemes:
        return targets, none
    t0, opt = time.perf_counter(), config.optimizer
    _, best = optimizer.fixed_step_descents(factors, (opt.fixed_step,), mu, opt.max_iterations)
    ms = (time.perf_counter() - t0) * 1e3 / len(roots)
    return targets, [(phases, ms) for phases in best[:, 0]]


def _objective_bound(factors: np.ndarray, mean_amplitude: float) -> float:
    """U = mu^2 N mean_f sigma_max(G_f)^2 over an (F, N, L) factor stack, widened
    by 1e-12 relative for rounding: no mean over the forms of objectives
    mu^2 ||G_f^H u||^2 of unit-modulus u exceeds it. An F = 1 stack bounds one
    form's objective, as A-GD's stop in _run_point uses it."""
    sigma = np.linalg.svd(factors, compute_uv=False)[:, 0]
    return mean_amplitude ** 2 * factors.shape[1] * float(np.mean(sigma ** 2)) * (1 + 1e-12)


def _tie_pick(steps, means) -> float:
    """The smallest step whose mean is within CGD_CALIBRATION_TIE_RTOL of the best."""
    best_mean = max(means)
    return min(step for step, mean_obj in zip(steps, means)
               if best_mean - mean_obj <= CGD_CALIBRATION_TIE_RTOL * abs(best_mean))


def _calibration_means(config: ExperimentConfig, factors: np.ndarray, steps: tuple) -> tuple:
    """Mean best objective over the stacked calibration factors at each of
    `steps`, descending as one block; a mean that is not finite raises ValueError."""
    means = optimizer.fixed_step_descents(factors, steps, config.mean_amplitude,
                                          config.optimizer.max_iterations)[0].mean(axis=0)
    for step, mean_obj in zip(steps, means):
        if not math.isfinite(mean_obj):
            raise ValueError(f"C-GD calibration at step {step} (n_ris = {config.n_ris}) "
                             f"has mean objective {mean_obj}")
    return tuple(means)


def calibrate_fixed_step(config: ExperimentConfig) -> float:
    """Pick the constant step with the best mean objective on a small seeded
    calibration batch (streams disjoint from the main experiment): the smallest
    grid step whose mean is within CGD_CALIBRATION_TIE_RTOL of the best.

    The forms descend on their stacked path factors in two ascending blocks of
    grid steps, (1e-4, 1e-3) and then (1e-2, 0.1, 1.0); a block of two or more
    steps gives each run the bits it has in one 5-step block. The second block
    runs only where the bound U = mu^2 N mean_f sigma_max(G_f)^2
    (_objective_bound) does not certify the first block's pick p. Each
    objective is mu^2 ||G^H u||^2 <= mu^2 N sigma_max(G)^2 for unit-modulus u,
    so the best mean B over all 5 steps lies in [b, U], b the first block's
    best. The rule keeps a step s iff B - m_s <= rtol |B|, and B - m_s -
    rtol |B| grows with B: if p passes that test against U it passes against
    B, and a smaller step, which failed against b, fails against B. So a
    certified p is the rule's pick on all 5 means. A mean that is not finite
    in a block that runs raises ValueError."""
    factors = np.stack([optimizer.trace_normalized_factor(*_roots(config, _ris_paths(
        config, c, "calib-"))) for c in range(CGD_CALIBRATION_REALIZATIONS)])
    first, rest = CGD_CALIBRATION_GRID[:2], CGD_CALIBRATION_GRID[2:]
    means = _calibration_means(config, factors, first)
    pick = _tie_pick(first, means)
    bound = _objective_bound(factors, config.mean_amplitude)
    if bound - means[first.index(pick)] <= CGD_CALIBRATION_TIE_RTOL * abs(bound):
        return pick
    return _tie_pick(CGD_CALIBRATION_GRID, means + _calibration_means(config, factors, rest))


@_blas_threads(1)
def run_experiment(config: ExperimentConfig, workers: int = 1,
                   dump_dir=None, timing: bool = False) -> tuple:
    """The configured Monte-Carlo sweep's SweepRows, sorted; deterministic for any
    worker count. With cgd calibrated, each point config carries the C-GD step it runs.
    mean_wall_ms is 0 unless `timing` is set, which makes the rows non-reproducible."""
    config.validate()
    n_real = config.n_realizations
    ris_schemes = [s for s in config.schemes if s != "no_ris"]
    points = []   # (sweep value, scheme, each realization's (rates, iterations, wall ms))
    with contextlib.ExitStack() as stack:
        pool_map = map
        if workers > 1:
            # imported here: the pool loads multiprocessing, socket and logging
            from concurrent.futures import ProcessPoolExecutor
            # one BLAS thread per worker too, so that workers do not oversubscribe the cores;
            # the pool starts every worker at its first submit, so at most one per usable CPU
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            pool_map = stack.enter_context(ProcessPoolExecutor(
                max_workers=min(workers, n_real, cpus),
                initializer=_set_blas_threads, initargs=(1,))).map
        direct = (list(pool_map(partial(_direct_result, config), range(n_real)))
                  if "no_ris" in config.schemes else None)
        for group in _point_groups(config):
            cfgs = [cfg for _, cfg in group]
            if "cgd" in config.schemes and config.optimizer.fixed_step == "auto":
                # calibrated once, on the group's first point
                opt = replace(cfgs[0].optimizer, fixed_step=calibrate_fixed_step(cfgs[0]))
                cfgs = [replace(cfg, optimizer=opt) for cfg in cfgs]
            # each realization's RIS path lists, drawn once for the dumps, roots and form
            paths = [_ris_paths(cfgs[0], r) for r in range(n_real)]
            reals = [channel.ChannelRealization(*pair, realization=r, config=cfgs[0])
                     for r, pair in enumerate(paths)]
            if dump_dir is not None:
                name = config.sweep   # the file name carries the swept field's value
                for cfg in cfgs:
                    suffix = "" if name == "none" else f"_{name}{getattr(cfg, name)}"
                    for r, real in enumerate(reals):
                        channel.dump_realization(real, cfg, f"{dump_dir}/real{r:05d}{suffix}.txt")
            roots = [_roots(cfgs[0], pair) for pair in paths] if ris_schemes else []
            targets, cgd = _factor_descents(cfgs[0], roots, config.schemes)
            results = list(pool_map(partial(_run_point, cfgs, ris_schemes), reals, roots,
                                    targets, cgd))   # empty without a RIS scheme
            points += [(value, scheme, direct if scheme == "no_ris"
                        else [res[k][scheme] for res in results])
                       for k, (value, _) in enumerate(group) for scheme in config.schemes]

    rows = []
    for value, scheme, per_real in points:
        # (R, Q) rates, (R,) iterations and wall ms over the realizations
        rates, iters, wall = map(np.array, zip(*per_real))
        for q, snr in enumerate(config.snr_grid_db):
            rows.append(SweepRow(
                sweep_value=float(value), scheme=scheme, snr_db=float(snr),
                mean_rate=float(np.mean(rates[:, q])),
                std_rate=float(np.std(rates[:, q])),
                n_real=n_real, mean_iters=float(np.mean(iters)),
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

# key -> (value kind, documentation), in field order: each key is the name of an
# ExperimentConfig field but `optimizer`, or of an OptimizerSettings field
CONFIG_SCHEMA = {f.name: (f.metadata["kind"], f.metadata["doc"])
                 for f in fields(ExperimentConfig) + fields(OptimizerSettings)
                 if f.name != "optimizer"}


def _config_values(config: ExperimentConfig) -> dict:
    """key -> value of config for every CONFIG_SCHEMA key, in schema order."""
    return {key: getattr(config.optimizer if key in OptimizerSettings.__dataclass_fields__
                         else config, key) for key in CONFIG_SCHEMA}


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
    opt = {f.name: merged.pop(f.name) for f in fields(OptimizerSettings)}
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
