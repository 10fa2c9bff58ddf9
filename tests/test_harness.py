"""Experiment orchestration: config parsing, sweeps, CSV, determinism."""

import concurrent.futures
import itertools
import math
import os
import re
import sys
import tempfile
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzris import beamforming, channel, harness, optimizer
from thzris.channel import Hop
from thzris.harness import (CONFIG_SCHEMA, SCHEMES, SWEEPS, ConfigError, ExperimentConfig,
                            calibrate_fixed_step,
                            config_reference, config_to_text, emit_csv, load_config,
                            parse_config, preset, preset_names, run_experiment,
                            stream_seed)
from thzris.optimizer import OptimizerSettings

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN = os.path.join(GOLDEN_DIR, "tiny_sweep.csv")


def _blas_threads() -> int:
    return harness._bundled_openblas().scipy_openblas_get_num_threads64_()


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(n_bs=8, n_ris=8, n_ms=4, m_bs=4, m_ms=4, n_streams=2,
                n_realizations=3, snr_grid_db=(0.0, 10.0),
                schemes=("agd", "no_ris", "random"), master_seed=7,
                optimizer=OptimizerSettings(max_iterations=10))
    base.update(overrides)
    return ExperimentConfig(**base)


def calib_hop(cfg: ExperimentConfig, hop: Hop, c: int) -> np.ndarray:
    """Calibration realization c's referenced hop matrix, drawn from the stream
    calibration draws its paths from."""
    rng = harness.stream_rng(cfg.master_seed, c, "calib-" + hop.value)
    return channel.sample_channel(cfg, hop, rng)[0] / channel.hop_reference(cfg, hop)


def one_block_pick(cfg: ExperimentConfig) -> float:
    """The tie rule on one block of all 5 grid steps: the smallest step whose mean
    best objective over the 10 calibration forms is within
    CGD_CALIBRATION_TIE_RTOL (relative) of the best mean."""
    factors = np.stack([harness._factor(cfg, harness._ris_paths(cfg, c, "calib-"))
                        for c in range(harness.CGD_CALIBRATION_REALIZATIONS)])
    means = optimizer.fixed_step_descents(factors, harness.CGD_CALIBRATION_GRID,
                                          cfg.mean_amplitude,
                                          cfg.optimizer.max_iterations)[0].mean(axis=0)
    best = max(means)
    return min(step for step, mean in zip(harness.CGD_CALIBRATION_GRID, means)
               if best - mean <= harness.CGD_CALIBRATION_TIE_RTOL * abs(best))


@st.composite
def valid_configs(draw) -> ExperimentConfig:
    """Configs that pass validate(), spanning every key kind; the exhaustive
    scheme is left out so n_ris and bits range freely. kappa_per_m is drawn
    after the RIS-hop distances so that kappa * (bs_ris_m + ris_ms_m) <= 500:
    the absorption factor of the direct hop's reference (the product of both
    RIS hops') is then at least exp(-250), every hop's LoS reference is
    positive and finite, and the direct hop's rate bound, which grows as
    exp(kappa * (bs_ris_m + ris_ms_m)), stays below 5e272."""
    pos = st.floats(1e-6, 1e6, allow_nan=False)
    bs_ris_m, ris_ms_m = draw(pos), draw(pos)
    n_streams = draw(st.integers(1, 4))
    m_bs, m_ms = draw(st.integers(n_streams, 8)), draw(st.integers(n_streams, 8))
    lo = draw(st.floats(0.0, 50.0))
    sweep = draw(st.sampled_from(SWEEPS))
    grids = {"n_ris": st.integers(1, 300).map(float), "bits": st.integers(1, 6).map(float),
             "phi_max_deg": st.floats(0.5, 360.0)}
    grid = () if sweep == "none" else tuple(draw(st.lists(grids[sweep], min_size=1,
                                                          max_size=4, unique=True)))
    opt = OptimizerSettings(max_iterations=draw(st.integers(1, 1000)),
                            fixed_step=draw(st.just("auto") | st.floats(1e-6, 10.0)))
    return ExperimentConfig(
        n_bs=draw(st.integers(m_bs, 600)), n_ris=draw(st.integers(1, 300)),
        n_ms=draw(st.integers(m_ms, 64)), m_bs=m_bs, m_ms=m_ms, n_streams=n_streams,
        carrier_freq_hz=draw(pos) * 1e6, bs_ris_m=bs_ris_m, ris_ms_m=ris_ms_m,
        bs_ms_m=draw(pos),
        kappa_per_m=draw(st.floats(0.0, min(10.0, 500.0 / (bs_ris_m + ris_ms_m)))),
        xi=draw(st.floats(0.0, 1.0)), n_nlos=draw(st.integers(0, 5)),
        n_nlos_direct=draw(st.integers(1, 5)),
        nlos_excess_min_m=lo, nlos_excess_max_m=draw(st.floats(lo, 100.0)),
        ris_element_period_m=draw(pos), phi_max_deg=draw(st.floats(0.5, 360.0)),
        bits=draw(st.integers(1, 6)), mean_amplitude=draw(st.floats(0.5, 1.0)),
        snr_grid_db=tuple(draw(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=5,
                                        unique=True))),
        n_realizations=draw(st.integers(1, 500)), master_seed=draw(st.integers(0, 2 ** 64 - 1)),
        schemes=tuple(draw(st.lists(st.sampled_from([s for s in SCHEMES if s != "exhaustive"]),
                                    min_size=1, max_size=4, unique=True))),
        sweep=sweep, sweep_grid=grid,
        direct_blockage_db=draw(st.floats(0.0, 60.0)), optimizer=opt)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    def test_rf_chain_constraint_named(self):
        with pytest.raises(ConfigError, match="n_bs >= m_bs"):
            ExperimentConfig(n_bs=4, m_bs=6).validate()

    def test_stream_constraint_named(self):
        with pytest.raises(ConfigError, match="m_ms >= n_streams"):
            ExperimentConfig(m_ms=2, n_streams=4).validate()

    def test_exhaustive_guard(self):
        for infeasible in (dict(n_ris=64),
                           dict(sweep="n_ris", sweep_grid=(4.0, 64.0)),
                           dict(sweep="bits", sweep_grid=(1.0, 4.0)),
                           dict(n_ris=10 ** 12)):
            cfg = tiny_config(schemes=("exhaustive",), **{"n_ris": 8, **infeasible})
            with pytest.raises(ConfigError, match="exhaustive"):
                cfg.validate()
        tiny_config(schemes=("exhaustive",), n_ris=8).validate()
        tiny_config(schemes=("exhaustive",), n_ris=4, sweep="bits",
                    sweep_grid=(1.0, 2.0)).validate()

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="schemes"):
            tiny_config(schemes=("agd", "genie")).validate()

    def test_sweep_needs_grid(self):
        with pytest.raises(ConfigError, match="sweep_grid"):
            tiny_config(sweep="bits", sweep_grid=()).validate()


class TestLoadConfig:
    def test_minimal_file_applies_defaults(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("n_bs = 32\nmaster_seed = 5\n")
        cfg = load_config(path)
        defaults = ExperimentConfig()
        assert cfg.n_bs == 32 and cfg.master_seed == 5
        assert cfg.carrier_freq_hz == defaults.carrier_freq_hz
        assert cfg.phi_max_deg == defaults.phi_max_deg
        assert cfg.schemes == defaults.schemes

    def test_paper_scale_echo(self, tmp_path):
        path = tmp_path / "paper.cfg"
        path.write_text("n_bs = 512\nn_ris = 256\nn_ms = 32\n")
        cfg = load_config(path)
        assert (cfg.n_bs, cfg.n_ris, cfg.n_ms) == (512, 256, 32)

    def test_unknown_key_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        # n_antennas never existed; the others are knobs of earlier versions
        for key in ("n_antennas", "c2_epsilon", "fallback_step", "init_phases",
                    "n_random_draws", "record_wall_time"):
            path.write_text(f"n_bs = 16\n{key} = 1\n")
            with pytest.raises(ConfigError, match=rf"bad\.cfg:2: unknown key '{key}'"):
                load_config(path)

    def test_constraint_violation_named(self, tmp_path):
        """A failed check about one key names the line that sets it; a check
        about several keys, or about a key left at its default, names the file."""
        path = tmp_path / "bad.cfg"
        cases = [
            ("n_bs = 4\nm_bs = 6", None, "n_bs >= m_bs"),
            ("kappa_per_m = nan", 1, "kappa_per_m must be finite"),
            ("bs_ris_m = inf", 1, "bs_ris_m must be finite"),
            ("snr_grid_db = 0, nan", 1, "snr_grid_db must be finite"),
            ("sweep = phi_max_deg\nsweep_grid = 90, -inf", 2, "sweep_grid must be finite"),
            ("fixed_step = nan", 1, "fixed_step must be finite"),
            ("n_bs = 8\nmax_iterations = 0", 2, "max_iterations must be >= 1"),
            ("fixed_step = -1", 1, "fixed_step must be > 0"),
            ("# a comment\n\nxi = 2", 3, "xi must lie in [0, 1]"),
            ("nlos_excess_min_m = -50", 1, "nlos_excess_min_m must be >= 0"),
            ("nlos_excess_min_m = 20", None, "nlos_excess_min_m <= nlos_excess_max_m violated"),
            ("sweep = bits", None, "needs a non-empty sweep_grid"),
            ("sweep = bits\nsweep_grid = 2.5", 2, "sweep 'bits' needs int sweep_grid values"),
            ("sweep = n_ris\nsweep_grid = 8, 12.5", 2, "sweep 'n_ris' needs int sweep_grid values"),
            ("sweep = phi_max_deg\nsweep_grid = 90, 400", 2, "sweep_grid value 400: phi_max_deg"),
            ("sweep = vs_phimax", 1, "sweep must be one of ('none', 'n_ris', 'phi_max_deg', "
                                     "'bits')"),
            ("phi_max_deg = 5e-324", 1, "phi_max_deg must lie in (0, 360]"),
            ("sweep = phi_max_deg\nsweep_grid = 120, 120", 2, "sweep_grid repeats a value"),
            ("kappa_per_m = 100", None, "h2 hop's LoS reference is 0, not positive and finite; "
                                        "it is computed from carrier_freq_hz, kappa_per_m, "
                                        "ris_ms_m"),
            ("direct_blockage_db = 1e4", None, "direct hop's LoS reference is inf, not positive "
                                               "and finite; it is computed from carrier_freq_hz, "
                                               "kappa_per_m, bs_ris_m, ris_ms_m, "
                                               "direct_blockage_db"),
            ("carrier_freq_hz = 1e-300\nbs_ris_m = 1e-30", None,
             "h1 hop's LoS reference is inf, not positive and finite; it is computed from "
             "carrier_freq_hz, kappa_per_m, bs_ris_m"),
            ("n_realizations = 1\nbits = 40\nschemes = agd", 2, "bits must be <= 16"),
            ("carrier_freq_hz = 1e-150\nbs_ris_m = 1e6\nris_ms_m = 1e6\nkappa_per_m = 0\n"
             "bs_ms_m = 1e-180\nnlos_excess_min_m = 0\nnlos_excess_max_m = 0", None,
             "direct hop's reflected-path gain at its shortest detour is inf, not finite; it "
             "is computed from carrier_freq_hz, kappa_per_m, xi, bs_ms_m, nlos_excess_min_m"),
            ("kappa_per_m = 0\nbs_ms_m = 1\nschemes = no_ris\nbs_ris_m = 1e150\n"
             "ris_ms_m = 1e150", None,
             "direct hop's rate terms are bounded by inf, not finite; the bound is computed "
             "from snr_grid_db, n_nlos_direct, n_bs, n_ms, carrier_freq_hz, kappa_per_m, xi, "
             "bs_ms_m, nlos_excess_min_m, bs_ris_m, ris_ms_m, direct_blockage_db"),
            ("kappa_per_m = 0\nbs_ms_m = 1\nschemes = no_ris\nbs_ris_m = 1e147\n"
             "ris_ms_m = 1e147", None, "direct hop's rate terms are bounded by inf"),
            ("kappa_per_m = 0\nbs_ms_m = 1\nschemes = no_ris\nbs_ris_m = 1e78\n"
             "ris_ms_m = 1e78\nsnr_grid_db = -300", None,
             "direct hop's rate terms are bounded by inf"),
            ("snr_grid_db = 4000", 1, "snr_grid_db values must lie in [-300, 300] dB"),
            ("n_bs = 8\nsnr_grid_db = 0, 3050", 2, "snr_grid_db values must lie in [-300, 300]"),
            ("schemes = random, random", 1, "schemes repeats a value: random,random"),
            ("snr_grid_db = 10, 10", 1, "snr_grid_db repeats a value: 10.0,10.0"),
            ("schemes = agd,,random,", 1, "schemes: empty list item in 'agd,,random,'"),
            ("snr_grid_db = 0,,10,", 1, "snr_grid_db: empty list item in '0,,10,'"),
            ("sweep = n_ris\nsweep_grid = 8,", 2, "sweep_grid: empty list item"),
            ("n_bs = 8\nsweep_grid = 60, 120", 2, "sweep 'none' takes an empty sweep_grid"),
        ]
        for text, line, message in cases:
            path.write_text(text + "\n")
            where = "bad.cfg" + (f":{line}" if line else "")
            with pytest.raises(ConfigError, match=re.escape(f"{where}: ") + ".*"
                               + re.escape(message)):
                load_config(path)

    def test_schema_reaches_every_field(self):
        """Each config key is the name of exactly one ExperimentConfig or
        OptimizerSettings field, and each field but `optimizer` has a key."""
        config_fields = {f.name for f in fields(ExperimentConfig)}
        optimizer_fields = {f.name for f in fields(OptimizerSettings)}
        assert not config_fields & optimizer_fields
        assert set(CONFIG_SCHEMA) == (config_fields - {"optimizer"}) | optimizer_fields

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_bs = many\n")
        with pytest.raises(ConfigError, match="bad\\.cfg:1"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("n_bs = 8\nn_bs = 16\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_lists_and_auto_step(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("snr_grid_db = -5, 0, 5\nschemes = agd, random\n"
                        "fixed_step = 0.05\n")
        cfg = load_config(path)
        assert cfg.snr_grid_db == (-5.0, 0.0, 5.0)
        assert cfg.schemes == ("agd", "random")
        assert cfg.optimizer.fixed_step == 0.05
        path.write_text("fixed_step = AUTO\n")
        assert load_config(path).optimizer.fixed_step == "auto"
        path.write_text("sweep_grid =\nschemes = agd\n")   # an empty value is the empty list
        assert load_config(path).sweep_grid == ()

    def test_round_trip_through_text(self, tmp_path):
        cfg = tiny_config(sweep="bits", sweep_grid=(1.0, 2.0))
        path = tmp_path / "round.cfg"
        path.write_text(config_to_text(cfg))
        again = load_config(path)
        assert again == cfg

    def test_config_reference_lists_all_keys(self):
        text = config_reference()
        for key in ("n_bs", "snr_grid_db", "fixed_step", "sweep",
                    "direct_blockage_db"):
            assert key in text

    def test_config_reference_matches_golden(self):
        with open(os.path.join(GOLDEN_DIR, "config_reference.txt"), "rb") as fh:
            assert config_reference().encode() == fh.read()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_text_round_trip_property(self, data):
        cfg = data.draw(valid_configs())
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "gen.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config_to_text(cfg))
            assert load_config(path) == cfg


class TestRatesForChannel:
    @pytest.mark.parametrize("n_streams", [1, 2, 3, 4])
    def test_equals_log_det_rate(self, n_streams):
        """The singular-value rates equal achievable_rate's log-det under the SVD
        beamformers at every SNR, for a full-rank and a rank-1 channel."""
        rng = np.random.default_rng(40 + n_streams)
        cfg = replace(ExperimentConfig(), n_streams=n_streams,
                      snr_grid_db=(-10.0, -3.0, 0.0, 10.0, 20.0))
        u, v, full = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                      for shape in ((6, 1), (9, 1), (6, 9)))
        for he in (full, u @ v.conj().T):
            pair = beamforming.svd_beamformers(he, n_streams)
            expect = [beamforming.achievable_rate(he, pair, 10.0 ** (snr / 10.0))
                      for snr in cfg.snr_grid_db]
            np.testing.assert_allclose(harness._rates_for_channel(he, cfg), expect,
                                       rtol=1e-12, atol=0.0)

    def test_raises_where_a_rate_is_not_finite(self):
        cfg = replace(ExperimentConfig(), n_streams=2, snr_grid_db=(0.0, 300.0))
        with pytest.raises(np.linalg.LinAlgError):
            harness._rates_for_channel(np.full((4, 4), np.nan, dtype=complex), cfg)
        # s_1^2 = 1.6e301 is finite, and 1e30 / 2 times it overflows at 300 dB
        with np.errstate(over="ignore"), pytest.raises(np.linalg.LinAlgError,
                                                       match="not finite"):
            harness._rates_for_channel(np.full((4, 4), 1e150, dtype=complex), cfg)


class TestStreamSeeds:
    def test_documented_derivation(self):
        import hashlib
        expect = int.from_bytes(
            hashlib.sha256(b"42:7:h1").digest()[:8], "big")
        assert stream_seed(42, 7, "h1") == expect

    def test_streams_distinct(self):
        seeds = {stream_seed(1, r, tag) for r in range(50)
                 for tag in ("h1", "h2", "direct", "random")}
        assert len(seeds) == 200


class TestRunExperiment:
    def test_row_counting_single_scheme(self):
        cfg = tiny_config(schemes=("random",), n_realizations=1,
                          snr_grid_db=(10.0,))
        rows = run_experiment(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert row.scheme == "random" and row.n_real == 1
        assert row.mean_iters == 1.0 and row.mean_wall_ms == 0.0

    def test_rows_sorted_and_complete(self):
        cfg = tiny_config(sweep="bits", sweep_grid=(2.0, 1.0))
        rows = run_experiment(cfg)
        keys = [(r.sweep_value, r.scheme, r.snr_db) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 2 * 3 * 2  # sweep x scheme x snr

    def test_optimized_beats_random_in_mean(self):
        cfg = tiny_config(n_realizations=10,
                          optimizer=OptimizerSettings(max_iterations=60))
        rows = run_experiment(cfg)
        rates = {(r.scheme, r.snr_db): r.mean_rate for r in rows}
        for snr in cfg.snr_grid_db:
            assert rates[("agd", snr)] >= rates[("random", snr)]

    def test_deterministic_across_worker_counts(self):
        cfg = tiny_config()
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=3)
        assert serial == parallel

    def test_cgd_deterministic_across_worker_counts(self):
        """C-GD descends every realization of a point group in one block before
        the pool starts, and each worker receives its realizations' rows of each
        group's block (two groups here, one per n_ris)."""
        cfg = tiny_config(schemes=("agd", "cgd", "random"), sweep="n_ris", sweep_grid=(4.0, 8.0),
                          optimizer=OptimizerSettings(max_iterations=40, fixed_step="auto"))
        serial = run_experiment(cfg, workers=1)
        assert {r.scheme for r in serial} == {"agd", "cgd", "random"}
        assert serial == run_experiment(cfg, workers=3)

    def test_exhaustive_scheme_dominates_others(self):
        cfg = tiny_config(n_ris=4, schemes=("agd", "exhaustive", "random"),
                          n_realizations=2)
        rows = run_experiment(cfg)
        rates = {(r.scheme, r.snr_db): r.mean_rate for r in rows}
        # discrete optimum dominates every other quantized scheme per SNR
        for snr in cfg.snr_grid_db:
            assert rates[("exhaustive", snr)] >= rates[("agd", snr)] - 1e-9
            assert rates[("exhaustive", snr)] >= rates[("random", snr)] - 1e-9

    def test_wall_time_column_off_by_default(self):
        cfg = tiny_config()
        rows = run_experiment(cfg)
        assert all(r.mean_wall_ms == 0.0 for r in rows)

    def test_wall_time_capture_opt_in(self, monkeypatch):
        """Every scheme's wall time includes its rate evaluation, which is
        slowed here by 20 ms a call, and on a 2-point bits sweep each point's
        agd time also includes the one A-GD descent both share, slowed by 30 ms."""
        rates_for_channel, run_agd = harness._rates_for_channel, optimizer.run_agd

        def slow(fn, seconds):
            def wrapper(*args):
                time.sleep(seconds)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(harness, "_rates_for_channel", slow(rates_for_channel, 0.02))
        monkeypatch.setattr(optimizer, "run_agd", slow(run_agd, 0.03))
        cfg = tiny_config(sweep="bits", sweep_grid=(1.0, 2.0))
        rows = run_experiment(cfg, timing=True)
        assert {r.scheme for r in rows} == {"agd", "no_ris", "random"}
        assert {r.sweep_value for r in rows} == {1.0, 2.0}
        assert all(r.mean_wall_ms >= 20.0 for r in rows), rows
        assert all(r.mean_wall_ms >= 50.0 for r in rows if r.scheme == "agd"), rows
        # timing fills only the wall column
        assert run_experiment(cfg) == tuple(r._replace(mean_wall_ms=0.0) for r in rows)

    @pytest.mark.parametrize("sweep, grid", [("phi_max_deg", (60.0, 180.0, 360.0)),
                                             ("bits", (1.0, 3.0))])
    def test_sweep_rows_equal_single_point_runs(self, sweep, grid):
        """The points of a codebook sweep share one descent and one calibration,
        yet each row equals the row of its point run alone."""
        cfg = tiny_config(n_ris=4, schemes=("agd", "cgd", "random", "exhaustive"),
                          sweep=sweep, sweep_grid=grid,
                          optimizer=OptimizerSettings(max_iterations=10, fixed_step="auto"))
        rows = run_experiment(cfg)
        kind = type(getattr(ExperimentConfig, sweep))
        for value in grid:
            alone = run_experiment(replace(cfg, sweep="none", sweep_grid=(),
                                           **{sweep: kind(value)}))
            assert tuple(r for r in rows if r.sweep_value == value) == \
                tuple(r._replace(sweep_value=value) for r in alone)

    @pytest.mark.parametrize("sweep, grid, n_problems", [
        ("phi_max_deg", (60.0, 180.0, 360.0), 1), ("n_ris", (4.0, 8.0), 2),
        ("bits", (1.0, 3.0), 1), ("none", (), 1)])
    def test_codebook_sweep_calibrates_and_descends_once(self, monkeypatch, sweep, grid,
                                                         n_problems):
        """A phi_max_deg or bits sweep is one point group, which calibrates once
        and descends once per realization; an n_ris sweep has one group per point.
        Each group takes block C-GD descents on thin factors: the calibration
        grid's two blocks of steps on its 10 forms (these 10-iteration budgets
        stay short of the objective bound, so the second block runs), and its
        calibrated step on every realization's form; the sweep runs no run_cgd."""
        calls = {"calibrate": 0, "agd": 0, "cgd": 0}
        blocks, descents = [], optimizer.fixed_step_descents

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def block(factors, steps, *args):
            blocks.append((len(factors), len(steps)))
            return descents(factors, steps, *args)

        monkeypatch.setattr(harness, "calibrate_fixed_step",
                            counted("calibrate", harness.calibrate_fixed_step))
        monkeypatch.setattr(optimizer, "run_agd", counted("agd", optimizer.run_agd))
        monkeypatch.setattr(optimizer, "run_cgd", counted("cgd", optimizer.run_cgd))
        monkeypatch.setattr(optimizer, "fixed_step_descents", block)
        cfg = tiny_config(schemes=("agd", "cgd"), sweep=sweep, sweep_grid=grid,
                          optimizer=OptimizerSettings(max_iterations=10, fixed_step="auto"))
        run_experiment(cfg)
        n = cfg.n_realizations * n_problems
        assert calls == {"calibrate": n_problems, "agd": n, "cgd": 0}
        assert blocks == [(harness.CGD_CALIBRATION_REALIZATIONS, 2),
                          (harness.CGD_CALIBRATION_REALIZATIONS, 3)] * n_problems \
            + [(cfg.n_realizations, 1)] * n_problems

    def test_pool_workers_use_one_blas_thread(self, monkeypatch):
        """run_experiment's pool has no more workers than realizations, and
        each worker runs with one BLAS thread."""
        lib = harness._bundled_openblas()
        if getattr(lib, "scipy_openblas_get_num_threads64_", None) is None:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count call")
        pools = []

        def recorded(**kwargs):
            pools.append(kwargs)
            return ProcessPoolExecutor(**kwargs)

        # run_experiment imports the pool class from concurrent.futures when it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recorded)
        cfg = tiny_config(n_realizations=2)
        assert run_experiment(cfg, workers=4) == run_experiment(cfg)
        assert pools == [dict(max_workers=2, initializer=harness._set_blas_threads,
                              initargs=(1,))]
        with ProcessPoolExecutor(max_workers=1, initializer=harness._set_blas_threads,
                                 initargs=(1,)) as pool:
            assert pool.submit(_blas_threads).result() == 1

    def test_paper_scale_rows_equal_across_worker_counts(self):
        """A threaded LAPACK SVD of the 32x512 direct hop differs in the last
        bits, so a serial run also uses one BLAS thread, as pool workers do."""
        cfg = replace(preset("fig7-paper"), n_realizations=2, schemes=("no_ris", "agd"))
        assert run_experiment(cfg, workers=1) == run_experiment(cfg, workers=2)

    def test_one_blas_thread_inside_and_restored(self, monkeypatch, tmp_path):
        """run_experiment and replay_realization run with one BLAS thread and
        restore the count found on entry, also when the run raises."""
        lib = harness._bundled_openblas()
        if getattr(lib, "scipy_openblas_get_num_threads64_", None) is None:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count call")
        seen = []
        calibrate, run_point = harness.calibrate_fixed_step, harness._run_point

        def calibrated(*args):
            seen.append(("calibrate", _blas_threads()))
            return calibrate(*args)

        def ran(*args):
            seen.append(("point", _blas_threads()))
            return run_point(*args)

        def failed(*args, **kwargs):
            raise RuntimeError("realization failed")

        monkeypatch.setattr(harness, "calibrate_fixed_step", calibrated)
        monkeypatch.setattr(harness, "_run_point", ran)
        original = harness._set_blas_threads(2)
        try:
            entry = _blas_threads()
            cfg = tiny_config(n_realizations=1, schemes=("cgd",),
                              optimizer=OptimizerSettings(max_iterations=10, fixed_step="auto"))
            run_experiment(cfg, dump_dir=str(tmp_path))
            assert _blas_threads() == entry
            harness.replay_realization(tmp_path / "real00000.txt", 10.0)
            assert _blas_threads() == entry
            assert seen == [("calibrate", 1), ("point", 1), ("point", 1)]
            monkeypatch.setattr(harness, "_run_realization", failed)
            with pytest.raises(RuntimeError, match="realization failed"):
                run_experiment(cfg)
            assert _blas_threads() == entry
        finally:
            harness._set_blas_threads(original)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="older CPython keeps call arguments alive in the caller")
    @pytest.mark.parametrize("dump", [False, True])
    def test_raw_hops_freed_before_each_form(self, monkeypatch, tmp_path, dump):
        """No raw hop is alive when a sweep form is built, with or without
        dumps: at paper scale a raw 256x512 hop is 2 MB of peak memory. Each
        is a temporary of its referencing. Calibration builds no form
        (TestCalibration)."""
        raw, alive = [], []
        hop_matrix, build = channel.hop_matrix, optimizer.build_quadratic_form

        def rebuilt(*args):
            matrix = hop_matrix(*args)
            raw.append(weakref.ref(matrix))
            return matrix

        def built(*args):
            alive.append(sum(ref() is not None for ref in raw))
            return build(*args)

        monkeypatch.setattr(channel, "hop_matrix", rebuilt)
        monkeypatch.setattr(optimizer, "build_quadratic_form", built)
        cfg = tiny_config(schemes=("agd", "cgd", "no_ris"), sweep="phi_max_deg",
                          sweep_grid=(180.0, 360.0),
                          optimizer=OptimizerSettings(max_iterations=10, fixed_step="auto"))
        run_experiment(cfg, dump_dir=str(tmp_path) if dump else None)
        assert len(os.listdir(tmp_path)) == (2 * cfg.n_realizations if dump else 0)
        assert len(raw) == 3 * cfg.n_realizations   # the direct and both RIS hops
        assert alive == [0] * cfg.n_realizations

    def test_no_ris_alone_samples_only_the_direct_hop(self, monkeypatch, tmp_path):
        """no_ris needs neither RIS hop nor their quadratic form: only the
        direct hop's matrix is built, also when the RIS hops' path lists are
        dumped, since a dump holds no matrix."""
        built, forms = [], []
        hop_matrix, build = channel.hop_matrix, optimizer.build_quadratic_form

        def rebuilt(config, hop, paths):
            built.append(hop)
            return hop_matrix(config, hop, paths)

        def formed(*args):
            forms.append(args)
            return build(*args)

        monkeypatch.setattr(channel, "hop_matrix", rebuilt)
        monkeypatch.setattr(optimizer, "build_quadratic_form", formed)
        cfg = replace(preset("fig7-desk"), n_realizations=5, schemes=("no_ris",))
        run_experiment(cfg)
        run_experiment(cfg, dump_dir=str(tmp_path))
        assert len(os.listdir(tmp_path)) == 5
        assert built == [Hop.BS_MS_DIRECT] * 10 and forms == []

    def test_form_built_only_for_agd_or_exhaustive(self, monkeypatch):
        """C-GD, random and no_ris need no dense form: without agd and exhaustive
        a run builds none, and its rows equal those of the same run with agd."""
        forms, build = [], optimizer.build_quadratic_form
        cfg = tiny_config(schemes=("cgd", "random", "no_ris"), sweep="n_ris",
                          sweep_grid=(4.0, 8.0),
                          optimizer=OptimizerSettings(max_iterations=10, fixed_step="auto"))
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "build_quadratic_form",
                          lambda *args: forms.append(args) or build(*args))
            rows = run_experiment(cfg)
        assert forms == []
        with_agd = run_experiment(replace(cfg, schemes=("agd",) + cfg.schemes))
        assert rows == tuple(r for r in with_agd if r.scheme != "agd")

    def test_ris_paths_drawn_once_per_realization_and_group(self, monkeypatch):
        """Each realization's RIS path lists are drawn once per point group and
        serve both the group's C-GD block and the realization's rates: with no_ris,
        1 + 2 draws per group per realization; rows do not depend on the worker
        count."""
        draws, sample = [], channel.sample_paths
        cfg = tiny_config(schemes=("cgd", "random", "no_ris"), sweep="n_ris",
                          sweep_grid=(4.0, 8.0),
                          optimizer=OptimizerSettings(max_iterations=10, fixed_step=0.01))
        with monkeypatch.context() as patch:
            patch.setattr(channel, "sample_paths",
                          lambda config, hop, rng: draws.append(hop) or sample(config, hop, rng))
            rows = run_experiment(cfg)
        assert len(draws) == cfg.n_realizations * (1 + 2 * 2)
        assert draws.count(Hop.BS_MS_DIRECT) == cfg.n_realizations
        assert rows == run_experiment(cfg, workers=2)

    def test_detour_without_excess_runs(self):
        """A zero detour excess must not round a reflected path below the direct
        distance: r1 + r2 < r0 made nlos_gain raise on some of these draws."""
        cfg = ExperimentConfig(n_bs=4, n_ris=4, n_ms=4, m_bs=4, m_ms=4,
                               nlos_excess_min_m=0.0, nlos_excess_max_m=0.0,
                               schemes=("no_ris",), n_realizations=200)
        assert len(run_experiment(cfg)) == len(cfg.snr_grid_db)

    def test_no_ris_rate_constant_across_sweep(self):
        cfg = tiny_config(sweep="bits", sweep_grid=(1.0, 3.0))
        rows = run_experiment(cfg)
        vals = {}
        for r in rows:
            if r.scheme == "no_ris":
                vals.setdefault(r.snr_db, set()).add(round(r.mean_rate, 12))
        assert all(len(v) == 1 for v in vals.values())


class TestReplay:
    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="older CPython keeps call arguments alive in the caller")
    def test_raw_hops_freed_before_the_form(self, monkeypatch, tmp_path):
        """Replay keeps no raw hop alive while it builds the quadratic form:
        at paper scale a raw 256x512 hop is 2 MB of peak memory. Only the form
        builds the two hops: the loader's checks and the summary read the
        hops' thin roots and build none."""
        run_experiment(tiny_config(n_realizations=1), dump_dir=str(tmp_path))
        raw, alive = [], []
        hop_matrix, build = channel.hop_matrix, optimizer.build_quadratic_form

        def rebuilt(*args):
            matrix = hop_matrix(*args)
            raw.append(weakref.ref(matrix))
            return matrix

        def built(*args):
            alive.append(sum(ref() is not None for ref in raw))
            return build(*args)

        monkeypatch.setattr(channel, "hop_matrix", rebuilt)
        monkeypatch.setattr(optimizer, "build_quadratic_form", built)
        channel.load_realization(tmp_path / "real00000.txt")
        assert raw == []
        summary, _, rates = harness.replay_realization(tmp_path / "real00000.txt", 10.0)
        assert len(raw) == 2
        assert alive == [0]
        assert summary[0].startswith("seed ") and len(summary) == 3
        assert set(rates) == {"agd", "random"}


class TestCalibration:
    def test_picks_grid_member(self):
        cfg = tiny_config()
        step = calibrate_fixed_step(cfg)
        assert step in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)

    def test_deterministic(self):
        cfg = tiny_config()
        assert calibrate_fixed_step(cfg) == calibrate_fixed_step(cfg)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="older CPython keeps call arguments alive in the caller")
    def test_raw_hops_freed_before_each_form(self, monkeypatch):
        """Calibration reconstructs no raw hop matrix (at paper scale a raw
        256x512 hop is 2 MB of peak memory), and each form's hop path factors
        are freed before the next form's paths are sampled."""
        calls, factors, alive = [], [], []
        sample_paths, hop_factors = channel.sample_paths, channel.hop_factors

        def sampled(config, hop, *args):
            if hop is Hop.BS_RIS:
                alive.append(sum(ref() is not None for ref in factors))
            return sample_paths(config, hop, *args)

        def factored(*args):
            rx, w, tx = hop_factors(*args)
            factors.extend(weakref.ref(a) for a in (rx, w, tx))
            return rx, w, tx

        for name in ("sample_channel", "hop_matrix"):
            monkeypatch.setattr(channel, name, lambda *args, name=name: calls.append(name))
        monkeypatch.setattr(channel, "sample_paths", sampled)
        monkeypatch.setattr(channel, "hop_factors", factored)
        calibrate_fixed_step(tiny_config())
        assert calls == []
        assert alive == [0] * harness.CGD_CALIBRATION_REALIZATIONS

    def test_holds_one_form_at_a_time(self, monkeypatch):
        """Calibration builds no dense form and runs no run_cgd: every form
        descends at each block of grid steps in one block on the forms' stacked
        thin path factors, N x (1 + n_nlos)^2 per form instead of a dense N x N
        form; this short budget runs both blocks."""
        calls, blocks = [], []
        block = optimizer.fixed_step_descents

        def ran(factors, steps, *args):
            blocks.append((factors.shape, tuple(steps)))
            return block(factors, steps, *args)

        for name in ("build_quadratic_form", "run_cgd"):
            monkeypatch.setattr(optimizer, name, lambda *args, name=name: calls.append(name))
        monkeypatch.setattr(optimizer, "fixed_step_descents", ran)
        cfg = tiny_config()
        calibrate_fixed_step(cfg)
        assert calls == []
        shape = (harness.CGD_CALIBRATION_REALIZATIONS, cfg.n_ris, (1 + cfg.n_nlos) ** 2)
        assert blocks == [(shape, harness.CGD_CALIBRATION_GRID[:2]),
                          (shape, harness.CGD_CALIBRATION_GRID[2:])]

    @pytest.mark.parametrize("name, overrides", [
        ("fig7-desk", {}), ("fig8-desk", dict(n_ris=16)), ("fig7-desk", dict(xi=0.0)),
        ("fig7-desk", dict(n_nlos=0)), ("fig8-desk", dict(n_ris=16, n_nlos=4))])
    def test_factor_matches_dense_form(self, name, overrides):
        """G G^H equals the trace-normalized dense form of the same calibration
        draws' referenced hops, including a factor wider than the form (25
        columns at n_ris = 16)."""
        cfg = replace(preset(name), sweep="none", sweep_grid=(), **overrides)
        for c in (0, 9):
            form, _ = optimizer.build_quadratic_form(
                calib_hop(cfg, Hop.BS_RIS, c), calib_hop(cfg, Hop.RIS_MS, c)).trace_normalized()
            g = harness._factor(cfg, harness._ris_paths(cfg, c, "calib-"))
            assert g.shape == (cfg.n_ris, (1 + cfg.n_nlos) ** 2)
            err = np.linalg.norm(g @ g.conj().T - form.matrix)
            assert err <= 1e-12 * np.linalg.norm(form.matrix)

    def test_no_eigendecomposition(self, monkeypatch):
        """The thin factors come from QRs of the steering matrices, with no
        eigendecomposition of a path Gram matrix."""
        def eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert calibrate_fixed_step(tiny_config()) in harness.CGD_CALIBRATION_GRID

    def test_zero_gain_paths_raise_before_any_descent(self, monkeypatch):
        """A calibration form whose path gains are all zero has a zero trace, which
        fails calibration before any descent runs."""
        sample, blocks = channel.sample_paths, []

        def silent(*args):
            return tuple(replace(p, complex_gain=0j) for p in sample(*args))

        monkeypatch.setattr(channel, "sample_paths", silent)
        monkeypatch.setattr(optimizer, "fixed_step_descents",
                            lambda *args: blocks.append(args))
        with pytest.raises(ValueError, match="positive and finite, got 0.0"):
            calibrate_fixed_step(tiny_config())
        assert blocks == []

    @pytest.mark.parametrize("overrides", [
        {}, dict(n_ris=4, mean_amplitude=0.6, phi_max_deg=180.0),
        dict(n_bs=16, n_ris=12, bits=3, xi=0.3, optimizer=OptimizerSettings(max_iterations=40))])
    @pytest.mark.parametrize("seed", [7, 11])
    def test_equals_step_major_loop(self, overrides, seed):
        """Calibration picks the step of a loop that builds every form first and
        runs each step over all of them with run_cgd and the config's own
        mean amplitude, and its best objectives match that loop's at steps 1e-4 to
        1e-2. The block descent on the path factors reassociates sums; steps 0.1
        and 1.0 amplify that rounding (preset calibration means differ by up to
        7% there, and no preset group picks either), though these short runs
        still pick the same step."""
        cfg = tiny_config(master_seed=seed, **overrides)
        forms = [optimizer.build_quadratic_form(
                     calib_hop(cfg, Hop.BS_RIS, c), calib_hop(cfg, Hop.RIS_MS, c)
                 ).trace_normalized()[0]
                 for c in range(harness.CGD_CALIBRATION_REALIZATIONS)]
        table, best_step, best_mean = [], None, -math.inf
        for step in harness.CGD_CALIBRATION_GRID:
            settings = replace(cfg.optimizer, fixed_step=step)
            objs = [optimizer.run_cgd(f, cfg.mean_amplitude, settings).best_objective
                    for f in forms]
            table.append(objs)
            if float(np.mean(objs)) > best_mean:
                best_step, best_mean = step, float(np.mean(objs))
        factors = np.stack([harness._factor(cfg, harness._ris_paths(cfg, c, "calib-"))
                            for c in range(harness.CGD_CALIBRATION_REALIZATIONS)])
        streamed = optimizer.fixed_step_descents(
            factors, harness.CGD_CALIBRATION_GRID, cfg.mean_amplitude,
            cfg.optimizer.max_iterations)[0].T
        for k, step in enumerate(harness.CGD_CALIBRATION_GRID):
            if step <= 1e-2:
                np.testing.assert_allclose(streamed[k], table[k], rtol=1e-12, atol=0)
        assert calibrate_fixed_step(cfg) == best_step

    def test_codebook_bits_do_not_change_the_step(self):
        assert calibrate_fixed_step(tiny_config(bits=16)) == calibrate_fixed_step(tiny_config())

    def test_never_quantizes(self, monkeypatch):
        """Calibration reads only best continuous objectives, so it quantizes
        nothing: at 16 bits and n_ris = 256 a quantization allocates 134 MB."""
        calls = []
        monkeypatch.setattr(optimizer, "quantize_phases", lambda *args: calls.append(args))
        calibrate_fixed_step(tiny_config(bits=16))
        assert calls == []

    @pytest.mark.parametrize("means, step", [
        ((1.0, 5.0, 5.0, 4.0, 3.0), 1e-3),
        ((1.0, 5.0, 5.0 * (1 + 5e-10), 4.0, 3.0), 1e-3),
        ((1.0, 5.0 * (1 + 5e-10), 5.0, 4.0, 5.0), 1e-3),
        ((2.0 * (1 - 9e-10), 1.0, 1.0, 2.0, 1.0), 1e-4),
        ((-1.0 * (1 + 5e-10), -1.0, -3.0, -4.0, -5.0), 1e-4),
        ((1.0, 5.0, 5.0 * (1 + 2e-9), 4.0, 3.0), 1e-2),
        ((1.0, 5.0 * (1 - 2e-9), 4.0, 5.0, 3.0), 1e-1),
        ((-3.0, -2.0, -1.0, -1.0 * (1 + 2e-9), -4.0), 1e-2)])
    def test_tie_rule(self, monkeypatch, means, step):
        """The smallest grid step whose mean is within CGD_CALIBRATION_TIE_RTOL
        (relative) of the best mean wins; beyond it, the best mean wins. Each
        case runs twice: under an objective bound far above every mean, so that
        both blocks of steps run, and under a bound equal to the best mean, which
        certifies the first block's pick, and so skips the second block, exactly
        when the winning step lies in the first block."""
        assert harness.CGD_CALIBRATION_TIE_RTOL == 1e-9
        mean_of, blocks = dict(zip(harness.CGD_CALIBRATION_GRID, means)), []

        def block(factors, steps, *args):
            blocks.append(steps)
            return np.tile([mean_of[s] for s in steps], (len(factors), 1)), None

        monkeypatch.setattr(optimizer, "fixed_step_descents", block)
        for bound, n_blocks in ((1e300, 2), (max(means), 1 if step < 1e-2 else 2)):
            monkeypatch.setattr(harness, "_objective_bound", lambda *args: bound)
            blocks.clear()
            assert calibrate_fixed_step(tiny_config()) == step
            assert len(blocks) == n_blocks

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mean_raises(self, monkeypatch, bad):
        """A block descent whose objective at one step is not finite on one form
        fails calibration, naming the step and n_ris."""

        def block(factors, steps, *args):
            assert factors.shape[1] == 12
            best = np.ones((len(factors), len(steps)))
            if 0.1 in steps:
                best[4, steps.index(0.1)] = bad
            return best, None

        monkeypatch.setattr(optimizer, "fixed_step_descents", block)
        # a bound the first block's means of 1 do not reach, so the second block runs
        monkeypatch.setattr(harness, "_objective_bound", lambda *args: 2.0)
        with pytest.raises(ValueError, match=rf"step 0\.1 \(n_ris = 12\).* {bad}$"):
            calibrate_fixed_step(tiny_config(n_ris=12))

    def test_non_finite_first_block_mean_raises_before_the_second(self, monkeypatch):
        """A mean that is not finite in the first block fails calibration before
        the bound is taken or the second block runs."""
        blocks = []

        def block(factors, steps, *args):
            blocks.append(steps)
            best = np.ones((len(factors), len(steps)))
            best[0, 1] = math.nan
            return best, None

        monkeypatch.setattr(optimizer, "fixed_step_descents", block)
        monkeypatch.setattr(harness, "_objective_bound", lambda *args: blocks.append("bound"))
        with pytest.raises(ValueError, match=r"step 0\.001 \(n_ris = 8\).* nan$"):
            calibrate_fixed_step(tiny_config())
        assert blocks == [harness.CGD_CALIBRATION_GRID[:2]]

    @pytest.mark.parametrize("name, n_ris, step", [
        ("fig5-desk", 64, 1e-3), ("fig6-desk", 64, 1e-3), ("fig7-desk", 64, 1e-3),
        ("fig8-desk", 16, 1e-2), ("fig8-desk", 32, 1e-2), ("fig8-desk", 64, 1e-3),
        ("fig8-desk", 96, 1e-3), ("fig8-desk", 128, 1e-3),
        ("fig5-paper", 256, 1e-3), ("fig6-paper", 256, 1e-3), ("fig7-paper", 256, 1e-3),
        ("fig8-paper", 64, 1e-3), ("fig8-paper", 128, 1e-3), ("fig8-paper", 192, 1e-3),
        ("fig8-paper", 256, 1e-3)])
    def test_desk_preset_steps(self, monkeypatch, name, n_ris, step):
        """The step each calibration group of the desk and paper presets picks; a
        change that flips one also changes that preset's cgd rows, which at paper
        scale no CSV golden covers. The objective bound certifies every pick of
        1e-3, so those groups run only the first block of steps, the cheap one:
        the second block's large steps cost about twice as much per iteration."""
        blocks, descents = [], optimizer.fixed_step_descents

        def block(factors, steps, *args):
            blocks.append(steps)
            return descents(factors, steps, *args)

        monkeypatch.setattr(optimizer, "fixed_step_descents", block)
        point = next(group[0][1] for group in harness._point_groups(preset(name))
                     if group[0][1].n_ris == n_ris)
        assert calibrate_fixed_step(point) == step
        assert len(blocks) == (1 if step < 1e-2 else 2)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_picks_equal_one_block_rule_on_preset_groups(self, seed):
        """On every calibration group of the desk and paper presets, the pick
        equals the tie rule applied to one 5-step block."""
        for name in preset_names():
            for group in harness._point_groups(replace(preset(name), master_seed=seed)):
                assert calibrate_fixed_step(group[0][1]) == one_block_pick(group[0][1]), \
                    (name, group[0][1].n_ris)

    def test_picks_equal_one_block_rule_on_random_configs(self, monkeypatch):
        """The pick equals the tie rule applied to one 5-step block on 200 random
        configs: most on short budgets and a third of those at xi >= 0.1, where
        the first block's pick is not certified, and one in eight in the rank-1
        regime (xi <= 1e-4, n_ris >= 48, 400 iterations), where it mostly is."""
        rng = np.random.default_rng(2024)
        blocks, descents = [], optimizer.fixed_step_descents

        def block(factors, steps, *args):
            blocks.append(steps)
            return descents(factors, steps, *args)

        n_certified = 0
        for k in range(200):
            rank_one = k % 8 == 0
            cfg = tiny_config(
                n_ris=int(rng.integers(56 if rank_one else 4, 65)),
                n_bs=int(rng.integers(4, 17)), n_ms=int(rng.integers(4, 9)),
                n_nlos=int(rng.integers(0, 5)),
                xi=float(10.0 ** (rng.uniform(-6.0, -4.0) if rank_one else
                                  rng.uniform(-1.0 if k % 3 == 0 else -6.0, 0.0))),
                mean_amplitude=float(rng.uniform(0.75 if rank_one else 0.5, 1.0)),
                master_seed=int(rng.integers(0, 2 ** 63)),
                optimizer=OptimizerSettings(max_iterations=400 if rank_one else int(
                    rng.choice((10, 40, 400), p=(0.45, 0.45, 0.1)))))
            blocks.clear()
            with monkeypatch.context() as patch:
                patch.setattr(optimizer, "fixed_step_descents", block)
                step = calibrate_fixed_step(cfg)
            assert step == one_block_pick(cfg), cfg
            n_certified += len(blocks) == 1
        assert 10 <= n_certified <= 190, n_certified

    @pytest.mark.parametrize("n_ris, n_nlos, xi", [(12, 8, 1e-6), (12, 8, 1.0), (64, 2, 1e-6),
                                                   (16, 4, 0.3)])
    def test_bound_exceeds_every_best_objective(self, n_ris, n_nlos, xi):
        """mu^2 N sigma_max(G)^2, widened for rounding, is at least every computed
        best objective of its form at every grid step, and _objective_bound is
        that bound's mean over the forms: on calibration factors, some wider
        than the form (81 columns at n_nlos = 8), and on random Gaussian ones."""
        cfg = tiny_config(n_ris=n_ris, n_nlos=n_nlos, xi=xi,
                          optimizer=OptimizerSettings(max_iterations=400))
        calib = np.stack([harness._factor(cfg, harness._ris_paths(cfg, c, "calib-"))
                          for c in range(harness.CGD_CALIBRATION_REALIZATIONS)])
        rng = np.random.default_rng(n_ris + n_nlos)
        gauss = rng.normal(size=(6, n_ris, 2 * n_nlos + 1)) \
            + 1j * rng.normal(size=(6, n_ris, 2 * n_nlos + 1))
        for factors in (calib, gauss):
            best = optimizer.fixed_step_descents(factors, harness.CGD_CALIBRATION_GRID,
                                                 cfg.mean_amplitude, 400)[0]
            per_form = [cfg.mean_amplitude ** 2 * n_ris * np.linalg.norm(g, 2) ** 2
                        * (1 + 1e-12) for g in factors]
            assert np.all(best <= np.array(per_form)[:, None])
            assert harness._objective_bound(factors, cfg.mean_amplitude) == \
                pytest.approx(np.mean(per_form), rel=1e-13)
            assert np.all(best.mean(axis=0) <= harness._objective_bound(factors,
                                                                         cfg.mean_amplitude))

    @pytest.mark.parametrize("name, overrides", [
        ("fig8-desk", dict(n_ris=16)), ("fig7-desk", dict(xi=0.3)),
        ("fig8-desk", dict(n_ris=16, n_nlos=4))])
    def test_every_block_of_two_steps_or_more_gives_the_five_step_rows(self, name, overrides):
        """Every block of two or more grid steps gives each run the best
        objectives and best phases, bit for bit, that it has in the block of all
        5 steps; so the two blocks calibration runs read the same means as one
        5-step block would. (A block of one step multiplies by matrix-vector
        products, whose bits differ.)"""
        cfg = replace(preset(name), sweep="none", sweep_grid=(), **overrides)
        factors = np.stack([harness._factor(cfg, harness._ris_paths(cfg, c, "calib-"))
                            for c in range(harness.CGD_CALIBRATION_REALIZATIONS)])
        grid = harness.CGD_CALIBRATION_GRID
        run = partial(optimizer.fixed_step_descents, factors, mean_amplitude=cfg.mean_amplitude,
                      max_iterations=cfg.optimizer.max_iterations)
        best, phases = run(grid)
        for size in range(2, len(grid)):
            for subset in itertools.combinations(range(len(grid)), size):
                sub_best, sub_phases = run(tuple(grid[k] for k in subset))
                assert np.array_equal(sub_best, best[:, subset]), subset
                assert np.array_equal(sub_phases, phases[:, subset]), subset


class TestEmitCsv:
    HEADER = ("sweep_value,scheme,snr_db,mean_rate,std_rate,"
              "n_real,mean_iters,mean_wall_ms")

    def test_empty_result_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv((), path)
        assert path.read_bytes() == (self.HEADER + "\n").encode()

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = tiny_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(cfg), a)
        emit_csv(run_experiment(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_matches_committed_golden(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "tiny.csv"
        emit_csv(run_experiment(cfg), path)
        assert path.read_bytes() == open(GOLDEN, "rb").read()

    def test_multi_point_all_schemes_matches_committed_golden(self, tmp_path):
        """Two n_ris points with every scheme: exhaustive (16 and 256
        iterations), no_ris repeated across points, C-GD calibrated per point."""
        cfg = tiny_config(schemes=SCHEMES, sweep="n_ris", sweep_grid=(2.0, 4.0),
                          optimizer=OptimizerSettings(max_iterations=10, fixed_step="auto"))
        path = tmp_path / "tiny_vs_nris.csv"
        emit_csv(run_experiment(cfg), path)
        with open(os.path.join(GOLDEN_DIR, "tiny_vs_nris_all_schemes.csv"), "rb") as fh:
            assert path.read_bytes() == fh.read()

    def test_desk_preset_matches_committed_golden(self, tmp_path):
        """fig7-desk cut to 3 realizations: N = 64, 400 A-GD iterations and the
        calibrated C-GD step (0.001), none of which the tiny golden reaches.
        Its cgd rows are the same at the uncalibrated step 0.01, so the dumped
        config pins the calibration."""
        path = tmp_path / "fig7_desk_r3.csv"
        emit_csv(run_experiment(replace(preset("fig7-desk"), n_realizations=3),
                                dump_dir=str(tmp_path)), path)
        with open(os.path.join(GOLDEN_DIR, "fig7_desk_r3.csv"), "rb") as fh:
            assert path.read_bytes() == fh.read()
        assert "config fixed_step = 0.001\n" in (tmp_path / "real00000.txt").read_text()

    def test_desk_dump_matches_committed_golden(self, tmp_path):
        """One fig7-desk realization's dump, byte for byte: path angles and
        gains are written with repr, so this pins them to the last ulp, which
        the 9-digit CSV goldens do not. no_ris alone still draws and dumps the
        RIS hops."""
        run_experiment(replace(preset("fig7-desk"), n_realizations=1, schemes=("no_ris",)),
                       dump_dir=str(tmp_path))
        with open(os.path.join(GOLDEN_DIR, "dump_fig7_desk_r0.txt"), "rb") as fh:
            assert (tmp_path / "real00000.txt").read_bytes() == fh.read()

    def test_unwritable_path_raises_with_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv((), tmp_path / "no" / "such" / "dir" / "x.csv")


class TestChannelDumps:
    def test_dump_and_replay_round_trip(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, dump_dir=str(tmp_path))
        files = sorted(tmp_path.iterdir())
        assert len(files) == cfg.n_realizations
        real = channel.load_realization(files[0])
        assert real.h1.shape == (8, 8)
        assert real.h2.shape == (4, 8)
        # the dumped paths reproduce the sampled channel exactly
        from thzris.harness import stream_rng
        h1, _ = channel.sample_channel(cfg, channel.Hop.BS_RIS,
                                       stream_rng(cfg.master_seed, 0, "h1"))
        np.testing.assert_array_equal(real.h1, h1)
        assert real.realization == 0
        assert real.config == cfg
        assert real.seed == stream_seed(cfg.master_seed, 0, "h1")

    def test_one_dump_per_sweep_point(self, tmp_path):
        cfg = tiny_config(n_realizations=2, sweep="phi_max_deg", sweep_grid=(120.0, 306.82))
        run_experiment(cfg, dump_dir=str(tmp_path))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert len(names) == cfg.n_realizations * len(cfg.sweep_grid)
        assert "real00001_phi_max_deg306.82.txt" in names
        real = channel.load_realization(tmp_path / "real00001_phi_max_deg120.0.txt")
        assert real.config.phi_max_deg == 120.0

    def test_dumps_record_calibrated_cgd_step(self, tmp_path):
        cfg = tiny_config(n_realizations=2, schemes=("agd", "cgd"), sweep="phi_max_deg",
                          sweep_grid=(120.0, 306.82),
                          optimizer=OptimizerSettings(max_iterations=10, fixed_step="auto"))
        run_experiment(cfg, dump_dir=str(tmp_path))
        for value in cfg.sweep_grid:
            point = replace(cfg, sweep="none", sweep_grid=(), phi_max_deg=value)
            step = calibrate_fixed_step(point)
            for r in range(cfg.n_realizations):
                real = channel.load_realization(tmp_path / f"real{r:05d}_phi_max_deg{value!r}.txt")
                assert real.config.optimizer.fixed_step == step

    def test_no_ris_sweep_dumps_each_point(self, tmp_path):
        """Without a RIS scheme, the RIS hops are drawn for the dumps alone: one
        dump per point with that point's config, and the rows do not change."""
        cfg = tiny_config(n_realizations=2, schemes=("no_ris",), sweep="phi_max_deg",
                          sweep_grid=(120.0, 306.82))
        rows = run_experiment(cfg, dump_dir=str(tmp_path))
        assert rows == run_experiment(cfg)
        assert len(list(tmp_path.iterdir())) == cfg.n_realizations * len(cfg.sweep_grid)
        for value in cfg.sweep_grid:
            point = replace(cfg, sweep="none", sweep_grid=(), phi_max_deg=value)
            for r in range(cfg.n_realizations):
                real = channel.load_realization(tmp_path / f"real{r:05d}_phi_max_deg{value!r}.txt")
                assert (real.realization, real.config) == (r, point)

    def test_edited_config_sets_rebuilt_geometry(self, tmp_path):
        """The dumped config is the only record of the carrier and the RIS
        element period: editing them rebuilds the hops at the edited geometry."""
        cfg = tiny_config(n_realizations=1)
        run_experiment(cfg, dump_dir=str(tmp_path))
        text = (tmp_path / "real00000.txt").read_text()
        edited = replace(cfg, carrier_freq_hz=3e11, ris_element_period_m=0.001)
        for key, value in (("carrier_freq_hz", "3e11"), ("ris_element_period_m", "0.001")):
            text, n = re.subn(rf"^config {key} = .*$", f"config {key} = {value}", text,
                              flags=re.MULTILINE)
            assert n == 1
        (tmp_path / "edited.txt").write_text(text)
        real = channel.load_realization(tmp_path / "edited.txt")
        assert real.config == edited
        for matrix, paths, hop in ((real.h1, real.paths_h1, channel.Hop.BS_RIS),
                                   (real.h2, real.paths_h2, channel.Hop.RIS_MS)):
            np.testing.assert_array_equal(matrix, channel.hop_matrix(edited, hop, paths))
            assert not np.array_equal(matrix, channel.hop_matrix(cfg, hop, paths))


class TestPresets:
    def test_names_cover_four_figures(self):
        names = preset_names()
        for fig in ("fig5", "fig6", "fig7", "fig8"):
            assert f"{fig}-desk" in names and f"{fig}-paper" in names

    def test_desk_and_paper_scales(self):
        desk = preset("fig7-desk")
        paper = preset("fig7-paper")
        assert (desk.n_bs, desk.n_ris, desk.n_ms) == (64, 64, 16)
        assert desk.n_realizations == 50
        assert (paper.n_bs, paper.n_ris, paper.n_ms) == (512, 256, 32)
        assert paper.n_realizations == 100

    def test_fig5_grid_includes_calibrated_range(self):
        cfg = preset("fig5-desk")
        assert cfg.sweep == "phi_max_deg"
        assert 306.82 in cfg.sweep_grid and 360.0 in cfg.sweep_grid and 60.0 in cfg.sweep_grid

    def test_fig6_sweeps_bits(self):
        cfg = preset("fig6-desk")
        assert cfg.sweep == "bits"
        assert set(cfg.sweep_grid) == {1.0, 2.0, 3.0, 4.0}

    def test_fig8_sweeps_element_count(self):
        cfg = preset("fig8-paper")
        assert cfg.sweep == "n_ris"
        assert max(cfg.sweep_grid) == 256.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset("fig9-desk")
